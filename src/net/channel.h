// Simulated two-party network channel.
//
// Both protocol parties run in-process; every message they exchange passes
// through this channel, which records exact byte counts and communication
// flights, and converts them into simulated network seconds using the
// paper's testbed model (§IV): average one-way delay 2.3 ms, bandwidth
// 100 MB/s.  Compute time is measured separately with wall-clock
// stopwatches; total latency = compute + simulated network.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/frame.h"

namespace primer {

struct NetworkModel {
  double one_way_delay_s = 0.0023;   // paper: "average network delay 2.3 ms"
  double bandwidth_bytes_per_s = 100e6;  // paper: "about 100 MB/s"
};

enum class Party : int { kClient = 0, kServer = 1 };

inline Party other(Party p) {
  return p == Party::kClient ? Party::kServer : Party::kClient;
}

inline const char* party_name(Party p) {
  return p == Party::kClient ? "client" : "server";
}

class Channel {
 public:
  explicit Channel(NetworkModel model = NetworkModel{}) : model_(model) {}

  void send(Party from, std::vector<std::uint8_t> msg) {
    auto& q = queue_[static_cast<int>(other(from))];
    charge(from, msg.size());
    q.push_back(std::move(msg));
  }

  // Places a message in the receiver's queue without charging the wire:
  // used by session resume to re-deliver checkpoint-covered frames the peer
  // already holds — those bytes crossed the wire in a previous attempt and
  // paying for them again would double-count the session's traffic.
  void deliver_local(Party from, std::vector<std::uint8_t> msg) {
    queue_[static_cast<int>(other(from))].push_back(std::move(msg));
  }

  // Extra simulated latency (an injected stall).
  void add_simulated_delay(double seconds) {
    if (seconds > 0) simulated_seconds_ += seconds;
  }

  std::vector<std::uint8_t> recv(Party to) {
    auto& q = queue_[static_cast<int>(to)];
    if (q.empty()) {
      // An empty queue means the peer never produced the frame this step
      // expects — the wire equivalent of a sequence gap, and retryable: a
      // session-resume handshake replays the missing prefix.
      throw ProtocolError(ProtocolErrorKind::kSequenceGap,
                          std::string("Channel::recv: no pending message for ") +
                              party_name(to));
    }
    auto msg = std::move(q.front());
    q.pop_front();
    return msg;
  }

  bool has_pending(Party to) const {
    return !queue_[static_cast<int>(to)].empty();
  }

  std::uint64_t total_bytes() const { return total_bytes_; }
  // Number of direction changes — the paper's "interactions".
  std::uint64_t flights() const { return flights_; }

  double simulated_seconds() const {
    return simulated_seconds_ + static_cast<double>(flights_) * model_.one_way_delay_s;
  }

  // Snapshot/delta support so each protocol step can report its own cost.
  struct Snapshot {
    std::uint64_t bytes = 0;
    std::uint64_t flights = 0;
    double seconds = 0;
  };

  Snapshot snapshot() const {
    return Snapshot{total_bytes(), flights_, simulated_seconds()};
  }

  Snapshot delta_since(const Snapshot& s) const {
    return Snapshot{total_bytes() - s.bytes, flights_ - s.flights,
                    simulated_seconds() - s.seconds};
  }

 private:
  void charge(Party from, std::size_t bytes) {
    total_bytes_ += bytes;
    // A new "flight" starts whenever the transmission direction changes;
    // each flight pays the propagation delay once, all bytes pay bandwidth.
    if (last_direction_ != static_cast<int>(from)) {
      ++flights_;
      last_direction_ = static_cast<int>(from);
    }
    simulated_seconds_ +=
        static_cast<double>(bytes) / model_.bandwidth_bytes_per_s;
  }

  NetworkModel model_;
  std::deque<std::vector<std::uint8_t>> queue_[2];
  std::uint64_t total_bytes_ = 0;
  std::uint64_t flights_ = 0;
  int last_direction_ = -1;
  double simulated_seconds_ = 0;
};

}  // namespace primer
