// Simulated 1-out-of-2 oblivious transfer with IKNP-extension cost
// accounting.
//
// The real JustGarble-style deployments the paper builds on use base OTs
// (Naor–Pinkas) bootstrapped into IKNP OT extension.  Running the actual
// public-key base OTs adds nothing to the reproduction (the quantities the
// paper measures are bytes moved and AES work, both of which the extension
// phase dominates), so this module transfers the chosen labels directly
// in-process while charging the channel the exact traffic IKNP would send:
//
//   one-time setup : 128 base OTs x (2 group elements + 1 seed) ~ 128*96 B,
//                    once per protocol session (its GC stages share one OT)
//   per OT         : receiver column 16 B, sender two masked labels 32 B
//   rounds         : 2 per batch (receiver -> sender -> receiver)
//
// This substitution is documented in DESIGN.md §2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gc/garble.h"
#include "net/framed_channel.h"

namespace primer {

class SimulatedOt {
 public:
  // Must share the FramedChannel of whatever protocol surrounds it — a
  // second wrapper over the same Channel would fork the sequence spaces.
  explicit SimulatedOt(FramedChannel& ch) : channel_(ch) {}

  // One-time IKNP setup traffic; later calls do nothing.  Messages are
  // immediately drained by the in-process peer; only the accounting and
  // the size check remain.
  void setup() {
    if (setup_done_) return;
    exchange(Party::kClient, MessageKind::kOtSetup, 128 * 64);
    exchange(Party::kServer, MessageKind::kOtSetup, 128 * 32);
    setup_done_ = true;
  }

  // Sender (server) holds label pairs; receiver (client) holds choice bits.
  // Returns the chosen labels to the receiver while charging IKNP traffic.
  std::vector<Label> transfer(const std::vector<Label>& labels0,
                              const std::vector<Label>& labels1,
                              const std::vector<bool>& choices) {
    setup();
    const std::size_t m = choices.size();
    // Receiver's correction matrix columns.
    exchange(Party::kClient, MessageKind::kOtReceiverColumns, m * 16);
    // Sender's two masked labels per OT.
    exchange(Party::kServer, MessageKind::kOtSenderMasked, m * 32);
    std::vector<Label> out(m);
    for (std::size_t i = 0; i < m; ++i) {
      out[i] = choices[i] ? labels1[i] : labels0[i];
    }
    return out;
  }

 private:
  // Sends `bytes` zero bytes of `kind` from `from` and receives them at the
  // peer, which requires exactly the size an honest sender ships.
  void exchange(Party from, MessageKind kind, std::size_t bytes) {
    channel_.send(from, kind, std::vector<std::uint8_t>(bytes));
    const std::size_t got = channel_.recv_expect(other(from), kind).size();
    if (got != bytes) {
      throw ProtocolError(ProtocolErrorKind::kMalformed,
                          std::string(message_kind_name(kind)) +
                              ": payload of " + std::to_string(got) +
                              " bytes, expected " + std::to_string(bytes));
    }
  }

  FramedChannel& channel_;
  bool setup_done_ = false;
};

}  // namespace primer
