// FramedChannel: typed, integrity-checked transport.
//
// Wraps the raw simulated Channel so that every protocol message travels
// as a checksummed frame (net/frame.h) with a per-direction sequence
// number.  Receivers state what they are waiting for —
// recv_expect(kind) — and get exactly one of:
//
//   * the payload bytes, bit-identical to what the sender framed, or
//   * a typed ProtocolError naming the receiving party, the expected kind
//     and the precise failure (truncation, checksum, kind mismatch,
//     sequence gap).
//
// The transport never repairs a frame.  A missing, truncated, bit-flipped
// or out-of-sequence frame throws a retryable ProtocolError, and the
// session layer recovers: the restart loop (PrimerEngine::run_resilient,
// PrimerServer) re-runs the attempt, the resume handshake agrees on the
// last common checkpoint, and only the frames past it cross the wire
// again.  A seeded FaultInjector (net/fault.h) can damage outgoing frames
// to exercise exactly that path.
//
// Both parties run in-process, so one FramedChannel instance carries both
// directions; anything that shares the underlying Channel must share the
// FramedChannel too, or the sequence spaces desynchronize.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/session.h"

namespace primer {

// Empty on purpose: the transport has no retry layer.  The type survives
// only so callers that still pass one — bench/e2e/primer_bench.cpp builds
// FramedChannel(ch, FaultSpec{}, RetryPolicy{}) — keep compiling; the
// three-argument constructor ignores it.
struct RetryPolicy {};

class FramedChannel {
 public:
  FramedChannel(Channel& ch, const FaultSpec& faults)
      : ch_(ch), injector_(faults) {}
  FramedChannel(Channel& ch, const FaultSpec& faults, const RetryPolicy&)
      : FramedChannel(ch, faults) {}

  void send(Party from, MessageKind kind, const std::uint8_t* payload,
            std::size_t n);
  void send(Party from, MessageKind kind,
            const std::vector<std::uint8_t>& payload) {
    send(from, kind, payload.data(), payload.size());
  }

  // Takes the next frame queued for `to`, verifies its integrity, that it
  // is the next in sequence and that it carries `expect`, and returns its
  // payload; any defect throws a typed ProtocolError.
  std::vector<std::uint8_t> recv_expect(Party to, MessageKind expect);

  // --- session resilience -------------------------------------------------

  // Frames below `virtual_until[dir]` were covered by the checkpoint the
  // resume handshake agreed on: the peer already holds them, so send()
  // verifies the re-encoded frame against `expect_crc` and delivers it
  // locally without charging the wire.  The checkpoint's journal is pruned
  // below `journal_base[dir]` (those frames were CRC-proven by the attempt
  // that took the checkpoint), so `expect_crc[dir][i]` covers sequence
  // number `journal_base[dir] + i` and replays below the base skip the
  // CRC comparison.
  struct ReplayPlan {
    std::uint64_t virtual_until[2] = {0, 0};
    std::uint64_t journal_base[2] = {0, 0};
    std::vector<std::uint32_t> expect_crc[2];
  };

  // Starts (or restarts) a session attempt after the resume handshake:
  // resets both per-direction sequence spaces to zero, drops any frame
  // still queued, clears and enables the CRC journal, and installs the
  // replay plan.  Handshake traffic itself runs before this call and is therefore
  // neither journaled nor sequence-coupled to protocol frames.
  void begin_session(std::uint64_t session_id, std::uint32_t epoch,
                     const ReplayPlan& plan);

  // Advances the epoch label used in error strings (checkpoint boundary).
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }

  // Frames sent so far in the given direction (the checkpoint watermark).
  std::uint64_t sent_count(Party from) const {
    return dir_[static_cast<int>(from)].next_send_seq;
  }
  // Per-frame CRC32C journal for the given direction (empty until
  // begin_session enables journaling).  Entry i covers sequence number
  // journal_base(from) + i: the checkpoint-covered prefix this attempt
  // replayed virtually is not re-journaled.
  const std::vector<std::uint32_t>& journal(Party from) const {
    return journal_[static_cast<int>(from)];
  }
  // First sequence number the journal covers in the given direction.
  std::uint64_t journal_base(Party from) const {
    return journal_base_[static_cast<int>(from)];
  }
  // Frames of `kind` delivered to `to` so far (checkpoint inventory).
  std::uint64_t kind_count(Party to, MessageKind kind) const {
    return kind_counts_[static_cast<int>(to)][static_cast<std::size_t>(kind)];
  }

  // Installs a per-phase deadline polled on every frame (null disables).
  void set_deadline(const SimDeadline* deadline) { deadline_ = deadline; }

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t replayed_frames = 0;  // checkpoint-covered virtual sends
    std::uint64_t replayed_bytes = 0;   // bytes those sends did not re-pay
  };
  const Stats& stats() const { return stats_; }
  const FaultInjector::Counters& fault_counters() const {
    return injector_.counters();
  }

  // Escape hatch for tests that need to place hand-crafted frames on the
  // wire, and for accounting-only callers.
  Channel& raw() { return ch_; }
  const Channel& raw() const { return ch_; }

 private:
  struct DirState {
    std::uint64_t next_send_seq = 0;
    std::uint64_t next_recv_seq = 0;
  };

  // Error-string prefix: session id + epoch (when a session is attached)
  // and the transfer direction, e.g. "sess 1f3a#2 server<-client".
  std::string describe(Party to) const;

  void transmit(Party from, std::vector<std::uint8_t> frame);

  Channel& ch_;
  FaultInjector injector_;
  DirState dir_[2];  // indexed by sending party
  Stats stats_;
  // Session resilience state (inert until begin_session).
  std::uint64_t session_id_ = 0;
  std::uint32_t epoch_ = 0;
  bool journal_on_ = false;
  std::vector<std::uint32_t> journal_[2];  // indexed by sending party
  std::uint64_t journal_base_[2] = {0, 0};
  ReplayPlan plan_;
  std::uint64_t kind_counts_[2][kMessageKindCount] = {};  // [receiver][kind]
  const SimDeadline* deadline_ = nullptr;
};

}  // namespace primer
