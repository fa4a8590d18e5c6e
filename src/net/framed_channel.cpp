#include "net/framed_channel.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/timing.h"

namespace primer {

std::string FramedChannel::describe(Party to) const {
  std::string s;
  if (session_id_ != 0) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "sess %llx#%u ",
                  static_cast<unsigned long long>(session_id_), epoch_);
    s += buf;
  }
  s += party_name(to);
  s += "<-";
  s += party_name(other(to));
  return s;
}

void FramedChannel::transmit(Party from, std::vector<std::uint8_t> frame) {
  const FaultInjector::WireEvent ev = injector_.on_wire_frame();
  if (ev.stall_s > 0) {
    ch_.add_simulated_delay(ev.stall_s);
    // The stall is charged before the deadline poll, so a stall longer
    // than the phase budget trips deterministically at this exact frame.
    if (deadline_ != nullptr) {
      deadline_->check(describe(other(from)) + ": stalled wire frame " +
                       std::to_string(ev.frame_index));
    }
  }
  if (ev.stall_wall_s > 0) {
    // Burn real wall time in short slices, polling the deadline each slice
    // so an external cancel (session eviction, wall watchdog) interrupts the
    // stall instead of waiting it out.
    Stopwatch sw;
    const std::string what = describe(other(from)) +
                             ": wall-stalled wire frame " +
                             std::to_string(ev.frame_index);
    while (sw.seconds() < ev.stall_wall_s) {
      if (deadline_ != nullptr) deadline_->check(what);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (ev.hostile) {
    // Hostile-peer model: flip the high bit of the payload's leading count
    // field and reseal the CRC.  The frame parses cleanly — only the
    // receiver's structural validator can catch it, as a fatal kMalformed.
    if (frame.size() > FrameHeader::kWireSize + 3) {
      frame[FrameHeader::kWireSize + 3] ^= 0x80;
      reseal_frame(frame);
    }
  }
  if (ev.kill) {
    if (injector_.spec().kill_mode == FaultKillMode::kSigkill) {
      // Real process death, not a simulation: SIGKILL cannot be caught, so
      // nothing below this point — destructors, restart loops, the in-memory
      // store — gets a chance to run.  Only what the durable store already
      // fsync'd survives.  Deterministic because the wire-frame counter is.
      std::raise(SIGKILL);
    }
    throw ProtocolError(
        ProtocolErrorKind::kPeerKilled,
        describe(other(from)) + ": " + std::string(party_name(from)) +
            " process killed at wire frame " + std::to_string(ev.frame_index) +
            " (PRIMER_FAULT_KILL_AFTER)");
  }
  if (injector_.spec().any_random()) frame = injector_.apply(std::move(frame));
  ch_.send(from, std::move(frame));
}

void FramedChannel::send(Party from, MessageKind kind,
                         const std::uint8_t* payload, std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("FramedChannel::send: payload of " +
                            std::to_string(n) +
                            " bytes exceeds the u32 length field");
  }
  const int fi = static_cast<int>(from);
  const std::uint64_t seq = dir_[fi].next_send_seq++;
  std::vector<std::uint8_t> frame = encode_frame(kind, seq, payload, n);
  std::uint32_t crc = 0;
  std::memcpy(&crc, frame.data() + FrameHeader::kCrcOffset, 4);
  if (journal_on_ && seq >= journal_base_[fi]) journal_[fi].push_back(crc);
  ++stats_.frames_sent;
  stats_.framing_bytes += FrameHeader::kWireSize;

  // Checkpoint-covered prefix: the peer already holds this frame from a
  // previous attempt.  Verify determinism against the journaled CRC and
  // deliver locally — no wire charge, no fault injection.  Below the
  // checkpoint's journal base the CRCs were pruned (proven by the attempt
  // that took the checkpoint), so only determinism above the base is
  // re-checked.
  if (seq < plan_.virtual_until[fi]) {
    if (seq >= plan_.journal_base[fi]) {
      const std::uint32_t expect =
          plan_.expect_crc[fi][seq - plan_.journal_base[fi]];
      if (crc != expect) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "CRC %08x, journal says %08x", crc,
                      expect);
        throw ProtocolError(
            ProtocolErrorKind::kResumeDiverged,
            describe(other(from)) + ": replayed " + message_kind_name(kind) +
                " frame seq " + std::to_string(seq) + " re-encoded with " +
                buf + " — deterministic replay diverged");
      }
    }
    ++stats_.replayed_frames;
    stats_.replayed_bytes += frame.size();
    ch_.deliver_local(from, std::move(frame));
    return;
  }
  transmit(from, std::move(frame));
}

void FramedChannel::begin_session(std::uint64_t session_id,
                                  std::uint32_t epoch,
                                  const ReplayPlan& plan) {
  session_id_ = session_id;
  epoch_ = epoch;
  // Drop anything still queued: its old sequence numbers would collide
  // with the reset space.
  for (Party p : {Party::kClient, Party::kServer}) {
    while (ch_.has_pending(p)) ch_.recv(p);
  }
  for (int d = 0; d < 2; ++d) {
    dir_[d] = DirState{};
    journal_[d].clear();
    // Prune point for this attempt's journal: everything the replay plan
    // covers virtually is verified on the fly and never re-journaled.
    journal_base_[d] = plan.virtual_until[d];
    for (std::size_t k = 0; k < kMessageKindCount; ++k) {
      kind_counts_[d][k] = 0;
    }
  }
  journal_on_ = true;
  plan_ = plan;
}

std::vector<std::uint8_t> FramedChannel::recv_expect(Party to,
                                                     MessageKind expect) {
  DirState& dir = dir_[static_cast<int>(other(to))];
  const std::uint64_t want = dir.next_recv_seq;
  const std::string where = describe(to) + " awaiting " +
                            message_kind_name(expect) + " (seq " +
                            std::to_string(want) + ")";
  if (deadline_ != nullptr) deadline_->check(where);
  if (!ch_.has_pending(to)) {
    throw ProtocolError(ProtocolErrorKind::kSequenceGap,
                        where + ": no pending frame");
  }
  const std::vector<std::uint8_t> frame = ch_.recv(to);
  const FrameHeader h = parse_frame(frame, where);
  if (h.seq != want) {
    throw ProtocolError(ProtocolErrorKind::kSequenceGap,
                        where + ": got " + message_kind_name(h.kind) +
                            " frame seq " + std::to_string(h.seq) +
                            (h.seq < want ? " (replayed)" : " (frames lost)"));
  }
  if (h.kind != expect) {
    throw ProtocolError(ProtocolErrorKind::kKindMismatch,
                        where + ": frame carries " +
                            message_kind_name(h.kind));
  }
  dir.next_recv_seq = want + 1;
  ++stats_.frames_delivered;
  ++kind_counts_[static_cast<int>(to)][static_cast<std::size_t>(h.kind)];
  return std::vector<std::uint8_t>(frame.begin() + FrameHeader::kWireSize,
                                   frame.end());
}

}  // namespace primer
