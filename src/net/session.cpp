#include "net/session.h"

#include <algorithm>
#include <stdexcept>

#include "net/crc32c.h"

namespace primer {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x504b4353u;  // "SCKP"
// v2 added journal_base: the CRC journal is pruned below the watermark the
// attempt resumed from (see SessionCheckpoint in session.h).
constexpr std::uint32_t kCheckpointVersion = 2;
constexpr std::size_t kMaxPhaseLen = 128;
// Journal bound: 2^24 frames per direction is far beyond any real run and
// caps a hostile count field at 64 MiB before the byte-budget check hits.
constexpr std::uint64_t kMaxJournalLen = std::uint64_t{1} << 24;
constexpr std::size_t kMaxHelloEpochs = 4096;

[[noreturn]] void malformed(const std::string& where, const std::string& why) {
  throw ProtocolError(ProtocolErrorKind::kMalformed, where + ": " + why);
}

}  // namespace

void SessionCheckpoint::serialize(ByteWriter& w) const {
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(session_id);
  w.u32(epoch);
  w.u32(static_cast<std::uint32_t>(phase.size()));
  w.bytes(phase.data(), phase.size());
  w.u64(params_hash);
  for (int d = 0; d < 2; ++d) {
    w.u64(send_watermark[d]);
    w.u64(journal_base[d]);
    w.u32(static_cast<std::uint32_t>(frame_crc[d].size()));
    for (std::uint32_t crc : frame_crc[d]) w.u32(crc);
  }
  for (int d = 0; d < 2; ++d) {
    for (std::size_t k = 0; k < kMessageKindCount; ++k) {
      w.u64(kind_counts[d][k]);
    }
  }
  w.u64(wire_bytes);
}

SessionCheckpoint SessionCheckpoint::deserialize(ByteReader& r) {
  const std::string where = "session checkpoint";
  SessionCheckpoint cp;
  try {
    if (r.u32() != kCheckpointMagic) malformed(where, "bad magic");
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion) {
      malformed(where, "unknown version " + std::to_string(version));
    }
    cp.session_id = r.u64();
    cp.epoch = r.u32();
    const std::uint32_t phase_len = r.u32();
    if (phase_len > kMaxPhaseLen) {
      malformed(where, "phase label of " + std::to_string(phase_len) +
                           " bytes exceeds the " +
                           std::to_string(kMaxPhaseLen) + "-byte cap");
    }
    cp.phase.resize(phase_len);
    if (phase_len != 0) r.bytes(cp.phase.data(), phase_len);
    cp.params_hash = r.u64();
    for (int d = 0; d < 2; ++d) {
      cp.send_watermark[d] = r.u64();
      cp.journal_base[d] = r.u64();
      if (cp.journal_base[d] > cp.send_watermark[d]) {
        malformed(where, "journal base " + std::to_string(cp.journal_base[d]) +
                             " exceeds watermark " +
                             std::to_string(cp.send_watermark[d]));
      }
      const std::uint32_t n = r.u32();
      if (n != cp.send_watermark[d] - cp.journal_base[d] ||
          n > kMaxJournalLen) {
        malformed(where, "journal of " + std::to_string(n) +
                             " CRCs does not span [" +
                             std::to_string(cp.journal_base[d]) + ", " +
                             std::to_string(cp.send_watermark[d]) + ")");
      }
      cp.frame_crc[d].resize(n);
      for (std::uint32_t i = 0; i < n; ++i) cp.frame_crc[d][i] = r.u32();
    }
    for (int d = 0; d < 2; ++d) {
      for (std::size_t k = 0; k < kMessageKindCount; ++k) {
        cp.kind_counts[d][k] = r.u64();
      }
    }
    cp.wire_bytes = r.u64();
  } catch (const std::out_of_range& e) {
    malformed(where, e.what());
  }
  return cp;
}

std::uint32_t SessionCheckpoint::digest() const {
  ByteWriter w;
  serialize(w);
  return crc32c(w.data().data(), w.size());
}

void SessionStore::save(Party p, const SessionCheckpoint& cp) {
  ByteWriter w;
  cp.serialize(w);
  slots_[static_cast<int>(p)][cp.epoch] = w.take();
}

std::optional<SessionCheckpoint> SessionStore::load(Party p,
                                                    std::uint32_t epoch) const {
  const auto& slots = slots_[static_cast<int>(p)];
  auto it = slots.find(epoch);
  if (it == slots.end()) return std::nullopt;
  ByteReader r(it->second);
  return SessionCheckpoint::deserialize(r);
}

std::uint32_t SessionStore::latest_epoch(Party p) const {
  const auto& slots = slots_[static_cast<int>(p)];
  return slots.empty() ? 0 : slots.rbegin()->first;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> SessionStore::digests(
    Party p) const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& [epoch, blob] : slots_[static_cast<int>(p)]) {
    out.emplace_back(epoch, crc32c(blob.data(), blob.size()));
  }
  return out;
}

void SessionStore::drop(Party p, std::uint32_t epoch) {
  slots_[static_cast<int>(p)].erase(epoch);
}

void SessionStore::clear() {
  slots_[0].clear();
  slots_[1].clear();
}

std::size_t SessionStore::blob_bytes() const {
  std::size_t total = 0;
  for (const auto& slots : slots_) {
    for (const auto& [epoch, blob] : slots) total += blob.size();
  }
  return total;
}

void SessionStore::tamper(Party p, std::uint32_t epoch) {
  auto& slots = slots_[static_cast<int>(p)];
  auto it = slots.find(epoch);
  if (it == slots.end() || it->second.empty()) return;
  it->second.back() ^= 0xff;  // flips bits inside the trailing wire_bytes
}

std::vector<std::uint8_t> SessionHello::serialize() const {
  ByteWriter w;
  w.u64(session_id);
  w.u64(params_hash);
  w.u32(static_cast<std::uint32_t>(epochs.size()));
  for (const auto& [epoch, digest] : epochs) {
    w.u32(epoch);
    w.u32(digest);
  }
  return w.take();
}

SessionHello SessionHello::deserialize(
    const std::vector<std::uint8_t>& payload, const std::string& where) {
  SessionHello h;
  try {
    ByteReader r(payload);
    h.session_id = r.u64();
    h.params_hash = r.u64();
    const std::uint32_t n = r.u32();
    if (n > kMaxHelloEpochs) {
      malformed(where, "hello lists " + std::to_string(n) +
                           " checkpoint epochs (cap " +
                           std::to_string(kMaxHelloEpochs) + ")");
    }
    h.epochs.reserve(n);
    std::uint32_t prev = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t epoch = r.u32();
      const std::uint32_t digest = r.u32();
      if (epoch == 0 || epoch <= prev) {
        malformed(where, "hello epochs not strictly ascending from 1");
      }
      prev = epoch;
      h.epochs.emplace_back(epoch, digest);
    }
    if (!r.done()) malformed(where, "trailing bytes after hello");
  } catch (const std::out_of_range& e) {
    malformed(where, e.what());
  }
  return h;
}

std::vector<std::uint8_t> SessionResume::serialize() const {
  ByteWriter w;
  w.u32(agreed_epoch);
  w.u32(digest);
  return w.take();
}

SessionResume SessionResume::deserialize(
    const std::vector<std::uint8_t>& payload, const std::string& where) {
  SessionResume m;
  try {
    ByteReader r(payload);
    m.agreed_epoch = r.u32();
    m.digest = r.u32();
    if (!r.done()) malformed(where, "trailing bytes after resume");
  } catch (const std::out_of_range& e) {
    malformed(where, e.what());
  }
  return m;
}

std::uint32_t negotiate_resume_epoch(const SessionHello& hello,
                                     std::uint64_t my_session_id,
                                     std::uint64_t my_params_hash,
                                     const SessionStore& store, Party me) {
  const std::string where =
      std::string(party_name(me)) + " negotiating session resume";
  if (hello.session_id != my_session_id) {
    throw ProtocolError(ProtocolErrorKind::kResumeRejected,
                        where + ": peer session id " +
                            std::to_string(hello.session_id) +
                            " does not match local session " +
                            std::to_string(my_session_id));
  }
  if (hello.params_hash != my_params_hash) {
    throw ProtocolError(
        ProtocolErrorKind::kResumeRejected,
        where + ": negotiated-parameter fingerprint mismatch (peer " +
            std::to_string(hello.params_hash) + ", local " +
            std::to_string(my_params_hash) + ")");
  }
  const auto mine = store.digests(me);
  bool saw_common = false;
  for (auto it = hello.epochs.rbegin(); it != hello.epochs.rend(); ++it) {
    const auto local = std::find_if(
        mine.begin(), mine.end(),
        [&](const auto& e) { return e.first == it->first; });
    if (local == mine.end()) continue;  // peer has it, we lost it: skip down
    saw_common = true;
    if (local->second == it->second) return it->first;
  }
  if (saw_common) {
    throw ProtocolError(
        ProtocolErrorKind::kResumeDiverged,
        where + ": checkpoint digests disagree at every common epoch — "
                "the parties' session histories have forked");
  }
  return 0;  // no shared checkpoint: clean fresh start
}

void drop_foreign_checkpoints(SessionStore& store, Party me,
                              std::uint64_t params_hash) {
  for (const auto& entry : store.digests(me)) {
    const auto cp = store.load(me, entry.first);
    if (cp.has_value() && cp->params_hash != params_hash) {
      store.drop(me, entry.first);
    }
  }
}

}  // namespace primer
