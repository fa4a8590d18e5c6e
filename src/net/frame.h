// Typed wire framing for every protocol message.
//
// Raw channel messages are opaque blobs; a hostile or lossy wire can
// truncate, corrupt or replay them and the first symptom used to
// be undefined behavior deep inside a deserializer.  Every message now
// travels as a frame:
//
//   offset  size  field
//        0     4  magic "PRMF"
//        4     1  protocol version
//        5     1  message kind (MessageKind)
//        6     1  flags (reserved, must be 0)
//        7     1  reserved (must be 0)
//        8     8  per-direction sequence number
//       16     4  payload length (must equal frame size - header size)
//       20     4  CRC32C over header (crc field excluded) and payload
//       24     -  payload
//
// Receivers call FramedChannel::recv_expect(kind) and get either the
// payload or a typed ProtocolError naming exactly what went wrong — never
// a silent misparse.  parse_frame/encode_frame are exposed so tests can
// craft adversarial frames (including ones with a *valid* checksum but the
// wrong kind).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/crc32c.h"

namespace primer {

// Values are fixed wire and checkpoint-inventory indices; 0 is unassigned.
enum class MessageKind : std::uint8_t {
  kCiphertexts = 1,       // length-framed ciphertext batch
  kRingMatrix = 2,        // packed Z_t share matrix
  kGcTables = 3,          // garbled tables (offline)
  kGcDecodeBits = 4,      // output decode bits (offline, evaluator-revealed)
  kGcGarblerLabels = 5,   // garbler's active input labels
  kGcOutputBits = 6,      // revealed output bits / lsbs
  kOtSetup = 7,           // base-OT bootstrap traffic
  kOtReceiverColumns = 8, // IKNP receiver correction columns
  kOtSenderMasked = 9,    // IKNP sender masked label pairs
  kGcTableChunk = 10,     // streamed garbled-table span (offline)
  kSessionHello = 11,     // resume handshake: party's checkpoint inventory
  kSessionResume = 12,    // resume handshake: agreed epoch + digest
  kKeyMaterial = 13,      // evaluation keys (Galois / relinearization)
};

// One past the largest wire kind; sized for per-kind inventory arrays.
inline constexpr std::size_t kMessageKindCount = 14;

inline const char* message_kind_name(MessageKind k) {
  switch (k) {
    case MessageKind::kCiphertexts: return "ciphertexts";
    case MessageKind::kRingMatrix: return "ring_matrix";
    case MessageKind::kGcTables: return "gc_tables";
    case MessageKind::kGcDecodeBits: return "gc_decode_bits";
    case MessageKind::kGcGarblerLabels: return "gc_garbler_labels";
    case MessageKind::kGcOutputBits: return "gc_output_bits";
    case MessageKind::kOtSetup: return "ot_setup";
    case MessageKind::kOtReceiverColumns: return "ot_receiver_columns";
    case MessageKind::kOtSenderMasked: return "ot_sender_masked";
    case MessageKind::kGcTableChunk: return "gc_table_chunk";
    case MessageKind::kSessionHello: return "session_hello";
    case MessageKind::kSessionResume: return "session_resume";
    case MessageKind::kKeyMaterial: return "key_material";
  }
  return "unknown";
}

enum class ProtocolErrorKind {
  kBadMagic,          // frame does not start with the magic bytes
  kBadVersion,        // unknown protocol version
  kTruncated,         // frame shorter than a header, or length field lies
  kChecksumMismatch,  // CRC32C over header+payload failed
  kKindMismatch,      // valid frame, but not the kind this step expects
  kSequenceGap,       // expected sequence number never arrived
  kMalformed,         // frame valid, payload failed structural validation
  kPeerKilled,        // fault injector killed the sending process mid-phase
  kDeadlineExceeded,  // a phase overran its deadline budget (see session.h)
  kResumeRejected,    // resume handshake refused (session/params mismatch)
  kResumeDiverged,    // replayed frame does not match the journaled CRC
  kServerOverloaded,  // admission control shed the request (see serving/)
  kStorageDegraded,   // durable store hit ENOSPC/EIO; running from memory
};

inline const char* protocol_error_kind_name(ProtocolErrorKind k) {
  switch (k) {
    case ProtocolErrorKind::kBadMagic: return "bad_magic";
    case ProtocolErrorKind::kBadVersion: return "bad_version";
    case ProtocolErrorKind::kTruncated: return "truncated";
    case ProtocolErrorKind::kChecksumMismatch: return "checksum_mismatch";
    case ProtocolErrorKind::kKindMismatch: return "kind_mismatch";
    case ProtocolErrorKind::kSequenceGap: return "sequence_gap";
    case ProtocolErrorKind::kMalformed: return "malformed";
    case ProtocolErrorKind::kPeerKilled: return "peer_killed";
    case ProtocolErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case ProtocolErrorKind::kResumeRejected: return "resume_rejected";
    case ProtocolErrorKind::kResumeDiverged: return "resume_diverged";
    case ProtocolErrorKind::kServerOverloaded: return "server_overloaded";
    case ProtocolErrorKind::kStorageDegraded: return "storage_degraded";
  }
  return "unknown";
}

// Retryable failures are transient: the wire lost/garbled/withheld data, or
// a peer died or stalled.  A fresh attempt — after a session-resume
// handshake replays the checkpointed prefix — can succeed.  Fatal failures
// mean the peer speaks a different protocol, the payload is structurally
// hostile, or the two parties' checkpoint histories disagree: retrying
// would loop on the same defect forever.
constexpr bool protocol_error_retryable(ProtocolErrorKind k) {
  switch (k) {
    case ProtocolErrorKind::kTruncated:
    case ProtocolErrorKind::kChecksumMismatch:
    case ProtocolErrorKind::kSequenceGap:
    case ProtocolErrorKind::kPeerKilled:
    case ProtocolErrorKind::kDeadlineExceeded:
    case ProtocolErrorKind::kServerOverloaded:
    case ProtocolErrorKind::kStorageDegraded:
      return true;
    case ProtocolErrorKind::kBadMagic:
    case ProtocolErrorKind::kBadVersion:
    case ProtocolErrorKind::kKindMismatch:
    case ProtocolErrorKind::kMalformed:
    case ProtocolErrorKind::kResumeRejected:
    case ProtocolErrorKind::kResumeDiverged:
      return false;
  }
  return false;
}

// Every transport-layer failure surfaces as this exception, tagged with the
// precise failure class so tests (and callers) can distinguish a hostile
// wire from a protocol logic error.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ProtocolErrorKind kind, const std::string& what)
      : std::runtime_error(std::string("ProtocolError[") +
                           protocol_error_kind_name(kind) + "]: " + what),
        kind_(kind) {}

  ProtocolErrorKind kind() const { return kind_; }
  bool retryable() const { return protocol_error_retryable(kind_); }

 private:
  ProtocolErrorKind kind_;
};

// A phase overran its deadline budget.  Carries the phase label and the
// elapsed/budget split so callers can distinguish a slow phase from a hang.
class DeadlineExceeded : public ProtocolError {
 public:
  DeadlineExceeded(const std::string& phase, double elapsed_s,
                   double budget_s, const std::string& where)
      : ProtocolError(ProtocolErrorKind::kDeadlineExceeded,
                      where + ": phase '" + phase + "' exceeded its " +
                          std::to_string(budget_s) + "s budget (" +
                          std::to_string(elapsed_s) + "s elapsed)"),
        phase_(phase),
        elapsed_s_(elapsed_s),
        budget_s_(budget_s) {}

  const std::string& phase() const { return phase_; }
  double elapsed_s() const { return elapsed_s_; }
  double budget_s() const { return budget_s_; }

 private:
  std::string phase_;
  double elapsed_s_;
  double budget_s_;
};

// The durable checkpoint store lost its backing filesystem (ENOSPC, EIO,
// a vanished directory).  Retryable by design: the store falls back to
// in-memory operation and the session keeps running — this error is how
// the degradation is *reported* (store telemetry, serving stats), never a
// reason to abort an inference that can finish without disk.
class StorageDegraded : public ProtocolError {
 public:
  StorageDegraded(const std::string& op, const std::string& path,
                  int saved_errno, const std::string& detail)
      : ProtocolError(ProtocolErrorKind::kStorageDegraded,
                      op + " '" + path + "' failed (errno " +
                          std::to_string(saved_errno) + "): " + detail +
                          " — continuing from memory"),
        op_(op),
        path_(path),
        errno_(saved_errno) {}

  const std::string& op() const { return op_; }
  const std::string& path() const { return path_; }
  int saved_errno() const { return errno_; }

 private:
  std::string op_;
  std::string path_;
  int errno_;
};

struct FrameHeader {
  static constexpr std::uint32_t kMagic = 0x464d5250u;  // "PRMF" little-endian
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::size_t kWireSize = 24;
  // Byte offsets within the encoded header (tests mutate fields in place).
  static constexpr std::size_t kKindOffset = 5;
  static constexpr std::size_t kSeqOffset = 8;
  static constexpr std::size_t kLenOffset = 16;
  static constexpr std::size_t kCrcOffset = 20;

  std::uint8_t version = kVersion;
  MessageKind kind{};
  std::uint8_t flags = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;
};

// CRC32C of a whole frame, skipping the 4-byte crc field itself.
inline std::uint32_t frame_crc(const std::uint8_t* frame, std::size_t size) {
  const std::uint32_t head = crc32c(frame, FrameHeader::kCrcOffset);
  return crc32c(frame + FrameHeader::kWireSize,
                size - FrameHeader::kWireSize, head);
}

// Builds a complete frame (header + payload copy) ready for the wire.
inline std::vector<std::uint8_t> encode_frame(MessageKind kind,
                                              std::uint64_t seq,
                                              const std::uint8_t* payload,
                                              std::size_t payload_len) {
  std::vector<std::uint8_t> frame(FrameHeader::kWireSize + payload_len);
  const std::uint32_t magic = FrameHeader::kMagic;
  std::memcpy(frame.data(), &magic, 4);
  frame[4] = FrameHeader::kVersion;
  frame[FrameHeader::kKindOffset] = static_cast<std::uint8_t>(kind);
  frame[6] = 0;
  frame[7] = 0;
  std::memcpy(frame.data() + FrameHeader::kSeqOffset, &seq, 8);
  const auto len32 = static_cast<std::uint32_t>(payload_len);
  std::memcpy(frame.data() + FrameHeader::kLenOffset, &len32, 4);
  if (payload_len != 0) {
    std::memcpy(frame.data() + FrameHeader::kWireSize, payload, payload_len);
  }
  const std::uint32_t crc = frame_crc(frame.data(), frame.size());
  std::memcpy(frame.data() + FrameHeader::kCrcOffset, &crc, 4);
  return frame;
}

// Recomputes and restores the CRC of a (mutated) frame — test helper for
// crafting frames that are structurally valid but semantically wrong.
inline void reseal_frame(std::vector<std::uint8_t>& frame) {
  if (frame.size() < FrameHeader::kWireSize) return;
  const std::uint32_t crc = frame_crc(frame.data(), frame.size());
  std::memcpy(frame.data() + FrameHeader::kCrcOffset, &crc, 4);
}

// Validates and decodes a frame header; throws ProtocolError on any defect.
// `where` names the receiving party / expectation for actionable messages.
// Integrity (length, CRC) is checked before identity (magic, version): any
// wire damage — even a flipped magic byte — is a retryable truncation or
// checksum error, while a checksum-valid frame with the wrong magic or
// version really comes from a peer speaking another protocol (fatal).
inline FrameHeader parse_frame(const std::vector<std::uint8_t>& frame,
                               const std::string& where) {
  if (frame.size() < FrameHeader::kWireSize) {
    throw ProtocolError(ProtocolErrorKind::kTruncated,
                        where + ": frame of " + std::to_string(frame.size()) +
                            " bytes is shorter than the " +
                            std::to_string(FrameHeader::kWireSize) +
                            "-byte header");
  }
  FrameHeader h;
  h.version = frame[4];
  h.kind = static_cast<MessageKind>(frame[FrameHeader::kKindOffset]);
  h.flags = frame[6];
  std::memcpy(&h.seq, frame.data() + FrameHeader::kSeqOffset, 8);
  std::memcpy(&h.payload_len, frame.data() + FrameHeader::kLenOffset, 4);
  if (h.payload_len != frame.size() - FrameHeader::kWireSize) {
    throw ProtocolError(
        ProtocolErrorKind::kTruncated,
        where + ": header claims " + std::to_string(h.payload_len) +
            " payload bytes but " +
            std::to_string(frame.size() - FrameHeader::kWireSize) +
            " are present");
  }
  std::memcpy(&h.crc, frame.data() + FrameHeader::kCrcOffset, 4);
  if (h.crc != frame_crc(frame.data(), frame.size())) {
    throw ProtocolError(ProtocolErrorKind::kChecksumMismatch,
                        where + ": CRC32C mismatch on " +
                            std::string(message_kind_name(h.kind)) +
                            " frame seq " + std::to_string(h.seq));
  }
  std::uint32_t magic = 0;
  std::memcpy(&magic, frame.data(), 4);
  if (magic != FrameHeader::kMagic) {
    throw ProtocolError(ProtocolErrorKind::kBadMagic,
                        where + ": bad frame magic");
  }
  if (h.version != FrameHeader::kVersion) {
    throw ProtocolError(ProtocolErrorKind::kBadVersion,
                        where + ": protocol version " +
                            std::to_string(h.version) + " (expected " +
                            std::to_string(FrameHeader::kVersion) + ")");
  }
  return h;
}

}  // namespace primer
