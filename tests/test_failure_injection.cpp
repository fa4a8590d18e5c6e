// Failure-injection tests: corrupting protocol material must change or
// break results, never silently pass through — this validates that the
// tests elsewhere are actually exercising the cryptography.
//
// The second half is the transport corruption matrix: every wire message
// kind a PRIMER inference uses, crossed with every fault class (truncate,
// bit-flip, wrong-kind, replay), must surface as a typed ProtocolError —
// never a crash, never a silently wrong result — and checkpoint/resume must
// recover bit-identical results from seeded wire corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "gc/fixed_circuits.h"
#include "gc/garble.h"
#include "gc/protocol.h"
#include "he/encoder.h"
#include "he/he.h"
#include "net/crc32c.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/framed_channel.h"
#include "net/session.h"
#include "nn/model.h"
#include "proto/primer.h"
#include "proto/runtime.h"

namespace primer {
namespace {

TEST(FailureInjection, WrongSecretKeyDecryptsGarbage) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(1);
  KeyGenerator good(ctx, rng);
  KeyGenerator evil(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, good.secret_key(), rng);
  const Decryptor wrong_dec(ctx, evil.secret_key());

  const std::vector<u64> v = {1, 2, 3, 4, 5};
  const auto ct = enc.encrypt(encoder.encode(v));
  const auto out = encoder.decode(wrong_dec.decrypt(ct));
  int matches = 0;
  for (std::size_t i = 0; i < v.size(); ++i) matches += (out[i] == v[i]);
  EXPECT_LE(matches, 1);  // decryption under the wrong key is noise
}

TEST(FailureInjection, TamperedCiphertextChangesPlaintext) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(2);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());

  const std::vector<u64> v(16, 42);
  auto ct = enc.encrypt(encoder.encode(v));
  // Flip one RNS residue.
  ct.parts[0].limb(0)[7] ^= 1;
  const auto out = encoder.decode(dec.decrypt(ct));
  EXPECT_NE(out, std::vector<u64>(encoder.slot_count(), 0) /*placeholder*/);
  int diffs = 0;
  for (std::size_t i = 0; i < v.size(); ++i) diffs += (out[i] != v[i]);
  EXPECT_GT(diffs, 0);  // tampering is never silently absorbed
}

TEST(FailureInjection, CorruptedGarbledTableBreaksEvaluation) {
  CircuitBuilder b;
  const Bus x = b.add_input_bus(16), y = b.add_input_bus(16);
  b.set_outputs(b.mul(x, y, 16));
  const Circuit c = b.build();
  Rng rng(3);
  Garbler g(rng);
  auto gc = g.garble(c);

  std::vector<Label> in(static_cast<std::size_t>(c.num_inputs));
  std::vector<bool> bits(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    bits[i] = (rng.next() & 1) != 0;
    in[i] = Garbler::active_input(gc, i, bits[i]);
  }
  const auto good = GcEvaluator::eval(c, gc.table, in);

  // Corrupt one table row: downstream labels diverge.
  gc.table.rows[gc.table.rows.size() / 2].lo ^= 0xdeadbeef;
  const auto bad = GcEvaluator::eval(c, gc.table, in);
  EXPECT_NE(good.back().lo ^ bad.back().lo, 0u);
}

TEST(FailureInjection, WrongInputLabelProducesWrongResult) {
  CircuitBuilder b;
  const Bus x = b.add_input_bus(8), y = b.add_input_bus(8);
  b.set_outputs(b.add(x, y));
  const Circuit c = b.build();
  Rng rng(4);
  Garbler g(rng);
  const auto gc = g.garble(c);
  std::vector<Label> in(16);
  for (std::size_t i = 0; i < 16; ++i) {
    in[i] = Garbler::active_input(gc, i, false);
  }
  // A label that is neither W0 nor W1 (evaluator cheating / corruption).
  in[3] = Label{12345, 67890};
  const auto out = GcEvaluator::eval(c, gc.table, in);
  std::uint64_t decoded = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (Garbler::decode_output(gc, i, out[i])) decoded |= 1ULL << i;
  }
  EXPECT_NE(decoded, 0u);  // 0 + 0 should be 0; corruption breaks it
}

TEST(FailureInjection, TruncatedSerializedCiphertextThrows) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(5);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Evaluator eval(ctx);
  const auto ct = enc.encrypt(encoder.encode({1}));
  ByteWriter w;
  eval.serialize(ct, w);
  auto bytes = w.take();
  bytes.resize(bytes.size() / 2);
  ByteReader r(bytes);
  EXPECT_THROW((void)eval.deserialize(r), std::out_of_range);
}

// --- CRC32C & frame format ---------------------------------------------------

TEST(Crc32c, KnownAnswerAndChaining) {
  // Standard CRC32C check value for the ASCII digits "123456789".
  const char* msg = "123456789";
  EXPECT_EQ(crc32c(msg, 9), 0xe3069283u);
  // Chaining across an arbitrary split equals the one-shot CRC.
  for (std::size_t split : {std::size_t{0}, std::size_t{3}, std::size_t{8}}) {
    EXPECT_EQ(crc32c(msg + split, 9 - split, crc32c(msg, split)),
              crc32c(msg, 9));
  }
  EXPECT_EQ(crc32c(msg, 0), 0u);
}

TEST(Frame, EncodeParseRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  const auto frame = encode_frame(MessageKind::kGcTableChunk, 42,
                                  payload.data(), payload.size());
  ASSERT_EQ(frame.size(), FrameHeader::kWireSize + payload.size());
  const FrameHeader h = parse_frame(frame, "test");
  EXPECT_EQ(h.kind, MessageKind::kGcTableChunk);
  EXPECT_EQ(h.seq, 42u);
  EXPECT_EQ(h.payload_len, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         frame.begin() + FrameHeader::kWireSize));
}

TEST(Frame, EveryHeaderDefectIsTyped) {
  const std::vector<std::uint8_t> payload(64, 7);
  const auto good = encode_frame(MessageKind::kCiphertexts, 0, payload.data(),
                                 payload.size());

  auto expect_kind = [](const std::vector<std::uint8_t>& f,
                        ProtocolErrorKind want) {
    try {
      (void)parse_frame(f, "test");
      FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.kind(), want) << e.what();
    }
  };

  auto f = good;
  f.resize(FrameHeader::kWireSize - 1);
  expect_kind(f, ProtocolErrorKind::kTruncated);

  f = good;
  f.resize(f.size() - 5);  // length field now lies
  expect_kind(f, ProtocolErrorKind::kTruncated);

  // Damage to the magic or version bytes is wire noise (checksum, so
  // retryable); the same bytes under a valid checksum are a foreign or
  // incompatible peer (fatal).
  f = good;
  f[0] ^= 0xff;
  expect_kind(f, ProtocolErrorKind::kChecksumMismatch);
  reseal_frame(f);
  expect_kind(f, ProtocolErrorKind::kBadMagic);

  f = good;
  f[4] = 9;
  expect_kind(f, ProtocolErrorKind::kChecksumMismatch);
  reseal_frame(f);
  expect_kind(f, ProtocolErrorKind::kBadVersion);

  f = good;
  f[FrameHeader::kWireSize + 10] ^= 0x10;  // payload bit-flip
  expect_kind(f, ProtocolErrorKind::kChecksumMismatch);

  f = good;
  f[FrameHeader::kSeqOffset] ^= 1;  // header bit-flip (CRC covers header)
  expect_kind(f, ProtocolErrorKind::kChecksumMismatch);
}

// --- FramedChannel -----------------------------------------------------------

TEST(FramedChannel, RoundTripAndTypedEmptyRecv) {
  Channel ch;
  FramedChannel fch(ch, FaultSpec{});
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  fch.send(Party::kClient, MessageKind::kRingMatrix, payload);
  EXPECT_EQ(fch.recv_expect(Party::kServer, MessageKind::kRingMatrix),
            payload);
  // Nothing pending: typed error naming the receiving party and the kind.
  try {
    (void)fch.recv_expect(Party::kServer, MessageKind::kGcTableChunk);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kSequenceGap);
    EXPECT_NE(std::string(e.what()).find("server"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("gc_table_chunk"), std::string::npos);
  }
}

TEST(FramedChannel, KindMismatchIsTypedAndNamed) {
  Channel ch;
  FramedChannel fch(ch, FaultSpec{});
  fch.send(Party::kClient, MessageKind::kOtSetup, std::vector<std::uint8_t>(8));
  try {
    (void)fch.recv_expect(Party::kServer, MessageKind::kCiphertexts);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kKindMismatch);
    EXPECT_NE(std::string(e.what()).find("ciphertexts"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ot_setup"), std::string::npos);
  }
}

// Realistic payload for each message kind a full PRIMER inference ships.
std::vector<std::uint8_t> payload_for(MessageKind kind) {
  switch (kind) {
    case MessageKind::kCiphertexts: {
      // Mirrors ProtocolContext::send_cts: u32 count, then u32-length-framed
      // serialized ciphertexts.
      static const std::vector<std::uint8_t> cached = [] {
        const HeContext ctx(make_params(HeProfile::kTest2048));
        Rng rng(11);
        KeyGenerator keygen(ctx, rng);
        const BatchEncoder encoder(ctx);
        const Encryptor enc(ctx, keygen.secret_key(), rng);
        const Evaluator eval(ctx);
        ByteWriter inner;
        eval.serialize(enc.encrypt(encoder.encode({1, 2, 3})), inner);
        ByteWriter w;
        w.u32(1);
        w.u32(static_cast<std::uint32_t>(inner.size()));
        w.bytes(inner.data().data(), inner.size());
        return w.take();
      }();
      return cached;
    }
    case MessageKind::kRingMatrix: {
      ByteWriter w;
      w.u32(2);
      w.u32(2);
      for (int i = 0; i < 4; ++i) {
        const std::int64_t v = 1000 + i;
        w.bytes(&v, 5);
      }
      return w.take();
    }
    case MessageKind::kGcGarblerLabels:
      return std::vector<std::uint8_t>(8 * sizeof(Label), 0xab);
    case MessageKind::kGcTableChunk: {
      // u64 row_begin | u32 row_count | u32 total_rows | rows.
      std::vector<std::uint8_t> chunk(16 + 8 * sizeof(Label), 0xab);
      const std::uint64_t row_begin = 0;
      const std::uint32_t row_count = 8, total_rows = 8;
      std::memcpy(chunk.data(), &row_begin, 8);
      std::memcpy(chunk.data() + 8, &row_count, 4);
      std::memcpy(chunk.data() + 12, &total_rows, 4);
      return chunk;
    }
    case MessageKind::kGcDecodeBits:
    case MessageKind::kGcOutputBits:
      return {0b10110010, 0b00000001};
    case MessageKind::kOtSetup:
      return std::vector<std::uint8_t>(128 * 64, 0);
    case MessageKind::kOtReceiverColumns:
      return std::vector<std::uint8_t>(40 * 16, 0);
    case MessageKind::kOtSenderMasked:
      return std::vector<std::uint8_t>(40 * 32, 0);
    case MessageKind::kSessionHello: {
      SessionHello h;
      h.session_id = 1;
      h.params_hash = 0xabcdef12u;
      h.epochs = {{1, 0x11111111u}, {2, 0x22222222u}};
      return h.serialize();
    }
    case MessageKind::kSessionResume: {
      SessionResume r;
      r.agreed_epoch = 2;
      r.digest = 0x22222222u;
      return r.serialize();
    }
    case MessageKind::kKeyMaterial:
      // Manifest-shaped blob: u32 count, then u64 Galois elements.
      return std::vector<std::uint8_t>(4 + 3 * 8, 0x5a);
  }
  return {0x00};
}

// Corruption matrix: every message kind x every fault class must yield a
// typed ProtocolError from recv_expect, never a crash.
TEST(CorruptionMatrix, EveryKindEveryFaultThrowsTyped) {
  const MessageKind kinds[] = {
      MessageKind::kCiphertexts,       MessageKind::kRingMatrix,
      MessageKind::kGcDecodeBits,      MessageKind::kGcGarblerLabels,
      MessageKind::kGcOutputBits,      MessageKind::kOtSetup,
      MessageKind::kOtReceiverColumns, MessageKind::kOtSenderMasked,
      MessageKind::kGcTableChunk,      MessageKind::kSessionHello,
      MessageKind::kSessionResume,     MessageKind::kKeyMaterial,
  };
  enum class Fault { kTruncateHeader, kTruncatePayload, kBitflip, kWrongKind, kReplay };
  const Fault faults[] = {Fault::kTruncateHeader, Fault::kTruncatePayload,
                          Fault::kBitflip, Fault::kWrongKind, Fault::kReplay};

  for (const MessageKind kind : kinds) {
    const auto payload = payload_for(kind);
    for (const Fault fault : faults) {
      SCOPED_TRACE(std::string(message_kind_name(kind)) + " / fault " +
                   std::to_string(static_cast<int>(fault)));
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      auto frame = encode_frame(kind, 0, payload.data(), payload.size());
      switch (fault) {
        case Fault::kTruncateHeader:
          frame.resize(FrameHeader::kWireSize / 2);
          break;
        case Fault::kTruncatePayload:
          frame.resize(frame.size() - 1 - payload.size() / 3);
          break;
        case Fault::kBitflip:
          frame[FrameHeader::kWireSize + payload.size() / 2] ^= 0x04;
          break;
        case Fault::kWrongKind:
          frame[FrameHeader::kKindOffset] = static_cast<std::uint8_t>(
              (static_cast<std::size_t>(kind) + 1) % kMessageKindCount);
          reseal_frame(frame);  // checksum-valid, semantically wrong
          break;
        case Fault::kReplay:
          break;
      }
      ch.send(Party::kClient, frame);
      if (fault == Fault::kReplay) {
        ch.send(Party::kClient, frame);  // identical seq arrives twice
        EXPECT_EQ(fch.recv_expect(Party::kServer, kind), payload);
      }
      try {
        (void)fch.recv_expect(Party::kServer, kind);
        FAIL() << "expected ProtocolError";
      } catch (const ProtocolError& e) {
        switch (fault) {
          case Fault::kTruncateHeader:
          case Fault::kTruncatePayload:
            EXPECT_EQ(e.kind(), ProtocolErrorKind::kTruncated) << e.what();
            break;
          case Fault::kBitflip:
            EXPECT_EQ(e.kind(), ProtocolErrorKind::kChecksumMismatch)
                << e.what();
            break;
          case Fault::kWrongKind:
            EXPECT_EQ(e.kind(), ProtocolErrorKind::kKindMismatch) << e.what();
            break;
          case Fault::kReplay:
            EXPECT_EQ(e.kind(), ProtocolErrorKind::kSequenceGap) << e.what();
            break;
        }
      }
    }
  }
}

TEST(CorruptionMatrix, ValidFrameGarbagePayloadIsMalformed) {
  // A frame that passes every transport check but whose payload is not a
  // valid ciphertext batch must surface as kMalformed, not UB or a wild
  // allocation.
  ProtocolContext pc(HeProfile::kTest2048, 3, {1});
  ByteWriter w;
  w.u32(0xffffffffu);  // claims 4 billion ciphertexts
  pc.framed.send(Party::kServer, MessageKind::kCiphertexts, w.take());
  try {
    (void)pc.recv_cts(Party::kClient);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed);
    EXPECT_NE(std::string(e.what()).find("client"), std::string::npos);
  }

  // Ring matrix with a lying shape.
  ByteWriter w2;
  w2.u32(64);
  w2.u32(64);
  pc.framed.send(Party::kServer, MessageKind::kRingMatrix, w2.take());
  try {
    (void)pc.recv_ring(Party::kClient, 2, 2);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed);
  }
}

// Checksum-valid frames that each carry one value no honest peer sends: a
// key residue equal to its modulus (its Shoup quotient would not fit 64
// bits and silently corrupt every rotation), a ciphertext residue of
// 2^64 - 1 or equal to its modulus, and a ring share equal to t.  Each must
// be rejected as kMalformed by the decoder, not absorbed into the
// arithmetic.
TEST(CorruptionMatrix, OutOfRangeWireValuesAreMalformed) {
  const auto expect_malformed = [](const std::function<void()>& fn) {
    try {
      fn();
      FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed) << e.what();
    }
  };
  {
    SCOPED_TRACE("key residue == q_0");
    ProtocolContext pc(HeProfile::kTest2048, 3, {1});
    ASSERT_FALSE(pc.keys.gk.keys.empty());
    pc.keys.gk.keys.begin()->second.b[0].limb(0)[5] = pc.he.q(0);
    expect_malformed([&] { pc.transfer_keys(); });
  }
  for (const bool at_modulus : {false, true}) {
    SCOPED_TRACE(at_modulus ? "ciphertext residue == q" :
                              "ciphertext residue == 2^64 - 1");
    ProtocolContext pc(HeProfile::kTest2048, 3, {1});
    Ciphertext ct = pc.enc.encrypt(pc.encoder.encode({1, 2, 3}));
    const std::size_t limb = pc.he.rns_size() - 1;
    ct.parts[1].limb(limb)[9] = at_modulus ? pc.he.q(limb) : ~u64{0};
    pc.send_cts(Party::kServer, {ct});
    expect_malformed([&] { (void)pc.recv_cts(Party::kClient); });
  }
  {
    SCOPED_TRACE("ring share == t");
    ProtocolContext pc(HeProfile::kTest2048, 3, {1});
    MatI m(2, 2);
    m(1, 0) = static_cast<std::int64_t>(pc.t());
    pc.send_ring(Party::kServer, m);
    expect_malformed([&] { (void)pc.recv_ring(Party::kClient, 2, 2); });
  }
}

TEST(CorruptionMatrix, GcLabelPayloadSizeMismatchIsMalformed) {
  const std::uint64_t t = 257;
  const std::size_t w = share_width(t);
  CircuitBuilder b;
  const Bus sg = b.add_input_bus(w);
  const Bus se = b.add_input_bus(w);
  b.set_outputs(b.add_mod(sg, se, t));
  const Circuit circ = b.build();

  Channel ch;
  FramedChannel fch(ch, FaultSpec{});
  Rng rng(21);
  GcSession session(fch, rng);
  session.offline(circ, RevealTo::kBoth);
  // Pre-load a checksum-valid kGcGarblerLabels frame whose payload is one
  // label short of the garbler's inputs; online() must reject it.  The
  // session's own send of the true labels lands behind it at the same
  // sequence number and is never read.
  const std::vector<std::uint8_t> bad((w - 1) * sizeof(Label), 0);
  ch.send(Party::kServer,
          encode_frame(MessageKind::kGcGarblerLabels,
                       fch.sent_count(Party::kServer), bad.data(), bad.size()));
  try {
    (void)session.online(value_to_bits(3, w), value_to_bits(4, w));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed) << e.what();
  }
}

TEST(CorruptionMatrix, GcTableChunkStructuralDefectsAreMalformed) {
  const std::uint64_t t = 257;
  const std::size_t w = share_width(t);
  CircuitBuilder b;
  const Bus sg = b.add_input_bus(w);
  const Bus se = b.add_input_bus(w);
  b.set_outputs(b.add_mod(sg, se, t));
  const Circuit circ = b.build();
  const std::uint32_t total = static_cast<std::uint32_t>(2 * circ.and_count());

  // Checksum-valid kGcTableChunk frames with every structural defect the
  // streamed parser must reject: each is pre-loaded at seq 0 so the
  // evaluator parses it before the session's own (seq >= 1) chunks.
  auto chunk = [&](std::uint64_t row_begin, std::uint32_t row_count,
                   std::uint32_t total_rows, std::size_t body_labels) {
    std::vector<std::uint8_t> p(16 + body_labels * sizeof(Label), 0xcd);
    std::memcpy(p.data(), &row_begin, 8);
    std::memcpy(p.data() + 8, &row_count, 4);
    std::memcpy(p.data() + 12, &total_rows, 4);
    return p;
  };
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> bad = {
      {"short header", std::vector<std::uint8_t>(7, 0xcd)},
      {"wrong total", chunk(0, 2, total + 2, 2)},
      {"begin skips ahead", chunk(2, 2, total, 2)},
      {"zero rows", chunk(0, 0, total, 0)},
      {"overruns table", chunk(0, total + 2, total, total + 2)},
      {"body/count mismatch", chunk(0, 2, total, 1)},
  };
  for (const auto& [what, payload] : bad) {
    SCOPED_TRACE(what);
    Channel ch;
    FramedChannel fch(ch, FaultSpec{});
    Rng rng(21);
    GcSession session(fch, rng);
    ch.send(Party::kServer, encode_frame(MessageKind::kGcTableChunk, 0,
                                         payload.data(), payload.size()));
    try {
      session.offline(circ, RevealTo::kBoth);
      FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed) << e.what();
    }
  }
}

// Checksum-valid OT and GC bit frames one byte shorter or longer than an
// honest peer sends (128*64 and 128*32 B of base-OT setup, 16 and 32 B per
// OT, ceil(bits/8) B of decode or output bits).  Each is pre-loaded ahead
// of the honest frame at its sequence number and must be rejected as
// kMalformed, not absorbed and left to fail later as a retryable gap.
TEST(CorruptionMatrix, OtAndGcBitPayloadSizeDefectsAreMalformed) {
  // XOR-only circuit (4 garbler + 4 evaluator inputs, 4 outputs): no AND
  // gates, so no table chunk precedes the decode bits.
  CircuitBuilder b;
  const Bus g = b.add_input_bus(4);
  const Bus e = b.add_input_bus(4);
  Bus outs;
  for (std::size_t i = 0; i < 4; ++i) outs.push_back(b.xor_gate(g[i], e[i]));
  b.set_outputs(outs);
  const Circuit circ = b.build();
  const std::vector<bool> bits = {true, false, true, true};
  const std::vector<Label> labels(4);

  const auto expect_malformed = [](const std::function<void()>& fn) {
    try {
      fn();
      FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed) << e.what();
    }
  };
  // Queues a frame of `bytes` zero bytes from `from`, `ahead` frames past
  // the sender's next sequence number.
  const auto inject = [](FramedChannel& fch, Party from, MessageKind kind,
                         std::size_t bytes, std::uint64_t ahead = 0) {
    const std::vector<std::uint8_t> p(bytes, 0);
    fch.raw().send(from, encode_frame(kind, fch.sent_count(from) + ahead,
                                      p.data(), p.size()));
  };

  for (const bool longer : {false, true}) {
    SCOPED_TRACE(longer ? "one byte long" : "one byte short");
    const auto size = [&](std::size_t honest) {
      return longer ? honest + 1 : honest - 1;
    };
    {
      SCOPED_TRACE("ot_setup from client");
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      SimulatedOt ot(fch);
      inject(fch, Party::kClient, MessageKind::kOtSetup, size(128 * 64));
      expect_malformed([&] { ot.setup(); });
    }
    {
      SCOPED_TRACE("ot_setup from server");
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      SimulatedOt ot(fch);
      inject(fch, Party::kServer, MessageKind::kOtSetup, size(128 * 32));
      expect_malformed([&] { ot.setup(); });
    }
    {
      SCOPED_TRACE("ot_receiver_columns");
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      SimulatedOt ot(fch);
      ot.setup();
      inject(fch, Party::kClient, MessageKind::kOtReceiverColumns,
             size(4 * 16));
      expect_malformed([&] { (void)ot.transfer(labels, labels, bits); });
    }
    {
      SCOPED_TRACE("ot_sender_masked");
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      SimulatedOt ot(fch);
      ot.setup();
      inject(fch, Party::kServer, MessageKind::kOtSenderMasked, size(4 * 32));
      expect_malformed([&] { (void)ot.transfer(labels, labels, bits); });
    }
    {
      SCOPED_TRACE("gc_decode_bits");
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      Rng rng(21);
      GcSession session(fch, rng);
      inject(fch, Party::kServer, MessageKind::kGcDecodeBits, size(1));
      expect_malformed([&] { session.offline(circ, RevealTo::kBoth); });
    }
    {
      SCOPED_TRACE("gc_output_bits");
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      Rng rng(21);
      GcSession session(fch, rng);
      session.offline(circ, RevealTo::kGarbler);
      // The evaluator's OT columns precede its output bits on the wire:
      // queue an honest copy of them, then the defective bits.
      inject(fch, Party::kClient, MessageKind::kOtReceiverColumns, 4 * 16);
      inject(fch, Party::kClient, MessageKind::kGcOutputBits, size(1), 1);
      expect_malformed([&] { (void)session.online(bits, bits); });
    }
  }
}

struct EnvGuard {
  explicit EnvGuard(std::vector<std::pair<const char*, const char*>> kv)
      : keys_() {
    for (const auto& [k, v] : kv) {
      keys_.push_back(k);
      ::setenv(k, v, 1);
    }
  }
  ~EnvGuard() {
    for (const char* k : keys_) ::unsetenv(k);
  }
  std::vector<const char*> keys_;
};

// --- recovery by checkpoint / resume -----------------------------------------

TEST(FaultSpec, PrepareRestartClearsTriggersAndReseeds) {
  FaultSpec s;
  s.seed = 42;
  s.bitflip = 0.01;
  s.kill_after = 7;
  s.stall_after = 8;
  s.hostile_after = 9;
  FaultSpec next = s;
  next.prepare_restart();
  EXPECT_EQ(next.kill_after, 0u);
  EXPECT_EQ(next.stall_after, 0u);
  EXPECT_EQ(next.hostile_after, 0u);
  EXPECT_DOUBLE_EQ(next.bitflip, s.bitflip);  // random rates persist...
  EXPECT_NE(next.seed, s.seed);               // ...under a fresh seed
  FaultSpec again = s;
  again.prepare_restart();
  EXPECT_EQ(again.seed, next.seed);  // deterministic: replayable from seed
}

// Seeded wire corruption across a full inference: every damaged frame
// throws a retryable error, run_resilient restarts, the resume handshake
// replays the checkpointed prefix, and the logits come out bit-identical.
TEST(ResumeRecovery, FullInferenceBitIdenticalUnderSeededCorruption) {
  Rng wrng(2025);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  const FixedBert ref(weights);
  const std::vector<std::size_t> tokens = {3, 17, 9, 28};

  // About 1.3 damaged frames are expected per 329-frame attempt, few
  // enough for the default five restarts; this seed needs three.
  EnvGuard env({{"PRIMER_FAULT_SEED", "6"},
                {"PRIMER_FAULT_TRUNCATE", "0.002"},
                {"PRIMER_FAULT_BITFLIP", "0.002"}});
  PrimerEngine engine(weights, PrimerVariant::kFP);
  SessionStore store;
  const auto result = engine.run_resilient(tokens, store);
  // The damaged wire must not change a single logit bit...
  EXPECT_EQ(result.logits, ref.forward(tokens));
  // ...and the recovery went through checkpoint/resume.
  EXPECT_GE(result.restarts, 1);
  EXPECT_GE(result.resumed_epoch, 1u);
  EXPECT_GT(result.prior_attempt_bytes, 0u);
  EXPECT_GT(result.min_noise_margin_bits, 0.0);
}

// Corruption on every frame defeats every attempt: once the restart budget
// is spent the last error surfaces, typed and retryable.
TEST(ResumeRecovery, CorruptionPastRestartBudgetIsTypedRetryable) {
  Rng wrng(2025);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  EnvGuard env({{"PRIMER_FAULT_SEED", "7"}, {"PRIMER_FAULT_BITFLIP", "1.0"}});
  PrimerEngine engine(weights, PrimerVariant::kF);
  SessionStore store;
  try {
    (void)engine.run_resilient({3, 17, 9, 28}, store, /*max_restarts=*/2);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_TRUE(e.retryable()) << e.what();
  }
  // The failure path records the restarts the loop consumed.
  ASSERT_NE(engine.last_partial(), nullptr);
  EXPECT_EQ(engine.last_partial()->restarts, 2);
}

// Cancellation is a local decision, not a wire fault: the restart loop
// ends the run at the first OperationCancelled instead of spending its
// budget on attempts the same token would cancel again.
TEST(ResumeRecovery, CancelledSessionIsNotRestarted) {
  Rng wrng(2025);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  PrimerEngine engine(weights, PrimerVariant::kF);
  SessionStore store;
  CancelToken cancel;
  cancel.cancel("cancelled before the first attempt");
  SessionOptions opts;
  opts.store = &store;
  opts.cancel = &cancel;
  EXPECT_THROW((void)engine.run_resilient({3, 17, 9, 28}, opts, 5),
               OperationCancelled);
  ASSERT_NE(engine.last_partial(), nullptr);
  EXPECT_EQ(engine.last_partial()->restarts, 0);
}

// Seed-driven soak cell: tools/corruption_soak.py runs this test across N
// seeds with PRIMER_FAULT_* set.  A GC session over a damaged wire either
// returns the exact sum (no frame was hit) or throws a typed retryable
// ProtocolError that a restart loop would resume from; a crash, hang, fatal
// error or silently wrong answer fails the cell.
TEST(ResumeRecovery, SeededSoakGcSessionExactOrRetryable) {
  FaultSpec spec = FaultSpec::from_env();
  if (!spec.any_random()) {
    spec.truncate = 0.03;
    spec.bitflip = 0.03;
  }
  const std::uint64_t t = 65537;
  const std::size_t w = share_width(t);
  CircuitBuilder b;
  const Bus sg = b.add_input_bus(w);
  const Bus se = b.add_input_bus(w);
  b.set_outputs(b.add_mod(sg, se, t));
  const Circuit circ = b.build();

  Channel ch;
  FramedChannel fch(ch, spec);
  Rng rng(99);
  GcSession session(fch, rng);
  try {
    session.offline(circ, RevealTo::kBoth);
    const auto out = session.online(value_to_bits(11111, w),
                                    value_to_bits(22222, w));
    EXPECT_EQ(bits_to_value(out), (11111ull + 22222ull) % t);
  } catch (const ProtocolError& e) {
    EXPECT_TRUE(e.retryable()) << e.what();
    EXPECT_GT(fch.fault_counters().total(), 0u) << e.what();
  }
}

// --- typed transport primitives ----------------------------------------------

// The raw Channel is the bottom of the transport stack; even below the
// framing layer, "nothing pending" must be a typed retryable ProtocolError
// (a sequence gap the resume handshake can heal), never a bare
// std::runtime_error that bypasses the restart taxonomy.
TEST(FailureInjection, BareChannelRecvOnEmptyQueueIsTypedRetryable) {
  Channel ch;
  try {
    (void)ch.recv(Party::kClient);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kSequenceGap);
    EXPECT_TRUE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("client"), std::string::npos);
  }
  // A pending message still round-trips untouched.
  ch.send(Party::kServer, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(ch.recv(Party::kClient), (std::vector<std::uint8_t>{1, 2, 3}));
}

// Deterministic hostile corruption: PRIMER_FAULT_HOSTILE_AFTER mutates the
// Nth wire frame *and reseals its checksum*, so the defect survives the
// transport layer and must be caught by structural validation — a fatal
// kMalformed, not a retryable CRC error a restart would absorb.
TEST(FailureInjection, HostileResealedFrameIsFatalMalformed) {
  Rng wrng(2025);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  // Frame 1 is the key-transfer manifest; flipping the high bit of its count
  // field claims an absurd number of Galois keys.
  EnvGuard env(std::vector<std::pair<const char*, const char*>>{{"PRIMER_FAULT_HOSTILE_AFTER", "1"}});
  PrimerEngine engine(weights, PrimerVariant::kF);
  try {
    (void)engine.run({3, 17, 9, 28});
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolErrorKind::kMalformed) << e.what();
    EXPECT_FALSE(e.retryable());
  }
}

// --- env-knob validation (SessionOptions / FaultSpec) ------------------------

// Malformed PRIMER_* env values must fail loudly at parse time, not be
// silently read as 0 and change behavior.
TEST(EnvValidation, MalformedValuesFailLoudly) {
  {
    EnvGuard env(std::vector<std::pair<const char*, const char*>>{{"PRIMER_FAULT_TRUNCATE", "abc"}});
    EXPECT_THROW((void)FaultSpec::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env(std::vector<std::pair<const char*, const char*>>{{"PRIMER_FAULT_TRUNCATE", "0.25xyz"}});  // trailing junk
    EXPECT_THROW((void)FaultSpec::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env(std::vector<std::pair<const char*, const char*>>{{"PRIMER_FAULT_KILL_AFTER", "-3"}});  // negative into u64
    EXPECT_THROW((void)FaultSpec::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env(std::vector<std::pair<const char*, const char*>>{{"PRIMER_PHASE_DEADLINE_S", "1e"}});
    EXPECT_THROW((void)SessionOptions::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env(std::vector<std::pair<const char*, const char*>>{{"PRIMER_FAULT_STALL_S", "inf"}});  // non-finite
    EXPECT_THROW((void)FaultSpec::from_env(), std::invalid_argument);
  }
}

// Out-of-range but well-formed values clamp deterministically to the knob's
// documented domain.
TEST(EnvValidation, OutOfRangeValuesClampDeterministically) {
  {
    EnvGuard env({{"PRIMER_FAULT_TRUNCATE", "2.5"},
                  {"PRIMER_FAULT_BITFLIP", "-0.5"}});
    const FaultSpec s = FaultSpec::from_env();
    EXPECT_DOUBLE_EQ(s.truncate, 1.0);
    EXPECT_DOUBLE_EQ(s.bitflip, 0.0);
  }
  {
    EnvGuard env(std::vector<std::pair<const char*, const char*>>{{"PRIMER_PHASE_DEADLINE_S", "-5"}});
    const SessionOptions o = SessionOptions::from_env();
    EXPECT_DOUBLE_EQ(o.phase_deadline_s, 0.0);
  }
}

// Unset and empty values keep defaults (no accidental zeroing).
TEST(EnvValidation, UnsetAndEmptyKeepDefaults) {
  EnvGuard env({{"PRIMER_FAULT_TRUNCATE", ""}, {"PRIMER_FAULT_SEED", "  "}});
  const FaultSpec s = FaultSpec::from_env();
  EXPECT_DOUBLE_EQ(s.truncate, FaultSpec{}.truncate);
  EXPECT_EQ(s.seed, FaultSpec{}.seed);
}

// --- noise budget ------------------------------------------------------------

TEST(NoiseBudget, ExhaustedBudgetThrowsInsteadOfGarbage) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(6);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());

  const Evaluator eval(ctx);
  auto ct = enc.encrypt(encoder.encode({5, 6, 7}));
  EXPECT_GT(dec.estimated_budget(ct), 0.0);
  EXPECT_NO_THROW((void)dec.decrypt(ct));

  // A tracked-noise scare on a healthy ciphertext must NOT throw: the
  // worst-case estimate trips the screen, the measured fallback clears it.
  auto scare = ct;
  scare.noise_log2 = ctx.params().log2_q();
  EXPECT_LT(dec.estimated_budget(scare), 0.0);
  EXPECT_NO_THROW((void)dec.decrypt(scare));

  // Genuinely destroy the ciphertext: each full-range plain multiply adds
  // ~log2(n*t) bits of real noise, so a few of them wrap past q on the
  // 80-bit test profile.  Decrypt must refuse instead of returning garbage.
  std::vector<u64> big(encoder.slot_count());
  Rng noise_rng(7);
  noise_rng.fill_uniform_mod(big, ctx.t());
  const Plaintext heavy = encoder.encode(big);
  for (int i = 0; i < 4; ++i) eval.multiply_plain_inplace(ct, heavy);
  EXPECT_LT(dec.noise_budget(ct), 0.01);  // measured: past the cliff
  try {
    (void)dec.decrypt(ct);
    FAIL() << "expected NoiseBudgetExhausted";
  } catch (const NoiseBudgetExhausted& e) {
    EXPECT_LT(e.estimated_budget_bits(), 0.01);
  }
  // The measurement path must still be able to inspect such a ciphertext.
  EXPECT_NO_THROW((void)dec.noise_budget(ct));
}

TEST(NoiseBudget, EstimateIsConservativeThroughOps) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(7);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);

  std::vector<u64> v(encoder.slot_count());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % ctx.t();
  auto a = enc.encrypt(encoder.encode(v));
  auto b = enc.encrypt(encoder.encode(v));
  eval.add_inplace(a, b);
  eval.multiply_plain_inplace(a, encoder.encode(std::vector<u64>(v.size(), 3)));
  eval.add_inplace(a, b);

  const double estimated = dec.estimated_budget(a);
  const double measured = dec.noise_budget(a);
  // The tracked estimate must never promise more budget than reality.
  EXPECT_GT(estimated, 0.0);
  EXPECT_LE(estimated, measured);
}

TEST(NoiseBudget, DecryptorTracksMinMargin) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(8);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);

  (void)dec.take_min_margin();  // reset
  auto fresh = enc.encrypt(encoder.encode({1}));
  auto noisy = enc.encrypt(encoder.encode({2}));
  eval.multiply_plain_inplace(noisy,
                              encoder.encode(std::vector<u64>(1, 1000)));
  (void)dec.decrypt(fresh);
  (void)dec.decrypt(noisy);
  const double margin = dec.take_min_margin();
  EXPECT_DOUBLE_EQ(margin, dec.estimated_budget(noisy));
  // Consumed: next read is +inf until another decryption happens.
  EXPECT_TRUE(std::isinf(dec.take_min_margin()));
}

// Satellite: a noise-budget exhaustion mid-inference must surface from
// PrimerEngine::run as the typed NoiseBudgetExhausted — not garbage logits —
// and the partial run result must carry the margin that tripped the guard.
TEST(NoiseBudget, ExhaustionPropagatesThroughPrimerEngineRun) {
  Rng wrng(2026);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  // An absurd floor makes the very first decryption refuse deterministically.
  EnvGuard env(std::vector<std::pair<const char*, const char*>>{
      {"PRIMER_NOISE_FLOOR_BITS", "10000"}});
  PrimerEngine engine(weights, PrimerVariant::kFP);
  try {
    (void)engine.run({3, 17, 9, 28});
    FAIL() << "expected NoiseBudgetExhausted";
  } catch (const NoiseBudgetExhausted& e) {
    EXPECT_GT(e.estimated_budget_bits(), 0.0);   // healthy ct, hostile floor
    EXPECT_LT(e.estimated_budget_bits(), 10000.0);
  }
  // The engine snapshotted what the attempt saw before refusing.
  ASSERT_NE(engine.last_partial(), nullptr);
  const PrimerRunResult& partial = *engine.last_partial();
  EXPECT_TRUE(std::isfinite(partial.min_noise_margin_bits));
  EXPECT_GT(partial.min_noise_margin_bits, 0.0);
  EXPECT_GT(partial.total_bytes, 0u);  // some traffic happened before the trip
}

TEST(NoiseBudget, DeserializeRejectsInsaneNoiseAndPartCount) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(9);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Evaluator eval(ctx);
  const auto ct = enc.encrypt(encoder.encode({1, 2}));

  ByteWriter w;
  eval.serialize(ct, w);
  auto bytes = w.take();

  {
    // NaN noise estimate would disarm the decrypt guard.
    auto evil = bytes;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(evil.data() + evil.size() - sizeof(double), &nan, sizeof nan);
    ByteReader r(evil);
    EXPECT_THROW((void)eval.deserialize(r), std::out_of_range);
  }
  {
    // Hostile part count.
    auto evil = bytes;
    const std::uint32_t parts = 0x7fffffff;
    std::memcpy(evil.data(), &parts, sizeof parts);
    ByteReader r(evil);
    EXPECT_THROW((void)eval.deserialize(r), std::out_of_range);
  }
}

}  // namespace
}  // namespace primer
