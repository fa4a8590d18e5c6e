#include "proto/runtime.h"

#include <stdexcept>

#include "common/env.h"
#include "common/parallel.h"
#include "net/crc32c.h"

namespace primer {

namespace {

constexpr std::size_t kMaxGaloisKeys = 4096;

}  // namespace

SessionOptions SessionOptions::from_env() {
  SessionOptions o;
  o.faults = FaultSpec::from_env();
  o.phase_deadline_s =
      env_double("PRIMER_PHASE_DEADLINE_S", 0.0, 0.0, 86400.0);
  return o;
}

ClientKeys::ClientKeys(HeProfile profile, std::uint64_t seed,
                       const std::vector<int>& rotation_steps)
    : he(make_params(profile)),
      rng_(seed ^ kKeyStream),
      keygen_(he, rng_) {
  gk = keygen_.make_galois_keys(rotation_steps);
  rk = keygen_.make_relin_key();
}

void ClientKeys::ensure_rotation_steps(const std::vector<int>& steps) {
  for (const int s : steps) {
    const u64 elt = he.galois_elt_from_step(s);
    if (gk.has(elt)) continue;
    if (installed_) {
      throw std::logic_error(
          "rotation step " + std::to_string(s) +
          " has no Galois key: the installed key set was shipped without "
          "it, and a key generated now would never reach the server");
    }
    keygen_.add_galois_key(gk, elt);
  }
}

ProtocolContext::ProtocolContext(ClientKeys& keys, std::uint64_t seed,
                                 SessionOptions options)
    : ProtocolContext(nullptr, &keys, seed, std::move(options)) {}

ProtocolContext::ProtocolContext(HeProfile profile, std::uint64_t seed,
                                 std::vector<int> rotation_steps,
                                 SessionOptions options)
    : ProtocolContext(
          std::make_unique<ClientKeys>(profile, seed, rotation_steps),
          nullptr, seed, std::move(options)) {}

ProtocolContext::ProtocolContext(std::unique_ptr<ClientKeys> own,
                                 ClientKeys* shared, std::uint64_t seed,
                                 SessionOptions options)
    : own_keys_(std::move(own)),
      keys(shared != nullptr ? *shared : *own_keys_),
      he(keys.he),
      encoder(he),
      client_rng(seed),
      server_rng(seed ^ 0x5deece66dULL),
      enc(he, keys.secret_key(), client_rng),
      dec(he, keys.secret_key()),
      eval(he),
      gk(keys.gk),
      rk(keys.rk),
      session(std::move(options)),
      framed(channel, session.faults),
      ot(framed),
      ring(he.t()) {
  // Parameter fingerprint for the resume handshake: a peer with a
  // different profile, modulus chain or seed is a different session, and
  // so is a run over an installed key set, whose transcript has no keys.
  ByteWriter w;
  w.u64(seed);
  w.u64(he.t());
  w.u64(he.degree());
  for (std::size_t j = 0; j < he.rns_size(); ++j) w.u64(he.q(j));
  w.u8(keys.installed() ? 1 : 0);
  params_hash_ = crc32c(w.data().data(), w.size());
  deadline.configure(&channel, session.phase_deadline_s, session.cancel);
  framed.set_deadline(&deadline);
}

void ProtocolContext::step(const std::string& phase,
                           const std::string& step_name,
                           const std::function<void()>& fn) {
  if (deadline.enabled()) {
    deadline.check("step " + phase + "/" + step_name);
  }
  const auto net_before = channel.snapshot();
  const HeOpCounters he_before = eval.counters();
  dec.take_min_margin();  // reset so the step sees only its own margins
  CpuWallTimer timer;
  fn();
  const double secs = timer.wall_seconds();
  const double cpu = timer.cpu_seconds();
  const auto net_delta = channel.delta_since(net_before);
  PhaseCost& cost = costs.at(phase, step_name);
  cost.compute_seconds += secs;
  cost.cpu_seconds += cpu;
  cost.network_seconds += net_delta.seconds;
  cost.bytes_sent += net_delta.bytes;
  cost.rounds += net_delta.flights;
  const HeOpCounters& now = eval.counters();
  cost.he_mults += now.plain_mults - he_before.plain_mults;
  cost.he_ct_mults += now.ct_mults - he_before.ct_mults;
  cost.he_rotations += now.rotations - he_before.rotations;
  cost.min_noise_margin_bits =
      std::min(cost.min_noise_margin_bits, dec.take_min_margin());
}

void ProtocolContext::start_session() {
  deadline.start_phase("handshake");
  if (session.store == nullptr) return;
  SessionStore& store = *session.store;
  const auto before = channel.snapshot();

  // Client opens with its checkpoint inventory (epochs of this transcript
  // only)...
  drop_foreign_checkpoints(store, Party::kClient, params_hash_);
  SessionHello hello;
  hello.session_id = session.session_id;
  hello.params_hash = params_hash_;
  hello.epochs = store.digests(Party::kClient);
  framed.send(Party::kClient, MessageKind::kSessionHello, hello.serialize());

  // ...the server validates identity/parameters and picks the resume epoch.
  const auto hb = framed.recv_expect(Party::kServer, MessageKind::kSessionHello);
  const SessionHello peer =
      SessionHello::deserialize(hb, "server parsing session hello");
  drop_foreign_checkpoints(store, Party::kServer, params_hash_);
  const std::uint32_t agreed = negotiate_resume_epoch(
      peer, session.session_id, params_hash_, store, Party::kServer);
  SessionResume resume;
  resume.agreed_epoch = agreed;
  if (agreed != 0) {
    resume.digest = store.load(Party::kServer, agreed)->digest();
  }
  framed.send(Party::kServer, MessageKind::kSessionResume, resume.serialize());

  // Client cross-checks the server's choice against its own store and both
  // sides install the replay plan.
  const auto rb = framed.recv_expect(Party::kClient, MessageKind::kSessionResume);
  const SessionResume r =
      SessionResume::deserialize(rb, "client parsing session resume");
  FramedChannel::ReplayPlan plan;
  if (r.agreed_epoch != 0) {
    const auto cp = store.load(Party::kClient, r.agreed_epoch);
    if (!cp.has_value() || cp->digest() != r.digest) {
      throw ProtocolError(
          ProtocolErrorKind::kResumeDiverged,
          "client: server selected checkpoint epoch " +
              std::to_string(r.agreed_epoch) +
              " but the local copy is missing or its digest disagrees");
    }
    for (int d = 0; d < 2; ++d) {
      plan.virtual_until[d] = cp->send_watermark[d];
      plan.journal_base[d] = cp->journal_base[d];
      plan.expect_crc[d] = cp->frame_crc[d];
    }
  }
  resumed_epoch_ = r.agreed_epoch;
  epoch_ = r.agreed_epoch;
  framed.begin_session(session.session_id, r.agreed_epoch, plan);
  handshake_bytes_ = channel.delta_since(before).bytes;
  deadline.start_phase("protocol");
}

void ProtocolContext::checkpoint(const std::string& completed) {
  // A boundary inside the prefix this attempt replays is covered by the
  // checkpoint it resumed from; a snapshot of it would record a journal
  // that starts past its own watermark, a blob no load accepts.
  const bool replayed =
      framed.sent_count(Party::kClient) < framed.journal_base(Party::kClient) ||
      framed.sent_count(Party::kServer) < framed.journal_base(Party::kServer);
  if (session.store != nullptr && !replayed) {
    SessionCheckpoint cp;
    cp.session_id = session.session_id;
    cp.epoch = ++epoch_;
    cp.phase = completed;
    cp.params_hash = params_hash_;
    for (int d = 0; d < 2; ++d) {
      const Party p = static_cast<Party>(d);
      cp.send_watermark[d] = framed.sent_count(p);
      cp.journal_base[d] = framed.journal_base(p);
      cp.frame_crc[d] = framed.journal(p);
      for (std::size_t k = 0; k < kMessageKindCount; ++k) {
        cp.kind_counts[d][k] = framed.kind_count(p, static_cast<MessageKind>(k));
      }
    }
    cp.wire_bytes = channel.total_bytes();
    // Both parties persist the (identical) snapshot; on a resumed attempt
    // re-saving an epoch below the agreed one rewrites the same blob and
    // heals snapshots one side had lost.
    session.store->save(Party::kClient, cp);
    session.store->save(Party::kServer, cp);
    framed.set_epoch(epoch_);
    // Drain catches the run at the boundary *after* the snapshot is
    // persisted: the next request for this client resumes from here.
    if (session.drain != nullptr &&
        session.drain->load(std::memory_order_acquire)) {
      throw SessionDrained(epoch_, completed);
    }
  }
  deadline.start_phase("after_" + completed);
}

namespace {

void write_poly(ByteWriter& w, const RnsPoly& p) {
  w.u8(p.ntt_form ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(p.rns_size()));
  w.u64(p.degree());
  w.bytes(p.limb(0), p.rns_size() * p.degree() * sizeof(u64));
}

RnsPoly read_poly(ByteReader& r, const HeContext& he) {
  const std::uint8_t ntt = r.u8();
  const std::uint32_t k = r.u32();
  const std::uint64_t n = r.u64();
  if (ntt != 1 || k != he.rns_size() || n != he.degree()) {
    throw std::runtime_error("key polynomial shape " + std::to_string(k) +
                             "x" + std::to_string(n) + " (ntt=" +
                             std::to_string(ntt) + ") does not match the " +
                             "negotiated context");
  }
  RnsPoly p(k, n, /*ntt=*/true);
  r.bytes(p.limb(0), static_cast<std::size_t>(k) * n * sizeof(u64));
  return p;
}

void write_kswitch(ByteWriter& w, const KSwitchKey& key) {
  w.u32(key.decomp_bits);
  w.u32(static_cast<std::uint32_t>(key.digits()));
  for (std::size_t i = 0; i < key.digits(); ++i) {
    write_poly(w, key.b[i]);
    write_poly(w, key.a[i]);
  }
}

// Shoup quotient tables are never transmitted: they are deterministic in
// the public modulus chain, so the receiver rebuilds them locally.
// append_kswitch_digit also rejects any residue that is not below its
// modulus.
KSwitchKey read_kswitch(const std::vector<std::uint8_t>& payload,
                        const HeContext& he) {
  ByteReader r(payload);
  KSwitchKey key;
  key.decomp_bits = r.u32();
  if (key.decomp_bits > 63) {
    throw std::runtime_error("decomp_bits " + std::to_string(key.decomp_bits) +
                             " out of range");
  }
  const std::uint32_t digits = r.u32();
  const std::size_t expected = he.decomp_layout(key.decomp_bits).size();
  if (digits != expected) {
    throw std::runtime_error("key has " + std::to_string(digits) +
                             " gadget digits, layout expects " +
                             std::to_string(expected));
  }
  for (std::uint32_t i = 0; i < digits; ++i) {
    RnsPoly b = read_poly(r, he);
    RnsPoly a = read_poly(r, he);
    append_kswitch_digit(he, key, std::move(b), std::move(a));
  }
  if (!r.done()) throw std::runtime_error("trailing bytes after key digits");
  return key;
}

}  // namespace

void ProtocolContext::transfer_keys(const std::string& phase) {
  step(phase, "key_transfer", [&] {
    // Client side: manifest (which Galois elements follow), then one frame
    // per Galois key, then the relinearization key.  Per-key frames give
    // the chaos harness kill points *inside* the multi-MB transfer — the
    // phase the checkpoint layer exists to amortize.
    ByteWriter mw;
    mw.u32(static_cast<std::uint32_t>(gk.keys.size()));
    for (const auto& [elt, key] : gk.keys) mw.u64(elt);
    framed.send(Party::kClient, MessageKind::kKeyMaterial, mw.take());
    for (const auto& [elt, key] : gk.keys) {
      ByteWriter w;
      write_kswitch(w, key);
      framed.send(Party::kClient, MessageKind::kKeyMaterial, w.take());
    }
    {
      ByteWriter w;
      write_kswitch(w, rk.key);
      framed.send(Party::kClient, MessageKind::kKeyMaterial, w.take());
    }

    // Server side: the deserialized copies *replace* gk/rk, so evaluation
    // runs on keys that genuinely crossed the fault-injected wire.
    const auto mb = framed.recv_expect(Party::kServer, MessageKind::kKeyMaterial);
    std::vector<u64> elts;
    try {
      ByteReader r(mb);
      const std::uint32_t count = r.u32();
      if (count > kMaxGaloisKeys) {
        throw std::runtime_error("manifest lists " + std::to_string(count) +
                                 " Galois keys (cap " +
                                 std::to_string(kMaxGaloisKeys) + ")");
      }
      elts.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) elts.push_back(r.u64());
      if (!r.done()) throw std::runtime_error("trailing bytes after manifest");
    } catch (const std::exception& e) {
      throw ProtocolError(ProtocolErrorKind::kMalformed,
                          "server: key manifest rejected: " + std::string(e.what()));
    }
    GaloisKeys ngk;
    for (const u64 elt : elts) {
      const auto kb = framed.recv_expect(Party::kServer, MessageKind::kKeyMaterial);
      try {
        ngk.keys[elt] = read_kswitch(kb, he);
      } catch (const std::exception& e) {
        throw ProtocolError(ProtocolErrorKind::kMalformed,
                            "server: Galois key for element " +
                                std::to_string(elt) +
                                " rejected: " + e.what());
      }
    }
    RelinKey nrk;
    {
      const auto kb = framed.recv_expect(Party::kServer, MessageKind::kKeyMaterial);
      try {
        nrk.key = read_kswitch(kb, he);
      } catch (const std::exception& e) {
        throw ProtocolError(ProtocolErrorKind::kMalformed,
                            "server: relinearization key rejected: " +
                                std::string(e.what()));
      }
    }
    keys.gk = std::move(ngk);
    keys.rk = std::move(nrk);
  });
}

void ProtocolContext::send_cts(Party from, const std::vector<Ciphertext>& cts) {
  // Each ciphertext is framed with its byte length so the receiver can
  // split the message and decode slices in parallel; encoding itself is
  // likewise parallel (one writer per ciphertext, concatenated in order).
  std::vector<ByteWriter> writers(cts.size());
  parallel_for(0, cts.size(),
               [&](std::size_t i) { eval.serialize(cts[i], writers[i]); });
  std::size_t total = 4;
  for (const auto& wr : writers) total += 4 + wr.size();
  ByteWriter w;
  w.reserve(total);
  w.u32(static_cast<std::uint32_t>(cts.size()));
  for (const auto& wr : writers) {
    w.u32(static_cast<std::uint32_t>(wr.size()));
    w.bytes(wr.data().data(), wr.size());
  }
  framed.send(from, MessageKind::kCiphertexts, w.take());
}

std::vector<Ciphertext> ProtocolContext::recv_cts(Party to) {
  const auto bytes = framed.recv_expect(to, MessageKind::kCiphertexts);
  try {
    ByteReader r(bytes);
    const auto count = r.u32();
    // Each ciphertext costs at least a 4-byte length prefix, so any count
    // beyond remaining/4 is a lie — reject before sizing the vectors.
    if (count > r.remaining() / 4) {
      throw std::out_of_range("recv_cts: ciphertext count " +
                              std::to_string(count) + " exceeds payload");
    }
    // Scan the frame lengths, then decode every slice independently.
    std::vector<std::size_t> begin(count), end(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto len = r.u32();
      begin[i] = r.position();
      end[i] = begin[i] + len;
      r.skip(len);
    }
    if (!r.done()) throw std::runtime_error("trailing bytes after last slice");
    std::vector<Ciphertext> cts(count);
    parallel_for(0, count, [&](std::size_t i) {
      ByteReader slice(bytes, begin[i], end[i]);
      cts[i] = eval.deserialize(slice);
      if (!slice.done()) {
        throw std::runtime_error("trailing bytes after ciphertext " +
                                 std::to_string(i));
      }
    });
    return cts;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    // The frame passed its checksum, so this is a structurally invalid
    // payload (hostile sender or framing bug), not wire noise.
    throw ProtocolError(ProtocolErrorKind::kMalformed,
                        std::string(party_name(to)) +
                            ": ciphertext payload rejected: " + e.what());
  }
}

void ProtocolContext::send_ring(Party from, const MatI& m) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(m.rows()));
  w.u32(static_cast<std::uint32_t>(m.cols()));
  // Ring values fit in share_bits() bits; ship them packed 5 bytes per
  // value for t < 2^40 (the live profiles) to keep traffic realistic.
  const std::size_t bytes_per = (share_bits() + 7) / 8;
  for (const auto v : m.data()) {
    w.bytes(&v, bytes_per);
  }
  framed.send(from, MessageKind::kRingMatrix, w.take());
}

MatI ProtocolContext::recv_ring(Party to, std::size_t rows, std::size_t cols) {
  const auto bytes = framed.recv_expect(to, MessageKind::kRingMatrix);
  try {
    ByteReader r(bytes);
    const auto rr = r.u32();
    const auto cc = r.u32();
    if (rr != rows || cc != cols) {
      throw std::runtime_error("recv_ring: shape " + std::to_string(rr) + "x" +
                               std::to_string(cc) + ", expected " +
                               std::to_string(rows) + "x" +
                               std::to_string(cols));
    }
    MatI m(rows, cols);
    const std::size_t bytes_per = (share_bits() + 7) / 8;
    for (auto& v : m.data()) {
      std::int64_t x = 0;
      r.bytes(&x, bytes_per);
      if (static_cast<std::uint64_t>(x) >= t()) {
        throw std::out_of_range("recv_ring: share " + std::to_string(x) +
                                " is not below t");
      }
      v = x;
    }
    if (!r.done()) throw std::runtime_error("trailing bytes after last share");
    return m;
  } catch (const std::exception& e) {
    throw ProtocolError(ProtocolErrorKind::kMalformed,
                        std::string(party_name(to)) +
                            ": ring-matrix payload rejected: " + e.what());
  }
}

std::vector<bool> ProtocolContext::ring_bits(const MatI& m) const {
  const std::size_t w = share_bits();
  std::vector<bool> bits;
  bits.reserve(m.size() * w);
  for (const auto v : m.data()) {
    for (std::size_t b = 0; b < w; ++b) {
      bits.push_back((static_cast<std::uint64_t>(v) >> b) & 1);
    }
  }
  return bits;
}

MatI ProtocolContext::bits_to_ring(const std::vector<bool>& bits,
                                   std::size_t rows, std::size_t cols) const {
  const std::size_t w = share_bits();
  MatI m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < w; ++b) {
      if (bits[i * w + b]) v |= std::uint64_t{1} << b;
    }
    m.data()[i] = static_cast<std::int64_t>(v);
  }
  return m;
}

}  // namespace primer
