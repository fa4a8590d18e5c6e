// KeyGenerator / Encryptor / Decryptor / Evaluator — the public face of the
// HE substrate.  The Evaluator tracks an OpCounters record so protocols and
// benchmarks can report HE operation counts (the quantities Primer's
// techniques reduce).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "he/context.h"
#include "he/keys.h"
#include "he/rns_poly.h"

namespace primer {

// Copyable relaxed atomic counter: evaluator ops may be issued from pool
// workers (e.g. the packed matmul parallelizes per output ciphertext), so
// the shared counters must tolerate concurrent increments.  Counts are pure
// tallies — relaxed ordering is sufficient — and snapshot copies (the
// step-accounting before/after pattern) stay cheap.
class OpCount {
 public:
  OpCount() = default;
  OpCount(std::uint64_t v) : v_(v) {}
  OpCount(const OpCount& o) : v_(o.get()) {}
  OpCount& operator=(const OpCount& o) {
    v_.store(o.get(), std::memory_order_relaxed);
    return *this;
  }
  OpCount& operator=(std::uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  OpCount& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  OpCount& operator+=(std::uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const { return get(); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

struct HeOpCounters {
  OpCount plain_mults;
  OpCount ct_mults;
  OpCount rotations;  // all Galois key-switches (hoisted included)

  void clear() { *this = HeOpCounters{}; }
};

class KeyGenerator {
 public:
  KeyGenerator(const HeContext& ctx, Rng& rng);

  const SecretKey& secret_key() const { return sk_; }
  RelinKey make_relin_key();
  // Keys for the given rotation steps.
  GaloisKeys make_galois_keys(const std::vector<int>& steps);
  // Key for one explicit Galois element.
  void add_galois_key(GaloisKeys& keys, u64 elt);

 private:
  // Switching key for `target_ntt` under base-2^decomp_bits sub-digits
  // (0 = one full-width digit per RNS limb; see keys.h).
  KSwitchKey make_kswitch_key(const RnsPoly& target_ntt,
                              std::uint32_t decomp_bits);

  const HeContext& ctx_;
  Rng& rng_;
  SecretKey sk_;
};

// Appends one gadget digit (b, a), both NTT form, to `key` together with
// their elementwise Shoup quotient tables floor(elem << shoup_shift / q_j).
// The tables depend only on the public modulus chain, so key material
// shipped over the wire (see ProtocolContext::transfer_keys) carries just
// the (b, a) pairs, and the receiver rebuilds bit-identical tables through
// this same function.  Throws std::out_of_range when a residue is not below
// its modulus: shoup_mul_acc_lazy2 needs every key limb below q_j, and the
// quotient of a larger residue does not fit 64 bits.
void append_kswitch_digit(const HeContext& ctx, KSwitchKey& key, RnsPoly b,
                          RnsPoly a);

class Encryptor {
 public:
  // Symmetric-key encryptor (the client, who owns sk).  Fresh symmetric
  // ciphertexts carry the least noise, which is what the protocol analysis
  // assumes for re-encrypted shares.
  Encryptor(const HeContext& ctx, const SecretKey& sk, Rng& rng);

  Ciphertext encrypt(const Plaintext& pt) const;

 private:
  const HeContext& ctx_;
  const SecretKey& sk_;
  Rng& rng_;
};

// Thrown instead of returning silently-garbled plaintext when a ciphertext's
// tracked noise estimate says the budget is spent.  Carries the numbers so
// callers can report how far past the cliff the computation went.
class NoiseBudgetExhausted : public std::runtime_error {
 public:
  NoiseBudgetExhausted(double estimated_budget_bits, double noise_log2_bits)
      : std::runtime_error(
            "NoiseBudgetExhausted: estimated noise budget " +
            std::to_string(estimated_budget_bits) +
            " bits (tracked noise ~2^" + std::to_string(noise_log2_bits) +
            ") — decryption would be garbage"),
        budget_(estimated_budget_bits),
        noise_log2_(noise_log2_bits) {}

  double estimated_budget_bits() const { return budget_; }
  double noise_log2_bits() const { return noise_log2_; }

 private:
  double budget_;
  double noise_log2_;
};

class Decryptor {
 public:
  Decryptor(const HeContext& ctx, const SecretKey& sk);

  // Decrypts after validating the ciphertext's tracked noise estimate;
  // throws NoiseBudgetExhausted when the estimated budget is gone rather
  // than returning garbage.  Successful decryptions fold their margin into
  // the min-margin telemetry (take_min_margin).
  Plaintext decrypt(const Ciphertext& ct) const;

  // Remaining noise budget in bits measured from the actual decryption
  // noise: log2(q) - 1 - log2|t*e|.  Negative budget means decryption is
  // no longer guaranteed correct.
  double noise_budget(const Ciphertext& ct) const;

  // Budget predicted from the per-op noise estimate the Evaluator
  // maintains (ct.noise_log2) — conservative, no secret key math.
  double estimated_budget(const Ciphertext& ct) const;

  // Smallest estimated budget seen across decryptions since the last call;
  // +inf when nothing was decrypted.  Thread-safe (decrypt runs under the
  // thread pool) — this is the per-step noise margin the runtime reports.
  double take_min_margin() const;

  // Operational floor (bits) below which decryption refuses even when the
  // measured budget is technically positive — a deployment guard-band set
  // with PRIMER_NOISE_FLOOR_BITS (default 0: only true exhaustion throws).
  // The constructor parses it with common/env.h, so a malformed value
  // throws std::invalid_argument.
  double noise_floor_bits() const { return floor_bits_; }

 private:
  Plaintext decrypt_unchecked(const Ciphertext& ct) const;
  RnsPoly dot_with_key_powers(const Ciphertext& ct) const;
  void record_margin(double bits) const;

  const HeContext& ctx_;
  const SecretKey& sk_;
  double floor_bits_ = 0.0;
  mutable std::atomic<double> min_margin_{
      std::numeric_limits<double>::infinity()};
};

// Hoisted key-switching — the standard trick fast HE libraries use to
// amortize rotation sets: decompose + NTT the input polynomial ONCE, then
// key-switch it against any number of Galois elements.  Per element the
// work is a slot permutation of the cached digits (automorphisms act on NTT
// form as pure permutations) plus one lazily-accumulated pointwise pass per
// key digit — no NTTs at all — so a rotation set of size r costs one
// decomposition instead of r.
//
// Digit convention: permuting cached digits negates wrapped coefficients
// modulo each q_j instead of modulo the digit's source prime q_i.  The
// permuted digits still satisfy the gadget identity — congruent to the
// automorphed polynomial modulo q_i, centered magnitude unchanged — so
// correctness and noise match the decompose-after-automorphism order; only
// the (equivalent) ciphertext bits differ.  Every rotation path in this
// library routes through this class, so rotations stay deterministic across
// thread counts, kernels, and hoisted-vs-single-call usage.
class HoistedKeySwitch {
 public:
  // Decomposes c into gadget digits and transforms all digits x rns_size
  // digit limbs to NTT form.  decomp_bits must match the switching keys
  // apply() will be given (KSwitchKey::decomp_bits).
  //
  // decomp_bits == 0 (CRT digits): the digit for limb i is c mod q_i,
  // re-reduced into every other modulus with the kernel reduce_span.
  // NTT-form input (the ciphertext-resident shape) reuses its limbs as the
  // digit diagonal, so only k*(k-1) forward transforms are paid.
  //
  // decomp_bits == w > 0 (sub-digits): each residue splits into base-2^w
  // digits whose values are < 2^w < q_j for every modulus — already reduced
  // everywhere, no re-reduction pass at all; each digit row pays one
  // forward transform per modulus.
  //
  // Digit storage comes from the calling thread's PolyArena.
  HoistedKeySwitch(const HeContext& ctx, const RnsPoly& c,
                   std::uint32_t decomp_bits);

  // Accumulates the key-switch of galois_elt(c) into (acc0, acc1), both
  // NTT form.  elt == 1 is the identity (plain key switch of c).  Throws
  // std::invalid_argument when the key's gadget layout differs from this
  // decomposition or the key lacks its Shoup quotient tables.
  void apply(u64 elt, const KSwitchKey& key, RnsPoly& acc0,
             RnsPoly& acc1) const;

 private:
  const u64* digit(std::size_t f, std::size_t j) const {
    return digits_.data() + (f * k_ + j) * n_;
  }

  const HeContext& ctx_;
  std::size_t k_ = 0;  // RNS limb count
  std::size_t n_ = 0;
  std::uint32_t decomp_bits_ = 0;
  std::size_t digit_count_ = 0;
  // Digit limbs are transformed with the lazy-output forward NTT and live
  // in the redundant range [0, 4p) (congruent to the canonical transform;
  // the decomp_bits == 0 diagonal reuses canonical ciphertext limbs) — the
  // Shoup-lazy accumulation consumes them directly, saving one full
  // correction pass per digit limb.
  PolyArena::Scratch digits_;  // digit_count_ x k limbs, digit-major, NTT
};

class Evaluator {
 public:
  explicit Evaluator(const HeContext& ctx);

  void add_inplace(Ciphertext& a, const Ciphertext& b) const;
  void sub_inplace(Ciphertext& a, const Ciphertext& b) const;
  void negate_inplace(Ciphertext& a) const;
  void add_plain_inplace(Ciphertext& a, const Plaintext& pt) const;
  void sub_plain_inplace(Ciphertext& a, const Plaintext& pt) const;

  // Ciphertext x plaintext multiplication (SIMD slot-wise).
  void multiply_plain_inplace(Ciphertext& a, const Plaintext& pt) const;

  // acc += a * pt, fused through the kernel layer's pointwise-accumulate —
  // no temporary ciphertext, one pass over the limbs.  Counts one plain
  // mult and one add.
  void multiply_plain_accumulate(Ciphertext& acc, const Ciphertext& a,
                                 const Plaintext& pt) const;

  // Ciphertext x ciphertext multiplication; result has 3 parts until
  // relinearize() is called.
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;
  void relinearize_inplace(Ciphertext& a, const RelinKey& rk) const;

  // Rotates batched rows left by `step` (negative = right).
  void rotate_rows_inplace(Ciphertext& a, int step, const GaloisKeys& gk) const;
  void apply_galois_inplace(Ciphertext& a, u64 elt, const GaloisKeys& gk) const;

  // All rotations of `a` by the given steps, hoisted: one digit
  // decomposition of a's c1 shared by the whole set (step 0 returns a
  // copy).  Bit-identical to rotating one step at a time.
  std::vector<Ciphertext> rotate_rows_many(const Ciphertext& a,
                                           const std::vector<int>& steps,
                                           const GaloisKeys& gk) const;

  // a <- sum of rot_j(a) for j in [0, width) (width a power of two): every
  // slot group of `width` ends up holding the group total in slot 0.
  // Baby-step/giant-step: hoisted baby rotations 1..n1-1 plus log2(width/n1)
  // doubling rotations, instead of log2(width) full key-switches.
  void rotate_sum_inplace(Ciphertext& a, std::size_t width,
                          const GaloisKeys& gk) const;
  // Galois-key steps rotate_sum_inplace(width) needs.
  static std::vector<int> rotate_sum_steps(std::size_t width);

  // Serialization (for channel byte accounting).
  void serialize(const Ciphertext& ct, ByteWriter& w) const;
  Ciphertext deserialize(ByteReader& r) const;

  // Key-switches polynomial c (either domain; NTT form is cheaper — see
  // HoistedKeySwitch) w.r.t. key, accumulating the result (NTT form) into
  // (acc0, acc1).  Public so benches and hoisting-aware callers can reach
  // the primitive directly.
  void key_switch(const RnsPoly& c, const KSwitchKey& key, RnsPoly& acc0,
                  RnsPoly& acc1) const;

  HeOpCounters& counters() const { return counters_; }

 private:
  const HeContext& ctx_;
  mutable HeOpCounters counters_;
};

}  // namespace primer
