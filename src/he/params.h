// Encryption parameter sets for the Primer HE substrate.
//
// The scheme is a BGV-flavoured RLWE cryptosystem over R_q = Z_q[x]/(x^n+1)
// with an RNS (residue number system) coefficient modulus q = q_0*...*q_{k-1}
// and a prime plaintext modulus t with t = 1 (mod 2n) so the CRT batching
// (SIMD slot) encoder exists.  This mirrors the paper's use of SEAL as a
// "PAHE" (packed additive HE): Primer itself only performs additions,
// plaintext multiplications and rotations; ciphertext-ciphertext
// multiplication (+ relinearization) is provided for the THE-X and
// Primer-base baselines.
//
// Security follows the homomorphic-encryption.org standard table for
// ternary secrets at 128-bit classical security:
//     n = 4096  -> log2(q) <= 109
//     n = 8192  -> log2(q) <= 218
//     n = 16384 -> log2(q) <= 438
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace primer {

enum class HeProfile {
  // n = 2048, two 40-bit primes, t ~ 2^20.  NOT SECURE — unit tests only.
  kTest2048,
  // n = 4096, two 50-bit primes (q ~ 100 bits <= 109 -> 128-bit secure),
  // t ~ 2^20.  Additive workloads with small plaintext moduli; microbenches.
  kLight4096,
  // n = 8192, three 50-bit primes (q ~ 150 bits <= 218 -> 128-bit secure),
  // t ~ 2^40.  The production profile used by all Primer protocols: holds
  // the 15-bit fixed-point MAC accumulations of BERT-sized layers and
  // supports depth-1 ciphertext-ciphertext multiplication on fresh
  // ciphertexts (attention Q x K^T in the baselines).
  kProd8192,
  // n = 2048, three 45-bit primes, t ~ 2^38.  NOT SECURE (q too large for
  // n=2048) — used for fast LIVE end-to-end protocol runs on the nano/micro
  // models in tests and examples; the code paths are identical to kProd8192.
  kProto2048,
};

struct HeParams {
  std::size_t poly_degree = 0;       // n, power of two
  std::vector<std::uint64_t> q;      // RNS coefficient-modulus primes
  std::uint64_t t = 0;               // plaintext modulus, prime, 1 mod 2n
  int noise_eta = 2;                 // CBD parameter for error sampling
  bool secure_128 = false;           // true iff the HE-standard bound holds
  std::string name;

  std::size_t rns_size() const { return q.size(); }
  std::size_t slot_count() const { return poly_degree; }

  double log2_q() const;

  // Bytes of one freshly serialized ciphertext (2 polynomials, RNS form).
  std::size_t ciphertext_bytes() const {
    return 2 * q.size() * poly_degree * sizeof(std::uint64_t);
  }
};

HeParams make_params(HeProfile profile);

}  // namespace primer
