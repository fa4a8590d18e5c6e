#include "gc/aes.h"

namespace primer {

namespace {

template <int Rcon>
__m128i expand_step(__m128i key) {
  __m128i gen = _mm_aeskeygenassist_si128(key, Rcon);
  gen = _mm_shuffle_epi32(gen, _MM_SHUFFLE(3, 3, 3, 3));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, gen);
}

// GF(2^128) doubling (shift left by one with reduction poly x^128+x^7+x^2+x+1).
Block gf_double(Block x) {
  const std::uint64_t carry = x.hi >> 63;
  Block r;
  r.hi = (x.hi << 1) | (x.lo >> 63);
  r.lo = x.lo << 1;
  if (carry) r.lo ^= 0x87;
  return r;
}

}  // namespace

FixedKeyAes::FixedKeyAes()
    : FixedKeyAes(Block{0x0011223344556677ULL, 0x8899aabbccddeeffULL}) {}

FixedKeyAes::FixedKeyAes(Block key) {
  round_keys_[0] = key.to_m128();
  round_keys_[1] = expand_step<0x01>(round_keys_[0]);
  round_keys_[2] = expand_step<0x02>(round_keys_[1]);
  round_keys_[3] = expand_step<0x04>(round_keys_[2]);
  round_keys_[4] = expand_step<0x08>(round_keys_[3]);
  round_keys_[5] = expand_step<0x10>(round_keys_[4]);
  round_keys_[6] = expand_step<0x20>(round_keys_[5]);
  round_keys_[7] = expand_step<0x40>(round_keys_[6]);
  round_keys_[8] = expand_step<0x80>(round_keys_[7]);
  round_keys_[9] = expand_step<0x1b>(round_keys_[8]);
  round_keys_[10] = expand_step<0x36>(round_keys_[9]);
}

Block FixedKeyAes::encrypt(Block x) const {
  __m128i v = x.to_m128();
  v = _mm_xor_si128(v, round_keys_[0]);
  for (int i = 1; i < 10; ++i) v = _mm_aesenc_si128(v, round_keys_[i]);
  v = _mm_aesenclast_si128(v, round_keys_[10]);
  return Block::from_m128(v);
}

Block FixedKeyAes::hash(Block x, std::uint64_t tweak) const {
  Block s = gf_double(x);
  s.lo ^= tweak;
  const Block c = encrypt(s);
  return c ^ s;
}

}  // namespace primer
