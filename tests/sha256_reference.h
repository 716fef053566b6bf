// Scalar SHA-256 / HMAC-SHA256 oracle for equivalence tests and benches.
//
// Built only on sha256_internal::Compress (the FIPS 180-4 compression
// function) with its own Merkle–Damgård padding and its own RFC 2104 HMAC,
// so it shares no code path with Sha256, sha256_multi or HmacKey: a bug in
// the streaming buffer, the SHA-NI dispatch, the one-shot path or the
// midstate HMAC cannot hide by agreeing with itself. Counts nothing in
// hotpath::counters(). The oracle itself is checked against the NIST CAVP
// and RFC 4231 vectors in tests/crypto_test.cc.
#ifndef TESTS_SHA256_REFERENCE_H_
#define TESTS_SHA256_REFERENCE_H_

#include <algorithm>
#include <array>
#include <cstdint>

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace bftbase {
namespace sha256_reference {

using Digest32 = std::array<uint8_t, 32>;

// Finishes a hash whose `state` has already absorbed `prefix_len` bytes (a
// multiple of 64): compresses the full blocks of `data`, then the tail,
// 0x80, zeros and the 64-bit big-endian bit length of the whole message.
inline Digest32 HashFrom(uint32_t state[8], BytesView data,
                         uint64_t prefix_len) {
  const size_t full = data.size() / 64;
  for (size_t i = 0; i < full; ++i) {
    sha256_internal::Compress(state, data.data() + 64 * i);
  }
  // One padding block if the tail leaves room for 9 more bytes, two
  // otherwise.
  uint8_t tail[128] = {};
  const size_t rest = data.size() - 64 * full;
  std::copy(data.begin() + 64 * full, data.end(), tail);
  tail[rest] = 0x80;
  const size_t blocks = rest + 9 <= 64 ? 1 : 2;
  const uint64_t bits = (prefix_len + data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  for (size_t i = 0; i < blocks; ++i) {
    sha256_internal::Compress(state, tail + 64 * i);
  }
  Digest32 out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

inline void InitState(uint32_t state[8]) {
  static constexpr uint32_t kIv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                      0xa54ff53a, 0x510e527f, 0x9b05688c,
                                      0x1f83d9ab, 0x5be0cd19};
  std::copy(kIv, kIv + 8, state);
}

inline Digest32 Hash(BytesView data) {
  uint32_t state[8];
  InitState(state);
  return HashFrom(state, data, 0);
}

// RFC 2104 HMAC with the ipad and opad blocks compressed once per key, so
// each MAC costs only the message and outer blocks (the work a midstate
// HMAC does; a 32-byte message takes two compressions).
class HmacMidstate {
 public:
  explicit HmacMidstate(BytesView key) {
    uint8_t key_block[64] = {};
    if (key.size() > 64) {
      const Digest32 hashed = Hash(key);
      std::copy(hashed.begin(), hashed.end(), key_block);
    } else {
      std::copy(key.begin(), key.end(), key_block);
    }
    uint8_t inner_pad[64];
    uint8_t outer_pad[64];
    for (size_t i = 0; i < 64; ++i) {
      inner_pad[i] = key_block[i] ^ 0x36;
      outer_pad[i] = key_block[i] ^ 0x5c;
    }
    InitState(inner_);
    sha256_internal::Compress(inner_, inner_pad);
    InitState(outer_);
    sha256_internal::Compress(outer_, outer_pad);
  }

  Digest32 Mac(BytesView message) const {
    uint32_t state[8];
    std::copy(inner_, inner_ + 8, state);
    const Digest32 inner_digest = HashFrom(state, message, 64);
    std::copy(outer_, outer_ + 8, state);
    return HashFrom(state, BytesView(inner_digest.data(), inner_digest.size()),
                    64);
  }

 private:
  uint32_t inner_[8];
  uint32_t outer_[8];
};

inline Digest32 Hmac(BytesView key, BytesView message) {
  return HmacMidstate(key).Mac(message);
}

}  // namespace sha256_reference
}  // namespace bftbase

#endif  // TESTS_SHA256_REFERENCE_H_
