#include "src/crypto/digest_cache.h"

#include <cstring>

#include "src/util/hotpath.h"

namespace bftbase {

namespace {

constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Rotl(uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }

inline uint64_t Mix(uint64_t h) {  // murmur3 fmix64
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t DigestCache::ContentKey(BytesView data) {
  // The key only picks a slot — every hit is confirmed by memcmp — so it
  // samples the content instead of reading all of it: the first and last
  // 32 bytes and the first 8 bytes of every 64-byte line, in four
  // independent multiply-rotate lanes. Inputs that differ only between
  // samples just share a slot.
  const uint8_t* p = data.data();
  const size_t n = data.size();  // >= kMinBytes
  uint64_t lane[4] = {kMul ^ n, kMul ^ 1, kMul ^ 2, kMul ^ 3};
  for (int i = 0; i < 4; ++i) {
    lane[i] = Rotl((lane[i] ^ Load64(p + 8 * i)) * kMul, 31);
    lane[i] = Rotl((lane[i] ^ Load64(p + n - 32 + 8 * i)) * kMul, 31);
  }
  size_t line = 64;
  for (; line + 4 * 64 <= n; line += 4 * 64) {
    for (int i = 0; i < 4; ++i) {
      lane[i] = Rotl((lane[i] ^ Load64(p + line + 64 * i)) * kMul, 31);
    }
  }
  for (int i = 0; line + 8 <= n; line += 64, ++i) {
    lane[i] = Rotl((lane[i] ^ Load64(p + line)) * kMul, 31);
  }
  return Mix(lane[0] ^ Rotl(lane[1], 16) ^ Rotl(lane[2], 32) ^
             Rotl(lane[3], 48));
}

Digest DigestCache::Of(BytesView data) {
  if (std::optional<Digest> hit = Lookup(data)) {
    return *hit;
  }
  Digest digest = Digest::Of(data);
  Store(data, digest);
  return digest;
}

std::optional<Digest> DigestCache::Lookup(BytesView data) {
  if (data.size() < kMinBytes) {
    return std::nullopt;
  }
  if (data.size() <= kMaxBytes) {
    const uint64_t key = ContentKey(data);
    const Slot& slot = slots_[key % kSlots];
    if (slot.key == key && slot.bytes.size() == data.size() &&
        std::memcmp(slot.bytes.data(), data.data(), data.size()) == 0) {
      ++hotpath::counters().digest_memo_hits;
      return slot.digest;
    }
  }
  ++hotpath::counters().digest_memo_misses;
  return std::nullopt;
}

void DigestCache::Store(BytesView data, const Digest& digest) {
  if (data.size() < kMinBytes || data.size() > kMaxBytes) {
    return;
  }
  const uint64_t key = ContentKey(data);
  Slot& slot = slots_[key % kSlots];
  slot.key = key;
  slot.digest = digest;
  slot.bytes.assign(data.begin(), data.end());
}

size_t DigestCache::stored_bytes() const {
  size_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.bytes.size();
  }
  return total;
}

}  // namespace bftbase
