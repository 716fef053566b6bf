// Tests for the content-keyed SHA-256 digest cache (src/crypto/digest_cache.h)
// and its per-simulation use.
#include <gtest/gtest.h>

#include <vector>

#include "src/basefs/basefs_group.h"
#include "src/basefs/fs_session.h"
#include "src/crypto/digest_cache.h"
#include "src/util/hotpath.h"

namespace bftbase {
namespace {

Bytes Input(uint32_t tag, size_t size = 1024) {
  Bytes data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>((i * 131 + tag * 7919) >> 3);
  }
  data[0] = static_cast<uint8_t>(tag);
  data[1] = static_cast<uint8_t>(tag >> 8);
  return data;
}

struct Delta {
  uint64_t hits;
  uint64_t misses;
  uint64_t hashes;
};

Delta Since(const hotpath::Counters& before) {
  const hotpath::Counters& now = hotpath::counters();
  return {now.digest_memo_hits - before.digest_memo_hits,
          now.digest_memo_misses - before.digest_memo_misses,
          now.sha256_invocations - before.sha256_invocations};
}

TEST(DigestCache, EqualBytesInDistinctBuffersHit) {
  DigestCache cache;
  const Bytes first = Input(1);
  const Bytes second = first;  // same content, another buffer
  ASSERT_NE(first.data(), second.data());
  const hotpath::Counters before = hotpath::counters();
  EXPECT_EQ(cache.Of(first), Digest::Of(first));
  EXPECT_EQ(cache.Of(second), Digest::Of(first));
  const Delta d = Since(before);
  EXPECT_EQ(d.hits, 1u);
  EXPECT_EQ(d.misses, 1u);
  EXPECT_EQ(d.hashes, 3u);  // the cache's one hash + the two references
  EXPECT_EQ(cache.stored_bytes(), first.size());
}

TEST(DigestCache, OneByteFlipMisses) {
  // Byte 100 lies between the slot key's samples, so that flip lands in the
  // original's slot and only the full comparison tells them apart.
  const Bytes original = Input(2, 4096);
  for (size_t at : {size_t{0}, size_t{100}, original.size() / 2,
                    original.size() - 1}) {
    DigestCache cache;
    cache.Of(original);
    Bytes flipped = original;
    flipped[at] ^= 0x01;
    const hotpath::Counters before = hotpath::counters();
    EXPECT_EQ(cache.Of(flipped), Digest::Of(flipped)) << at;
    EXPECT_EQ(Since(before).hits, 0u) << at;
    EXPECT_EQ(cache.Of(original), Digest::Of(original)) << at;
  }
}

TEST(DigestCache, ShortInputsBypassAndLongInputsAreNeverStored) {
  DigestCache cache;
  const Bytes small = Input(3, DigestCache::kMinBytes - 1);
  const Bytes large = Input(4, DigestCache::kMaxBytes + 1);
  const hotpath::Counters before = hotpath::counters();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cache.Of(small), Digest::Of(small));
    EXPECT_EQ(cache.Of(large), Digest::Of(large));
  }
  cache.Store(large, Digest::Of(large));
  const Delta d = Since(before);
  EXPECT_EQ(d.hits, 0u);
  EXPECT_EQ(d.misses, 2u);  // the large input, twice; the small one uncounted
  EXPECT_EQ(cache.stored_bytes(), 0u);
  EXPECT_FALSE(cache.Lookup(large).has_value());
  // At exactly the bounds the cache stores and serves.
  const Bytes lo = Input(5, DigestCache::kMinBytes);
  const Bytes hi = Input(6, DigestCache::kMaxBytes);
  cache.Of(lo);
  cache.Of(hi);
  EXPECT_EQ(cache.Lookup(lo), Digest::Of(lo));
  EXPECT_EQ(cache.Lookup(hi), Digest::Of(hi));
}

// Finds an input whose slot collides with `resident`'s in `cache`: each
// candidate either shares the slot (and evicts `resident`) or not.
Bytes FindCollider(DigestCache& cache, const Bytes& resident) {
  for (uint32_t tag = 100; tag < 100 + 64 * DigestCache::kSlots; ++tag) {
    Bytes candidate = Input(tag);
    cache.Of(candidate);
    if (!cache.Lookup(resident).has_value()) {
      return candidate;
    }
  }
  ADD_FAILURE() << "no colliding input found";
  return Bytes();
}

TEST(DigestCache, CollidingInputReplacesSlotDeterministically) {
  const Bytes resident = Input(7);
  DigestCache first;
  first.Of(resident);
  const hotpath::Counters before = hotpath::counters();
  const Bytes collider = FindCollider(first, resident);
  const Delta first_delta = Since(before);
  ASSERT_FALSE(collider.empty());
  // The newcomer owns the slot; the evicted input is hashed afresh (and
  // takes the slot back) on its next use.
  EXPECT_EQ(first.Lookup(collider), Digest::Of(collider));
  EXPECT_EQ(first.Of(resident), Digest::Of(resident));
  EXPECT_FALSE(first.Lookup(collider).has_value());

  // Replacement depends on content only: a fresh cache replays the same
  // sequence with the same hits, misses and collider.
  DigestCache second;
  second.Of(resident);
  const hotpath::Counters again = hotpath::counters();
  EXPECT_EQ(FindCollider(second, resident), collider);
  const Delta second_delta = Since(again);
  EXPECT_EQ(second_delta.hits, first_delta.hits);
  EXPECT_EQ(second_delta.misses, first_delta.misses);
}

// Runs a short replicated-file-service session with 8 KiB writes and
// returns the digest-cache counters it produced.
Delta RunFileSession(uint64_t seed) {
  ServiceGroup::Params params;
  params.config.f = 1;
  params.config.checkpoint_interval = 8;
  params.config.log_window = 16;
  params.seed = seed;
  auto group = MakeBasefsGroup(
      params, {FsVendor::kLinear, FsVendor::kTree, FsVendor::kLog,
               FsVendor::kLinear},
      64);
  ReplicatedFsSession fs(group.get(), 0);
  const hotpath::Counters before = hotpath::counters();
  for (int i = 0; i < 12; ++i) {
    auto file = fs.Create(fs.Root(), "f" + std::to_string(i));
    EXPECT_TRUE(file.ok());
    if (file.ok()) {
      EXPECT_TRUE(fs.Write(*file, 0, Input(static_cast<uint32_t>(i), 8192))
                      .ok());
      EXPECT_TRUE(fs.Read(*file, 0, 8192).ok());
    }
  }
  group->sim().RunUntil(group->sim().Now() + kSecond);
  return Since(before);
}

TEST(DigestCache, SameSeedSimulationsCountTheSame) {
  const Delta first = RunFileSession(3);
  const Delta second = RunFileSession(3);
  EXPECT_GT(first.hits, 0u);
  EXPECT_EQ(second.hits, first.hits);
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.hashes, first.hashes);
}

}  // namespace
}  // namespace bftbase
