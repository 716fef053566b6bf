// Content-keyed SHA-256 digest cache.
//
// Correct replicas produce byte-identical abstract objects, replies and
// agreement messages (that is the point of the conformance wrapper), and in
// the simulation the client and every replica share one process, so the
// same byte string is hashed again and again: a request is digested when the
// client seals it, when the primary opens it, when each replica digests it
// into the pre-prepare batch; each replica digests the same checkpoint
// leaves and the same reply. The cache lets the first of those hashes serve
// the rest.
//
// Content, not identity: a slot is chosen by a fast non-cryptographic hash
// of sampled bytes and a stored copy of the bytes is compared in full
// (memcmp) before its digest is served, so a hit is exactly
// Digest::Of(data) and no buffer address is ever a key. Direct-mapped with
// fixed constants: a colliding input replaces the slot, so hits and misses
// repeat exactly for a seed and memory stays below kSlots * kMaxBytes.
// Inputs shorter than kMinBytes bypass the cache (a hit saves them little,
// and the many small envelopes would crowd out large entries); inputs
// longer than kMaxBytes are hashed but never stored.
//
// Only digests are cached — never MACs, signatures or verification
// verdicts. Callers charge the simulated cost model as if they hashed; the
// cache skips only real SHA-256 work, so virtual time is unchanged. Not
// thread-safe: one cache belongs to one Simulation and is used only on its
// thread (checkpoint digests look up before and store after their pool
// jobs).
//
// Counts hotpath digest_memo_hits / digest_memo_misses for inputs of at
// least kMinBytes; the sha256_* counters see only the hashing that runs.
#ifndef SRC_CRYPTO_DIGEST_CACHE_H_
#define SRC_CRYPTO_DIGEST_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/crypto/digest.h"
#include "src/util/bytes.h"

namespace bftbase {

class DigestCache {
 public:
  static constexpr size_t kMinBytes = 256;
  static constexpr size_t kMaxBytes = 16 * 1024;
  static constexpr size_t kSlots = 128;

  // Digest::Of(data), served from the cache when a stored copy equals
  // `data`; otherwise hashed and, if eligible, stored.
  Digest Of(BytesView data);

  // The two halves of Of(), for callers that hash the misses themselves:
  // Lookup counts a hit or a miss and returns the cached digest on a hit;
  // Store records `digest`, which must be Digest::Of(data).
  std::optional<Digest> Lookup(BytesView data);
  void Store(BytesView data, const Digest& digest);

  // Bytes currently held in slots (for tests and memory accounting).
  size_t stored_bytes() const;

 private:
  struct Slot {
    uint64_t key = 0;
    Digest digest;
    Bytes bytes;  // empty == unused (stored inputs are never empty)
  };

  static uint64_t ContentKey(BytesView data);

  std::array<Slot, kSlots> slots_;
};

}  // namespace bftbase

#endif  // SRC_CRYPTO_DIGEST_CACHE_H_
