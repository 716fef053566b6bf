// Memo of envelope digests keyed by delivered-buffer identity.
//
// With the zero-copy fabric a multicast delivers one immutable
// shared_ptr<const Bytes> to n receivers; each receiver's Channel::Open used
// to recompute the same envelope digest over the same bytes. The memo lets
// the first receiver's digest be reused by the rest.
//
// Identity, not content: the key is the buffer's address, validated by a
// weak_ptr so an entry can never serve a *different* buffer that was later
// allocated at the same address (the classic stale-pointer cache bug). Only
// the digest is cached — never authentication results — so per-receiver MAC
// checks (and the CorruptOutgoingAuth fault hooks) behave exactly as before.
// Simulated CPU cost is charged by the caller regardless of hit or miss;
// the memo only skips real SHA-256 work.
#ifndef SRC_SIM_DIGEST_MEMO_H_
#define SRC_SIM_DIGEST_MEMO_H_

#include <memory>
#include <optional>
#include <unordered_map>

#include "src/crypto/digest.h"
#include "src/util/bytes.h"

namespace bftbase {

class DeliveryDigestMemo {
 public:
  // Returns the digest cached for exactly this buffer, or nullopt. Counts a
  // hotpath memo hit/miss; always misses when hotpath caches are disabled.
  std::optional<Digest> Lookup(const std::shared_ptr<const Bytes>& buf) const;

  // Caches `digest` for `buf`. No-op when hotpath caches are disabled.
  void Store(const std::shared_ptr<const Bytes>& buf, const Digest& digest);

  void Clear();
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::weak_ptr<const Bytes> buf;
    Digest digest;
  };

  // Entries whose buffer died are dropped lazily (on colliding lookups and
  // by the periodic sweep in Store); the map is bounded so a long run cannot
  // accumulate tombstones.
  static constexpr size_t kSweepThreshold = 4096;

  mutable std::unordered_map<const void*, Entry> entries_;
};

}  // namespace bftbase

#endif  // SRC_SIM_DIGEST_MEMO_H_
