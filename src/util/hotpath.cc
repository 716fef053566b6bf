#include "src/util/hotpath.h"

namespace bftbase {
namespace hotpath {

void MergeCounters(const Counters& delta) {
  Counters& c = internal::g_counters;
  c.sha256_invocations += delta.sha256_invocations;
  c.sha256_blocks += delta.sha256_blocks;
  c.bytes_hashed += delta.bytes_hashed;
  c.sha256_oneshot += delta.sha256_oneshot;
  c.sha256_ni_blocks += delta.sha256_ni_blocks;
  c.sha256_multi_blocks += delta.sha256_multi_blocks;
  c.hmac_lane_batches += delta.hmac_lane_batches;
  c.tree_nodes_rehashed += delta.tree_nodes_rehashed;
  c.tree_nodes_preserved += delta.tree_nodes_preserved;
  c.encode_allocs += delta.encode_allocs;
  c.encode_reuses += delta.encode_reuses;
  c.digest_memo_hits += delta.digest_memo_hits;
  c.digest_memo_misses += delta.digest_memo_misses;
  c.event_pool_allocs += delta.event_pool_allocs;
  c.event_pool_reuses += delta.event_pool_reuses;
  c.events_pruned += delta.events_pruned;
  c.events_requeued += delta.events_requeued;
  c.pool_jobs += delta.pool_jobs;
  c.pool_mac_shard_jobs += delta.pool_mac_shard_jobs;
  c.pool_digest_shard_jobs += delta.pool_digest_shard_jobs;
}

void ResetCounters() { internal::g_counters = Counters{}; }

}  // namespace hotpath
}  // namespace bftbase
