// Determinism witness for the event kernel and the crypto kernel
// (DESIGN.md §10, §11).
//
// Neither kernel may be visible to any experiment: same seed => byte-identical
// EventTrace digest. The pins below were recorded while the superseded paths
// (the std::priority_queue event kernel, the scalar streaming SHA-256 path,
// the uncached HMAC keys) still ran beside the current ones and agreed with
// them on every value here; they now hold the current path to that history.
// A drift in event order, an RNG draw, a fault schedule or the amount of
// hashing fails here, not only a disagreement between two paths.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/util/hotpath.h"
#include "src/workload/chaos.h"

namespace bftbase {
namespace {

struct TraceResult {
  bool ok = false;
  std::string digest;
  uint64_t events = 0;
};

constexpr uint32_t kKvSlots = 4096;

// The bench_wallclock closed-loop KV workload, verbatim (same group
// parameters, slot schedule and value bytes), with the trace enabled or not.
TraceResult RunWallclock(int f, int clients, int requests_per_client,
                         uint64_t seed, bool trace = true) {
  ServiceGroup::Params params;
  params.config.f = f;
  params.config.checkpoint_interval = 128;
  params.config.log_window = 256;
  params.config.max_clients = clients < 16 ? 16 : clients;
  params.seed = seed;
  ServiceGroup group(std::move(params), [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, kKvSlots);
  });
  if (trace) {
    group.EnableTrace();
  }

  const uint64_t total =
      static_cast<uint64_t>(clients) * requests_per_client;
  uint64_t completed = 0;
  Bytes value(1024, 0xab);
  std::vector<int> issued(clients, 0);
  std::vector<std::function<void()>> issue(clients);
  for (int i = 0; i < clients; ++i) {
    issue[i] = [&, i] {
      if (issued[i] >= requests_per_client) {
        return;
      }
      ++issued[i];
      uint32_t slot = static_cast<uint32_t>(i * 997 + issued[i]) % kKvSlots;
      group.client(i).Invoke(KvAdapter::EncodeSet(slot, value),
                             /*read_only=*/false, [&, i](Status, Bytes) {
                               ++completed;
                               issue[i]();
                             });
    };
  }
  for (int i = 0; i < clients; ++i) {
    issue[i]();
  }
  TraceResult r;
  r.ok = group.sim().RunUntilTrue([&] { return completed == total; },
                                  static_cast<SimTime>(total) * kSecond);
  r.digest = group.sim().trace().digest().Hex();
  r.events = group.sim().trace().event_count();
  return r;
}

// Every chaos-smoke seed (the set bench_chaos --smoke replays): trace
// digest, event count, fault-schedule digest and completed operations.
// Legitimate to move only for a deliberate protocol change, never for a
// kernel or crypto change.
//
// Seed-1 pin history:
//   70d3242  176d678d1243 / 2663 events  (pre event-kernel overhaul)
//   02b0a3b  20082fd2dcc5 / 2966 events  — the Byzantine client-view fixes
//     (f+1 view attestations, fallback vote preservation, eager retransmit
//     on digest-quorum-without-result) change client behaviour under the
//     injected faults, so the fault-schedule trace legitimately shifted.
//   current  310c19ab264e / 2966 events  — durable replica state: chaos
//     crash/restart and proactive recovery now reboot through the real
//     restart-from-disk path (checkpoint page load + WAL-tail replay), and
//     replicas persist prepared certificates, so the post-fault message
//     interleaving legitimately shifted. The event count is unchanged; the
//     fault-free wall-clock pins below are untouched, which isolates the
//     shift to the recovery path.
// Seeds 2-28 were recorded just before the std::priority_queue event kernel
// and the crypto-kernel switch were removed, when both event kernels agreed
// on every seed and the crypto kernel on and off agreed on seeds 1, 9, 17.
TEST(KernelWitness, ChaosSmokeSeedsMatchPins) {
  struct Pin {
    uint64_t seed;
    const char* trace_digest;
    uint64_t trace_events;
    const char* schedule_digest;
    int completed;
  };
  const Pin pins[] = {
      {1, "310c19ab264e", 2966, "9a43eeccff09", 30},
      {2, "7a99cef3d0b6", 3029, "4d0a6f5062db", 30},
      {3, "3cca43db58d1", 3206, "c09edebaee8c", 30},
      {4, "9708d4bb414c", 2822, "78a153f5c8eb", 30},
      {5, "9cd777701907", 2765, "1cf1581c00aa", 30},
      {6, "cd238481aec7", 4129, "652dbfd73c3a", 30},
      {7, "cd2a6bd86a01", 2964, "316d9b0f57c2", 30},
      {8, "e47353b64109", 2996, "85f44a586cdf", 30},
      {9, "b251bc75286e", 2823, "41ef79a217c2", 30},
      {10, "226c87e9660d", 3096, "4d4dbc6c3a7f", 30},
      {11, "45f4514937c8", 2913, "c54aea6b4c3b", 30},
      {12, "3e20730837ca", 4218, "307704cb81bd", 30},
      {13, "480919ac92fb", 2830, "2218024009a4", 30},
      {14, "c2a88bbbd26d", 3048, "826a3f5dc44d", 30},
      {15, "3a6c55cc364a", 3044, "6a9b68d5318c", 30},
      {16, "7931fb9d9ccb", 3072, "73f6d90a0280", 30},
      {17, "349a9d6dc471", 2945, "ba95b2553dca", 30},
      {18, "3a238175becf", 3128, "b04db2a602db", 30},
      {19, "59b3eb47e82d", 4596, "de12dc520d82", 27},
      {20, "a8fec3a98ff6", 4395, "8503e52048bf", 30},
      {21, "85c0df0f0fc4", 4082, "14f47da284fe", 28},
      {22, "e62aa0d6e847", 2920, "159e18eb3042", 30},
      {23, "e4f892ef5e5a", 3122, "6481bfeff9e9", 30},
      {24, "f7656cb83609", 2960, "252f014671ae", 30},
      {25, "e722b3c60a18", 2878, "73bf9c43dbbe", 30},
      {26, "3897270009b0", 2962, "2e2a1bd235f8", 30},
      {27, "7679852361f3", 3043, "dd97ec6158bd", 30},
      {28, "fd3495536628", 2924, "dcfc3dd9b21d", 30},
  };
  for (const Pin& pin : pins) {
    ChaosOptions options;
    options.seed = pin.seed;
    const ChaosRunResult r = RunChaos(options);
    EXPECT_EQ(r.trace_digest.Hex(), pin.trace_digest) << "seed " << pin.seed;
    EXPECT_EQ(r.trace_events, pin.trace_events) << "seed " << pin.seed;
    EXPECT_EQ(r.schedule_digest.Hex(), pin.schedule_digest)
        << "seed " << pin.seed;
    EXPECT_EQ(r.completed, pin.completed) << "seed " << pin.seed;
    EXPECT_TRUE(r.verdict.linearizable) << "seed " << pin.seed;
    EXPECT_FALSE(r.Failed()) << "seed " << pin.seed;
  }
}

TEST(KernelWitness, WallclockConfigsMatchPreOverhaulPins) {
  struct Pin {
    int f;
    int clients;
    int requests_per_client;
    uint64_t seed;
    const char* digest;
    uint64_t events;
  };
  // The bench_wallclock --smoke configs (f1_1client, f2_16clients).
  //
  // f2_16clients pin history:
  //   ff902786faa0 / 5176 events — pre write-ahead reply ordering.
  //   eaf5e0052527 / 5173 events — ExecuteBatch now makes the whole batch
  //     durable (LogBatch + sync) BEFORE sending any reply, so in a
  //     multi-request batch every reply departs after ALL the batch's
  //     execution work instead of interleaved with it. Single-request
  //     batches are unaffected — the f1_1client pin is untouched, which
  //     isolates the shift to batched replies.
  const Pin pins[] = {
      {1, 1, 40, 7001, "228d57578ed1", 2918},
      {2, 16, 5, 7002, "eaf5e0052527", 5173},
  };
  for (const Pin& pin : pins) {
    TraceResult r =
        RunWallclock(pin.f, pin.clients, pin.requests_per_client, pin.seed);
    ASSERT_TRUE(r.ok) << "seed " << pin.seed;
    EXPECT_EQ(r.digest, pin.digest) << "seed " << pin.seed;
    EXPECT_EQ(r.events, pin.events) << "seed " << pin.seed;
  }
}

// Logical work of the bench_wallclock configs (untraced, as the bench runs
// them): SHA-256 finalizations, compressed blocks and bytes, digest-cache
// hits and misses, authenticator lane batches, and partition-tree nodes
// hashed and preserved, recorded just before the cache and crypto-kernel
// switches were removed. A change that hashes more (a lost cache hit, a
// tree node re-hashed, an extra digest) fails here exactly; so does one
// that hashes less, which must then say why. Which unit compressed the
// blocks (sha256_ni_blocks / sha256_multi_blocks) depends on the CPU and is
// not pinned.
TEST(KernelWitness, WallclockLogicalWorkMatchesPins) {
  struct Pin {
    int f;
    int clients;
    int requests_per_client;
    uint64_t seed;
    uint64_t sha256_invocations;
    uint64_t sha256_blocks;
    uint64_t bytes_hashed;
    uint64_t digest_memo_hits;
    uint64_t digest_memo_misses;
    uint64_t hmac_lane_batches;
    uint64_t tree_nodes_rehashed;
    uint64_t tree_nodes_preserved;
  };
  const Pin pins[] = {
      {1, 1, 40, 7001, 26049, 37739, 1080560, 400, 120, 200, 1108, 0},
      {2, 16, 5, 7002, 48798, 76189, 2413245, 1006, 334, 220, 1939, 0},
  };
  for (const Pin& pin : pins) {
    hotpath::ResetCounters();
    TraceResult r = RunWallclock(pin.f, pin.clients, pin.requests_per_client,
                                 pin.seed, /*trace=*/false);
    ASSERT_TRUE(r.ok) << "seed " << pin.seed;
    const hotpath::Counters& c = hotpath::counters();
    EXPECT_EQ(c.sha256_invocations, pin.sha256_invocations)
        << "seed " << pin.seed;
    EXPECT_EQ(c.sha256_blocks, pin.sha256_blocks) << "seed " << pin.seed;
    EXPECT_EQ(c.bytes_hashed, pin.bytes_hashed) << "seed " << pin.seed;
    EXPECT_EQ(c.digest_memo_hits, pin.digest_memo_hits) << "seed " << pin.seed;
    EXPECT_EQ(c.digest_memo_misses, pin.digest_memo_misses)
        << "seed " << pin.seed;
    EXPECT_EQ(c.hmac_lane_batches, pin.hmac_lane_batches)
        << "seed " << pin.seed;
    EXPECT_EQ(c.tree_nodes_rehashed, pin.tree_nodes_rehashed)
        << "seed " << pin.seed;
    EXPECT_EQ(c.tree_nodes_preserved, pin.tree_nodes_preserved)
        << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace bftbase
