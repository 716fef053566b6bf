// Determinism witness for the worker-pool crypto pipeline (DESIGN.md §13).
//
// The pipeline moves two coarse kinds of real crypto work onto worker
// threads — authenticator lane batches when n > 8 (PairMacs shards) and
// checkpoint leaf digests in 64-leaf chunks (DigestMany shards) — and joins
// each job at a fixed program point before its results are used. This
// suite is the oracle for that claim: the 28 pinned chaos seeds, both
// wall-clock bench configs and a sharded config where both stages provably
// fire must produce byte-identical EventTrace digests AND identical hot.*
// logical-work counters for thread counts 0, 1, 2 and 8. Any divergence
// means a result or counter leaked across a join point.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/crypto/digest.h"
#include "src/util/bufpool.h"
#include "src/util/hotpath.h"
#include "src/util/workerpool.h"
#include "src/workload/chaos.h"

namespace bftbase {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : prev_(WorkerPool::Global().threads()) {
    WorkerPool::Global().SetThreads(n);
  }
  ~ScopedThreads() { WorkerPool::Global().SetThreads(prev_); }

 private:
  int prev_;
};

// Named rows so a mismatch reports which logical counter diverged, not just
// that some byte differed.
using CounterRows = std::vector<std::pair<std::string, uint64_t>>;

CounterRows SnapshotCounters() {
  const hotpath::Counters& c = hotpath::counters();
  return {
      {"sha256_invocations", c.sha256_invocations},
      {"sha256_blocks", c.sha256_blocks},
      {"bytes_hashed", c.bytes_hashed},
      {"sha256_oneshot", c.sha256_oneshot},
      {"sha256_ni_blocks", c.sha256_ni_blocks},
      {"sha256_multi_blocks", c.sha256_multi_blocks},
      {"hmac_lane_batches", c.hmac_lane_batches},
      {"tree_nodes_rehashed", c.tree_nodes_rehashed},
      {"tree_nodes_preserved", c.tree_nodes_preserved},
      {"encode_allocs", c.encode_allocs},
      {"encode_reuses", c.encode_reuses},
      {"digest_memo_hits", c.digest_memo_hits},
      {"digest_memo_misses", c.digest_memo_misses},
      {"event_pool_allocs", c.event_pool_allocs},
      {"event_pool_reuses", c.event_pool_reuses},
      {"events_pruned", c.events_pruned},
      {"events_requeued", c.events_requeued},
      {"pool_jobs", c.pool_jobs},
      {"pool_mac_shard_jobs", c.pool_mac_shard_jobs},
      {"pool_digest_shard_jobs", c.pool_digest_shard_jobs},
  };
}

uint64_t CounterValue(const CounterRows& rows, const std::string& name) {
  for (const auto& [key, value] : rows) {
    if (key == name) {
      return value;
    }
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

void ExpectSameCounters(const CounterRows& base, const CounterRows& got,
                        const std::string& label) {
  ASSERT_EQ(base.size(), got.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].second, got[i].second)
        << label << ": counter " << base[i].first << " diverged";
  }
}

// Runs `body` from a cold start (empty buffer pool, zeroed counters) and
// returns the counters it accumulated, so per-run profiles replay exactly.
CounterRows RunCold(const std::function<void()>& body) {
  BufferPool::Clear();
  hotpath::ResetCounters();
  body();
  return SnapshotCounters();
}

constexpr int kThreadSweep[] = {0, 1, 2, 8};

TEST(PipelineWitness, ChaosSeedsIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 1; seed <= 28; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    ChaosRunResult base;
    CounterRows base_counters;
    {
      ScopedThreads threads(0);
      base_counters = RunCold([&] { base = RunChaos(options); });
    }
    // These f=1 runs need not reach a sharded stage; ShardedStagesFire below
    // is the config where both stages provably submit pool jobs.
    ASSERT_FALSE(base.Failed()) << "seed " << seed;
    for (int n : kThreadSweep) {
      if (n == 0) {
        continue;
      }
      ScopedThreads threads(n);
      ChaosRunResult run;
      CounterRows counters = RunCold([&] { run = RunChaos(options); });
      const std::string label =
          "seed " + std::to_string(seed) + " threads " + std::to_string(n);
      EXPECT_EQ(base.trace_digest.Hex(), run.trace_digest.Hex()) << label;
      EXPECT_EQ(base.trace_events, run.trace_events) << label;
      EXPECT_EQ(base.schedule_digest.Hex(), run.schedule_digest.Hex())
          << label;
      EXPECT_EQ(base.completed, run.completed) << label;
      EXPECT_EQ(base.verdict.linearizable, run.verdict.linearizable) << label;
      ExpectSameCounters(base_counters, counters, label);
    }
  }
}

constexpr uint32_t kKvSlots = 4096;

// The bench_wallclock closed-loop KV workload (same group parameters, slot
// schedule and value bytes), with the trace enabled. `replies` digests the
// client-visible schedule: which client completed when, in order.
struct TraceResult {
  bool ok = false;
  std::string digest;
  uint64_t events = 0;
  std::string replies;
};

TraceResult RunWallclock(int f, int clients, int requests_per_client,
                         uint64_t seed, int checkpoint_interval = 128) {
  ServiceGroup::Params params;
  params.config.f = f;
  params.config.checkpoint_interval = checkpoint_interval;
  params.config.log_window = 2 * checkpoint_interval;
  params.config.max_clients = clients < 16 ? 16 : clients;
  params.seed = seed;
  ServiceGroup group(std::move(params), [](Simulation* sim, NodeId) {
    return std::make_unique<KvAdapter>(sim, kKvSlots);
  });
  group.EnableTrace();

  const uint64_t total = static_cast<uint64_t>(clients) * requests_per_client;
  uint64_t completed = 0;
  Digest::Builder replies;
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
                               replies.Add(static_cast<uint64_t>(i))
                                   .Add(static_cast<uint64_t>(
                                       group.sim().Now()));
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
  r.replies = replies.Build().Hex(Digest::kSize);
  return r;
}

TEST(PipelineWitness, WallclockConfigsIdenticalAcrossThreadCounts) {
  struct Pin {
    int f;
    int clients;
    int requests_per_client;
    uint64_t seed;
    const char* digest;  // must ALSO match the kernel-witness history pins
    uint64_t events;
  };
  const Pin pins[] = {
      {1, 1, 40, 7001, "228d57578ed1", 2918},
      {2, 16, 5, 7002, "eaf5e0052527", 5173},
  };
  for (const Pin& pin : pins) {
    CounterRows base_counters;
    for (int n : kThreadSweep) {
      ScopedThreads threads(n);
      TraceResult r;
      CounterRows counters = RunCold([&] {
        r = RunWallclock(pin.f, pin.clients, pin.requests_per_client,
                         pin.seed);
      });
      const std::string label = "seed " + std::to_string(pin.seed) +
                                " threads " + std::to_string(n);
      ASSERT_TRUE(r.ok) << label;
      // Pinned digests: the pipeline must not only be internally consistent
      // across thread counts but invisible against the recorded history.
      EXPECT_EQ(r.digest, pin.digest) << label;
      EXPECT_EQ(r.events, pin.events) << label;
      if (n == 0) {
        base_counters = std::move(counters);
      } else {
        ExpectSameCounters(base_counters, counters, label);
      }
    }
  }
}

TEST(PipelineWitness, ShardedStagesFireAndMatchAcrossThreadCounts) {
  // f=3 gives n=10 replicas, so every authenticator is two lane batches and
  // PairMacs shards them; 32 clients writing distinct slots dirty well over
  // 64 leaves per 32-sequence-number checkpoint, so DigestMany chunks too.
  constexpr int kF = 3;
  constexpr int kClients = 32;
  constexpr int kRequests = 8;
  constexpr uint64_t kSeed = 7003;
  constexpr int kCheckpointInterval = 32;
  TraceResult base;
  CounterRows base_counters;
  for (int n : kThreadSweep) {
    ScopedThreads threads(n);
    TraceResult r;
    CounterRows counters = RunCold([&] {
      r = RunWallclock(kF, kClients, kRequests, kSeed, kCheckpointInterval);
    });
    const std::string label = "threads " + std::to_string(n);
    ASSERT_TRUE(r.ok) << label;
    if (n == 0) {
      // Not vacuous: both pool stages submitted jobs.
      EXPECT_GT(CounterValue(counters, "pool_mac_shard_jobs"), 0u);
      EXPECT_GT(CounterValue(counters, "pool_digest_shard_jobs"), 0u);
      // Pinned, like the wall-clock configs above.
      EXPECT_EQ(r.digest, "3b14f044e271");
      EXPECT_EQ(r.events, 23781u);
      base = r;
      base_counters = std::move(counters);
      continue;
    }
    EXPECT_EQ(base.digest, r.digest) << label;
    EXPECT_EQ(base.events, r.events) << label;
    EXPECT_EQ(base.replies, r.replies) << label;
    ExpectSameCounters(base_counters, counters, label);
  }
}

// --- WorkerPool unit coverage ----------------------------------------------

TEST(WorkerPool, ZeroThreadsRunsAtJoin) {
  WorkerPool pool(0);
  int ran = 0;
  WorkerPool::JobRef job = pool.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 0);  // Submit never runs inline
  pool.Join(job);
  EXPECT_EQ(ran, 1);
  pool.Join(job);  // idempotent
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.jobs_run_at_join(), 1u);
  EXPECT_EQ(pool.jobs_run_by_worker(), 0u);
}

TEST(WorkerPool, JoinMergesWorkerCounterDelta) {
  hotpath::ResetCounters();
  const uint64_t before = hotpath::counters().sha256_oneshot;
  WorkerPool pool(2);
  std::vector<WorkerPool::JobRef> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back(
        pool.Submit([] { hotpath::counters().sha256_oneshot += 3; }));
  }
  for (const WorkerPool::JobRef& job : jobs) {
    pool.Join(job);
  }
  // Whether a worker ran a job or the join claimed it inline, every bump
  // lands exactly once in this thread's shard.
  EXPECT_EQ(hotpath::counters().sha256_oneshot, before + 64 * 3);
}

TEST(WorkerPool, SetThreadsDrainsAndRestarts) {
  WorkerPool pool(4);
  std::vector<WorkerPool::JobRef> jobs;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    jobs.push_back(pool.Submit([&] { ran.fetch_add(1); }));
  }
  pool.SetThreads(1);
  for (int i = 0; i < 100; ++i) {
    jobs.push_back(pool.Submit([&] { ran.fetch_add(1); }));
  }
  pool.SetThreads(0);
  for (const WorkerPool::JobRef& job : jobs) {
    pool.Join(job);
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(WorkerPool, ThreadsFromEnvParses) {
  unsetenv("BASE_THREADS");
  EXPECT_EQ(WorkerPool::ThreadsFromEnv(3), 3);
  setenv("BASE_THREADS", "7", 1);
  EXPECT_EQ(WorkerPool::ThreadsFromEnv(3), 7);
  setenv("BASE_THREADS", "bogus", 1);
  EXPECT_EQ(WorkerPool::ThreadsFromEnv(3), 3);
  setenv("BASE_THREADS", "-2", 1);
  EXPECT_EQ(WorkerPool::ThreadsFromEnv(3), 3);
  unsetenv("BASE_THREADS");
}

}  // namespace
}  // namespace bftbase
