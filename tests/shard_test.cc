// Tests for the sharded multi-group deployment (src/shard/): routing
// stability across restarts, cross-shard read correctness, slow-shard
// independence, and the same-seed determinism contract (byte-identical
// per-shard trace digests and keyed-history digests).
#include "src/shard/shard_router.h"

#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "src/shard/keyed_workload.h"
#include "src/shard/shard_chaos.h"

namespace bftbase {
namespace {

ShardedDeployment::Params SmallParams(int shards, uint64_t seed) {
  ShardedDeployment::Params p;
  p.shards = shards;
  p.clients = 4;
  p.seed = seed;
  p.keys = 64;
  return p;
}

// --- Routing stability ------------------------------------------------------

TEST(ShardRouterTest, RoutingIsPinnedAndStableAcrossRestarts) {
  // The key→shard map is data placement: if it silently changed, a restart
  // would look for keys on the wrong shard. Pin it.
  const std::vector<int> expected_mod4 = {3, 1, 2, 1, 2, 2, 0, 3,
                                          2, 0, 2, 1, 3, 3, 2, 1};
  for (uint64_t k = 0; k < expected_mod4.size(); ++k) {
    EXPECT_EQ(ShardedDeployment::ShardOf(k, 4), expected_mod4[k]) << k;
  }
  EXPECT_EQ(ShardedDeployment::KeyHash(0), 16294208416658607535ull);
  EXPECT_EQ(ShardedDeployment::KeyHash(1), 10451216379200822465ull);

  // A "process restart": a freshly built deployment routes identically, and
  // routing is independent of seed and of any traffic already served.
  auto dep1 = std::make_unique<ShardedDeployment>(SmallParams(4, 1));
  std::vector<int> before;
  for (uint64_t k = 0; k < 64; ++k) {
    before.push_back(dep1->ShardOfKey(k));
  }
  bool done = false;
  dep1->client(0).Set(7, Bytes{1, 2, 3},
                      [&](const RouterClient::Completion&) { done = true; });
  ASSERT_TRUE(dep1->RunUntilTrue([&] { return done; }, 60 * kSecond));
  dep1.reset();
  ShardedDeployment dep2(SmallParams(4, 999));
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(dep2.ShardOfKey(k), before[k]) << k;
  }
}

TEST(ShardRouterTest, HashSpreadsKeysAcrossShards) {
  // Sequential key ranges must not cluster: every shard owns a healthy
  // slice of a 4096-key universe.
  for (int shards : {2, 4, 8}) {
    std::vector<int> owned(shards, 0);
    for (uint64_t k = 0; k < 4096; ++k) {
      ++owned[ShardedDeployment::ShardOf(k, shards)];
    }
    const int expect = 4096 / shards;
    for (int s = 0; s < shards; ++s) {
      EXPECT_GT(owned[s], expect / 2) << "shards=" << shards << " s=" << s;
      EXPECT_LT(owned[s], expect * 2) << "shards=" << shards << " s=" << s;
    }
  }
}

// --- Cross-shard reads ------------------------------------------------------

TEST(ShardRouterTest, CrossShardMultiGetReadsBackWrites) {
  ShardedDeployment dep(SmallParams(3, 5));
  // Keys 0,1,3 live on shards 1,2,0 respectively (pinned above for mod 4;
  // recompute here to stay robust if the shard count changes the mapping).
  const std::vector<uint64_t> keys = {0, 1, 3};
  std::set<int> owners;
  for (uint64_t k : keys) {
    owners.insert(dep.ShardOfKey(k));
  }
  ASSERT_EQ(owners.size(), 3u) << "test keys must span all three shards";

  int writes_done = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    dep.client(0).Set(keys[i], Bytes{static_cast<uint8_t>(0xa0 + i)},
                      [&](const RouterClient::Completion& c) {
                        EXPECT_TRUE(c.status.ok());
                        ++writes_done;
                      });
  }
  ASSERT_TRUE(dep.RunUntilTrue(
      [&] { return writes_done == static_cast<int>(keys.size()); },
      120 * kSecond));

  // One multiget spanning all three shards reads every write back.
  std::vector<RouterClient::Completion> reads;
  bool done = false;
  dep.client(1).MultiGet(
      keys, [&](const RouterClient::Completion& c) { reads.push_back(c); },
      [&] { done = true; });
  ASSERT_TRUE(dep.RunUntilTrue([&] { return done; }, 120 * kSecond));
  ASSERT_EQ(reads.size(), keys.size());
  std::set<int> read_shards;
  for (const auto& c : reads) {
    EXPECT_TRUE(c.status.ok());
    read_shards.insert(c.shard);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == c.key) {
        EXPECT_EQ(c.result, Bytes{static_cast<uint8_t>(0xa0 + i)});
      }
    }
    EXPECT_GE(c.response_us, c.invoke_us);
  }
  EXPECT_EQ(read_shards.size(), 3u);
  EXPECT_EQ(dep.client(1).multigets(), 1u);
  EXPECT_EQ(dep.client(1).subops(), 3u);
}

TEST(ShardRouterTest, SameShardSubOpsChainFifo) {
  ShardedDeployment dep(SmallParams(2, 9));
  // Two writes + a read on the SAME key from one client: the router must
  // chain them (one outstanding protocol op per slot per shard) and the
  // read must observe the second write.
  const uint64_t key = 2;
  std::vector<int> order;
  Bytes got;
  bool done = false;
  dep.client(0).Set(key, Bytes{1}, [&](const RouterClient::Completion& c) {
    EXPECT_TRUE(c.status.ok());
    order.push_back(1);
  });
  dep.client(0).Set(key, Bytes{2}, [&](const RouterClient::Completion& c) {
    EXPECT_TRUE(c.status.ok());
    order.push_back(2);
  });
  dep.client(0).Get(key, [&](const RouterClient::Completion& c) {
    EXPECT_TRUE(c.status.ok());
    got = c.result;
    done = true;
  });
  ASSERT_TRUE(dep.RunUntilTrue([&] { return done; }, 120 * kSecond));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(got, Bytes{2});
}

// --- Slow-shard independence ------------------------------------------------

TEST(ShardRouterTest, StalledShardDoesNotStallOtherShards) {
  // Regression for the router's per-shard queues: wedge shard owning key 2
  // (isolate every replica so it can commit nothing) and verify traffic to
  // the other shard still completes promptly in global virtual time.
  ShardedDeployment dep(SmallParams(2, 11));
  const uint64_t stalled_key = 2;   // shard 0 under the pinned mod-2 map
  const uint64_t healthy_key = 0;   // shard 1
  const int stalled = dep.ShardOfKey(stalled_key);
  const int healthy = dep.ShardOfKey(healthy_key);
  ASSERT_NE(stalled, healthy);
  for (int r = 0; r < dep.shard(stalled).replica_count(); ++r) {
    dep.shard(stalled).sim().network().Isolate(r);
  }

  bool stalled_completed = false;
  bool stalled_abandoned = false;
  dep.client(0).Set(stalled_key, Bytes{1},
                    [&](const RouterClient::Completion& c) {
                      if (c.abandoned) {
                        EXPECT_FALSE(c.status.ok());
                        stalled_abandoned = true;
                        return;
                      }
                      stalled_completed = true;
                    });
  int healthy_done = 0;
  SimTime last_latency = 0;
  for (int i = 0; i < 5; ++i) {
    dep.client(0).Set(healthy_key, Bytes{static_cast<uint8_t>(i)},
                      [&](const RouterClient::Completion& c) {
                        EXPECT_TRUE(c.status.ok());
                        last_latency = c.response_us - c.invoke_us;
                        ++healthy_done;
                      });
  }
  ASSERT_TRUE(dep.RunUntilTrue([&] { return healthy_done == 5; },
                               60 * kSecond));
  EXPECT_FALSE(stalled_completed);
  // The healthy shard's chained writes must finish far below the run cap —
  // i.e. they never waited on the wedged shard.
  EXPECT_LT(dep.Now(), 10 * kSecond);
  EXPECT_GT(last_latency, 0);
  // Cleanup so the deployment tears down without an in-flight client op.
  // The abandoned sub-op's callback must fire exactly once, flagged.
  dep.client(0).AbandonOn(stalled);
  EXPECT_TRUE(stalled_abandoned);
  EXPECT_FALSE(stalled_completed);
}

TEST(ShardRouterTest, AbandonFiresMultiGetDoneAndDropsQueuedSubOps) {
  // Regression: abandoning a shard used to destroy the head sub-op's
  // callback (so a multiget's `done` countdown could never resolve) and
  // left same-shard sub-ops chained behind it to issue as orphan protocol
  // ops. Both are part of the AbandonOn contract now.
  ShardedDeployment dep(SmallParams(2, 13));
  // Keys 2 and 4 share a shard; key 0 lives on the other (pinned hash map).
  const std::vector<uint64_t> keys = {2, 4, 0};
  const int wedged = dep.ShardOfKey(2);
  ASSERT_EQ(dep.ShardOfKey(4), wedged);
  const int healthy = dep.ShardOfKey(0);
  ASSERT_NE(wedged, healthy);
  for (int r = 0; r < dep.shard(wedged).replica_count(); ++r) {
    dep.shard(wedged).sim().network().Isolate(r);
  }

  int ok = 0;
  int abandoned = 0;
  int done = 0;
  dep.client(0).MultiGet(
      keys,
      [&](const RouterClient::Completion& c) {
        if (c.abandoned) {
          EXPECT_EQ(c.shard, wedged);
          EXPECT_FALSE(c.status.ok());
          ++abandoned;
        } else {
          EXPECT_EQ(c.shard, healthy);
          EXPECT_TRUE(c.status.ok());
          ++ok;
        }
      },
      [&] { ++done; });
  // The healthy sub-read completes; the wedged shard commits nothing.
  ASSERT_TRUE(dep.RunUntilTrue([&] { return ok == 1; }, 60 * kSecond));
  EXPECT_EQ(done, 0);

  // Abandoning the wedged shard drops BOTH its sub-ops — the issued head
  // and the one chained behind it — and `done` still fires exactly once.
  dep.client(0).AbandonOn(wedged);
  EXPECT_EQ(abandoned, 2);
  EXPECT_EQ(done, 1);
  // The chained sub-op was never issued as a protocol op, and nothing
  // orphaned issues later either.
  EXPECT_EQ(dep.client(0).subops(), 2u);  // healthy + wedged head
  dep.RunUntil(dep.Now() + 10 * kSecond);
  EXPECT_EQ(dep.client(0).subops(), 2u);
  EXPECT_EQ(done, 1);
}

// --- Keyed workload + determinism -------------------------------------------

TEST(ShardKeyedWorkloadTest, WorkloadCommitsAndLinearizes) {
  ShardedDeployment dep(SmallParams(2, 21));
  KeyedWorkloadOptions opts;
  opts.seed = 21;
  opts.clients = 4;
  opts.ops_per_client = 8;
  KeyedWorkloadResult r = RunKeyedWorkload(dep, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.committed, 0);
  EXPECT_EQ(r.timeouts, 0);
  EXPECT_TRUE(r.verdict.linearizable) << r.verdict.explanation;
  ASSERT_EQ(r.per_shard_committed.size(), 2u);
  uint64_t sum = 0;
  for (uint64_t c : r.per_shard_committed) {
    EXPECT_GT(c, 0u);  // both shards saw traffic
    sum += c;
  }
  EXPECT_EQ(sum, static_cast<uint64_t>(r.committed));
  EXPECT_GT(r.SimOpsPerSec(), 0.0);
  EXPECT_GE(r.ShardImbalance(), 1.0);
  // Per-client latency capture (what bench_geo folds into per-region
  // percentiles): one bucket per client, one sample per committed sub-op,
  // and the summary reflects real nonzero commit latencies.
  ASSERT_EQ(r.per_client_latencies.size(), 4u);
  uint64_t samples = 0;
  for (const auto& bucket : r.per_client_latencies) {
    for (SimTime latency : bucket) {
      EXPECT_GT(latency, 0);
    }
    samples += bucket.size();
  }
  EXPECT_EQ(samples, static_cast<uint64_t>(r.committed));
  LatencySummary overall = r.OverallLatency();
  EXPECT_EQ(overall.samples, samples);
  EXPECT_GT(overall.p50, 0);
  EXPECT_LE(overall.p50, overall.p99);
  EXPECT_LE(overall.p99, overall.p999);
}

TEST(ShardKeyedWorkloadTest, CompletionDisarmsTimeoutAndStaleTimersAreInert) {
  // Regression: an op's timeout timer used to stay armed after the op
  // completed, so once the run's virtual duration outlived op_timeout the
  // timer fired on a healthy worker — abandoning its live sub-ops and
  // double-advancing its plan (over-counting drained workers) — and timers
  // left queued in the shard sims dereferenced the stack-dead driver when
  // the caller kept stepping the same deployment (use-after-free under the
  // chaos harness).
  ShardedDeployment dep(SmallParams(2, 17));
  KeyedWorkloadOptions opts;
  opts.seed = 17;
  opts.clients = 3;
  opts.ops_per_client = 6;
  // Fast ops + long think time: the run extends far past op_timeout, so
  // every early op's timer fires mid-run, after its op completed.
  opts.op_gap = 400 * kMillisecond;
  opts.op_timeout = 1 * kSecond;
  KeyedWorkloadResult r = RunKeyedWorkload(dep, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.timeouts, 0);
  EXPECT_EQ(r.invoked, r.committed + r.rejected);
  EXPECT_TRUE(r.verdict.linearizable) << r.verdict.explanation;
  // Think-time and trampoline timers may still sit in the shard sims; they
  // must be inert now that the workload (and its driver) has returned.
  dep.RunUntil(dep.Now() + 60 * kSecond);
}

TEST(ShardKeyedWorkloadTest, CompletedOpsLeaveNoTimeoutInTheEventHeap) {
  // Regression: every logical op armed a 30 s whole-op timeout that its
  // completion only made inert, so a saturated run kept one dead timer per
  // op in the event heap (peak depth ~43k here) until the run's end. OpDone
  // now cancels it, and cancelled entries are compacted away.
  ShardedDeployment::Params params;
  params.shards = 1;
  params.clients = 32;
  params.seed = 1;
  ShardedDeployment dep(params);
  KeyedWorkloadOptions opts;
  opts.seed = 1;
  opts.clients = 32;
  opts.ops_per_client = 1000;
  opts.check_linearizability = false;  // exhaustive checker; digest suffices
  KeyedWorkloadResult r = RunKeyedWorkload(dep, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.timeouts, 0);
  Simulation& sim = dep.shard(0).sim();
  EXPECT_LT(sim.peak_queue_depth(), 1000u);
  // What the run leaves queued is the replicas' own timers, not per-op or
  // per-client leftovers: one stale timeout per worker would already reach
  // this bound, and uncancelled timeouts left one per op (~32k).
  EXPECT_LT(sim.queued_events(), static_cast<size_t>(opts.clients));
}

TEST(ShardKeyedWorkloadTest, SameSeedSameDigestsDifferentSeedDiffers) {
  auto run = [](uint64_t seed) {
    ShardedDeployment dep(SmallParams(2, seed));
    dep.EnableTrace();
    KeyedWorkloadOptions opts;
    opts.seed = seed;
    opts.clients = 3;
    opts.ops_per_client = 6;
    KeyedWorkloadResult r = RunKeyedWorkload(dep, opts);
    EXPECT_TRUE(r.completed);
    std::vector<Digest> traces;
    for (int s = 0; s < dep.shards(); ++s) {
      traces.push_back(dep.shard(s).sim().trace().digest());
    }
    return std::make_pair(r.history_digest, traces);
  };
  auto [h1, t1] = run(33);
  auto [h2, t2] = run(33);
  auto [h3, t3] = run(34);
  EXPECT_EQ(h1.Hex(32), h2.Hex(32));
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t s = 0; s < t1.size(); ++s) {
    EXPECT_EQ(t1[s].Hex(32), t2[s].Hex(32)) << "shard " << s;
  }
  EXPECT_NE(h1.Hex(32), h3.Hex(32));
}

TEST(ShardChaosTest, ScenarioNamesRoundTrip) {
  EXPECT_STREQ(
      ShardChaosScenarioName(ShardChaosOptions::Scenario::kPrimaryCrash),
      "primary_crash");
  EXPECT_STREQ(
      ShardChaosScenarioName(ShardChaosOptions::Scenario::kShardPartition),
      "shard_partition");
  EXPECT_STREQ(ShardChaosScenarioName(ShardChaosOptions::Scenario::kMixed),
               "mixed");
}

TEST(ShardChaosTest, PrimaryCrashStaysSafeAndLive) {
  ShardChaosOptions opts;
  opts.seed = 3;
  opts.shards = 2;
  opts.scenario = ShardChaosOptions::Scenario::kPrimaryCrash;
  opts.clients = 3;
  opts.ops_per_client = 6;
  ShardChaosResult r = RunShardChaos(opts);
  EXPECT_FALSE(r.Failed()) << r.workload.verdict.explanation << " "
                           << r.first_invariant_violation;
  EXPECT_TRUE(r.liveness.judged);
  EXPECT_TRUE(r.liveness.live) << r.liveness.explanation;
  EXPECT_EQ(r.probes_ok, opts.clients);
  EXPECT_EQ(r.schedule.size(), 1u);
  EXPECT_LT(r.victim_shard, opts.shards);

  // Same seed, same verdicts and witnesses.
  ShardChaosResult r2 = RunShardChaos(opts);
  EXPECT_EQ(r.workload.history_digest.Hex(32),
            r2.workload.history_digest.Hex(32));
  ASSERT_EQ(r.shard_trace_digests.size(), r2.shard_trace_digests.size());
  for (size_t s = 0; s < r.shard_trace_digests.size(); ++s) {
    EXPECT_EQ(r.shard_trace_digests[s].Hex(32),
              r2.shard_trace_digests[s].Hex(32));
  }
}

}  // namespace
}  // namespace bftbase
