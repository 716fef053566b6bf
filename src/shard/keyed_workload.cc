#include "src/shard/keyed_workload.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/xdr.h"

namespace bftbase {

namespace {

constexpr uint64_t kPlanSalt = 0x6b76706c616e3030ULL;  // "kvplan00"
constexpr uint64_t kKeySalt = 0x6b766b6579733030ULL;   // "kvkeys00"

enum class OpKind { kRead, kUpdate, kRmw, kMultiGet };

struct PlannedOp {
  OpKind kind = OpKind::kRead;
  std::vector<uint64_t> keys;  // 1 key, or multiget_span for kMultiGet
  Bytes value;                 // kUpdate/kRmw: unique write value
};

Bytes UniqueValue(int client, int seq) {
  XdrWriter w;
  w.PutUint32(0x6b657976u);  // "keyv": disjoint from probe values
  w.PutUint32(static_cast<uint32_t>(client));
  w.PutUint32(static_cast<uint32_t>(seq));
  return w.Take();
}

// Deterministic per-client plan: mix rolls and key draws come from streams
// derived only from (options.seed, client), so one client's plan never
// perturbs another's.
std::vector<PlannedOp> PlanClientOps(const KeyedWorkloadOptions& options,
                                     uint64_t keys, int client) {
  Rng mix_rng(options.seed ^ kPlanSalt ^
              (static_cast<uint64_t>(client) * 0x9e3779b97f4a7c15ULL));
  KeyDistribution dist(options.distribution, keys, options.zipf_theta,
                       options.seed ^ kKeySalt ^
                           (static_cast<uint64_t>(client) *
                            0xbf58476d1ce4e5b9ULL));
  std::vector<PlannedOp> plan;
  plan.reserve(options.ops_per_client);
  for (int i = 0; i < options.ops_per_client; ++i) {
    PlannedOp op;
    const int roll = static_cast<int>(mix_rng.NextBelow(100));
    if (roll < options.update_pct) {
      op.kind = OpKind::kUpdate;
    } else if (roll < options.update_pct + options.rmw_pct) {
      op.kind = OpKind::kRmw;
    } else if (roll <
               options.update_pct + options.rmw_pct + options.multiget_pct) {
      op.kind = OpKind::kMultiGet;
    } else {
      op.kind = OpKind::kRead;
    }
    if (op.kind == OpKind::kMultiGet) {
      // Distinct keys (bounded deterministic retries): a multiget is a
      // cross-shard fan-out, and duplicate keys would just chain on one
      // shard.
      const int span =
          std::max(1, std::min<int>(options.multiget_span,
                                    static_cast<int>(keys)));
      while (static_cast<int>(op.keys.size()) < span) {
        const uint64_t key = dist.Next();
        if (std::find(op.keys.begin(), op.keys.end(), key) == op.keys.end()) {
          op.keys.push_back(key);
        }
      }
    } else {
      op.keys.push_back(dist.Next());
      if (op.kind == OpKind::kUpdate || op.kind == OpKind::kRmw) {
        op.value = UniqueValue(client, i);
      }
    }
    plan.push_back(std::move(op));
  }
  return plan;
}

// Drives the closed-loop clients; lives on the runner's stack.
struct KeyedDriver {
  ShardedDeployment& dep;
  const KeyedWorkloadOptions& options;
  SimTime start = 0;
  // The driver dies with RunKeyedWorkload's stack frame, but closures that
  // capture it (timeout timers, think-time timers, router completions) live
  // on in the shard sims — and the caller may keep stepping the same
  // deployment afterwards (the chaos harness does). Every such closure
  // checks this heap flag before touching the driver; RunKeyedWorkload
  // clears it on exit, turning whatever is still queued into a no-op.
  std::shared_ptr<bool> driver_alive = std::make_shared<bool>(true);

  struct Worker {
    std::vector<PlannedOp> plan;
    size_t next = 0;
    bool done = false;
    // Liveness of the current logical op: reset (released) on completion or
    // timeout; the timeout timer and chained phases check it first.
    std::shared_ptr<bool> op_alive;
    // The current op's whole-op timeout timer and the shard it is queued
    // on; OpDone cancels it so it leaves the event heap.
    TimerId timeout = 0;
    int timeout_shard = 0;
    std::vector<int> open_shards;  // shards with an in-flight sub-op
    int open_subs = 0;
  };
  std::vector<Worker> workers = {};
  std::vector<HistoryOp> history = {};
  int done_count = 0;

  SimTime RelNow() const { return dep.Now() - start; }

  int Record(OpKind kind, int w, uint64_t key, const Bytes* value) {
    HistoryOp h;
    h.kind = (kind == OpKind::kUpdate || kind == OpKind::kRmw)
                 ? HistoryOp::Kind::kWrite
                 : HistoryOp::Kind::kRead;
    h.client = w;
    h.object = static_cast<int>(key);
    if (value != nullptr) {
      h.value = *value;
    }
    h.pending = true;
    h.invoke_us = RelNow();
    history.push_back(std::move(h));
    return static_cast<int>(history.size()) - 1;
  }

  void Finish(int slot, const RouterClient::Completion& c, bool is_read) {
    if (c.abandoned) {
      return;  // effect unknown: the slot stays pending, never "rejected"
    }
    HistoryOp& h = history[slot];
    h.pending = false;
    h.response_us = RelNow();
    if (!c.status.ok()) {
      h.rejected = true;
      return;
    }
    if (is_read) {
      h.ok = true;
      h.value = c.result;
    } else {
      h.ok = true;  // replicas agreed; SET's agreed result is "OK"
    }
  }

  void NoteShard(Worker& worker, int shard) {
    if (std::find(worker.open_shards.begin(), worker.open_shards.end(),
                  shard) == worker.open_shards.end()) {
      worker.open_shards.push_back(shard);
    }
  }

  void OpDone(int w) {
    Worker& worker = workers[w];
    // Disarm the op's timeout timer: cancel it, and flip the flag it checks
    // before acting, or the timer later fires on a healthy worker
    // (abandoning live sub-ops and double-advancing the plan).
    if (worker.op_alive != nullptr) {
      *worker.op_alive = false;
    }
    worker.op_alive = nullptr;
    dep.Cancel(worker.timeout_shard, worker.timeout);  // no-op once fired
    worker.open_shards.clear();
    worker.open_subs = 0;
    ScheduleNext(w);
  }

  void ScheduleNext(int w) {
    Worker& worker = workers[w];
    if (worker.done) {
      return;  // never double-count a drained worker
    }
    if (worker.next >= worker.plan.size()) {
      worker.done = true;
      ++done_count;
      return;
    }
    // Host the think-time timer on the shard that owns the next op's first
    // key, so harness timers stay where the work is.
    const int shard = dep.ShardOfKey(worker.plan[worker.next].keys[0]);
    dep.Schedule(shard, options.op_gap, [this, w, guard = driver_alive] {
      if (!*guard) {
        return;
      }
      IssueNext(w);
    });
  }

  void IssueNext(int w) {
    Worker& worker = workers[w];
    if (worker.next >= worker.plan.size()) {
      ScheduleNext(w);  // empty plan: just mark the worker done
      return;
    }
    const PlannedOp& op = worker.plan[worker.next++];
    auto alive = std::make_shared<bool>(true);
    auto guard = driver_alive;
    worker.op_alive = alive;

    switch (op.kind) {
      case OpKind::kRead: {
        const uint64_t key = op.keys[0];
        const int slot = Record(op.kind, w, key, nullptr);
        worker.open_subs = 1;
        NoteShard(worker, dep.ShardOfKey(key));
        dep.client(w).Get(key, [this, w, slot, alive,
                                guard](const RouterClient::Completion& c) {
          if (!*guard || !*alive) {
            return;
          }
          Finish(slot, c, /*is_read=*/true);
          OpDone(w);
        });
        break;
      }
      case OpKind::kUpdate: {
        const uint64_t key = op.keys[0];
        const int slot = Record(op.kind, w, key, &op.value);
        worker.open_subs = 1;
        NoteShard(worker, dep.ShardOfKey(key));
        dep.client(w).Set(key, op.value,
                          [this, w, slot, alive,
                           guard](const RouterClient::Completion& c) {
                            if (!*guard || !*alive) {
                              return;
                            }
                            Finish(slot, c, /*is_read=*/false);
                            OpDone(w);
                          });
        break;
      }
      case OpKind::kRmw: {
        // YCSB read-modify-write: a read then a write, each its own
        // linearization point (the pair is not atomic).
        const uint64_t key = op.keys[0];
        const int read_slot = Record(OpKind::kRead, w, key, nullptr);
        worker.open_subs = 1;
        NoteShard(worker, dep.ShardOfKey(key));
        dep.client(w).Get(
            key, [this, w, key, read_slot, value = op.value, alive,
                  guard](const RouterClient::Completion& c) {
              if (!*guard || !*alive) {
                return;
              }
              Finish(read_slot, c, /*is_read=*/true);
              if (!c.status.ok()) {
                OpDone(w);  // read failed: skip the write phase
                return;
              }
              const int write_slot = Record(OpKind::kUpdate, w, key, &value);
              dep.client(w).Set(
                  key, value,
                  [this, w, write_slot, alive,
                   guard](const RouterClient::Completion& wc) {
                    if (!*guard || !*alive) {
                      return;
                    }
                    Finish(write_slot, wc, /*is_read=*/false);
                    OpDone(w);
                  });
            });
        break;
      }
      case OpKind::kMultiGet: {
        // Cross-shard fan-out: one history record per key, each with its
        // own per-shard linearization point.
        std::vector<int> slots;
        slots.reserve(op.keys.size());
        for (uint64_t key : op.keys) {
          slots.push_back(Record(OpKind::kRead, w, key, nullptr));
          NoteShard(worker, dep.ShardOfKey(key));
        }
        worker.open_subs = static_cast<int>(op.keys.size());
        auto keys = op.keys;
        dep.client(w).MultiGet(
            keys,
            [this, keys, slots, alive,
             guard](const RouterClient::Completion& c) {
              if (!*guard || !*alive || c.abandoned) {
                return;  // abandoned sub-reads stay pending: effect unknown
              }
              for (size_t i = 0; i < keys.size(); ++i) {
                if (keys[i] == c.key && history[slots[i]].pending) {
                  Finish(slots[i], c, /*is_read=*/true);
                  break;
                }
              }
            },
            [this, w, alive, guard] {
              if (!*guard || !*alive) {
                return;
              }
              OpDone(w);
            });
        break;
      }
    }

    // Whole-logical-op timeout: abandon whatever is still open and move on;
    // the untouched history slots stay pending (effect unknown). OpDone
    // cancels this timer on completion and flips `alive`; the flag still
    // covers a timer left queued when the run ends at its drain deadline.
    worker.timeout_shard =
        worker.open_shards.empty() ? 0 : worker.open_shards.front();
    worker.timeout = dep.Schedule(
        worker.timeout_shard, options.op_timeout, [this, w, alive, guard] {
          if (!*guard || !*alive) {
            return;
          }
          *alive = false;
          Worker& timed_out = workers[w];
          // AbandonOn drops every sub-op queued on the shard (a multiget may
          // chain two on one shard), firing their callbacks with abandoned
          // completions — which the `alive` flag above already neutralizes.
          for (int shard : timed_out.open_shards) {
            dep.client(w).AbandonOn(shard);
          }
          timed_out.open_shards.clear();
          timed_out.open_subs = 0;
          timed_out.op_alive = nullptr;
          ScheduleNext(w);
        });
  }
};

}  // namespace

Digest KeyedHistoryDigest(const std::vector<HistoryOp>& history) {
  XdrWriter w;
  w.PutUint32(static_cast<uint32_t>(history.size()));
  for (const HistoryOp& op : history) {
    w.PutUint32(static_cast<uint32_t>(op.kind));
    w.PutUint32(static_cast<uint32_t>(op.client));
    w.PutUint32(static_cast<uint32_t>(op.object));
    w.PutBool(op.ok);
    w.PutBool(op.rejected);
    w.PutBool(op.pending);
    w.PutUint64(static_cast<uint64_t>(op.invoke_us));
    w.PutUint64(op.pending ? 0 : static_cast<uint64_t>(op.response_us));
    w.PutOpaque(op.value);
  }
  return Digest::Of(w.Take());
}

KeyedWorkloadResult RunKeyedWorkload(ShardedDeployment& dep,
                                     const KeyedWorkloadOptions& options) {
  KeyedWorkloadResult result;
  result.per_shard_committed.assign(dep.shards(), 0);
  result.per_client_latencies.assign(options.clients, {});

  KeyedDriver driver{dep, options};
  driver.start = dep.Now();
  driver.workers.resize(options.clients);
  for (int w = 0; w < options.clients; ++w) {
    driver.workers[w].plan = PlanClientOps(options, dep.keys(), w);
    // Staggered starts: concurrent, not lockstep. The stagger is bounded
    // (~1 ms total, whatever the client count) so the ramp never dominates
    // the measured steady state.
    const SimTime stagger = 50 + (static_cast<SimTime>(w) * 131) % 1000;
    dep.Schedule(dep.ShardOfKey(driver.workers[w].plan.empty()
                                    ? 0
                                    : driver.workers[w].plan[0].keys[0]),
                 stagger, [&driver, w, guard = driver.driver_alive] {
                   if (!*guard) {
                     return;
                   }
                   driver.IssueNext(w);
                 });
  }
  result.completed =
      dep.RunUntilTrue([&] { return driver.done_count == options.clients; },
                       driver.start + options.drain_deadline);
  result.elapsed_us = dep.Now() - driver.start;
  // The driver dies with this frame. Neutralize every closure still queued
  // in the shard sims (stale timeout timers, in-flight completions of a run
  // that hit the drain deadline) before the caller keeps stepping the same
  // deployment, as the chaos harness does through its attack horizon.
  *driver.driver_alive = false;

  for (const HistoryOp& op : driver.history) {
    ++result.invoked;
    if (op.pending) {
      ++result.timeouts;
    } else if (op.ok) {
      ++result.committed;
      const int shard = dep.ShardOfKey(static_cast<uint64_t>(op.object));
      ++result.per_shard_committed[shard];
      if (op.client >= 0 &&
          op.client < static_cast<int>(result.per_client_latencies.size())) {
        result.per_client_latencies[op.client].push_back(op.response_us -
                                                         op.invoke_us);
      }
    } else {
      ++result.rejected;
    }
  }
  for (int w = 0; w < options.clients; ++w) {
    result.logical_ops += dep.client(w).ops_routed();
    result.multigets += dep.client(w).multigets();
  }
  result.cross_shard_reads = result.multigets * options.multiget_span;

  if (options.check_linearizability) {
    result.verdict = CheckLinearizable(driver.history);
  }
  result.history_digest = KeyedHistoryDigest(driver.history);
  result.history = std::move(driver.history);
  return result;
}

}  // namespace bftbase
