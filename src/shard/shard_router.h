// Sharded multi-group deployment and the key→shard router.
//
// One BASE replica group cannot serve millions of users: its primary is a
// serial bottleneck no matter how fast the crypto and event kernels get.
// This layer multiplies raw throughput by running S *independent* BASE
// groups — each a complete, untouched ServiceGroup with its own replicas,
// checkpoints, WAL, state transfer and per-shard InvariantAuditor — inside
// one logical simulation, and routing keyed KV operations to the group that
// owns each key.
//
// Routing is a pure function: shard = SplitMix64(key) mod S. No directory
// service, no rebalancing state — the mapping is trivially stable across
// crashes, restarts and process runs (tests/shard_test.cc pins it).
//
// Global virtual time. Each ServiceGroup owns its own Simulation, so the
// deployment merges the S event queues onto ONE timeline: Step() always
// advances the shard with the smallest next-event time (ties break toward
// the lower shard index), so the interleaving is deterministic and the
// merged sequence of event times is monotone. Cross-shard scheduling goes
// through Schedule(shard, delay, fn), which converts the global target time
// into the target shard's local clock; a shard that was idle has a lagging
// local clock, and the conversion makes the trampolined event fire at
// exactly the intended global instant. Because shards never exchange
// messages, each shard's event stream — and therefore its EventTrace
// digest — is a pure function of its own derived seed, which is what makes
// the per-shard digests byte-identical across reruns.
//
// Linearization argument for cross-shard reads (DESIGN.md §15): a multi-key
// read fans out client-side into one single-key read per owning shard. Each
// sub-read linearizes independently inside its shard's group at its own
// linearization point; the router records each sub-read as its own history
// operation with global-time invocation/response bounds. The combined keyed
// history is then checked end-to-end by the Wing & Gong checker — locality
// makes the check sound: keys are disjoint registers, each confined to one
// shard, so the global history is linearizable iff every per-key subhistory
// is. The router never claims multi-key atomicity (a multiget is a set of
// single-key reads, not a snapshot).
#ifndef SRC_SHARD_SHARD_ROUTER_H_
#define SRC_SHARD_SHARD_ROUTER_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"

namespace bftbase {

class RouterClient;

class ShardedDeployment {
 public:
  struct Params {
    int shards = 2;
    // Router-level client slots; every slot has a bft::Client on every
    // shard (a logical client talks to whichever shard owns its next key).
    int clients = 4;
    uint64_t seed = 1;
    int f = 1;
    SeqNum checkpoint_interval = 128;
    SeqNum log_window = 256;
    CostModel cost;
    // Crash faults restart shards' replicas from disk (WAL + checkpoint
    // pages), exactly as in the single-group chaos harness.
    bool durable_storage = false;
    // Key universe [0, keys). The owning shard stores key k in KvAdapter
    // slot k, so distinct keys never alias a slot (register semantics for
    // the linearizability checker); only ~keys/S slots are populated per
    // shard.
    uint32_t keys = 4096;
    SimTime kv_execute_cost_us = 20;
  };

  explicit ShardedDeployment(Params params);
  ~ShardedDeployment();

  ShardedDeployment(const ShardedDeployment&) = delete;
  ShardedDeployment& operator=(const ShardedDeployment&) = delete;

  int shards() const { return static_cast<int>(groups_.size()); }
  ServiceGroup& shard(int s) { return *groups_[s]; }
  const Params& params() const { return params_; }
  uint32_t keys() const { return params_.keys; }

  // Router client for slot `c` (lazily built; c in [0, params.clients)).
  RouterClient& client(int c);

  // --- Routing (pure functions; stable across restarts) --------------------
  static uint64_t KeyHash(uint64_t key);
  static int ShardOf(uint64_t key, int shards);
  int ShardOfKey(uint64_t key) const { return ShardOf(key, shards()); }

  // --- Merged global timeline ----------------------------------------------
  SimTime Now() const { return global_now_; }
  // Advances the shard with the earliest pending event (deterministic
  // tie-break: lowest shard index). False when every shard is idle.
  bool Step();
  // Runs events with global time <= deadline, then advances Now() to it.
  void RunUntil(SimTime deadline);
  // Runs until pred() or the merged queue passes `deadline` (absolute
  // global time). Returns pred().
  bool RunUntilTrue(const std::function<bool()>& pred, SimTime deadline);
  // Schedules `fn` on shard `s` to fire `delay` after the current global
  // time, translating into the shard's local clock (an idle shard's clock
  // lags global time; the trampoline re-synchronizes it on arrival).
  // Returns the shard-local timer id, for Cancel.
  TimerId Schedule(int s, SimTime delay, InlineFn fn);
  // Cancels a timer that Schedule(s, ...) returned; a no-op once it fired.
  void Cancel(int s, TimerId id) { groups_[s]->sim().Cancel(id); }

  // --- Observability (fans out to every shard) ------------------------------
  void EnableTrace();
  void EnableAudit();
  uint64_t TotalEventsProcessed() const;
  uint64_t InvariantViolations() const;
  std::string FirstInvariantViolation() const;

 private:
  Params params_;
  std::vector<std::unique_ptr<ServiceGroup>> groups_;
  std::vector<std::unique_ptr<RouterClient>> clients_;
  SimTime global_now_ = 0;
};

// Fans keyed operations out to the per-shard bft::Clients of one client
// slot. One outstanding protocol operation per (slot, shard) — PBFT client
// semantics — so a multiget touching S' distinct shards runs S' sub-reads
// concurrently, and keys colliding on one shard are chained FIFO.
class RouterClient {
 public:
  RouterClient(ShardedDeployment* dep, int slot);

  // One completed (or rejected) sub-operation. Times are global virtual
  // time: invoke when the router accepted the op, response when the owning
  // shard's client callback fired.
  struct Completion {
    uint64_t key = 0;
    int shard = 0;
    SimTime invoke_us = 0;
    SimTime response_us = 0;
    Status status = Status::Ok();
    Bytes result;
    // True when the router dropped the sub-op via AbandonOn before a
    // protocol result arrived; status is kUnavailable. The operation's
    // effect is unknown (an already-sent write may still commit), so
    // history recorders must leave the slot pending rather than mark it
    // rejected.
    bool abandoned = false;
  };
  using OpCallback = std::function<void(const Completion&)>;

  // Single-key operations. The callback fires exactly once: with a
  // protocol result, or with an abandoned Completion if AbandonOn drops
  // the sub-op first.
  void Get(uint64_t key, OpCallback cb);
  void Set(uint64_t key, Bytes value, OpCallback cb);
  // Cross-shard multi-key read: client-side fan-out, one sub-read per key.
  // `per_key` fires once per sub-read (shard completion order; abandoned
  // sub-reads complete with abandoned=true); `done` fires once after the
  // last sub-read completes or is abandoned.
  void MultiGet(const std::vector<uint64_t>& keys, OpCallback per_key,
                std::function<void()> done);

  // Abandons every sub-op this slot has queued or in flight on `shard`
  // (the in-flight protocol op, if any, is abandoned on the shard's
  // bft client; sub-ops chained behind it are dropped before they issue).
  // Each dropped sub-op's callback fires exactly once, synchronously, with
  // an abandoned Completion, so fan-out countdowns (multiget `done`) still
  // resolve. Harness timeout handling, mirroring bft::Client::Abandon.
  void AbandonOn(int shard);

  int slot() const { return slot_; }
  // --- Router telemetry -----------------------------------------------------
  uint64_t ops_routed() const { return ops_routed_; }      // logical ops
  uint64_t subops() const { return subops_; }              // per-shard invokes
  uint64_t multigets() const { return multigets_; }
  const std::vector<uint64_t>& per_shard_subops() const {
    return per_shard_subops_;
  }

 private:
  struct SubOp {
    uint64_t ticket = 0;
    uint64_t key = 0;
    Bytes op;          // encoded KvAdapter operation
    SimTime invoke_us = 0;
    OpCallback cb;
  };

  void Enqueue(int shard, SubOp sub);
  void IssueHead(int shard);

  ShardedDeployment* dep_;
  int slot_;
  uint64_t next_ticket_ = 1;
  // Per-shard FIFO; front() is the in-flight (or about-to-fire) sub-op.
  std::vector<std::deque<SubOp>> queues_;
  // Per-shard state: 0 idle, 1 trampoline scheduled, 2 invoked. Abandoned
  // sub-ops are dropped from the queue and complete with abandoned=true;
  // their stale trampolines/protocol completions self-discard on a
  // head-ticket mismatch.
  std::vector<int> state_;

  uint64_t ops_routed_ = 0;
  uint64_t subops_ = 0;
  uint64_t multigets_ = 0;
  std::vector<uint64_t> per_shard_subops_;
};

}  // namespace bftbase

#endif  // SRC_SHARD_SHARD_ROUTER_H_
