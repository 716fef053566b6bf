// Deterministic discrete-event simulation kernel.
//
// Replaces the paper's physical testbed. All replicas, clients and the
// network run inside one Simulation; virtual time advances only when events
// fire, so a run with a given seed is bit-for-bit reproducible — which is
// what makes the fault-injection experiments (E7) and the protocol tests
// meaningful.
//
// CPU accounting: each node is a serial processor. While a handler runs it
// may call ChargeCpu() to account for work (crypto, service execution); the
// node is then busy until the accumulated finish time, and later events for
// that node are delayed behind it. Messages sent from within a handler leave
// the node at its current finish time.
//
// Scale-out event kernel (default): events live in a pooled, move-only
// representation (src/sim/event_queue.h) — deliveries are tagged structs, not
// capturing lambdas; timers use small-buffer-optimized callables — scheduled
// by a 4-ary heap of 24-byte PODs, with O(1) generation-checked timer
// cancellation, dense NodeId-indexed node/busy tables, and pre-resolved
// metric handles on the network path. hotpath::SetScaleKernelEnabled(false)
// (sampled at construction) selects the legacy kernel instead: a
// std::priority_queue of std::function events copied on pop and requeue,
// std::map node tables and string-keyed metric updates — the pre-overhaul
// cost profile, kept so one binary can measure an honest before/after
// (bench_scale). Event order, RNG draws and EventTrace digests are
// byte-identical in both modes; see DESIGN.md §10 for the argument.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "src/crypto/digest_cache.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace bftbase {

using NodeId = int;
using TimerId = uint64_t;

// Anything that can receive messages from the network.
class SimNode {
 public:
  virtual ~SimNode() = default;
  // Delivery of one network message. `from` is the authenticated link-layer
  // source (the simulation does not let nodes spoof it; PBFT additionally
  // authenticates with MACs end-to-end).
  virtual void OnMessage(NodeId from, const Bytes& payload) = 0;
};

class Network;

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1, CostModel cost = CostModel());
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }
  const CostModel& cost() const { return cost_; }
  Rng& rng() { return rng_; }
  Network& network() { return *network_; }

  // Central counters/histograms for every layer (see metrics.h).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Deterministic event trace; disabled unless trace().Enable() is called.
  EventTrace& trace() { return trace_; }
  const EventTrace& trace() const { return trace_; }

  // Registers a node under `id` (id >= 0). The node must outlive the
  // simulation run.
  void AddNode(NodeId id, SimNode* node);
  // Unregisters `id` and clears its CPU-serialization state, so a node re-added
  // under the same id (crash/restart cycles) does not inherit a stale busy-
  // until horizon.
  void RemoveNode(NodeId id);
  SimNode* GetNode(NodeId id) const {
    if (scale_kernel_) {
      return id >= 0 && static_cast<size_t>(id) < nodes_dense_.size()
                 ? nodes_dense_[id]
                 : nullptr;
    }
    auto it = nodes_map_.find(id);
    return it == nodes_map_.end() ? nullptr : it->second;
  }

  // Schedules `fn` to run `delay` from now on behalf of node `owner`
  // (owner's CPU serialization applies; pass kNoOwner for free-running
  // events such as harness callbacks). The returned id is never 0, so 0 is
  // safe as a caller-side "no timer" sentinel.
  static constexpr NodeId kNoOwner = -1;
  template <typename F>
  TimerId After(NodeId owner, SimTime delay, F&& fn) {
    assert(delay >= 0);
    if (scale_kernel_) {
      return AfterFast(owner, now_ + delay, InlineFn(std::forward<F>(fn)));
    }
    return AfterLegacy(owner, now_ + delay,
                       std::function<void()>(std::forward<F>(fn)));
  }
  // Cancels a pending timer; O(1) no-op if it already fired, was already
  // cancelled, or never existed (stale ids are detected by a per-slot
  // generation check, so repeated cancels never grow any bookkeeping).
  void Cancel(TimerId id);

  // Accounts CPU work for the node whose handler is currently running.
  void ChargeCpu(SimTime cost);
  // CPU time consumed so far by the current handler (including charge).
  SimTime CurrentHandlerFinishTime() const { return now_ + handler_cpu_; }

  // Runs a single event. Returns false when the queue is empty.
  bool Step();
  // Runs events until the queue is empty.
  void RunUntilIdle();
  // Runs events with time <= deadline (absolute virtual time).
  void RunUntil(SimTime deadline);
  // Runs until `pred()` is true or `deadline` passes. Returns pred().
  bool RunUntilTrue(const std::function<bool()>& pred, SimTime deadline);

  // Total events processed (telemetry for tests/benches).
  uint64_t events_processed() const { return events_processed_; }

  // Virtual time of the next runnable event, or kNoPendingEvent when the
  // queue is empty. Cancelled timers at the head are pruned first so the
  // answer always refers to an event that will actually run — the shard
  // coordinator (src/shard) merges several simulations onto one global
  // timeline by repeatedly stepping whichever has the smallest value here.
  static constexpr SimTime kNoPendingEvent =
      std::numeric_limits<SimTime>::max();
  SimTime NextEventTime();

  // --- Kernel telemetry (tests and bench_scale) ----------------------------
  // Which kernel this simulation runs (sampled from
  // hotpath::scale_kernel_enabled() at construction).
  bool scale_kernel() const { return scale_kernel_; }
  // High-water mark of the scheduler queue.
  uint64_t peak_queue_depth() const { return peak_queue_depth_; }
  // Events currently queued.
  size_t queued_events() const {
    return scale_kernel_ ? heap_.Size() : legacy_queue_.size();
  }
  // Pool capacity / in-flight events. Under the legacy kernel only
  // cancellable timers occupy slots (deliveries live in the queue itself);
  // under the scale kernel every queued event does. The Cancel-leak
  // regression test asserts slots stay bounded under churn in both modes.
  size_t event_pool_slots() const { return pool_.slots(); }
  size_t event_pool_live() const { return pool_.live(); }

  // Invoked after every processed event; the invariant auditor hooks in here
  // so tests can assert protocol invariants after each simulation step.
  void SetStepObserver(std::function<void()> observer) {
    step_observer_ = std::move(observer);
  }

  // Internal: used by Network to deliver messages with node serialization.
  // `tag` labels the payload (message type) for trace records. The payload is
  // an immutable shared buffer: a multicast schedules n deliveries against
  // one buffer instead of n copies.
  void ScheduleDelivery(SimTime when, NodeId to, NodeId from,
                        std::shared_ptr<const Bytes> payload, int tag = -1);

  // The shared buffer of the message delivery currently being handled, or
  // null outside OnMessage. Tests use it to observe zero-copy aliasing.
  const std::shared_ptr<const Bytes>& current_delivery() const {
    return current_delivery_;
  }

  // SHA-256 digests of byte strings this simulation has already hashed,
  // shared by every node in it (see src/crypto/digest_cache.h).
  DigestCache& digests() { return digests_; }

 private:
  // Legacy kernel: the pre-overhaul event representation, kept verbatim so
  // bench_scale can compare against it in one binary. Every event is a
  // copyable std::function (deliveries are capturing lambdas); Step() copies
  // the top, and deferral behind a busy node copies the whole event again.
  struct LegacyEvent {
    SimTime time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    NodeId owner;
    std::function<void()> fn;
    TimerId timer_id;  // 0 for non-cancellable events
  };
  struct LegacyEventOrder {
    bool operator()(const LegacyEvent& a, const LegacyEvent& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // TimerIds pack (pool slot, slot generation); both kernels allocate a pool
  // slot per cancellable timer so Cancel is uniform and bounded.
  static TimerId PackTimerId(uint32_t slot, uint32_t generation) {
    return (static_cast<TimerId>(slot) << 32) | generation;
  }

  TimerId AfterFast(NodeId owner, SimTime when, InlineFn fn);
  TimerId AfterLegacy(NodeId owner, SimTime when, std::function<void()> fn);

  bool StepFast();
  bool StepLegacy();
  void RunHandlerLegacy(const LegacyEvent& ev);
  // Runs one delivery exactly as the legacy delivery lambda did.
  void RunDelivery(NodeId to, NodeId from, int tag,
                   std::shared_ptr<const Bytes> payload);

  // Pops cancelled timers off the head of the queue so that the head always
  // refers to an event that will actually run; without this, deadline checks
  // in RunUntil/RunUntilTrue would look at a cancelled event's time and
  // Step() could silently run an event far beyond the caller's deadline.
  void PruneCancelledTop();
  bool QueueEmpty() const {
    return scale_kernel_ ? heap_.Empty() : legacy_queue_.empty();
  }
  SimTime QueueTopTime() const {
    return scale_kernel_ ? heap_.Top().time : legacy_queue_.top().time;
  }

  SimTime BusyUntil(NodeId owner) const {
    if (scale_kernel_) {
      return static_cast<size_t>(owner) < busy_dense_.size()
                 ? busy_dense_[owner]
                 : 0;
    }
    auto it = busy_map_.find(owner);
    return it == busy_map_.end() ? 0 : it->second;
  }
  void SetBusyUntil(NodeId owner, SimTime until);
  void NotePushed(size_t depth) {
    if (depth > peak_queue_depth_) {
      peak_queue_depth_ = depth;
    }
  }

  const bool scale_kernel_;
  CostModel cost_;
  Rng rng_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t peak_queue_depth_ = 0;
  SimTime handler_cpu_ = 0;  // CPU charged by the currently running handler

  // Scale kernel state.
  EventPool pool_;
  EventHeap heap_;
  std::vector<SimNode*> nodes_dense_;
  std::vector<SimTime> busy_dense_;

  // Legacy kernel state.
  std::priority_queue<LegacyEvent, std::vector<LegacyEvent>, LegacyEventOrder>
      legacy_queue_;
  std::map<NodeId, SimNode*> nodes_map_;
  std::map<NodeId, SimTime> busy_map_;

  std::function<void()> step_observer_;
  MetricsRegistry metrics_;
  EventTrace trace_;
  Network* network_;
  std::shared_ptr<const Bytes> current_delivery_;
  DigestCache digests_;
};

}  // namespace bftbase

#endif  // SRC_SIM_SIMULATION_H_
