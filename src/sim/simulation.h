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
// Event kernel: events live in a pooled, move-only representation
// (src/sim/event_queue.h) — deliveries are tagged structs, not capturing
// lambdas; timers use small-buffer-optimized callables — scheduled by a
// 4-ary heap of 24-byte PODs, with O(1) generation-checked timer
// cancellation (tombstones, compacted once they are half the heap), dense
// NodeId-indexed node/busy tables, and pre-resolved metric handles on the
// network path. Event order is exactly (time, seq);
// same-seed EventTrace digests are pinned in tests/kernel_witness_test.cc
// (DESIGN.md §10 has the determinism argument).
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <limits>
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
    return id >= 0 && static_cast<size_t>(id) < nodes_dense_.size()
               ? nodes_dense_[id]
               : nullptr;
  }

  // Schedules `fn` to run `delay` from now on behalf of node `owner`
  // (owner's CPU serialization applies; pass kNoOwner for free-running
  // events such as harness callbacks). The returned id is never 0, so 0 is
  // safe as a caller-side "no timer" sentinel.
  static constexpr NodeId kNoOwner = -1;
  template <typename F>
  TimerId After(NodeId owner, SimTime delay, F&& fn) {
    assert(delay >= 0);
    return Schedule(owner, now_ + delay, InlineFn(std::forward<F>(fn)));
  }
  // Cancels a pending timer; O(1) no-op if it already fired, was already
  // cancelled, or never existed (stale ids are detected by a per-slot
  // generation check, so repeated cancels never grow any bookkeeping). The
  // cancelled entry is a tombstone until it reaches the queue's head or
  // tombstones outnumber live entries, when they are all compacted away
  // (amortised O(1) per cancel; a Cancel never leaves more tombstones than
  // live events queued).
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
  // High-water mark of the scheduler queue.
  uint64_t peak_queue_depth() const { return peak_queue_depth_; }
  // Events currently queued.
  size_t queued_events() const { return heap_.Size(); }
  // Pool capacity / in-flight events: every queued event occupies a slot.
  // The Cancel-leak regression test asserts slots stay bounded under churn.
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
  // TimerIds pack (pool slot, slot generation), so Cancel is O(1) and
  // bounded.
  static TimerId PackTimerId(uint32_t slot, uint32_t generation) {
    return (static_cast<TimerId>(slot) << 32) | generation;
  }

  TimerId Schedule(NodeId owner, SimTime when, InlineFn fn);
  void RunDelivery(NodeId to, NodeId from, int tag,
                   std::shared_ptr<const Bytes> payload);

  // Drops every cancelled entry from the heap and releases its pool slot.
  void CompactCancelled();
  // Pops cancelled timers off the head of the queue so that the head always
  // refers to an event that will actually run; without this, deadline checks
  // in RunUntil/RunUntilTrue would look at a cancelled event's time and
  // Step() could silently run an event far beyond the caller's deadline.
  void PruneCancelledTop();
  // True when no event will run at or before `deadline`.
  bool IdleThrough(SimTime deadline) {
    PruneCancelledTop();
    return heap_.Empty() || heap_.Top().time > deadline;
  }

  SimTime BusyUntil(NodeId owner) const {
    return static_cast<size_t>(owner) < busy_dense_.size() ? busy_dense_[owner]
                                                           : 0;
  }
  void SetBusyUntil(NodeId owner, SimTime until);
  void NotePushed(size_t depth) {
    if (depth > peak_queue_depth_) {
      peak_queue_depth_ = depth;
    }
  }

  CostModel cost_;
  Rng rng_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t peak_queue_depth_ = 0;
  size_t cancelled_queued_ = 0;  // tombstones still in heap_
  SimTime handler_cpu_ = 0;  // CPU charged by the currently running handler

  EventPool pool_;
  EventHeap heap_;
  std::vector<SimNode*> nodes_dense_;
  std::vector<SimTime> busy_dense_;

  std::function<void()> step_observer_;
  MetricsRegistry metrics_;
  EventTrace trace_;
  Network* network_;
  std::shared_ptr<const Bytes> current_delivery_;
  DigestCache digests_;
};

}  // namespace bftbase

#endif  // SRC_SIM_SIMULATION_H_
