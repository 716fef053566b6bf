#include "src/shard/shard_router.h"

#include <cassert>
#include <utility>

namespace bftbase {

namespace {

// Per-shard seed derivation: distinct, deterministic streams so shard i's
// whole event sequence (and trace digest) is a pure function of (seed, i).
uint64_t ShardSeed(uint64_t seed, int shard) {
  uint64_t z = seed ^ (0x73686172645f3030ULL + // "shard_00"
                       static_cast<uint64_t>(shard) * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ShardedDeployment::ShardedDeployment(Params params) : params_(params) {
  assert(params_.shards >= 1);
  assert(params_.keys >= 1);
  groups_.reserve(params_.shards);
  for (int s = 0; s < params_.shards; ++s) {
    ServiceGroup::Params gp;
    gp.config.f = params_.f;
    gp.config.checkpoint_interval = params_.checkpoint_interval;
    gp.config.log_window = params_.log_window;
    gp.config.max_clients = params_.clients;
    gp.seed = ShardSeed(params_.seed, s);
    gp.cost = params_.cost;
    gp.durable_storage = params_.durable_storage;
    groups_.push_back(std::make_unique<ServiceGroup>(
        std::move(gp),
        [this](Simulation* sim, NodeId) {
          return std::make_unique<KvAdapter>(sim, params_.keys,
                                             params_.kv_execute_cost_us);
        }));
  }
  clients_.resize(params_.clients);
}

ShardedDeployment::~ShardedDeployment() = default;

RouterClient& ShardedDeployment::client(int c) {
  assert(c >= 0 && c < static_cast<int>(clients_.size()));
  if (!clients_[c]) {
    clients_[c] = std::make_unique<RouterClient>(this, c);
  }
  return *clients_[c];
}

uint64_t ShardedDeployment::KeyHash(uint64_t key) {
  // SplitMix64 finalizer: full-avalanche, so zipfian-hot ranks scatter
  // across shards instead of clustering on shard 0.
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int ShardedDeployment::ShardOf(uint64_t key, int shards) {
  return static_cast<int>(KeyHash(key) % static_cast<uint64_t>(shards));
}

bool ShardedDeployment::Step() {
  int best = -1;
  SimTime best_time = Simulation::kNoPendingEvent;
  for (int s = 0; s < shards(); ++s) {
    const SimTime t = groups_[s]->sim().NextEventTime();
    if (t < best_time) {
      best_time = t;
      best = s;
    }
  }
  if (best < 0) {
    return false;
  }
  // Advance the global clock BEFORE running the event so handlers that ask
  // the deployment for "now" (history timestamps, follow-up scheduling) see
  // the instant they run at.
  if (best_time > global_now_) {
    global_now_ = best_time;
  }
  groups_[best]->sim().Step();
  return true;
}

void ShardedDeployment::RunUntil(SimTime deadline) {
  for (;;) {
    SimTime next = Simulation::kNoPendingEvent;
    for (int s = 0; s < shards(); ++s) {
      next = std::min(next, groups_[s]->sim().NextEventTime());
    }
    if (next == Simulation::kNoPendingEvent || next > deadline) {
      break;
    }
    Step();
  }
  if (global_now_ < deadline) {
    global_now_ = deadline;
  }
}

bool ShardedDeployment::RunUntilTrue(const std::function<bool()>& pred,
                                     SimTime deadline) {
  if (pred()) {
    return true;
  }
  for (;;) {
    SimTime next = Simulation::kNoPendingEvent;
    for (int s = 0; s < shards(); ++s) {
      next = std::min(next, groups_[s]->sim().NextEventTime());
    }
    if (next == Simulation::kNoPendingEvent || next > deadline) {
      return pred();
    }
    Step();
    if (pred()) {
      return true;
    }
  }
}

TimerId ShardedDeployment::Schedule(int s, SimTime delay, InlineFn fn) {
  assert(s >= 0 && s < shards());
  Simulation& sim = groups_[s]->sim();
  const SimTime target = global_now_ + delay;
  const SimTime local_delay = target > sim.Now() ? target - sim.Now() : 0;
  return sim.After(Simulation::kNoOwner, local_delay, std::move(fn));
}

void ShardedDeployment::EnableTrace() {
  for (auto& group : groups_) {
    group->EnableTrace();
  }
}

void ShardedDeployment::EnableAudit() {
  for (auto& group : groups_) {
    group->EnableAudit();
  }
}

uint64_t ShardedDeployment::TotalEventsProcessed() const {
  uint64_t total = 0;
  for (const auto& group : groups_) {
    total += const_cast<ServiceGroup&>(*group).sim().events_processed();
  }
  return total;
}

uint64_t ShardedDeployment::InvariantViolations() const {
  uint64_t total = 0;
  for (const auto& group : groups_) {
    const InvariantAuditor* auditor =
        const_cast<ServiceGroup&>(*group).auditor();
    if (auditor != nullptr) {
      total += auditor->violation_count();
    }
  }
  return total;
}

std::string ShardedDeployment::FirstInvariantViolation() const {
  for (const auto& group : groups_) {
    const InvariantAuditor* auditor =
        const_cast<ServiceGroup&>(*group).auditor();
    if (auditor != nullptr && !auditor->violations().empty()) {
      return auditor->violations().front();
    }
  }
  return "";
}

// --- RouterClient -----------------------------------------------------------

RouterClient::RouterClient(ShardedDeployment* dep, int slot)
    : dep_(dep),
      slot_(slot),
      queues_(dep->shards()),
      state_(dep->shards(), 0),
      per_shard_subops_(dep->shards(), 0) {}

void RouterClient::Get(uint64_t key, OpCallback cb) {
  ++ops_routed_;
  SubOp sub;
  sub.ticket = next_ticket_++;
  sub.key = key;
  sub.op = KvAdapter::EncodeGet(static_cast<uint32_t>(key));
  sub.invoke_us = dep_->Now();
  sub.cb = std::move(cb);
  Enqueue(dep_->ShardOfKey(key), std::move(sub));
}

void RouterClient::Set(uint64_t key, Bytes value, OpCallback cb) {
  ++ops_routed_;
  SubOp sub;
  sub.ticket = next_ticket_++;
  sub.key = key;
  sub.op = KvAdapter::EncodeSet(static_cast<uint32_t>(key), value);
  sub.invoke_us = dep_->Now();
  sub.cb = std::move(cb);
  Enqueue(dep_->ShardOfKey(key), std::move(sub));
}

void RouterClient::MultiGet(const std::vector<uint64_t>& keys,
                            OpCallback per_key, std::function<void()> done) {
  ++ops_routed_;
  ++multigets_;
  // One shared countdown across the fan-out; `done` fires after the last
  // sub-read completes or is abandoned.
  auto remaining = std::make_shared<int>(static_cast<int>(keys.size()));
  auto finished = std::make_shared<std::function<void()>>(std::move(done));
  if (keys.empty()) {
    (*finished)();
    return;
  }
  for (uint64_t key : keys) {
    SubOp sub;
    sub.ticket = next_ticket_++;
    sub.key = key;
    sub.op = KvAdapter::EncodeGet(static_cast<uint32_t>(key));
    sub.invoke_us = dep_->Now();
    sub.cb = [per_key, remaining, finished](const Completion& c) {
      per_key(c);
      if (--*remaining == 0) {
        (*finished)();
      }
    };
    Enqueue(dep_->ShardOfKey(key), std::move(sub));
  }
}

void RouterClient::AbandonOn(int shard) {
  if (queues_[shard].empty()) {
    return;
  }
  // If the head was actually sent, abandon the protocol op on the shard's
  // bft client (late replies self-discard there). A head still in state 1
  // leaves only a stale trampoline, which self-discards on its ticket
  // mismatch.
  if (state_[shard] == 2) {
    dep_->shard(shard).client(slot_).Abandon();
  }
  state_[shard] = 0;
  // Drop the whole queue, not just the head: the slot is driven closed-loop,
  // so everything queued behind an abandoned head belongs to the same
  // timed-out logical op, and issuing it anyway would run orphan protocol
  // ops whose completions nobody wants (and skew the sub-op accounting).
  std::deque<SubOp> dropped;
  dropped.swap(queues_[shard]);
  // Fire each dropped callback exactly once with an abandoned completion,
  // AFTER the queue is consistent (a callback may enqueue fresh sub-ops).
  // This keeps the fan-out contract: a multiget's shared countdown still
  // reaches zero, so its `done` fires even when sub-reads are abandoned.
  for (SubOp& sub : dropped) {
    Completion c;
    c.key = sub.key;
    c.shard = shard;
    c.invoke_us = sub.invoke_us;
    c.response_us = dep_->Now();
    c.abandoned = true;
    c.status = Unavailable("sub-op abandoned");
    sub.cb(c);
  }
}

void RouterClient::Enqueue(int shard, SubOp sub) {
  queues_[shard].push_back(std::move(sub));
  if (state_[shard] == 0) {
    IssueHead(shard);
  }
}

void RouterClient::IssueHead(int shard) {
  assert(!queues_[shard].empty());
  state_[shard] = 1;
  const uint64_t ticket = queues_[shard].front().ticket;
  // Trampoline into the owning shard's simulation: fires at the current
  // global instant translated to the shard's local clock.
  dep_->Schedule(shard, 0, [this, shard, ticket] {
    if (queues_[shard].empty() || queues_[shard].front().ticket != ticket) {
      return;  // abandoned before the trampoline fired
    }
    SubOp& sub = queues_[shard].front();
    state_[shard] = 2;
    ++subops_;
    ++per_shard_subops_[shard];
    dep_->shard(shard).client(slot_).Invoke(
        sub.op, /*read_only=*/false,
        [this, shard, ticket](Status status, Bytes result) {
          if (queues_[shard].empty() ||
              queues_[shard].front().ticket != ticket) {
            return;  // abandoned while in flight
          }
          SubOp sub_done = std::move(queues_[shard].front());
          queues_[shard].pop_front();
          state_[shard] = 0;
          Completion c;
          c.key = sub_done.key;
          c.shard = shard;
          c.invoke_us = sub_done.invoke_us;
          c.response_us = dep_->Now();
          c.status = std::move(status);
          c.result = std::move(result);
          if (!queues_[shard].empty()) {
            IssueHead(shard);
          }
          sub_done.cb(c);
        });
  });
}

}  // namespace bftbase
