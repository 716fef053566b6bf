#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "src/base/kv_adapter.h"
#include "src/base/service_group.h"
#include "src/basefs/basefs_group.h"
#include "src/basefs/fs_session.h"
#include "src/crypto/digest.h"
#include "src/shard/keyed_workload.h"
#include "src/shard/shard_router.h"
#include "src/sim/network.h"
#include "src/sim/storage.h"
#include "src/sim/topology.h"
#include "src/util/hotpath.h"
#include "src/util/percentile.h"
#include "src/util/rng.h"
#include "src/util/xdr.h"
#include "src/workload/andrew.h"
#include "tracing.h"

namespace perfbench {

using namespace bftbase;

namespace {

// --- Shared configuration ------------------------------------------------------

constexpr int kF = 1;
constexpr SeqNum kCheckpointInterval = 128;  // the paper's k
constexpr SeqNum kLogWindow = 256;
double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double PerOp(double value, uint64_t ops) {
  return ops == 0 ? 0 : value / static_cast<double>(ops);
}

double Ratio(double part, double whole) {
  return whole <= 0 ? 0 : part / whole;
}

double Ms(int64_t us) { return static_cast<double>(us) / 1000.0; }

double WallSince(int64_t start_ns) { return Seconds(WallNowNs() - start_ns); }

int64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Peak resident memory is measured per rep (per deployment on
// geo_failover): freed heap goes back to the system and the kernel's
// high-water mark is reset first, so the figure does not depend on how many
// reps ran before in the process.
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMiB() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Layer counters ---------------------------------------------------------------

// Counters read from the program at one instant, summed over a deployment's
// replicas, storage devices and the clients the workload used. A difference
// of two snapshots is the work of the phase between them.
#define PERFBENCH_COUNTERS(X)                                            \
  X(sha256_invocations) X(sha256_blocks) X(bytes_hashed)                 \
  X(hmac_lane_batches) X(digest_memo_hits) X(digest_memo_misses)         \
  X(event_pool_allocs) X(event_pool_reuses) X(events_requeued)           \
  X(tree_nodes_rehashed) X(tree_nodes_preserved) X(events)               \
  X(msgs_delivered) X(bytes_delivered) X(bytes_copied) X(msgs_dropped)   \
  X(storage_syncs) X(storage_bytes_written) X(requests_executed)         \
  X(batches_executed) X(client_retries) X(timeout_retries)

struct Snapshot {
#define PERFBENCH_FIELD(name) uint64_t name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD
  uint64_t peak_queue_depth = 0;  // a high-water mark, not a counter

  // Adds the work between `before` and `after` (the peak is a maximum).
  void AddDelta(const Snapshot& before, const Snapshot& after) {
#define PERFBENCH_DELTA(name) name += after.name - before.name;
    PERFBENCH_COUNTERS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
    peak_queue_depth = std::max(peak_queue_depth, after.peak_queue_depth);
  }
};

Snapshot TakeSnapshot(ServiceGroup& group, int clients_used) {
  Snapshot s;
  const hotpath::Counters& hot = hotpath::counters();
  s.sha256_invocations = hot.sha256_invocations;
  s.sha256_blocks = hot.sha256_blocks;
  s.bytes_hashed = hot.bytes_hashed;
  s.hmac_lane_batches = hot.hmac_lane_batches;
  s.digest_memo_hits = hot.digest_memo_hits;
  s.digest_memo_misses = hot.digest_memo_misses;
  s.event_pool_allocs = hot.event_pool_allocs;
  s.event_pool_reuses = hot.event_pool_reuses;
  s.events_requeued = hot.events_requeued;
  s.tree_nodes_rehashed = hot.tree_nodes_rehashed;
  s.tree_nodes_preserved = hot.tree_nodes_preserved;
  Simulation& sim = group.sim();
  s.events = sim.events_processed();
  s.msgs_delivered = sim.network().messages_delivered();
  s.bytes_delivered = sim.network().bytes_delivered();
  s.bytes_copied = sim.network().bytes_copied();
  s.msgs_dropped = sim.network().messages_dropped();
  s.peak_queue_depth = sim.peak_queue_depth();
  for (int r = 0; r < group.replica_count(); ++r) {
    s.requests_executed += group.replica(r).requests_executed();
    s.batches_executed += group.replica(r).batches_executed();
    if (StorageDevice* storage = group.storage(r)) {
      s.storage_syncs += storage->syncs();
      s.storage_bytes_written += storage->bytes_written();
    }
  }
  for (int c = 0; c < clients_used; ++c) {
    s.client_retries += group.client(c).retries();
    s.timeout_retries += group.client(c).timeout_retries();
  }
  return s;
}

// What a rep gathers for its per-layer numbers, over all its deployments.
struct LayerInputs {
  Snapshot work;  // summed timed-phase deltas
  uint64_t ops = 0;
  int deployments = 0;
  PhaseStats phases;
  std::map<std::string, SpanTotals> spans;  // traced reps only
  int64_t span_self_ns = 0;

  void AddSpans(const Tracer& tracer) {
    for (const auto& [name, t] : tracer.Totals()) {
      SpanTotals& sum = spans[name];
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
    span_self_ns += tracer.TotalSelfNs();
  }
};

void FillLayers(const LayerInputs& in, bool traced, RepResult& out) {
  const Snapshot& w = in.work;
  const uint64_t ops = in.ops;
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  auto& c = out.counts;
  // Event kernel.
  c["sim.events_per_op"] = PerOp(d(w.events), ops);
  c["sim.events_requeued_per_op"] = PerOp(d(w.events_requeued), ops);
  c["sim.event_pool_reuse_ratio"] =
      Ratio(d(w.event_pool_reuses),
            d(w.event_pool_reuses) + d(w.event_pool_allocs));
  c["sim.peak_queue_depth"] = d(w.peak_queue_depth);
  // Network fabric.
  c["net.msgs_delivered_per_op"] = PerOp(d(w.msgs_delivered), ops);
  c["net.bytes_delivered_per_op"] = PerOp(d(w.bytes_delivered), ops);
  c["net.bytes_copied_per_msg"] = Ratio(d(w.bytes_copied), d(w.msgs_delivered));
  c["net.msgs_dropped_per_op"] = PerOp(d(w.msgs_dropped), ops);
  // Crypto.
  c["crypto.sha256_calls_per_op"] = PerOp(d(w.sha256_invocations), ops);
  c["crypto.sha256_blocks_per_op"] = PerOp(d(w.sha256_blocks), ops);
  c["crypto.bytes_hashed_per_op"] = PerOp(d(w.bytes_hashed), ops);
  c["crypto.hmac_lane_batches_per_op"] = PerOp(d(w.hmac_lane_batches), ops);
  c["crypto.digest_memo_hit_ratio"] =
      Ratio(d(w.digest_memo_hits),
            d(w.digest_memo_hits) + d(w.digest_memo_misses));
  // Agreement and client.
  c["bft.batch_size_mean"] =
      Ratio(d(w.requests_executed), d(w.batches_executed));
  c["bft.client_retries_per_op"] = PerOp(d(w.client_retries), ops);
  c["bft.timeout_retries_per_op"] = PerOp(d(w.timeout_retries), ops);
  // Checkpoints, partition tree, WAL.
  c["base.tree_preserved_ratio"] =
      Ratio(d(w.tree_nodes_preserved),
            d(w.tree_nodes_rehashed) + d(w.tree_nodes_preserved));
  c["base.wal_syncs_per_op"] = PerOp(d(w.storage_syncs), ops);
  c["base.wal_bytes_per_op"] = PerOp(d(w.storage_bytes_written), ops);

  // Virtual-time phases (recorded by the observer in traced reps only).
  const PhaseStats& p = in.phases;
  const double deployments = std::max(1, in.deployments);
  auto mean = [](const std::vector<int64_t>& v) {
    double sum = 0;
    for (int64_t x : v) {
      sum += static_cast<double>(x);
    }
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  };
  c["bft.prepare_ms_p50"] = Ms(Percentile(p.prepare_us, 0.5));
  c["bft.commit_ms_p50"] = Ms(Percentile(p.commit_us, 0.5));
  c["bft.execute_lag_ms_p50"] = Ms(Percentile(p.execute_lag_us, 0.5));
  c["bft.view_changes"] = d(p.new_views) / deployments;
  c["bft.view_change_ms"] = mean(p.view_change_us) / 1000.0;
  c["base.checkpoints_per_kop"] = PerOp(1000.0 * d(p.stable_checkpoints), ops);
  c["base.checkpoint_stable_ms_p50"] = Ms(Percentile(p.stable_us, 0.5));
  c["base.tree_nodes_rehashed_per_checkpoint"] =
      Ratio(d(w.tree_nodes_rehashed), d(p.checkpoints_taken));
  c["base.state_transfer_ms"] =
      static_cast<double>(p.state_transfer_us) / 1000.0 / deployments;

  if (!traced) {
    return;
  }
  auto span = [&](const char* name) {
    auto it = in.spans.find(name);
    return it == in.spans.end() ? SpanTotals() : it->second;
  };
  const SpanTotals execute = span("adapter.execute");
  c["basefs.execute_calls_per_op"] = PerOp(d(execute.count), ops);
  out.wall["basefs.execute_self_us_per_op"] =
      PerOp(static_cast<double>(execute.self_ns) / 1000.0, ops);
  out.wall["base.getobj_wall_s"] = Seconds(span("adapter.getobj").total_ns);
  out.wall["base.putobjs_wall_s"] = Seconds(span("adapter.putobjs").total_ns);
  uint64_t fs_calls = 0;
  for (const char* vendor : {"linear", "tree", "log"}) {
    const SpanTotals t = span((std::string("fs.") + vendor).c_str());
    fs_calls += t.count;
    out.wall[std::string("fs.") + vendor + ".call_us_mean"] =
        t.count == 0 ? 0
                     : static_cast<double>(t.total_ns) / 1000.0 / d(t.count);
  }
  c["fs.calls_per_op"] = PerOp(d(fs_calls), ops);
  out.wall["trace.self_s"] = Seconds(in.span_self_ns);
}

// Attaches `observer` to every replica of `group`.
void Observe(ServiceGroup& group, PhaseObserver* observer) {
  for (int r = 0; r < group.replica_count(); ++r) {
    group.replica(r).SetObserver(observer);
  }
}

// The checks every deployment ends with: replicas agreed on every checkpoint
// digest, and (traced reps) the auditor found no violated invariant.
std::string ProtocolChecks(const PhaseObserver& observer,
                           const InvariantAuditor* auditor) {
  if (!observer.disagreement().empty()) {
    return "replicas disagree: " + observer.disagreement();
  }
  if (auditor != nullptr && auditor->violation_count() > 0) {
    return "invariant auditor: " + auditor->violations().front();
  }
  return "";
}

// Writes the span files; they are a by-product, so a failure is reported on
// stderr and does not fail the run.
void WriteSpans(const std::string& path, const Tracer& tracer,
                const PhaseObserver& observer) {
  const std::string virtual_path = path + ".virtual.csv";
  bool ok = tracer.WriteCsv(path);
  if (std::FILE* out = std::fopen(virtual_path.c_str(), "w")) {
    std::fprintf(out, "name,replica,start_us,end_us\n");
    for (const auto& s : observer.virtual_spans()) {
      std::fprintf(out, "%s,%d,%lld,%lld\n", s.name, s.replica,
                   static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us));
    }
    ok = std::fclose(out) == 0 && ok;
  } else {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: could not write %s or %s\n",
                 path.c_str(), virtual_path.c_str());
  }
}

// Times the phase that `run` executes.
template <typename F>
void Timed(RepResult& out, F&& run) {
  const int64_t wall = WallNowNs();
  const int64_t cpu = CpuNowNs();
  run();
  out.timed_s += WallSince(wall);
  out.timed_cpu_s += Seconds(CpuNowNs() - cpu);
}

// --- andrew ----------------------------------------------------------------------
//
// E1: the scaled Andrew benchmark, one closed-loop client (it is a
// single-user script) on a LAN against four heterogeneous BASEFS replicas.

const std::vector<FsVendor> kAndrewVendors = {
    FsVendor::kLinear, FsVendor::kTree, FsVendor::kLog, FsVendor::kLinear};
constexpr uint32_t kAndrewArraySize = 4096;

AndrewConfig AndrewInputs(uint64_t seed, bool smoke) {
  AndrewConfig config;
  config.directories = smoke ? 10 : 100;  // x10 the bench_andrew set
  config.files_per_directory = 10;
  config.file_size = 8192;
  config.write_chunk = 4096;
  config.seed = seed;
  return config;
}

const char* FsSpanName(FsVendor vendor) {
  switch (vendor) {
    case FsVendor::kLinear:
      return "fs.linear";
    case FsVendor::kTree:
      return "fs.tree";
    case FsVendor::kLog:
      return "fs.log";
  }
  return "fs.unknown";
}

// BasefsAdapterFactory with decorators: the same vendors, clock skews and
// array size, so the traced deployment behaves exactly like the plain one.
ServiceGroup::AdapterFactory TracedBasefsFactory(Tracer* tracer) {
  return [tracer](Simulation* sim,
                  NodeId id) -> std::unique_ptr<ServiceAdapter> {
    const FsVendor vendor =
        kAndrewVendors[static_cast<size_t>(id) % kAndrewVendors.size()];
    const SimTime skew = (id + 1) * 137 * kMillisecond;
    FsConformanceWrapper::Options options;
    options.array_size = kAndrewArraySize;
    auto wrapper = std::make_unique<FsConformanceWrapper>(
        sim,
        [sim, vendor, skew, tracer, id] {
          return std::make_unique<TracingFileSystem>(
              MakeFileSystem(vendor, sim, skew), FsSpanName(vendor), tracer,
              id);
        },
        options);
    return std::make_unique<TracingAdapter>(std::move(wrapper), tracer, id);
  };
}

// Relays every call to the replicated session and checks what comes back:
// each READ must return exactly the bytes earlier WRITEs put there.
class CheckedFsSession : public FsSession {
 public:
  CheckedFsSession(FsSession* inner, Simulation* sim)
      : inner_(inner), sim_(sim) {}

  Result<NfsReply> Call(const NfsCall& call) override {
    const SimTime start = sim_->Now();
    Result<NfsReply> reply = inner_->Call(call);
    ++attempted_;
    if (!reply.ok() || reply->stat != NfsStat::kOk) {
      Fail(std::string(NfsProcName(call.proc)) + " failed");
      return reply;
    }
    latencies_.push_back(sim_->Now() - start);
    completions_.push_back(sim_->Now());
    if (call.proc == NfsProc::kWrite) {
      Bytes& content = content_[call.oid];
      if (content.size() < call.offset + call.data.size()) {
        content.resize(call.offset + call.data.size());
      }
      std::copy(call.data.begin(), call.data.end(),
                content.begin() + static_cast<ptrdiff_t>(call.offset));
    } else if (call.proc == NfsProc::kRead) {
      const Bytes& content = content_[call.oid];
      const size_t begin = std::min<size_t>(call.offset, content.size());
      const size_t end = std::min<size_t>(begin + call.count, content.size());
      if (end == begin ||
          !std::equal(content.begin() + static_cast<ptrdiff_t>(begin),
                      content.begin() + static_cast<ptrdiff_t>(end),
                      reply->data.begin(), reply->data.end())) {
        Fail("READ of oid " + std::to_string(call.oid) + " at " +
             std::to_string(call.offset) +
             " did not return the bytes written");
      }
      ++reads_checked_;
    }
    return reply;
  }
  Oid Root() const override { return inner_->Root(); }

  void StartTimedPhase() {
    attempted_ = 0;
    latencies_.clear();
    completions_.clear();
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t reads_checked() const { return reads_checked_; }
  const std::string& error() const { return error_; }
  std::vector<int64_t>& latencies() { return latencies_; }
  const std::vector<SimTime>& completions() const { return completions_; }

 private:
  void Fail(std::string what) {
    ++failed_;
    if (error_.empty()) {
      error_ = std::move(what);
    }
  }

  FsSession* inner_;
  Simulation* sim_;
  std::map<Oid, Bytes> content_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reads_checked_ = 0;
  std::string error_;
  std::vector<int64_t> latencies_;
  std::vector<SimTime> completions_;
};

// The unreplicated NFS baseline's total virtual time, on the same LAN. It is
// exact for the inputs, so it is computed once per process and outside
// every timing.
SimTime AndrewBaselineUs(const AndrewConfig& config) {
  static std::map<std::pair<uint64_t, int>, SimTime> cache;
  const auto key = std::make_pair(config.seed, config.directories);
  auto it = cache.find(key);
  if (it != cache.end()) {
    return it->second;
  }
  Simulation sim(config.seed);
  constexpr NodeId kServer = 50;
  constexpr NodeId kClient = 60;
  PlainNfsServer server(&sim, kServer,
                        MakeFileSystem(FsVendor::kLinear, &sim));
  PlainFsSession fs(&sim, kClient, kServer);
  AndrewResult result = RunAndrewBenchmark(fs, sim, config);
  const SimTime total = result.ok ? result.total_us : 0;
  cache[key] = total;
  return total;
}

RepResult RunAndrew(const RepOptions& options) {
  RepResult out;
  const AndrewConfig config = AndrewInputs(options.seed, options.smoke);
  const SimTime baseline_us = AndrewBaselineUs(config);

  const int64_t setup_start = WallNowNs();
  Tracer tracer;
  ServiceGroup::Params params;
  params.config.f = kF;
  params.config.checkpoint_interval = kCheckpointInterval;
  params.config.log_window = kLogWindow;
  params.seed = options.seed;
  std::unique_ptr<ServiceGroup> group =
      options.traced
          ? std::make_unique<ServiceGroup>(params,
                                           TracedBasefsFactory(&tracer))
          : MakeBasefsGroup(params, kAndrewVendors, kAndrewArraySize);
  PhaseObserver observer(&group->sim(), options.traced, nullptr);
  Observe(*group, &observer);
  ReplicatedFsSession replicated(group.get(), 0, /*op_timeout=*/300 * kSecond);
  CheckedFsSession fs(&replicated, &group->sim());
  // Warm-up: read-only calls open the client's sessions with every replica.
  for (int i = 0; i < 8; ++i) {
    if (!fs.GetAttr(fs.Root()).ok()) {
      out.error = "andrew: warm-up GETATTR failed";
      return out;
    }
  }
  out.setup_s = WallSince(setup_start);
  if (options.setup_only) {
    return out;
  }

  tracer.Clear();
  observer.ResetStats();
  fs.StartTimedPhase();
  const Snapshot before = TakeSnapshot(*group, 1);
  const SimTime virtual_start = group->sim().Now();
  AndrewResult result;
  Timed(out, [&] { result = RunAndrewBenchmark(fs, group->sim(), config); });
  LayerInputs layers;
  layers.work.AddDelta(before, TakeSnapshot(*group, 1));

  out.attempted = fs.attempted();
  out.failed = fs.failed();
  out.committed = out.attempted - out.failed;
  out.virtual_us = group->sim().Now() - virtual_start;
  out.latencies_us = std::move(fs.latencies());
  out.latency_p50_us = Percentile(out.latencies_us, 0.5);
  out.latency_p99_us = Percentile(out.latencies_us, 0.99);
  out.longest_gap_us = LongestGap(fs.completions(), virtual_start);
  if (!result.ok) {
    out.error = "andrew: " + result.error;
  } else if (!fs.error().empty()) {
    out.error = "andrew: " + fs.error();
  } else if (fs.reads_checked() == 0) {
    out.error = "andrew: no READ was checked";
  } else if (baseline_us <= 0) {
    out.error = "andrew: unreplicated baseline failed";
  } else {
    out.andrew_overhead_pct =
        100.0 * (static_cast<double>(result.total_us) /
                     static_cast<double>(baseline_us) -
                 1.0);
    out.error = ProtocolChecks(observer, nullptr);
  }
  out.output_digest = std::to_string(result.total_us) + "/" +
                      std::to_string(result.total_operations);

  layers.ops = out.committed;
  layers.deployments = 1;
  layers.phases = observer.stats();
  if (options.traced) {
    layers.AddSpans(tracer);
    if (!options.spans_path.empty()) {
      WriteSpans(options.spans_path, tracer, observer);
    }
  }
  FillLayers(layers, options.traced, out);
  return out;
}

// --- kv_zipf ------------------------------------------------------------------------
//
// RunKeyedWorkload on one shard group, LAN: 32 saturating closed-loop clients,
// zipfian (theta 0.99) keys over 4096 slots, 40% ordered reads, 40% updates,
// 10% read-modify-writes and 10% three-key multigets.

constexpr int kKvClients = 32;
constexpr uint32_t kKvKeys = 4096;

// Every read returned either a value some write to the same key put there,
// invoked before the read completed, or the initial empty value while no
// write to that key had yet completed before the read began.
std::string CheckKeyedReads(const std::vector<HistoryOp>& history) {
  std::map<Bytes, const HistoryOp*> writes;
  std::map<int, SimTime> first_write_done;
  for (const HistoryOp& op : history) {
    if (op.kind == HistoryOp::Kind::kWrite) {
      writes[op.value] = &op;
      if (op.ok) {
        auto [it, inserted] = first_write_done.emplace(op.object,
                                                       op.response_us);
        if (!inserted) {
          it->second = std::min(it->second, op.response_us);
        }
      }
    }
  }
  for (const HistoryOp& op : history) {
    if (op.kind != HistoryOp::Kind::kRead || !op.ok) {
      continue;
    }
    if (op.value.empty()) {
      auto it = first_write_done.find(op.object);
      if (it != first_write_done.end() && it->second < op.invoke_us) {
        return "read of key " + std::to_string(op.object) +
               " returned the initial value after a write completed";
      }
      continue;
    }
    auto it = writes.find(op.value);
    if (it == writes.end() || it->second->object != op.object ||
        it->second->invoke_us > op.response_us) {
      return "read of key " + std::to_string(op.object) +
             " returned a value no earlier write to it produced";
    }
  }
  return "";
}

RepResult RunKvZipf(const RepOptions& options) {
  RepResult out;
  const int64_t setup_start = WallNowNs();
  ShardedDeployment::Params params;
  params.shards = 1;
  params.clients = kKvClients;
  params.seed = options.seed;
  params.f = kF;
  params.checkpoint_interval = kCheckpointInterval;
  params.log_window = kLogWindow;
  params.keys = kKvKeys;
  ShardedDeployment dep(params);
  ServiceGroup& group = dep.shard(0);
  if (options.traced) {
    dep.EnableAudit();
  }
  PhaseObserver observer(&group.sim(), options.traced, group.auditor());
  Observe(group, &observer);
  // Warm-up: one ordered read per client, which opens its sessions. Reads
  // leave every register at its initial value, so the history checked below
  // still starts from the initial state.
  int warm = 0;
  bool warm_ok = true;
  for (int c = 0; c < kKvClients; ++c) {
    dep.client(c).Get(static_cast<uint64_t>(c) * 127 % kKvKeys,
                      [&](const RouterClient::Completion& done) {
                        warm_ok = warm_ok && done.status.ok() &&
                                  done.result.empty();
                        ++warm;
                      });
  }
  dep.RunUntilTrue([&] { return warm == kKvClients; },
                   dep.Now() + 60 * kSecond);
  if (warm != kKvClients || !warm_ok) {
    out.error = "kv_zipf: warm-up reads failed";
    return out;
  }
  out.setup_s = WallSince(setup_start);
  if (options.setup_only) {
    return out;
  }

  observer.ResetStats();
  KeyedWorkloadOptions workload;
  workload.seed = options.seed;
  workload.clients = kKvClients;
  workload.ops_per_client = options.smoke ? 50 : 1000;
  workload.distribution = KeyDistribution::Kind::kZipfian;
  workload.zipf_theta = 0.99;
  workload.update_pct = 40;
  workload.rmw_pct = 10;
  workload.multiget_pct = 10;
  workload.check_linearizability = options.traced;

  const Snapshot before = TakeSnapshot(group, kKvClients);
  KeyedWorkloadResult result;
  Timed(out, [&] { result = RunKeyedWorkload(dep, workload); });
  LayerInputs layers;
  layers.work.AddDelta(before, TakeSnapshot(group, kKvClients));

  out.attempted = static_cast<uint64_t>(result.invoked);
  out.committed = static_cast<uint64_t>(result.committed);
  out.failed = static_cast<uint64_t>(result.timeouts + result.rejected);
  out.virtual_us = result.elapsed_us;
  for (const auto& samples : result.per_client_latencies) {
    out.latencies_us.insert(out.latencies_us.end(), samples.begin(),
                            samples.end());
  }
  out.latency_p50_us = Percentile(out.latencies_us, 0.5);
  out.latency_p99_us = Percentile(out.latencies_us, 0.99);
  std::vector<SimTime> completions;
  for (const HistoryOp& op : result.history) {
    if (op.ok) {
      completions.push_back(op.response_us);
    }
  }
  out.longest_gap_us = LongestGap(std::move(completions), 0);
  out.output_digest = result.history_digest.Hex(32);

  if (!result.completed) {
    out.error = "kv_zipf: clients did not drain";
  } else if (out.failed > 0) {
    out.error = "kv_zipf: " + std::to_string(out.failed) +
                " sub-operations timed out or were rejected";
  } else if (!result.verdict.linearizable) {
    out.error = "kv_zipf: history not linearizable: " +
                result.verdict.explanation;
  } else if (std::string bad = CheckKeyedReads(result.history);
             !bad.empty()) {
    out.error = "kv_zipf: " + bad;
  } else {
    out.error = ProtocolChecks(observer, group.auditor());
  }

  layers.ops = out.committed;
  layers.deployments = 1;
  layers.phases = observer.stats();
  if (options.traced && !options.spans_path.empty()) {
    WriteSpans(options.spans_path, Tracer(), observer);
  }
  FillLayers(layers, options.traced, out);
  return out;
}

// --- geo_failover ---------------------------------------------------------------------
//
// Open-loop Poisson arrivals on the virtual clock, 64 client slots, the
// 3-region preset with jitter, durable storage. Half the ops are 1 KiB sets,
// half are gets on the read-only path. At one third of a deployment's
// schedule the view-0 primary crashes; 5 s later it restarts from its
// storage device.
//
// How long the group stays unavailable depends on the protocol state the
// crash interrupts: about one failover in six stalls until the old primary
// restarts. So one rep runs many independent deployments, with seeds derived
// from the run's seed, and pools their ops; the stalled failovers count in
// every figure.

constexpr int kGeoSlots = 64;
constexpr uint32_t kGeoKeys = 1024;
constexpr size_t kGeoValueBytes = 1024;
constexpr double kGeoRatePerS = 100.0;
constexpr uint32_t kGeoValueMagic = 0x67656f76u;  // "geov"
constexpr uint64_t kArrivalSalt = 0x6172726976616c73ULL;  // "arrivals"
constexpr uint64_t kMixSalt = 0x67656f6d69783030ULL;      // "geomix00"
constexpr uint64_t kDeploymentSalt = 0x67656f6465706c6fULL;  // "geodeplo"
constexpr SimTime kRestartAfter = 5 * kSecond;

// A --trace 1 run only needs the per-layer counts and times, so it runs
// fewer deployments per rep. 112 deployments take 35-43 s on one 2.1 GHz
// Xeon core.
int GeoDeployments(const RepOptions& options) {
  return options.smoke ? 2 : options.per_layer ? 16 : 112;
}
SimTime GeoHorizon(bool smoke) { return (smoke ? 20 : 30) * kSecond; }

Bytes GeoValue(uint32_t key, uint32_t op) {
  XdrWriter w;
  w.PutUint32(kGeoValueMagic);
  w.PutUint32(key);
  w.PutUint32(op);
  Bytes value = w.Take();
  value.resize(kGeoValueBytes, static_cast<uint8_t>(op));
  return value;
}

struct GeoOp {
  bool is_set = false;
  uint32_t key = 0;
  SimTime due = 0;
  SimTime invoked = -1;
  SimTime completed = -1;
  bool ok = false;
  Bytes result;
};

// The ops' schedule from `seed` only: Poisson arrival times, then exactly
// half sets in a seeded order (a binomial split would move the median, which
// sits between the get and the set latency modes), and uniform keys.
std::vector<GeoOp> GeoSchedule(uint64_t seed, SimTime horizon) {
  const std::vector<SimTime> arrivals =
      PoissonArrivals(seed ^ kArrivalSalt, kGeoRatePerS, horizon);
  std::vector<GeoOp> ops(arrivals.size());
  Rng mix(seed ^ kMixSalt);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].is_set = i % 2 == 0;
    ops[i].key = static_cast<uint32_t>(mix.NextBelow(kGeoKeys));
    ops[i].due = arrivals[i];
  }
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1].is_set, ops[mix.NextBelow(i)].is_set);
  }
  return ops;
}

// Every op completed; sets answered OK; every get returned the initial value
// (while no set to its key had completed before the get was invoked) or the
// value a set to that key wrote, invoked before the get completed.
std::string CheckGeoOp(const std::vector<GeoOp>& ops, size_t i,
                       const std::map<uint32_t, SimTime>& first_set_done) {
  const GeoOp& op = ops[i];
  if (op.completed < 0) {
    return "op #" + std::to_string(i) + " never completed";
  }
  bool good = op.ok;
  if (good && op.is_set) {
    good = op.result == ToBytes("OK");
  } else if (good && op.result.empty()) {
    auto it = first_set_done.find(op.key);
    good = it == first_set_done.end() || it->second >= op.invoked;
  } else if (good) {
    XdrReader r(op.result);
    const uint32_t magic = r.GetUint32();
    const uint32_t key = r.GetUint32();
    const uint32_t writer = r.GetUint32();
    good = magic == kGeoValueMagic && key == op.key && writer < ops.size() &&
           ops[writer].is_set && ops[writer].key == op.key &&
           ops[writer].invoked >= 0 && ops[writer].invoked <= op.completed &&
           op.result == GeoValue(key, writer);
  }
  return good ? "" : std::string(op.is_set ? "set #" : "get #") +
                         std::to_string(i) + " returned a wrong result";
}

// What one rep of geo_failover gathers across its deployments.
struct GeoRep {
  RepResult out;
  LayerInputs layers;
  std::vector<double> setups;
  std::vector<int64_t> slot_wait_us;
  std::vector<double> restart_ms;
  double restart_bytes_read = 0;
  size_t backlog_peak = 0;
  std::vector<int64_t> gap_us;  // per deployment: the longest commit gap
  double peak_rss_mb = 0;
};

// One deployment of the geo workload; adds its results to `rep` and returns
// its virtual-time results as one string, for the determinism check.
std::string RunGeoDeployment(const RepOptions& options, uint64_t seed,
                             bool write_spans, GeoRep& rep) {
  RepResult& out = rep.out;
  const bool traced = options.traced;
  ResetPeakRss();
  const int64_t setup_start = WallNowNs();
  Topology topo;
  TopologyFromName("3-region", &topo);
  Tracer tracer;
  ServiceGroup::Params params;
  params.config.f = kF;
  params.config.checkpoint_interval = kCheckpointInterval;
  params.config.log_window = kLogWindow;
  params.config.max_clients = kGeoSlots;
  params.config.network_rtt_us = topo.MaxRttUs();
  params.seed = seed;
  params.durable_storage = true;
  const Config config = params.config;
  ServiceGroup group(params, [traced, &tracer](Simulation* sim, NodeId id)
                                 -> std::unique_ptr<ServiceAdapter> {
    auto kv = std::make_unique<KvAdapter>(sim, kGeoKeys);
    if (!traced) {
      return kv;
    }
    return std::make_unique<TracingAdapter>(std::move(kv), &tracer, id);
  });
  ApplyTopology(group.sim().network(), topo, config.node_count());
  if (traced) {
    group.EnableAudit();
  }
  PhaseObserver observer(&group.sim(), traced, group.auditor());
  Observe(group, &observer);
  Simulation& sim = group.sim();
  // Warm-up: one read-only get per slot opens every client's sessions.
  int warm = 0;
  bool warm_ok = true;
  for (int c = 0; c < kGeoSlots; ++c) {
    group.client(c).Invoke(KvAdapter::EncodeGet(static_cast<uint32_t>(c)),
                           /*read_only=*/true, [&](Status status, Bytes) {
                             warm_ok = warm_ok && status.ok();
                             ++warm;
                           });
  }
  sim.RunUntilTrue([&] { return warm == kGeoSlots; },
                   sim.Now() + 60 * kSecond);
  rep.setups.push_back(WallSince(setup_start));
  if (warm != kGeoSlots || !warm_ok) {
    out.error = "geo_failover: warm-up gets failed";
    return "";
  }
  if (options.setup_only) {
    return "";
  }

  const SimTime horizon = GeoHorizon(options.smoke);
  std::vector<GeoOp> ops = GeoSchedule(seed, horizon);
  const SimTime start = sim.Now();
  for (GeoOp& op : ops) {
    op.due += start;
  }
  tracer.Clear();
  observer.ResetStats();
  const Snapshot before = TakeSnapshot(group, kGeoSlots);

  std::deque<size_t> backlog;
  std::vector<int> free_slots;
  for (int c = kGeoSlots - 1; c >= 0; --c) {
    free_slots.push_back(c);
  }
  size_t done = 0;
  std::function<void()> dispatch = [&] {
    while (!backlog.empty() && !free_slots.empty()) {
      const size_t i = backlog.front();
      backlog.pop_front();
      const int slot = free_slots.back();
      free_slots.pop_back();
      GeoOp& op = ops[i];
      op.invoked = sim.Now();
      rep.slot_wait_us.push_back(op.invoked - op.due);
      Bytes encoded = op.is_set
                          ? KvAdapter::EncodeSet(
                                op.key, GeoValue(op.key,
                                                 static_cast<uint32_t>(i)))
                          : KvAdapter::EncodeGet(op.key);
      group.client(slot).Invoke(
          std::move(encoded), /*read_only=*/!op.is_set,
          [&, i, slot](Status status, Bytes result) {
            GeoOp& finished = ops[i];
            finished.completed = sim.Now();
            finished.ok = status.ok();
            finished.result = std::move(result);
            ++done;
            free_slots.push_back(slot);
            dispatch();
          });
    }
  };
  // Arrivals are chained (each schedules the next) so the event queue holds
  // one pending arrival, not the whole schedule.
  std::function<void(size_t)> arrive = [&](size_t i) {
    backlog.push_back(i);
    rep.backlog_peak = std::max(rep.backlog_peak, backlog.size());
    dispatch();
    if (i + 1 < ops.size()) {
      sim.After(Simulation::kNoOwner, ops[i + 1].due - sim.Now(),
                [&arrive, i] { arrive(i + 1); });
    }
  };
  if (!ops.empty()) {
    sim.After(Simulation::kNoOwner, ops[0].due - sim.Now(),
              [&arrive] { arrive(0); });
  }

  // The fault.
  Replica& primary = group.replica(static_cast<int>(config.PrimaryOf(0)));
  const SimTime crash_at = start + horizon / 3;
  bool crashed_primary = false;
  int64_t restart_ns = -1;
  sim.After(Simulation::kNoOwner, crash_at - sim.Now(), [&] {
    crashed_primary = primary.IsPrimary();
    primary.Crash();
  });
  sim.After(Simulation::kNoOwner, crash_at + kRestartAfter - sim.Now(), [&] {
    StorageDevice* storage = group.storage(primary.id());
    const uint64_t read_before = storage->bytes_read();
    ScopedSpan span(traced ? &tracer : nullptr, "base.restart", primary.id());
    const int64_t t0 = WallNowNs();
    primary.RestartFromStorage();
    restart_ns = WallNowNs() - t0;
    rep.restart_bytes_read +=
        static_cast<double>(storage->bytes_read() - read_before);
  });

  Timed(out, [&] {
    sim.RunUntilTrue([&] { return done == ops.size(); },
                     start + horizon + 600 * kSecond);
  });
  const Snapshot after = TakeSnapshot(group, kGeoSlots);
  rep.layers.work.AddDelta(before, after);

  std::map<uint32_t, SimTime> first_set_done;
  for (const GeoOp& op : ops) {
    if (op.is_set && op.ok) {
      auto [it, inserted] = first_set_done.emplace(op.key, op.completed);
      if (!inserted) {
        it->second = std::min(it->second, op.completed);
      }
    }
  }
  std::vector<SimTime> completions;
  SimTime last = start;
  int64_t latency_sum = 0;
  std::string error;
  for (size_t i = 0; i < ops.size(); ++i) {
    ++out.attempted;
    std::string wrong = CheckGeoOp(ops, i, first_set_done);
    if (!wrong.empty()) {
      ++out.failed;
      if (error.empty()) {
        error = "geo_failover: " + wrong;
      }
      continue;
    }
    ++out.committed;
    out.latencies_us.push_back(ops[i].completed - ops[i].due);
    latency_sum += ops[i].completed - ops[i].due;
    completions.push_back(ops[i].completed);
    last = std::max(last, ops[i].completed);
  }
  out.virtual_us += last - start;
  rep.gap_us.push_back(LongestGap(completions, start));
  const std::string signature =
      std::to_string(completions.size()) + "/" + std::to_string(last - start) +
      "/" + std::to_string(rep.gap_us.back()) + "/" +
      std::to_string(latency_sum) + "/" +
      std::to_string(after.events - before.events) + ";";
  out.output_digest += signature;
  if (error.empty() && !crashed_primary) {
    error = "geo_failover: replica 0 was not the primary at the crash";
  } else if (error.empty() && restart_ns < 0) {
    error = "geo_failover: the primary never restarted";
  } else if (error.empty()) {
    error = ProtocolChecks(observer, group.auditor());
  }
  out.error = error;

  ++rep.layers.deployments;
  rep.peak_rss_mb = std::max(rep.peak_rss_mb, PeakRssMiB());
  rep.layers.phases.Merge(observer.stats());
  rep.restart_ms.push_back(static_cast<double>(restart_ns) / 1e6);
  if (traced) {
    rep.layers.AddSpans(tracer);
    if (write_spans) {
      WriteSpans(options.spans_path, tracer, observer);
    }
  }
  return signature;
}

RepResult RunGeoFailover(const RepOptions& options) {
  GeoRep rep;
  Rng seeds(options.seed ^ kDeploymentSalt);
  const int deployments = options.setup_only ? 1 : GeoDeployments(options);
  uint64_t first_seed = 0;
  std::string first_signature;
  for (int d = 0; d < deployments && rep.out.error.empty(); ++d) {
    const uint64_t seed = seeds.Next();
    const bool last = d + 1 == deployments;
    std::string signature = RunGeoDeployment(
        options, seed, last && options.traced && !options.spans_path.empty(),
        rep);
    if (d == 0) {
      first_seed = seed;
      first_signature = std::move(signature);
    }
  }
  RepResult& out = rep.out;
  std::sort(rep.setups.begin(), rep.setups.end());
  out.setup_s = rep.setups.empty() ? 0 : rep.setups[rep.setups.size() / 2];
  out.setup_samples = rep.setups.size();
  const int done = rep.layers.deployments;
  if (done == 0) {
    return out;
  }
  // A --trace 0 run of geo_failover is a single rep, so the determinism
  // check is made here: the first deployment, run again from its seed, must
  // reproduce its virtual-time results exactly.
  if (!options.per_layer && out.error.empty()) {
    GeoRep again;
    const std::string signature =
        RunGeoDeployment(options, first_seed, false, again);
    if (!again.out.error.empty()) {
      out.error = again.out.error;
    } else if (signature != first_signature) {
      out.error = "nondeterminism: a geo_failover deployment run twice "
                  "differs";
    }
  }
  // Pooled over every deployment's ops, the stalled failovers included.
  out.latency_p50_us = Percentile(out.latencies_us, 0.5);
  out.latency_p99_us = Percentile(out.latencies_us, 0.99);
  int stalled = 0;
  double gap_sum = 0;
  for (int64_t gap : rep.gap_us) {
    stalled += gap >= kRestartAfter ? 1 : 0;
    gap_sum += static_cast<double>(gap);
  }
  out.longest_gap_us = std::llround(gap_sum / done);
  out.peak_rss_mb = rep.peak_rss_mb;
  char note[160];
  std::snprintf(note, sizeof(note),
                "geo_failover deployments=%d stalled_until_restart=%d "
                "max_unavailable_ms=%.3f",
                done, stalled,
                Ms(*std::max_element(rep.gap_us.begin(), rep.gap_us.end())));
  out.notes.push_back(note);
  out.counts["bft.stalled_failover_ratio"] =
      static_cast<double>(stalled) / done;
  rep.layers.ops = out.committed;
  FillLayers(rep.layers, options.traced, out);
  out.counts["base.restart_bytes_read"] = rep.restart_bytes_read / done;
  out.counts["gen.slot_wait_ms_p99"] = Ms(Percentile(rep.slot_wait_us, 0.99));
  out.counts["gen.backlog_peak"] = static_cast<double>(rep.backlog_peak);
  if (options.traced) {
    std::sort(rep.restart_ms.begin(), rep.restart_ms.end());
    out.wall["base.restart_wall_ms"] = rep.restart_ms[rep.restart_ms.size() / 2];
  }
  return out;
}

}  // namespace

bool WorkloadFromName(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kAndrew, Workload::kKvZipf, Workload::kGeoFailover}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAndrew:
      return "andrew";
    case Workload::kKvZipf:
      return "kv_zipf";
    case Workload::kGeoFailover:
      return "geo_failover";
  }
  return "unknown";
}

RepResult RunRep(const RepOptions& options) {
  if (options.workload == Workload::kGeoFailover) {
    return RunGeoFailover(options);  // measures memory per deployment
  }
  ResetPeakRss();
  RepResult out = options.workload == Workload::kAndrew ? RunAndrew(options)
                                                        : RunKvZipf(options);
  out.peak_rss_mb = PeakRssMiB();
  return out;
}

std::vector<SimTime> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     SimTime horizon) {
  std::vector<SimTime> out;
  Rng rng(seed);
  double t = 0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u is in (0, 1], so log is finite.
    const double u = rng.NextDouble();
    t += -std::log(1.0 - u) / rate_per_s * static_cast<double>(kSecond);
    if (t >= static_cast<double>(horizon)) {
      return out;
    }
    out.push_back(static_cast<SimTime>(t));
  }
}

SimTime LongestGap(std::vector<SimTime> times, SimTime start) {
  std::sort(times.begin(), times.end());
  SimTime longest = 0;
  SimTime prev = start;
  for (SimTime t : times) {
    longest = std::max(longest, t - prev);
    prev = t;
  }
  return longest;
}

}  // namespace perfbench
