// perfbench: runs one named workload for a wall-clock budget and prints its
// metrics, one per line, then one JSON result line.
//
//   perfbench --workload andrew|kv_zipf|geo_failover --seed N --seconds S
//             --trace 0|1 [--smoke] [--spans FILE] [--git-commit SHA]
//
// A run repeats the workload (a "rep": fresh deployment from the seed, then
// the timed phase) until the budget is spent. Every rep of a run uses the
// same inputs, so their virtual-time results must be identical; a mismatch
// fails the run. wall_ops_per_s is the throughput over the timed phases of
// all reps but the first (a warm-up); the other wall-clock metrics are
// medians over the reps.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates plain and
// traced reps and prints the per-layer metrics; trace.overhead_ratio is the
// plain over the traced wall_ops_per_s.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/crypto/sha256_multi.h"
#include "src/util/workerpool.h"
#include "tracing.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Per-layer metrics of the traced run, in BENCHMARK.json order. Wall-clock
// ones are medians over traced reps; counts and virtual times are exact for
// a seed.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* kind;  // count | virtual | wall
};

const LayerMetric kLayerMetrics[] = {
    {"sim.events_per_op", "events", "count"},
    {"sim.events_requeued_per_op", "events", "count"},
    {"sim.event_pool_reuse_ratio", "ratio", "count"},
    {"sim.peak_queue_depth", "events", "count"},
    {"net.msgs_delivered_per_op", "msgs", "count"},
    {"net.bytes_delivered_per_op", "bytes", "count"},
    {"net.bytes_copied_per_msg", "bytes", "count"},
    {"net.msgs_dropped_per_op", "msgs", "count"},
    {"crypto.sha256_calls_per_op", "calls", "count"},
    {"crypto.sha256_blocks_per_op", "blocks", "count"},
    {"crypto.bytes_hashed_per_op", "bytes", "count"},
    {"crypto.hmac_lane_batches_per_op", "batches", "count"},
    {"crypto.digest_memo_hit_ratio", "ratio", "count"},
    {"bft.batch_size_mean", "requests", "count"},
    {"bft.prepare_ms_p50", "virtual_ms", "virtual"},
    {"bft.commit_ms_p50", "virtual_ms", "virtual"},
    {"bft.execute_lag_ms_p50", "virtual_ms", "virtual"},
    {"bft.client_retries_per_op", "retries", "count"},
    {"bft.timeout_retries_per_op", "retries", "count"},
    {"bft.view_changes", "count", "count"},
    {"bft.view_change_ms", "virtual_ms", "virtual"},
    {"bft.stalled_failover_ratio", "ratio", "count"},
    {"base.checkpoints_per_kop", "count", "count"},
    {"base.checkpoint_stable_ms_p50", "virtual_ms", "virtual"},
    {"base.tree_nodes_rehashed_per_checkpoint", "nodes", "count"},
    {"base.tree_preserved_ratio", "ratio", "count"},
    {"base.getobj_wall_s", "s", "wall"},
    {"base.putobjs_wall_s", "s", "wall"},
    {"base.wal_syncs_per_op", "syncs", "count"},
    {"base.wal_bytes_per_op", "bytes", "count"},
    {"base.restart_wall_ms", "ms", "wall"},
    {"base.restart_bytes_read", "bytes", "count"},
    {"base.state_transfer_ms", "virtual_ms", "virtual"},
    {"basefs.execute_calls_per_op", "calls", "count"},
    {"basefs.execute_self_us_per_op", "us", "wall"},
    {"fs.calls_per_op", "calls", "count"},
    {"fs.linear.call_us_mean", "us", "wall"},
    {"fs.tree.call_us_mean", "us", "wall"},
    {"fs.log.call_us_mean", "us", "wall"},
    {"gen.slot_wait_ms_p99", "virtual_ms", "virtual"},
    {"gen.backlog_peak", "ops", "count"},
    {"trace.overhead_ratio", "ratio", "wall"},
};

struct Args {
  RepOptions rep;
  double seconds = 10;
  bool trace = false;
  std::string git_commit = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "andrew|kv_zipf|geo_failover --seed N --seconds S --trace 0|1 "
               "[--smoke] [--spans FILE] [--git-commit SHA]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      have_workload = WorkloadFromName(value(), &args.rep.workload);
      if (!have_workload) {
        Usage("unknown workload");
      }
    } else if (flag == "--seed") {
      args.rep.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--smoke") {
      args.rep.smoke = true;
    } else if (flag == "--spans") {
      args.rep.spans_path = value();
    } else if (flag == "--git-commit") {
      args.git_commit = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (args.seconds <= 0 || args.seconds > 120) {
    Usage("--seconds must be in (0, 120]");
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double WallOpsPerS(const RepResult& r) {
  return r.timed_s > 0 ? static_cast<double>(r.committed) / r.timed_s : 0;
}

// Ops per wall second over the timed phases of `reps` from `first` on. A
// shared host's speed shifts between levels that last tens of seconds; this
// rate follows the share of the run spent at each, where a median of reps
// jumps between them.
double PooledOpsPerS(const std::vector<RepResult>& reps, size_t first) {
  double committed = 0;
  double timed_s = 0;
  for (size_t i = first; i < reps.size(); ++i) {
    committed += static_cast<double>(reps[i].committed);
    timed_s += reps[i].timed_s;
  }
  return timed_s > 0 ? committed / timed_s : 0;
}

// Everything about a rep that is exact for the seed.
std::string VirtualSignature(const RepResult& r, bool with_counts) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%llu/%llu/%llu/%lld/%lld/%lld/%lld/%.9g/",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.failed),
                static_cast<long long>(r.virtual_us),
                static_cast<long long>(r.latency_p50_us),
                static_cast<long long>(r.latency_p99_us),
                static_cast<long long>(r.longest_gap_us),
                r.andrew_overhead_pct);
  std::string sig = buf + r.output_digest;
  if (with_counts) {
    for (const auto& [name, value] : r.counts) {
      std::snprintf(buf, sizeof(buf), ";%s=%.12g", name.c_str(), value);
      sig += buf;
    }
  }
  return sig;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* kind;  // wall | virtual | count
  size_t samples;
};

void PrintJsonResult(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// Runs a set-up-only rep and records its set-up time; false on an error.
bool RunSetupOnly(RepOptions options, std::vector<double>* setups,
                  std::vector<std::string>* errors) {
  options.setup_only = true;
  const RepResult result = RunRep(options);
  if (!result.error.empty()) {
    errors->push_back(result.error);
    return false;
  }
  setups->push_back(result.setup_s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const char* workload = WorkloadName(args.rep.workload);
  const int64_t run_start = WallNowNs();
  const double budget = args.seconds;
  // Stop starting reps well inside the 180 s limit whatever the budget.
  const double hard_stop = std::max(budget, 150.0);
  // Plain runs time at least three reps, the first a warm-up; traced runs
  // need two pairs (traced reps are slow: the auditor checks after every
  // event). A plain geo_failover run is one rep, whose fixed number of
  // deployments takes 35-43 s, and checks its own determinism.
  const bool geo = args.rep.workload == Workload::kGeoFailover;
  const bool one_rep = geo && !args.rep.smoke && !args.trace;
  const size_t min_reps = args.rep.smoke || args.trace ? 2 : geo ? 1 : 3;

  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<std::string> errors;
  std::vector<double> peak_rss;  // MiB, per plain rep
  std::vector<double> setups;    // s, per plain rep and set-up-only rep
  double longest_rep = 0;
  for (size_t rep = 0;; ++rep) {
    const double elapsed = static_cast<double>(WallNowNs() - run_start) * 1e-9;
    const size_t done = args.trace ? std::min(plain.size(), traced.size())
                                   : plain.size();
    if (done >= min_reps && (elapsed >= budget || one_rep)) {
      break;
    }
    if (done >= std::min<size_t>(min_reps, 2) &&
        elapsed + longest_rep > hard_stop) {
      break;
    }
    RepOptions options = args.rep;
    options.per_layer = args.trace;
    options.traced = args.trace && rep % 2 == 1;
    const int64_t rep_start = WallNowNs();
    RepResult result = RunRep(options);
    longest_rep = std::max(
        longest_rep, static_cast<double>(WallNowNs() - rep_start) * 1e-9);
    if (!options.traced) {
      peak_rss.push_back(result.peak_rss_mb);
      setups.push_back(result.setup_s);
    }
    if (!result.error.empty()) {
      errors.push_back(result.error);
    }
    (options.traced ? traced : plain).push_back(std::move(result));
    if (!errors.empty()) {
      break;  // a wrong output ends the run
    }
    // Set-up is short next to a rep, so a set-up-only rep after each plain
    // rep steadies its median at little cost, and spreads its samples over
    // the run as the host's speed shifts. A geo_failover rep's set-up is
    // already the median over its deployments, spread over the run.
    if (!args.trace && !geo && !RunSetupOnly(args.rep, &setups, &errors)) {
      break;
    }
  }

  // A short run tops the set-up samples up to kSetupSamples.
  const size_t kSetupSamples = 15;
  while (errors.empty() && !args.trace && !geo &&
         setups.size() < kSetupSamples &&
         RunSetupOnly(args.rep, &setups, &errors)) {
  }

  // Determinism: every rep of a mode repeats the first exactly, and traced
  // reps see the same virtual-time results as plain ones.
  if (errors.empty()) {
    const std::string plain_sig = VirtualSignature(plain.front(), true);
    for (const RepResult& r : plain) {
      if (VirtualSignature(r, true) != plain_sig) {
        errors.push_back("nondeterminism: plain reps with one seed differ");
        break;
      }
    }
    if (!traced.empty()) {
      const std::string traced_sig = VirtualSignature(traced.front(), true);
      for (const RepResult& r : traced) {
        if (VirtualSignature(r, true) != traced_sig) {
          errors.push_back("nondeterminism: traced reps with one seed differ");
          break;
        }
      }
      if (VirtualSignature(traced.front(), false) !=
          VirtualSignature(plain.front(), false)) {
        errors.push_back("tracing changed the virtual-time results");
      }
      // A sanity assertion: spans nest on one thread inside the timed
      // phase, so their summed self times cannot exceed it.
      for (const RepResult& r : traced) {
        auto self = r.wall.find("trace.self_s");
        if (self != r.wall.end() && self->second > r.timed_s) {
          errors.push_back("summed layer spans exceed the rep's wall time");
          break;
        }
      }
    }
  }
  const int pool_threads = bftbase::WorkerPool::Global().threads();
  if (pool_threads != 0) {
    errors.push_back("worker pool is not at its default of 0 threads");
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const RepResult& r : *set) {
      attempted += r.attempted;
      // A failed check not tied to one op (replica disagreement, auditor,
      // linearizability, a wrong read in the history) fails the whole rep.
      failed += r.error.empty() || r.failed > 0 ? r.failed : r.attempted;
    }
  }
  if (attempted == 0) {
    attempted = 1;
    failed = 1;
  }
  if (!errors.empty() && failed == 0) {
    failed = attempted;  // a run-wide check failed (determinism, pool)
  }
  const bool correct = errors.empty();
  const RepResult& first = plain.front();

  std::printf("perfbench workload=%s seed=%llu trace=%d smoke=%d\n", workload,
              static_cast<unsigned long long>(args.rep.seed), args.trace ? 1 : 0,
              args.rep.smoke ? 1 : 0);
  std::printf(
      "meta nproc=%ld build_type=%s cxx_flags=\"%s\" compiler=\"%s\" "
      "sha_ni=%d worker_pool_threads=%d git_commit=%s seed=%llu "
      "plain_reps=%zu traced_reps=%zu latency_samples=%zu\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      PERFBENCH_COMPILER, bftbase::sha256_multi::HasShaNi() ? 1 : 0, pool_threads,
      args.git_commit.c_str(), static_cast<unsigned long long>(args.rep.seed),
      plain.size(), traced.size(), first.latencies_us.size());
  for (const std::string& error : errors) {
    std::printf("error %s\n", error.c_str());
  }
  for (const std::string& note : first.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const auto* set : {&plain, &traced}) {
    for (const RepResult& r : *set) {
      std::printf(
          "rep %s setup_s=%.6f timed_s=%.6f timed_cpu_s=%.6f "
          "wall_ops_per_s=%.1f\n",
          set == &plain ? "plain" : "traced", r.setup_s, r.timed_s,
          r.timed_cpu_s, WallOpsPerS(r));
    }
  }

  // The run's first rep warms the heap and caches; it is left out when there
  // are others.
  const size_t warm_up = plain.size() > 1 ? 1 : 0;
  const double plain_ops_per_s = PooledOpsPerS(plain, warm_up);
  std::vector<Metric> metrics;
  if (!args.trace) {
    const size_t n = first.latencies_us.size();
    const size_t setup_samples = geo ? first.setup_samples : setups.size();
    metrics = {
        {"wall_ops_per_s", plain_ops_per_s, "ops/s", "wall",
         plain.size() - warm_up},
        {"setup_s", Median(setups), "s", "wall", setup_samples},
        {"peak_rss_mb", Median(peak_rss), "MiB", "wall", peak_rss.size()},
        {"sim_ops_per_s",
         first.virtual_us > 0 ? static_cast<double>(first.committed) * 1e6 /
                                    static_cast<double>(first.virtual_us)
                              : 0,
         "ops/virtual_s", "virtual", first.committed},
        {"latency_p50_ms",
         static_cast<double>(first.latency_p50_us) / 1000.0,
         "virtual_ms", "virtual", n},
        {"latency_p99_ms",
         static_cast<double>(first.latency_p99_us) / 1000.0,
         "virtual_ms", "virtual", n},
        {"unavailable_ms", static_cast<double>(first.longest_gap_us) / 1000.0,
         "virtual_ms", "virtual", first.committed},
    };
    // Printed and checked, but not in the JSON result: one applies to andrew
    // only, and the other is 0 on every run that passes.
    if (first.andrew_overhead_pct >= 0) {
      std::printf("metric andrew_overhead_pct = %.6f %% [virtual]\n",
                  first.andrew_overhead_pct);
    }
    std::printf("metric failed_frac = %.6f ratio [count, attempted=%llu]\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(attempted));
  } else {
    const RepResult* t = traced.empty() ? &first : &traced.front();
    for (const LayerMetric& m : kLayerMetrics) {
      double value = 0;
      if (std::strcmp(m.name, "trace.overhead_ratio") == 0) {
        const double traced_ops_per_s = PooledOpsPerS(traced, 0);
        value = traced_ops_per_s > 0 ? plain_ops_per_s / traced_ops_per_s : 0;
      } else if (std::strcmp(m.kind, "wall") == 0) {
        std::vector<double> v;
        for (const RepResult& r : traced) {
          auto it = r.wall.find(m.name);
          v.push_back(it == r.wall.end() ? 0 : it->second);
        }
        value = Median(v);
      } else {
        auto it = t->counts.find(m.name);
        value = it == t->counts.end() ? 0 : it->second;
      }
      metrics.push_back({m.name, value, m.unit, m.kind,
                         std::strcmp(m.kind, "wall") == 0 ? traced.size() : 1});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s = %.6f %s [%s, samples=%zu]\n", m.name.c_str(),
                m.value, m.unit, m.kind, m.samples);
  }
  PrintJsonResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
