// The benchmark's three workloads, driven through the program's public API.
//
// One call of RunRep builds a fresh deployment from the seed (set-up), runs
// the workload (the timed phase), checks every output and returns what the
// rep measured. The same (workload, seed, size) gives the same inputs and
// therefore the same virtual-time results, which main.cc checks across the
// reps of one run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/simulation.h"

namespace perfbench {

using bftbase::SimTime;

enum class Workload { kAndrew, kKvZipf, kGeoFailover };

bool WorkloadFromName(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

struct RepOptions {
  Workload workload = Workload::kAndrew;
  uint64_t seed = 1;
  bool smoke = false;   // small inputs, for the benchmark's own tests
  bool traced = false;  // decorators, phase spans, auditor
  bool per_layer = false;  // part of a --trace 1 run: fewer geo deployments
  bool setup_only = false;  // return right after set-up
  std::string spans_path;  // traced: write the span file here (if set)
};

struct RepResult {
  std::string error;  // first failed output check; empty when all passed

  // Wall clock.
  double setup_s = 0;  // build deployment + topology + warm-up
  size_t setup_samples = 1;  // set-ups setup_s is the median of
  double timed_s = 0;  // the timed phase
  double timed_cpu_s = 0;  // process CPU time of the timed phase
  double peak_rss_mb = 0;  // peak resident memory (geo: largest deployment's)

  // Client operations of the timed phase.
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;  // failed, timed out or returned wrong output

  // Virtual time.
  std::vector<int64_t> latencies_us;  // commit latency of each op
  // The reported commit-latency percentiles over `latencies_us`, and the
  // longest stretch with no commit (for geo_failover, the mean over its
  // deployments of each one's failover outage).
  int64_t latency_p50_us = 0;
  int64_t latency_p99_us = 0;
  SimTime longest_gap_us = 0;
  SimTime virtual_us = 0;  // virtual length of the timed phase(s)
  double andrew_overhead_pct = -1;    // andrew only
  std::string output_digest;          // workload outputs (history digest)
  std::vector<std::string> notes;     // extra lines for the run's output

  // Per-layer numbers. `counts` are exact for a seed (compared across reps);
  // `wall` are wall-clock layer numbers (traced reps only).
  std::map<std::string, double> counts;
  std::map<std::string, double> wall;
};

RepResult RunRep(const RepOptions& options);

// --- Helpers with their own tests -------------------------------------------

// Poisson arrival times in [0, horizon) at `rate_per_s`, from `seed` only.
std::vector<SimTime> PoissonArrivals(uint64_t seed, double rate_per_s,
                                     SimTime horizon);

// Longest gap between consecutive times in [start, ...] (times unsorted).
SimTime LongestGap(std::vector<SimTime> times, SimTime start);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
