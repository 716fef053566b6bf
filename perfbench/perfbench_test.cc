// Unit tests for the benchmark's own helpers and decorators. Exits nonzero on
// the first failed check set; prints every failure.
//
//   .bench_build/perfbench/perfbench_test
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/kv_adapter.h"
#include "src/util/percentile.h"
#include "tracing.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void TestPercentile() {
  // The nearest-rank percentile every metric uses. Hand-computed:
  // rank = ceil(q * N), 1-based, over the sorted samples.
  const std::vector<int64_t> five = {50, 15, 40, 20, 35};  // unsorted
  CHECK(bftbase::Percentile(five, 0.0) == 15);
  CHECK(bftbase::Percentile(five, 0.05) == 15);  // ceil(0.25) = 1
  CHECK(bftbase::Percentile(five, 0.30) == 20);  // ceil(1.5) = 2
  CHECK(bftbase::Percentile(five, 0.40) == 20);  // ceil(2.0) = 2, not 3
  CHECK(bftbase::Percentile(five, 0.50) == 35);  // ceil(2.5) = 3
  CHECK(bftbase::Percentile(five, 0.99) == 50);  // ceil(4.95) = 5
  CHECK(bftbase::Percentile(five, 1.0) == 50);
  std::vector<int64_t> hundred;
  for (int64_t i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  CHECK(bftbase::Percentile(hundred, 0.50) == 50);
  CHECK(bftbase::Percentile(hundred, 0.99) == 99);  // not the maximum
  CHECK(bftbase::Percentile(hundred, 0.999) == 100);
  CHECK(bftbase::Percentile({7}, 0.5) == 7);
  CHECK(bftbase::Percentile({7}, 0.99) == 7);
  CHECK(bftbase::Percentile({}, 0.5) == 0);
}

void TestPoissonArrivals() {
  const SimTime horizon = 100 * bftbase::kSecond;
  const auto a = PoissonArrivals(42, 100.0, horizon);
  const auto b = PoissonArrivals(42, 100.0, horizon);
  const auto c = PoissonArrivals(43, 100.0, horizon);
  CHECK(a == b);
  CHECK(a != c);
  // About rate * horizon arrivals, ascending, inside [0, horizon).
  CHECK(a.size() > 9500 && a.size() < 10500);
  bool ordered = true;
  for (size_t i = 0; i < a.size(); ++i) {
    ordered = ordered && a[i] >= 0 && a[i] < horizon &&
              (i == 0 || a[i - 1] <= a[i]);
  }
  CHECK(ordered);
  CHECK(PoissonArrivals(42, 100.0, 0).empty());
}

void TestLongestGap() {
  CHECK(LongestGap({5, 1, 10}, 0) == 5);
  CHECK(LongestGap({5, 1, 10}, -20) == 21);  // the gap from the start counts
  CHECK(LongestGap({}, 0) == 0);
}

void TestTracerSelfTime() {
  Tracer tracer;
  const uint32_t outer = tracer.Begin("outer", 0);
  const uint32_t inner = tracer.Begin("inner", 0);
  tracer.End(inner);
  const uint32_t inner2 = tracer.Begin("inner", 1);
  tracer.End(inner2);
  tracer.End(outer);
  const auto& spans = tracer.spans();
  CHECK(spans.size() == 3);
  CHECK(spans[1].parent == outer && spans[2].parent == outer);
  CHECK(spans[0].parent == 0);
  CHECK(spans[0].child_ns == spans[1].duration_ns() + spans[2].duration_ns());
  CHECK(spans[0].self_ns() >= 0);
  // Self times of nested spans partition the outermost span.
  CHECK(tracer.TotalSelfNs() == spans[0].duration_ns());
  const auto totals = tracer.Totals();
  CHECK(totals.at("inner").count == 2);
  CHECK(totals.at("outer").self_ns == spans[0].self_ns());
  tracer.Clear();
  CHECK(tracer.spans().empty());
}

void TestTracingAdapterForwardsModify() {
  bftbase::Simulation sim(1);
  Tracer tracer;
  TracingAdapter adapter(std::make_unique<bftbase::KvAdapter>(&sim, 16),
                         &tracer, 0);
  std::vector<size_t> modified;
  adapter.SetModifyFn([&](size_t index) { modified.push_back(index); });
  const bftbase::Bytes value = bftbase::ToBytes("v");
  adapter.Execute(bftbase::KvAdapter::EncodeSet(3, value), 4, {}, false);
  CHECK(modified == std::vector<size_t>{3});
  CHECK(adapter.GetObj(3) == value);
  CHECK(adapter.ObjectCount() == 16);
  const auto totals = tracer.Totals();
  CHECK(totals.at("adapter.execute").count == 1);
  CHECK(totals.at("adapter.getobj").count == 1);
}

// Tracing must not change what the simulated service does: a traced rep
// sees exactly the virtual-time results of a plain one.
void TestTracingKeepsVirtualResults() {
  for (Workload w :
       {Workload::kAndrew, Workload::kKvZipf, Workload::kGeoFailover}) {
    RepOptions options;
    options.workload = w;
    options.seed = 5;
    options.smoke = true;
    const RepResult plain = RunRep(options);
    options.traced = true;
    const RepResult traced = RunRep(options);
    CHECK(plain.error.empty());
    CHECK(traced.error.empty());
    CHECK(plain.attempted > 0 && plain.failed == 0);
    CHECK(plain.committed == traced.committed);
    CHECK(plain.virtual_us == traced.virtual_us);
    CHECK(plain.latencies_us == traced.latencies_us);
    CHECK(plain.output_digest == traced.output_digest);
    if (!plain.error.empty() || !traced.error.empty()) {
      std::printf("  %s: %s | %s\n", WorkloadName(w), plain.error.c_str(),
                  traced.error.c_str());
    }
  }
}

}  // namespace

int main() {
  TestPercentile();
  TestPoissonArrivals();
  TestLongestGap();
  TestTracerSelfTime();
  TestTracingAdapterForwardsModify();
  TestTracingKeepsVirtualResults();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
