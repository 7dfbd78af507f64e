// Tests of the benchmark's own arithmetic: percentiles with their sample
// count, geometric means, and interval-union self time for parallel spans.
// Build and run with `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <vector>

#include "../src/spans.hpp"
#include "../src/stats.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++g_failures;
  }
}

void expect_eq(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    std::printf("FAIL %s: got %zu, want %zu\n", what, got, want);
    ++g_failures;
  }
}

void percentiles() {
  using perfbench::percentile;
  // Same rule as numpy.percentile and statistics.quantiles(method="inclusive").
  const std::vector<double> v = {15, 20, 35, 40, 50};
  expect_near(percentile(v, 50).value, 35, "p50 of odd count");
  expect_near(percentile(v, 40).value, 29, "p40 interpolates");
  expect_near(percentile(v, 0).value, 15, "p0 is the minimum");
  expect_near(percentile(v, 100).value, 50, "p100 is the maximum");
  expect_eq(percentile(v, 90).samples, 5, "sample count");
  expect_near(percentile({3, 1, 4, 2}, 50).value, 2.5, "p50 of unsorted even count");
  expect_near(percentile({7}, 99).value, 7, "single sample");
  expect_eq(percentile({}, 50).samples, 0, "empty sample count");
  expect_near(percentile({}, 50).value, 0, "empty value");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  expect_near(percentile(hundred, 99).value, 100, "p99 of 1..101");
  expect_near(perfbench::median({5, 1, 3}), 3, "median");
}

void geomeans() {
  using perfbench::geomean;
  expect_near(geomean({1, 100}), 10, "geomean of two");
  expect_near(geomean({2, 8, 4}), 4, "geomean of three");
  expect_near(geomean({0.5}), 0.5, "geomean of one");
  expect_near(geomean({}), 0, "empty geomean");
  expect_near(geomean({3, 0}), 0, "geomean with a zero");
  expect_near(geomean({3, -1}), 0, "geomean with a negative");
}

void self_times() {
  using perfbench::Interval;
  using perfbench::self_time;
  // Serial children: their lengths add up.
  expect_near(self_time({0, 100}, {{10, 20}, {30, 50}}), 70, "serial children");
  // Parallel children covering the same interval count once.
  expect_near(self_time({0, 100}, {{10, 60}, {10, 60}, {20, 40}, {50, 70}}), 40,
              "overlapping children count once");
  // Children that run past the parent are clipped to it.
  expect_near(self_time({0, 100}, {{-10, 10}, {90, 120}}), 80, "children clipped to parent");
  expect_near(self_time({0, 100}, {{200, 300}}), 100, "child outside parent");
  expect_near(self_time({0, 100}, {}), 100, "no children");
  expect_near(self_time({0, 100}, {{0, 100}, {20, 30}}), 0, "fully covered");
  // Touching intervals merge without double counting.
  expect_near(self_time({0, 100}, {{10, 20}, {20, 30}}), 80, "touching children");
}

void span_log_self_time() {
  // Two overlapping children under one parent, recorded through SpanLog.
  perfbench::SpanLog log;
  log.add({1, 0, 1, "driver", 0, 1000});
  log.add({2, 1, 1, "run", 100, 600});
  log.add({3, 1, 1, "run", 300, 800});
  log.add({4, 0, 2, "run", 0, 5000});  // another root; not a child of 1
  const std::vector<double> self = log.self_ms("driver");
  expect_eq(self.size(), 1, "one driver span");
  if (!self.empty()) expect_near(self[0], 0.3, "driver self ms");
  expect_eq(log.durations_ms("run").size(), 3, "run spans");
}

}  // namespace

int main() {
  percentiles();
  geomeans();
  self_times();
  span_log_self_time();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
