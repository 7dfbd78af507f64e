#pragma once
// The benchmark's own arithmetic: percentiles with their sample count,
// geometric means, and the self time of a span whose children may overlap
// each other (parallel oracle calls under one driver span). Header-only so
// tests/test_stats.cpp checks exactly what the workloads use.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile and the number of samples it was taken from.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Percentile `p` (0..100) by linear interpolation between closest ranks,
/// the rule numpy and Python's statistics.quantiles(method="inclusive")
/// use. An empty sample gives {0, 0}.
inline Percentile percentile(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = values[lo] + (values[hi] - values[lo]) * frac;
  return out;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive (the mean is undefined there, and 0 is never a valid cost).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// A half-open time interval [start, end).
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `children` clipped to `parent`: overlapping
/// children (parallel work) count once.
inline double covered(const Interval& parent, std::vector<Interval> children) {
  for (auto& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const auto& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

/// Self time: the parent's duration minus the part its children cover.
inline double self_time(const Interval& parent, std::vector<Interval> children) {
  return (parent.end - parent.start) - covered(parent, std::move(children));
}

}  // namespace perfbench
