#pragma once
// Host speed probe. Shared hosts drift in speed by 15-45% for minutes at a
// time, while the work itself repeats to within a few percent: two
// ten-seed sets of `flow` runs of the same code, with raw times, spread 22%
// and 26% on ops_per_s. The `flow` workload therefore samples a fixed
// single-thread kernel between operations, while no library thread exists,
// and reports its times on a reference host: the measured time x
// kReferenceMs / the kernel's median sample in the run. Raw values are
// printed beside them and a traced run reports raw per-layer times plus
// obs.time_scale. The kernel
// is benchmark code that no change to the library moves: Dijkstra with a
// binary heap over a fixed 64x64 grid, a branchy, cache-resident load like
// the router's maze search. Over eight 30 s `flow` runs on a 4-vCPU VM, the
// median pass spread 9.3% raw and 5.4% on the reference host. The other
// workloads run four threads at once and do not follow the kernel: scaled,
// `campaign`'s ops_per_s spread 12% against 6% raw over ten runs, and
// `fleet`'s 22% against 10% over six. They report raw times.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class SpeedProbe {
 public:
  static constexpr double kReferenceMs = 10.0;

  SpeedProbe() : weight_(kSide * kSide) {
    std::uint64_t x = 12345;
    for (auto& w : weight_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = 1 + static_cast<std::uint32_t>(x % 97);
    }
  }

  /// Run the kernel once; records and returns its wall time in ms.
  double sample() {
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kNodes = kSide * kSide;
    double total = 0.0;
    std::vector<std::uint32_t> dist(kNodes);
    using Entry = std::pair<std::uint32_t, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::fill(dist.begin(), dist.end(), ~0u);
      const int src = (rep * 977) % kNodes;
      dist[src] = 0;
      heap.push({0, src});
      while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d != dist[u]) continue;
        const int ux = u % kSide;
        const int uy = u / kSide;
        const int next[4] = {ux > 0 ? u - 1 : -1, ux < kSide - 1 ? u + 1 : -1,
                             uy > 0 ? u - kSide : -1, uy < kSide - 1 ? u + kSide : -1};
        for (const int v : next) {
          if (v >= 0 && d + weight_[v] < dist[v]) {
            dist[v] = d + weight_[v];
            heap.push({dist[v], v});
          }
        }
      }
      for (const auto d : dist) total += d;
    }
    sink_ = total;
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    samples_.push_back(ms);
    return ms;
  }

  const std::vector<double>& samples() const { return samples_; }

  /// "fastest/median ms" of the samples so far, for the report.
  std::string summary() const {
    if (samples_.empty()) return "-";
    std::vector<double> v = samples_;
    std::sort(v.begin(), v.end());
    return std::to_string(v.front()) + "/" + std::to_string(v[v.size() / 2]) + " ms";
  }

  /// kReferenceMs / median kernel time: above 1 the host ran faster than
  /// the reference, below 1 slower.
  double scale() const {
    const double m = median(samples_);
    return m > 0.0 ? kReferenceMs / m : 1.0;
  }

 private:
  static constexpr int kSide = 64;
  static constexpr int kRepeats = 24;
  std::vector<std::uint32_t> weight_;
  std::vector<double> samples_;
  volatile double sink_ = 0.0;
};

}  // namespace perfbench
