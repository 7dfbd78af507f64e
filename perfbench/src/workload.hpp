#pragma once
// What every workload receives and reports. main.cpp parses the command
// line, runs one workload and prints its Outcome.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "flow/flow.hpp"

namespace perfbench {

class SpeedProbe;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for stores and sockets (the cwd)
  std::string trace_path;  ///< where a traced run writes its spans
  SpeedProbe* speed = nullptr;  ///< sampled between operations (speed.hpp)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// FNV-1a over the workload's outputs: equal digests mean equal outputs.
  std::uint64_t digest = 0;
  /// The metrics' times and rates are converted to the reference host
  /// (speed.hpp) before they are reported.
  bool reference_host = false;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed output check; the run reports correct=false.
  void fail_check(const std::string& what);
};

Outcome run_flow(const Options& opt);
Outcome run_campaign(const Options& opt);
Outcome run_fleet(const Options& opt);

// ------------------------------------------------------------------ helpers

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// splitmix64: per-case and per-stream seeds derived from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Incremental FNV-1a.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(const std::string& s);
  /// Every FlowResult field except the step logs (the store drops them).
  Digest& add(const maestro::flow::FlowResult& r);
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Field-for-field equality of two FlowResults; step logs are compared only
/// when `with_logs` (results served from a store carry none).
bool same_result(const maestro::flow::FlowResult& a, const maestro::flow::FlowResult& b,
                 bool with_logs = false);

}  // namespace perfbench
