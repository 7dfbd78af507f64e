#pragma once
// Cooperative cancellation and per-run context for maestro::exec.
//
// A CancelToken is a shared STOP flag: guards (DoomedRunGuard, HmmGuard)
// request cancellation when they judge a run doomed, the run's inner loops
// (detailed-route iterations, flow steps) poll it and bail out, and the
// RunExecutor records the run as cancelled and returns its license. Tokens
// are cheap shared handles — copying one shares the flag.
//
// Determinism contract: cancellation never feeds back into random number
// generation. Every run's RNG is derived from (base seed, run index) via
// SplitMix64 (derive_run_seed), never from scheduling order, so parallel and
// serial execution of the same campaign produce bitwise-identical samples.

#include <chrono>
#include <cstdint>
#include <stop_token>

#include "util/rng.hpp"

namespace maestro::exec {

/// Shared cooperative-cancellation flag over std::stop_source. Copies refer
/// to the same flag; stop_token() lets a std::stop_callback react to the
/// cancellation on the requesting thread instead of polling for it.
class CancelToken {
 public:
  void request_cancel() const { source_.request_stop(); }
  bool cancelled() const { return source_.stop_requested(); }
  std::stop_token stop_token() const { return source_.get_token(); }

 private:
  mutable std::stop_source source_;
};

/// Everything a pooled run receives from the executor: its journal id, its
/// derived seed, its cancellation token and an optional wall-clock deadline.
struct RunContext {
  std::uint64_t run_id = 0;
  std::uint64_t seed = 0;
  CancelToken cancel;
  /// Zero (epoch) means "no deadline".
  std::chrono::steady_clock::time_point deadline{};

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  bool past_deadline() const {
    return has_deadline() && std::chrono::steady_clock::now() > deadline;
  }
  /// Poll point for cooperative loops: cancelled or out of time.
  bool should_stop() const { return cancel.cancelled() || past_deadline(); }
};

/// Derive the RNG seed for run `index` of a campaign with base seed `base`.
/// Two SplitMix64 rounds decorrelate consecutive indices; the result depends
/// only on (base, index), never on which thread runs it or when.
inline std::uint64_t derive_run_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t s = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
  (void)util::splitmix64(s);
  return util::splitmix64(s);
}

}  // namespace maestro::exec
