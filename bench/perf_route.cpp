// perf_route — the batched DRV-simulation benchmark and acceptance gate.
//
// Measures advancing 8 detailed-route seeds (one GWTW round):
//   * sequential — 8 calls to simulate_drv_run, each materializing a full
//     util::ToolLog (the seed pattern used by the multistart drivers)
//   * batched — one simulate_drv_batch call: per-seed SoA state, one RNG
//     stream per seed, no log materialization
// and verifies the batch is bit-identical to the scalar runs.
//
// Acceptance (exits nonzero on regression, so ctest gates it, label
// "route"):
//   * batched 8-seed advance >= 2x faster than 8 sequential runs
//   * every per-seed trajectory and success flag bitwise identical to
//     simulate_drv_run
//
// Results are written as machine-readable JSON (default BENCH_route.json):
//   perf_route [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "route/drv_sim.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace maestro;

namespace {

/// Milliseconds per call: run `fn` `iters` times, take the mean, and return
/// the median over `samples` repetitions (robust to scheduler noise).
template <typename Fn>
double bench_ms(int samples, int iters, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double total =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ms.push_back(total / iters);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_route.json";
  std::puts("=== perf_route: batched multi-seed DRV simulation ===");

  // One GWTW-round-shaped workload: 8 seeds across the difficulty range.
  constexpr std::size_t kRuns = 8;
  std::vector<route::RouteDifficulty> diffs;
  std::vector<std::uint64_t> seeds;
  util::Rng setup_rng{3};
  for (std::size_t i = 0; i < kRuns; ++i) {
    diffs.push_back({0.15 + 0.10 * static_cast<double>(i)});
    seeds.push_back(0x9000 + 17 * i);
  }
  route::DrvSimOptions so;
  so.iterations = 20;
  route::DrvBatchOptions bo;
  bo.iterations = so.iterations;

  // Correctness before speed: batch == scalar per seed, bitwise.
  const route::DrvBatch batch = route::simulate_drv_batch(diffs, seeds, bo);
  bool batch_ok = batch.size() == kRuns;
  for (std::size_t i = 0; i < kRuns; ++i) {
    route::DrvSimOptions o = so;
    o.seed = seeds[i];
    util::Rng r{seeds[i]};
    const route::DrvRun run = route::simulate_drv_run(diffs[i], o, r);
    const auto traj = batch.trajectory(i);
    if (run.drvs.size() != traj.size() ||
        !std::equal(run.drvs.begin(), run.drvs.end(), traj.begin()) ||
        run.succeeded != (batch.succeeded[i] != 0)) {
      batch_ok = false;
    }
  }

  const double seq_ms = bench_ms(5, 40, [&] {
    for (std::size_t i = 0; i < kRuns; ++i) {
      route::DrvSimOptions o = so;
      o.seed = seeds[i];
      util::Rng r{seeds[i]};
      (void)route::simulate_drv_run(diffs[i], o, r);
    }
  });
  const double batch_ms_v = bench_ms(5, 40, [&] { (void)route::simulate_drv_batch(diffs, seeds, bo); });
  const double speedup = batch_ms_v > 0.0 ? seq_ms / batch_ms_v : 0.0;

  const bool speed_pass = speedup >= 2.0;
  const bool pass = speed_pass && batch_ok;

  std::printf("sequential %zu runs : %8.3f ms\n", kRuns, seq_ms);
  std::printf("batched one pass   : %8.3f ms  (%.1fx, gate >= 2x: %s)\n", batch_ms_v, speedup,
              speed_pass ? "OK" : "FAIL");
  std::printf("per-seed trajectories bitwise identical to scalar: %s\n",
              batch_ok ? "OK" : "FAIL");

  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.route.v1"};
  report["runs"] = util::Json{static_cast<double>(kRuns)};
  report["iterations"] = util::Json{static_cast<double>(so.iterations)};
  report["sequential_ms"] = util::Json{seq_ms};
  report["batched_ms"] = util::Json{batch_ms_v};
  report["speedup"] = util::Json{speedup};
  report["speedup_floor"] = util::Json{2.0};
  report["trajectories_bitwise"] = util::Json{batch_ok};
  report["pass"] = util::Json{pass};
  std::ofstream out(out_path);
  out << util::Json{std::move(report)}.dump() << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  return pass ? 0 : 1;
}
