// FIG7 — Multi-armed-bandit sampling of an SP&R flow (paper Fig. 7,
// ref [25]).
//
// Reproduces the paper's setup: Thompson Sampling over target-frequency
// arms, 40 iterations x 5 concurrent tool runs, PULPino-class testcase with
// power and area constraints. Prints the sampled-frequency trajectory (the
// dots of Fig. 7: successful vs unsuccessful samples, plus the running best)
// and compares TS against softmax and e-greedy, where the paper found TS the
// most robust.

#include <chrono>
#include <cstdio>
#include <iostream>

#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "resil/fault.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main() {
  using namespace maestro;
  std::puts("=== FIG7: MAB sampling of the SP&R flow (5 x 40, Thompson) ===");
  // MAESTRO_FAULTS="crash=0.2,hang=0.05,..." replays the campaign under
  // deterministic chaos; crashed pulls appear as censored samples.
  if (resil::FaultInjector::install_from_env()) {
    std::puts("MAESTRO_FAULTS active: campaign runs under injected faults");
  }

  const auto lib = netlist::make_default_library();
  flow::FlowManager fm{lib};
  flow::DesignSpec design;
  design.kind = flow::DesignSpec::Kind::CpuLike;
  design.scale = 1;
  design.name = "pulpino14";
  // "with given power and area constraints"
  flow::FlowConstraints constraints;
  constraints.max_power_mw = 40.0;
  constraints.max_area_um2 = 12000.0;
  const auto oracle = core::make_flow_oracle(fm, design, flow::FlowTrajectory{}, constraints);

  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(0.3, 3.0, 15);
  opt.iterations = 40;
  opt.concurrency = 5;
  opt.algorithm = ml::PolicyKind::Thompson;
  const core::MabScheduler ts{opt};
  util::Rng rng{2018};
  const auto res = ts.run(oracle, rng);

  // The Fig. 7 scatter: iteration, sampled frequency, success marker, plus
  // the running best-feasible curve.
  util::CsvTable table{{"iteration", "samples(GHz:ok)", "best_feasible_GHz"}};
  for (std::size_t it = 0; it < opt.iterations; ++it) {
    std::string samples;
    for (const auto& s : res.samples) {
      if (s.iteration != it) continue;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f%c ", s.frequency_ghz, s.success ? '+' : '-');
      samples += buf;
    }
    table.new_row().add(it).add(samples).add(res.best_per_iteration[it], 2);
  }
  table.print(std::cout);
  std::printf("runs=%zu successful=%zu best feasible=%.2f GHz regret=%.2f\n", res.total_runs,
              res.successful_runs, res.best_feasible_ghz, res.total_regret);

  // The same campaign on a 1-worker pool and on a MAESTRO_THREADS-wide pool:
  // every run's seed derives from (campaign seed, run index), so the two
  // trajectories must be bitwise identical — the pool only buys wall time.
  std::puts("\n--- RunExecutor: serial vs parallel campaign ---");
  {
    using Clock = std::chrono::steady_clock;
    const std::size_t width = exec::default_thread_count();

    exec::RunExecutor serial_pool{{.threads = 1}};
    util::Rng r_serial{2018};
    const auto t0 = Clock::now();
    const auto serial_res = ts.run(oracle, r_serial, serial_pool);
    const double serial_s = std::chrono::duration<double>(Clock::now() - t0).count();

    exec::RunExecutor parallel_pool{{.threads = width}};
    util::Rng r_parallel{2018};
    const auto t1 = Clock::now();
    const auto parallel_res = ts.run(oracle, r_parallel, parallel_pool);
    const double parallel_s = std::chrono::duration<double>(Clock::now() - t1).count();

    bool identical = serial_res.samples.size() == parallel_res.samples.size() &&
                     serial_res.best_feasible_ghz == parallel_res.best_feasible_ghz &&
                     serial_res.total_regret == parallel_res.total_regret;
    for (std::size_t i = 0; identical && i < serial_res.samples.size(); ++i) {
      identical = serial_res.samples[i].frequency_ghz == parallel_res.samples[i].frequency_ghz &&
                  serial_res.samples[i].success == parallel_res.samples[i].success &&
                  serial_res.samples[i].reward == parallel_res.samples[i].reward;
    }
    std::printf("  threads=1: %.2fs   threads=%zu (MAESTRO_THREADS): %.2fs   speedup=%.2fx\n",
                serial_s, width, parallel_s, parallel_s > 0.0 ? serial_s / parallel_s : 0.0);
    std::printf("  bitwise-identical trajectories: %s\n", identical ? "OK" : "MISMATCH");
    std::printf("  pool journal: %zu runs, total queue wait %.0f ms, total wall %.0f ms\n",
                parallel_pool.journal().size(), parallel_pool.journal().total_queue_wait_ms(),
                parallel_pool.journal().total_wall_ms());
  }

  // Algorithm comparison at equal budget (robustness claim of [25]). Uses a
  // lighter random-logic block so the 4-algorithm x 4-seed sweep stays fast;
  // the explore/exploit structure is identical.
  std::puts("\n--- algorithm comparison (mean over 4 seeds, light design) ---");
  flow::DesignSpec light;
  light.kind = flow::DesignSpec::Kind::RandomLogic;
  light.scale = 1;
  light.name = "sweep_block";
  flow::FlowConstraints light_constraints;
  light_constraints.max_power_mw = 20.0;
  const auto light_oracle =
      core::make_flow_oracle(fm, light, flow::FlowTrajectory{}, light_constraints);
  util::CsvTable cmp{{"algorithm", "best_feasible_GHz", "success_rate", "regret"}};
  for (const auto alg : {ml::PolicyKind::Thompson, ml::PolicyKind::Softmax,
                         ml::PolicyKind::EpsilonGreedy, ml::PolicyKind::Ucb1}) {
    util::RunningStats best;
    util::RunningStats succ;
    util::RunningStats regret;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      core::MabOptions o = opt;
      o.algorithm = alg;
      o.frequency_arms_ghz = core::frequency_arms(0.5, 2.5, 11);
      o.iterations = 15;  // shorter for the sweep
      util::Rng r{seed};
      const auto rr = core::MabScheduler{o}.run(light_oracle, r);
      best.add(rr.best_feasible_ghz);
      succ.add(static_cast<double>(rr.successful_runs) / static_cast<double>(rr.total_runs));
      regret.add(rr.total_regret);
    }
    cmp.new_row()
        .add(ml::to_string(alg))
        .add(best.mean(), 3)
        .add(succ.mean(), 3)
        .add(regret.mean(), 2);
  }
  cmp.print(std::cout);

  std::printf("\nShape check vs paper:\n");
  // Late-phase concentration near the best feasible frequency.
  util::RunningStats early;
  util::RunningStats late;
  for (const auto& s : res.samples) {
    if (s.iteration < 8) early.add(s.frequency_ghz);
    if (s.iteration >= 32) late.add(s.frequency_ghz);
  }
  std::printf("  sampling concentrates (freq spread early %.2f -> late %.2f GHz): %s\n",
              early.stddev(), late.stddev(), late.stddev() < early.stddev() ? "OK" : "MISMATCH");
  std::printf("  best feasible found (%.2f GHz) within arm range: %s\n", res.best_feasible_ghz,
              res.best_feasible_ghz > 0.3 ? "OK" : "MISMATCH");
  const double late_near_best = [&] {
    std::size_t near = 0;
    std::size_t n = 0;
    for (const auto& s : res.samples) {
      if (s.iteration < 32) continue;
      ++n;
      if (std::abs(s.frequency_ghz - res.best_feasible_ghz) < 0.45) ++near;
    }
    return n > 0 ? static_cast<double>(near) / static_cast<double>(n) : 0.0;
  }();
  std::printf("  late samples cluster near best feasible (%.0f%% within 0.45GHz): %s\n",
              100.0 * late_near_best, late_near_best > 0.5 ? "OK" : "MISMATCH");
  return 0;
}
