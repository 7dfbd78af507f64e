// FIG6 — Go-with-the-winners (a) and adaptive multistart in a big-valley
// landscape (b) (paper Fig. 6, refs [2][24][5][12]).
//
// (a) GWTW versus the same population WITHOUT cloning, equal budget: the
//     periodic clone-the-winners resampling should reach lower cost.
// (b) Adaptive multistart versus random multistart at equal start budget on
//     a big-valley landscape (adaptive wins) and on a structureless
//     scattered-minima control (no advantage) — the "big valley" is exactly
//     what adaptive multistart exploits.
// (c) GWTW over detailed-route DRV trajectories (route::simulate_drv_run per
//     thread and round), run on one thread and on a 4-thread pool: the two
//     campaigns must be bit-identical.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "exec/executor.hpp"
#include "opt/gwtw.hpp"
#include "opt/landscape.hpp"
#include "opt/local_search.hpp"
#include "opt/multistart.hpp"
#include "route/drv_sim.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace mo = maestro::opt;
using maestro::util::Rng;

namespace {
mo::GwtwProblem<std::vector<double>> problem_for(const mo::Landscape& f) {
  mo::GwtwProblem<std::vector<double>> prob;
  prob.init = [&f](Rng& rng) { return f.random_point(rng); };
  prob.advance = [&f](const std::vector<double>& x, Rng& rng) {
    mo::SaStepOptions sa;
    sa.temperature = 0.5;
    sa.steps = 80;
    return mo::sa_steps(f, x, f.cost(x), sa, rng).x;
  };
  prob.cost = [&f](const std::vector<double>& x) { return f.cost(x); };
  return prob;
}
}  // namespace

int main() {
  using namespace maestro;
  std::puts("=== FIG6(a): go-with-the-winners vs independent threads ===");

  const mo::BigValleyLandscape valley{8, 3.0, 3.0, 42};
  const auto prob = problem_for(valley);
  util::RunningStats gwtw_cost;
  util::RunningStats indep_cost;
  util::CsvTable rounds{{"round", "gwtw_best", "independent_best"}};
  std::vector<double> gwtw_curve;
  std::vector<double> indep_curve;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    mo::GwtwOptions opt;
    opt.population = 10;
    opt.rounds = 14;
    opt.survivor_fraction = 0.4;
    Rng r1{seed};
    const auto g = mo::go_with_the_winners(prob, opt, r1);
    opt.survivor_fraction = 1.0;  // disables cloning -> independent threads
    Rng r2{seed};
    const auto ind = mo::go_with_the_winners(prob, opt, r2);
    gwtw_cost.add(g.best_cost);
    indep_cost.add(ind.best_cost);
    if (seed == 1) {
      gwtw_curve = g.best_per_round;
      indep_curve = ind.best_per_round;
    }
  }
  for (std::size_t r = 0; r < gwtw_curve.size(); ++r) {
    rounds.new_row().add(r).add(gwtw_curve[r], 3).add(indep_curve[r], 3);
  }
  rounds.print(std::cout);
  std::printf("mean best over 8 seeds: GWTW %.3f vs independent %.3f\n", gwtw_cost.mean(),
              indep_cost.mean());

  std::puts("\n=== FIG6(b): adaptive vs random multistart ===");
  mo::MultistartOptions mopt;
  mopt.starts = 30;
  mopt.seed_starts = 6;
  mopt.local.initial_step = 0.3;  // conservative descent: trapped by ripples
  mopt.perturb_frac = 0.04;

  auto compare_on = [&](const mo::Landscape& f, const char* name) {
    util::RunningStats adaptive;
    util::RunningStats random_ms;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng r1{seed};
      Rng r2{seed};
      adaptive.add(mo::adaptive_multistart(f, mopt, r1).best_cost);
      random_ms.add(mo::random_multistart(f, mopt, r2).best_cost);
    }
    std::printf("%-18s adaptive %.3f vs random %.3f (gain %.1f%%)\n", name, adaptive.mean(),
                random_ms.mean(),
                100.0 * (random_ms.mean() - adaptive.mean()) /
                    std::max(std::abs(random_ms.mean()), 1e-9));
    return std::pair{adaptive.mean(), random_ms.mean()};
  };
  const auto [bv_a, bv_r] = compare_on(valley, "big_valley:");
  const mo::ScatteredMinimaLandscape control{8, 43};
  const auto [sc_a, sc_r] = compare_on(control, "scattered_control:");

  std::puts("\n=== FIG6(c): GWTW over DRV runs, 1 vs 4 threads ===");
  // Each GWTW thread is a layout attempt: a round runs one detailed-route
  // campaign at the thread's difficulty; success relaxes the difficulty
  // (ECO cleanup), thrash tightens it. Cost = final DRVs of the round.
  namespace mr = maestro::route;
  struct DrvState {
    mr::RouteDifficulty diff{0.8};
    double final_drvs = 1.0e9;
  };
  constexpr int kDrvIters = 12;
  constexpr double kDrvScale = 5000.0;
  auto step_state = [](const DrvState& s, double final_drvs, bool ok) {
    DrvState next = s;
    next.final_drvs = final_drvs;
    next.diff.value = std::clamp(s.diff.value + (ok ? -0.06 : 0.015), 0.02, 0.98);
    return next;
  };
  mo::GwtwProblem<DrvState> drv_prob;
  drv_prob.init = [](Rng& rng) {
    DrvState s;
    s.diff.value = rng.uniform(0.5, 0.95);
    return s;
  };
  drv_prob.advance = [&step_state](const DrvState& s, Rng& rng) {
    mr::DrvSimOptions o;
    o.iterations = kDrvIters;
    o.initial_drv_scale = kDrvScale;
    const mr::DrvRun run = mr::simulate_drv_run(s.diff, o, rng);
    return step_state(s, run.drvs.back(), run.succeeded);
  };
  drv_prob.cost = [](const DrvState& s) { return s.final_drvs; };

  mo::GwtwOptions drv_opt;
  drv_opt.population = 8;
  drv_opt.rounds = 12;
  drv_opt.survivor_fraction = 0.5;

  Rng serial_rng{7};
  const auto serial = mo::go_with_the_winners(drv_prob, drv_opt, serial_rng);

  // Same campaign on a 4-thread pool: per-thread seeds derive from (round,
  // thread), so the rounds must come out bit-identical.
  maestro::exec::RunExecutor pool{{.threads = 4}};
  mo::GwtwOptions pooled_opt = drv_opt;
  pooled_opt.executor = &pool;
  Rng pooled_rng{7};
  const auto pooled = mo::go_with_the_winners(drv_prob, pooled_opt, pooled_rng);

  const bool drv_identical = serial.best_cost == pooled.best_cost &&
                             serial.best_per_round == pooled.best_per_round &&
                             serial.mean_per_round == pooled.mean_per_round;
  std::printf("best final DRVs: 1 thread %.0f vs 4 threads %.0f\n", serial.best_cost,
              pooled.best_cost);
  std::printf("1-thread and 4-thread rounds bit-identical: %s\n",
              drv_identical ? "OK" : "MISMATCH");

  std::printf("\nShape check vs paper:\n");
  std::printf("  GWTW beats independent threads: %s\n",
              gwtw_cost.mean() < indep_cost.mean() ? "OK" : "MISMATCH");
  std::printf("  adaptive multistart wins on big valley: %s\n", bv_a < bv_r ? "OK" : "MISMATCH");
  // Absolute gain comparison: on the structureless control, every local
  // minimum is equally good, so there is (almost) nothing for the adaptive
  // bet to win; on the big valley the gain is large.
  const double bv_gain = bv_r - bv_a;
  const double sc_gain = sc_r - sc_a;
  std::printf("  advantage comes from big-valley structure (gain %.2f vs %.2f on control): %s\n",
              bv_gain, sc_gain, bv_gain > 10.0 * std::abs(sc_gain) ? "OK" : "MISMATCH");
  return 0;
}
