#include "route/drv_sim.hpp"

#include <algorithm>
#include <cmath>


namespace maestro::route {

RouteDifficulty difficulty_from_congestion(const RouteResult& gr) {
  // Peak utilization matters below 1.0 (headroom vanishing); overflowed edges
  // matter above. Both map into [0,1] with saturation.
  const double util_term = std::clamp((gr.max_utilization - 0.55) / 0.9, 0.0, 1.0);
  const double ovfl_term = std::clamp(gr.total_overflow / 400.0, 0.0, 1.0);
  RouteDifficulty d;
  d.value = std::clamp(0.55 * util_term + 0.65 * ovfl_term, 0.0, 1.0);
  return d;
}

DrvRun simulate_drv_run(const RouteDifficulty& difficulty, const DrvSimOptions& opt,
                        util::Rng& rng) {
  const double d = std::clamp(difficulty.value, 0.0, 1.0);
  DrvRun run;
  run.difficulty = d;
  run.log.tool = "detail_route";
  run.log.seed = opt.seed;
  run.log.metadata["difficulty"] = std::to_string(d);
  run.log.completed = true;

  // Initial violation count grows with difficulty; lognormal run-to-run noise
  // models block-to-block variation.
  const double drv0 =
      opt.initial_drv_scale * (0.3 + 1.4 * d) * std::exp(rng.gauss(0.0, 0.25));

  // Geometric decay rate: easy blocks fix >half their DRVs per iteration;
  // hard blocks barely progress.
  const double rate = 0.45 + 0.50 * d;

  // Irreducible violation floor: negligible for easy blocks, thousands for
  // congested ones (the "plateau" regime of Fig. 9).
  const double floor_drvs = d < 0.35 ? 0.0 : 2.0 * std::exp(9.2 * (d - 0.35) / 0.65);

  // Rip-up thrash: very hard blocks start to *gain* violations late in the
  // run as fixes collide (the "diverge" regime of Fig. 9).
  const bool thrashes = d > 0.72 && rng.chance((d - 0.72) / 0.28 * 0.9);
  const int thrash_onset = static_cast<int>(7 + rng.below(8));
  const double thrash_growth = 1.04 + 0.45 * std::max(d - 0.72, 0.0);

  double drv = drv0;
  for (int t = 0; t < opt.iterations; ++t) {
    const double noise = std::exp(rng.gauss(0.0, 0.11));
    if (thrashes && t >= thrash_onset) {
      drv = drv * thrash_growth * noise + rng.uniform(0.0, 3.0);
    } else {
      drv = (floor_drvs + (drv - floor_drvs) * rate) * noise;
    }
    drv = std::max(drv, 0.0);
    // Small integer-count flakiness near zero.
    const double recorded = std::floor(drv + rng.uniform(0.0, 1.0));
    util::LogIteration it;
    it.iteration = t;
    it.values["drvs"] = recorded;
    it.values["delta_drvs"] =
        run.drvs.empty() ? recorded - std::floor(drv0) : recorded - run.drvs.back();
    run.log.iterations.push_back(std::move(it));
    run.drvs.push_back(recorded);
  }
  run.succeeded = !run.drvs.empty() && run.drvs.back() < opt.success_threshold;
  run.log.metadata["succeeded"] = run.succeeded ? "1" : "0";
  return run;
}

std::vector<DrvRun> make_drv_corpus(CorpusKind kind, std::size_t count, const DrvSimOptions& opt,
                                    util::Rng& rng) {
  std::vector<DrvRun> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RouteDifficulty diff;
    switch (kind) {
      case CorpusKind::ArtificialLayouts:
        // Training corpus: artificial layouts sweep difficulty broadly so the
        // policy sees the whole state space (cf. footnote 5's fill-in rules).
        diff.value = rng.uniform(0.05, 0.95);
        break;
      case CorpusKind::CpuFloorplans:
        // Testing corpus: floorplans of an embedded CPU are bimodal — most
        // are workable, a sizable minority are doomed.
        if (rng.chance(0.62)) {
          diff.value = std::clamp(rng.gauss(0.30, 0.08), 0.02, 0.98);
        } else {
          diff.value = std::clamp(rng.gauss(0.80, 0.08), 0.02, 0.98);
        }
        break;
    }
    DrvSimOptions o = opt;
    o.seed = opt.seed + i;
    util::Rng run_rng{o.seed};
    DrvRun run = simulate_drv_run(diff, o, run_rng);
    run.log.design = (kind == CorpusKind::ArtificialLayouts ? "art" : "cpu_fp") +
                     std::to_string(i);
    corpus.push_back(std::move(run));
  }
  return corpus;
}

}  // namespace maestro::route
