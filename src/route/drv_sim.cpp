#include "route/drv_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

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

DrvRun DrvBatch::run(std::size_t r) const {
  DrvRun out;
  out.difficulty = difficulty[r];
  const auto traj = trajectory(r);
  out.drvs.assign(traj.begin(), traj.end());
  out.succeeded = succeeded[r] != 0;
  if (r < logs.size()) out.log = logs[r];
  return out;
}

DrvBatch simulate_drv_batch(std::span<const RouteDifficulty> difficulties,
                            std::span<const std::uint64_t> seeds, const DrvBatchOptions& opt) {
  assert(difficulties.size() == seeds.size());
  obs::Span span("drv_batch", "route");
  const std::size_t n = seeds.size();

  DrvBatch batch;
  batch.iterations = opt.iterations;
  batch.difficulty.assign(n, 0.0);
  batch.drvs.assign(n * static_cast<std::size_t>(opt.iterations), 0.0);
  batch.succeeded.assign(n, 0);
  if (opt.emit_logs) batch.logs.resize(n);

  // Per-run setup draws, then one t-outer / run-inner pass over the SoA
  // state. Each run owns its util::Rng{seeds[i]}, so its draw sequence — and
  // therefore its trajectory — is bit-identical to simulate_drv_run's, just
  // interleaved across runs.
  std::vector<util::Rng> rng;
  rng.reserve(n);
  std::vector<double> drv(n), drv0(n), rate(n), floor_drvs(n), growth(n);
  std::vector<std::uint8_t> thrashes(n);
  std::vector<int> onset(n);

  for (std::size_t i = 0; i < n; ++i) {
    rng.emplace_back(seeds[i]);
    const double d = std::clamp(difficulties[i].value, 0.0, 1.0);
    batch.difficulty[i] = d;
    drv0[i] = opt.initial_drv_scale * (0.3 + 1.4 * d) * std::exp(rng[i].gauss(0.0, 0.25));
    drv[i] = drv0[i];
    rate[i] = 0.45 + 0.50 * d;
    floor_drvs[i] = d < 0.35 ? 0.0 : 2.0 * std::exp(9.2 * (d - 0.35) / 0.65);
    thrashes[i] = d > 0.72 && rng[i].chance((d - 0.72) / 0.28 * 0.9) ? 1 : 0;
    onset[i] = static_cast<int>(7 + rng[i].below(8));
    growth[i] = 1.04 + 0.45 * std::max(d - 0.72, 0.0);
    if (opt.emit_logs) {
      util::ToolLog& log = batch.logs[i];
      log.tool = "detail_route";
      log.seed = seeds[i];
      log.metadata["difficulty"] = std::to_string(d);
      log.completed = true;
    }
  }

  const auto iters = static_cast<std::size_t>(opt.iterations);
  for (std::size_t t = 0; t < iters; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      const double noise = std::exp(rng[i].gauss(0.0, 0.11));
      double v = drv[i];
      if (thrashes[i] != 0 && static_cast<int>(t) >= onset[i]) {
        v = v * growth[i] * noise + rng[i].uniform(0.0, 3.0);
      } else {
        v = (floor_drvs[i] + (v - floor_drvs[i]) * rate[i]) * noise;
      }
      v = std::max(v, 0.0);
      const double recorded = std::floor(v + rng[i].uniform(0.0, 1.0));
      drv[i] = v;
      batch.drvs[i * iters + t] = recorded;
      if (opt.emit_logs) {
        util::LogIteration it;
        it.iteration = static_cast<int>(t);
        it.values["drvs"] = recorded;
        it.values["delta_drvs"] = t == 0 ? recorded - std::floor(drv0[i])
                                         : recorded - batch.drvs[i * iters + t - 1];
        batch.logs[i].iterations.push_back(std::move(it));
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = iters > 0 && batch.drvs[i * iters + iters - 1] < opt.success_threshold;
    batch.succeeded[i] = ok ? 1 : 0;
    if (opt.emit_logs) batch.logs[i].metadata["succeeded"] = ok ? "1" : "0";
  }

  obs::Registry::global().counter("route.batched_seeds").add(n);
  span.arg("seeds", static_cast<double>(n))
      .arg("iterations", static_cast<double>(opt.iterations));
  return batch;
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
