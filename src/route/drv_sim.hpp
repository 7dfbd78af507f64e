#pragma once
// Detailed-routing DRV-convergence simulator.
//
// The paper's doomed-run experiments (Figs. 9-10, the Table-1 error study)
// consume logfiles of a commercial detailed router: per-iteration design-rule
// violation (DRV) counts over the default ~20 rip-up-and-reroute iterations.
// We cannot run that router, so this module is the documented substitution:
// a stochastic DRV process whose *difficulty* is derived from real global-
// routing congestion of our own flow, and whose trajectories exhibit the four
// qualitative regimes visible in Fig. 9:
//
//   clean-converge  : fast geometric decay to ~0 DRVs,
//   late-converge   : slower decay that still ends under the success bar,
//   plateau         : decay stalls at an irreducible violation floor,
//   diverge         : rip-up thrash, violations climb back up late in the run.
//
// The model: DRVs decay geometrically toward a difficulty-dependent floor
// with lognormal per-iteration noise; past a thrash onset, hard runs gain a
// multiplicative growth term. Every run emits a util::ToolLog so corpora can
// be mined exactly like the paper's 1400 industry logfiles.

#include <cstdint>
#include <vector>

#include "route/global_router.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace maestro::route {

/// Difficulty in [0, 1]: 0 = trivially routable, 1 = hopeless.
struct RouteDifficulty {
  double value = 0.3;
};

/// Map observed global-routing congestion to detailed-route difficulty.
/// Overflow fraction and peak utilization both push difficulty up.
RouteDifficulty difficulty_from_congestion(const RouteResult& gr);

struct DrvSimOptions {
  int iterations = 20;          ///< router default (paper: 20-40)
  double initial_drv_scale = 1.0e4;  ///< DRVs at iteration 0 for a mid-size block
  double success_threshold = 200.0;  ///< "<200 DRVs" success bar (Table 1)
  std::uint64_t seed = 1;
};

struct DrvRun {
  std::vector<double> drvs;     ///< DRV count per iteration (index 0 = first)
  bool succeeded = false;       ///< final DRVs < success_threshold
  double difficulty = 0.0;
  util::ToolLog log;            ///< logfile form, for corpus building
};

/// Simulate one detailed-routing run at the given difficulty.
DrvRun simulate_drv_run(const RouteDifficulty& difficulty, const DrvSimOptions& opt,
                        util::Rng& rng);

/// Corpus kinds used by the Table-1 study.
enum class CorpusKind {
  ArtificialLayouts,   ///< training corpus: broad difficulty spread
  CpuFloorplans,       ///< testing corpus: embedded-CPU-like, bimodal difficulty
};

/// Generate a corpus of `count` logfiles of the given kind.
std::vector<DrvRun> make_drv_corpus(CorpusKind kind, std::size_t count, const DrvSimOptions& opt,
                                    util::Rng& rng);

}  // namespace maestro::route
