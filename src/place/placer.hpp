#pragma once
// Placement engines: random initial placement, simulated-annealing HPWL
// refinement, and a Tetris-style legalizer. The annealer is a real global
// optimizer whose result quality depends (noisily) on its effort knobs —
// exactly the tool behaviour the paper studies in Figs. 3-5.

#include <cstdint>

#include "place/placement.hpp"
#include "util/rng.hpp"

namespace maestro::place {

/// Place pads at their I/O ring locations and cells at random legal sites.
Placement random_placement(const netlist::Netlist& nl, const Floorplan& fp, util::Rng& rng);

struct AnnealOptions {
  /// Moves attempted = moves_per_cell * #cells. The primary effort knob.
  double moves_per_cell = 50.0;
  double t_initial_frac = 0.05;  ///< initial T as a fraction of initial HPWL/net
  double t_final_frac = 0.0005;
  double swap_fraction = 0.35;   ///< fraction of moves that are cell swaps
  /// Displacement range shrinks from the full core to ~this many sites.
  double final_range_sites = 6.0;
};

struct AnnealResult {
  std::int64_t initial_hpwl = 0;
  std::int64_t final_hpwl = 0;
  std::size_t moves_attempted = 0;
  std::size_t moves_accepted = 0;
};

/// Simulated-annealing placement refinement (in place). Pads stay fixed.
/// Runs the incremental engine (sa_place) over a locally-built DesignView;
/// accept/reject decisions are bitwise identical to the seed annealer
/// (bench/perf_place_reference.hpp).
AnnealResult anneal_placement(Placement& pl, const AnnealOptions& opt, util::Rng& rng);

/// Incremental SA engine over a shared netlist::DesignView: per-move cost is
/// an exact integer HPWL delta from the view's cached net bboxes
/// (trial/commit protocol), so rejected moves never touch the placement and
/// only nets touching moved cells are ever re-examined. Consumes the same
/// RNG stream as the seed reference engine, producing bitwise-identical
/// accept/reject decisions and final placements. The view is sync()'d on
/// entry and left in_sync with `pl` on exit.
AnnealResult sa_place(Placement& pl, netlist::DesignView& view, const AnnealOptions& opt,
                      util::Rng& rng);

/// Tetris legalization: assign cells to rows greedily by y, pack left-to-
/// right without overlap. Returns total displacement in dbu.
geom::Dbu legalize(Placement& pl);

}  // namespace maestro::place
