#pragma once
// Negotiated-congestion global router (PathFinder-style), rebuilt as a
// kernel following the TimingGraph/DesignView recipe.
//
// Nets are decomposed into two-pin segments by a nearest-neighbor spanning
// tree. Routing runs in two phases:
//
//  * Phase A (initial): each segment, in canonical order (net ascending,
//    span order), is maze-routed against the grid holding the segments
//    before it, on the router's tracked cost table, and committed as soon
//    as it is found. Present congestion is priced in from the first path,
//    so initial routes spread over the corridors instead of piling onto the
//    same ones; a segment's first path depends on the segments before it.
//  * Phase B (negotiation): rip-up-and-reroute rounds. Each round charges
//    history on the overflowed edges and snapshots the victims, the
//    segments crossing an overflowed edge; then each victim, in canonical
//    order, is ripped up, searched against the grid as the earlier victims
//    left it, and committed. A victim whose search returned the path it
//    already had sits out the next round in which it is a victim: its path
//    stays committed and it is not searched. It is searched again in the
//    round after that. A search that just returned the ripped-up path is
//    the one most likely to return it again, so this skips searches that
//    would change nothing.
//
// Phase B ends at zero overflow, at RouteOptions::max_rounds (the cap,
// counting Phase A as round 1), or once negotiation has stalled: after a
// round r >= 3 whose overflow is still above zero and more than 88% of the
// overflow two rounds earlier (o[r] > 0.88 o[r-2]). Rounds past that point
// buy a few percent of overflow each. On rand@3, where it fires for every
// tool seed, the DRV model's difficulty term is already saturated there, so
// the DRV count does not move; a route stopped below that saturation can end
// with more DRVs. RouteResult::stopped_early and the
// route.rounds_stopped_early counter report it.
//
// Searches run on a MazeArena: window-local, epoch-stamped scratch reused
// across all segments (O(window) per route instead of O(grid), no div/mod
// per node) with one 128-bit key per open-list entry. While a route runs,
// the GridGraph maintains a per-edge cost table for the router's
// (present, history) weights, so a relaxation reads one double instead of
// re-deriving the congestion cost; its incremental overflow ledger makes the
// per-round convergence check and history charging O(overflowed) instead of
// O(E).
//
// Paths live in flat 32-bit arrays: Phase-A paths as one CSR, and a
// segment's current path is its Phase-A path until Phase B replaces it, so
// nothing is deep-copied path by path.
//
// Trace spans (obs): groute_plan (net plan build), groute_phase_a (args
// segments, searched; search and commit interleave, so it has no child
// spans), then one groute_round per negotiation round (args round, ripped =
// victims searched, overflow, and stopped_early = 1 on the round the stall
// rule ends) with children groute_victims and groute_reroute (args victims,
// sat_out). Counters: route.ripup_segments (victims per round, summed) and
// route.sit_outs (victims that sat their round out, summed), so the
// Phase-B searches are their difference; route.rounds_stopped_early
// (routes the stall rule ended).
//
// The incremental reroute that reused cached Phase-A paths of unmoved nets
// is gone: with Phase A pricing congestion, a cached path is no longer the
// path a from-scratch route would find, and every flow routes a fresh
// DesignState anyway.
//
// The kernel draws no random numbers: results are a pure function of
// (placement, options). Seed diversity in the flow comes from placement and
// the DRV simulator, as before.
//
// The router's per-round overflow series also seeds the detailed-route DRV
// simulator: where global routing leaves overflow, detailed routing leaves
// design-rule violations.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/design_view.hpp"
#include "place/placement.hpp"
#include "route/grid_graph.hpp"

namespace maestro::route {

struct RouteOptions {
  std::size_t gcells_x = 32;
  std::size_t gcells_y = 32;
  double h_capacity = 24.0;       ///< tracks per horizontal GCell edge
  double v_capacity = 20.0;
  int max_rounds = 8;             ///< round cap (incl. initial); a stall ends earlier
  double present_cost_weight = 1.0;
  double history_cost_weight = 0.4;
  bool keep_segments = false;     ///< populate RouteResult::segments
};

/// One routed two-pin connection: endpoints plus the edge-id path.
struct RoutedSegment {
  GCell from;
  GCell to;
  std::vector<std::size_t> edges;
};

struct RouteResult {
  double wirelength_gcells = 0.0;   ///< total routed length in GCell edges
  double total_overflow = 0.0;
  std::size_t overflowed_edges = 0;
  double max_utilization = 0.0;
  int rounds_used = 0;
  bool converged = false;           ///< zero overflow reached
  /// Phase B ended on the stall rule before max_rounds (see the header).
  bool stopped_early = false;
  std::vector<double> overflow_per_round;
  /// Per-segment paths, for downstream detailed routing (kept only when
  /// RouteOptions::keep_segments is set).
  std::vector<RoutedSegment> segments;
};

/// Route all nets of the placement; returns the final grid in `graph` for
/// downstream congestion-aware analyses. Deterministic: no RNG input.
RouteResult global_route(const place::Placement& pl, const RouteOptions& opt, GridGraph& graph);

/// View-based variant: pin GCells come from the DesignView's cached pin
/// coordinates (sync()'d here against `pl`) instead of per-pin
/// master/library lookups. Produces a bit-identical RouteResult.
RouteResult global_route(const place::Placement& pl, netlist::DesignView& view,
                         const RouteOptions& opt, GridGraph& graph);

/// Convenience: route and discard the grid.
RouteResult global_route(const place::Placement& pl, const RouteOptions& opt);

/// Single-segment congestion-aware maze route on an existing grid (exposed
/// for the detailed router's rip-up-and-reroute passes). Returns the edge-id
/// path; does NOT update usage — callers add/remove usage themselves. Uses
/// the calling thread's arena.
std::vector<std::size_t> maze_route_segment(const GridGraph& g, const GCell& from,
                                            const GCell& to, double present_weight,
                                            double history_weight);

}  // namespace maestro::route
