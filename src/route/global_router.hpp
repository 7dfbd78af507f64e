#pragma once
// Negotiated-congestion global router (PathFinder-style), rebuilt as a
// kernel following the TimingGraph/DesignView recipe.
//
// Nets are decomposed into two-pin segments by a nearest-neighbor spanning
// tree. Routing runs in two phases:
//
//  * Phase A (initial): every segment is maze-routed independently against
//    the empty grid. Initial paths therefore depend only on the segment's
//    endpoints and the grid dimensions — they are order-independent and
//    cacheable across reroutes of the same placement (the incremental entry
//    point below reuses them verbatim for nets whose pins did not move).
//  * Phase B (negotiation): rip-up-and-reroute rounds. Each round charges
//    history on the overflowed edges and snapshots the victims, the
//    segments crossing an overflowed edge; then each victim, in canonical
//    (ascending segment) order, is ripped up, searched against the grid as
//    the earlier victims left it, and committed.
//
// Phase B ends at zero overflow, at RouteOptions::max_rounds (the cap,
// counting Phase A as round 1), or once negotiation has stalled: after a
// round r >= 3 whose overflow is still above zero and more than 88% of the
// overflow two rounds earlier (o[r] > 0.88 o[r-2]). Rounds past that point
// buy a few percent of overflow each. On rand@3, where it fires for every
// tool seed, the DRV model's difficulty term is already saturated there, so
// the DRV count does not move; a route stopped below that saturation can end
// with more DRVs. The rule reads only the overflow series, so an incremental
// reroute stops at the same round as a from-scratch route;
// RouteResult::stopped_early and the route.rounds_stopped_early counter
// report it.
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
// Commit work is kept proportional to what changed: Phase A commits
// usage as one add_usage(e, count) per touched edge, and paths live in flat
// 32-bit arrays — Phase-A paths as one CSR (an incremental reroute copies a
// clean net's cached paths once, as a range) and a segment's current path
// is its Phase-A path until Phase B replaces it, so nothing is deep-copied
// path by path.
//
// Trace spans (obs): groute_plan (net plan build), groute_phase_a (args
// segments, searched) with children groute_search and groute_commit, then
// one groute_round per negotiation round (args round, ripped, overflow, and
// stopped_early = 1 on the round the stall rule ends) with children
// groute_victims and groute_reroute (arg victims). Counters:
// route.ripup_segments (victims per round, summed) and
// route.rounds_stopped_early (routes the stall rule ended).
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
  bool keep_state = false;        ///< populate RouteResult::state for incremental reroute
};

/// One routed two-pin connection: endpoints plus the edge-id path.
struct RoutedSegment {
  GCell from;
  GCell to;
  std::vector<std::size_t> edges;
};

/// The algorithmic fields of RouteOptions that determine the routing result.
/// Incremental reroute refuses to reuse state across a key mismatch.
struct RouteStateKey {
  std::size_t gcells_x = 0;
  std::size_t gcells_y = 0;
  double h_capacity = 0.0;
  double v_capacity = 0.0;
  int max_rounds = 0;
  double present_cost_weight = 0.0;
  double history_cost_weight = 0.0;
  friend bool operator==(const RouteStateKey&, const RouteStateKey&) = default;
};

/// Reusable routing state captured by a keep_state route: per-net pin GCells
/// (to detect which nets a placement change actually moved across GCells)
/// and per-segment Phase-A paths (reused verbatim for clean nets). Keyed to
/// the netlist/placement/grid revisions it was built from.
struct RouteState {
  bool valid = false;
  RouteStateKey key;
  std::uint64_t netlist_revision = 0;
  std::uint64_t placement_revision = 0;
  std::uint64_t grid_revision = 0;  ///< GridGraph::revision() at completion

  /// Per-net pin GCells (deduplicated, first-seen order): CSR over nets.
  std::vector<std::uint32_t> net_pin_begin;
  std::vector<GCell> pin_cells;
  /// Per-net segment ranges: CSR over nets into the flat segment arrays,
  /// which hold segments in canonical order (net ascending, span order).
  std::vector<std::uint32_t> net_seg_begin;
  std::vector<GCell> seg_from;
  std::vector<GCell> seg_to;
  /// Phase-A paths, flat: segment i's edges are initial_edges[
  /// initial_begin[i], initial_begin[i + 1]) (a CSR over segments, so an
  /// incremental reroute copies a clean net's paths as one range).
  std::vector<std::uint32_t> initial_begin;
  std::vector<std::uint32_t> initial_edges;
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
  /// Incremental-reroute state (kept only when RouteOptions::keep_state).
  RouteState state;
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

/// Incremental reroute: reuse `prev.state` (a keep_state result for the same
/// netlist and options), re-span and re-route Phase A only for nets whose
/// pins changed GCell, then replay the negotiation rounds. The final
/// RouteResult and grid are bitwise identical to a from-scratch
/// global_route(pl, view, opt, graph) on the new placement.
///
/// `dirty_nets` narrows the staleness scan to the given nets (callers that
/// know which cells moved); pass an empty span to scan every net (O(pins) —
/// still far cheaper than routing). Falls back to a full route when
/// `prev.state` is missing, the netlist revision moved, or the option key
/// mismatches (counter route.incr_fallbacks). When nothing moved and the
/// caller's graph still carries the state's grid revision, returns `prev`
/// untouched.
RouteResult global_route_incremental(const place::Placement& pl, netlist::DesignView& view,
                                     const RouteOptions& opt, GridGraph& graph,
                                     const RouteResult& prev,
                                     std::span<const netlist::NetId> dirty_nets);

/// Single-segment congestion-aware maze route on an existing grid (exposed
/// for the detailed router's rip-up-and-reroute passes). Returns the edge-id
/// path; does NOT update usage — callers add/remove usage themselves. Uses
/// the calling thread's arena.
std::vector<std::size_t> maze_route_segment(const GridGraph& g, const GCell& from,
                                            const GCell& to, double present_weight,
                                            double history_weight);

}  // namespace maestro::route
