#include "route/detail_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace maestro::route {

namespace {

/// Per-iteration violation snapshot.
struct Violations {
  double track_overflow = 0.0;   ///< sum of excess wires over tracks, per edge
  double via_overflow = 0.0;     ///< sum of excess vias over budget, per cell
  std::size_t via_count = 0;
  std::vector<char> edge_hot;    ///< per-edge: over track capacity
  std::vector<char> cell_hot;    ///< per-cell: over via budget

  double drvs(const DetailRouteOptions& opt) const {
    return opt.short_weight * track_overflow + opt.via_weight * via_overflow;
  }
};

/// Vias of one segment: one per direction change, plus one per endpoint
/// (pin access). Accumulates into per-cell counts.
void count_segment_vias(const GridGraph& g, const RoutedSegment& seg,
                        std::vector<double>& via_per_cell, std::size_t* total) {
  via_per_cell[g.node_id(seg.from)] += 1.0;
  via_per_cell[g.node_id(seg.to)] += 1.0;
  if (total) *total += 2;
  for (std::size_t i = 1; i < seg.edges.size(); ++i) {
    if (g.is_east(seg.edges[i - 1]) == g.is_east(seg.edges[i])) continue;
    // Direction change: the via sits at the cell shared by both edges.
    const auto [a0, a1] = g.edge_cells(seg.edges[i - 1]);
    const auto [b0, b1] = g.edge_cells(seg.edges[i]);
    GCell shared = a0;
    if (a0 == b0 || a0 == b1) shared = a0;
    else shared = a1;
    via_per_cell[g.node_id(shared)] += 1.0;
    if (total) *total += 1;
  }
}

Violations measure(const GridGraph& g, const std::vector<RoutedSegment>& segments,
                   const std::vector<double>& pin_density, const DetailRouteOptions& opt,
                   std::size_t* via_total) {
  Violations v;
  v.edge_hot.assign(g.edge_count(), 0);
  v.cell_hot.assign(g.node_count(), 0);

  // Track overflow: usage is maintained on the grid by the caller.
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const double tracks = std::floor(g.capacity(e) * opt.track_utilization);
    const double over = g.usage(e) - tracks;
    if (over > 0.0) {
      v.track_overflow += over;
      v.edge_hot[e] = 1;
    }
  }
  // Via overflow: segment turns + endpoints + placed pin demand. Demand is
  // smoothed over the 4-neighborhood — a router can reach pins from adjacent
  // GCells, so isolated demand spikes are partially absorbable.
  std::vector<double> raw = pin_density;
  std::size_t total = 0;
  for (const auto& seg : segments) count_segment_vias(g, seg, raw, &total);
  if (via_total) *via_total = total;
  std::vector<double> vias(raw.size(), 0.0);
  for (std::size_t c = 0; c < g.node_count(); ++c) {
    const GCell cell = g.cell_of(c);
    double acc = 0.6 * raw[c];
    double weight = 0.6;
    auto nb = [&](std::int64_t dc, std::int64_t dr) {
      const std::int64_t col = static_cast<std::int64_t>(cell.col) + dc;
      const std::int64_t row = static_cast<std::int64_t>(cell.row) + dr;
      if (col < 0 || row < 0 || col >= static_cast<std::int64_t>(g.cols()) ||
          row >= static_cast<std::int64_t>(g.rows())) {
        return;
      }
      acc += 0.1 * raw[g.node_id({static_cast<std::uint32_t>(col),
                                  static_cast<std::uint32_t>(row)})];
      weight += 0.1;
    };
    nb(1, 0);
    nb(-1, 0);
    nb(0, 1);
    nb(0, -1);
    vias[c] = acc / weight * 1.0;  // normalized smoothing
  }
  for (std::size_t c = 0; c < g.node_count(); ++c) {
    const double over = vias[c] - opt.vias_per_cell;
    if (over > 0.0) {
      v.via_overflow += over;
      v.cell_hot[c] = 1;
    }
  }
  v.via_count = total;
  return v;
}

bool segment_violating(const GridGraph& g, const RoutedSegment& seg, const Violations& v) {
  for (const std::size_t e : seg.edges) {
    if (v.edge_hot[e]) return true;
  }
  if (v.cell_hot[g.node_id(seg.from)] || v.cell_hot[g.node_id(seg.to)]) return true;
  return false;
}

}  // namespace

DetailRouteResult detail_route(const place::Placement& pl, GridGraph& grid,
                               std::vector<RoutedSegment>& segments,
                               const DetailRouteOptions& opt, util::Rng& rng) {
  DetailRouteResult res;
  res.log.tool = "detail_route_track";
  res.log.design = pl.netlist().name();

  // Fixed pin-access demand per GCell from the placement.
  std::vector<double> pin_density(grid.node_count(), 0.0);
  const auto& nl = pl.netlist();
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto [c, r] = grid.indexer().cell_of(pl.pin_of(id));
    const auto& m = nl.master_of(id);
    // Roughly half of cell pins are satisfied by same-layer (M1) access and
    // never consume a routing via.
    pin_density[grid.node_id({static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(r)})] +=
        0.5 * (static_cast<double>(netlist::input_count(m.function)) + 1.0);
  }

  std::vector<std::uint32_t> old_edges;  // 32-bit copy of a ripped-up path

  for (int it = 0; it < opt.max_iterations; ++it) {
    // Span per rip-up-and-reroute iteration: DRV count and overflow land as
    // args, elapsed time is the span's own duration — the "tool logfile as
    // time series" view of the router's convergence budget.
    obs::Span it_span("droute_iter", "route");
    obs::Registry::global().counter("route.droute_iterations").add();
    res.iterations_used = it + 1;
    std::size_t via_total = 0;
    const Violations v = measure(grid, segments, pin_density, opt, &via_total);
    const double drvs = v.drvs(opt);
    it_span.arg("iteration", static_cast<double>(it))
        .arg("drvs", drvs)
        .arg("track_overflow", v.track_overflow)
        .arg("via_overflow", v.via_overflow);

    util::LogIteration li;
    li.iteration = it;
    li.values["drvs"] = drvs;
    li.values["track_overflow"] = v.track_overflow;
    li.values["via_overflow"] = v.via_overflow;
    res.log.iterations.push_back(li);
    res.drvs_per_iteration.push_back(drvs);
    res.final_drvs = drvs;
    res.track_overflow = v.track_overflow;
    res.via_overflow = v.via_overflow;
    res.via_count = via_total;
    if (drvs <= 0.0) {
      res.converged = true;
      break;
    }

    // Charge history on hot edges so reroutes detour around them.
    for (std::size_t e = 0; e < grid.edge_count(); ++e) {
      if (v.edge_hot[e]) grid.bump_history(e, 1.0);
    }
    // Rip up a fraction of the violating segments and reroute them.
    std::vector<std::size_t> victims;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      if (segment_violating(grid, segments[s], v)) victims.push_back(s);
    }
    rng.shuffle(victims);
    const auto n_rip = static_cast<std::size_t>(
        std::ceil(opt.rip_fraction * static_cast<double>(victims.size())));
    for (std::size_t k = 0; k < n_rip; ++k) {
      auto& seg = segments[victims[k]];
      for (const std::size_t e : seg.edges) grid.add_usage(e, -1.0);
      // The ripped-up path bounds its own reroute.
      old_edges.assign(seg.edges.begin(), seg.edges.end());
      seg.edges = maze_route_segment(grid, seg.from, seg.to, 1.2, 0.6, old_edges);
      for (const std::size_t e : seg.edges) grid.add_usage(e, 1.0);
    }
  }
  res.succeeded = res.final_drvs < opt.success_threshold;
  res.log.completed = true;
  res.log.metadata["engine"] = "track";
  res.log.metadata["succeeded"] = res.succeeded ? "1" : "0";
  return res;
}

}  // namespace maestro::route
