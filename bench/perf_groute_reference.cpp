// The pre-kernel (seed) global router, preserved verbatim as the benchmark
// baseline: per-segment full-grid scratch allocation, O(p^2) pin dedup,
// seeded rip-up order, and O(E) per-round history/convergence scans. The
// production kernel in src/route/global_router.cpp must beat this by the
// margins perf_groute.cpp enforces.

#include "perf_groute_reference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

namespace maestro::bench {

using namespace route;
using netlist::InstanceId;
using netlist::NetId;

namespace {

/// One routed two-pin segment: sequence of edge ids.
using Path = std::vector<std::size_t>;

struct Segment {
  GCell from;
  GCell to;
  Path path;
};

/// Nearest-neighbor spanning tree over a net's pin GCells.
std::vector<std::pair<GCell, GCell>> span_net(const std::vector<GCell>& pins) {
  std::vector<std::pair<GCell, GCell>> segs;
  if (pins.size() < 2) return segs;
  if (pins.size() > 32) {
    for (std::size_t i = 1; i < pins.size(); ++i) segs.emplace_back(pins[0], pins[i]);
    return segs;
  }
  std::vector<bool> in_tree(pins.size(), false);
  in_tree[0] = true;
  for (std::size_t added = 1; added < pins.size(); ++added) {
    std::size_t best_out = 0;
    std::size_t best_in = 0;
    std::int64_t best_d = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (in_tree[i]) continue;
      for (std::size_t j = 0; j < pins.size(); ++j) {
        if (!in_tree[j]) continue;
        const std::int64_t d =
            std::abs(static_cast<std::int64_t>(pins[i].col) - static_cast<std::int64_t>(pins[j].col)) +
            std::abs(static_cast<std::int64_t>(pins[i].row) - static_cast<std::int64_t>(pins[j].row));
        if (d < best_d) {
          best_d = d;
          best_out = i;
          best_in = j;
        }
      }
    }
    in_tree[best_out] = true;
    segs.emplace_back(pins[best_in], pins[best_out]);
  }
  return segs;
}

/// A* maze route with full-grid scratch arrays allocated per call — the
/// allocation-and-infinity-fill the MazeArena was built to eliminate.
Path maze_route(const GridGraph& g, const GCell& from, const GCell& to, double present_w,
                double history_w) {
  constexpr std::uint32_t kMargin = 6;
  const std::uint32_t win_clo =
      std::min(from.col, to.col) > kMargin ? std::min(from.col, to.col) - kMargin : 0;
  const std::uint32_t win_chi = std::min<std::uint32_t>(
      std::max(from.col, to.col) + kMargin, static_cast<std::uint32_t>(g.cols()) - 1);
  const std::uint32_t win_rlo =
      std::min(from.row, to.row) > kMargin ? std::min(from.row, to.row) - kMargin : 0;
  const std::uint32_t win_rhi = std::min<std::uint32_t>(
      std::max(from.row, to.row) + kMargin, static_cast<std::uint32_t>(g.rows()) - 1);
  auto in_window = [&](const GCell& c) {
    return c.col >= win_clo && c.col <= win_chi && c.row >= win_rlo && c.row <= win_rhi;
  };

  const std::size_t n = g.node_count();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> prev_edge(n, std::numeric_limits<std::size_t>::max());
  std::vector<std::size_t> prev_node(n, std::numeric_limits<std::size_t>::max());

  auto heuristic = [&](std::size_t id) {
    const GCell c = g.cell_of(id);
    return static_cast<double>(
        std::abs(static_cast<std::int64_t>(c.col) - static_cast<std::int64_t>(to.col)) +
        std::abs(static_cast<std::int64_t>(c.row) - static_cast<std::int64_t>(to.row)));
  };
  auto edge_cost = [&](std::size_t e) {
    const double util = g.capacity(e) > 0.0 ? g.usage(e) / g.capacity(e) : 10.0;
    double cost = 1.0;
    if (util > 0.6) cost += present_w * (util - 0.6) * (util - 0.6) * 12.0;
    if (g.usage(e) >= g.capacity(e)) cost += present_w * 8.0;
    cost += history_w * g.history(e);
    return cost;
  };

  using QItem = std::pair<double, std::size_t>;  // (f-score, node)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> open;
  const std::size_t s = g.node_id(from);
  const std::size_t t = g.node_id(to);
  dist[s] = 0.0;
  open.emplace(heuristic(s), s);

  while (!open.empty()) {
    const auto [f, u] = open.top();
    open.pop();
    if (u == t) break;
    if (f > dist[u] + heuristic(u) + 1e-9) continue;  // stale entry
    const GCell c = g.cell_of(u);
    struct Nb {
      bool ok;
      std::size_t node;
      std::size_t edge;
    };
    const Nb nbs[4] = {
        {c.col + 1 < g.cols(), u + 1, c.col + 1 < g.cols() ? g.edge_id(c, Dir::East) : 0},
        {c.col > 0, u - 1, c.col > 0 ? g.edge_id({c.col - 1, c.row}, Dir::East) : 0},
        {c.row + 1 < g.rows(), u + g.cols(), c.row + 1 < g.rows() ? g.edge_id(c, Dir::North) : 0},
        {c.row > 0, u - g.cols(), c.row > 0 ? g.edge_id({c.col, c.row - 1}, Dir::North) : 0},
    };
    for (const auto& nb : nbs) {
      if (!nb.ok) continue;
      if (!in_window(g.cell_of(nb.node))) continue;
      const double nd = dist[u] + edge_cost(nb.edge);
      if (nd < dist[nb.node] - 1e-12) {
        dist[nb.node] = nd;
        prev_edge[nb.node] = nb.edge;
        prev_node[nb.node] = u;
        open.emplace(nd + heuristic(nb.node), nb.node);
      }
    }
  }

  Path path;
  if (!std::isfinite(dist[t])) return path;  // unreachable (shouldn't happen)
  for (std::size_t v = t; v != s; v = prev_node[v]) {
    path.push_back(prev_edge[v]);
    assert(prev_node[v] != std::numeric_limits<std::size_t>::max());
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Seed rip-up-and-reroute loop: seeded shuffle + longest-first order,
/// sequential selective rip-up, O(E) history charge per round.
RouteResult route_collected(std::vector<Segment>& segments, const RouteOptions& opt,
                            GridGraph& graph, util::Rng& rng) {
  rng.shuffle(segments);
  std::stable_sort(segments.begin(), segments.end(), [](const Segment& a, const Segment& b) {
    const auto la = std::abs(static_cast<std::int64_t>(a.from.col) - a.to.col) +
                    std::abs(static_cast<std::int64_t>(a.from.row) - a.to.row);
    const auto lb = std::abs(static_cast<std::int64_t>(b.from.col) - b.to.col) +
                    std::abs(static_cast<std::int64_t>(b.from.row) - b.to.row);
    return la > lb;
  });

  RouteResult res;
  for (int round = 0; round < opt.max_rounds; ++round) {
    res.rounds_used = round + 1;
    for (auto& seg : segments) {
      if (round > 0) {
        bool congested = false;
        for (const std::size_t e : seg.path) {
          if (graph.usage(e) > graph.capacity(e)) {
            congested = true;
            break;
          }
        }
        if (!congested) continue;
      }
      for (const std::size_t e : seg.path) graph.add_usage(e, -1.0);
      seg.path = maze_route(graph, seg.from, seg.to, opt.present_cost_weight,
                            opt.history_cost_weight);
      for (const std::size_t e : seg.path) graph.add_usage(e, 1.0);
    }
    const double overflow = graph.total_overflow();
    res.overflow_per_round.push_back(overflow);
    if (overflow <= 0.0) {
      res.converged = true;
      break;
    }
    for (std::size_t e = 0; e < graph.edge_count(); ++e) {
      if (graph.usage(e) > graph.capacity(e)) graph.bump_history(e, 1.0);
    }
  }

  double wl = 0.0;
  for (const auto& seg : segments) wl += static_cast<double>(seg.path.size());
  res.wirelength_gcells = wl;
  res.total_overflow = graph.total_overflow();
  res.overflowed_edges = graph.overflowed_edges();
  res.max_utilization = graph.max_utilization();
  if (opt.keep_segments) {
    res.segments.reserve(segments.size());
    for (auto& seg : segments) {
      res.segments.push_back({seg.from, seg.to, std::move(seg.path)});
    }
  }
  return res;
}

}  // namespace

RouteResult global_route_reference(const place::Placement& pl, const RouteOptions& opt,
                                   GridGraph& graph, util::Rng& rng) {
  const auto& nl = pl.netlist();
  graph = GridGraph{opt.gcells_x, opt.gcells_y, opt.h_capacity, opt.v_capacity,
                    geom::GridIndexer{pl.floorplan().core(), opt.gcells_x, opt.gcells_y}};

  std::vector<Segment> segments;
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(static_cast<NetId>(n));
    std::vector<GCell> pins;
    auto add_pin = [&](InstanceId id) {
      const auto [c, r] = graph.indexer().cell_of(pl.pin_of(id));
      const GCell cell{static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(r)};
      // O(p^2) dedup, kept deliberately: this is the baseline being measured.
      if (std::find(pins.begin(), pins.end(), cell) == pins.end()) pins.push_back(cell);
    };
    add_pin(net.driver);
    for (const auto& sink : net.sinks) add_pin(sink.instance);
    for (auto& [a, b] : span_net(pins)) segments.push_back({a, b, {}});
  }
  return route_collected(segments, opt, graph, rng);
}

}  // namespace maestro::bench
