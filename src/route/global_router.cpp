#include "route/global_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "route/maze_arena.hpp"

namespace maestro::route {

using netlist::InstanceId;
using netlist::NetId;

namespace {

using Path = std::vector<std::size_t>;

/// Phase B stops once negotiation has stalled: the overflow is still above
/// zero but two rounds kept more than this share of it (o[r] > 0.88 o[r-2]).
constexpr double kStalledOverflowRatio = 0.88;

/// The stop rule, a pure function of the overflow series. Overflow is never
/// negative, so a stall implies it is still above zero.
bool negotiation_stalled(const std::vector<double>& overflow) {
  const std::size_t n = overflow.size();
  return n >= 3 && overflow[n - 1] > kStalledOverflowRatio * overflow[n - 3];
}

/// Deduplicate pin GCells preserving first-seen order. O(p) for the common
/// small nets, O(p log p) for high-fanout nets — the seed's std::find loop
/// was O(p^2), which made hub-net collection quadratic before routing even
/// started.
void dedup_pins(std::vector<GCell>& pins) {
  if (pins.size() <= 16) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pins.size(); ++i) {
      bool seen = false;
      for (std::size_t j = 0; j < kept; ++j) {
        if (pins[j] == pins[i]) {
          seen = true;
          break;
        }
      }
      if (!seen) pins[kept++] = pins[i];
    }
    pins.resize(kept);
    return;
  }
  struct Tagged {
    GCell cell;
    std::uint32_t idx;
  };
  std::vector<Tagged> tagged(pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    tagged[i] = {pins[i], static_cast<std::uint32_t>(i)};
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.cell.col != b.cell.col) return a.cell.col < b.cell.col;
    if (a.cell.row != b.cell.row) return a.cell.row < b.cell.row;
    return a.idx < b.idx;
  });
  tagged.erase(std::unique(tagged.begin(), tagged.end(),
                           [](const Tagged& a, const Tagged& b) { return a.cell == b.cell; }),
               tagged.end());
  std::sort(tagged.begin(), tagged.end(),
            [](const Tagged& a, const Tagged& b) { return a.idx < b.idx; });
  pins.resize(tagged.size());
  for (std::size_t i = 0; i < tagged.size(); ++i) pins[i] = tagged[i].cell;
}

/// Nearest-neighbor spanning tree over a net's pin GCells: returns segment
/// endpoints (classic FLUTE-less topology good enough for congestion work).
std::vector<std::pair<GCell, GCell>> span_net(const std::vector<GCell>& pins) {
  std::vector<std::pair<GCell, GCell>> segs;
  if (pins.size() < 2) return segs;
  if (pins.size() > 32) {
    // High-fanout nets (clock-like): star topology from the first pin; the
    // O(k^3) NN-tree would dominate runtime for no congestion-model benefit.
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

/// Flat canonical-order segments (net ascending, span order) with their
/// paths stored as 32-bit edge ids: every Phase-A path is appended once to
/// one CSR, and a segment's current path is that initial path until Phase B
/// reroutes it.
struct NetPlan {
  static constexpr std::uint32_t kNotRerouted = 0xffffffffu;
  using EdgePath = std::vector<std::uint32_t>;

  std::vector<GCell> seg_from;
  std::vector<GCell> seg_to;
  /// Segment i's Phase-A path is initial_edges[initial_begin[i],
  /// initial_begin[i + 1]).
  std::vector<std::uint32_t> initial_begin{0};
  std::vector<std::uint32_t> initial_edges;
  /// Phase-B paths: rerouted_paths[reroute_slot[i]] once segment i has been
  /// rerouted (kNotRerouted before).
  std::vector<std::uint32_t> reroute_slot;
  std::vector<EdgePath> rerouted_paths;

  std::size_t segment_count() const { return seg_from.size(); }

  std::span<const std::uint32_t> initial(std::size_t i) const {
    return {initial_edges.data() + initial_begin[i],
            static_cast<std::size_t>(initial_begin[i + 1] - initial_begin[i])};
  }
  std::span<const std::uint32_t> current(std::size_t i) const {
    const std::uint32_t slot = reroute_slot[i];
    return slot == kNotRerouted ? initial(i) : std::span<const std::uint32_t>{rerouted_paths[slot]};
  }
  void set_current(std::size_t i, const Path& path) {
    if (reroute_slot[i] == kNotRerouted) {
      reroute_slot[i] = static_cast<std::uint32_t>(rerouted_paths.size());
      rerouted_paths.emplace_back();
    }
    rerouted_paths[reroute_slot[i]].assign(path.begin(), path.end());
  }

  void add_net(const std::vector<GCell>& pins) {
    for (const auto& [a, b] : span_net(pins)) {
      seg_from.push_back(a);
      seg_to.push_back(b);
    }
  }

  /// Append the next segment's Phase-A path (segments in canonical order).
  void add_initial(const Path& path) {
    for (const std::size_t e : path) initial_edges.push_back(static_cast<std::uint32_t>(e));
    initial_begin.push_back(static_cast<std::uint32_t>(initial_edges.size()));
  }
};

/// The kernel: Phase A (each segment, in canonical order, searched against
/// the grid holding the segments before it and committed at once) + Phase B
/// negotiation rounds (each victim, in canonical order, ripped up, searched
/// and committed, unless it sits the round out) until the overflow reaches
/// zero, the rounds cap, or a stall. `graph` must be freshly constructed
/// (zero usage and history).
RouteResult route_plan(NetPlan& plan, const RouteOptions& opt, GridGraph& graph) {
  static obs::Counter& ripup_counter = obs::Registry::global().counter("route.ripup_segments");
  static obs::Counter& sit_out_counter = obs::Registry::global().counter("route.sit_outs");
  static obs::Counter& stopped_counter =
      obs::Registry::global().counter("route.rounds_stopped_early");
  const std::size_t n_segs = plan.segment_count();
  assert(graph.edge_count() <= std::size_t{0xffffffffu});  // 32-bit edge ids

  // The router's own weights are fixed for the whole route: keep their edge
  // costs as a table the searches read instead of re-deriving them.
  graph.track_costs(opt.present_cost_weight, opt.history_cost_weight);
  MazeArena& arena = thread_arena();
  auto search = [&](std::size_t i) {
    return arena_maze_route(graph, arena, plan.seg_from[i], plan.seg_to[i],
                            opt.present_cost_weight, opt.history_cost_weight);
  };

  // ---- Phase A: congestion-aware initial routes, committed as found ----
  {
    obs::Span span("groute_phase_a", "route");
    std::size_t searched = 0;
    for (std::size_t i = 0; i < n_segs; ++i) {
      Path path;
      if (!(plan.seg_from[i] == plan.seg_to[i])) {
        path = search(i);
        for (const std::size_t e : path) graph.add_usage(e, 1.0);
        ++searched;
      }
      plan.add_initial(path);
    }
    span.arg("segments", static_cast<double>(n_segs)).arg("searched", static_cast<double>(searched));
    plan.reroute_slot.assign(n_segs, NetPlan::kNotRerouted);
  }

  RouteResult res;
  res.rounds_used = 1;
  res.overflow_per_round.push_back(graph.total_overflow());

  // ---- Phase B: negotiation rounds over the overflowed set ----
  std::vector<std::uint32_t> victims;
  std::vector<std::uint8_t> overflowed(graph.edge_count(), 0);
  // sits_out[i] = 1: segment i's last search returned the path it already
  // had, so it skips its next round as a victim (path kept, not searched).
  std::vector<std::uint8_t> sits_out(n_segs, 0);
  while (res.overflow_per_round.back() > 0.0 && res.rounds_used < opt.max_rounds) {
    obs::Span span("groute_round", "route");
    {
      obs::Span victims_span("groute_victims", "route");
      // Charge history on overflowed edges (ledger set; each edge exactly
      // once, so iteration order cannot change the resulting costs).
      for (const std::size_t e : graph.overflowed()) graph.bump_history(e, 1.0);

      // Snapshot the victims: segments crossing an overflowed edge (a byte
      // per edge, set from the ledger, so the scan over every path reads
      // one small array).
      for (const std::size_t e : graph.overflowed()) overflowed[e] = 1;
      victims.clear();
      for (std::size_t i = 0; i < n_segs; ++i) {
        for (const std::uint32_t e : plan.current(i)) {
          if (overflowed[e] != 0) {
            victims.push_back(static_cast<std::uint32_t>(i));
            break;
          }
        }
      }
      for (const std::size_t e : graph.overflowed()) overflowed[e] = 0;
    }
    ripup_counter.add(victims.size());
    if (victims.empty()) break;  // external usage only; nothing we can move

    std::size_t sat_out = 0;
    {
      obs::Span reroute_span("groute_reroute", "route");
      for (const std::uint32_t i : victims) {
        if (sits_out[i] != 0) {
          sits_out[i] = 0;
          ++sat_out;
          continue;
        }
        const auto old = plan.current(i);
        for (const std::uint32_t e : old) graph.add_usage(e, -1.0);
        const Path path = search(i);
        const bool unchanged = std::equal(path.begin(), path.end(), old.begin(), old.end());
        sits_out[i] = unchanged ? 1 : 0;
        if (!unchanged) plan.set_current(i, path);
        for (const std::uint32_t e : plan.current(i)) graph.add_usage(e, 1.0);
      }
      reroute_span.arg("victims", static_cast<double>(victims.size()))
          .arg("sat_out", static_cast<double>(sat_out));
    }
    sit_out_counter.add(sat_out);

    ++res.rounds_used;
    res.overflow_per_round.push_back(graph.total_overflow());
    span.arg("round", static_cast<double>(res.rounds_used))
        .arg("ripped", static_cast<double>(victims.size() - sat_out))
        .arg("overflow", res.overflow_per_round.back());
    // The rounds cap still bounds the loop; a stall before it ends the route.
    if (res.rounds_used < opt.max_rounds && negotiation_stalled(res.overflow_per_round)) {
      res.stopped_early = true;
      stopped_counter.add();
      span.arg("stopped_early", 1.0);
      break;
    }
  }
  res.converged = res.overflow_per_round.back() <= 0.0;

  // ---- result assembly (canonical order throughout) ----
  graph.untrack_costs();
  double wl = 0.0;
  for (std::size_t i = 0; i < n_segs; ++i) wl += static_cast<double>(plan.current(i).size());
  res.wirelength_gcells = wl;
  res.total_overflow = graph.total_overflow();
  res.overflowed_edges = graph.overflowed_edges();
  res.max_utilization = graph.max_utilization();
  if (opt.keep_segments) {
    res.segments.reserve(n_segs);
    for (std::size_t i = 0; i < n_segs; ++i) {
      const auto path = plan.current(i);
      res.segments.push_back({plan.seg_from[i], plan.seg_to[i], Path(path.begin(), path.end())});
    }
  }
  return res;
}

/// Collect one net's deduplicated pin GCells through an arbitrary
/// pin-position callback.
template <typename PinOf>
void collect_pins(std::vector<GCell>& pins, const geom::GridIndexer& indexer, PinOf&& pin_of,
                  std::span<const InstanceId> instances) {
  pins.clear();
  for (const InstanceId id : instances) {
    const auto [c, r] = indexer.cell_of(pin_of(id));
    pins.push_back({static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(r)});
  }
  dedup_pins(pins);
}

}  // namespace

RouteResult global_route(const place::Placement& pl, const RouteOptions& opt, GridGraph& graph) {
  const auto& nl = pl.netlist();
  graph = GridGraph{opt.gcells_x, opt.gcells_y, opt.h_capacity, opt.v_capacity,
                    geom::GridIndexer{pl.floorplan().core(), opt.gcells_x, opt.gcells_y}};
  NetPlan plan;
  {
    obs::Span plan_span("groute_plan", "route");
    std::vector<GCell> pins;
    std::vector<InstanceId> instances;
    for (std::size_t n = 0; n < nl.net_count(); ++n) {
      const auto& net = nl.net(static_cast<NetId>(n));
      instances.clear();
      instances.push_back(net.driver);
      for (const auto& sink : net.sinks) instances.push_back(sink.instance);
      collect_pins(pins, graph.indexer(), [&](InstanceId id) { return pl.pin_of(id); },
                   instances);
      plan.add_net(pins);
    }
  }
  return route_plan(plan, opt, graph);
}

RouteResult global_route(const place::Placement& pl, netlist::DesignView& view,
                         const RouteOptions& opt, GridGraph& graph) {
  view.sync(pl.locs(), pl.revision());
  graph = GridGraph{opt.gcells_x, opt.gcells_y, opt.h_capacity, opt.v_capacity,
                    geom::GridIndexer{pl.floorplan().core(), opt.gcells_x, opt.gcells_y}};
  NetPlan plan;
  {
    obs::Span plan_span("groute_plan", "route");
    std::vector<GCell> pins;
    for (std::size_t n = 0; n < view.net_count(); ++n) {
      collect_pins(pins, graph.indexer(), [&](InstanceId id) { return view.pin(id); },
                   view.pins_of(static_cast<NetId>(n)));
      plan.add_net(pins);
    }
  }
  return route_plan(plan, opt, graph);
}

RouteResult global_route(const place::Placement& pl, const RouteOptions& opt) {
  GridGraph g;
  return global_route(pl, opt, g);
}

std::vector<std::size_t> maze_route_segment(const GridGraph& g, const GCell& from,
                                            const GCell& to, double present_weight,
                                            double history_weight) {
  return arena_maze_route(g, thread_arena(), from, to, present_weight, history_weight);
}

}  // namespace maestro::route
