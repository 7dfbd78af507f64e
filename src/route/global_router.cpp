#include "route/global_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
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

/// The stop rule, a pure function of the overflow series (so an incremental
/// reroute, which replays the same series, stops at the same round). Overflow
/// is never negative, so a stall implies it is still above zero.
bool negotiation_stalled(const std::vector<double>& overflow) {
  const std::size_t n = overflow.size();
  return n >= 3 && overflow[n - 1] > kStalledOverflowRatio * overflow[n - 3];
}

RouteStateKey key_of(const RouteOptions& opt) {
  return {opt.gcells_x,      opt.gcells_y,           opt.h_capacity,
          opt.v_capacity,    opt.max_rounds,         opt.present_cost_weight,
          opt.history_cost_weight};
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

/// Per-net pins and flat canonical-order segments (net ascending, span
/// order) — the working form of RouteState. Paths are stored flat, as
/// 32-bit edge ids: Phase A lays every segment's initial path out in one CSR
/// (fill_initial), copying each path exactly once — from the search results
/// or, for a clean net of an incremental reroute, straight from the
/// previous RouteState — and a segment's current path is that initial path
/// until Phase B reroutes it.
struct NetPlan {
  static constexpr std::uint32_t kNotRerouted = 0xffffffffu;
  using EdgePath = std::vector<std::uint32_t>;

  std::vector<std::uint32_t> net_pin_begin{0};
  std::vector<GCell> pin_cells;
  std::vector<std::uint32_t> net_seg_begin{0};
  std::vector<GCell> seg_from;
  std::vector<GCell> seg_to;
  /// Until fill_initial: segment i's cached Phase-A path is cached_edges[
  /// cached_begin[i], cached_end[i]) (an empty range => needs a search).
  const std::uint32_t* cached_edges = nullptr;
  std::vector<std::uint32_t> cached_begin;
  std::vector<std::uint32_t> cached_end;
  /// After fill_initial: segment i's Phase-A path is initial_edges[
  /// initial_begin[i], initial_begin[i + 1]).
  std::vector<std::uint32_t> initial_begin;
  std::vector<std::uint32_t> initial_edges;
  /// Phase-B paths: rerouted_paths[reroute_slot[i]] once segment i has been
  /// rerouted (kNotRerouted before).
  std::vector<std::uint32_t> reroute_slot;
  std::vector<EdgePath> rerouted_paths;

  std::size_t segment_count() const { return seg_from.size(); }

  bool has_cached_path(std::size_t i) const { return cached_begin[i] != cached_end[i]; }
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

  void add_net(std::vector<GCell> pins) {
    const auto spans = span_net(pins);
    pin_cells.insert(pin_cells.end(), pins.begin(), pins.end());
    net_pin_begin.push_back(static_cast<std::uint32_t>(pin_cells.size()));
    for (const auto& [a, b] : spans) {
      seg_from.push_back(a);
      seg_to.push_back(b);
      cached_begin.push_back(0);
      cached_end.push_back(0);
    }
    net_seg_begin.push_back(static_cast<std::uint32_t>(seg_from.size()));
  }

  /// Append a net whose segments keep their cached Phase-A paths: `begin`
  /// holds the segments' CSR offsets into cached_edges (one more than
  /// segments). Nothing is copied until fill_initial.
  void add_net_cached(std::span<const GCell> pins, std::span<const GCell> from,
                      std::span<const GCell> to, std::span<const std::uint32_t> begin) {
    pin_cells.insert(pin_cells.end(), pins.begin(), pins.end());
    net_pin_begin.push_back(static_cast<std::uint32_t>(pin_cells.size()));
    seg_from.insert(seg_from.end(), from.begin(), from.end());
    seg_to.insert(seg_to.end(), to.begin(), to.end());
    cached_begin.insert(cached_begin.end(), begin.begin(), begin.end() - 1);
    cached_end.insert(cached_end.end(), begin.begin() + 1, begin.end());
    net_seg_begin.push_back(static_cast<std::uint32_t>(seg_from.size()));
  }

  /// Lay out every Phase-A path flat, in canonical order: `found[k]` for
  /// segment `searched[k]` (ascending), the cached range for the rest.
  void fill_initial(const std::vector<std::uint32_t>& searched, const std::vector<Path>& found) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < segment_count(); ++i) total += cached_end[i] - cached_begin[i];
    for (const Path& p : found) total += p.size();
    initial_begin.resize(segment_count() + 1);
    initial_begin[0] = 0;
    initial_edges.resize(total);
    std::uint32_t* out = initial_edges.data();
    std::size_t k = 0;
    for (std::size_t i = 0; i < segment_count(); ++i) {
      if (k < searched.size() && searched[k] == i) {
        for (const std::size_t e : found[k]) *out++ = static_cast<std::uint32_t>(e);
        ++k;
      } else {
        out = std::copy(cached_edges + cached_begin[i], cached_edges + cached_end[i], out);
      }
      initial_begin[i + 1] = static_cast<std::uint32_t>(out - initial_edges.data());
    }
    cached_edges = nullptr;
    cached_begin = {};
    cached_end = {};
  }
};

struct PlanRevisions {
  std::uint64_t netlist = 0;
  std::uint64_t placement = 0;
};

/// The kernel: Phase A (search missing initial paths against the empty
/// grid, commit all in canonical order) + Phase B negotiation rounds (each
/// victim, in canonical order, ripped up, searched and committed) until the
/// overflow reaches zero, the rounds cap, or a stall. `graph` must
/// be freshly constructed (zero usage and history).
RouteResult route_plan(NetPlan& plan, const RouteOptions& opt, GridGraph& graph,
                       const PlanRevisions& revs) {
  static obs::Counter& ripup_counter = obs::Registry::global().counter("route.ripup_segments");
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

  // ---- Phase A: order-independent initial routes on the empty grid ----
  std::vector<std::uint32_t> missing;
  for (std::size_t i = 0; i < n_segs; ++i) {
    if (!plan.has_cached_path(i) && !(plan.seg_from[i] == plan.seg_to[i])) {
      missing.push_back(static_cast<std::uint32_t>(i));
    }
  }
  {
    obs::Span span("groute_phase_a", "route");
    span.arg("segments", static_cast<double>(n_segs))
        .arg("searched", static_cast<double>(missing.size()));
    std::vector<Path> found;
    {
      obs::Span search_span("groute_search", "route");
      found.reserve(missing.size());
      for (const std::uint32_t i : missing) found.push_back(search(i));
    }
    obs::Span commit_span("groute_commit", "route");
    plan.fill_initial(missing, found);
    plan.reroute_slot.assign(n_segs, NetPlan::kNotRerouted);
    // Usage as per-edge counts: one ledger/cost update per touched edge
    // rather than per path visit. Usage stays an exact integer, history is
    // later charged once per overflowed edge and total_overflow() sums in
    // edge order, so the result equals committing path by path.
    std::vector<std::uint32_t> uses(graph.edge_count(), 0);
    for (const std::uint32_t e : plan.initial_edges) ++uses[e];
    for (std::size_t e = 0; e < uses.size(); ++e) {
      if (uses[e] != 0) graph.add_usage(e, static_cast<double>(uses[e]));
    }
  }

  RouteResult res;
  res.rounds_used = 1;
  res.overflow_per_round.push_back(graph.total_overflow());

  // ---- Phase B: negotiation rounds over the overflowed set ----
  std::vector<std::uint32_t> victims;
  std::vector<std::uint8_t> overflowed(graph.edge_count(), 0);
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

    {
      obs::Span reroute_span("groute_reroute", "route");
      reroute_span.arg("victims", static_cast<double>(victims.size()));
      for (const std::uint32_t i : victims) {
        for (const std::uint32_t e : plan.current(i)) graph.add_usage(e, -1.0);
        plan.set_current(i, search(i));
        for (const std::uint32_t e : plan.current(i)) graph.add_usage(e, 1.0);
      }
    }

    ++res.rounds_used;
    res.overflow_per_round.push_back(graph.total_overflow());
    span.arg("round", static_cast<double>(res.rounds_used))
        .arg("ripped", static_cast<double>(victims.size()))
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
  if (opt.keep_state) {
    RouteState& st = res.state;
    st.valid = true;
    st.key = key_of(opt);
    st.netlist_revision = revs.netlist;
    st.placement_revision = revs.placement;
    st.grid_revision = graph.revision();
    st.net_pin_begin = std::move(plan.net_pin_begin);
    st.pin_cells = std::move(plan.pin_cells);
    st.net_seg_begin = std::move(plan.net_seg_begin);
    st.seg_from = std::move(plan.seg_from);
    st.seg_to = std::move(plan.seg_to);
    st.initial_begin = std::move(plan.initial_begin);
    st.initial_edges = std::move(plan.initial_edges);
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
  return route_plan(plan, opt, graph, {nl.revision(), pl.revision()});
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
  return route_plan(plan, opt, graph, {view.structure_revision(), pl.revision()});
}

RouteResult global_route(const place::Placement& pl, const RouteOptions& opt) {
  GridGraph g;
  return global_route(pl, opt, g);
}

RouteResult global_route_incremental(const place::Placement& pl, netlist::DesignView& view,
                                     const RouteOptions& opt, GridGraph& graph,
                                     const RouteResult& prev,
                                     std::span<const netlist::NetId> dirty_nets) {
  static obs::Counter& fallback_counter = obs::Registry::global().counter("route.incr_fallbacks");
  static obs::Counter& reroute_counter = obs::Registry::global().counter("route.incr_reroutes");
  static obs::Counter& nets_counter =
      obs::Registry::global().counter("route.incr_nets_rerouted");
  static obs::Counter& clean_counter = obs::Registry::global().counter("route.incr_clean_hits");

  view.sync(pl.locs(), pl.revision());
  const RouteState& st = prev.state;
  if (!st.valid || st.key != key_of(opt) || st.netlist_revision != view.structure_revision() ||
      st.net_pin_begin.size() != view.net_count() + 1) {
    fallback_counter.add();
    return global_route(pl, view, opt, graph);
  }

  // The plan span covers the staleness scan and the plan build.
  std::optional<obs::Span> plan_span(std::in_place, "groute_plan", "route");
  // Staleness scan: which nets' pins actually changed GCell?
  const geom::GridIndexer indexer{pl.floorplan().core(), opt.gcells_x, opt.gcells_y};
  std::vector<NetId> candidates;
  if (dirty_nets.empty()) {
    candidates.resize(view.net_count());
    for (std::size_t n = 0; n < candidates.size(); ++n) candidates[n] = static_cast<NetId>(n);
  } else {
    candidates.assign(dirty_nets.begin(), dirty_nets.end());
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  }
  std::vector<std::vector<GCell>> new_pins(view.net_count());
  std::vector<bool> net_dirty(view.net_count(), false);
  std::size_t n_dirty = 0;
  std::vector<GCell> pins;
  for (const NetId n : candidates) {
    collect_pins(pins, indexer, [&](InstanceId id) { return view.pin(id); }, view.pins_of(n));
    const std::span<const GCell> cached{st.pin_cells.data() + st.net_pin_begin[n],
                                        static_cast<std::size_t>(st.net_pin_begin[n + 1] -
                                                                 st.net_pin_begin[n])};
    if (!std::equal(pins.begin(), pins.end(), cached.begin(), cached.end())) {
      net_dirty[n] = true;
      new_pins[n] = pins;
      ++n_dirty;
    }
  }

  if (n_dirty == 0 && graph.revision() == st.grid_revision) {
    // Nothing moved across a GCell and the caller's grid is still the one
    // this state produced: the from-scratch result would be bit-identical
    // to the previous one.
    clean_counter.add();
    RouteResult out = prev;
    out.state.placement_revision = pl.revision();
    return out;
  }
  reroute_counter.add();
  nets_counter.add(n_dirty);

  graph = GridGraph{opt.gcells_x, opt.gcells_y, opt.h_capacity, opt.v_capacity, indexer};
  NetPlan plan;
  plan.cached_edges = st.initial_edges.data();
  plan.seg_from.reserve(st.seg_from.size());
  plan.seg_to.reserve(st.seg_to.size());
  plan.cached_begin.reserve(st.seg_from.size());
  plan.cached_end.reserve(st.seg_from.size());
  plan.pin_cells.reserve(st.pin_cells.size());
  for (std::size_t n = 0; n < view.net_count(); ++n) {
    if (net_dirty[n]) {
      plan.add_net(std::move(new_pins[n]));
      continue;
    }
    const std::size_t p0 = st.net_pin_begin[n];
    const std::size_t p1 = st.net_pin_begin[n + 1];
    const std::size_t s0 = st.net_seg_begin[n];
    const std::size_t s1 = st.net_seg_begin[n + 1];
    plan.add_net_cached({st.pin_cells.data() + p0, p1 - p0},
                        {st.seg_from.data() + s0, s1 - s0}, {st.seg_to.data() + s0, s1 - s0},
                        {st.initial_begin.data() + s0, s1 - s0 + 1});
  }
  plan_span.reset();
  return route_plan(plan, opt, graph, {view.structure_revision(), pl.revision()});
}

std::vector<std::size_t> maze_route_segment(const GridGraph& g, const GCell& from,
                                            const GCell& to, double present_weight,
                                            double history_weight) {
  return arena_maze_route(g, thread_arena(), from, to, present_weight, history_weight);
}

}  // namespace maestro::route
