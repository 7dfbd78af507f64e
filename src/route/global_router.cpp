#include "route/global_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <future>
#include <limits>
#include <utility>

#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "route/maze_arena.hpp"
#include "route/ripup_coloring.hpp"

namespace maestro::route {

using netlist::InstanceId;
using netlist::NetId;

namespace {

using Path = std::vector<std::size_t>;

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
/// order) — the working form of RouteState, with mutable current paths.
struct NetPlan {
  std::vector<std::uint32_t> net_pin_begin{0};
  std::vector<GCell> pin_cells;
  std::vector<std::uint32_t> net_seg_begin{0};
  std::vector<GCell> seg_from;
  std::vector<GCell> seg_to;
  std::vector<Path> initial;  ///< Phase-A path; empty => needs a search
  std::vector<Path> current;  ///< working path, filled after Phase A commit

  std::size_t segment_count() const { return seg_from.size(); }

  void add_net(std::vector<GCell> pins) {
    const auto spans = span_net(pins);
    pin_cells.insert(pin_cells.end(), pins.begin(), pins.end());
    net_pin_begin.push_back(static_cast<std::uint32_t>(pin_cells.size()));
    for (const auto& [a, b] : spans) {
      seg_from.push_back(a);
      seg_to.push_back(b);
      initial.emplace_back();
    }
    net_seg_begin.push_back(static_cast<std::uint32_t>(seg_from.size()));
  }

  void add_net_cached(std::span<const GCell> pins, std::span<const GCell> from,
                      std::span<const GCell> to, std::span<const Path> paths) {
    pin_cells.insert(pin_cells.end(), pins.begin(), pins.end());
    net_pin_begin.push_back(static_cast<std::uint32_t>(pin_cells.size()));
    for (std::size_t i = 0; i < from.size(); ++i) {
      seg_from.push_back(from[i]);
      seg_to.push_back(to[i]);
      initial.push_back(paths[i]);
    }
    net_seg_begin.push_back(static_cast<std::uint32_t>(seg_from.size()));
  }
};

/// Maze-route every segment in `idxs` against the (const) grid, writing the
/// paths to out[k] for idxs[k]. With an executor, fixed-grain chunks fan out
/// to the pool — the grain is independent of the thread count and each chunk
/// writes disjoint slots, so results are identical at any pool size.
void search_many(const GridGraph& g, const NetPlan& plan, const std::vector<std::uint32_t>& idxs,
                 std::vector<Path>& out, const RouteOptions& opt, std::size_t grain) {
  out.assign(idxs.size(), {});
  if (idxs.empty()) return;
  auto search_range = [&](std::size_t lo, std::size_t hi) {
    MazeArena& arena = thread_arena();
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t i = idxs[k];
      out[k] = arena_maze_route(g, arena, plan.seg_from[i], plan.seg_to[i],
                                opt.present_cost_weight, opt.history_cost_weight);
    }
  };
  if (opt.executor == nullptr || idxs.size() <= grain) {
    search_range(0, idxs.size());
    return;
  }
  const std::size_t n_chunks = (idxs.size() + grain - 1) / grain;
  std::vector<std::future<int>> futures;
  futures.reserve(n_chunks);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(idxs.size(), lo + grain);
    futures.push_back(opt.executor->submit("groute_search", exec::derive_run_seed(0x6721u, c),
                                           [&search_range, lo, hi](exec::RunContext&) {
                                             search_range(lo, hi);
                                             return 0;
                                           }));
  }
  for (auto& f : futures) f.get();
}

/// Spatial coloring of one round's victims (see ripup_coloring.hpp): batches
/// of segment ids whose bloated search windows share no 8x8 GCell tile.
/// Within a batch, rip-up/search/commit of one segment cannot touch any edge
/// another member reads or writes, so members may search concurrently
/// against the frozen grid with results identical to processing them one
/// at a time.
std::vector<std::vector<std::uint32_t>> color_batches(const GridGraph& g, const NetPlan& plan,
                                                      const std::vector<std::uint32_t>& victims) {
  std::vector<TileRect> rects(victims.size());
  for (std::size_t k = 0; k < victims.size(); ++k) {
    const std::uint32_t i = victims[k];
    rects[k] = tile_rect(search_window(g, plan.seg_from[i], plan.seg_to[i]));
  }
  auto batches = color_first_fit(rects);
  for (auto& batch : batches) {
    for (std::uint32_t& member : batch) member = victims[member];
  }
  return batches;
}

struct PlanRevisions {
  std::uint64_t netlist = 0;
  std::uint64_t placement = 0;
};

/// The kernel: Phase A (search missing initial paths against the empty
/// grid, commit all in canonical order) + Phase B negotiation rounds
/// (rip-up batches, parallel search, canonical-order commit). `graph` must
/// be freshly constructed (zero usage and history).
RouteResult route_plan(NetPlan& plan, const RouteOptions& opt, GridGraph& graph,
                       const PlanRevisions& revs) {
  static obs::Counter& ripup_counter = obs::Registry::global().counter("route.ripup_segments");
  const std::size_t n_segs = plan.segment_count();

  // ---- Phase A: order-independent initial routes on the empty grid ----
  std::vector<std::uint32_t> missing;
  for (std::size_t i = 0; i < n_segs; ++i) {
    if (plan.initial[i].empty() && !(plan.seg_from[i] == plan.seg_to[i])) {
      missing.push_back(static_cast<std::uint32_t>(i));
    }
  }
  {
    obs::Span span("groute_round", "route");
    span.arg("round", 1.0).arg("searched", static_cast<double>(missing.size()));
    std::vector<Path> found;
    search_many(graph, plan, missing, found, opt, /*grain=*/512);
    for (std::size_t k = 0; k < missing.size(); ++k) {
      plan.initial[missing[k]] = std::move(found[k]);
    }
    plan.current = plan.initial;  // canonical-order commit below
    for (std::size_t i = 0; i < n_segs; ++i) {
      for (const std::size_t e : plan.current[i]) graph.add_usage(e, 1.0);
    }
  }

  RouteResult res;
  res.rounds_used = 1;
  res.overflow_per_round.push_back(graph.total_overflow());

  // ---- Phase B: negotiation rounds over the overflowed set ----
  std::vector<std::uint32_t> victims;
  std::vector<Path> rerouted;
  while (res.overflow_per_round.back() > 0.0 && res.rounds_used < opt.max_rounds) {
    obs::Span span("groute_round", "route");
    {
      obs::Span victims_span("groute_victims", "route");
      // Charge history on overflowed edges (ledger set; each edge exactly
      // once, so iteration order cannot change the resulting costs).
      for (const std::size_t e : graph.overflowed()) graph.bump_history(e, 1.0);

      // Snapshot the victims: segments crossing an overflowed edge.
      victims.clear();
      for (std::size_t i = 0; i < n_segs; ++i) {
        for (const std::size_t e : plan.current[i]) {
          if (graph.usage(e) > graph.capacity(e)) {
            victims.push_back(static_cast<std::uint32_t>(i));
            break;
          }
        }
      }
    }
    ripup_counter.add(victims.size());
    if (victims.empty()) break;  // external usage only; nothing we can move

    std::vector<std::vector<std::uint32_t>> batches;
    {
      obs::Span color_span("groute_color", "route");
      batches = color_batches(graph, plan, victims);
      color_span.arg("victims", static_cast<double>(victims.size()))
          .arg("batches", static_cast<double>(batches.size()));
    }
    {
      obs::Span reroute_span("groute_reroute", "route");
      for (const auto& batch : batches) {
        // Rip up every batch member first (canonical order), so each search
        // sees exactly the state a serial rip-search-commit would see — the
        // other members' deltas all live outside its disjoint window.
        for (const std::uint32_t i : batch) {
          for (const std::size_t e : plan.current[i]) graph.add_usage(e, -1.0);
        }
        search_many(graph, plan, batch, rerouted, opt, /*grain=*/8);
        for (std::size_t k = 0; k < batch.size(); ++k) {
          const std::uint32_t i = batch[k];
          plan.current[i] = std::move(rerouted[k]);
          for (const std::size_t e : plan.current[i]) graph.add_usage(e, 1.0);
        }
      }
    }

    ++res.rounds_used;
    res.overflow_per_round.push_back(graph.total_overflow());
    span.arg("round", static_cast<double>(res.rounds_used))
        .arg("ripped", static_cast<double>(victims.size()))
        .arg("batches", static_cast<double>(batches.size()))
        .arg("overflow", res.overflow_per_round.back());
  }
  res.converged = res.overflow_per_round.back() <= 0.0;

  // ---- result assembly (canonical order throughout) ----
  double wl = 0.0;
  for (const auto& p : plan.current) wl += static_cast<double>(p.size());
  res.wirelength_gcells = wl;
  res.total_overflow = graph.total_overflow();
  res.overflowed_edges = graph.overflowed_edges();
  res.max_utilization = graph.max_utilization();
  if (opt.keep_segments) {
    res.segments.reserve(n_segs);
    for (std::size_t i = 0; i < n_segs; ++i) {
      res.segments.push_back({plan.seg_from[i], plan.seg_to[i], plan.current[i]});
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
    st.initial_paths = std::move(plan.initial);
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
  std::vector<GCell> pins;
  std::vector<InstanceId> instances;
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(static_cast<NetId>(n));
    instances.clear();
    instances.push_back(net.driver);
    for (const auto& sink : net.sinks) instances.push_back(sink.instance);
    collect_pins(pins, graph.indexer(), [&](InstanceId id) { return pl.pin_of(id); }, instances);
    plan.add_net(pins);
  }
  return route_plan(plan, opt, graph, {nl.revision(), pl.revision()});
}

RouteResult global_route(const place::Placement& pl, netlist::DesignView& view,
                         const RouteOptions& opt, GridGraph& graph) {
  view.sync(pl.locs(), pl.revision());
  graph = GridGraph{opt.gcells_x, opt.gcells_y, opt.h_capacity, opt.v_capacity,
                    geom::GridIndexer{pl.floorplan().core(), opt.gcells_x, opt.gcells_y}};
  NetPlan plan;
  std::vector<GCell> pins;
  for (std::size_t n = 0; n < view.net_count(); ++n) {
    collect_pins(pins, graph.indexer(), [&](InstanceId id) { return view.pin(id); },
                 view.pins_of(static_cast<NetId>(n)));
    plan.add_net(pins);
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
                        {st.initial_paths.data() + s0, s1 - s0});
  }
  return route_plan(plan, opt, graph, {view.structure_revision(), pl.revision()});
}

std::vector<std::size_t> maze_route_segment(const GridGraph& g, const GCell& from,
                                            const GCell& to, double present_weight,
                                            double history_weight) {
  return arena_maze_route(g, thread_arena(), from, to, present_weight, history_weight);
}

}  // namespace maestro::route
