// Global-route kernel equivalence and invariant suite (ctest label: groute).
//
// Covers:
//  * MazeArena windowed A* == brute-force Dijkstra on the same window
//    (path-cost equivalence on random congested grids), plus arena reuse
//    across grids of different sizes;
//  * the branch-and-bound search returns the same edge list with any
//    incumbent (optimal, L route, detour, outside the window) and never
//    expands more;
//  * the GridGraph incremental overflow ledger == brute-force recomputation
//    under randomized usage churn;
//  * rip-up bookkeeping: final edge usage == recount over the committed
//    segment paths;
//  * Phase A: every initial path optimal on the grid of the segments
//    routed before it;
//  * Phase B: an independent oracle loop with the one-round sit-out, which
//    the router must match path for path and counter for counter;
//  * the Phase B stop rule: which golden routes stall, the counter and span
//    arg, and the rounds cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "flow/flow.hpp"
#include "flow/tools.hpp"
#include "netlist/design_view.hpp"
#include "netlist/generators.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "route/maze_arena.hpp"

namespace mn = maestro::netlist;
namespace mp = maestro::place;
namespace mr = maestro::route;
namespace mf = maestro::flow;
namespace obs = maestro::obs;
using maestro::util::Rng;

namespace {

const mn::CellLibrary& lib() {
  static const mn::CellLibrary l = mn::make_default_library();
  return l;
}

/// The router's congestion-aware edge cost, duplicated here on purpose: the
/// brute-force checker must price edges identically without sharing code
/// with the implementation under test.
double edge_cost(const mr::GridGraph& g, std::size_t e, double pw, double hw) {
  const double util = g.capacity(e) > 0.0 ? g.usage(e) / g.capacity(e) : 10.0;
  double cost = 1.0;
  if (util > 0.6) cost += pw * (util - 0.6) * (util - 0.6) * 12.0;
  if (g.usage(e) >= g.capacity(e)) cost += pw * 8.0;
  cost += hw * g.history(e);
  return cost;
}

/// O(V^2) Dijkstra over the nodes of search_window(g, from, to): the oracle
/// the windowed arena A* must match in path cost.
double dijkstra_cost(const mr::GridGraph& g, const mr::GCell& from, const mr::GCell& to,
                     double pw, double hw) {
  const auto win = mr::search_window(g, from, to);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.node_count(), kInf);
  std::vector<char> done(g.node_count(), 0);
  dist[g.node_id(from)] = 0.0;
  const auto target = g.node_id(to);
  for (;;) {
    std::size_t u = g.node_count();
    double best = kInf;
    for (std::uint32_t r = win.row_lo; r <= win.row_hi; ++r) {
      for (std::uint32_t c = win.col_lo; c <= win.col_hi; ++c) {
        const std::size_t id = g.node_id({c, r});
        if (!done[id] && dist[id] < best) {
          best = dist[id];
          u = id;
        }
      }
    }
    if (u == g.node_count() || u == target) break;
    done[u] = 1;
    const mr::GCell c = g.cell_of(u);
    struct Nb {
      bool ok;
      mr::GCell cell;
      std::size_t edge;
    };
    const Nb nbs[4] = {
        {c.col + 1 < g.cols(), {c.col + 1, c.row},
         c.col + 1 < g.cols() ? g.edge_id(c, mr::Dir::East) : 0},
        {c.col > 0, {c.col - 1, c.row},
         c.col > 0 ? g.edge_id({c.col - 1, c.row}, mr::Dir::East) : 0},
        {c.row + 1 < g.rows(), {c.col, c.row + 1},
         c.row + 1 < g.rows() ? g.edge_id(c, mr::Dir::North) : 0},
        {c.row > 0, {c.col, c.row - 1},
         c.row > 0 ? g.edge_id({c.col, c.row - 1}, mr::Dir::North) : 0},
    };
    for (const auto& nb : nbs) {
      if (!nb.ok || !win.contains(nb.cell)) continue;
      const double nd = dist[u] + edge_cost(g, nb.edge, pw, hw);
      const std::size_t id = g.node_id(nb.cell);
      if (nd < dist[id]) dist[id] = nd;
    }
  }
  return dist[target];
}

/// The arena search as it stood before window-local scratch: whole-grid node
/// ids turned back into col/row with div/mod, a (f, h, node) tuple heap, and
/// every edge priced by the formula above. Kept as the oracle the arena must
/// match edge for edge, not just in cost.
std::vector<std::size_t> tuple_heap_route(const mr::GridGraph& g, const mr::GCell& from,
                                          const mr::GCell& to, double pw, double hw) {
  std::vector<std::size_t> path;
  if (from == to) return path;
  const auto win = mr::search_window(g, from, to);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.node_count(), kInf);
  std::vector<std::uint32_t> prev_edge(g.node_count());
  std::vector<std::uint32_t> prev_node(g.node_count());
  auto heuristic = [&](std::uint32_t id) {
    const mr::GCell c = g.cell_of(id);
    return static_cast<double>(
        std::abs(static_cast<std::int64_t>(c.col) - static_cast<std::int64_t>(to.col)) +
        std::abs(static_cast<std::int64_t>(c.row) - static_cast<std::int64_t>(to.row)));
  };
  using QItem = std::tuple<double, double, std::uint32_t>;
  std::vector<QItem> open;
  const auto s = static_cast<std::uint32_t>(g.node_id(from));
  const auto t = static_cast<std::uint32_t>(g.node_id(to));
  dist[s] = 0.0;
  prev_node[s] = s;
  open.emplace_back(heuristic(s), heuristic(s), s);
  while (!open.empty()) {
    const auto [f, h, u] = open.front();
    std::pop_heap(open.begin(), open.end(), std::greater<QItem>{});
    open.pop_back();
    if (u == t) break;
    if (f > dist[u] + heuristic(u) + 1e-9) continue;
    const mr::GCell c = g.cell_of(u);
    const auto cols = static_cast<std::uint32_t>(g.cols());
    struct Nb {
      bool ok;
      std::uint32_t node;
      std::size_t edge;
    };
    const Nb nbs[4] = {
        {c.col + 1 < g.cols(), u + 1, c.col + 1 < g.cols() ? g.edge_id(c, mr::Dir::East) : 0},
        {c.col > 0, u - 1, c.col > 0 ? g.edge_id({c.col - 1, c.row}, mr::Dir::East) : 0},
        {c.row + 1 < g.rows(), u + cols, c.row + 1 < g.rows() ? g.edge_id(c, mr::Dir::North) : 0},
        {c.row > 0, u - cols, c.row > 0 ? g.edge_id({c.col, c.row - 1}, mr::Dir::North) : 0},
    };
    for (const auto& nb : nbs) {
      if (!nb.ok || !win.contains(g.cell_of(nb.node))) continue;
      const double nd = dist[u] + edge_cost(g, nb.edge, pw, hw);
      if (nd < dist[nb.node] - 1e-12) {
        dist[nb.node] = nd;
        prev_edge[nb.node] = static_cast<std::uint32_t>(nb.edge);
        prev_node[nb.node] = u;
        const double nh = heuristic(nb.node);
        open.emplace_back(nd + nh, nh, nb.node);
        std::push_heap(open.begin(), open.end(), std::greater<QItem>{});
      }
    }
  }
  if (dist[t] == kInf) return path;
  for (std::uint32_t v = t; v != s; v = prev_node[v]) path.push_back(prev_edge[v]);
  std::reverse(path.begin(), path.end());
  return path;
}

double path_cost(const mr::GridGraph& g, const std::vector<std::size_t>& path, double pw,
                 double hw) {
  double c = 0.0;
  for (const std::size_t e : path) c += edge_cost(g, e, pw, hw);
  return c;
}

/// Assert the edge sequence walks contiguously from `from` to `to`.
void expect_connected(const mr::GridGraph& g, const std::vector<std::size_t>& path,
                      const mr::GCell& from, const mr::GCell& to) {
  mr::GCell at = from;
  for (const std::size_t e : path) {
    const auto [a, b] = g.edge_cells(e);
    ASSERT_TRUE(at == a || at == b) << "path breaks at edge " << e;
    at = (at == a) ? b : a;
  }
  EXPECT_EQ(at, to);
}

mr::GridGraph random_grid(std::size_t cols, std::size_t rows, Rng& rng) {
  const maestro::geom::GridIndexer idx{{{0, 0}, {100000, 100000}}, cols, rows};
  mr::GridGraph g{cols, rows, 4.0, 3.0, idx};
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    if (rng.uniform() < 0.6) g.add_usage(e, static_cast<double>(rng.below(7)));
    if (rng.uniform() < 0.3) g.bump_history(e, static_cast<double>(rng.below(4)));
  }
  return g;
}

mp::Placement placed_design(std::uint64_t seed, std::size_t gates, double util,
                            std::unique_ptr<mn::Netlist>& nl_out,
                            std::unique_ptr<mp::Floorplan>& fp_out) {
  mn::RandomLogicSpec spec;
  spec.gates = gates;
  spec.seed = seed;
  nl_out = std::make_unique<mn::Netlist>(mn::make_random_logic(lib(), spec));
  fp_out = std::make_unique<mp::Floorplan>(mp::Floorplan::for_netlist(*nl_out, util));
  Rng rng{seed};
  auto pl = mp::random_placement(*nl_out, *fp_out, rng);
  mp::AnnealOptions ao;
  ao.moves_per_cell = 6.0;
  mp::anneal_placement(pl, ao, rng);
  mp::legalize(pl);
  return pl;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

TEST(SearchWindow, ContainsOverlapsAndClamping) {
  const maestro::geom::GridIndexer idx{{{0, 0}, {1000, 1000}}, 20, 20};
  const mr::GridGraph g{20, 20, 4.0, 4.0, idx};
  const auto w = mr::search_window(g, {2, 3}, {9, 5});
  EXPECT_EQ(w.col_lo, 0u);  // 2 - 6 clamps to 0
  EXPECT_EQ(w.col_hi, 15u);
  EXPECT_EQ(w.row_lo, 0u);
  EXPECT_EQ(w.row_hi, 11u);
  EXPECT_TRUE(w.contains({0, 0}));
  EXPECT_TRUE(w.contains({15, 11}));
  EXPECT_FALSE(w.contains({16, 0}));
  EXPECT_FALSE(w.contains({0, 12}));
}

TEST(MazeArena, MatchesBruteForceDijkstraOnRandomGrids) {
  // Small grids (window covers everything) and larger grids (genuinely
  // windowed): arena A* path cost must equal the Dijkstra oracle's distance
  // over the same window.
  Rng rng{101};
  const std::pair<std::size_t, std::size_t> shapes[] = {{9, 7}, {12, 12}, {40, 33}};
  mr::MazeArena arena;
  for (const auto& [cols, rows] : shapes) {
    for (int trial = 0; trial < 8; ++trial) {
      const mr::GridGraph g = random_grid(cols, rows, rng);
      const mr::GCell from{static_cast<std::uint32_t>(rng.below(cols)),
                           static_cast<std::uint32_t>(rng.below(rows))};
      const mr::GCell to{static_cast<std::uint32_t>(rng.below(cols)),
                         static_cast<std::uint32_t>(rng.below(rows))};
      if (from == to) continue;
      const auto path = mr::arena_maze_route(g, arena, from, to, 1.0, 0.4);
      ASSERT_FALSE(path.empty());
      expect_connected(g, path, from, to);
      const double got = path_cost(g, path, 1.0, 0.4);
      const double want = dijkstra_cost(g, from, to, 1.0, 0.4);
      EXPECT_NEAR(got, want, 1e-9) << cols << "x" << rows << " trial " << trial;
    }
  }
}

/// Pairs (from, to) that exercise the arena's window arithmetic: random
/// spans of every width, segments hugging each border and corner (windows
/// clamped on one or two sides), whole-grid diagonals and straight runs.
std::vector<std::pair<mr::GCell, mr::GCell>> oracle_pairs(std::size_t cols, std::size_t rows,
                                                          Rng& rng) {
  const auto c_max = static_cast<std::uint32_t>(cols - 1);
  const auto r_max = static_cast<std::uint32_t>(rows - 1);
  std::vector<std::pair<mr::GCell, mr::GCell>> out = {
      {{0, 0}, {c_max, r_max}}, {{c_max, 0}, {0, r_max}}, {{0, 0}, {c_max, 0}},
      {{0, r_max}, {0, 0}},     {{c_max, r_max}, {c_max, r_max / 2}},
      {{c_max / 2, 0}, {c_max / 2, r_max}},
  };
  auto pick = [&](std::uint64_t n) { return static_cast<std::uint32_t>(rng.below(n)); };
  for (int k = 0; k < 24; ++k) {
    // Border-hugging: one endpoint on an edge of the grid, the other near it.
    const std::uint32_t side = pick(4);
    mr::GCell a{pick(cols), pick(rows)};
    if (side == 0) a.col = 0;
    if (side == 1) a.col = c_max;
    if (side == 2) a.row = 0;
    if (side == 3) a.row = r_max;
    const std::uint32_t down = pick(9);
    const mr::GCell b{std::min<std::uint32_t>(c_max, a.col + pick(9)),
                      a.row > down ? a.row - down : 0};
    out.emplace_back(a, b);
    // Random span widths, so window widths fall on and off powers of two.
    const std::uint32_t w = pick(std::min<std::size_t>(cols, 40));
    const mr::GCell c{pick(cols - w), pick(rows)};
    out.emplace_back(c, mr::GCell{c.col + w, pick(rows)});
  }
  return out;
}

void expect_same_path_as_oracle(const mr::GridGraph& g, mr::MazeArena& arena, const mr::GCell& a,
                                const mr::GCell& b, double pw, double hw) {
  const auto got = mr::arena_maze_route(g, arena, a, b, pw, hw);
  const auto want = tuple_heap_route(g, a, b, pw, hw);
  ASSERT_EQ(got, want) << g.cols() << "x" << g.rows() << " (" << a.col << "," << a.row << ")->("
                       << b.col << "," << b.row << ") weights " << pw << "/" << hw;
  if (!(a == b)) expect_connected(g, got, a, b);
}

TEST(MazeArena, SameEdgeListsAsTupleHeapOracle) {
  // Exact paths, not only equal cost: uniform-cost grids (ties everywhere),
  // random usage and history, windows clamped at every border and of every
  // width, the router's weights through the maintained cost table and the
  // detailed router's 1.2/0.6 through direct evaluation — all on one warm
  // arena that keeps switching between grid sizes.
  Rng rng{707};
  const std::pair<std::size_t, std::size_t> shapes[] = {{32, 32}, {9, 7}, {41, 23}, {1, 12},
                                                        {13, 1},  {64, 64}, {100, 37}};
  mr::MazeArena arena;
  std::size_t checked = 0;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [cols, rows] : shapes) {
      const maestro::geom::GridIndexer idx{{{0, 0}, {100000, 100000}}, cols, rows};
      mr::GridGraph uniform{cols, rows, 4.0, 3.0, idx};
      mr::GridGraph congested = random_grid(cols, rows, rng);
      for (mr::GridGraph* g : {&uniform, &congested}) {
        const auto pairs = oracle_pairs(cols, rows, rng);
        for (const bool table : {false, true}) {
          if (table) {
            g->track_costs(1.0, 0.4);
            ASSERT_NE(g->cost_table(1.0, 0.4), nullptr);
            ASSERT_EQ(g->cost_table(1.2, 0.6), nullptr);
          } else {
            g->untrack_costs();
            ASSERT_EQ(g->cost_table(1.0, 0.4), nullptr);
          }
          for (const auto& [a, b] : pairs) {
            expect_same_path_as_oracle(*g, arena, a, b, 1.0, 0.4);
            expect_same_path_as_oracle(*g, arena, a, b, 1.2, 0.6);
            checked += 2;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(MazeArena, ReuseAcrossGridSizesIsClean) {
  // Scratch reuse must never leak state: a warm arena (used on a different
  // grid, including a larger one) must produce exactly the path a cold
  // arena produces.
  Rng rng{202};
  const mr::GridGraph big = random_grid(40, 33, rng);
  const mr::GridGraph small = random_grid(11, 9, rng);
  mr::MazeArena warm;
  (void)mr::arena_maze_route(big, warm, {1, 1}, {38, 30}, 1.0, 0.4);
  (void)mr::arena_maze_route(small, warm, {0, 0}, {10, 8}, 1.0, 0.4);
  for (int trial = 0; trial < 6; ++trial) {
    const mr::GCell from{static_cast<std::uint32_t>(rng.below(11)),
                         static_cast<std::uint32_t>(rng.below(9))};
    const mr::GCell to{static_cast<std::uint32_t>(rng.below(11)),
                       static_cast<std::uint32_t>(rng.below(9))};
    mr::MazeArena cold;
    const auto warm_path = mr::arena_maze_route(small, warm, from, to, 1.2, 0.6);
    const auto cold_path = mr::arena_maze_route(small, cold, from, to, 1.2, 0.6);
    EXPECT_EQ(warm_path, cold_path);
  }
}

/// A random grid congested the way late negotiation rounds are: usage up to
/// 1.5x each edge's capacity and random history. A share `flat` of the
/// edges carries one track less than capacity and no history, so those edges
/// cost the same per direction, more than 1: equal-cost paths tie (the open
/// list's tie-breaking picks one) and the window lower bound exceeds the
/// Manhattan distance.
mr::GridGraph overcommitted_grid(std::size_t cols, std::size_t rows, double flat, Rng& rng) {
  const maestro::geom::GridIndexer idx{{{0, 0}, {100000, 100000}}, cols, rows};
  mr::GridGraph g{cols, rows, 6.0, 4.0, idx};
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    if (rng.uniform() < flat) {
      g.add_usage(e, g.capacity(e) - 1.0);
      continue;
    }
    const auto most = static_cast<std::uint64_t>(1.5 * g.capacity(e));
    g.add_usage(e, static_cast<double>(rng.below(most + 1)));
    if (rng.uniform() < 0.4) g.bump_history(e, static_cast<double>(rng.below(5)));
  }
  return g;
}

/// Edge ids of the horizontal-first L walk from `a` to `b`.
std::vector<std::uint32_t> l_walk(const mr::GridGraph& g, mr::GCell a, const mr::GCell& b) {
  std::vector<std::uint32_t> walk;
  for (; a.col < b.col; ++a.col) walk.push_back(static_cast<std::uint32_t>(g.edge_id(a, mr::Dir::East)));
  for (; a.col > b.col; --a.col) {
    walk.push_back(static_cast<std::uint32_t>(g.edge_id({a.col - 1, a.row}, mr::Dir::East)));
  }
  for (; a.row < b.row; ++a.row) walk.push_back(static_cast<std::uint32_t>(g.edge_id(a, mr::Dir::North)));
  for (; a.row > b.row; --a.row) {
    walk.push_back(static_cast<std::uint32_t>(g.edge_id({a.col, a.row - 1}, mr::Dir::North)));
  }
  return walk;
}

/// The L walk a -> via -> b.
std::vector<std::uint32_t> detour(const mr::GridGraph& g, const mr::GCell& a, const mr::GCell& via,
                                  const mr::GCell& b) {
  std::vector<std::uint32_t> walk = l_walk(g, a, via);
  const std::vector<std::uint32_t> rest = l_walk(g, via, b);
  walk.insert(walk.end(), rest.begin(), rest.end());
  return walk;
}

TEST(MazeArena, IncumbentBoundNeverChangesThePath) {
  // Branch and bound returns the path of the unbounded search, edge for
  // edge, whatever incumbent bounds it: the optimal path itself (U == C*,
  // where only the bound's slack keeps its nodes), an L route, a random
  // detour through the window, and a walk leaving the window (ignored, so
  // the search expands exactly what it does without one). The bound never
  // costs expansions, and without an incumbent the search still matches
  // the unpruned tuple-heap oracle. Flat grids have many equal-cost paths,
  // so a bound that reordered the open list would show.
  Rng rng{909};
  const std::pair<std::size_t, std::size_t> shapes[] = {{12, 12}, {40, 33}, {64, 64}, {9, 30}};
  mr::MazeArena arena;
  std::size_t checked = 0;
  std::uint64_t unbounded_total = 0;
  std::uint64_t bounded_total = 0;
  for (const auto& [cols, rows] : shapes) {
    for (const double flat : {0.0, 0.8, 1.0}) {
      mr::GridGraph g = overcommitted_grid(cols, rows, flat, rng);
      g.track_costs(1.0, 0.4);
      for (int k = 0; k < 25; ++k) {
        const mr::GCell a{static_cast<std::uint32_t>(rng.below(cols)),
                          static_cast<std::uint32_t>(rng.below(rows))};
        const mr::GCell b{static_cast<std::uint32_t>(rng.below(cols)),
                          static_cast<std::uint32_t>(rng.below(rows))};
        if (a == b) continue;
        const auto win = mr::search_window(g, a, b);
        const mr::GCell inside{win.col_lo + static_cast<std::uint32_t>(
                                                rng.below(win.col_hi - win.col_lo + 1)),
                               win.row_lo + static_cast<std::uint32_t>(
                                                rng.below(win.row_hi - win.row_lo + 1))};
        std::vector<mr::GCell> outside;
        if (win.col_hi + 1 < cols) outside.push_back({win.col_hi + 1, inside.row});
        if (win.col_lo > 0) outside.push_back({win.col_lo - 1, inside.row});
        if (win.row_hi + 1 < rows) outside.push_back({inside.col, win.row_hi + 1});
        if (win.row_lo > 0) outside.push_back({inside.col, win.row_lo - 1});
        // Table weights (the router's) and direct evaluation (1.2 / 0.6).
        for (const auto& [pw, hw] : {std::pair{1.0, 0.4}, std::pair{1.2, 0.6}}) {
          const std::uint64_t before = arena.expansions();
          const auto want = mr::arena_maze_route(g, arena, a, b, pw, hw);
          const std::uint64_t unbounded = arena.expansions() - before;
          ASSERT_FALSE(want.empty());
          expect_connected(g, want, a, b);
          ASSERT_EQ(want, tuple_heap_route(g, a, b, pw, hw));
          const std::vector<std::uint32_t> optimal(want.begin(), want.end());
          std::vector<std::pair<const char*, std::vector<std::uint32_t>>> incumbents = {
              {"optimal", optimal},
              {"L route", l_walk(g, a, b)},
              {"detour", detour(g, a, inside, b)},
          };
          for (const auto& via : outside) {
            incumbents.emplace_back("outside the window", detour(g, a, via, b));
          }
          for (const auto& [kind, incumbent] : incumbents) {
            const std::uint64_t at = arena.expansions();
            const auto got = mr::arena_maze_route(g, arena, a, b, pw, hw, incumbent);
            const std::uint64_t bounded = arena.expansions() - at;
            ASSERT_EQ(got, want) << kind << " incumbent, " << cols << "x" << rows << " ("
                                 << a.col << "," << a.row << ")->(" << b.col << "," << b.row
                                 << ") weights " << pw << "/" << hw;
            EXPECT_LE(bounded, unbounded) << kind;
            if (std::string_view{kind} == "outside the window") {
              EXPECT_EQ(bounded, unbounded);
            } else {
              unbounded_total += unbounded;
              bounded_total += bounded;
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  // On these grids the tight bound prunes for real.
  EXPECT_LT(bounded_total, unbounded_total);
}

TEST(OverflowLedger, MatchesBruteForceUnderRandomChurn) {
  // Also covers the maintained cost table: under random add_usage,
  // bump_history and reset_usage, every entry must equal the cost formula
  // bit for bit after every single step.
  const maestro::geom::GridIndexer idx{{{0, 0}, {100000, 100000}}, 16, 14};
  mr::GridGraph g{16, 14, 3.0, 2.0, idx};
  g.track_costs(1.0, 0.4);
  Rng rng{303};
  auto check_costs = [&] {
    const double* table = g.cost_table(1.0, 0.4);
    ASSERT_NE(table, nullptr);
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(table[e]),
                std::bit_cast<std::uint64_t>(edge_cost(g, e, 1.0, 0.4)))
          << "stale cost at edge " << e;
    }
  };
  auto check = [&] {
    double total = 0.0;
    std::size_t count = 0;
    double max_util = 0.0;
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      total += g.overflow(e);
      if (g.usage(e) > g.capacity(e)) ++count;
      if (g.capacity(e) > 0.0) max_util = std::max(max_util, g.usage(e) / g.capacity(e));
    }
    ASSERT_NEAR(g.total_overflow(), total, 1e-12);
    ASSERT_EQ(g.overflowed_edges(), count);
    ASSERT_DOUBLE_EQ(g.max_utilization(), max_util);
    // The ledger set itself matches brute-force membership.
    std::set<std::size_t> in_set(g.overflowed().begin(), g.overflowed().end());
    ASSERT_EQ(in_set.size(), count);
    for (const std::size_t e : in_set) ASSERT_GT(g.usage(e), g.capacity(e));
  };
  for (int step = 0; step < 2000; ++step) {
    const std::size_t e = rng.below(g.edge_count());
    // Mix of additions and removals, crossing the capacity threshold often,
    // with history bumps and the odd full reset in between.
    const double amount = g.usage(e) > 0.0 && rng.uniform() < 0.45 ? -1.0 : 1.0;
    g.add_usage(e, amount);
    if (rng.uniform() < 0.2) g.bump_history(rng.below(g.edge_count()), 0.5 + rng.below(3));
    if (rng.uniform() < 0.05) g.add_usage(e, static_cast<double>(rng.below(5)));
    if (step % 700 == 699) g.reset_usage();
    check_costs();
    if (step % 50 == 0) check();
  }
  check();
  g.reset_usage();
  check();
  check_costs();
  g.untrack_costs();
  EXPECT_EQ(g.cost_table(1.0, 0.4), nullptr);
}

TEST(GlobalRouter, UsageEqualsRecountOverCommittedPaths) {
  // Rip-up bookkeeping invariant: after any number of negotiation rounds,
  // per-edge usage must equal the recount over the final committed paths.
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(31, 800, 0.8, nl, fp);
  for (const int rounds : {1, 2, 8}) {
    mr::RouteOptions opt;
    opt.gcells_x = opt.gcells_y = 24;
    opt.h_capacity = opt.v_capacity = 7.0;  // congested: rip-up actually runs
    opt.max_rounds = rounds;
    opt.keep_segments = true;
    mr::GridGraph g;
    const auto res = mr::global_route(pl, opt, g);
    std::vector<double> recount(g.edge_count(), 0.0);
    for (const auto& seg : res.segments) {
      for (const std::size_t e : seg.edges) recount[e] += 1.0;
    }
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      ASSERT_EQ(g.usage(e), recount[e]) << "rounds=" << rounds << " edge=" << e;
    }
  }
}

TEST(GlobalRouter, PhaseAPathsAreOptimalOnTheGridOfEarlierSegments) {
  // Phase A routes segment by segment in canonical order, each against the
  // grid holding the segments before it, with present congestion priced in:
  // replaying the committed paths in order, every path must cost exactly
  // what a brute-force Dijkstra finds on the replayed grid.
  struct Case {
    std::uint64_t seed;
    std::size_t gates;
    std::size_t cols;
    std::size_t rows;
    double capacity;
  };
  const Case cases[] = {{3, 150, 9, 9, 3.0}, {5, 200, 12, 8, 4.0}, {8, 120, 7, 11, 2.0}};
  std::size_t checked = 0;
  std::size_t priced = 0;  // paths dearer than their hop count: congestion seen
  for (const Case& c : cases) {
    std::unique_ptr<mn::Netlist> nl;
    std::unique_ptr<mp::Floorplan> fp;
    const auto pl = placed_design(c.seed, c.gates, 0.7, nl, fp);
    mr::RouteOptions opt;
    opt.gcells_x = c.cols;
    opt.gcells_y = c.rows;
    opt.h_capacity = opt.v_capacity = c.capacity;
    opt.max_rounds = 1;  // Phase A only
    opt.keep_segments = true;
    const auto res = mr::global_route(pl, opt);
    ASSERT_EQ(res.overflow_per_round.size(), 1u);

    const maestro::geom::GridIndexer idx{fp->core(), c.cols, c.rows};
    mr::GridGraph replay{c.cols, c.rows, c.capacity, c.capacity, idx};
    for (const auto& seg : res.segments) {
      if (!(seg.from == seg.to)) {
        expect_connected(replay, seg.edges, seg.from, seg.to);
        const double got = path_cost(replay, seg.edges, opt.present_cost_weight,
                                     opt.history_cost_weight);
        const double want = dijkstra_cost(replay, seg.from, seg.to, opt.present_cost_weight,
                                          opt.history_cost_weight);
        ASSERT_NEAR(got, want, 1e-9) << "seed " << c.seed << " segment " << checked;
        if (got > static_cast<double>(seg.edges.size())) ++priced;
        ++checked;
      }
      for (const std::size_t e : seg.edges) replay.add_usage(e, 1.0);
    }
    EXPECT_EQ(replay.total_overflow(), res.total_overflow);
  }
  EXPECT_GT(checked, 300u);
  EXPECT_GT(priced, 50u);
}

/// Phase B written out independently of the router, as the sit-out oracle.
/// Each round charges history on the overflowed edges and takes as victims
/// the segments crossing one; in ascending order, a victim flagged to sit
/// out clears its flag and keeps its path, any other is ripped up,
/// re-searched and committed, and is flagged when the search returned the
/// path it had.
struct SitOutOracle {
  mr::GridGraph& g;
  std::vector<mr::RoutedSegment> segs;
  mr::RouteOptions opt;
  std::vector<char> sits_out = std::vector<char>(segs.size(), 0);
  std::vector<int> sat_out = std::vector<int>(segs.size(), 0);  ///< rounds sat out
  std::size_t searched_total = 0;
  std::size_t sat_out_total = 0;
  std::size_t searched_after_sitting = 0;  ///< searches of segments that sat out before

  void round() {
    std::vector<char> over(g.edge_count(), 0);
    for (std::size_t e = 0; e < g.edge_count(); ++e) {
      over[e] = g.usage(e) > g.capacity(e) ? 1 : 0;
      if (over[e] != 0) g.bump_history(e, 1.0);
    }
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const bool victim = std::any_of(segs[i].edges.begin(), segs[i].edges.end(),
                                      [&](std::size_t e) { return over[e] != 0; });
      if (!victim) continue;
      if (sits_out[i] != 0) {
        sits_out[i] = 0;
        ++sat_out[i];
        ++sat_out_total;
        continue;
      }
      for (const std::size_t e : segs[i].edges) g.add_usage(e, -1.0);
      auto path = mr::maze_route_segment(g, segs[i].from, segs[i].to, opt.present_cost_weight,
                                         opt.history_cost_weight);
      sits_out[i] = path == segs[i].edges ? 1 : 0;
      segs[i].edges = std::move(path);
      for (const std::size_t e : segs[i].edges) g.add_usage(e, 1.0);
      ++searched_total;
      if (sat_out[i] > 0) ++searched_after_sitting;
    }
  }
};

TEST(GlobalRouter, SitOutSkipsAnUnchangedVictimExactlyOnce) {
  // A victim whose re-search returned its own path sits out its next round
  // as a victim, keeps its path, and is searched again after that. The
  // oracle replays Phase B from the router's own Phase A; after every round
  // the router, capped at that round, must hold the oracle's paths and
  // overflow, and its counters must add up: victims (route.ripup_segments)
  // = searched + route.sit_outs.
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(57, 800, 0.75, nl, fp);
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 24;
  opt.h_capacity = opt.v_capacity = 20.0;
  opt.keep_segments = true;
  const auto full = mr::global_route(pl, opt);
  ASSERT_GE(full.rounds_used, 6);

  mr::RouteOptions phase_a = opt;
  phase_a.max_rounds = 1;
  mr::GridGraph g;
  SitOutOracle oracle{g, mr::global_route(pl, phase_a, g).segments, opt};
  for (int r = 2; r <= full.rounds_used; ++r) {
    oracle.round();
    mr::RouteOptions capped = opt;
    capped.max_rounds = r;
    const auto victims_before = counter_value("route.ripup_segments");
    const auto sit_outs_before = counter_value("route.sit_outs");
    const auto res = mr::global_route(pl, capped);
    const auto victims = counter_value("route.ripup_segments") - victims_before;
    const auto sit_outs = counter_value("route.sit_outs") - sit_outs_before;
    ASSERT_EQ(res.rounds_used, r);
    ASSERT_EQ(res.segments.size(), oracle.segs.size());
    for (std::size_t i = 0; i < res.segments.size(); ++i) {
      ASSERT_EQ(res.segments[i].edges, oracle.segs[i].edges) << "round " << r << " segment " << i;
    }
    EXPECT_EQ(res.total_overflow, g.total_overflow()) << "round " << r;
    EXPECT_EQ(sit_outs, oracle.sat_out_total) << "round " << r;
    EXPECT_EQ(victims, oracle.searched_total + oracle.sat_out_total) << "round " << r;
  }
  EXPECT_EQ(oracle.segs.size(), full.segments.size());
  EXPECT_GT(oracle.sat_out_total, 0u);
  EXPECT_GT(oracle.searched_after_sitting, 0u);
}

TEST(GlobalRouter, PhaseSpansArePerRound) {
  // The net plan and Phase A carry one span each per route (Phase A searches
  // and commits segment by segment, with no child spans), negotiation rounds
  // one victims/reroute span each, never one per segment. The reroute span
  // reports the round's victims and how many of them sat the round out, the
  // round span how many were ripped up, and both add up to the counters.
  // Phase A and each reroute span also report their maze expansions, which
  // add up to the arena's own count.
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(31, 800, 0.8, nl, fp);
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 24;
  opt.h_capacity = opt.v_capacity = 7.0;
  const auto victims_before = counter_value("route.ripup_segments");
  const auto sit_outs_before = counter_value("route.sit_outs");
  const std::uint64_t expansions_before = mr::thread_arena().expansions();
  obs::Tracer tracer;
  obs::Tracer::install(&tracer);
  const auto res = mr::global_route(pl, opt);
  obs::Tracer::uninstall();
  const auto expansion_count = mr::thread_arena().expansions() - expansions_before;
  const auto victim_count = counter_value("route.ripup_segments") - victims_before;
  const auto sit_out_count = counter_value("route.sit_outs") - sit_outs_before;
  ASSERT_GT(res.rounds_used, 1);
  ASSERT_EQ(tracer.dropped(), 0u);

  std::map<std::string, int> count;
  double victims = 0.0;
  double sat_out = 0.0;
  double ripped = 0.0;
  double phase_a_expansions = 0.0;
  double reroute_expansions = 0.0;
  for (const auto& ev : tracer.snapshot()) {
    ++count[ev.name];
    const std::map<std::string, double> args(ev.num_args.begin(), ev.num_args.end());
    if (ev.name == "groute_phase_a") {
      ASSERT_EQ(args.count("segments"), 1u);
      EXPECT_GT(args.at("segments"), 0.0);
      EXPECT_EQ(args.at("searched"), args.at("segments"));  // distinct pins: all searched
      ASSERT_EQ(args.count("expansions"), 1u);
      phase_a_expansions += args.at("expansions");
    }
    if (ev.name == "groute_round") {
      EXPECT_EQ(args.count("batches"), 0u);
      if (args.count("ripped") != 0) ripped += args.at("ripped");
    }
    if (ev.name != "groute_reroute") continue;
    ASSERT_EQ(args.count("victims"), 1u);
    ASSERT_EQ(args.count("sat_out"), 1u);
    ASSERT_EQ(args.count("expansions"), 1u);
    reroute_expansions += args.at("expansions");
    EXPECT_GE(args.at("victims"), 1.0);
    EXPECT_LE(args.at("sat_out"), args.at("victims"));
    victims += args.at("victims");
    sat_out += args.at("sat_out");
  }
  // One plan, one Phase A; every Phase B round scans for victims, and all
  // but a last one that finds none go on to reroute them; no round has a
  // groute_color span.
  EXPECT_EQ(count["groute_plan"], 1);
  EXPECT_EQ(count["groute_phase_a"], 1);
  EXPECT_EQ(count.count("groute_search"), 0u);
  EXPECT_EQ(count.count("groute_commit"), 0u);
  const int negotiated = res.rounds_used - 1;
  EXPECT_EQ(count["groute_round"], count["groute_victims"]);
  EXPECT_GE(count["groute_victims"], negotiated);
  EXPECT_LE(count["groute_victims"], negotiated + 1);
  EXPECT_EQ(count.count("groute_color"), 0u);
  EXPECT_EQ(count["groute_reroute"], negotiated);
  EXPECT_EQ(victims, static_cast<double>(victim_count));
  EXPECT_EQ(sat_out, static_cast<double>(sit_out_count));
  EXPECT_GT(sat_out, 0.0);  // this route does exercise the sit-out
  EXPECT_EQ(ripped, victims - sat_out);
  EXPECT_GT(phase_a_expansions, 0.0);
  EXPECT_GT(reroute_expansions, 0.0);
  EXPECT_EQ(phase_a_expansions + reroute_expansions, static_cast<double>(expansion_count));
}

TEST(GlobalRouter, PerNetSegmentsMatchDeduplicatedPins) {
  // The O(p log p) dedup must leave each net's distinct pin GCells once: a
  // net with k distinct pin GCells produces exactly k-1 segments (in
  // canonical order, net by net), and its segments touch exactly those
  // GCells.
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(37, 700, 0.75, nl, fp);
  mn::DesignView view{*nl};
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 20;
  opt.keep_segments = true;
  mr::GridGraph g;
  const auto res = mr::global_route(pl, view, opt, g);
  const maestro::geom::GridIndexer idx{fp->core(), opt.gcells_x, opt.gcells_y};
  using Cell = std::pair<std::uint32_t, std::uint32_t>;
  std::size_t seg = 0;
  for (std::size_t n = 0; n < nl->net_count(); ++n) {
    std::set<Cell> pins;
    for (const mn::InstanceId id : view.pins_of(static_cast<mn::NetId>(n))) {
      const auto [c, r] = idx.cell_of(view.pin(id));
      pins.insert({static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(r)});
    }
    const std::size_t segs = pins.size() >= 2 ? pins.size() - 1 : 0u;
    ASSERT_LE(seg + segs, res.segments.size()) << "net " << n;
    std::set<Cell> touched;
    for (std::size_t k = seg; k < seg + segs; ++k) {
      const auto& s = res.segments[k];
      EXPECT_NE(s.from, s.to) << "duplicate pin GCell in net " << n;
      touched.insert({s.from.col, s.from.row});
      touched.insert({s.to.col, s.to.row});
    }
    if (segs > 0) {
      EXPECT_EQ(touched, pins) << "net " << n;
    }
    seg += segs;
  }
  EXPECT_EQ(seg, res.segments.size());
}

// ---------------------------------------------------------------------------
// Phase B stop rule: negotiation ends once two rounds keep more than 88% of
// the overflow, before the rounds cap.

namespace {

/// A flow run at 0.6 GHz on one of the golden designs (test_golden.cpp),
/// kept per (design, tool seed): the stop-rule tests read its global route
/// and reroute its placement.
const mf::DesignState& flow_state(mf::DesignSpec::Kind kind, std::size_t scale,
                                  std::uint64_t rtl_seed, std::uint64_t seed) {
  static std::map<std::tuple<int, std::size_t, std::uint64_t, std::uint64_t>,
                  std::unique_ptr<mf::DesignState>>
      states;
  auto& slot = states[{static_cast<int>(kind), scale, rtl_seed, seed}];
  if (!slot) {
    mf::FlowRecipe recipe;
    recipe.design.kind = kind;
    recipe.design.scale = scale;
    recipe.design.rtl_seed = rtl_seed;
    recipe.target_ghz = 0.6;
    recipe.seed = seed;
    slot = std::make_unique<mf::DesignState>();
    const mf::FlowManager fm{lib()};
    EXPECT_TRUE(fm.run_keep_state(recipe, mf::FlowConstraints{}, *slot).completed);
  }
  return *slot;
}

const mf::DesignState& rand_s3(std::uint64_t seed) {
  return flow_state(mf::DesignSpec::Kind::RandomLogic, 3, 4, seed);
}

}  // namespace

TEST(StopRule, CongestedRandS3StopsBeforeTheCap) {
  // rand@3 (RTL seed 4) gains only a few percent of overflow a round once
  // negotiation stalls: the rule ends it (at round 5 for tool seed 1, 4 for
  // seed 2), and a fresh route of the same placement agrees.
  for (const std::uint64_t seed : {1u, 2u}) {
    const mf::DesignState& ds = rand_s3(seed);
    const mr::RouteResult& flow_route = ds.groute;
    const mr::RouteOptions opt = mf::route_options(*ds.fp, {});
    EXPECT_TRUE(flow_route.stopped_early) << "seed " << seed;
    EXPECT_LT(flow_route.rounds_used, opt.max_rounds) << "seed " << seed;
    EXPECT_FALSE(flow_route.converged);

    const auto stops_before = counter_value("route.rounds_stopped_early");
    mn::DesignView view{*ds.nl};
    mr::GridGraph g;
    const auto res = mr::global_route(*ds.pl, view, opt, g);
    EXPECT_EQ(counter_value("route.rounds_stopped_early"), stops_before + 1);
    EXPECT_TRUE(res.stopped_early);
    EXPECT_EQ(res.overflow_per_round, flow_route.overflow_per_round);
    const auto& o = res.overflow_per_round;
    ASSERT_GE(o.size(), 3u);
    EXPECT_GT(o.back(), 0.88 * o[o.size() - 3]);  // the stall that ended it
    for (std::size_t r = 2; r + 1 < o.size(); ++r) EXPECT_LE(o[r], 0.88 * o[r - 2]);
  }
}

TEST(StopRule, GoldenScaleOneDesignsNeverStop) {
  const std::tuple<mf::DesignSpec::Kind, const char*> cases[] = {
      {mf::DesignSpec::Kind::CpuLike, "cpu"},
      {mf::DesignSpec::Kind::RandomLogic, "rand"},
      {mf::DesignSpec::Kind::Rent, "rent"}};
  for (const auto& [kind, name] : cases) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const mr::RouteResult& res = flow_state(kind, 1, 1, seed).groute;
      EXPECT_FALSE(res.stopped_early) << name << "@1 seed " << seed;
    }
  }
}

TEST(StopRule, SpanArgMarksTheLastRound) {
  const mf::DesignState& ds = rand_s3(1);
  const mr::RouteOptions opt = mf::route_options(*ds.fp, {});
  obs::Tracer tracer;
  obs::Tracer::install(&tracer);
  const auto res = mr::global_route(*ds.pl, opt);
  obs::Tracer::uninstall();
  ASSERT_TRUE(res.stopped_early);
  ASSERT_EQ(tracer.dropped(), 0u);
  std::vector<double> marked;  // stopped_early arg per groute_round, in order
  for (const auto& ev : tracer.snapshot()) {
    if (ev.name != "groute_round") continue;
    std::map<std::string, double> args(ev.num_args.begin(), ev.num_args.end());
    marked.push_back(args.count("stopped_early") != 0 ? args["stopped_early"] : 0.0);
  }
  ASSERT_EQ(marked.size(), static_cast<std::size_t>(res.rounds_used - 1));
  EXPECT_EQ(marked.back(), 1.0);
  EXPECT_EQ(std::count(marked.begin(), marked.end(), 0.0),
            static_cast<std::ptrdiff_t>(marked.size() - 1));
}

TEST(StopRule, RoundsKnobStillCaps) {
  // With a cap of 3 the rule never gets a round to save: rounds 1-3 run and
  // the route ends on the cap, overflow and all.
  const mf::DesignState& ds = rand_s3(1);
  mr::RouteOptions opt = mf::route_options(*ds.fp, {});
  opt.max_rounds = 3;
  const auto res = mr::global_route(*ds.pl, opt);
  EXPECT_EQ(res.rounds_used, 3);
  EXPECT_FALSE(res.stopped_early);
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.total_overflow, 0.0);
}

TEST(StopRule, ConvergingRouteIsNeverStopped) {
  // Overflow that reaches zero within the cap ends on convergence, through a
  // near-stall: on this design it falls 55 -> 5 -> 3 -> 1 -> 1 -> 0, never
  // keeping 88% over two rounds.
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  const auto pl = placed_design(50, 800, 0.75, nl, fp);
  mr::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 24;
  opt.h_capacity = opt.v_capacity = 20.0;
  opt.max_rounds = 16;
  const auto res = mr::global_route(pl, opt);
  EXPECT_GE(res.rounds_used, 5);
  EXPECT_LT(res.rounds_used, opt.max_rounds);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.overflow_per_round.back(), 0.0);
  EXPECT_FALSE(res.stopped_early);
}
