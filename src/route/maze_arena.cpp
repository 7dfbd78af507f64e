#include "route/maze_arena.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>

#include "obs/registry.hpp"

namespace maestro::route {

SearchWindow search_window(const GridGraph& g, const GCell& from, const GCell& to) {
  SearchWindow w;
  w.col_lo =
      std::min(from.col, to.col) > kDetourMargin ? std::min(from.col, to.col) - kDetourMargin : 0;
  w.col_hi = std::min<std::uint32_t>(std::max(from.col, to.col) + kDetourMargin,
                                     static_cast<std::uint32_t>(g.cols()) - 1);
  w.row_lo =
      std::min(from.row, to.row) > kDetourMargin ? std::min(from.row, to.row) - kDetourMargin : 0;
  w.row_hi = std::min<std::uint32_t>(std::max(from.row, to.row) + kDetourMargin,
                                     static_cast<std::uint32_t>(g.rows()) - 1);
  return w;
}

void MazeArena::prepare(std::size_t slots) {
  if (slots_.size() < slots) slots_.resize(slots, Slot{0.0, 0, 0});
  if (++epoch_ == 0) {
    // 2^32 searches later the stamps would alias: clear them once.
    for (Slot& slot : slots_) slot.stamp = 0;
    epoch_ = 1;
  }
  heap_.clear();
}

MazeArena& thread_arena() {
  thread_local MazeArena arena;
  return arena;
}

namespace {

using OpenKey = unsigned __int128;

/// (f, h, local) packed so unsigned key order is the open list's order.
inline OpenKey open_key(double f, std::uint32_t h, std::uint32_t local) {
  return OpenKey{std::bit_cast<std::uint64_t>(f)} << 64 | OpenKey{h} << 32 | local;
}

}  // namespace

template <typename EdgeCost>
std::vector<std::size_t> MazeArena::route(const GridGraph& g, const GCell& from, const GCell& to,
                                          EdgeCost edge_cost) {
  std::vector<std::size_t> path;
  if (from == to) return path;
  const SearchWindow win = search_window(g, from, to);
  const std::uint32_t width = win.col_hi - win.col_lo + 1;
  const std::uint32_t height = win.row_hi - win.row_lo + 1;
  // Row stride 1 << shift >= width; at least 2, so a +-1 step between
  // local ids is always a column step (path reconstruction relies on it).
  const int shift = std::max(1, static_cast<int>(std::bit_width(width - 1)));
  const std::uint32_t stride = 1u << shift;
  const std::uint32_t mask = stride - 1;
  assert((std::uint64_t{height} << shift) < (std::uint64_t{1} << 32));
  prepare(std::size_t{height} << shift);
  const std::uint32_t epoch = epoch_;

  // Edge ids of the East / North edges leaving local (lc, lr), following
  // GridGraph::edge_id's layout from the window's corner.
  const std::size_t cols = g.cols();
  const std::size_t east0 = win.row_lo * (cols - 1) + win.col_lo;
  const std::size_t north0 = (cols - 1) * g.rows() + win.row_lo * cols + win.col_lo;
  auto east_of = [&](std::uint32_t local) {
    return east0 + (local >> shift) * (cols - 1) + (local & mask);
  };
  auto north_of = [&](std::uint32_t local) {
    return north0 + (local >> shift) * cols + (local & mask);
  };

  const std::uint32_t tc = to.col - win.col_lo;
  const std::uint32_t tr = to.row - win.row_lo;
  auto heuristic = [&](std::uint32_t lc, std::uint32_t lr) {
    return (lc > tc ? lc - tc : tc - lc) + (lr > tr ? lr - tr : tr - lr);
  };

  auto& open = heap_;
  const std::uint32_t sc = from.col - win.col_lo;
  const std::uint32_t sr = from.row - win.row_lo;
  const std::uint32_t s = sr << shift | sc;
  const std::uint32_t t = tr << shift | tc;
  slots_[s] = {0.0, epoch, s};
  const std::uint32_t hs = heuristic(sc, sr);
  open.push_back(open_key(static_cast<double>(hs), hs, s));

  std::uint64_t expansions = 0;
  while (!open.empty()) {
    const OpenKey key = open.front();
    std::pop_heap(open.begin(), open.end(), std::greater<OpenKey>{});
    open.pop_back();
    const auto u = static_cast<std::uint32_t>(key);
    if (u == t) break;
    const double f = std::bit_cast<double>(static_cast<std::uint64_t>(key >> 64));
    const double du = slots_[u].dist;
    if (f > du + static_cast<double>(static_cast<std::uint32_t>(key >> 32)) + 1e-9) {
      continue;  // stale entry
    }
    ++expansions;
    const std::uint32_t lc = u & mask;
    const std::uint32_t lr = u >> shift;
    const std::size_t east = east_of(u);
    const std::size_t north = north_of(u);
    auto relax = [&](std::uint32_t v, std::uint32_t vc, std::uint32_t vr, std::size_t edge) {
      Slot& sv = slots_[v];
      const double nd = du + edge_cost(edge);
      if (sv.stamp != epoch || nd < sv.dist - 1e-12) {
        sv = {nd, epoch, u};
        const std::uint32_t nh = heuristic(vc, vr);
        open.push_back(open_key(nd + static_cast<double>(nh), nh, v));
        std::push_heap(open.begin(), open.end(), std::greater<OpenKey>{});
      }
    };
    if (lc + 1 < width) relax(u + 1, lc + 1, lr, east);
    if (lc > 0) relax(u - 1, lc - 1, lr, east - 1);
    if (lr + 1 < height) relax(u + stride, lc, lr + 1, north);
    if (lr > 0) relax(u - stride, lc, lr - 1, north - cols);
  }
  // The expansion counter is a single process-global atomic; bumping it per
  // search from 8 workers turns a metrics read into cacheline ping-pong, so
  // each arena batches locally and flushes in coarse chunks.
  pending_expansions_ += expansions;
  if (pending_expansions_ >= kExpansionFlush) {
    static obs::Counter& expansion_counter =
        obs::Registry::global().counter("route.maze_expansions");
    expansion_counter.add(pending_expansions_);
    pending_expansions_ = 0;
  }

  if (slots_[t].stamp != epoch) return path;  // unreachable (shouldn't happen)
  for (std::uint32_t v = t; v != s;) {
    const std::uint32_t u = slots_[v].prev;
    if (v == u + 1) {
      path.push_back(east_of(u));
    } else if (u == v + 1) {
      path.push_back(east_of(v));
    } else if (v > u) {
      path.push_back(north_of(u));
    } else {
      path.push_back(north_of(v));
    }
    v = u;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::size_t> arena_maze_route(const GridGraph& g, MazeArena& a, const GCell& from,
                                          const GCell& to, double present_w, double history_w) {
  if (const double* table = g.cost_table(present_w, history_w)) {
    return a.route(g, from, to, [table](std::size_t e) { return table[e]; });
  }
  return a.route(g, from, to, [&g, present_w, history_w](std::size_t e) {
    return g.edge_cost(e, present_w, history_w);
  });
}

}  // namespace maestro::route
