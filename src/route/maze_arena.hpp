#pragma once
// MazeArena — window-local, epoch-stamped scratch space for A* maze routing.
//
// Every search is confined to its segment's search window (the bounding box
// bloated by kDetourMargin, clamped to the grid), so the arena indexes its
// scratch by *window-local* row-major ids, not by whole-grid node ids:
//
//     local = (row - row_lo) << shift | (col - col_lo),   1 << shift >= width
//
// A power-of-two row stride makes col/row a mask and a shift, so the search
// carries its coordinates without the 64-bit div/mod a whole-grid id needs
// for every heuristic and window test, and the window test itself becomes
// a comparison against the window's width and height. The scratch grows
// only (it must hold the largest window yet seen) and "reset" is O(1):
// every slot carries the epoch that last wrote it, prepare() bumps the
// epoch, and a slot whose stamp differs from the current epoch reads as
// unvisited (+inf distance). A short route therefore costs O(window), not
// O(grid), and the open list's storage is reused too.
//
// Open-list order. Entries pop in the total order (f, h, node): f-score
// first, then the heuristic h (ties break toward the target, so uniform-cost
// regions expand a corridor, not a bounding box), then the node. Each entry
// is one 128-bit key (bits(f) << 64) | (h << 32) | local, and unsigned
// comparison of the keys is exactly that order: f >= 0, and a non-negative
// IEEE-754 double orders like its bit pattern read as an unsigned integer;
// h is an integer Manhattan distance; and inside one window row-major local
// ids order exactly like the whole-grid ids (row * cols + col) they replace.
// Keys are unique, so any correct priority queue pops the same sequence.
//
// Edge costs come from GridGraph: the maintained cost table when the grid
// tracks the search's weights (the global router's own rounds), else
// GridGraph::edge_cost evaluated per relaxation (e.g. the detailed router's
// 1.2 / 0.6 reroutes). Both give identical doubles, so the path does not
// depend on which one a search used.
//
// Arenas are cheap to keep per-thread (a 192x192 window is under 1 MiB of
// scratch) and are NOT thread-safe; thread_arena() gives each thread its
// own.

#include <cstdint>
#include <vector>

#include "route/grid_graph.hpp"

namespace maestro::route {

/// Search window of a segment: its bounding box bloated by the detour
/// margin, clamped to the grid.
struct SearchWindow {
  std::uint32_t col_lo = 0;
  std::uint32_t col_hi = 0;
  std::uint32_t row_lo = 0;
  std::uint32_t row_hi = 0;

  bool contains(const GCell& c) const {
    return c.col >= col_lo && c.col <= col_hi && c.row >= row_lo && c.row <= row_hi;
  }
};

/// Detour slack around a segment's bounding box (GCells).
inline constexpr std::uint32_t kDetourMargin = 6;

SearchWindow search_window(const GridGraph& g, const GCell& from, const GCell& to);

class MazeArena {
 public:
  /// Make the arena hold at least `slots` window-local slots and start a
  /// fresh search epoch. O(1) unless the arena must grow; growth keeps the
  /// old slots and value-initializes the new ones, so stale reads are
  /// impossible either way.
  void prepare(std::size_t slots);

  /// Expansions are batched per-arena and flushed to the global
  /// `route.maze_expansions` counter once this many accumulate, so threads
  /// searching at once don't ping-pong one shared cacheline on every
  /// search. The counter may therefore lag reality by < kExpansionFlush per
  /// live arena.
  static constexpr std::uint64_t kExpansionFlush = 1 << 14;

  std::size_t size() const { return slots_.size(); }
  std::uint32_t epoch() const { return epoch_; }

 private:
  friend std::vector<std::size_t> arena_maze_route(const GridGraph&, MazeArena&, const GCell&,
                                                   const GCell&, double, double);

  /// The one A* search; EdgeCost maps an edge id to its cost.
  template <typename EdgeCost>
  std::vector<std::size_t> route(const GridGraph& g, const GCell& from, const GCell& to,
                                 EdgeCost edge_cost);

  struct Slot {
    double dist;          ///< best known distance (valid iff stamp == epoch)
    std::uint32_t stamp;  ///< epoch that last wrote this slot
    std::uint32_t prev;   ///< local id of the predecessor on the best path
  };
  std::vector<Slot> slots_;
  /// Reusable open list of (f, h, local) keys; see the order argument above.
  std::vector<unsigned __int128> heap_;
  std::uint32_t epoch_ = 0;
  std::uint64_t pending_expansions_ = 0;  ///< not yet flushed to the registry
};

/// A* maze route of one segment with congestion-aware edge costs
/// (GridGraph::edge_cost), windowed to search_window(g, from, to).
/// Tie-breaking prefers nodes nearest the target, then the lower node id
/// (deterministic, cost-optimal — equal-cost paths may differ from the seed
/// router's). Returns the edge-id path (empty when from == to or —
/// defensively — when the target is unreachable).
std::vector<std::size_t> arena_maze_route(const GridGraph& g, MazeArena& arena,
                                          const GCell& from, const GCell& to,
                                          double present_weight, double history_weight);

/// Per-thread arena: the global router's searches, the detailed router's
/// reroutes and the public maze_route_segment all search on it.
MazeArena& thread_arena();

}  // namespace maestro::route
