#pragma once
// Global-routing grid graph (GCell lattice with per-edge track capacity),
// shared by the maze router and congestion analyses.
//
// The graph keeps an *incremental overflow ledger*: add_usage maintains the
// total overflow, the set of overflowed edges and the peak utilization as it
// goes, so the negotiation loop's convergence check and history charging
// iterate only the overflowed set instead of rescanning all O(E) edges per
// round (the seed router's two full scans per round).
//
// Revision contract: revision() is a monotonic counter bumped by EVERY
// mutation that can change maze-route costs or usage-derived analyses —
// add_usage, reset_usage AND bump_history (history feeds the negotiated
// congestion cost, so a history bump invalidates cached routing state just
// like a usage change). Consumers caching usage/cost-derived state (the STA
// SI congestion map) compare revisions instead of rescanning the grid to
// detect staleness.
//
// Cost contract: edge_cost() is THE congestion-aware maze cost — one
// expression shared by every search. While a router holds the grid it calls
// track_costs(present_w, history_w), and the graph then keeps a per-edge
// table equal, bit for bit, to edge_cost(e, present_w, history_w): add_usage
// and bump_history refresh the one edge they touch, reset_usage refreshes
// every edge, and track_costs itself fills the table. Capacities never
// change after construction, so no other mutation can stale it. Searches
// with those exact weights read cost_table() instead of re-deriving the
// cost (a division and two branches) on every relaxation; any other weights
// evaluate edge_cost() directly and get the same numbers.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/geometry.hpp"

namespace maestro::route {

/// A GCell identified by (col, row).
struct GCell {
  std::uint32_t col = 0;
  std::uint32_t row = 0;
  friend bool operator==(const GCell&, const GCell&) = default;
};

/// Edge direction between adjacent GCells.
enum class Dir : std::uint8_t { East, North };

/// Lattice of GCells; horizontal edges (East) and vertical edges (North)
/// carry independent capacities, mirroring layer directionality.
///
/// Thread-safety: const queries of per-edge state (capacity/usage/history)
/// are safe concurrently with each other; mutations and the ledger queries
/// (total_overflow, max_utilization, overflowed*) must be serialized by the
/// caller.
class GridGraph {
 public:
  GridGraph() = default;
  GridGraph(std::size_t cols, std::size_t rows, double h_capacity, double v_capacity,
            geom::GridIndexer indexer);

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  const geom::GridIndexer& indexer() const { return indexer_; }

  std::size_t node_id(const GCell& c) const { return c.row * cols_ + c.col; }
  GCell cell_of(std::size_t id) const {
    return {static_cast<std::uint32_t>(id % cols_), static_cast<std::uint32_t>(id / cols_)};
  }
  std::size_t node_count() const { return cols_ * rows_; }

  /// Edge index for the East/North edge leaving `c`. Caller must ensure the
  /// edge exists (col < cols-1 for East; row < rows-1 for North).
  std::size_t edge_id(const GCell& c, Dir d) const;
  std::size_t edge_count() const { return usage_.size(); }

  /// True when `edge` is an East (horizontal) edge.
  bool is_east(std::size_t edge) const { return edge < (cols_ - 1) * rows_; }
  /// The two GCells an edge connects (lower cell first).
  std::pair<GCell, GCell> edge_cells(std::size_t edge) const;

  double capacity(std::size_t edge) const { return capacity_[edge]; }
  double usage(std::size_t edge) const { return usage_[edge]; }
  void add_usage(std::size_t edge, double amount) {
    const double before = usage_[edge];
    usage_[edge] += amount;
    ++revision_;
    update_ledger(edge, before);
    if (!cost_.empty()) cost_[edge] = edge_cost(edge, cost_present_w_, cost_history_w_);
  }
  /// Zero all usage (history is kept) and refresh the whole cost table.
  void reset_usage();

  /// Negotiated-congestion maze cost of traversing one edge: base 1, a
  /// quadratic penalty past 60% utilization, a flat penalty once the edge is
  /// full (both scaled by `present_w`), plus `history_w` x history.
  double edge_cost(std::size_t edge, double present_w, double history_w) const {
    const double usage = usage_[edge];
    const double capacity = capacity_[edge];
    const double util = capacity > 0.0 ? usage / capacity : 10.0;
    double cost = 1.0;
    if (util > 0.6) cost += present_w * (util - 0.6) * (util - 0.6) * 12.0;
    if (usage >= capacity) cost += present_w * 8.0;
    cost += history_w * history_[edge];
    return cost;
  }

  /// Maintain a per-edge table of edge_cost(e, present_w, history_w) from now
  /// on (O(E) fill; see the cost contract above). untrack_costs() drops it.
  void track_costs(double present_w, double history_w);
  void untrack_costs() { cost_ = {}; }
  /// The maintained table when it was built for exactly these weights,
  /// nullptr otherwise (no table, or other weights).
  const double* cost_table(double present_w, double history_w) const {
    return !cost_.empty() && present_w == cost_present_w_ && history_w == cost_history_w_
               ? cost_.data()
               : nullptr;
  }

  /// Monotonic counter bumped on every cost-relevant mutation (add_usage,
  /// reset_usage, bump_history) — see the revision contract above.
  std::uint64_t revision() const { return revision_; }

  double overflow(std::size_t edge) const {
    const double o = usage_[edge] - capacity_[edge];
    return o > 0.0 ? o : 0.0;
  }
  /// Sum of per-edge overflow; O(k log k) in the number of overflowed edges
  /// (summed in ascending edge order, so the value is independent of the
  /// mutation history that produced the ledger).
  double total_overflow() const;
  /// Peak usage/capacity ratio; O(1) while usage grows, O(E) recompute only
  /// after the argmax edge itself decreased (lazy, cached).
  double max_utilization() const;
  std::size_t overflowed_edges() const { return overflow_edges_.size(); }
  /// The overflowed-edge set, in insertion order (deterministic for a
  /// deterministic mutation sequence, but NOT sorted).
  std::span<const std::size_t> overflowed() const { return overflow_edges_; }

  /// History cost used by negotiated-congestion routing. Bumps revision():
  /// history changes maze costs, so cached routing state is stale after it.
  double history(std::size_t edge) const { return history_[edge]; }
  void bump_history(std::size_t edge, double amount) {
    history_[edge] += amount;
    ++revision_;
    if (!cost_.empty()) cost_[edge] = edge_cost(edge, cost_present_w_, cost_history_w_);
  }

 private:
  static constexpr std::uint32_t kNotOverflowed = 0xffffffffu;

  void update_ledger(std::size_t edge, double before_usage);

  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  geom::GridIndexer indexer_;
  std::vector<double> capacity_;
  std::vector<double> usage_;
  std::vector<double> history_;
  std::uint64_t revision_ = 0;

  // Maintained edge-cost table (empty unless track_costs() is active).
  std::vector<double> cost_;
  double cost_present_w_ = 0.0;
  double cost_history_w_ = 0.0;

  // Overflow ledger: membership index per edge + compact id set.
  std::vector<std::uint32_t> overflow_pos_;
  std::vector<std::size_t> overflow_edges_;
  // Peak-utilization cache: exact while utilization only grows; a decrease
  // of the argmax edge marks it dirty and the next query rescans.
  mutable double max_util_ = 0.0;
  mutable std::size_t max_util_edge_ = 0;
  mutable bool max_util_dirty_ = false;
};

}  // namespace maestro::route
