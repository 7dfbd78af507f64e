#include "route/grid_graph.hpp"

#include <algorithm>
#include <cassert>

namespace maestro::route {

GridGraph::GridGraph(std::size_t cols, std::size_t rows, double h_capacity, double v_capacity,
                     geom::GridIndexer indexer)
    : cols_(cols), rows_(rows), indexer_(indexer) {
  assert(cols > 0 && rows > 0);
  // Edge layout: all East edges first ((cols-1)*rows), then North edges.
  const std::size_t n_east = (cols - 1) * rows;
  const std::size_t n_north = cols * (rows - 1);
  capacity_.resize(n_east + n_north);
  usage_.assign(n_east + n_north, 0.0);
  history_.assign(n_east + n_north, 0.0);
  overflow_pos_.assign(n_east + n_north, kNotOverflowed);
  std::fill(capacity_.begin(), capacity_.begin() + static_cast<std::ptrdiff_t>(n_east),
            h_capacity);
  std::fill(capacity_.begin() + static_cast<std::ptrdiff_t>(n_east), capacity_.end(), v_capacity);
}

std::size_t GridGraph::edge_id(const GCell& c, Dir d) const {
  if (d == Dir::East) {
    assert(c.col + 1 < cols_);
    return c.row * (cols_ - 1) + c.col;
  }
  assert(c.row + 1 < rows_);
  return (cols_ - 1) * rows_ + c.row * cols_ + c.col;
}

std::pair<GCell, GCell> GridGraph::edge_cells(std::size_t edge) const {
  if (is_east(edge)) {
    const auto row = static_cast<std::uint32_t>(edge / (cols_ - 1));
    const auto col = static_cast<std::uint32_t>(edge % (cols_ - 1));
    return {{col, row}, {col + 1, row}};
  }
  const std::size_t base = edge - (cols_ - 1) * rows_;
  const auto row = static_cast<std::uint32_t>(base / cols_);
  const auto col = static_cast<std::uint32_t>(base % cols_);
  return {{col, row}, {col, row + 1}};
}

void GridGraph::update_ledger(std::size_t edge, double before_usage) {
  const double cap = capacity_[edge];
  const bool was = before_usage > cap;
  const bool now = usage_[edge] > cap;
  if (now && !was) {
    overflow_pos_[edge] = static_cast<std::uint32_t>(overflow_edges_.size());
    overflow_edges_.push_back(edge);
  } else if (was && !now) {
    const std::uint32_t pos = overflow_pos_[edge];
    const std::size_t moved = overflow_edges_.back();
    overflow_edges_[pos] = moved;
    overflow_pos_[moved] = pos;
    overflow_edges_.pop_back();
    overflow_pos_[edge] = kNotOverflowed;
  }
  if (cap > 0.0) {
    const double util = usage_[edge] / cap;
    if (util >= max_util_) {
      max_util_ = util;
      max_util_edge_ = edge;
      max_util_dirty_ = false;
    } else if (edge == max_util_edge_) {
      // The previous argmax shrank: some other edge may now hold the peak.
      max_util_dirty_ = true;
    }
  }
}

void GridGraph::reset_usage() {
  std::fill(usage_.begin(), usage_.end(), 0.0);
  std::fill(overflow_pos_.begin(), overflow_pos_.end(), kNotOverflowed);
  overflow_edges_.clear();
  max_util_ = 0.0;
  max_util_edge_ = 0;
  max_util_dirty_ = false;
  ++revision_;
  if (!cost_.empty()) track_costs(cost_present_w_, cost_history_w_);
}

void GridGraph::track_costs(double present_w, double history_w) {
  cost_present_w_ = present_w;
  cost_history_w_ = history_w;
  cost_.resize(usage_.size());
  for (std::size_t e = 0; e < cost_.size(); ++e) cost_[e] = edge_cost(e, present_w, history_w);
}

double GridGraph::total_overflow() const {
  // Ascending edge order makes the floating-point sum a pure function of the
  // usage state, independent of the insertion order of the ledger.
  std::vector<std::size_t> sorted(overflow_edges_.begin(), overflow_edges_.end());
  std::sort(sorted.begin(), sorted.end());
  double t = 0.0;
  for (const std::size_t e : sorted) t += overflow(e);
  return t;
}

double GridGraph::max_utilization() const {
  if (max_util_dirty_) {
    max_util_ = 0.0;
    max_util_edge_ = 0;
    for (std::size_t e = 0; e < usage_.size(); ++e) {
      if (capacity_[e] > 0.0) {
        const double util = usage_[e] / capacity_[e];
        if (util > max_util_) {
          max_util_ = util;
          max_util_edge_ = e;
        }
      }
    }
    max_util_dirty_ = false;
  }
  return max_util_;
}

}  // namespace maestro::route
