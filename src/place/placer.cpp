#include "place/placer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace maestro::place {

using netlist::CellFunction;
using netlist::InstanceId;
using netlist::NetId;

namespace {

bool is_pad(const netlist::Netlist& nl, InstanceId id) {
  const auto f = nl.master_of(id).function;
  return f == CellFunction::Input || f == CellFunction::Output;
}

}  // namespace

Placement random_placement(const netlist::Netlist& nl, const Floorplan& fp, util::Rng& rng) {
  Placement pl{nl, fp};
  const auto pis = nl.primary_inputs();
  const auto pos = nl.primary_outputs();
  const std::size_t total_io = pis.size() + pos.size();
  std::size_t ordinal = 0;
  for (const InstanceId id : pis) pl.set_loc(id, fp.io_pin_location(ordinal++, total_io));
  for (const InstanceId id : pos) pl.set_loc(id, fp.io_pin_location(ordinal++, total_io));

  const auto& core = fp.core();
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (is_pad(nl, id)) continue;
    const geom::Point p{
        core.lo.x + static_cast<geom::Dbu>(rng.below(static_cast<std::uint64_t>(
                        std::max<geom::Dbu>(core.width(), 1)))),
        core.lo.y + static_cast<geom::Dbu>(rng.below(static_cast<std::uint64_t>(
                        std::max<geom::Dbu>(core.height(), 1))))};
    pl.set_loc(id, fp.snap(p));
  }
  return pl;
}

AnnealResult sa_place(Placement& pl, netlist::DesignView& view, const AnnealOptions& opt,
                      util::Rng& rng) {
  obs::Span span("sa_place", "place");
  const auto& nl = pl.netlist();
  const auto& fp = pl.floorplan();
  AnnealResult res;

  view.sync(pl.locs(), pl.revision());

  std::vector<InstanceId> movable;
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (!is_pad(nl, id)) movable.push_back(id);
  }
  if (movable.empty()) return res;

  // Same schedule math as the reference engine: initial_hpwl is the view's
  // maintained total, which equals Placement::total_hpwl exactly.
  res.initial_hpwl = view.total_hpwl();
  const double hpwl_per_net =
      nl.net_count() > 0 ? static_cast<double>(res.initial_hpwl) / static_cast<double>(nl.net_count())
                         : 1.0;
  double t = std::max(opt.t_initial_frac * hpwl_per_net * 20.0, 1.0);
  const double t_final = std::max(opt.t_final_frac * hpwl_per_net * 20.0, 0.01);

  const auto total_moves = static_cast<std::size_t>(
      std::max(opt.moves_per_cell * static_cast<double>(movable.size()), 1.0));
  const double cooling = std::pow(t_final / t, 1.0 / static_cast<double>(total_moves));

  const double full_range = static_cast<double>(std::max(fp.core().width(), fp.core().height()));
  const double final_range =
      opt.final_range_sites * static_cast<double>(fp.site_width());
  const double range_decay = std::pow(std::max(final_range / full_range, 1e-6),
                                      1.0 / static_cast<double>(total_moves));
  double range = full_range;

  std::size_t incr_deltas = 0;
  for (std::size_t m = 0; m < total_moves; ++m, t *= cooling, range *= range_decay) {
    ++res.moves_attempted;
    const InstanceId a = movable[rng.below(movable.size())];
    if (rng.uniform() < opt.swap_fraction && movable.size() > 1) {
      InstanceId b = movable[rng.below(movable.size())];
      if (a == b) continue;
      // Exact integer delta over the precomputed dedup'd union of both
      // cells' nets, with the swapped origins derived from the view's own
      // cached pins; the placement is neither read nor written until the
      // move is accepted.
      const std::int64_t delta = view.trial_swap(a, b);
      ++incr_deltas;
      if (delta <= 0 || rng.uniform() < std::exp(-static_cast<double>(delta) / t)) {
        ++res.moves_accepted;
        const geom::Point pa = pl.loc(a);
        const geom::Point pb = pl.loc(b);
        pl.set_loc(a, pb);
        pl.set_loc(b, pa);
        view.commit(pl.revision());
      } else {
        view.discard();
      }
    } else {
      const geom::Point pa = pl.loc(a);
      const auto dx = static_cast<geom::Dbu>(rng.uniform(-range, range));
      const auto dy = static_cast<geom::Dbu>(rng.uniform(-range, range));
      geom::Point cand{pa.x + dx, pa.y + dy};
      cand.x = std::clamp(cand.x, fp.core().lo.x, fp.core().hi.x - fp.site_width());
      cand.y = std::clamp(cand.y, fp.core().lo.y, fp.core().hi.y - 1);
      const geom::Point snapped = fp.snap(cand);
      if (snapped == pa) continue;
      const std::int64_t delta = view.trial_move(a, snapped);
      ++incr_deltas;
      if (delta <= 0 || rng.uniform() < std::exp(-static_cast<double>(delta) / t)) {
        ++res.moves_accepted;
        pl.set_loc(a, snapped);
        view.commit(pl.revision());
      } else {
        view.discard();
      }
    }
  }
  res.final_hpwl = view.total_hpwl();

  auto& reg = obs::Registry::global();
  reg.counter("place.moves_accepted").add(res.moves_accepted);
  reg.counter("place.incr_deltas").add(incr_deltas);
  span.arg("moves", static_cast<double>(res.moves_attempted))
      .arg("accepted", static_cast<double>(res.moves_accepted))
      .arg("final_hpwl", static_cast<double>(res.final_hpwl));
  return res;
}

AnnealResult anneal_placement(Placement& pl, const AnnealOptions& opt, util::Rng& rng) {
  netlist::DesignView view{pl.netlist()};
  return sa_place(pl, view, opt, rng);
}

geom::Dbu legalize(Placement& pl) {
  const auto& nl = pl.netlist();
  const auto& fp = pl.floorplan();
  const auto& rows = fp.rows();
  assert(!rows.empty());

  struct Cell {
    InstanceId id;
    geom::Point want;
    geom::Dbu width;
  };
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (is_pad(nl, id)) continue;
    cells.push_back({id, pl.loc(id), nl.master_of(id).width_dbu});
  }
  // Phase 1 — capacity-aware row assignment: each cell goes to the nearest
  // row (by y, then x congestion) whose remaining width capacity fits it.
  // Tracking capacity as summed width (not edge position) means gaps never
  // strand space, so assignment succeeds whenever the core physically fits.
  std::vector<geom::Dbu> row_free(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) row_free[r] = rows[r].x_hi - rows[r].x_lo;
  std::vector<std::vector<std::size_t>> row_cells(rows.size());

  // Wider cells first within a y-band ordering keeps fragmentation low.
  std::vector<std::size_t> cell_order(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) cell_order[i] = i;
  std::sort(cell_order.begin(), cell_order.end(), [&](std::size_t a, std::size_t b) {
    return cells[a].width > cells[b].width;
  });
  for (const std::size_t ci : cell_order) {
    const Cell& c = cells[ci];
    const std::size_t want_row = fp.nearest_row(c.want.y);
    std::size_t best_row = rows.size();
    for (std::size_t d = 0; d < rows.size(); ++d) {
      bool any_candidate = false;
      for (const std::int64_t dir : {+1, -1}) {
        const std::int64_t rr =
            static_cast<std::int64_t>(want_row) + dir * static_cast<std::int64_t>(d);
        if (rr < 0 || rr >= static_cast<std::int64_t>(rows.size())) continue;
        any_candidate = true;
        const auto r = static_cast<std::size_t>(rr);
        if (row_free[r] >= c.width) {
          best_row = r;
          break;
        }
        if (d == 0) break;  // dir +1 and -1 coincide at d == 0
      }
      if (best_row != rows.size()) break;
      if (!any_candidate && d > 0) break;  // ran off both ends
    }
    assert(best_row != rows.size() && "core too small to legalize (utilization too high)");
    row_free[best_row] -= c.width;
    row_cells[best_row].push_back(ci);
  }

  // Phase 2 — per-row packing: order by desired x, place at
  // max(prev_end, want.x), then push the overhanging suffix back left so the
  // row never overflows (Abacus-style clamp).
  geom::Dbu displacement = 0;
  const geom::Dbu site = fp.site_width();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    auto& ids = row_cells[r];
    if (ids.empty()) continue;
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return cells[a].want.x < cells[b].want.x;
    });
    std::vector<geom::Dbu> x(ids.size());
    geom::Dbu edge = rows[r].x_lo;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      geom::Dbu want = std::max(edge, cells[ids[i]].want.x);
      want = ((want - rows[r].x_lo + site - 1) / site) * site + rows[r].x_lo;
      x[i] = want;
      edge = want + cells[ids[i]].width;
    }
    // Clamp from the right: the last cell must end at or before x_hi; walk
    // left resolving any induced overlaps.
    geom::Dbu limit = rows[r].x_hi;
    for (std::size_t i = ids.size(); i-- > 0;) {
      const geom::Dbu max_x = limit - cells[ids[i]].width;
      if (x[i] > max_x) {
        x[i] = ((max_x - rows[r].x_lo) / site) * site + rows[r].x_lo;  // snap down
      }
      limit = x[i];
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Cell& c = cells[ids[i]];
      assert(x[i] >= rows[r].x_lo && x[i] + c.width <= rows[r].x_hi);
      pl.set_loc(c.id, {x[i], rows[r].y});
      displacement += std::abs(x[i] - c.want.x) + std::abs(rows[r].y - c.want.y);
    }
  }
  return displacement;
}

}  // namespace maestro::place
