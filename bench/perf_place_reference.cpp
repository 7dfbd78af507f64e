// The seed simulated-annealing placer, preserved verbatim as the baseline
// place::sa_place must match decision for decision (same RNG stream, same
// accept/reject sequence, same final placement) and beat in perf_place.

#include "perf_place_reference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace maestro::bench {

using namespace place;
using netlist::CellFunction;
using netlist::InstanceId;
using netlist::NetId;

namespace {

bool is_pad(const netlist::Netlist& nl, InstanceId id) {
  const auto f = nl.master_of(id).function;
  return f == CellFunction::Input || f == CellFunction::Output;
}

}  // namespace

AnnealResult anneal_placement_reference(Placement& pl, const AnnealOptions& opt, util::Rng& rng) {
  const auto& nl = pl.netlist();
  const auto& fp = pl.floorplan();
  AnnealResult res;

  // Movable cells and the nets touching each cell (for incremental HPWL).
  std::vector<InstanceId> movable;
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (!is_pad(nl, id)) movable.push_back(id);
  }
  if (movable.empty()) return res;

  std::vector<std::vector<NetId>> nets_of(nl.instance_count());
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(static_cast<NetId>(n));
    nets_of[net.driver].push_back(static_cast<NetId>(n));
    for (const auto& sink : net.sinks) {
      // A cell can appear multiple times on a net; record once.
      if (nets_of[sink.instance].empty() ||
          nets_of[sink.instance].back() != static_cast<NetId>(n)) {
        nets_of[sink.instance].push_back(static_cast<NetId>(n));
      }
    }
  }

  auto cost_of = [&](const std::vector<NetId>& nets) {
    std::int64_t c = 0;
    for (const NetId n : nets) c += pl.net_hpwl(n);
    return c;
  };

  res.initial_hpwl = pl.total_hpwl();
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

  for (std::size_t m = 0; m < total_moves; ++m, t *= cooling, range *= range_decay) {
    ++res.moves_attempted;
    const InstanceId a = movable[rng.below(movable.size())];
    if (rng.uniform() < opt.swap_fraction && movable.size() > 1) {
      // Swap two cells' locations.
      InstanceId b = movable[rng.below(movable.size())];
      if (a == b) continue;
      // Union of touched nets, dedup to avoid double counting.
      std::vector<NetId> touched = nets_of[a];
      touched.insert(touched.end(), nets_of[b].begin(), nets_of[b].end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      const std::int64_t before = cost_of(touched);
      const geom::Point pa = pl.loc(a);
      const geom::Point pb = pl.loc(b);
      pl.set_loc(a, pb);
      pl.set_loc(b, pa);
      const std::int64_t delta = cost_of(touched) - before;
      if (delta <= 0 || rng.uniform() < std::exp(-static_cast<double>(delta) / t)) {
        ++res.moves_accepted;
      } else {
        pl.set_loc(a, pa);
        pl.set_loc(b, pb);
      }
    } else {
      // Displace one cell within the current range window.
      const geom::Point pa = pl.loc(a);
      const auto dx = static_cast<geom::Dbu>(rng.uniform(-range, range));
      const auto dy = static_cast<geom::Dbu>(rng.uniform(-range, range));
      geom::Point cand{pa.x + dx, pa.y + dy};
      cand.x = std::clamp(cand.x, fp.core().lo.x, fp.core().hi.x - fp.site_width());
      cand.y = std::clamp(cand.y, fp.core().lo.y, fp.core().hi.y - 1);
      const geom::Point snapped = fp.snap(cand);
      if (snapped == pa) continue;
      const std::int64_t before = cost_of(nets_of[a]);
      pl.set_loc(a, snapped);
      const std::int64_t delta = cost_of(nets_of[a]) - before;
      if (delta <= 0 || rng.uniform() < std::exp(-static_cast<double>(delta) / t)) {
        ++res.moves_accepted;
      } else {
        pl.set_loc(a, pa);
      }
    }
  }
  res.final_hpwl = pl.total_hpwl();
  return res;
}

}  // namespace maestro::bench
