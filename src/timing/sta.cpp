#include "timing/sta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "timing/timing_graph.hpp"

namespace maestro::timing {

/// Aggregate usage/capacity of the (up to 4) edges at a GCell.
GCellStats gcell_stats(const route::GridGraph& g, std::size_t c, std::size_t r) {
  GCellStats s;
  double use = 0.0;
  double cap = 0.0;
  const route::GCell cell{static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(r)};
  if (c + 1 < g.cols()) {
    const auto e = g.edge_id(cell, route::Dir::East);
    use += g.usage(e);
    cap += g.capacity(e);
  }
  if (r + 1 < g.rows()) {
    const auto e = g.edge_id(cell, route::Dir::North);
    use += g.usage(e);
    cap += g.capacity(e);
  }
  s.utilization = cap > 0.0 ? use / cap : 0.0;
  return s;
}

SiMap build_si_map(const route::GridGraph& g) {
  SiMap m;
  m.cols = g.cols();
  m.rows = g.rows();
  m.source = &g;
  m.revision = g.revision();
  m.utilization.resize(m.cols * m.rows);
  for (std::size_t r = 0; r < m.rows; ++r) {
    for (std::size_t c = 0; c < m.cols; ++c) {
      m.utilization[r * m.cols + c] = gcell_stats(g, c, r).utilization;
    }
  }
  return m;
}

const std::vector<Corner>& standard_corners() {
  // Slow silicon is disproportionately slow on gates (device-dominated);
  // wire RC varies less; setup requirements grow at the slow corner. The
  // fast corner compresses gate delay more than wire delay. These cross-term
  // differences are deliberately not a single scalar of TT.
  static const std::vector<Corner> corners = {
      {"ss", 1.18, 1.08, 1.15},
      {"tt", 1.00, 1.00, 1.00},
      {"ff", 0.86, 0.95, 0.92},
  };
  return corners;
}

const Corner& corner_by_name(const std::string& name) {
  // The set is tiny and fixed, so "O(1)" is a two-character dispatch rather
  // than a hash map: no vector rebuild, no full string compares per lookup.
  const auto& corners = standard_corners();
  if (!name.empty()) {
    switch (name[0]) {
      case 's': if (name == "ss") return corners[0]; break;
      case 't': if (name == "tt") return corners[1]; break;
      case 'f': if (name == "ff") return corners[2]; break;
      default: break;
    }
  }
  assert(false && "unknown corner name");
  return corners[1];
}

const EndpointTiming* StaReport::endpoint_of(netlist::InstanceId id) const {
  for (const auto& ep : endpoints) {
    if (ep.endpoint == id) return &ep;
  }
  return nullptr;
}

StaReport run_sta(const place::Placement& pl, const ClockTree& clock, const StaOptions& opt,
                  const route::GridGraph* routed) {
  // Thin wrapper over the levelized kernel; reports are bit-identical to the
  // original per-call engine. Long-lived callers (sizing loops, ECO, corner
  // sweeps) should hold a TimingGraph instead and call analyze()/reanalyze()
  // on it to amortize the build.
  TimingGraph graph(pl, clock);
  return graph.analyze(opt, routed);
}

}  // namespace maestro::timing
