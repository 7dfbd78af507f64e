// Equivalence suite for timing::TimingGraph — the levelized STA kernel.
//
// The kernel's contract is *bit-identical* reports to the seed per-call
// engine. To keep that falsifiable forever, this file carries verbatim
// copies of the seed implementations (reference_sta below mirrors the
// original run_sta; reference_wireload mirrors flow::wireload_timing) and
// asserts exact (==, not near) equality across:
//   * GBA/PBA x SI x hold x all three standard corners,
//   * incremental re-propagation over random resize dirty sets vs. a fresh
//     full reference run (property test),
//   * structural ECO (hold-buffer insertion) + sync() + reanalyze(),
//   * wireload trial/undo loops (the gate-sizing access pattern).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "obs/registry.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "timing/sta.hpp"
#include "timing/timing_graph.hpp"

namespace mn = maestro::netlist;
namespace mp = maestro::place;
namespace mt = maestro::timing;
namespace mr = maestro::route;
namespace mg = maestro::geom;
using maestro::util::Rng;

namespace {

const mn::CellLibrary& lib() {
  static const mn::CellLibrary l = mn::make_default_library();
  return l;
}

struct Fixture {
  std::unique_ptr<mn::Netlist> nl;
  std::unique_ptr<mp::Floorplan> fp;
  std::unique_ptr<mp::Placement> pl;
  mt::ClockTree clock;
};

Fixture make_fixture(std::uint64_t seed, std::size_t gates = 400, double flop_ratio = 0.15) {
  Fixture f;
  mn::RandomLogicSpec spec;
  spec.gates = gates;
  spec.flop_ratio = flop_ratio;
  spec.seed = seed;
  f.nl = std::make_unique<mn::Netlist>(mn::make_random_logic(lib(), spec));
  f.fp = std::make_unique<mp::Floorplan>(mp::Floorplan::for_netlist(*f.nl, 0.7));
  Rng rng{seed};
  f.pl = std::make_unique<mp::Placement>(mp::random_placement(*f.nl, *f.fp, rng));
  mp::AnnealOptions ao;
  ao.moves_per_cell = 8.0;
  mp::anneal_placement(*f.pl, ao, rng);
  mp::legalize(*f.pl);
  f.clock = mt::build_clock_tree(*f.pl, mt::ClockTreeOptions{}, rng);
  return f;
}

mr::GridGraph make_routed(const Fixture& f, std::uint64_t /*seed*/) {
  mr::RouteOptions ro;
  ro.gcells_x = ro.gcells_y = 16;
  ro.h_capacity = ro.v_capacity = 8.0;  // force congestion so SI actually bites
  mr::GridGraph grid;
  mr::global_route(*f.pl, ro, grid);
  return grid;
}

// ---------------------------------------------------------------------------
// Reference engine: verbatim copy of the seed run_sta (pre-kernel engine).
// ---------------------------------------------------------------------------

struct RefNodeState {
  double arrival = 0.0;
  std::size_t stages = 0;
  double wire_delay = 0.0;
  double gate_delay = 0.0;
  std::size_t max_fanout = 0;
};

double ref_si_utilization(const mr::GridGraph& g, const mg::Point& a, const mg::Point& b) {
  const auto [c0, r0] = g.indexer().cell_of(a);
  const auto [c1, r1] = g.indexer().cell_of(b);
  const std::size_t clo = std::min(c0, c1);
  const std::size_t chi = std::max(c0, c1);
  const std::size_t rlo = std::min(r0, r1);
  const std::size_t rhi = std::max(r0, r1);
  double worst = 0.0;
  for (std::size_t c = clo; c <= chi; ++c) {
    for (std::size_t r = rlo; r <= rhi; ++r) {
      const mt::GCellStats s = mt::gcell_stats(g, c, r);
      worst = std::max(worst, s.utilization);
    }
  }
  return worst;
}

mt::StaReport reference_sta(const mp::Placement& pl, const mt::ClockTree& clock,
                            const mt::StaOptions& opt, const mr::GridGraph* routed = nullptr) {
  using mn::CellFunction;
  using mn::InstanceId;
  using mn::NetId;
  const auto& nl = pl.netlist();
  mt::StaReport report;
  const auto order = nl.topo_order();

  std::vector<RefNodeState> state(nl.instance_count());
  const bool pba = opt.mode == mt::AnalysisMode::PathBased;
  const double derate = pba ? 1.0 : opt.gba_derate;
  double cost = 0.0;

  std::vector<double> net_load(nl.net_count(), 0.0);
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(static_cast<NetId>(n));
    const double wire_len = static_cast<double>(pl.net_hpwl(static_cast<NetId>(n)));
    double load = opt.wire.cap_per_nm_ff * wire_len;
    for (const auto& sink : net.sinks) load += nl.master_of(sink.instance).input_cap_ff;
    net_load[n] = load;
  }

  auto wire_delay = [&](NetId n, InstanceId sink_inst) {
    const auto& net = nl.net(n);
    const mg::Point a = pl.pin_of(net.driver);
    const mg::Point b = pl.pin_of(sink_inst);
    const double len = pba ? static_cast<double>(mg::manhattan(a, b))
                           : static_cast<double>(pl.net_hpwl(n));
    const double rw = opt.wire.res_per_nm_kohm * len;
    const double cw = opt.wire.cap_per_nm_ff * len;
    const double sink_cap = nl.master_of(sink_inst).input_cap_ff;
    double d = rw * (0.5 * cw + sink_cap) * opt.corner.wire_factor;
    if (opt.with_si && routed != nullptr) {
      d *= 1.0 + opt.si_coupling_factor * ref_si_utilization(*routed, a, b);
      cost += 4.0;
    }
    cost += pba ? 2.0 : 1.0;
    return d;
  };

  auto wire_delay_early = [&](NetId n, InstanceId sink_inst) {
    const auto& net = nl.net(n);
    const mg::Point a = pl.pin_of(net.driver);
    const mg::Point b = pl.pin_of(sink_inst);
    const double len = static_cast<double>(mg::manhattan(a, b));
    const double rw = opt.wire.res_per_nm_kohm * len;
    const double cw = opt.wire.cap_per_nm_ff * len;
    const double sink_cap = nl.master_of(sink_inst).input_cap_ff;
    cost += 1.0;
    return rw * (0.5 * cw + sink_cap) * opt.corner.wire_factor;
  };

  for (const InstanceId u : order) {
    const auto& m = nl.master_of(u);
    RefNodeState& su = state[u] = RefNodeState{};
    cost += 1.0;

    if (m.function == CellFunction::Input) {
      su.arrival = opt.io_input_delay_ps;
    } else if (m.function == CellFunction::Dff) {
      su.arrival = clock.insertion_of(u) + m.clk_to_q_ps * opt.corner.gate_factor;
    } else if (m.function == CellFunction::Output) {
      // Terminal; handled at endpoint collection below.
    } else {
      double worst_in = 0.0;
      RefNodeState best_src{};
      for (const NetId in : nl.instance(u).input_nets) {
        if (in == mn::kNoNet) continue;
        const auto& net = nl.net(in);
        const double wd = wire_delay(in, u);
        const double cand = state[net.driver].arrival + wd * derate;
        if (cand >= worst_in) {
          worst_in = cand;
          best_src = state[net.driver];
          best_src.wire_delay += wd;
          best_src.max_fanout = std::max(best_src.max_fanout, net.sinks.size());
        }
      }
      const NetId out = nl.instance(u).output_net;
      const double load = out != mn::kNoNet ? net_load[out] : 0.0;
      const double gd = m.delay_ps(load) * derate * opt.corner.gate_factor;
      su = best_src;
      su.arrival = worst_in + gd;
      su.stages += 1;
      su.gate_delay += gd;
    }
  }

  auto arrival_at_pin = [&](InstanceId inst, NetId in) {
    const auto& net = nl.net(in);
    const double wd = wire_delay(in, inst);
    RefNodeState s = state[net.driver];
    s.arrival += wd * derate;
    s.wire_delay += wd;
    s.max_fanout = std::max(s.max_fanout, net.sinks.size());
    return s;
  };

  std::vector<double> early(nl.instance_count(), 0.0);
  if (opt.with_hold) {
    const double early_derate = pba ? 1.0 : opt.gba_early_derate;
    for (const InstanceId u : order) {
      const auto& m = nl.master_of(u);
      cost += 1.0;
      if (m.function == CellFunction::Input) {
        early[u] = opt.io_input_delay_ps + clock.min_insertion_ps;
      } else if (m.function == CellFunction::Dff) {
        early[u] = clock.insertion_of(u) + m.clk_to_q_ps * opt.corner.gate_factor;
      } else if (m.function == CellFunction::Output) {
        // terminal
      } else {
        double best_in = std::numeric_limits<double>::infinity();
        for (const NetId in : nl.instance(u).input_nets) {
          if (in == mn::kNoNet) continue;
          const double wd = wire_delay_early(in, u);
          best_in = std::min(best_in, early[nl.net(in).driver] + wd * early_derate);
        }
        if (!std::isfinite(best_in)) best_in = 0.0;
        const NetId out_net = nl.instance(u).output_net;
        const double load = out_net != mn::kNoNet ? net_load[out_net] : 0.0;
        early[u] = best_in + m.delay_ps(load) * early_derate * opt.corner.gate_factor;
      }
    }
  }

  double wns = std::numeric_limits<double>::infinity();
  double whs = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    const auto& m = nl.master_of(id);
    mt::EndpointTiming ep;
    if (m.function == CellFunction::Dff) {
      const NetId in = nl.instance(id).input_nets[0];
      if (in == mn::kNoNet) continue;
      const RefNodeState s = arrival_at_pin(id, in);
      ep.endpoint = id;
      ep.is_flop = true;
      ep.arrival_ps = s.arrival;
      ep.required_ps =
          opt.clock_period_ps + clock.insertion_of(id) - m.setup_ps * opt.corner.setup_factor;
      ep.path_stages = s.stages;
      ep.path_wire_delay_ps = s.wire_delay;
      ep.path_gate_delay_ps = s.gate_delay;
      ep.max_fanout_on_path = s.max_fanout;
      if (opt.with_hold) {
        const double early_derate = pba ? 1.0 : opt.gba_early_derate;
        const double wd = wire_delay_early(in, id);
        const double early_at_d = early[nl.net(in).driver] + wd * early_derate;
        ep.hold_slack_ps = early_at_d -
                           (clock.insertion_of(id) + m.hold_ps * opt.corner.setup_factor);
        whs = std::min(whs, ep.hold_slack_ps);
        if (ep.hold_slack_ps < 0.0) ++report.hold_violations;
      }
    } else if (m.function == CellFunction::Output) {
      const NetId in = nl.instance(id).input_nets[0];
      if (in == mn::kNoNet) continue;
      const RefNodeState s = arrival_at_pin(id, in);
      ep.endpoint = id;
      ep.is_flop = false;
      ep.arrival_ps = s.arrival;
      ep.required_ps = opt.clock_period_ps - opt.io_output_margin_ps;
      ep.path_stages = s.stages;
      ep.path_wire_delay_ps = s.wire_delay;
      ep.path_gate_delay_ps = s.gate_delay;
      ep.max_fanout_on_path = s.max_fanout;
    } else {
      continue;
    }
    ep.slack_ps = ep.required_ps - ep.arrival_ps;
    if (ep.slack_ps < 0.0) {
      report.tns_ps += ep.slack_ps;
      ++report.failing_endpoints;
    }
    wns = std::min(wns, ep.slack_ps);
    report.endpoints.push_back(ep);
  }
  report.wns_ps = report.endpoints.empty() ? 0.0 : wns;
  report.whs_ps = std::isfinite(whs) ? whs : 0.0;
  report.analysis_cost = cost;
  return report;
}

// Verbatim copy of the seed flow::wireload_timing (pre-kernel engine).
struct RefWireload {
  double critical = 0.0;
  std::vector<double> arrival;
};

RefWireload reference_wireload(const mn::Netlist& nl, double wireload_factor,
                               double clk_to_q_margin_ps = 0.0) {
  using mn::CellFunction;
  using mn::InstanceId;
  using mn::NetId;
  RefWireload wt;
  wt.arrival.assign(nl.instance_count(), 0.0);
  const auto order = nl.topo_order();
  for (const InstanceId u : order) {
    const auto& m = nl.master_of(u);
    double arr = 0.0;
    if (m.function == CellFunction::Input) {
      arr = 0.0;
    } else if (m.function == CellFunction::Dff) {
      arr = m.clk_to_q_ps + clk_to_q_margin_ps;
    } else if (m.function == CellFunction::Output) {
      continue;
    } else {
      double worst = 0.0;
      for (const NetId in : nl.instance(u).input_nets) {
        if (in == mn::kNoNet) continue;
        worst = std::max(worst, wt.arrival[nl.net(in).driver]);
      }
      const NetId out = nl.instance(u).output_net;
      double load = 0.0;
      if (out != mn::kNoNet) {
        for (const auto& sink : nl.net(out).sinks) {
          load += nl.master_of(sink.instance).input_cap_ff;
        }
      }
      arr = worst + m.delay_ps(load * wireload_factor);
    }
    wt.arrival[u] = arr;
  }
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    const auto& m = nl.master_of(id);
    if (m.function != CellFunction::Dff && m.function != CellFunction::Output) continue;
    for (const NetId in : nl.instance(id).input_nets) {
      if (in == mn::kNoNet) continue;
      const double arr = wt.arrival[nl.net(in).driver];
      const double setup = m.function == CellFunction::Dff ? m.setup_ps : 0.0;
      wt.critical = std::max(wt.critical, arr + setup);
    }
  }
  return wt;
}

// ---------------------------------------------------------------------------
// Exact-equality assertions (== on doubles: bitwise contract, not "near").
// ---------------------------------------------------------------------------

void expect_report_eq(const mt::StaReport& got, const mt::StaReport& want,
                      bool check_cost = true) {
  ASSERT_EQ(got.endpoints.size(), want.endpoints.size());
  for (std::size_t i = 0; i < want.endpoints.size(); ++i) {
    const auto& g = got.endpoints[i];
    const auto& w = want.endpoints[i];
    EXPECT_EQ(g.endpoint, w.endpoint) << "endpoint " << i;
    EXPECT_EQ(g.is_flop, w.is_flop) << "endpoint " << i;
    EXPECT_EQ(g.arrival_ps, w.arrival_ps) << "endpoint " << i;
    EXPECT_EQ(g.required_ps, w.required_ps) << "endpoint " << i;
    EXPECT_EQ(g.slack_ps, w.slack_ps) << "endpoint " << i;
    EXPECT_EQ(g.path_stages, w.path_stages) << "endpoint " << i;
    EXPECT_EQ(g.path_wire_delay_ps, w.path_wire_delay_ps) << "endpoint " << i;
    EXPECT_EQ(g.path_gate_delay_ps, w.path_gate_delay_ps) << "endpoint " << i;
    EXPECT_EQ(g.max_fanout_on_path, w.max_fanout_on_path) << "endpoint " << i;
    EXPECT_EQ(g.hold_slack_ps, w.hold_slack_ps) << "endpoint " << i;
  }
  EXPECT_EQ(got.wns_ps, want.wns_ps);
  EXPECT_EQ(got.tns_ps, want.tns_ps);
  EXPECT_EQ(got.whs_ps, want.whs_ps);
  EXPECT_EQ(got.failing_endpoints, want.failing_endpoints);
  EXPECT_EQ(got.hold_violations, want.hold_violations);
  if (check_cost) {
    EXPECT_EQ(got.analysis_cost, want.analysis_cost);
  }
}

/// All option combinations the seed engine supported.
std::vector<mt::StaOptions> all_option_combos() {
  std::vector<mt::StaOptions> combos;
  for (const auto& corner : mt::standard_corners()) {
    for (const bool pba : {false, true}) {
      for (const bool si : {false, true}) {
        for (const bool hold : {false, true}) {
          mt::StaOptions opt;
          opt.mode = pba ? mt::AnalysisMode::PathBased : mt::AnalysisMode::GraphBased;
          opt.with_si = si;
          opt.with_hold = hold;
          opt.corner = corner;
          opt.clock_period_ps = 700.0;
          combos.push_back(opt);
        }
      }
    }
  }
  return combos;
}

/// Resize a random combinational instance to a different drive variant;
/// returns its id (kNoInstance when nothing is resizable). When
/// `prev_master` is non-null it receives the master index before the resize.
mn::InstanceId resize_random(mn::Netlist& nl, Rng& rng, std::size_t* prev_master = nullptr) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto id =
        static_cast<mn::InstanceId>(rng.below(nl.instance_count()));
    const auto f = nl.master_of(id).function;
    if (f == mn::CellFunction::Input || f == mn::CellFunction::Output ||
        f == mn::CellFunction::Dff) {
      continue;
    }
    const auto vars = lib().variants(f);
    if (vars.size() < 2) continue;
    const std::size_t cur = nl.instance(id).master;
    std::size_t pick = vars[rng.below(vars.size())];
    if (pick == cur) pick = vars[0] == cur ? vars[1] : vars[0];
    if (prev_master != nullptr) *prev_master = cur;
    nl.resize_instance(id, pick);
    return id;
  }
  return mn::kNoInstance;
}

}  // namespace

// ---------------------------------------------------------------------------
// Full-analysis equivalence
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, MatchesSeedAcrossModesCornersSiHold) {
  const auto f = make_fixture(31, 500, 0.18);
  const auto grid = make_routed(f, 31);
  for (const auto& opt : all_option_combos()) {
    SCOPED_TRACE(opt.corner.name + (opt.mode == mt::AnalysisMode::PathBased ? "/pba" : "/gba") +
                 (opt.with_si ? "/si" : "") + (opt.with_hold ? "/hold" : ""));
    const auto want = reference_sta(*f.pl, f.clock, opt, &grid);
    const auto got = mt::run_sta(*f.pl, f.clock, opt, &grid);
    expect_report_eq(got, want);
  }
}

TEST(KernelEquivalence, GraphReuseAcrossOptionChanges) {
  // One long-lived graph answering heterogeneous queries must match a fresh
  // seed run for each — no state from the previous query may leak.
  const auto f = make_fixture(37);
  const auto grid = make_routed(f, 37);
  mt::TimingGraph graph(*f.pl, f.clock);
  for (const auto& opt : all_option_combos()) {
    SCOPED_TRACE(opt.corner.name + (opt.mode == mt::AnalysisMode::PathBased ? "/pba" : "/gba") +
                 (opt.with_si ? "/si" : "") + (opt.with_hold ? "/hold" : ""));
    expect_report_eq(graph.analyze(opt, &grid), reference_sta(*f.pl, f.clock, opt, &grid));
  }
}

// ---------------------------------------------------------------------------
// Incremental re-propagation (property tests over random dirty sets)
// ---------------------------------------------------------------------------

TEST(Incremental, RandomResizeDirtySetsMatchFullGbaHold) {
  auto f = make_fixture(43, 600, 0.18);
  mt::StaOptions opt;
  opt.with_hold = true;
  opt.clock_period_ps = 800.0;
  mt::TimingGraph graph(*f.pl, f.clock);
  graph.analyze(opt);
  Rng rng{77};
  std::size_t total_reprop = 0;
  const int rounds = 10;
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(round);
    std::vector<mn::InstanceId> dirty;
    const int k = static_cast<int>(rng.range(1, 4));
    for (int j = 0; j < k; ++j) {
      const auto id = resize_random(*f.nl, rng);
      if (id != mn::kNoInstance) dirty.push_back(id);
    }
    ASSERT_FALSE(dirty.empty());
    const auto inc = graph.reanalyze(dirty, opt);
    const auto want = reference_sta(*f.pl, f.clock, opt);
    expect_report_eq(inc, want, /*check_cost=*/false);
    EXPECT_LE(graph.last_repropagated(), graph.node_count());
    total_reprop += graph.last_repropagated();
  }
  // The whole point: small dirty sets must not re-propagate the whole graph.
  EXPECT_LT(total_reprop, rounds * graph.node_count());
}

TEST(Incremental, RandomResizeDirtySetsMatchFullPbaSiHold) {
  auto f = make_fixture(47, 600, 0.18);
  const auto grid = make_routed(f, 47);
  mt::StaOptions opt;
  opt.mode = mt::AnalysisMode::PathBased;
  opt.with_si = true;
  opt.with_hold = true;
  opt.clock_period_ps = 800.0;
  mt::TimingGraph graph(*f.pl, f.clock);
  graph.analyze(opt, &grid);
  Rng rng{101};
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    std::vector<mn::InstanceId> dirty;
    const int k = static_cast<int>(rng.range(1, 3));
    for (int j = 0; j < k; ++j) {
      const auto id = resize_random(*f.nl, rng);
      if (id != mn::kNoInstance) dirty.push_back(id);
    }
    ASSERT_FALSE(dirty.empty());
    const auto inc = graph.reanalyze(dirty, opt, &grid);
    const auto want = reference_sta(*f.pl, f.clock, opt, &grid);
    expect_report_eq(inc, want, /*check_cost=*/false);
  }
}

TEST(Incremental, EmptyDirtySetReturnsCachedReport) {
  const auto f = make_fixture(53);
  mt::StaOptions opt;
  opt.with_hold = true;
  mt::TimingGraph graph(*f.pl, f.clock);
  const auto full = graph.analyze(opt);
  const auto inc = graph.reanalyze({}, opt);
  expect_report_eq(inc, full, /*check_cost=*/false);
  EXPECT_EQ(graph.last_repropagated(), 0u);
}

TEST(Incremental, OptionChangeFallsBackToFullAnalyze) {
  auto f = make_fixture(59);
  mt::StaOptions gba;
  mt::TimingGraph graph(*f.pl, f.clock);
  graph.analyze(gba);
  Rng rng{7};
  const auto id = resize_random(*f.nl, rng);
  ASSERT_NE(id, mn::kNoInstance);
  mt::StaOptions pba;
  pba.mode = mt::AnalysisMode::PathBased;
  // Incompatible cached propagation: must transparently run (and charge) a
  // full analysis, bit-identical to the seed engine.
  const auto got = graph.reanalyze({id}, pba);
  expect_report_eq(got, reference_sta(*f.pl, f.clock, pba));
}

TEST(Incremental, StructuralEcoBufferInsertMatchesFull) {
  // The hold-ECO access pattern: insert a buffer in front of a flop D pin,
  // sync placement + graph, re-analyze only the touched instances.
  auto f = make_fixture(61, 500, 0.2);
  mt::StaOptions opt;
  opt.with_hold = true;
  mt::TimingGraph graph(*f.pl, f.clock);
  graph.analyze(opt);

  const auto flops = f.nl->flops();
  ASSERT_FALSE(flops.empty());
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(k);
    const auto flop = flops[static_cast<std::size_t>(k) * (flops.size() / 3)];
    const auto d_net = f.nl->instance(flop).input_nets[0];
    ASSERT_NE(d_net, mn::kNoNet);
    const auto buf = f.nl->add_instance("eco_buf" + std::to_string(k),
                                        lib().smallest(mn::CellFunction::Buf));
    const auto buf_net = f.nl->add_net("eco_net" + std::to_string(k), buf);
    f.nl->reconnect(buf_net, flop, 0);
    f.nl->connect(d_net, buf, 0);
    f.pl->sync_with_netlist();
    f.pl->set_loc(buf, f.pl->loc(flop));

    graph.sync();
    const auto inc = graph.reanalyze({buf}, opt);
    const auto want = reference_sta(*f.pl, f.clock, opt);
    expect_report_eq(inc, want, /*check_cost=*/false);
    EXPECT_LT(graph.last_repropagated(), graph.node_count());
  }
}

// ---------------------------------------------------------------------------
// Wireload mode (synthesis-time sizing loops)
// ---------------------------------------------------------------------------

TEST(Wireload, FullPropagationMatchesSeed) {
  mn::RandomLogicSpec spec;
  spec.gates = 500;
  spec.seed = 67;
  auto nl = mn::make_random_logic(lib(), spec);
  mt::TimingGraph graph(nl);
  for (const double factor : {1.0, 1.35, 1.72}) {
    for (const double margin : {0.0, 30.0}) {
      SCOPED_TRACE(factor);
      const auto want = reference_wireload(nl, factor, margin);
      const double cp = graph.wireload_propagate(factor, margin);
      EXPECT_EQ(cp, want.critical);
      ASSERT_EQ(graph.wireload_arrivals().size(), want.arrival.size());
      for (std::size_t i = 0; i < want.arrival.size(); ++i) {
        EXPECT_EQ(graph.wireload_arrivals()[i], want.arrival[i]) << "node " << i;
      }
    }
  }
}

TEST(Wireload, IncrementalTrialUndoMatchesSeed) {
  // The TILOS sizing access pattern: resize -> re-time -> undo -> re-time.
  mn::RandomLogicSpec spec;
  spec.gates = 600;
  spec.seed = 71;
  auto nl = mn::make_random_logic(lib(), spec);
  mt::TimingGraph graph(nl);
  const double factor = 1.72;
  graph.wireload_propagate(factor);
  Rng rng{13};
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(round);
    std::size_t prev_master = 0;
    const auto id = resize_random(nl, rng, &prev_master);
    ASSERT_NE(id, mn::kNoInstance);

    // Trial: incremental re-time must match a fresh seed run.
    const double cp_trial = graph.wireload_repropagate({id}, factor);
    const auto want_trial = reference_wireload(nl, factor);
    EXPECT_EQ(cp_trial, want_trial.critical);
    for (std::size_t i = 0; i < want_trial.arrival.size(); ++i) {
      EXPECT_EQ(graph.wireload_arrivals()[i], want_trial.arrival[i]) << "node " << i;
    }

    if (round % 2 == 0) {
      // Undo: restoring the master and re-timing must return bitwise to the
      // pre-trial state.
      nl.resize_instance(id, prev_master);
      const double cp_undo = graph.wireload_repropagate({id}, factor);
      const auto want_undo = reference_wireload(nl, factor);
      EXPECT_EQ(cp_undo, want_undo.critical);
      for (std::size_t i = 0; i < want_undo.arrival.size(); ++i) {
        EXPECT_EQ(graph.wireload_arrivals()[i], want_undo.arrival[i]) << "node " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SI congestion map
// ---------------------------------------------------------------------------

TEST(SiMapSnapshot, MatchesBruteForceScan) {
  const auto f = make_fixture(83, 500);
  auto grid = make_routed(f, 83);
  const auto m = mt::build_si_map(grid);
  ASSERT_EQ(m.cols, grid.cols());
  ASSERT_EQ(m.rows, grid.rows());
  for (std::size_t r = 0; r < m.rows; ++r) {
    for (std::size_t c = 0; c < m.cols; ++c) {
      EXPECT_EQ(m.at(c, r), mt::gcell_stats(grid, c, r).utilization);
    }
  }
  // Window max == the seed's nested gcell_stats re-scan.
  Rng rng{19};
  for (int k = 0; k < 50; ++k) {
    const auto c0 = static_cast<std::size_t>(static_cast<int>(rng.below(m.cols)));
    const auto c1 = static_cast<std::size_t>(static_cast<int>(rng.below(m.cols)));
    const auto r0 = static_cast<std::size_t>(static_cast<int>(rng.below(m.rows)));
    const auto r1 = static_cast<std::size_t>(static_cast<int>(rng.below(m.rows)));
    const auto clo = std::min(c0, c1), chi = std::max(c0, c1);
    const auto rlo = std::min(r0, r1), rhi = std::max(r0, r1);
    double brute = 0.0;
    for (std::size_t c = clo; c <= chi; ++c) {
      for (std::size_t r = rlo; r <= rhi; ++r) {
        brute = std::max(brute, mt::gcell_stats(grid, c, r).utilization);
      }
    }
    EXPECT_EQ(m.max_in_window(clo, rlo, chi, rhi), brute);
  }
}

TEST(SiMapSnapshot, RevisionTracksUsageMutation) {
  const auto f = make_fixture(89, 400);
  auto grid = make_routed(f, 89);
  const auto m = mt::build_si_map(grid);
  EXPECT_EQ(m.revision, grid.revision());
  grid.add_usage(0, 2.0);
  EXPECT_NE(m.revision, grid.revision());

  // A cached graph must notice the mutation: SI analysis after add_usage has
  // to match a fresh reference run on the mutated grid, not the stale map.
  mt::StaOptions opt;
  opt.with_si = true;
  mt::TimingGraph graph(*f.pl, f.clock);
  graph.analyze(opt, &grid);
  for (std::size_t e = 0; e < grid.edge_count(); e += 7) grid.add_usage(e, 3.0);
  expect_report_eq(graph.analyze(opt, &grid), reference_sta(*f.pl, f.clock, opt, &grid));
  grid.reset_usage();
  expect_report_eq(graph.analyze(opt, &grid), reference_sta(*f.pl, f.clock, opt, &grid));
}

// ---------------------------------------------------------------------------
// Corner registry
// ---------------------------------------------------------------------------

TEST(Corners, StandardSetIsStaticAndLookupIsExact) {
  const auto& a = mt::standard_corners();
  const auto& b = mt::standard_corners();
  EXPECT_EQ(&a, &b);  // built once, stable reference
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].name, "ss");
  EXPECT_EQ(a[1].name, "tt");
  EXPECT_EQ(a[2].name, "ff");
  for (const auto& c : a) {
    const auto& found = mt::corner_by_name(c.name);
    EXPECT_EQ(&found, &a[&c - a.data()]);
    EXPECT_EQ(found.gate_factor, c.gate_factor);
    EXPECT_EQ(found.wire_factor, c.wire_factor);
    EXPECT_EQ(found.setup_factor, c.setup_factor);
  }
  EXPECT_EQ(mt::corner_by_name("ss").gate_factor, 1.18);
  EXPECT_EQ(mt::corner_by_name("tt").gate_factor, 1.00);
  EXPECT_EQ(mt::corner_by_name("ff").wire_factor, 0.95);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

TEST(Observability, TimingCountersAdvance) {
  auto& reg = maestro::obs::Registry::global();
  const auto full0 = reg.counter("timing.full_props").value();
  const auto incr0 = reg.counter("timing.incr_props").value();
  const auto nodes0 = reg.counter("timing.nodes_repropagated").value();

  auto f = make_fixture(97);
  mt::StaOptions opt;
  mt::TimingGraph graph(*f.pl, f.clock);
  graph.analyze(opt);
  EXPECT_GT(reg.counter("timing.full_props").value(), full0);

  Rng rng{23};
  const auto id = resize_random(*f.nl, rng);
  ASSERT_NE(id, mn::kNoInstance);
  graph.reanalyze({id}, opt);
  EXPECT_GT(reg.counter("timing.incr_props").value(), incr0);
  EXPECT_GE(reg.counter("timing.nodes_repropagated").value(),
            nodes0 + graph.last_repropagated());
}
