// perf_sta — the timing-kernel benchmark and acceptance gate.
//
// Measures the three STA access patterns on one placed+routed design in the
// signoff-heavy configuration (PBA + SI + hold):
//   * full_rebuild   — seed pattern: construct TimingGraph + analyze per call
//   * cached_query   — analyze() on a long-lived graph (build amortized)
//   * incremental    — reanalyze() after a single-gate resize (sizing/ECO)
//
// Acceptance (exits nonzero on regression, so ctest gates it, label
// "timing"):
//   * incremental re-propagation >= 3x faster than a cached full analysis
//   * the incremental report bit-identical to a full analysis (a fast bench
//     that returns wrong numbers is a bug, not a win)
//
// Results are written as machine-readable JSON (default BENCH_sta.json) so
// the perf trajectory is trackable across PRs:
//   perf_sta [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "timing/timing_graph.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace maestro;

namespace {

/// Milliseconds per call: run `fn` `iters` times, take the mean, and return
/// the median over `samples` repetitions (robust to scheduler noise).
template <typename Fn>
double bench_ms(int samples, int iters, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double total =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ms.push_back(total / iters);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

bool reports_identical(const timing::StaReport& a, const timing::StaReport& b) {
  if (a.endpoints.size() != b.endpoints.size()) return false;
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    const auto& x = a.endpoints[i];
    const auto& y = b.endpoints[i];
    if (x.endpoint != y.endpoint || x.arrival_ps != y.arrival_ps ||
        x.required_ps != y.required_ps || x.slack_ps != y.slack_ps ||
        x.hold_slack_ps != y.hold_slack_ps || x.path_stages != y.path_stages ||
        x.path_wire_delay_ps != y.path_wire_delay_ps ||
        x.path_gate_delay_ps != y.path_gate_delay_ps) {
      return false;
    }
  }
  return a.wns_ps == b.wns_ps && a.tns_ps == b.tns_ps && a.whs_ps == b.whs_ps &&
         a.failing_endpoints == b.failing_endpoints && a.hold_violations == b.hold_violations;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sta.json";
  std::puts("=== perf_sta: levelized timing kernel ===");

  // One mid-size placed + routed design; congested enough that SI matters.
  const auto lib = netlist::make_default_library();
  netlist::RandomLogicSpec spec;
  spec.gates = 4000;
  spec.seed = 1;
  netlist::Netlist nl = netlist::make_random_logic(lib, spec);
  const auto fp = place::Floorplan::for_netlist(nl, 0.7);
  util::Rng rng{1};
  auto pl = place::random_placement(nl, fp, rng);
  place::AnnealOptions ao;
  ao.moves_per_cell = 4.0;
  place::anneal_placement(pl, ao, rng);
  place::legalize(pl);
  const auto clock = timing::build_clock_tree(pl, timing::ClockTreeOptions{}, rng);
  route::RouteOptions ro;
  ro.gcells_x = ro.gcells_y = 32;
  ro.h_capacity = 14.0;
  ro.v_capacity = 12.0;
  route::GridGraph grid;
  route::global_route(pl, ro, grid);

  timing::StaOptions opt;
  opt.mode = timing::AnalysisMode::PathBased;
  opt.with_si = true;
  opt.with_hold = true;
  opt.clock_period_ps = 700.0;

  // Seed pattern: build-per-call.
  const double full_rebuild_ms = bench_ms(5, 2, [&] {
    timing::TimingGraph g(pl, clock);
    g.analyze(opt, &grid);
  });

  timing::TimingGraph graph(pl, clock);
  const double cached_ms = bench_ms(5, 3, [&] { graph.analyze(opt, &grid); });

  // Incremental: flip one mid-netlist gate between two drive variants.
  netlist::InstanceId victim = netlist::kNoInstance;
  std::size_t other = 0;
  for (std::size_t i = nl.instance_count() / 2; i < nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto fn = nl.master_of(id).function;
    if (fn == netlist::CellFunction::Input || fn == netlist::CellFunction::Output ||
        fn == netlist::CellFunction::Dff) {
      continue;
    }
    const auto vars = lib.variants(fn);
    if (vars.size() < 2) continue;
    victim = id;
    other = nl.instance(id).master == vars[0] ? vars[1] : vars[0];
    break;
  }
  if (victim == netlist::kNoInstance) {
    std::fputs("no resizable gate found\n", stderr);
    return 1;
  }
  const std::size_t original = nl.instance(victim).master;

  // Correctness spot-check before timing it: the incremental report must be
  // bit-identical to a full analysis of the same netlist state.
  nl.resize_instance(victim, other);
  const auto inc_report = graph.reanalyze({victim}, opt, &grid);
  timing::TimingGraph fresh(pl, clock);
  const bool inc_ok = reports_identical(inc_report, fresh.analyze(opt, &grid));
  nl.resize_instance(victim, original);
  graph.reanalyze({victim}, opt, &grid);

  bool flipped = false;
  const double incremental_ms = bench_ms(5, 10, [&] {
    nl.resize_instance(victim, flipped ? original : other);
    flipped = !flipped;
    graph.reanalyze({victim}, opt, &grid);
  });
  if (flipped) {
    nl.resize_instance(victim, original);
    graph.reanalyze({victim}, opt, &grid);
  }
  const double reprop_nodes = static_cast<double>(graph.last_repropagated());

  const double incr_speedup = cached_ms / incremental_ms;
  const bool incr_pass = incr_speedup >= 3.0;
  const bool pass = incr_pass && inc_ok;

  std::printf("full rebuild per call : %8.3f ms\n", full_rebuild_ms);
  std::printf("cached-graph analysis : %8.3f ms\n", cached_ms);
  std::printf("incremental reanalyze : %8.3f ms  (%.1fx vs cached full, gate >= 3x: %s)\n",
              incremental_ms, incr_speedup, incr_pass ? "OK" : "FAIL");
  std::printf("  nodes re-propagated : %8.0f of %zu\n", reprop_nodes, graph.node_count());
  std::printf("incremental bitwise-identical to full: %s\n", inc_ok ? "OK" : "FAIL");

  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.sta.v1"};
  report["gates"] = util::Json{static_cast<double>(spec.gates)};
  report["full_rebuild_ms"] = util::Json{full_rebuild_ms};
  report["cached_query_ms"] = util::Json{cached_ms};
  report["incremental_ms"] = util::Json{incremental_ms};
  report["incremental_speedup"] = util::Json{incr_speedup};
  report["repropagated_nodes"] = util::Json{reprop_nodes};
  report["incremental_bitwise"] = util::Json{inc_ok};
  report["pass"] = util::Json{pass};
  std::ofstream out(out_path);
  out << util::Json{std::move(report)}.dump() << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  return pass ? 0 : 1;
}
