// perf_groute — the global-route kernel benchmark and acceptance gate.
//
// Routes one congested large design (192x192 GCell grid, >= 40k nets in the
// release build) two ways:
//   * reference — the seed router kept verbatim as global_route_reference
//     (perf_groute_reference.cpp):
//     per-segment full-grid scratch allocation, O(p^2) pin dedup, serial
//     selective rip-up with O(E) per-round scans
//   * kernel    — arena maze search (epoch-stamped O(window) scratch) over
//     the incremental overflow ledger
//
// Acceptance (exits nonzero on regression, so ctest gates it, label
// "groute"): the kernel's full route >= 3x the reference router, as the
// median ratio of 3 alternating reference/kernel pairs (1 under TSan or
// ASan), at the largest vertical capacity at which Phase A still overflows.
//
// The same placement is then routed at a lower vertical capacity, where
// Phase A leaves thousands of overflowed track units and Phase B must
// negotiate them away: the kernel must run at least kMinPhaseBVictims
// Phase-B victims over at least two negotiation rounds. Its speed against
// the reference router there is reported (one pair; not under a sanitizer)
// but not gated: congested A* costs the kernel's congestion-aware Phase A
// several times the expansions of a Phase A on the empty grid.
//
// A third case routes the configuration the flow actually uses: cpu@1
// placed by the flow's own synthesis/floorplan/place steps at 0.6 GHz, on
// the flow's 32x32 grid with run_route's capacity model
// (flow::route_options). It gates the kernel's full route at >= 1.3x the
// reference router, as the median ratio of 5 alternating reference/kernel
// pairs, with the reference capped at the rounds the kernel's stall rule
// left it, and it must negotiate (more than one round). This gate measures
// the per-search constant factor that the 192x192 case's Phase A hides.
//
// Under ThreadSanitizer the large design shrinks (96x96, 8k gates) and the
// floors relax, and the flow-grid speed ratio is only reported.
//
// Every case also reports the kernel route's maze expansions, read exactly
// from the calling thread's MazeArena.
//
// Results are written as machine-readable JSON (default BENCH_groute.json):
//   perf_groute [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "flow/tools.hpp"
#include "netlist/design_view.hpp"
#include "netlist/generators.hpp"
#include "obs/registry.hpp"
#include "perf_groute_reference.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "route/maze_arena.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define MAESTRO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MAESTRO_TSAN 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define MAESTRO_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MAESTRO_ASAN 1
#endif
#endif

using namespace maestro;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Reference vs kernel timing over alternating pairs.
struct PairTiming {
  double reference_ms = 0.0;  ///< median sample
  double kernel_ms = 0.0;     ///< median sample
  double speedup = 0.0;       ///< median of the per-pair reference/kernel ratios
};

/// `pairs` alternating reference/kernel samples. The speedup is the median
/// of the per-pair ratios: both halves of a pair see the same host load,
/// which on a shared host drifts by tens of percent over the seconds a run
/// takes.
template <typename Ref, typename Kernel>
PairTiming time_pairs(int pairs, Ref&& reference, Kernel&& kernel) {
  auto elapsed_ms = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> reference_samples;
  std::vector<double> kernel_samples;
  std::vector<double> ratios;
  for (int s = 0; s < pairs; ++s) {
    const double reference_ms = elapsed_ms(reference);
    const double kernel_ms = elapsed_ms(kernel);
    reference_samples.push_back(reference_ms);
    kernel_samples.push_back(kernel_ms);
    ratios.push_back(kernel_ms > 0.0 ? reference_ms / kernel_ms : 0.0);
  }
  return {median(reference_samples), median(kernel_samples), median(ratios)};
}

/// Two-pin segments the router decomposes `pl`'s nets into.
std::size_t segment_count(const place::Placement& pl, route::RouteOptions ro) {
  ro.keep_segments = true;
  ro.max_rounds = 1;
  return route::global_route(pl, ro).segments.size();
}

/// Maze expansions of `route_fn`'s searches on this thread's arena (the
/// kernel routes on the calling thread).
template <typename Fn>
std::uint64_t count_expansions(Fn&& route_fn) {
  const std::uint64_t before = route::thread_arena().expansions();
  route_fn();
  return route::thread_arena().expansions() - before;
}

/// What the Phase-B case measured.
struct PhaseBCase {
  route::RouteResult route;
  std::uint64_t victims = 0;     ///< route.ripup_segments over the kernel route
  std::uint64_t sit_outs = 0;    ///< route.sit_outs over the kernel route
  std::uint64_t expansions = 0;  ///< maze expansions of the kernel route
  PairTiming timing;             ///< one pair; zero when not timed
};

/// Route `pl` at `ro` with the kernel, counting its Phase-B victims and
/// sit-outs; when `timed`, one reference/kernel pair times it as well.
PhaseBCase run_phase_b(const place::Placement& pl, const route::RouteOptions& ro, bool timed) {
  obs::Counter& victims = obs::Registry::global().counter("route.ripup_segments");
  obs::Counter& sit_outs = obs::Registry::global().counter("route.sit_outs");
  PhaseBCase out;
  auto kernel = [&] {
    const std::uint64_t victims0 = victims.value();
    const std::uint64_t sit_outs0 = sit_outs.value();
    out.expansions = count_expansions([&] {
      route::GridGraph g;
      out.route = route::global_route(pl, ro, g);
    });
    out.victims = victims.value() - victims0;
    out.sit_outs = sit_outs.value() - sit_outs0;
  };
  if (!timed) {
    kernel();
    return out;
  }
  out.timing = time_pairs(
      1,
      [&] {
        route::GridGraph g;
        util::Rng r{42};
        (void)bench::global_route_reference(pl, ro, g, r);
      },
      kernel);
  return out;
}

/// What the flow-grid case measured.
struct FlowGridCase {
  std::size_t grid = 0;
  std::size_t segments = 0;
  int rounds_used = 0;
  bool stopped_early = false;
  std::uint64_t expansions = 0;  ///< maze expansions of the kernel route
  PairTiming timing;
};

/// cpu@1 through the flow's own steps, routed on run_route's 32x32 grid and
/// timed over `pairs` alternating reference/kernel samples.
FlowGridCase run_flow_grid(const netlist::CellLibrary& lib, int pairs) {
  flow::DesignState ds;
  ds.lib = &lib;
  flow::DesignSpec spec;
  spec.kind = flow::DesignSpec::Kind::CpuLike;
  spec.name = "cpu_s1";
  flow::ToolContext ctx;
  ctx.target_ghz = 0.6;
  FlowGridCase out;
  if (!flow::run_synthesis(ds, spec, ctx).ok || !flow::run_floorplan(ds, ctx).ok ||
      !flow::run_place(ds, ctx).ok) {
    std::fputs("FAIL: flow-grid design did not place\n", stderr);
    return out;
  }
  const place::Placement& pl = *ds.pl;
  route::RouteOptions ro = flow::route_options(*ds.fp, {});
  out.grid = ro.gcells_x;

  netlist::DesignView view{pl.netlist()};
  route::RouteResult kernel_route;
  // The seed router has no stall rule: cap it at the kernel's round count,
  // so the gate compares the work per round and not the rounds the rule
  // saves.
  {
    route::GridGraph g;
    kernel_route = route::global_route(pl, view, ro, g);
  }
  route::RouteOptions ro_ref = ro;
  ro_ref.max_rounds = kernel_route.rounds_used;
  out.timing = time_pairs(
      pairs,
      [&] {
        route::GridGraph g;
        util::Rng r{42};
        (void)bench::global_route_reference(pl, ro_ref, g, r);
      },
      [&] {
        out.expansions = count_expansions([&] {
          route::GridGraph g;
          kernel_route = route::global_route(pl, view, ro, g);
        });
      });
  out.segments = segment_count(pl, ro);
  out.rounds_used = kernel_route.rounds_used;
  out.stopped_early = kernel_route.stopped_early;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_groute.json";
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress visible under ctest
  std::puts("=== perf_groute: global-route kernel ===");

#ifdef MAESTRO_TSAN
  const bool sanitized = true;
  constexpr std::size_t kGates = 8000;
  constexpr std::size_t kGrid = 96;
  constexpr double kFullFloor = 2.0;
#else
  const bool sanitized = false;
  constexpr std::size_t kGates = 40000;
  constexpr std::size_t kGrid = 192;
  constexpr double kFullFloor = 3.0;
#endif
  // Alternating reference/kernel pairs time the cases. Under a sanitizer
  // the seed router takes 25 s (TSan, shrunk case) to 100 s (ASan) a sample
  // and the kernel clears its floor many times over, so one pair times the
  // large case and the Phase-B case is not timed; under TSan the flow-grid
  // speed is only reported, so fewer pairs time it too.
#if defined(MAESTRO_TSAN) || defined(MAESTRO_ASAN)
  constexpr int kFullPairs = 1;
  constexpr bool kTimePhaseB = false;
#else
  constexpr int kFullPairs = 3;
  constexpr bool kTimePhaseB = true;
#endif
  constexpr double kFlowGridFloor = 1.3;
  constexpr int kFlowGridPairs = sanitized ? 2 : 5;
  // Phase-B victims (ripped-up segments, searched or sat out) the Phase-B
  // case must negotiate.
  constexpr std::uint64_t kMinPhaseBVictims = 1000;

  // One congested placed design: random logic, light anneal, legalized.
  const auto lib = netlist::make_default_library();
  netlist::RandomLogicSpec spec;
  spec.gates = kGates;
  spec.seed = 1;
  netlist::Netlist nl = netlist::make_random_logic(lib, spec);
  const auto fp = place::Floorplan::for_netlist(nl, 0.7);
  util::Rng rng{1};
  auto pl = place::random_placement(nl, fp, rng);
  netlist::DesignView anneal_view{nl};
  place::AnnealOptions ao;
  ao.moves_per_cell = 30.0;  // tight placement: search cost scales with span^2
  place::sa_place(pl, anneal_view, ao, rng);
  place::legalize(pl);
  std::printf("design: %zu gates, %zu nets, %zux%zu grid\n", kGates, nl.net_count(), kGrid,
              kGrid);

  // Phase A routes each segment around the ones before it, so it spreads
  // demand until capacity runs out. Gate 1's vertical capacity is the
  // largest at which this placement still overflows after Phase A (by a
  // few units; Phase B clears them in one round). The seed router's Phase A
  // routes on the empty grid and overflows far more at the same capacity.
  route::RouteOptions ro;
  ro.gcells_x = ro.gcells_y = kGrid;
  ro.h_capacity = kGrid > 100 ? 260.0 : 80.0;
  ro.v_capacity = kGrid > 100 ? 98.0 : 38.0;
  ro.max_rounds = 8;

  // ------------------------------------------------- gate 1: kernel vs seed
  route::RouteResult kernel_res;
  std::uint64_t full_expansions = 0;
  const PairTiming full = time_pairs(
      kFullPairs,
      [&] {
        route::GridGraph g;
        util::Rng r{42};
        (void)bench::global_route_reference(pl, ro, g, r);
      },
      [&] {
        full_expansions = count_expansions([&] {
          route::GridGraph g;
          kernel_res = route::global_route(pl, ro, g);
        });
      });
  const bool full_pass = full.speedup >= kFullFloor;
  std::printf("reference full route  : %9.1f ms\n", full.reference_ms);
  std::printf("kernel full route     : %9.1f ms  (medians of %d alternating pairs; %.1fx, "
              "gate >= %.0fx: %s)\n",
              full.kernel_ms, kFullPairs, full.speedup, kFullFloor, full_pass ? "OK" : "FAIL");
  std::printf("  rounds %d, converged %d, overflow %.1f, max util %.2f, %llu maze expansions\n",
              kernel_res.rounds_used, kernel_res.converged ? 1 : 0, kernel_res.total_overflow,
              kernel_res.max_utilization, static_cast<unsigned long long>(full_expansions));

  // ------------------------------- Phase B: the same design, negotiated
  // A few tracks fewer and Phase A overflows by thousands of units, which
  // Phase B negotiates away within the round budget.
  route::RouteOptions ro_b = ro;
  ro_b.v_capacity = kGrid > 100 ? 94.0 : 35.0;
  const PhaseBCase pb = run_phase_b(pl, ro_b, kTimePhaseB);
  const bool pb_pass = pb.victims >= kMinPhaseBVictims && pb.route.rounds_used >= 3;
  std::printf("phase B (vertical capacity %.0f): rounds %d, converged %d, overflow %.1f after "
              "Phase A, %.1f final\n",
              ro_b.v_capacity, pb.route.rounds_used, pb.route.converged ? 1 : 0,
              pb.route.overflow_per_round.front(), pb.route.total_overflow);
  std::printf("  %llu victims, %llu sat out, %llu maze expansions (gate >= %llu victims over >= "
              "2 rounds: %s)\n",
              static_cast<unsigned long long>(pb.victims),
              static_cast<unsigned long long>(pb.sit_outs),
              static_cast<unsigned long long>(pb.expansions),
              static_cast<unsigned long long>(kMinPhaseBVictims), pb_pass ? "OK" : "FAIL");
  if (kTimePhaseB) {
    std::printf("  reference %.1f ms, kernel %.1f ms (one pair; %.2fx, reported only)\n",
                pb.timing.reference_ms, pb.timing.kernel_ms, pb.timing.speedup);
  }

  // ------------------------------------- flow grid: what the flow routes
  const FlowGridCase fg = run_flow_grid(lib, kFlowGridPairs);
  std::printf("flow grid (cpu@1, %zux%zu, run_route capacities): %zu segments, %d rounds%s, "
              "%llu maze expansions\n",
              fg.grid, fg.grid, fg.segments, fg.rounds_used,
              fg.stopped_early ? " (stalled; reference capped to match)" : "",
              static_cast<unsigned long long>(fg.expansions));
  const bool fg_speed_pass = sanitized || fg.timing.speedup >= kFlowGridFloor;
  std::printf("  reference %.1f ms, kernel %.1f ms (medians of %d alternating pairs; %.2fx, "
              "gate >= %.1fx: %s)\n",
              fg.timing.reference_ms, fg.timing.kernel_ms, kFlowGridPairs, fg.timing.speedup,
              kFlowGridFloor,
              sanitized ? "waived under TSan" : (fg_speed_pass ? "OK" : "FAIL"));

  // A congestion benchmark that never congests measures nothing: the flow
  // grid must run rip-up rounds too.
  if (fg.rounds_used <= 1) {
    std::fputs("FAIL: flow grid never overflowed; no rip-up exercised\n", stderr);
  }

  const bool pass = full_pass && pb_pass && fg_speed_pass && fg.rounds_used > 1;

  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.groute.v1"};
  report["sanitized"] = util::Json{sanitized};
  report["gates"] = util::Json{static_cast<double>(kGates)};
  report["nets"] = util::Json{static_cast<double>(nl.net_count())};
  report["grid"] = util::Json{static_cast<double>(kGrid)};
  report["segments"] = util::Json{static_cast<double>(segment_count(pl, ro))};
  report["rounds_used"] = util::Json{static_cast<double>(kernel_res.rounds_used)};
  report["converged"] = util::Json{kernel_res.converged};
  report["final_overflow"] = util::Json{kernel_res.total_overflow};
  report["expansions"] = util::Json{static_cast<double>(full_expansions)};
  report["reference_ms"] = util::Json{full.reference_ms};
  report["kernel_ms"] = util::Json{full.kernel_ms};
  report["full_speedup"] = util::Json{full.speedup};
  report["full_floor"] = util::Json{kFullFloor};
  util::JsonObject phase_b;
  phase_b["v_capacity"] = util::Json{ro_b.v_capacity};
  phase_b["rounds_used"] = util::Json{static_cast<double>(pb.route.rounds_used)};
  phase_b["converged"] = util::Json{pb.route.converged};
  phase_b["phase_a_overflow"] = util::Json{pb.route.overflow_per_round.front()};
  phase_b["final_overflow"] = util::Json{pb.route.total_overflow};
  phase_b["victims"] = util::Json{static_cast<double>(pb.victims)};
  phase_b["sit_outs"] = util::Json{static_cast<double>(pb.sit_outs)};
  phase_b["expansions"] = util::Json{static_cast<double>(pb.expansions)};
  phase_b["min_victims"] = util::Json{static_cast<double>(kMinPhaseBVictims)};
  if (kTimePhaseB) {
    phase_b["reference_ms"] = util::Json{pb.timing.reference_ms};
    phase_b["kernel_ms"] = util::Json{pb.timing.kernel_ms};
    phase_b["kernel_speedup"] = util::Json{pb.timing.speedup};
  }
  report["phase_b"] = util::Json{std::move(phase_b)};
  util::JsonObject flow_grid;
  flow_grid["design"] = util::Json{"cpu_s1"};
  flow_grid["grid"] = util::Json{static_cast<double>(fg.grid)};
  flow_grid["segments"] = util::Json{static_cast<double>(fg.segments)};
  flow_grid["rounds_used"] = util::Json{static_cast<double>(fg.rounds_used)};
  flow_grid["stopped_early"] = util::Json{fg.stopped_early};
  flow_grid["expansions"] = util::Json{static_cast<double>(fg.expansions)};
  flow_grid["reference_ms"] = util::Json{fg.timing.reference_ms};
  flow_grid["kernel_ms"] = util::Json{fg.timing.kernel_ms};
  flow_grid["kernel_speedup"] = util::Json{fg.timing.speedup};
  flow_grid["kernel_floor"] = util::Json{kFlowGridFloor};
  report["flow_grid"] = util::Json{std::move(flow_grid)};
  report["pass"] = util::Json{pass};
  std::ofstream out(out_path);
  out << util::Json{std::move(report)}.dump() << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  return pass ? 0 : 1;
}
