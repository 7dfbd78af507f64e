// perf_place — the placement-kernel benchmark and acceptance gate.
//
// Measures the SA move-evaluation kernel on a realistic block: 100k gates
// with a heavy-tailed net-degree distribution (control/enable hub nets up to
// a few hundred pins), the regime the roadmap paper's placers operate in —
// large enough that the seed's pointer-chasing misses cache, with hub nets
// where full re-evaluation pays O(pins) and the view stays O(1):
//   * seed_eval — the seed pattern: re-sum every touched net's HPWL from raw
//     pins before and after the move (two Placement::net_hpwl passes with
//     per-pin master/library lookups), then revert
//   * incr_eval — DesignView::trial_move + discard: cached bboxes, exact
//     integer delta, O(1) for interior pins, at most one contiguous rescan
// plus the end-to-end annealers (the seed anneal_placement_reference, kept in
// perf_place_reference.cpp, vs sa_place) on identical RNG streams.
//
// Acceptance (exits nonzero on regression, so ctest gates it, label
// "place"):
//   * incremental move evaluation >= 5x faster than the seed re-evaluation
//   * every incremental delta bit-identical to the seed recompute
//   * sa_place accept/reject decisions and final placement bit-identical to
//     the reference annealer across seeds
//
// Results are written as machine-readable JSON (default BENCH_place.json):
//   perf_place [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "netlist/design_view.hpp"
#include "netlist/generators.hpp"
#include "perf_place_reference.hpp"
#include "place/placer.hpp"
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

struct Move {
  bool swap;                 ///< displace `cell` to `target`, or swap with `partner`
  netlist::InstanceId cell;
  netlist::InstanceId partner;
  geom::Point target;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_place.json";
  std::puts("=== perf_place: incremental SA placement kernel ===");

  const auto lib = netlist::make_default_library();
  netlist::RandomLogicSpec spec;
  spec.gates = 100000;
  spec.fanout_skew = 2.5;  // heavy-tailed net degrees (control/enable hubs)
  spec.seed = 1;
  netlist::Netlist nl = netlist::make_random_logic(lib, spec);
  const auto fp = place::Floorplan::for_netlist(nl, 0.7);
  util::Rng rng{1};
  place::Placement pl = place::random_placement(nl, fp, rng);
  place::legalize(pl);

  netlist::DesignView view{nl};
  view.sync(pl.locs(), pl.revision());

  // Movable cells (pads stay fixed, as in the annealer).
  std::vector<netlist::InstanceId> movable;
  for (std::size_t i = 0; i < nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto f = nl.master_of(id).function;
    if (f != netlist::CellFunction::Input && f != netlist::CellFunction::Output) {
      movable.push_back(id);
    }
  }

  // The seed annealer's per-cell net lists, built exactly as the reference
  // engine builds them (vector-of-vectors, consecutive dedup).
  std::vector<std::vector<netlist::NetId>> nets_of(nl.instance_count());
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(static_cast<netlist::NetId>(n));
    nets_of[net.driver].push_back(static_cast<netlist::NetId>(n));
    for (const auto& sink : net.sinks) {
      if (nets_of[sink.instance].empty() ||
          nets_of[sink.instance].back() != static_cast<netlist::NetId>(n)) {
        nets_of[sink.instance].push_back(static_cast<netlist::NetId>(n));
      }
    }
  }

  // One fixed move set for both kernels, mirroring the annealer's move mix:
  // 35% swaps (AnnealOptions::swap_fraction) and 65% displacements to a
  // random in-core snapped target.
  constexpr std::size_t kMoves = 4096;
  std::vector<Move> moves;
  moves.reserve(kMoves);
  util::Rng move_rng{7};
  const auto& core = fp.core();
  for (std::size_t i = 0; i < kMoves; ++i) {
    const auto a = movable[move_rng.below(movable.size())];
    if (move_rng.uniform() < 0.35) {
      auto b = movable[move_rng.below(movable.size())];
      while (b == a) b = movable[move_rng.below(movable.size())];
      moves.push_back({true, a, b, {}});
    } else {
      geom::Point cand{
          core.lo.x + static_cast<geom::Dbu>(move_rng.below(
                          static_cast<std::uint64_t>(std::max<geom::Dbu>(core.width(), 1)))),
          core.lo.y + static_cast<geom::Dbu>(move_rng.below(
                          static_cast<std::uint64_t>(std::max<geom::Dbu>(core.height(), 1))))};
      cand.x = std::clamp(cand.x, core.lo.x, core.hi.x - fp.site_width());
      cand.y = std::clamp(cand.y, core.lo.y, core.hi.y - 1);
      moves.push_back({false, a, netlist::kNoInstance, fp.snap(cand)});
    }
  }

  // Seed pattern: the reference annealer's exact per-move evaluation.
  // Displace: sum the touched nets' HPWL from raw pins, apply, re-sum,
  // revert. Swap: build the touched-net union (copy + insert + sort +
  // unique, as the seed does per move), then the same two passes around the
  // two set_locs.
  auto cost_of = [&](const std::vector<netlist::NetId>& nets) {
    std::int64_t c = 0;
    for (const netlist::NetId n : nets) c += pl.net_hpwl(n);
    return c;
  };
  auto seed_eval = [&](const Move& mv) -> std::int64_t {
    if (mv.swap) {
      std::vector<netlist::NetId> touched = nets_of[mv.cell];
      touched.insert(touched.end(), nets_of[mv.partner].begin(), nets_of[mv.partner].end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      const std::int64_t before = cost_of(touched);
      const geom::Point pa = pl.loc(mv.cell);
      const geom::Point pb = pl.loc(mv.partner);
      pl.set_loc(mv.cell, pb);
      pl.set_loc(mv.partner, pa);
      const std::int64_t delta = cost_of(touched) - before;
      pl.set_loc(mv.cell, pa);
      pl.set_loc(mv.partner, pb);
      return delta;
    }
    const geom::Point orig = pl.loc(mv.cell);
    const std::int64_t before = cost_of(nets_of[mv.cell]);
    pl.set_loc(mv.cell, mv.target);
    const std::int64_t delta = cost_of(nets_of[mv.cell]) - before;
    pl.set_loc(mv.cell, orig);
    return delta;
  };
  auto incr_eval = [&](const Move& mv) -> std::int64_t {
    const std::int64_t delta = mv.swap ? view.trial_swap(mv.cell, mv.partner)
                                       : view.trial_move(mv.cell, mv.target);
    view.discard();
    return delta;
  };
  auto seed_eval_all = [&] {
    std::int64_t checksum = 0;
    for (const Move& mv : moves) checksum += seed_eval(mv);
    return checksum;
  };
  auto incr_eval_all = [&] {
    std::int64_t checksum = 0;
    for (const Move& mv : moves) checksum += incr_eval(mv);
    return checksum;
  };

  // Correctness before speed: every incremental delta must equal the seed
  // recompute exactly (both are exact integer bbox arithmetic).
  bool deltas_ok = true;
  for (const Move& mv : moves) {
    if (seed_eval(mv) != incr_eval(mv)) {
      deltas_ok = false;
      break;
    }
  }

  const double seed_ms = bench_ms(5, 3, [&] { (void)seed_eval_all(); });
  const double incr_ms = bench_ms(5, 3, [&] { (void)incr_eval_all(); });
  const double eval_speedup = incr_ms > 0.0 ? seed_ms / incr_ms : 0.0;

  // End-to-end equivalence: the incremental annealer must reproduce the
  // reference engine's decisions bit-exactly on the same RNG stream.
  bool anneal_ok = true;
  double ref_anneal_ms = 0.0;
  double incr_anneal_ms = 0.0;
  for (const std::uint64_t seed : {11ull, 29ull}) {
    place::AnnealOptions ao;
    ao.moves_per_cell = 3.0;
    util::Rng r0{seed};
    place::Placement ref_pl = place::random_placement(nl, fp, r0);
    place::Placement inc_pl = ref_pl;

    util::Rng ref_rng{seed ^ 0xabcdu};
    const auto t0 = std::chrono::steady_clock::now();
    const auto ref = bench::anneal_placement_reference(ref_pl, ao, ref_rng);
    ref_anneal_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0).count();

    netlist::DesignView v2{nl};
    util::Rng inc_rng{seed ^ 0xabcdu};
    const auto t1 = std::chrono::steady_clock::now();
    const auto inc = place::sa_place(inc_pl, v2, ao, inc_rng);
    incr_anneal_ms += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t1).count();

    if (ref.moves_accepted != inc.moves_accepted || ref.final_hpwl != inc.final_hpwl ||
        ref.initial_hpwl != inc.initial_hpwl) {
      anneal_ok = false;
    }
    for (std::size_t i = 0; i < nl.instance_count(); ++i) {
      const auto id = static_cast<netlist::InstanceId>(i);
      if (!(ref_pl.loc(id) == inc_pl.loc(id))) anneal_ok = false;
    }
    if (inc_pl.total_hpwl() != v2.total_hpwl()) anneal_ok = false;
  }
  const double anneal_speedup = incr_anneal_ms > 0.0 ? ref_anneal_ms / incr_anneal_ms : 0.0;

  const bool eval_pass = eval_speedup >= 5.0;
  const bool pass = eval_pass && deltas_ok && anneal_ok;

  std::printf("seed move evaluation  : %8.3f ms / %zu moves\n", seed_ms, kMoves);
  std::printf("incremental trial_move: %8.3f ms / %zu moves  (%.1fx, gate >= 5x: %s)\n",
              incr_ms, kMoves, eval_speedup, eval_pass ? "OK" : "FAIL");
  std::printf("deltas bit-identical to seed recompute: %s\n", deltas_ok ? "OK" : "FAIL");
  std::printf("full anneal: reference %.1f ms vs sa_place %.1f ms  (%.2fx)\n", ref_anneal_ms,
              incr_anneal_ms, anneal_speedup);
  std::printf("sa_place bit-identical to reference annealer: %s\n", anneal_ok ? "OK" : "FAIL");

  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.place.v1"};
  report["gates"] = util::Json{static_cast<double>(spec.gates)};
  report["moves"] = util::Json{static_cast<double>(kMoves)};
  report["seed_eval_ms"] = util::Json{seed_ms};
  report["incr_eval_ms"] = util::Json{incr_ms};
  report["eval_speedup"] = util::Json{eval_speedup};
  report["eval_floor"] = util::Json{5.0};
  report["ref_anneal_ms"] = util::Json{ref_anneal_ms};
  report["sa_place_ms"] = util::Json{incr_anneal_ms};
  report["anneal_speedup"] = util::Json{anneal_speedup};
  report["deltas_bitwise"] = util::Json{deltas_ok};
  report["anneal_bitwise"] = util::Json{anneal_ok};
  report["pass"] = util::Json{pass};
  std::ofstream out(out_path);
  out << util::Json{std::move(report)}.dump() << '\n';
  std::printf("wrote %s\n", out_path.c_str());

  return pass ? 0 : 1;
}
