// Performance microbenchmarks (google-benchmark) for the substrate kernels
// that dominate flow runtime: netlist generation, placement annealing,
// legalization, global routing, STA, IR drop, bandit sampling and MDP
// solving. These are throughput baselines, not paper figures.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "ml/bandit.hpp"
#include "netlist/design_view.hpp"
#include "ml/mdp.hpp"
#include "netlist/generators.hpp"
#include "place/placer.hpp"
#include "power/ir_drop.hpp"
#include "route/global_router.hpp"
#include "route/maze_arena.hpp"
#include "store/fingerprint.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "timing/sta.hpp"
#include "timing/timing_graph.hpp"

using namespace maestro;

namespace {
const netlist::CellLibrary& lib() {
  static const netlist::CellLibrary l = netlist::make_default_library();
  return l;
}

struct PlacedFixture {
  std::unique_ptr<netlist::Netlist> nl;
  std::unique_ptr<place::Floorplan> fp;
  std::unique_ptr<place::Placement> pl;
  timing::ClockTree clock;
};

const PlacedFixture& fixture(std::size_t gates) {
  static std::map<std::size_t, PlacedFixture> cache;
  auto it = cache.find(gates);
  if (it == cache.end()) {
    PlacedFixture f;
    netlist::RandomLogicSpec spec;
    spec.gates = gates;
    spec.seed = 1;
    f.nl = std::make_unique<netlist::Netlist>(netlist::make_random_logic(lib(), spec));
    f.fp = std::make_unique<place::Floorplan>(place::Floorplan::for_netlist(*f.nl, 0.7));
    util::Rng rng{1};
    f.pl = std::make_unique<place::Placement>(place::random_placement(*f.nl, *f.fp, rng));
    place::AnnealOptions ao;
    ao.moves_per_cell = 10.0;
    place::anneal_placement(*f.pl, ao, rng);
    place::legalize(*f.pl);
    f.clock = timing::build_clock_tree(*f.pl, timing::ClockTreeOptions{}, rng);
    it = cache.emplace(gates, std::move(f)).first;
  }
  return it->second;
}
}  // namespace

static void BM_NetlistGeneration(benchmark::State& state) {
  netlist::RandomLogicSpec spec;
  spec.gates = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    spec.seed = ++seed;
    benchmark::DoNotOptimize(netlist::make_random_logic(lib(), spec));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetlistGeneration)->Arg(1000)->Arg(5000);

static void BM_AnnealPlacement(benchmark::State& state) {
  const auto& f = fixture(static_cast<std::size_t>(state.range(0)));
  util::Rng rng{2};
  for (auto _ : state) {
    place::Placement pl = place::random_placement(*f.nl, *f.fp, rng);
    place::AnnealOptions ao;
    ao.moves_per_cell = 10.0;
    benchmark::DoNotOptimize(place::anneal_placement(pl, ao, rng));
  }
}
BENCHMARK(BM_AnnealPlacement)->Arg(1000);

static void BM_PlaceIncrMove(benchmark::State& state) {
  // Incremental move-delta evaluation against the shared design view: the
  // inner kernel of place::sa_place (trial + discard, cached bboxes).
  const auto& f = fixture(static_cast<std::size_t>(state.range(0)));
  netlist::DesignView view{*f.nl};
  view.sync(f.pl->locs(), f.pl->revision());
  std::vector<netlist::InstanceId> movable;
  for (std::size_t i = 0; i < f.nl->instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto fn = f.nl->master_of(id).function;
    if (fn != netlist::CellFunction::Input && fn != netlist::CellFunction::Output) {
      movable.push_back(id);
    }
  }
  util::Rng rng{8};
  const auto& core = f.fp->core();
  for (auto _ : state) {
    const auto a = movable[rng.below(movable.size())];
    const geom::Point cand{
        core.lo.x + static_cast<geom::Dbu>(rng.below(static_cast<std::uint64_t>(core.width()))),
        core.lo.y + static_cast<geom::Dbu>(rng.below(static_cast<std::uint64_t>(core.height())))};
    benchmark::DoNotOptimize(view.trial_move(a, f.fp->snap(cand)));
    view.discard();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlaceIncrMove)->Arg(1000)->Arg(5000);

static void BM_Legalize(benchmark::State& state) {
  const auto& f = fixture(1000);
  util::Rng rng{3};
  for (auto _ : state) {
    state.PauseTiming();
    place::Placement pl = place::random_placement(*f.nl, *f.fp, rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(place::legalize(pl));
  }
}
BENCHMARK(BM_Legalize);

static void BM_GlobalRoute(benchmark::State& state) {
  const auto& f = fixture(1000);
  route::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::global_route(*f.pl, opt));
  }
}
BENCHMARK(BM_GlobalRoute);

static void BM_MazeArena(benchmark::State& state) {
  // Single windowed segment search on a warm arena vs. the seed's per-call
  // full-grid scratch: the per-segment cost the arena was built to cut.
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  const maestro::geom::GridIndexer idx{{{0, 0}, {1000000, 1000000}}, side, side};
  route::GridGraph g{side, side, 10.0, 10.0, idx};
  route::MazeArena arena;
  const route::GCell from{2, 2};
  const route::GCell to{static_cast<std::uint32_t>(side) - 3, static_cast<std::uint32_t>(side) / 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::arena_maze_route(g, arena, from, to, 1.0, 0.4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MazeArena)->Arg(64)->Arg(192);

static void BM_GRouteRound(benchmark::State& state) {
  // Full negotiated route (Phase A + rip-up rounds) on a congested fixture;
  // rounds/iteration makes the per-round cost visible.
  const auto& f = fixture(1000);
  route::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 32;
  opt.h_capacity = 6.0;
  opt.v_capacity = 5.0;  // tight: forces several negotiation rounds
  std::int64_t rounds = 0;
  for (auto _ : state) {
    const auto res = route::global_route(*f.pl, opt);
    rounds += res.rounds_used;
    benchmark::DoNotOptimize(res);
  }
  state.counters["rounds_per_iter"] =
      benchmark::Counter(static_cast<double>(rounds) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GRouteRound);

static void BM_StaGba(benchmark::State& state) {
  const auto& f = fixture(static_cast<std::size_t>(state.range(0)));
  timing::StaOptions opt;
  opt.mode = timing::AnalysisMode::GraphBased;
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::run_sta(*f.pl, f.clock, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StaGba)->Arg(1000)->Arg(5000);

static void BM_StaPba(benchmark::State& state) {
  const auto& f = fixture(1000);
  timing::StaOptions opt;
  opt.mode = timing::AnalysisMode::PathBased;
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::run_sta(*f.pl, f.clock, opt));
  }
}
BENCHMARK(BM_StaPba);

static void BM_StaCachedGraph(benchmark::State& state) {
  // Query cost with the levelized graph amortized across calls (the
  // long-lived-caller pattern); contrast with BM_StaPba's build-per-call.
  const auto& f = fixture(1000);
  timing::TimingGraph graph(*f.pl, f.clock);
  timing::StaOptions opt;
  opt.mode = timing::AnalysisMode::PathBased;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.analyze(opt));
  }
}
BENCHMARK(BM_StaCachedGraph);

static void BM_StaIncremental(benchmark::State& state) {
  // Re-propagation cost after a single-gate resize (the sizing/ECO pattern).
  const auto& f = fixture(1000);
  timing::TimingGraph graph(*f.pl, f.clock);
  timing::StaOptions opt;
  opt.mode = timing::AnalysisMode::PathBased;
  graph.analyze(opt);
  // Flip one mid-netlist gate between two drive variants each iteration.
  netlist::Netlist& nl = *f.nl;
  netlist::InstanceId victim = netlist::kNoInstance;
  std::size_t other = 0;
  for (std::size_t i = nl.instance_count() / 2; i < nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto fn = nl.master_of(id).function;
    if (fn == netlist::CellFunction::Input || fn == netlist::CellFunction::Output ||
        fn == netlist::CellFunction::Dff) {
      continue;
    }
    const auto vars = lib().variants(fn);
    if (vars.size() < 2) continue;
    victim = id;
    other = nl.instance(id).master == vars[0] ? vars[1] : vars[0];
    break;
  }
  const std::size_t original = nl.instance(victim).master;
  bool flipped = false;
  for (auto _ : state) {
    nl.resize_instance(victim, flipped ? original : other);
    flipped = !flipped;
    benchmark::DoNotOptimize(graph.reanalyze({victim}, opt));
  }
  nl.resize_instance(victim, original);
}
BENCHMARK(BM_StaIncremental);

static void BM_IrDrop(benchmark::State& state) {
  const auto& f = fixture(1000);
  const auto pwr = power::estimate_power(*f.pl, 1.0, power::PowerOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(power::analyze_ir_drop(*f.pl, pwr, power::IrDropOptions{}));
  }
}
BENCHMARK(BM_IrDrop);

static void BM_ThompsonSelect(benchmark::State& state) {
  ml::ThompsonGaussian ts{16};
  util::Rng rng{5};
  for (int i = 0; i < 200; ++i) ts.update(rng.below(16), rng.gauss(0.5, 0.2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts.select(rng));
  }
}
BENCHMARK(BM_ThompsonSelect);

static void BM_PolicyIteration(benchmark::State& state) {
  util::Rng rng{6};
  ml::Mdp mdp{200, 2};
  for (std::size_t s = 0; s + 1 < 200; ++s) {
    for (std::size_t a = 0; a < 2; ++a) {
      mdp.add_transition(s, a, {s + 1, 0.8, rng.uniform(-1, 1)});
      mdp.add_transition(s, a, {rng.below(200), 0.2, rng.uniform(-1, 1)});
    }
  }
  mdp.normalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::policy_iteration(mdp, ml::SolveOptions{}));
  }
}
BENCHMARK(BM_PolicyIteration);

namespace {
/// A CPU-bound stand-in for one tool run (~tens of microseconds of hash
/// chain), pure in its seed so pooled execution stays deterministic.
double synthetic_flow_run(std::uint64_t seed) {
  std::uint64_t s = seed;
  double acc = 0.0;
  for (int i = 0; i < 20000; ++i) {
    acc += static_cast<double>(util::splitmix64(s) >> 40);
  }
  return acc;
}

/// Inline (no pool) runs/second, measured once — the speedup baseline.
double serial_runs_per_sec() {
  static const double rate = [] {
    constexpr int kRuns = 256;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRuns; ++i) {
      benchmark::DoNotOptimize(synthetic_flow_run(static_cast<std::uint64_t>(i) + 1));
    }
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return secs > 0.0 ? kRuns / secs : 0.0;
  }();
  return rate;
}
}  // namespace

/// RunExecutor throughput on the synthetic flow oracle at 1/2/4/8 workers.
/// runs_per_s is pooled throughput; speedup_vs_serial divides it by the
/// measured no-pool baseline (expect ~#workers on an unloaded multicore
/// machine, ~1x when hardware_concurrency is 1).
static void BM_RunExecutorThroughput(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  exec::RunExecutor pool{{.threads = workers}};
  constexpr std::size_t kBatch = 64;
  std::uint64_t base = 0;
  for (auto _ : state) {
    ++base;
    std::vector<exec::RoundJob<double>> jobs(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      jobs[i].label = "synthetic_flow#" + std::to_string(i);
      jobs[i].seed = exec::derive_run_seed(base, i);
      jobs[i].body = [](exec::RunContext& ctx) { return synthetic_flow_run(ctx.seed); };
    }
    const auto results = exec::dispatch_round(pool, std::move(jobs));
    benchmark::DoNotOptimize(results);
  }
  const auto total_runs = static_cast<double>(state.iterations()) * static_cast<double>(kBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_runs));
  state.counters["runs_per_s"] = benchmark::Counter(total_runs, benchmark::Counter::kIsRate);
  state.counters["speedup_vs_serial"] =
      benchmark::Counter(total_runs / serial_runs_per_sec(), benchmark::Counter::kIsRate);
  // Journal percentile digest: where did pooled runs spend their time?
  const exec::JournalSummary js = pool.journal().summarize();
  state.counters["qwait_p50_ms"] = js.queue_wait_p50_ms;
  state.counters["qwait_p95_ms"] = js.queue_wait_p95_ms;
  state.counters["qwait_max_ms"] = js.queue_wait_max_ms;
  state.counters["wall_p50_ms"] = js.wall_p50_ms;
  state.counters["wall_p95_ms"] = js.wall_p95_ms;
  state.counters["wall_max_ms"] = js.wall_max_ms;
}
BENCHMARK(BM_RunExecutorThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ------------------------------------------------------------ maestro::store

namespace {
store::StoredRun bench_stored_run(std::uint64_t n) {
  store::StoredRun run;
  run.key.design = "bench";
  run.key.seed = n;
  run.key.set("syn.effort", "high");
  run.key.set("place.density", store::canonical_number(0.6 + 1e-4 * static_cast<double>(n)));
  run.key.set("route.layers", "6");
  run.fingerprint = run.key.fingerprint();
  run.result.completed = true;
  run.result.area_um2 = 1000.0 + static_cast<double>(n);
  return run;
}

std::string bench_store_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "maestro_perf_kernels" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}
}  // namespace

static void BM_RunKeyFingerprint(benchmark::State& state) {
  const store::StoredRun run = bench_stored_run(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run.key.fingerprint());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunKeyFingerprint);

static void BM_RunStoreAppend(benchmark::State& state) {
  const std::string dir = bench_store_dir("append");
  store::RunStore st(dir);
  std::uint64_t n = 0;
  for (auto _ : state) {
    st.append_run(bench_stored_run(++n));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunStoreAppend);

static void BM_RunStoreRecover(benchmark::State& state) {
  const std::string dir = bench_store_dir("recover");
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  {
    store::RunStore st(dir);
    for (std::uint64_t n = 0; n < entries; ++n) st.append_run(bench_stored_run(n));
  }
  for (auto _ : state) {
    store::RunStore st(dir);
    benchmark::DoNotOptimize(st.run_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RunStoreRecover)->Arg(1000);

static void BM_RunCacheLookupHit(benchmark::State& state) {
  const std::string dir = bench_store_dir("lookup");
  store::RunStore st(dir);
  for (std::uint64_t n = 0; n < 1000; ++n) st.append_run(bench_stored_run(n));
  store::RunCache cache(st);
  const std::uint64_t fp = bench_stored_run(500).fingerprint;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(fp));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunCacheLookupHit);

// Custom main: default to machine-readable JSON output (BENCH_kernels.json in
// the working directory) so the perf trajectory is tracked across PRs; any
// explicit --benchmark_out= flag wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
