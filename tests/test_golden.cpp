// Golden behaviour digests (ctest label: golden).
//
// Pins WHAT the flow produces, not just that two runs in one binary agree:
// FNV-1a digests of the FlowResults FlowManager::run returns for cpu@1,
// rand@1, rent@1 and the congested rand@3 at 0.6 GHz with default knobs under
// two tool seeds, and of every global-route segment path of those designs,
// are compared against
// the committed file tests/golden/digests.json. A refactor that changes QoR
// or a single routed edge fails here.
//
// The "campaign" section pins the orchestration layer on top of the flow:
// MabScheduler (run with a pool and a RunCache, run_resilient under a fault
// plan, run with a crashing oracle), FlowTreeSearch under each strategy,
// FlowTuner and opt::go_with_the_winners. Each pin runs its campaign in
// several ways that must agree — serial and pooled, with and without a
// cache, at 1 and 8 threads — and all of them must hash
// to the recorded digest.
//
// The "guard" section records Table 1's DoomedRunGuard error counts in
// plain numbers: type-1 and type-2 errors on the training and test corpora
// of bench/table1_doomed_errors for 1, 2 and 3 consecutive STOPs.
//
// A deliberate behaviour change rewrites the file:
//
//   maestro_golden_tests --rebaseline
//
// and the diff of digests.json is then part of the reviewed change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/doomed_guard.hpp"
#include "core/flow_search.hpp"
#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "flow/flow.hpp"
#include "opt/gwtw.hpp"
#include "resil/fault.hpp"
#include "route/drv_sim.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "tune/flow_tuner.hpp"
#include "util/json.hpp"

namespace mc = maestro::core;
namespace me = maestro::exec;
namespace mf = maestro::flow;
namespace mo = maestro::opt;
namespace mr = maestro::route;
namespace ms = maestro::store;
namespace mt = maestro::tune;
namespace mu = maestro::util;
using maestro::util::Json;

namespace {

const char* const kDigestFile = MAESTRO_GOLDEN_DIR "/digests.json";

/// Incremental 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& add(std::uint64_t v) { return bytes(&v, sizeof v); }
  Fnv1a& add(double v) { return bytes(&v, sizeof v); }
  Fnv1a& add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    return bytes(s.data(), s.size());
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string digest_of(const mf::FlowResult& r) {
  Fnv1a d;
  d.add(static_cast<std::uint64_t>(r.completed) | static_cast<std::uint64_t>(r.timing_met) << 1 |
        static_cast<std::uint64_t>(r.drc_clean) << 2 |
        static_cast<std::uint64_t>(r.constraints_met) << 3);
  for (const double v : {r.area_um2, r.wns_ps, r.whs_ps, r.tns_ps, r.power_mw, r.final_drvs,
                         r.route_difficulty, r.hpwl_dbu, r.clock_skew_ps, r.ir_drop_v,
                         r.tat_minutes}) {
    d.add(v);
  }
  d.add(r.failed_step);
  for (const auto& log : r.logs) d.add(log.to_json().dump());
  return d.hex();
}

std::string digest_of(const std::vector<mr::RoutedSegment>& segments) {
  Fnv1a d;
  d.add(static_cast<std::uint64_t>(segments.size()));
  for (const auto& s : segments) {
    d.add(std::uint64_t{s.from.col} << 32 | s.from.row);
    d.add(std::uint64_t{s.to.col} << 32 | s.to.row);
    d.add(static_cast<std::uint64_t>(s.edges.size()));
    for (const std::size_t e : s.edges) d.add(static_cast<std::uint64_t>(e));
  }
  return d.hex();
}

struct Digests {
  std::map<std::string, std::string> flow;    ///< "<case>/seed<k>" -> FlowResult digest
  std::map<std::string, std::string> groute;  ///< "<case>/seed<k>" -> segment-path digest
  std::map<std::string, std::string> campaign;  ///< "<campaign>/<case>" -> campaign digest
  std::map<std::string, std::string> guard;     ///< "table1/k<K>" -> error counts
  std::vector<std::string> problems;          ///< runs whose digests cannot be trusted
};

/// Runs the golden matrix. Every flow's global route is replayed with
/// keep_segments on the flow's final placement and the same options; the
/// replay must reproduce the flow's overflow series before its paths count.
Digests compute() {
  struct Case {
    const char* name;
    mf::DesignSpec::Kind kind;
    std::size_t scale;
    std::uint64_t rtl_seed;
  };
  // rand@3 (RTL seed 4, as in the flow benchmark's matrix) is the congested
  // case: its negotiation runs every round and builds up heavy history
  // costs, which the scale-1 designs never reach.
  constexpr Case kCases[] = {{"cpu_s1", mf::DesignSpec::Kind::CpuLike, 1, 1},
                             {"rand_s1", mf::DesignSpec::Kind::RandomLogic, 1, 1},
                             {"rent_s1", mf::DesignSpec::Kind::Rent, 1, 1},
                             {"rand_s3", mf::DesignSpec::Kind::RandomLogic, 3, 4}};
  static const auto lib = maestro::netlist::make_default_library();
  const mf::FlowManager fm{lib};
  Digests out;
  for (const Case& c : kCases) {
    for (const std::uint64_t seed : {1u, 2u}) {
      mf::FlowRecipe recipe;
      recipe.design.kind = c.kind;
      recipe.design.scale = c.scale;
      recipe.design.rtl_seed = c.rtl_seed;
      recipe.design.name = c.name;
      recipe.target_ghz = 0.6;
      recipe.seed = seed;
      mf::DesignState state;
      const mf::FlowResult res = fm.run_keep_state(recipe, mf::FlowConstraints{}, state);
      const std::string key = std::string(c.name) + "/seed" + std::to_string(seed);
      out.flow[key] = digest_of(res);

      if (!res.completed || !state.pl || !state.view) {
        out.problems.push_back(key + ": flow did not complete");
        continue;
      }
      mr::RouteOptions ro = mf::route_options(*state.fp, {});
      ro.keep_segments = true;
      mr::GridGraph g;
      const auto replay = mr::global_route(*state.pl, *state.view, ro, g);
      if (replay.overflow_per_round != state.groute.overflow_per_round ||
          replay.wirelength_gcells != state.groute.wirelength_gcells) {
        out.problems.push_back(key + ": route replay differs from the flow's route");
      }
      out.groute[key] = digest_of(replay.segments);
    }
  }
  return out;
}

const Digests& computed() {
  static const Digests d = compute();
  return d;
}

// ---------------------------------------------------------------------------
// Campaign pins

const mf::FlowManager& flow_manager() {
  static const auto lib = maestro::netlist::make_default_library();
  static const mf::FlowManager fm{lib};
  return fm;
}

mf::DesignSpec rand_s1() {
  mf::DesignSpec d;
  d.kind = mf::DesignSpec::Kind::RandomLogic;
  d.scale = 1;
  d.rtl_seed = 1;
  d.name = "rand_s1";
  return d;
}

/// A fresh RunStore + RunCache in a scratch directory, removed on scope exit.
struct TempCache {
  explicit TempCache(const std::string& tag)
      : dir(make_dir(tag)), store(dir), cache(store) {}
  ~TempCache() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  static std::string make_dir(const std::string& tag) {
    const auto d = std::filesystem::temp_directory_path() /
                   ("maestro_golden_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(d);
    return d.string();
  }
  std::string dir;
  ms::RunStore store;
  ms::RunCache cache;
};

/// Clears the process-global fault plan on scope exit.
struct FaultGuard {
  ~FaultGuard() { maestro::resil::FaultInjector::clear(); }
};

std::string digest_of(const mc::MabRunResult& r) {
  Fnv1a d;
  d.add(static_cast<std::uint64_t>(r.samples.size()));
  for (const auto& s : r.samples) {
    d.add(static_cast<std::uint64_t>(s.iteration)).add(s.frequency_ghz).add(s.reward);
    d.add(static_cast<std::uint64_t>(s.success) | static_cast<std::uint64_t>(s.censored) << 1);
  }
  for (const double b : r.best_per_iteration) d.add(b);
  d.add(r.best_feasible_ghz).add(r.total_regret);
  d.add(static_cast<std::uint64_t>(r.total_runs))
      .add(static_cast<std::uint64_t>(r.successful_runs))
      .add(static_cast<std::uint64_t>(r.censored_runs));
  return d.hex();
}

std::string digest_of(const mf::FlowTrajectory& t) {
  Fnv1a d;
  for (const auto& [name, value] : mf::flatten(t)) d.add(name).add(value);
  return d.hex();
}

std::string digest_of(const mc::FlowSearchResult& r) {
  Fnv1a d;
  d.add(digest_of(r.best_trajectory)).add(r.best_cost).add(digest_of(r.best_result));
  for (const double b : r.best_per_round) d.add(b);
  d.add(static_cast<std::uint64_t>(r.flow_runs));
  return d.hex();
}

std::string digest_of(const mt::TuneResult& r) {
  Fnv1a d;
  d.add(static_cast<std::uint64_t>(r.samples.size()));
  for (const auto& s : r.samples) {
    d.add(static_cast<std::uint64_t>(s.round)).add(s.score);
    d.add(static_cast<std::uint64_t>(s.success));
    for (const std::size_t c : s.choice) d.add(static_cast<std::uint64_t>(c));
  }
  for (const double b : r.best_per_round) d.add(b);
  for (const double v : r.importance) d.add(v);
  for (const std::size_t f : r.focus) d.add(static_cast<std::uint64_t>(f));
  d.add(r.best_score).add(digest_of(r.best_trajectory));
  d.add(static_cast<std::uint64_t>(r.total_runs)).add(static_cast<std::uint64_t>(r.distinct_runs));
  return d.hex();
}

/// MabScheduler::run on rand@1, three real-flow pulls per iteration: on a
/// 4-thread pool through a RunCache, and on one thread without a cache.
std::vector<std::string> mab_run_rand_s1() {
  mf::FlowConstraints constraints;
  const mc::FlowOracle oracle =
      mc::make_flow_oracle(flow_manager(), rand_s1(), mf::FlowTrajectory{}, constraints);
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.4, 2.0, 5);
  opt.iterations = 4;
  opt.concurrency = 3;
  std::vector<std::string> out;
  {
    TempCache tc("mab");
    mc::MabOptions cached = opt;
    cached.cache = &tc.cache;
    cached.cache_key.design = "rand_s1";
    me::RunExecutor pool{{.threads = 4}};
    mu::Rng rng{2018};
    out.push_back(digest_of(mc::MabScheduler{cached}.run(oracle, rng, pool)));
  }
  me::RunExecutor pool{{.threads = 1}};
  mu::Rng rng{2018};
  out.push_back(digest_of(mc::MabScheduler{opt}.run(oracle, rng, pool)));
  return out;
}

/// Feasibility-cliff oracle with crashes and hangs decided at site "oracle"
/// from the attempt seed (the resilience tests' chaos oracle).
mf::FlowResult chaos_oracle(double freq, std::uint64_t seed, me::RunContext& ctx) {
  switch (maestro::resil::FaultInjector::decide("oracle", seed)) {
    case maestro::resil::FaultKind::Crash: throw maestro::resil::InjectedCrash{"oracle"};
    case maestro::resil::FaultKind::Hang:
      maestro::resil::injected_hang([&] { return ctx.should_stop(); },
                                    maestro::resil::FaultInjector::plan()->hang_ms());
      break;
    default: break;
  }
  mf::FlowResult r;
  r.completed = true;
  r.timing_met = freq <= 1.6;
  r.drc_clean = true;
  r.constraints_met = true;
  r.wns_ps = r.timing_met ? 10.0 : -50.0;
  return r;
}

/// MabScheduler::run_resilient under a 20% crash / 5% hang plan with three
/// attempts per pull, at 1 and 8 threads.
std::vector<std::string> mab_resilient_chaos() {
  FaultGuard guard;
  maestro::resil::FaultRates rates;
  rates.crash = 0.2;
  rates.hang = 0.05;
  maestro::resil::FaultPlan plan{rates, 7};
  plan.set_hang_ms(5.0);
  maestro::resil::FaultInjector::install(plan);
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.8, 2.4, 9);
  opt.iterations = 12;
  opt.concurrency = 4;
  opt.resilience.retry.max_attempts = 3;
  std::vector<std::string> out;
  for (const std::size_t threads : {1u, 8u}) {
    me::RunExecutor pool{{.threads = threads}};
    mu::Rng rng{2018};
    out.push_back(digest_of(mc::MabScheduler{opt}.run_resilient(chaos_oracle, rng, pool)));
  }
  return out;
}

/// Plain MabScheduler::run with an oracle that crashes on even seeds: the
/// crashed pulls are censored.
std::vector<std::string> mab_plain_crashing() {
  const mc::FlowOracle oracle = [](double freq, std::uint64_t seed) {
    if (seed % 2 == 0) throw maestro::resil::InjectedCrash{"oracle"};
    mf::FlowResult r;
    r.completed = true;
    r.timing_met = freq <= 1.2;
    r.drc_clean = true;
    r.constraints_met = true;
    return r;
  };
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.8, 1.6, 3);
  opt.iterations = 5;
  opt.concurrency = 3;
  std::vector<std::string> out;
  for (const std::size_t threads : {1u, 2u}) {
    me::RunExecutor pool{{.threads = threads}};
    mu::Rng rng{99};
    out.push_back(digest_of(mc::MabScheduler{opt}.run(oracle, rng, pool)));
  }
  return out;
}

/// FlowTreeSearch on rand@1: serially through a RunCache, and on a 4-thread
/// pool without and with a RunCache. The digest covers the result and the
/// sorted set of (trajectory, seed) runs the search asked the oracle for, so
/// strategies that reach the same best still hash apart.
std::vector<std::string> flow_search_rand_s1(mc::SearchStrategy strategy) {
  const mc::TrajectoryOracle inner =
      mc::make_trajectory_oracle(flow_manager(), rand_s1(), 1.0, mf::FlowConstraints{});
  mc::FlowSearchOptions opt;
  opt.strategy = strategy;
  opt.population = 4;
  opt.rounds = 3;
  opt.cache_key.design = "rand_s1";
  opt.cache_key.set("target_ghz", 1.0);
  const auto spaces = mf::default_knob_spaces();
  const auto run = [&](const mc::FlowSearchOptions& o) {
    std::mutex mu;
    std::vector<std::string> calls;
    const mc::TrajectoryOracle oracle = [&](const mf::FlowTrajectory& t, std::uint64_t seed) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        calls.push_back(digest_of(t) + "/" + std::to_string(seed));
      }
      return inner(t, seed);
    };
    mu::Rng rng{11};
    const auto res = mc::FlowTreeSearch{spaces, o}.run(oracle, rng);
    std::sort(calls.begin(), calls.end());
    Fnv1a d;
    d.add(digest_of(res));
    for (const auto& c : calls) d.add(c);
    return d.hex();
  };
  std::vector<std::string> out;
  {
    TempCache tc("fts_serial");
    mc::FlowSearchOptions cached = opt;
    cached.cache = &tc.cache;
    out.push_back(run(cached));
  }
  me::RunExecutor pool{{.threads = 4}};
  mc::FlowSearchOptions pooled = opt;
  pooled.executor = &pool;
  out.push_back(run(pooled));
  TempCache tc("fts_pool");
  pooled.cache = &tc.cache;
  out.push_back(run(pooled));
  return out;
}

/// FlowTuner on rand@1 with an early surrogate refit, so importance and
/// focus are pinned too: 4 threads through a RunCache, and 1 thread without.
std::vector<std::string> tune_rand_s1() {
  const mt::TuneOracle oracle =
      mt::make_flow_tune_oracle(flow_manager(), rand_s1(), 1.0, mf::FlowConstraints{});
  mt::TuneOptions opt;
  opt.design = "rand_s1";
  opt.rounds = 4;
  opt.batch = 3;
  opt.warmup_rounds = 2;
  opt.refit_every = 1;
  opt.min_surrogate_rows = 4;
  opt.focus_dims = 3;
  opt.forest.trees = 8;
  std::vector<std::string> out;
  {
    TempCache tc("tune");
    mt::TuneOptions cached = opt;
    cached.cache = &tc.cache;
    me::RunExecutor pool{{.threads = 4}};
    mu::Rng rng{17};
    out.push_back(digest_of(mt::FlowTuner{cached}.run(oracle, rng, pool)));
  }
  me::RunExecutor pool{{.threads = 1}};
  mu::Rng rng{17};
  out.push_back(digest_of(mt::FlowTuner{opt}.run(oracle, rng, pool)));
  return out;
}

/// opt::go_with_the_winners on bench fig6(c)'s DRV-state problem
/// (population 8, 12 rounds, seed 7): on its own one-thread pool and on a
/// 4-thread pool.
std::vector<std::string> gwtw_fig6c() {
  struct DrvState {
    mr::RouteDifficulty diff{0.8};
    double final_drvs = 1.0e9;
  };
  constexpr int kDrvIters = 12;
  constexpr double kDrvScale = 5000.0;
  const auto step_state = [](const DrvState& s, double final_drvs, bool ok) {
    DrvState next = s;
    next.final_drvs = final_drvs;
    next.diff.value = std::clamp(s.diff.value + (ok ? -0.06 : 0.015), 0.02, 0.98);
    return next;
  };
  mo::GwtwProblem<DrvState> prob;
  prob.init = [](mu::Rng& rng) {
    DrvState s;
    s.diff.value = rng.uniform(0.5, 0.95);
    return s;
  };
  prob.advance = [&step_state](const DrvState& s, mu::Rng& rng) {
    mr::DrvSimOptions o;
    o.iterations = kDrvIters;
    o.initial_drv_scale = kDrvScale;
    const mr::DrvRun run = mr::simulate_drv_run(s.diff, o, rng);
    return step_state(s, run.drvs.back(), run.succeeded);
  };
  prob.cost = [](const DrvState& s) { return s.final_drvs; };
  mo::GwtwOptions opt;
  opt.population = 8;
  opt.rounds = 12;
  opt.survivor_fraction = 0.5;
  const auto digest = [](const mo::GwtwResult<DrvState>& r) {
    Fnv1a d;
    d.add(r.best.diff.value).add(r.best.final_drvs).add(r.best_cost);
    for (const double b : r.best_per_round) d.add(b);
    for (const double m : r.mean_per_round) d.add(m);
    d.add(static_cast<std::uint64_t>(r.clones_made));
    return d.hex();
  };
  std::vector<std::string> out;
  {
    mu::Rng rng{7};
    out.push_back(digest(mo::go_with_the_winners(prob, opt, rng)));
  }
  {
    me::RunExecutor pool{{.threads = 4}};
    mo::GwtwOptions pooled = opt;
    pooled.executor = &pool;
    mu::Rng rng{7};
    out.push_back(digest(mo::go_with_the_winners(prob, pooled, rng)));
  }
  return out;
}

/// Every campaign pin: its key in the "campaign" section and the function
/// returning the digest of each way it is run.
const std::map<std::string, std::function<std::vector<std::string>()>>& campaign_pins() {
  static const std::map<std::string, std::function<std::vector<std::string>()>> pins{
      {"mab_run/rand_s1", mab_run_rand_s1},
      {"mab_run_resilient/chaos", mab_resilient_chaos},
      {"mab_run/crashing_oracle", mab_plain_crashing},
      {"fts_random_multistart/rand_s1",
       [] { return flow_search_rand_s1(mc::SearchStrategy::RandomMultistart); }},
      {"fts_adaptive_multistart/rand_s1",
       [] { return flow_search_rand_s1(mc::SearchStrategy::AdaptiveMultistart); }},
      {"fts_gwtw/rand_s1", [] { return flow_search_rand_s1(mc::SearchStrategy::Gwtw); }},
      {"tune/rand_s1", tune_rand_s1},
      {"gwtw/fig6c_drv", gwtw_fig6c},
  };
  return pins;
}

/// The one digest every way of running the pin agrees on, or a problem.
std::string campaign_digest(const std::string& key, std::vector<std::string>* problems) {
  const std::vector<std::string> variants = campaign_pins().at(key)();
  for (std::size_t i = 1; i < variants.size(); ++i) {
    if (variants[i] != variants[0]) {
      problems->push_back(key + ": variant " + std::to_string(i) + " hashes to " + variants[i] +
                          ", variant 0 to " + variants[0]);
    }
  }
  return variants.empty() ? std::string{} : variants[0];
}

// ---------------------------------------------------------------------------
// Table-1 guard pin

/// DoomedRunGuard trained on 1200 artificial-layout logfiles (seed 100) and
/// scored on 3742 embedded-CPU floorplan logfiles (seed 4242), as in
/// bench/table1_doomed_errors: per K, "train t1=<n> t2=<n>, test t1=<n> t2=<n>".
std::map<std::string, std::string> guard_errors() {
  mr::DrvSimOptions opt;
  opt.seed = 100;
  mu::Rng train_rng{100};
  const auto train =
      mr::make_drv_corpus(mr::CorpusKind::ArtificialLayouts, 1200, opt, train_rng);
  mr::DrvSimOptions topt;
  topt.seed = 4242;
  mu::Rng test_rng{4242};
  const auto test = mr::make_drv_corpus(mr::CorpusKind::CpuFloorplans, 3742, topt, test_rng);
  mc::DoomedRunGuard guard;
  guard.train(train);
  std::map<std::string, std::string> out;
  for (int k = 1; k <= 3; ++k) {
    const auto etr = guard.evaluate(train, k);
    const auto ete = guard.evaluate(test, k);
    out["table1/k" + std::to_string(k)] =
        "train t1=" + std::to_string(etr.type1) + " t2=" + std::to_string(etr.type2) +
        ", test t1=" + std::to_string(ete.type1) + " t2=" + std::to_string(ete.type2);
  }
  return out;
}

/// One digest per line, so a rebaseline reads as a per-case diff.
void write_section(std::ostream& os, const char* name,
                   const std::map<std::string, std::string>& m, bool last) {
  os << "  \"" << name << "\": {\n";
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    os << "    \"" << k << "\": \"" << v << "\"" << (++i < m.size() ? "," : "") << "\n";
  }
  os << "  }" << (last ? "" : ",") << "\n";
}

std::map<std::string, std::string> from_json(const Json& j) {
  std::map<std::string, std::string> m;
  for (const auto& [k, v] : j.as_object()) m[k] = v.as_string();
  return m;
}

Digests load() {
  std::ifstream in(kDigestFile);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto j = Json::parse(ss.str());
  if (!j) return {};
  Digests d;
  d.flow = from_json(j->at("flow"));
  d.groute = from_json(j->at("groute"));
  d.campaign = from_json(j->at("campaign"));
  d.guard = from_json(j->at("guard"));
  return d;
}

void expect_same(const std::map<std::string, std::string>& recorded,
                 const std::map<std::string, std::string>& now) {
  ASSERT_FALSE(recorded.empty()) << "no recorded digests in " << kDigestFile;
  EXPECT_EQ(recorded.size(), now.size());
  for (const auto& [key, digest] : recorded) {
    const auto it = now.find(key);
    ASSERT_NE(it, now.end()) << key << " was not computed";
    EXPECT_EQ(it->second, digest) << key << " drifted from the recorded digest";
  }
}

}  // namespace

TEST(Golden, FlowResultsMatchRecordedDigests) {
  EXPECT_TRUE(computed().problems.empty()) << computed().problems.front();
  expect_same(load().flow, computed().flow);
}

TEST(Golden, GlobalRoutePathsMatchRecordedDigests) {
  expect_same(load().groute, computed().groute);
}

/// One test per campaign pin, so `ctest -L golden` runs them side by side
/// and each process computes only its own campaign.
class GoldenCampaign : public testing::TestWithParam<std::string> {};

TEST_P(GoldenCampaign, MatchesRecordedDigest) {
  const auto recorded = load().campaign;
  const auto it = recorded.find(GetParam());
  ASSERT_NE(it, recorded.end()) << GetParam() << " has no recorded digest in " << kDigestFile;
  std::vector<std::string> problems;
  const std::string now = campaign_digest(GetParam(), &problems);
  for (const auto& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(now, it->second) << GetParam() << " drifted from the recorded digest";
}

TEST(Golden, Table1GuardErrorsMatchRecordedCounts) {
  expect_same(load().guard, guard_errors());
}

TEST(Golden, EveryCampaignIsPinned) { EXPECT_EQ(load().campaign.size(), campaign_pins().size()); }

INSTANTIATE_TEST_SUITE_P(Pins, GoldenCampaign, testing::ValuesIn([] {
                           std::vector<std::string> keys;
                           for (const auto& [key, fn] : campaign_pins()) keys.push_back(key);
                           return keys;
                         }()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rebaseline") != 0) continue;
    Digests d = computed();
    for (const auto& [key, fn] : campaign_pins()) d.campaign[key] = campaign_digest(key, &d.problems);
    d.guard = guard_errors();
    if (!d.problems.empty()) {
      std::fprintf(stderr, "refusing to rebaseline: %s\n", d.problems.front().c_str());
      return 1;
    }
    std::ofstream os(kDigestFile);
    os << "{\n";
    write_section(os, "flow", d.flow, false);
    write_section(os, "groute", d.groute, false);
    write_section(os, "campaign", d.campaign, false);
    write_section(os, "guard", d.guard, true);
    os << "}\n";
    std::printf("rewrote %s (%zu flow, %zu groute, %zu campaign digests, %zu guard counts)\n",
                kDigestFile, d.flow.size(), d.groute.size(), d.campaign.size(), d.guard.size());
    return 0;
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
