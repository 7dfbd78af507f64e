// Workload `campaign`: one cold campaign over a fresh RunStore + RunCache
// and a 4-thread RunExecutor on rand@1 — MabScheduler, then FlowTreeSearch
// (GWTW), then FlowTuner — followed by the identical campaign against the
// now-warm store, which must be answered entirely from the cache and
// reproduce the cold outputs exactly.
//
// The design and the campaign's configuration, driver seeds and four
// tool-seed salts included, are fixed, so every run does the same work;
// --seed picks the order in which the four campaigns run. An operation is
// one cold campaign. A cycle runs set-up, cold campaign and warm pass with
// each salt; cycles repeat while another fits in --seconds. The traced run
// makes one untraced cold campaign (the overhead baseline), then one traced
// cold campaign and warm pass with the first salt, with spans around each
// driver's run, each oracle call and each FlowCache call.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "core/flow_search.hpp"
#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "metrics/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "timed_cache.hpp"
#include "tune/flow_tuner.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using maestro::flow::FlowResult;
using maestro::flow::FlowTrajectory;

constexpr std::size_t kThreads = 4;
constexpr double kSearchGhz = 1.0;
constexpr std::size_t kCampaigns = 4;  ///< per cycle, one per tool-seed salt
constexpr std::uint64_t kDriverSeed = 1;
/// The salts' seed. A campaign's cost moves by up to 15% with its salt,
/// because the salt sends the tuner through different slow knob settings;
/// with salts drawn from --seed, the mean of four campaigns spread 12%
/// between runs.
constexpr std::uint64_t kSaltSeed = 1;

maestro::store::RunStoreOptions store_options() {
  maestro::store::RunStoreOptions opt;
  opt.shards = 8;
  opt.fsync = maestro::store::FsyncMode::Batch;
  opt.fsync_batch = 64;
  return opt;
}

maestro::metrics::ServerOptions server_options() {
  maestro::metrics::ServerOptions opt;
  opt.shards = 16;
  opt.shard_capacity = 0;
  opt.overflow = maestro::metrics::Overflow::DropOldest;
  return opt;
}

/// What the drivers share during one pass: the span log (null when
/// untraced), the driver span that oracle and cache calls nest under, and
/// the oracle latencies every run collects.
struct Probe {
  SpanLog* log = nullptr;
  std::atomic<std::uint64_t> driver_span{0};
  std::mutex mu;
  std::vector<double> oracle_ms;
  std::atomic<std::uint64_t> oracle_calls{0};

  /// Time and count one oracle call.
  template <typename F>
  FlowResult call(F&& body) {
    Span span(log, "flow.run", driver_span.load(std::memory_order_relaxed));
    oracle_calls.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    FlowResult r = body();
    const double ms = seconds_since(t0) * 1000.0;
    std::lock_guard<std::mutex> lock(mu);
    oracle_ms.push_back(ms);
    return r;
  }
};

/// One campaign's input: the design, and the salt XORed into the seed of
/// every flow the drivers request, so each campaign samples its own tool
/// noise while the drivers' configuration and seeds stay fixed.
struct CampaignInput {
  maestro::flow::DesignSpec design;
  std::uint64_t tool_salt = 0;
};

/// The outputs the warm pass must reproduce.
struct CampaignOutputs {
  maestro::core::MabRunResult mab;
  maestro::core::FlowSearchResult gwtw;
  maestro::tune::TuneResult tune;
  double wall_s = 0.0;
  double mab_ms = 0.0;
  double gwtw_ms = 0.0;
  double tune_ms = 0.0;
};

/// Set-up and the services one campaign pass runs against.
struct Services {
  explicit Services(const std::string& dir)
      : store(dir, store_options()), cache(store), pool({kThreads, kThreads}),
        server(server_options()) {}
  maestro::store::RunStore store;
  maestro::store::RunCache cache;
  maestro::exec::RunExecutor pool;
  maestro::metrics::Server server;
};

/// The three drivers in order, each under its own span.
CampaignOutputs run_drivers(const maestro::flow::FlowManager& manager, const CampaignInput& input,
                            maestro::store::FlowCache& cache, Services& svc, Probe& probe) {
  namespace core = maestro::core;
  const maestro::flow::DesignSpec& design = input.design;
  CampaignOutputs out;
  const auto t0 = std::chrono::steady_clock::now();
  const auto timed_driver = [&](const char* name, double& ms, auto&& body) {
    Span span(probe.log, name);
    probe.driver_span.store(span.id(), std::memory_order_relaxed);
    const auto d0 = std::chrono::steady_clock::now();
    body();
    ms = seconds_since(d0) * 1000.0;
    probe.driver_span.store(0, std::memory_order_relaxed);
  };

  timed_driver("core.mab", out.mab_ms, [&] {
    maestro::flow::FlowConstraints constraints;
    constraints.max_power_mw = 20.0;
    const core::FlowOracle inner =
        core::make_flow_oracle(manager, design, FlowTrajectory{}, constraints);
    const core::FlowOracle oracle = [&](double ghz, std::uint64_t s) {
      return probe.call([&] { return inner(ghz, s ^ input.tool_salt); });
    };
    core::MabOptions opt;
    opt.frequency_arms_ghz = core::frequency_arms(0.5, 2.5, 11);
    opt.iterations = 12;
    opt.concurrency = 4;
    opt.cache = &cache;
    opt.cache_key.design = design.name;
    opt.cache_key.set("max_power_mw", constraints.max_power_mw);
    maestro::util::Rng rng{mix_seed(kDriverSeed, 101)};
    out.mab = core::MabScheduler(opt).run(oracle, rng, svc.pool);
  });

  timed_driver("core.gwtw", out.gwtw_ms, [&] {
    const core::TrajectoryOracle inner =
        core::make_trajectory_oracle(manager, design, kSearchGhz, {});
    const core::TrajectoryOracle oracle = [&](const FlowTrajectory& t, std::uint64_t s) {
      return probe.call([&] { return inner(t, s ^ input.tool_salt); });
    };
    core::FlowSearchOptions opt;
    opt.strategy = core::SearchStrategy::Gwtw;
    opt.population = 4;
    opt.rounds = 8;
    opt.executor = &svc.pool;
    opt.cache = &cache;
    opt.cache_key.design = design.name;
    opt.cache_key.set("target_ghz", kSearchGhz);
    maestro::util::Rng rng{mix_seed(kDriverSeed, 102)};
    out.gwtw = core::FlowTreeSearch(maestro::flow::default_knob_spaces(), opt).run(oracle, rng);
  });

  timed_driver("tune.tuner", out.tune_ms, [&] {
    const maestro::tune::TuneOracle inner =
        maestro::tune::make_flow_tune_oracle(manager, design, kSearchGhz, {});
    const maestro::tune::TuneOracle oracle = [&](const FlowTrajectory& t, std::uint64_t s) {
      return probe.call([&] { return inner(t, s ^ input.tool_salt); });
    };
    maestro::tune::TuneOptions opt;
    opt.spaces = maestro::flow::default_knob_spaces();
    opt.design = design.name;
    opt.rounds = 16;
    opt.batch = 4;
    opt.cache = &cache;
    opt.metrics = &svc.server;
    maestro::util::Rng rng{mix_seed(kDriverSeed, 103)};
    out.tune = maestro::tune::FlowTuner(opt).run(oracle, rng, svc.pool);
  });
  out.wall_s = seconds_since(t0);
  return out;
}

std::size_t evaluations(const CampaignOutputs& c) {
  return c.mab.total_runs + c.gwtw.flow_runs + c.tune.total_runs;
}

std::uint64_t digest_of(const CampaignOutputs& c) {
  Digest d;
  for (const auto& s : c.mab.samples) {
    d.add(static_cast<std::uint64_t>(s.iteration)).add(s.frequency_ghz).add(s.reward);
    d.add(static_cast<std::uint64_t>(s.success) | static_cast<std::uint64_t>(s.censored) << 1);
  }
  d.add(c.mab.best_feasible_ghz);
  d.add(c.gwtw.best_cost).add(c.gwtw.best_result);
  for (const auto& [name, value] : maestro::flow::flatten(c.gwtw.best_trajectory)) {
    d.add(name).add(value);
  }
  d.add(c.tune.best_score);
  for (const std::size_t i : c.tune.best_choice) d.add(static_cast<std::uint64_t>(i));
  return d.value();
}

/// Output checks of one cold pass: GWTW's best cost is the QoR cost of its
/// best result, and every driver found something.
void check_cold(const CampaignOutputs& c, Outcome& out) {
  const double recomputed = maestro::core::qor_cost(c.gwtw.best_result);
  if (recomputed != c.gwtw.best_cost) {
    out.fail_check("GWTW best_cost " + std::to_string(c.gwtw.best_cost) +
                   " != qor_cost(best_result) " + std::to_string(recomputed));
  }
  if (!(c.mab.best_feasible_ghz > 0.0)) out.fail_check("MAB found no feasible frequency");
  if (!std::isfinite(c.tune.best_score)) out.fail_check("tuner recorded no score");
}

/// One set-up, cold campaign and warm pass in a fresh store directory.
struct Pass {
  double setup_s = 0.0;
  CampaignOutputs cold;
  CacheCalls cold_cache;  ///< traced passes only
  std::size_t wal_entries = 0;
  double warm_ms = 0.0;
  CacheCalls warm_cache;
  std::uint64_t digest = 0;
};

/// Set-up of one pass: the services plus one warm-up flow of the design with
/// fixed tool seeds, so first-touch allocation is not timed.
void warm_up(const maestro::flow::FlowManager& manager, const CampaignInput& input) {
  maestro::flow::FlowRecipe recipe;
  recipe.design = input.design;
  recipe.target_ghz = kSearchGhz;
  manager.run(recipe);
}

/// With a span log the cold campaign runs through a TimedCache; the warm
/// pass always does, since its hit count is an output check.
Pass run_pass(const maestro::flow::FlowManager& manager, const CampaignInput& input,
              const std::string& dir, SpanLog* log, Probe& probe, Outcome& out) {
  Pass pass;
  fs::remove_all(dir);
  probe.log = log;
  {
    const auto t0 = std::chrono::steady_clock::now();
    Services svc(dir);
    warm_up(manager, input);
    pass.setup_s = seconds_since(t0);
    TimedCache timed(svc.cache, log, &probe.driver_span);
    maestro::store::FlowCache& cache =
        log != nullptr ? static_cast<maestro::store::FlowCache&>(timed) : svc.cache;
    pass.cold = run_drivers(manager, input, cache, svc, probe);
    pass.cold_cache = timed.calls();
    pass.wal_entries = svc.store.wal_entries();
  }
  check_cold(pass.cold, out);
  out.attempted += evaluations(pass.cold);
  out.failed += pass.cold.mab.censored_runs;
  pass.digest = digest_of(pass.cold);

  // Warm pass: reopen the store, fresh metrics server, identical campaign.
  Services svc(dir);
  Probe warm_probe;
  warm_probe.log = log;
  TimedCache counted(svc.cache, log, &warm_probe.driver_span);
  const auto w0 = std::chrono::steady_clock::now();
  Span warm_span(log, "store.rerun");
  const CampaignOutputs warm = run_drivers(manager, input, counted, svc, warm_probe);
  warm_span.end();
  pass.warm_ms = seconds_since(w0) * 1000.0;
  pass.warm_cache = counted.calls();
  out.attempted += evaluations(warm);
  if (digest_of(warm) != pass.digest) {
    ++out.failed;
    out.fail_check("warm pass outputs differ from the cold pass");
  }
  const std::uint64_t warm_runs = warm_probe.oracle_calls.load();
  if (warm_runs != 0 || pass.warm_cache.hits != pass.warm_cache.lookup_us.size()) {
    ++out.failed;
    out.fail_check("warm pass ran " + std::to_string(warm_runs) + " flows; hits " +
                   std::to_string(pass.warm_cache.hits) + " of " +
                   std::to_string(pass.warm_cache.lookup_us.size()) + " lookups");
  }
  return pass;
}

}  // namespace

Outcome run_campaign(const Options& opt) {
  Outcome out;
  const maestro::netlist::CellLibrary lib = maestro::netlist::make_default_library();
  const maestro::flow::FlowManager manager{lib};
  std::vector<CampaignInput> inputs(kCampaigns);
  for (std::size_t k = 0; k < kCampaigns; ++k) {
    inputs[k].design.kind = maestro::flow::DesignSpec::Kind::RandomLogic;
    inputs[k].design.scale = 1;
    inputs[k].design.rtl_seed = 1;
    inputs[k].tool_salt = mix_seed(kSaltSeed, (k + opt.seed) % kCampaigns);
    // The salt is part of every run's identity, so it goes into the name
    // that each driver's cache key carries.
    char name[32];
    std::snprintf(name, sizeof name, "rand_s1/%016llx",
                  static_cast<unsigned long long>(inputs[k].tool_salt));
    inputs[k].design.name = name;
  }
  const std::string dir = (fs::current_path() / "campaign-store").string();

  // Set-up (store open + recovery, cache index, executor threads, metrics
  // server, warm-up flow) is also timed on its own a few times, so the
  // median has enough samples.
  std::vector<double> setup_samples;
  for (int rep = 0; rep < 5; ++rep) {
    fs::remove_all(dir);
    const auto t0 = std::chrono::steady_clock::now();
    {
      Services svc(dir);
      warm_up(manager, inputs[0]);
    }
    setup_samples.push_back(seconds_since(t0));
  }

  Probe probe;
  std::vector<Pass> passes;
  const auto t0 = std::chrono::steady_clock::now();
  if (opt.trace) {
    passes.push_back(run_pass(manager, inputs[0], dir, nullptr, probe, out));
  } else {
    double cycle_s = 0.0;
    do {
      const auto c0 = std::chrono::steady_clock::now();
      for (const auto& input : inputs) {
        passes.push_back(run_pass(manager, input, dir, nullptr, probe, out));
      }
      cycle_s = seconds_since(c0);
    } while (seconds_since(t0) + cycle_s <= opt.seconds);
  }
  Digest digest;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    setup_samples.push_back(passes[p].setup_s);
    if (p < kCampaigns) digest.add(passes[p].digest);
    if (passes[p].digest != passes[p % kCampaigns].digest) {
      ++out.failed;
      out.fail_check("cold campaign outputs differ between repetitions");
    }
  }
  out.digest = digest.value();
  std::vector<double> cold_ms;
  for (const Pass& p : passes) {
    const CampaignOutputs& c = p.cold;
    cold_ms.push_back(c.wall_s * 1000.0);
    std::printf(
        "campaign: MAB best %.2f GHz (%zu runs), GWTW best cost %.4f (%zu runs), tuner best "
        "%.6f (%zu runs, %zu distinct); cold %.3f s, warm %.1f ms\n",
        c.mab.best_feasible_ghz, c.mab.total_runs, c.gwtw.best_cost, c.gwtw.flow_runs,
        c.tune.best_score, c.tune.total_runs, c.tune.distinct_runs, c.wall_s, p.warm_ms);
  }

  if (!opt.trace) {
    double total_ms = 0.0;
    for (const double ms : cold_ms) total_ms += ms;
    out.set("setup_s", median(setup_samples), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("ops_per_s", static_cast<double>(passes.size()) / (total_ms / 1000.0), "1/s");
    out.set("op_p50_ms", percentile(cold_ms, 50).value, "ms");
    out.set("op_p90_ms", percentile(cold_ms, 90).value, "ms");
    out.set("ok_ratio",
            static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
            "ratio");
    fs::remove_all(dir);
    return out;
  }

  // Traced run: one traced cold campaign and warm pass.
  SpanLog log;
  Probe traced_probe;
  const Pass traced = run_pass(manager, inputs[0], dir, &log, traced_probe, out);
  fs::remove_all(dir);
  if (traced.digest != passes.front().digest) {
    ++out.failed;
    out.fail_check("traced campaign outputs differ from the untraced one");
  }
  if (!opt.trace_path.empty() && !log.write_jsonl(opt.trace_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.trace_path.c_str());
  }

  const CampaignOutputs& c = traced.cold;
  out.set("core.mab_ms", c.mab_ms, "ms");
  out.set("core.gwtw_ms", c.gwtw_ms, "ms");
  out.set("tune.tuner_ms", c.tune_ms, "ms");
  const auto self_of = [&](const char* span) {
    const std::vector<double> v = log.self_ms(span);
    return v.empty() ? 0.0 : v.front();  // the cold pass's span comes first
  };
  out.set("core.mab_self_ms", self_of("core.mab"), "ms");
  out.set("core.gwtw_self_ms", self_of("core.gwtw"), "ms");
  out.set("tune.self_ms", self_of("tune.tuner"), "ms");
  out.set("core.best_ghz", c.mab.best_feasible_ghz, "GHz");
  out.set("core.gwtw_cost", c.gwtw.best_cost, "cost");
  out.set("tune.best_score", c.tune.best_score, "score");

  std::vector<double> run_ms;
  {
    std::lock_guard<std::mutex> lock(traced_probe.mu);
    run_ms = traced_probe.oracle_ms;
  }
  double busy_ms = 0.0;
  for (const double ms : run_ms) busy_ms += ms;
  out.set("flow.runs", static_cast<double>(run_ms.size()), "count");
  out.set("flow.run_ms_p50", percentile(run_ms, 50).value, "ms");
  out.set("flow.run_ms_max", percentile(run_ms, 100).value, "ms");
  out.set("exec.busy_ms", busy_ms, "ms");
  out.set("exec.occupancy", busy_ms / (c.wall_s * 1000.0 * kThreads), "ratio");

  const CacheCalls& cc = traced.cold_cache;
  out.set("store.lookups", static_cast<double>(cc.lookup_us.size()), "count");
  out.set("store.hits", static_cast<double>(cc.hits), "count");
  out.set("store.hit_ratio", cc.hit_ratio(), "ratio");
  out.set("store.inserts", static_cast<double>(cc.insert_us.size()), "count");
  out.set("store.lookup_us_p50", percentile(cc.lookup_us, 50).value, "us");
  out.set("store.insert_us_p50", percentile(cc.insert_us, 50).value, "us");
  out.set("store.wal_entries", static_cast<double>(traced.wal_entries), "count");
  out.set("store.rerun_ms", traced.warm_ms, "ms");
  out.set("store.rerun_hit_ratio", traced.warm_cache.hit_ratio(), "ratio");
  const double base_s = passes.front().cold.wall_s;
  out.set("obs.trace_overhead_pct", (c.wall_s - base_s) / base_s * 100.0, "%");
  return out;
}

}  // namespace perfbench
