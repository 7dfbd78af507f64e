// Workload `flow`: a closed loop of serial FlowManager::run calls over a
// fixed design x scale matrix at 0.6 GHz with default knobs — single-flow
// turnaround, the time a designer waits for.
//
// The matrix is fixed (one design per case); --seed picks the tool seeds.
// A pass runs every case once with one set of tool seeds. Untraced runs make
// cycles of three passes, each with its own tool seeds, and repeat them
// while another cycle fits in --seconds. Every repetition of a pass does
// exactly the same work (checked); a case's time is the median of its
// repetitions. Untraced times are reported on the reference host
// (speed.hpp), from a probe sample before every case. The traced run makes one untraced pass (per-case wall time and
// QoR), then one staged pass that calls the six public step functions in
// FlowManager's order under benchmark spans, and checks the staged
// FlowResult against FlowManager::run field for field.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/flow_search.hpp"
#include "spans.hpp"
#include "speed.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using maestro::flow::DesignSpec;
using maestro::flow::DesignState;
using maestro::flow::FlowRecipe;
using maestro::flow::FlowResult;
using maestro::flow::FlowStep;
using maestro::flow::StepOutcome;
using maestro::flow::ToolContext;

struct Case {
  const char* name;
  DesignSpec::Kind kind;
  std::size_t scale;
};

// Every case is small enough to repeat several times in a run; rand@3 is
// the large, congested design (about 60% of a pass, almost all of it route).
// cpu@2, rand@4 and rent@4 take 4-6 s each, too long to repeat.
constexpr Case kCases[] = {
    {"cpu_s1", DesignSpec::Kind::CpuLike, 1},     {"rand_s1", DesignSpec::Kind::RandomLogic, 1},
    {"rand_s2", DesignSpec::Kind::RandomLogic, 2}, {"rand_s3", DesignSpec::Kind::RandomLogic, 3},
    {"rent_s1", DesignSpec::Kind::Rent, 1},        {"rent_s2", DesignSpec::Kind::Rent, 2},
};
constexpr std::size_t kCaseCount = std::size(kCases);
constexpr double kTargetGhz = 0.6;
constexpr std::size_t kToolSeeds = 3;  ///< passes per cycle
constexpr std::size_t kWarmupCase = 1;  ///< rand@1

/// The matrix with tool seeds derived from (seed, pass); each design's RTL
/// seed is fixed, so only the tools' randomness changes with the seed.
std::vector<FlowRecipe> make_recipes(std::uint64_t seed) {
  std::vector<FlowRecipe> out;
  for (std::size_t i = 0; i < kCaseCount; ++i) {
    FlowRecipe r;
    r.design.kind = kCases[i].kind;
    r.design.scale = kCases[i].scale;
    r.design.rtl_seed = i + 1;
    r.design.name = kCases[i].name;
    r.target_ghz = kTargetGhz;
    r.seed = mix_seed(seed, 2 * i + 1);
    out.push_back(std::move(r));
  }
  return out;
}

/// The per-step context FlowManager::run_keep_state derives from a recipe.
ToolContext context_for(const FlowRecipe& recipe, FlowStep step) {
  ToolContext ctx;
  ctx.target_ghz = recipe.target_ghz;
  const auto it = recipe.knobs.settings.find(step);
  if (it != recipe.knobs.settings.end()) ctx.knobs = it->second;
  ctx.seed = recipe.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(step) + 1;
  if (step == FlowStep::Route) ctx.route_monitor = recipe.route_monitor;
  ctx.cancel = recipe.cancel;
  return ctx;
}

/// Per-module work counts read from the DesignState and StepOutcomes.
struct Counts {
  double gates = 0, moves = 0, rounds = 0, overflow = 0, wirelength = 0, drvs = 0, endpoints = 0;
};

/// One flow through the public step functions, each under a span that is a
/// child of `parent`. Assembles the FlowResult the way FlowManager does.
FlowResult run_staged(const maestro::netlist::CellLibrary& lib, const FlowRecipe& recipe,
                      SpanLog* log, std::uint64_t parent, std::uint64_t run, Counts& counts) {
  DesignState state;
  state.lib = &lib;
  FlowResult res;
  struct Stage {
    FlowStep step;
    const char* span;
  };
  constexpr Stage kStages[] = {
      {FlowStep::Synthesis, "netlist.synthesis"}, {FlowStep::Floorplan, "place.floorplan"},
      {FlowStep::Place, "place.anneal"},          {FlowStep::Cts, "timing.cts"},
      {FlowStep::Route, "route.stage"},           {FlowStep::Signoff, "timing.signoff"},
  };
  for (const Stage& st : kStages) {
    const ToolContext ctx = context_for(recipe, st.step);
    StepOutcome outcome;
    {
      Span span(log, st.span, parent, run);
      switch (st.step) {
        case FlowStep::Synthesis: outcome = run_synthesis(state, recipe.design, ctx); break;
        case FlowStep::Floorplan: outcome = run_floorplan(state, ctx); break;
        case FlowStep::Place: outcome = run_place(state, ctx); break;
        case FlowStep::Cts: outcome = run_cts(state, ctx); break;
        case FlowStep::Route: outcome = run_route(state, ctx); break;
        case FlowStep::Signoff: outcome = run_signoff(state, ctx); break;
      }
    }
    if (st.step == FlowStep::Place) {
      const auto it = outcome.log.metadata.find("moves");
      if (it != outcome.log.metadata.end()) counts.moves += std::stod(it->second);
    }
    res.tat_minutes += outcome.runtime_min;
    res.logs.push_back(std::move(outcome.log));
    if (!outcome.ok) {
      res.failed_step = to_string(st.step);
      return res;
    }
  }
  res.completed = true;
  res.area_um2 = state.nl->total_area_um2();
  res.wns_ps = state.signoff.wns_ps;
  res.whs_ps = state.signoff.whs_ps;
  res.tns_ps = state.signoff.tns_ps;
  res.power_mw = state.pwr.total_mw();
  res.final_drvs = state.droute.drvs.empty() ? 0.0 : state.droute.drvs.back();
  res.route_difficulty = state.droute.difficulty;
  res.hpwl_dbu = static_cast<double>(state.pl->total_hpwl());
  res.clock_skew_ps = state.clock.skew_ps();
  res.ir_drop_v = state.ir.worst_drop_v;
  const maestro::flow::FlowConstraints constraints;
  res.timing_met = res.wns_ps >= 0.0;
  res.drc_clean = res.final_drvs < constraints.max_drvs;
  res.constraints_met =
      res.area_um2 <= constraints.max_area_um2 && res.power_mw <= constraints.max_power_mw;

  counts.gates += static_cast<double>(state.nl->instance_count());
  counts.rounds += state.groute.rounds_used;
  counts.overflow += state.groute.total_overflow;
  counts.wirelength += state.groute.wirelength_gcells;
  counts.drvs += res.final_drvs;
  counts.endpoints += static_cast<double>(state.signoff.endpoints.size());
  return res;
}

bool finite_qor(const FlowResult& r) {
  for (const double v : {r.area_um2, r.wns_ps, r.whs_ps, r.tns_ps, r.power_mw, r.final_drvs,
                         r.route_difficulty, r.hpwl_dbu, r.clock_skew_ps, r.ir_drop_v,
                         r.tat_minutes}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// One untraced pass: FlowManager::run per case, in matrix order, with a
/// sample of the host-speed probe before each case.
struct Pass {
  double wall_ms = 0.0;  ///< sum of the case times
  std::vector<double> case_ms;
  std::vector<FlowResult> results;
};

Pass run_pass(const maestro::flow::FlowManager& manager, const std::vector<FlowRecipe>& recipes,
              SpeedProbe& speed, Outcome& out) {
  Pass pass;
  for (const auto& recipe : recipes) {
    speed.sample();
    const auto c0 = std::chrono::steady_clock::now();
    FlowResult r;
    ++out.attempted;
    try {
      r = manager.run(recipe);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flow %s threw: %s\n", recipe.design.name.c_str(), e.what());
      r.failed_step = "exception";
    }
    pass.case_ms.push_back(seconds_since(c0) * 1000.0);
    // A routed design that misses its DRV bar is QoR, not a failure; a flow
    // that did not reach signoff is.
    if (!r.completed) ++out.failed;
    pass.wall_ms += pass.case_ms.back();
    pass.results.push_back(std::move(r));
  }
  return pass;
}

/// Output checks shared by every pass: all cases completed with finite QoR,
/// and the outputs equal those of the first pass with the same tool seeds
/// (the flow is deterministic).
void check_pass(const Pass& pass, const Pass& first, Outcome& out) {
  for (std::size_t i = 0; i < kCaseCount; ++i) {
    const FlowResult& r = pass.results[i];
    if (!r.completed || !finite_qor(r)) {
      out.fail_check(std::string("flow ") + kCases[i].name + " did not complete with finite QoR");
    }
    if (!same_result(r, first.results[i], /*with_logs=*/true)) {
      out.fail_check(std::string("flow ") + kCases[i].name + " differs between passes");
    }
  }
}

/// Set-up: the cell library the flows share plus one warm-up flow of rand@1
/// with fixed tool seeds, so first-touch allocation is not timed and set-up
/// does the same work for every --seed. Repeated for about a second and
/// reported as a median, so a few slow repetitions do not decide it.
double setup_seconds(maestro::netlist::CellLibrary& lib) {
  const FlowRecipe warmup = make_recipes(0)[kWarmupCase];
  std::vector<double> samples;
  for (int rep = 0; rep < 41; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    lib = maestro::netlist::make_default_library();
    maestro::flow::FlowManager(lib).run(warmup);
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

}  // namespace

Outcome run_flow(const Options& opt) {
  Outcome out;
  maestro::netlist::CellLibrary lib("");
  const double setup_s = setup_seconds(lib);
  const maestro::flow::FlowManager manager{lib};
  std::vector<std::vector<FlowRecipe>> recipes;
  for (std::size_t k = 0; k < kToolSeeds; ++k) {
    recipes.push_back(make_recipes(mix_seed(opt.seed, k)));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Pass> passes;
  passes.push_back(run_pass(manager, recipes[0], *opt.speed, out));
  if (!opt.trace) {
    for (std::size_t k = 1; k < kToolSeeds; ++k) {
      passes.push_back(run_pass(manager, recipes[k], *opt.speed, out));
    }
    const double cycle_s = seconds_since(t0);
    while (seconds_since(t0) + cycle_s <= opt.seconds) {
      for (std::size_t k = 0; k < kToolSeeds; ++k) {
        passes.push_back(run_pass(manager, recipes[k], *opt.speed, out));
      }
    }
  }
  for (std::size_t p = 0; p < passes.size(); ++p) {
    check_pass(passes[p], passes[p % kToolSeeds], out);
  }

  Digest digest;
  for (std::size_t p = 0; p < std::min(passes.size(), kToolSeeds); ++p) {
    for (const FlowResult& r : passes[p].results) digest.add(r);
  }
  out.digest = digest.value();
  std::vector<double> qor;
  for (const FlowResult& r : passes.front().results) qor.push_back(maestro::core::qor_cost(r));

  std::printf("flow: %zu pass(es); first pass qor_cost geomean %.4f\n", passes.size(),
              geomean(qor));
  for (std::size_t i = 0; i < kCaseCount; ++i) {
    std::printf("  %-8s", kCases[i].name);
    for (const Pass& p : passes) std::printf(" %8.1f", p.case_ms[i]);
    std::printf(" ms\n");
  }

  if (!opt.trace) {
    // Per tool seed, the matrix pass made of each case's median repetition.
    std::vector<double> pass_ms(kToolSeeds, 0.0);
    for (std::size_t i = 0; i < kCaseCount; ++i) {
      for (std::size_t k = 0; k < kToolSeeds; ++k) {
        std::vector<double> reps;
        for (std::size_t p = k; p < passes.size(); p += kToolSeeds) {
          reps.push_back(passes[p].case_ms[i]);
        }
        pass_ms[k] += median(reps);
      }
    }
    double total_ms = 0.0;
    for (const double ms : pass_ms) total_ms += ms;
    out.reference_host = true;
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("ops_per_s", static_cast<double>(kToolSeeds) / (total_ms / 1000.0), "1/s");
    out.set("op_p50_ms", percentile(pass_ms, 50).value, "ms");
    out.set("op_p90_ms", percentile(pass_ms, 90).value, "ms");
    out.set("ok_ratio",
            static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
            "ratio");
    return out;
  }

  // Traced run: the staged pass under spans, checked against the untraced one.
  SpanLog log;
  Counts counts;
  const auto s0 = std::chrono::steady_clock::now();
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < kCaseCount; ++i) {
    ++out.attempted;
    Span case_span(&log, "flow.case", 0, i + 1);
    FlowResult staged;
    try {
      staged = run_staged(lib, recipes[0][i], &log, case_span.id(), i + 1, counts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "staged flow %s threw: %s\n", kCases[i].name, e.what());
    }
    if (!same_result(staged, passes.front().results[i], /*with_logs=*/true)) {
      ++mismatched;
      out.fail_check(std::string("staged flow ") + kCases[i].name +
                     " differs from FlowManager::run");
    }
  }
  const double traced_s = seconds_since(s0);
  out.failed += mismatched;
  if (!opt.trace_path.empty() && !log.write_jsonl(opt.trace_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.trace_path.c_str());
  }

  const Pass& base = passes.front();
  for (std::size_t i = 0; i < kCaseCount; ++i) {
    out.set(std::string("flow.case_ms.") + kCases[i].name, base.case_ms[i], "ms");
    out.set(std::string("flow.qor_cost.") + kCases[i].name, qor[i], "cost");
  }
  out.set("flow.qor_cost", geomean(qor), "cost");
  out.set("obs.trace_overhead_pct", (traced_s * 1000.0 - base.wall_ms) / base.wall_ms * 100.0,
          "%");
  if (mismatched > 0) return out;  // staged numbers do not describe FlowManager::run

  struct Layer {
    const char* span;
    const char* metric;
  };
  constexpr Layer kLayers[] = {
      {"netlist.synthesis", "netlist.synthesis_ms"}, {"place.floorplan", "place.floorplan_ms"},
      {"place.anneal", "place.anneal_ms"},           {"route.stage", "route.stage_ms"},
      {"timing.cts", "timing.cts_ms"},               {"timing.signoff", "timing.signoff_ms"},
  };
  std::vector<std::pair<double, std::string>> self;
  for (const Layer& layer : kLayers) {
    double total = 0.0;
    for (const double ms : log.durations_ms(layer.span)) total += ms;
    out.set(layer.metric, total, "ms");
    self.emplace_back(total, layer.span);
  }
  double case_self = 0.0;
  for (const double ms : log.self_ms("flow.case")) case_self += ms;
  self.emplace_back(case_self, "flow.case");
  std::sort(self.rbegin(), self.rend());
  std::printf("flow: self time per span over the staged pass (%.3f s)\n", traced_s);
  for (const auto& [ms, name] : self) {
    std::printf("  %-20s %10.1f ms %5.1f%%\n", name.c_str(), ms, ms / (traced_s * 10.0));
  }

  out.set("netlist.gates", counts.gates, "count");
  out.set("place.moves", counts.moves, "count");
  out.set("route.rounds", counts.rounds, "count");
  out.set("route.overflow", counts.overflow, "count");
  out.set("route.wirelength_gcells", counts.wirelength, "gcells");
  out.set("route.drvs", counts.drvs, "count");
  out.set("timing.endpoints", counts.endpoints, "count");
  return out;
}

}  // namespace perfbench
