// perf_tune — the flow-tuner benchmark and acceptance check.
//
// Runs the FlowTuner (FlowTune-style per-dimension bandits + FIST-style
// feature-importance focusing) over the full default knob space against a
// synthetic oracle with a known optimum, and gates three properties:
//
//   1. Sample efficiency: the tuner must reach within 5% of the best-known
//      QoR while *executing* (non-memoized) no more than 50% of the
//      evaluations a deterministic random search needs for the same bar.
//   2. Memoization: at least 30% of the campaign's dispatched runs must be
//      served by the memo layer (content-addressed cache hit or in-flight
//      join) rather than executed — the payoff of trajectory-derived seeds
//      plus FIST freezing.
//   3. Determinism: the 1-thread and 8-thread campaigns must be bitwise
//      identical, sample by sample.
//
// A regression on any gate exits nonzero so the check can gate CI as a
// ctest (label "tune"). Results are written as machine-readable JSON:
//   perf_tune [output.json] [scratch-dir]

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "flow/knobs.hpp"
#include "obs/registry.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "tune/flow_tuner.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace maestro;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Per-dimension QoR contribution table over the default knob spaces: four
/// dimensions matter (one monotone, one with an interior optimum, two
/// monotone with different weights), the other fourteen are no-ops — the
/// FIST premise. The oracle is pure in (trajectory, seed).
struct SyntheticFlow {
  std::vector<flow::KnobDim> dims;
  std::vector<std::vector<double>> contrib;  ///< [dim][value index]
  double best_qor = 0.0;

  explicit SyntheticFlow(const std::vector<flow::KnobSpace>& spaces)
      : dims(flow::enumerate_dimensions(spaces)) {
    contrib.resize(dims.size());
    for (std::size_t d = 0; d < dims.size(); ++d) {
      contrib[d].assign(dims[d].values.size(), 0.0);
      const std::string name = dims[d].qualified();
      if (name == "synthesis.effort") contrib[d] = {0.0, 80.0, 160.0};
      if (name == "floorplan.utilization") contrib[d] = {0.0, 40.0, 90.0, 60.0, 20.0};
      if (name == "place.moves_per_cell") contrib[d] = {0.0, 50.0, 100.0, 130.0};
      if (name == "route.rounds") contrib[d] = {0.0, 45.0, 90.0};
    }
    for (const auto& c : contrib) {
      double best = 0.0;
      for (const double v : c) best = std::max(best, v);
      best_qor += best;
    }
  }

  double qor(const std::vector<std::size_t>& choice) const {
    double q = 0.0;
    for (std::size_t d = 0; d < choice.size(); ++d) q += contrib[d][choice[d]];
    return q;
  }

  tune::TuneOracle oracle() const {
    return [this](const flow::FlowTrajectory& t, std::uint64_t seed) {
      const auto choice = flow::indices_from_trajectory(dims, t);
      flow::FlowResult fr;
      fr.completed = fr.timing_met = fr.drc_clean = fr.constraints_met = true;
      // Sub-resolution tool noise: never enough to reorder two settings.
      fr.area_um2 = 2000.0 - qor(*choice) - static_cast<double>(seed % 5) * 1e-4;
      fr.wns_ps = 1.0;
      fr.power_mw = 1.0;
      return fr;
    };
  }
};

double score_of(const flow::FlowResult& fr) { return 2000.0 - fr.area_um2; }

struct CampaignStats {
  tune::TuneResult result;
  std::uint64_t executed = 0;   ///< store.cache_miss delta (real runs)
  std::uint64_t served = 0;     ///< cache hits + in-flight joins
  double secs = 0.0;
};

CampaignStats run_campaign(const SyntheticFlow& synth, const fs::path& scratch,
                           std::size_t threads) {
  store::RunStore st((scratch / ("t" + std::to_string(threads))).string());
  store::RunCache cache(st);

  tune::TuneOptions opt;
  opt.design = "perf_tune";
  opt.rounds = 40;
  opt.batch = 5;
  opt.policy = ml::PolicyKind::Ucb1;
  opt.warmup_rounds = 12;
  opt.focus_dims = 6;
  opt.refit_every = 4;
  opt.forest.trees = 96;
  opt.forest.max_depth = 8;
  opt.cache = &cache;
  opt.objective = score_of;

  const std::uint64_t miss0 = counter("store.cache_miss");
  const std::uint64_t hit0 = counter("exec.cache_hits");
  const std::uint64_t join0 = counter("exec.inflight_joins");

  exec::RunExecutor pool{{.threads = threads}};
  util::Rng rng{4242};
  CampaignStats out;
  const auto t0 = std::chrono::steady_clock::now();
  out.result = tune::FlowTuner{opt}.run(synth.oracle(), rng, pool);
  out.secs = seconds_since(t0);
  out.executed = counter("store.cache_miss") - miss0;
  out.served = (counter("exec.cache_hits") - hit0) + (counter("exec.inflight_joins") - join0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_tune.json";
  const fs::path scratch =
      argc > 2 ? fs::path(argv[2]) : fs::temp_directory_path() / "maestro_perf_tune";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  const auto spaces = flow::default_knob_spaces();
  const SyntheticFlow synth(spaces);
  const double threshold = 0.95 * synth.best_qor;

  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.tune.v1"};
  report["best_known_qor"] = util::Json{synth.best_qor};
  report["qor_threshold"] = util::Json{threshold};

  // ------------------------------------------------- random-search baseline
  // Deterministic uniform sampling of full trajectories, one evaluation at a
  // time, until it first reaches the QoR bar (capped). One restart can get
  // lucky, so the reference the tuner must halve is the expected cost: the
  // mean over several independent restarts.
  std::size_t baseline_evals = 0;
  {
    constexpr std::size_t kCap = 20000;
    constexpr std::size_t kRestarts = 64;
    const auto oracle = synth.oracle();
    std::size_t total = 0;
    for (std::size_t rep = 0; rep < kRestarts; ++rep) {
      util::Rng rng{101 + 17 * rep};
      double best = 0.0;
      std::size_t n = 0;
      while (n < kCap && best < threshold) {
        const flow::FlowTrajectory t = flow::random_trajectory(spaces, rng);
        const auto fr = oracle(t, exec::derive_run_seed(9, n));
        best = std::max(best, score_of(fr));
        ++n;
      }
      total += n;
    }
    baseline_evals = total / kRestarts;
    report["random_search_evals"] = util::Json{baseline_evals};
  }

  // ------------------------------------------------------- tuner campaigns
  const CampaignStats serial = run_campaign(synth, scratch, 1);
  const CampaignStats parallel = run_campaign(synth, scratch, 8);

  bool bitwise = serial.result.samples.size() == parallel.result.samples.size() &&
                 serial.result.best_score == parallel.result.best_score &&
                 serial.result.best_choice == parallel.result.best_choice &&
                 serial.result.distinct_runs == parallel.result.distinct_runs;
  if (bitwise) {
    for (std::size_t i = 0; i < serial.result.samples.size(); ++i) {
      if (serial.result.samples[i].choice != parallel.result.samples[i].choice ||
          serial.result.samples[i].score != parallel.result.samples[i].score) {
        bitwise = false;
        break;
      }
    }
  }

  const std::uint64_t dispatched = serial.result.total_runs;
  const double memo_fraction =
      dispatched == 0 ? 0.0
                      : static_cast<double>(serial.served) / static_cast<double>(dispatched);
  const double eval_ratio = baseline_evals == 0
                                ? 1.0
                                : static_cast<double>(serial.executed) /
                                      static_cast<double>(baseline_evals);

  {
    util::JsonArray importance;
    for (std::size_t d = 0; d < serial.result.importance.size(); ++d) {
      util::JsonObject row;
      row["dim"] = util::Json{synth.dims[d].qualified()};
      row["importance"] = util::Json{serial.result.importance[d]};
      importance.push_back(util::Json{std::move(row)});
    }
    report["importance"] = util::Json{std::move(importance)};
    util::JsonArray focus;
    for (const std::size_t d : serial.result.focus)
      focus.push_back(util::Json{synth.dims[d].qualified()});
    report["focus"] = util::Json{std::move(focus)};
  }
  report["tuner_best_qor"] = util::Json{serial.result.best_score};
  report["tuner_dispatched"] = util::Json{static_cast<double>(dispatched)};
  report["tuner_executed"] = util::Json{static_cast<double>(serial.executed)};
  report["tuner_memo_served"] = util::Json{static_cast<double>(serial.served)};
  report["memo_served_fraction"] = util::Json{memo_fraction};
  report["eval_ratio_vs_random"] = util::Json{eval_ratio};
  report["serial_secs"] = util::Json{serial.secs};
  report["parallel_secs"] = util::Json{parallel.secs};
  report["bitwise_identical_1_vs_8_threads"] = util::Json{bitwise};

  const bool qor_ok = serial.result.best_score >= threshold;
  const bool evals_ok = eval_ratio <= 0.50;
  const bool memo_ok = memo_fraction >= 0.30;
  report["qor_ok"] = util::Json{qor_ok};
  report["evals_ok"] = util::Json{evals_ok};
  report["memo_ok"] = util::Json{memo_ok};
  const bool pass = qor_ok && evals_ok && memo_ok && bitwise;
  report["pass"] = util::Json{pass};

  {
    std::ofstream out(out_path, std::ios::trunc);
    out << util::Json{std::move(report)}.dump() << '\n';
  }

  std::printf(
      "perf_tune: qor %.1f/%.1f (bar %.1f), executed %llu vs random %zu (ratio %.2f), "
      "memo served %.0f%% of %llu dispatched, 1v8 threads %s -> %s\n",
      serial.result.best_score, synth.best_qor, threshold,
      static_cast<unsigned long long>(serial.executed), baseline_evals, eval_ratio,
      memo_fraction * 100.0, static_cast<unsigned long long>(dispatched),
      bitwise ? "bitwise-identical" : "DIVERGED", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
