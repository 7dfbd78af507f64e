#pragma once
// FlowTuner — multi-stage flow tuning over the full knob space (paper
// Section 3.2, Fig. 5).
//
// Two published ideas compose here:
//
//  * FlowTune (arXiv 2202.07721): each flow stage's knobs are bandit arms,
//    and per-stage decisions chain end-to-end into one FlowTrajectory. The
//    tuner keeps one ml::BanditPolicy per flattened (step, knob) dimension;
//    a round samples every dimension, runs the assembled trajectory, and
//    shares the run's scalar objective back into every dimension's
//    posterior — credit assignment by association, which is what makes the
//    per-stage decomposition tractable.
//
//  * FIST (arXiv 2011.13493): most knobs do not matter for a given design.
//    After a warm-up of full-space exploration the tuner fits a
//    random-forest surrogate (ml::RandomForest) on the campaign's mined
//    history — features are the per-dimension value indices, the target is
//    the objective — and reads off *feature importances*. Sampling then
//    concentrates on the top `focus_dims` important dimensions; the rest are
//    frozen at their best empirical arm. Freezing collapses the reachable
//    trajectory set, so repeat configurations become content-addressed cache
//    hits instead of tool runs.
//
// Determinism contract (mirrors core::MabScheduler): dimension selection
// consumes the shared Rng serially; each run's seed derives purely from
// (base_seed, the trajectory's choice indices), so an identical trajectory
// always has an identical store::RunKey fingerprint; results are observed in
// submission order. Campaigns are bitwise identical at any pool size, and a
// checkpointed campaign resumes bitwise identical to the uninterrupted one
// under "tune:<campaign_id>" in a store::RunStore.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "flow/flow.hpp"
#include "ml/bandit.hpp"
#include "ml/regression.hpp"
#include "metrics/server.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"

namespace maestro::tune {

/// "Run the flow with this trajectory and seed" — the real FlowManager or a
/// fast synthetic oracle (bench/perf_tune.cpp).
using TuneOracle =
    std::function<flow::FlowResult(const flow::FlowTrajectory&, std::uint64_t seed)>;

/// Oracle over the real flow for a fixed design and target frequency.
TuneOracle make_flow_tune_oracle(const flow::FlowManager& manager,
                                 const flow::DesignSpec& design, double target_ghz,
                                 const flow::FlowConstraints& constraints);

/// Scalar objective, higher is better. The default rewards success and then
/// smaller area: success ? 1 + 1/(1 + area_um2/1e4) : 0.
double default_objective(const flow::FlowResult& r);

struct TuneOptions {
  /// The knob spaces to tune over; flow::default_knob_spaces() if empty.
  std::vector<flow::KnobSpace> spaces;
  std::string design = "tune";  ///< run-key / metrics design id

  std::size_t rounds = 24;  ///< tuning rounds
  std::size_t batch = 4;    ///< concurrent trajectories per round

  ml::PolicyKind policy = ml::PolicyKind::Thompson;
  double epsilon = 0.1;  ///< e-greedy only
  double tau = 0.08;     ///< softmax only

  /// FIST schedule: rounds of full-space exploration before the first
  /// surrogate refit, dimensions left free after focusing, and the cadence
  /// (in rounds) of refits thereafter.
  std::size_t warmup_rounds = 6;
  std::size_t focus_dims = 5;
  std::size_t refit_every = 4;
  std::size_t min_surrogate_rows = 8;  ///< skip refits on thinner history
  ml::RandomForest::Options forest;    ///< seed is overridden per refit

  /// Objective to maximize; default_objective when unset.
  std::function<double(const flow::FlowResult&)> objective;

  /// Content-addressed memoization: every round's exec::dispatch_round
  /// memoizes each run keyed by (design, trajectory knobs, seed). Repeat
  /// trajectories — within a campaign once FIST freezes dimensions, or
  /// across campaigns over the same MAESTRO_STORE — resolve from the cache,
  /// or within one batch share the first copy's run, instead of running.
  store::FlowCache* cache = nullptr;

  /// Durable checkpointing under "tune:<campaign_id>": posteriors, the
  /// surrogate training set, the focus state and the RNG persist after
  /// every round. A rerun with the same id and options resumes bitwise
  /// identical; a finished campaign short-circuits.
  store::RunStore* checkpoint = nullptr;
  std::string campaign_id = "tune";

  /// METRICS integration: every observed run is transmitted as a
  /// step="tune" record, and a fresh campaign warm-starts by mining the
  /// server's existing history through a subscriber (posteriors and the
  /// surrogate training set are seeded from past records of this design).
  metrics::Server* metrics = nullptr;
};

/// One dispatched trajectory run.
struct TuneSample {
  std::size_t round = 0;
  std::vector<std::size_t> choice;  ///< value index per dimension
  double score = 0.0;
  bool success = false;
  /// True when the run died (crash, timeout) and produced no observation:
  /// no posterior update, no surrogate row, no metrics record — a censored
  /// run, not a zero score.
  bool censored = false;
};

struct TuneResult {
  std::vector<TuneSample> samples;
  std::vector<double> best_per_round;
  double best_score = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_choice;
  flow::FlowTrajectory best_trajectory;

  std::size_t total_runs = 0;
  std::size_t censored_runs = 0;  ///< runs that died without an observation
  /// Unique trajectory fingerprints dispatched. total_runs - distinct_runs
  /// of the campaign's dispatches were served from the memo layer (cache
  /// hit, or a repeat within one batch) when a cache is configured.
  std::size_t distinct_runs = 0;
  std::size_t mined_rows = 0;  ///< warm-start rows mined from metrics history

  std::vector<double> importance;   ///< last fitted per-dimension importance
  std::vector<std::size_t> focus;   ///< focused dimensions (empty pre-refit)
  bool resumed = false;
};

class FlowTuner {
 public:
  explicit FlowTuner(TuneOptions options);

  /// Run the campaign. Selection is serial on `rng`, the batch dispatches on
  /// `pool` as one exec::dispatch_round, observation is serial in
  /// submission order — bitwise identical at any pool size. A run whose
  /// oracle throws is censored (TuneSample::censored); the campaign goes on.
  TuneResult run(const TuneOracle& oracle, util::Rng& rng, exec::RunExecutor& pool) const;
  /// Convenience: private pool sized by MAESTRO_THREADS.
  TuneResult run(const TuneOracle& oracle, util::Rng& rng) const;

  const TuneOptions& options() const { return options_; }
  /// True when run() would resume from `state`, a persisted
  /// "tune:<campaign_id>" checkpoint: it decodes and matches these options.
  /// Checkpoints come from WAL bytes, so anything else is rejected.
  bool resumes_from(const util::Json& state) const;
  /// The flattened dimensions the tuner optimizes over (stable order).
  const std::vector<flow::KnobDim>& dimensions() const { return dims_; }

 private:
  TuneOptions options_;
  std::vector<flow::KnobDim> dims_;
};

/// Pure seed for one trajectory: chained splitmix over the choice indices.
/// Identical trajectories get identical seeds (and so identical run-key
/// fingerprints), which is what turns repeat configurations into cache hits.
std::uint64_t trajectory_seed(std::uint64_t base_seed, const std::vector<std::size_t>& choice);

}  // namespace maestro::tune
