#pragma once
// Flow-trajectory search (paper Section 2 Solution 2, Figs. 5-6).
//
// "Simple multistart, or depth-first or breadth-first traversal of the tree
// of flow options, is hopeless. Rather, strategies such as go-with-the-
// winners ... and adaptive multistart ... might be applied." FlowTreeSearch
// orchestrates N concurrent robot engineers over the knob space: GWTW clones
// promising trajectories; adaptive multistart seeds new trajectories near
// the best knob settings found so far; a random-multistart baseline
// quantifies the benefit.

#include <functional>
#include <vector>

#include "exec/executor.hpp"
#include "flow/flow.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "util/rng.hpp"

namespace maestro::core {

/// Scalar cost of a flow outcome (lower is better): weighted area + timing
/// violation + DRVs + power, heavily penalizing outright failure.
struct QorWeights {
  double area_per_um2 = 0.001;
  double wns_violation_per_ps = 0.5;
  double drv_each = 0.2;
  double power_per_mw = 0.05;
  double incomplete_penalty = 1e6;
};
double qor_cost(const flow::FlowResult& result, const QorWeights& weights = {});

/// Runs the flow for a trajectory; abstracted for testing.
using TrajectoryOracle =
    std::function<flow::FlowResult(const flow::FlowTrajectory&, std::uint64_t seed)>;

TrajectoryOracle make_trajectory_oracle(const flow::FlowManager& manager,
                                        const flow::DesignSpec& design, double target_ghz,
                                        const flow::FlowConstraints& constraints);

enum class SearchStrategy { RandomMultistart, AdaptiveMultistart, Gwtw };
const char* to_string(SearchStrategy s);

struct FlowSearchOptions {
  SearchStrategy strategy = SearchStrategy::Gwtw;
  std::size_t population = 6;      ///< concurrent runs (licenses)
  std::size_t rounds = 8;          ///< GWTW rounds / multistart batches
  double survivor_fraction = 0.5;  ///< GWTW
  std::size_t mutations_per_round = 2;  ///< knobs flipped when advancing
  QorWeights weights;
  /// Optional pool: each round's population of flow runs executes in
  /// parallel as one exec::dispatch_round. With nullptr the search makes a
  /// private one-thread pool and dispatches the same way. Trajectory
  /// mutation and seed draws stay serial, so results are bitwise identical
  /// at any pool size for a given seed.
  exec::RunExecutor* executor = nullptr;

  /// Optional content-addressed memoization: each run's key is `cache_key`
  /// plus its flattened trajectory knobs and derived seed, so trajectories
  /// revisited by GWTW cloning, adaptive restarts or a repeated campaign
  /// against the same MAESTRO_STORE resolve from the cache instead of
  /// dispatching (exec::dispatch_round memoizes each run, with or without a
  /// caller pool).
  store::FlowCache* cache = nullptr;
  /// Key template (design name + fixed context such as "target_ghz") for
  /// cached runs.
  store::RunKey cache_key;

  /// Optional durable checkpointing: the population frontier, best-so-far
  /// and RNG state persist to this store after every round under
  /// "fts:<campaign_id>"; a later run with the same id resumes at the next
  /// round, bitwise identical to the uninterrupted search.
  store::RunStore* checkpoint = nullptr;
  std::string campaign_id = "fts";
};

struct FlowSearchResult {
  flow::FlowTrajectory best_trajectory;
  double best_cost = 0.0;
  flow::FlowResult best_result;
  std::vector<double> best_per_round;
  std::size_t flow_runs = 0;     ///< total tool-run budget consumed
};

class FlowTreeSearch {
 public:
  FlowTreeSearch(std::vector<flow::KnobSpace> spaces, FlowSearchOptions options)
      : spaces_(std::move(spaces)), options_(options) {}

  FlowSearchResult run(const TrajectoryOracle& oracle, util::Rng& rng) const;

  /// True when run() would resume from `state`, a persisted
  /// "fts:<campaign_id>" checkpoint: it decodes and matches these options.
  /// Checkpoints come from WAL bytes, so anything else is rejected.
  bool resumes_from(const util::Json& state) const;

 private:
  /// Mutate `count` randomly chosen knobs to new random values.
  flow::FlowTrajectory mutate(const flow::FlowTrajectory& t, std::size_t count,
                              util::Rng& rng) const;

  std::vector<flow::KnobSpace> spaces_;
  FlowSearchOptions options_;
};

}  // namespace maestro::core
