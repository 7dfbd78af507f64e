#include "core/flow_search.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "opt/gwtw.hpp"
#include "util/json.hpp"

namespace maestro::core {

namespace {

util::Json trajectory_json(const flow::FlowTrajectory& t) {
  util::JsonObject o;
  for (const auto& [step, setting] : t.settings) {
    util::JsonObject knobs;
    for (const auto& [name, value] : setting) knobs[name] = util::Json{value};
    o[flow::to_string(step)] = util::Json{std::move(knobs)};
  }
  return util::Json{std::move(o)};
}

flow::FlowTrajectory trajectory_from_json(const util::Json& j) {
  flow::FlowTrajectory t;
  for (const auto& [step_name, knobs] : j.as_object()) {
    const auto step = flow::step_from_string(step_name);
    if (!step) continue;
    for (const auto& [name, value] : knobs.as_object()) {
      t.set(*step, name, value.as_string());
    }
  }
  return t;
}

/// One population member's persisted frontier state.
struct FrontierEntry {
  flow::FlowTrajectory trajectory;
  double cost = 0.0;
};

/// Everything needed to continue (or short-circuit) a tree search.
struct FtsCampaignState {
  std::size_t rounds_done = 0;
  std::size_t flow_runs = 0;
  double best_cost = 0.0;
  flow::FlowTrajectory best_trajectory;
  flow::FlowResult best_result;
  std::vector<double> best_per_round;
  std::vector<FrontierEntry> population;
  util::Rng rng;
};

util::Json fts_state_json(const FtsCampaignState& st, const FlowSearchOptions& opt) {
  util::JsonObject o;
  o["strategy"] = util::Json{to_string(opt.strategy)};
  o["rounds_done"] = util::Json{st.rounds_done};
  o["flow_runs"] = util::Json{st.flow_runs};
  o["best_cost"] = util::Json{st.best_cost};
  o["best_trajectory"] = trajectory_json(st.best_trajectory);
  o["best_result"] = store::flow_result_to_json(st.best_result);
  util::JsonArray bests;
  for (const double b : st.best_per_round) bests.push_back(util::Json{b});
  o["best_per_round"] = util::Json{std::move(bests)};
  util::JsonArray population;
  for (const auto& entry : st.population) {
    util::JsonObject eo;
    eo["t"] = trajectory_json(entry.trajectory);
    eo["cost"] = util::Json{entry.cost};
    population.push_back(util::Json{std::move(eo)});
  }
  o["population"] = util::Json{std::move(population)};
  o["rng"] = store::rng_state_to_json(st.rng);
  return util::Json{std::move(o)};
}

std::optional<FtsCampaignState> fts_state_from_json(const util::Json& j,
                                                    const FlowSearchOptions& opt) {
  if (!j.is_object()) return std::nullopt;
  if (j.at("strategy").as_string() != to_string(opt.strategy)) return std::nullopt;
  // Counts are checked integers: a NaN, negative or huge value rejects the
  // checkpoint instead of reaching an undefined double -> size_t cast.
  const auto rounds_done = j.at("rounds_done").as_uint();
  const auto flow_runs = j.at("flow_runs").as_uint();
  if (!rounds_done || !flow_runs) return std::nullopt;
  FtsCampaignState st;
  st.rounds_done = static_cast<std::size_t>(*rounds_done);
  st.flow_runs = static_cast<std::size_t>(*flow_runs);
  st.best_cost = j.at("best_cost").as_number();
  st.best_trajectory = trajectory_from_json(j.at("best_trajectory"));
  st.best_result = store::flow_result_from_json(j.at("best_result"));
  for (const auto& b : j.at("best_per_round").as_array()) {
    st.best_per_round.push_back(b.as_number());
  }
  for (const auto& entry : j.at("population").as_array()) {
    FrontierEntry fe;
    fe.trajectory = trajectory_from_json(entry.at("t"));
    fe.cost = entry.at("cost").as_number();
    st.population.push_back(std::move(fe));
  }
  if (!store::rng_state_from_json(st.rng, j.at("rng"))) return std::nullopt;
  if (st.population.size() != opt.population) return std::nullopt;
  if (st.rounds_done == 0 || st.best_per_round.size() != st.rounds_done) return std::nullopt;
  return st;
}

}  // namespace

double qor_cost(const flow::FlowResult& result, const QorWeights& w) {
  if (!result.completed) return w.incomplete_penalty;
  double cost = w.area_per_um2 * result.area_um2 + w.power_per_mw * result.power_mw;
  if (result.wns_ps < 0.0) cost += w.wns_violation_per_ps * -result.wns_ps;
  cost += w.drv_each * result.final_drvs;
  return cost;
}

TrajectoryOracle make_trajectory_oracle(const flow::FlowManager& manager,
                                        const flow::DesignSpec& design, double target_ghz,
                                        const flow::FlowConstraints& constraints) {
  return [&manager, design, target_ghz, constraints](const flow::FlowTrajectory& t,
                                                     std::uint64_t seed) {
    flow::FlowRecipe recipe;
    recipe.design = design;
    recipe.target_ghz = target_ghz;
    recipe.knobs = t;
    recipe.seed = seed;
    return manager.run(recipe, constraints);
  };
}

const char* to_string(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::RandomMultistart: return "random_multistart";
    case SearchStrategy::AdaptiveMultistart: return "adaptive_multistart";
    case SearchStrategy::Gwtw: return "gwtw";
  }
  return "?";
}

bool FlowTreeSearch::resumes_from(const util::Json& state) const {
  return fts_state_from_json(state, options_).has_value();
}

flow::FlowTrajectory FlowTreeSearch::mutate(const flow::FlowTrajectory& t, std::size_t count,
                                            util::Rng& rng) const {
  flow::FlowTrajectory out = t;
  // Collect (space index, knob index) pairs to mutate.
  std::vector<std::pair<std::size_t, std::size_t>> all;
  for (std::size_t s = 0; s < spaces_.size(); ++s) {
    for (std::size_t k = 0; k < spaces_[s].knobs.size(); ++k) all.emplace_back(s, k);
  }
  for (std::size_t m = 0; m < count && !all.empty(); ++m) {
    const auto [si, ki] = all[rng.below(all.size())];
    const auto& spec = spaces_[si].knobs[ki];
    out.set(spaces_[si].step, spec.name, spec.values[rng.below(spec.values.size())]);
  }
  return out;
}

FlowSearchResult FlowTreeSearch::run(const TrajectoryOracle& oracle, util::Rng& rng) const {
  FlowSearchResult res;
  res.best_cost = std::numeric_limits<double>::infinity();

  struct Thread {
    flow::FlowTrajectory trajectory;
    double cost = std::numeric_limits<double>::infinity();
    flow::FlowResult result;
  };
  std::vector<Thread> population(options_.population);

  // Resume a checkpointed campaign: restore the frontier (population
  // trajectories and costs), best-so-far and the RNG, then continue at the
  // next round — bitwise identical to the uninterrupted search. A
  // checkpoint written under different options is ignored.
  std::size_t rounds_done = 0;
  const std::string state_key = "fts:" + options_.campaign_id;
  if (options_.checkpoint) {
    if (const auto saved = options_.checkpoint->get_state(state_key)) {
      if (auto st = fts_state_from_json(*saved, options_)) {
        rounds_done = st->rounds_done;
        res.flow_runs = st->flow_runs;
        res.best_cost = st->best_cost;
        res.best_trajectory = std::move(st->best_trajectory);
        res.best_result = std::move(st->best_result);
        res.best_per_round = std::move(st->best_per_round);
        for (std::size_t i = 0; i < population.size(); ++i) {
          population[i].trajectory = std::move(st->population[i].trajectory);
          population[i].cost = st->population[i].cost;
        }
        rng = st->rng;
        obs::Registry::global().counter("store.campaign_resumed").add();
      }
    }
  }

  const auto save_checkpoint = [&]() {
    if (!options_.checkpoint) return;
    FtsCampaignState st;
    st.rounds_done = rounds_done;
    st.flow_runs = res.flow_runs;
    st.best_cost = res.best_cost;
    st.best_trajectory = res.best_trajectory;
    st.best_result = res.best_result;
    st.best_per_round = res.best_per_round;
    st.population.reserve(population.size());
    for (const auto& th : population) st.population.push_back({th.trajectory, th.cost});
    st.rng = rng;
    options_.checkpoint->put_state(state_key, fts_state_json(st, options_));
  };

  // Without a caller pool the search runs on a private one-thread pool, so
  // serial and parallel searches share one dispatch path.
  std::optional<exec::RunExecutor> own_pool;
  if (!options_.executor) own_pool.emplace(exec::ExecOptions{.threads = 1});
  exec::RunExecutor& pool = options_.executor ? *options_.executor : *own_pool;

  // One round of N concurrent robot runs. `prepare(th, i)` mutates thread
  // trajectories serially (it consumes the shared Rng), seed draws follow in
  // the same fixed order, then the flow runs execute as one
  // exec::dispatch_round. The fold back into best-so-far is serial and in
  // thread order, so results are bitwise identical at any pool size.
  std::size_t round_index = rounds_done;
  auto run_round = [&](auto prepare) {
    // GWTW/tree-search rounds are the campaign's heartbeat: one span per
    // round (advance + parallel runs + fold) with the best cost so far.
    obs::Span round_span("search_round", "sched");
    round_span.arg("strategy", to_string(options_.strategy))
        .arg("round", static_cast<double>(round_index++));
    obs::Registry::global().counter("sched.search_rounds").add();
    std::vector<exec::RoundJob<flow::FlowResult, store::KeyedRunCache>> jobs(population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      prepare(population[i], i);
      auto& job = jobs[i];
      job.label = "flow_search#" + std::to_string(res.flow_runs + i);
      job.seed = rng.next();
      job.body = [&oracle, &t = population[i].trajectory](exec::RunContext& ctx) {
        return oracle(t, ctx.seed);
      };
      if (options_.cache) {
        // The content-addressed key of one member's run: the campaign's
        // fixed context plus the flattened trajectory knobs and the round's
        // seed draw.
        store::RunKey key = options_.cache_key;
        for (auto& [name, value] : flow::flatten(population[i].trajectory)) {
          key.knobs[name] = std::move(value);
        }
        key.seed = job.seed;
        job.memo.emplace(*options_.cache, std::move(key));
      }
    }
    auto outcomes = exec::dispatch_round(pool, std::move(jobs));
    for (std::size_t i = 0; i < population.size(); ++i) {
      Thread& th = population[i];
      if (outcomes[i].value) {
        th.result = std::move(*outcomes[i].value);
      } else {
        // Dead branch: the run crashed. Keep the thread alive with an
        // incomplete result — qor_cost charges the incomplete penalty, so
        // GWTW resampling clones winners over it and multistart simply
        // re-rolls it next round.
        obs::Registry::global().counter("sched.search_dead_branches").add();
        th.result = flow::FlowResult{};
        th.result.failed_step = "crashed: " + outcomes[i].error;
      }
      th.cost = qor_cost(th.result, options_.weights);
      ++res.flow_runs;
      if (th.cost < res.best_cost) {
        res.best_cost = th.cost;
        res.best_trajectory = th.trajectory;
        res.best_result = th.result;
      }
    }
    round_span.arg("best_cost", res.best_cost)
        .arg("flow_runs", static_cast<double>(res.flow_runs));
  };

  // Initial population: default trajectory plus random ones. Skipped when a
  // checkpoint already carried the campaign past it.
  if (rounds_done == 0) {
    run_round([&](Thread& th, std::size_t i) {
      th.trajectory =
          i == 0 ? flow::default_trajectory(spaces_) : flow::random_trajectory(spaces_, rng);
    });
    res.best_per_round.push_back(res.best_cost);
    rounds_done = 1;
    save_checkpoint();
  }

  for (std::size_t round = rounds_done; round < options_.rounds; ++round) {
    switch (options_.strategy) {
      case SearchStrategy::RandomMultistart: {
        run_round([&](Thread& th, std::size_t) {
          th.trajectory = flow::random_trajectory(spaces_, rng);
        });
        break;
      }
      case SearchStrategy::AdaptiveMultistart: {
        // New starts are perturbations of the best trajectory as of the
        // round start (batch-synchronous, so the round's runs can execute
        // concurrently) — the big-valley bet applied to knob space.
        run_round([&](Thread& th, std::size_t) {
          th.trajectory = mutate(res.best_trajectory, options_.mutations_per_round, rng);
        });
        break;
      }
      case SearchStrategy::Gwtw: {
        // Advance: each thread mutates its own trajectory.
        run_round([&](Thread& th, std::size_t) {
          th.trajectory = mutate(th.trajectory, options_.mutations_per_round, rng);
        });
        // Resample: clone winners over losers.
        std::vector<double> costs(population.size());
        for (std::size_t i = 0; i < costs.size(); ++i) costs[i] = population[i].cost;
        for (const auto& [loser, winner] :
             opt::resample_winners(costs, options_.survivor_fraction, rng)) {
          population[loser] = population[winner];
        }
        break;
      }
    }
    res.best_per_round.push_back(res.best_cost);
    rounds_done = round + 1;
    save_checkpoint();
  }
  return res;
}

}  // namespace maestro::core
