#pragma once
// Go-With-The-Winners (Aldous-Vazirani [2], gate-sizing use in [24]).
//
// Figure 6(a): launch a population of optimization threads; periodically
// rank them, clone the most promising onto the least promising, continue.
// The paper proposes GWTW as the orchestration strategy for N robot
// engineers concurrently exploring flow trajectories (Section 2,
// Solution 2). The implementation is generic over a State so it can drive
// both synthetic landscapes (bench fig6) and real flow searches
// (maestro::core::FlowTreeSearch).
//
// Concurrency: each round's advance+cost evaluations run as one
// exec::dispatch_round, on GwtwOptions::executor when set and otherwise on a
// private one-thread pool. Every advance draws from an Rng seeded by
// (campaign seed, round, thread index) — never from the shared generator —
// so populations and winners are bitwise identical at any pool size.
// init/advance/cost must be safe to call concurrently (pure functions of
// their inputs plus their own Rng).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace maestro::opt {

template <typename State>
struct GwtwProblem {
  /// Create a fresh random state.
  std::function<State(util::Rng&)> init;
  /// Advance a thread by one round of local optimization (annealing steps,
  /// a flow stage, ...). Must return the successor state.
  std::function<State(const State&, util::Rng&)> advance;
  /// Cost to minimize.
  std::function<double(const State&)> cost;
};

struct GwtwOptions {
  std::size_t population = 8;    ///< concurrent threads (licenses)
  int rounds = 20;               ///< resampling rounds
  double survivor_fraction = 0.5;  ///< top fraction kept and cloned
  /// Optional pool: advance+cost of all threads run concurrently per round.
  /// Without one the rounds run on a private one-thread pool; results are
  /// identical for a given seed either way.
  exec::RunExecutor* executor = nullptr;
};

/// GWTW resampling, shared by go_with_the_winners and the flow-tree search:
/// order thread indices by cost (std::sort), keep the best
/// max(floor(survivor_fraction * P), 1) and, for each remaining thread in
/// rank order, draw the survivor cloned over it. Returns (loser, winner)
/// pairs. Losers and winners are disjoint index sets, so applying the pairs
/// after the draws is exact.
inline std::vector<std::pair<std::size_t, std::size_t>> resample_winners(
    std::span<const double> costs, double survivor_fraction, util::Rng& rng) {
  std::vector<std::size_t> order(costs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return costs[a] < costs[b]; });
  const auto survivors = std::max<std::size_t>(
      static_cast<std::size_t>(survivor_fraction * static_cast<double>(costs.size())), 1);
  std::vector<std::pair<std::size_t, std::size_t>> clones;
  for (std::size_t i = survivors; i < order.size(); ++i) {
    clones.emplace_back(order[i], order[rng.below(survivors)]);
  }
  return clones;
}

template <typename State>
struct GwtwResult {
  State best{};
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<double> best_per_round;    ///< population-best after each round
  std::vector<double> mean_per_round;
  std::size_t clones_made = 0;
};

/// Run GWTW. Cost is evaluated once per thread per round.
template <typename State>
GwtwResult<State> go_with_the_winners(const GwtwProblem<State>& prob, const GwtwOptions& opt,
                                      util::Rng& rng) {
  assert(opt.population > 0 && prob.init && prob.advance && prob.cost);
  GwtwResult<State> res;

  std::vector<State> population;
  population.reserve(opt.population);
  for (std::size_t i = 0; i < opt.population; ++i) population.push_back(prob.init(rng));

  // Per-advance RNGs derive from (advance_base, round, thread) — never from
  // the shared generator — so the campaign is schedule-independent.
  const std::uint64_t advance_base = rng.next();

  std::optional<exec::RunExecutor> own_pool;
  if (!opt.executor) own_pool.emplace(exec::ExecOptions{.threads = 1});
  exec::RunExecutor& pool = opt.executor ? *opt.executor : *own_pool;

  std::vector<double> costs(opt.population);
  for (int round = 0; round < opt.rounds; ++round) {
    std::vector<exec::RoundJob<std::pair<State, double>>> jobs(population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      jobs[i].label = "gwtw_r" + std::to_string(round) + "#" + std::to_string(i);
      jobs[i].seed = exec::derive_run_seed(
          advance_base, static_cast<std::uint64_t>(round) * opt.population + i);
      jobs[i].body = [&prob, &state = population[i]](exec::RunContext& ctx) {
        util::Rng thread_rng{ctx.seed};
        State next = prob.advance(state, thread_rng);
        const double cost = prob.cost(next);
        return std::make_pair(std::move(next), cost);
      };
    }
    auto outcomes = exec::dispatch_round(pool, std::move(jobs));
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (outcomes[i].value) {
        population[i] = std::move(outcomes[i].value->first);
        costs[i] = outcomes[i].value->second;
      } else {
        // Dead thread: the advance crashed. Keep the prior state at infinite
        // cost — ranking puts it last and a winner is cloned over it, so the
        // population width survives the fault.
        obs::Registry::global().counter("opt.gwtw_dead_threads").add();
        costs[i] = std::numeric_limits<double>::infinity();
      }
      if (costs[i] < res.best_cost) {
        res.best_cost = costs[i];
        res.best = population[i];
      }
    }
    for (const auto& [loser, winner] : resample_winners(costs, opt.survivor_fraction, rng)) {
      population[loser] = population[winner];
      costs[loser] = costs[winner];
      ++res.clones_made;
    }
    double mean = 0.0;
    double best = std::numeric_limits<double>::infinity();
    for (const double c : costs) {
      mean += c;
      best = best < c ? best : c;
    }
    res.best_per_round.push_back(best);
    res.mean_per_round.push_back(mean / static_cast<double>(costs.size()));
  }
  return res;
}

}  // namespace maestro::opt
