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
// Concurrency: when GwtwOptions::executor is set, each round's advance+cost
// evaluations run in parallel on the pool as one exec::dispatch_round. Every
// advance draws from an Rng seeded by (campaign seed, round, thread index) —
// never from the shared generator — so serial and parallel execution
// produce bitwise-identical populations and winners. init/advance/cost must
// be safe to call concurrently (pure functions of their inputs plus their
// own Rng).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
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
  /// Optional batched advance: move the whole population one round in a
  /// single call (e.g. route::simulate_drv_batch amortizing N seeds over
  /// one pass). seeds[i] is exactly the per-thread seed the scalar path
  /// would use, so an implementation must return states bit-identical to
  /// advance(states[i], util::Rng{seeds[i]}) for every i. When set it
  /// replaces the per-thread advance (including the executor fan-out);
  /// costs are still evaluated per state via `cost`.
  std::function<std::vector<State>(const std::vector<State>&, std::span<const std::uint64_t>)>
      advance_batch;
};

struct GwtwOptions {
  std::size_t population = 8;    ///< concurrent threads (licenses)
  int rounds = 20;               ///< resampling rounds
  double survivor_fraction = 0.5;  ///< top fraction kept and cloned
  /// Optional pool: advance+cost of all threads run concurrently per round.
  /// Results are identical to the serial path (nullptr) for a given seed.
  exec::RunExecutor* executor = nullptr;
};

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

  std::vector<double> costs(opt.population);
  for (int round = 0; round < opt.rounds; ++round) {
    // Advance every thread (in parallel when a pool is provided).
    const auto advance_one = [&](std::size_t i) {
      const std::uint64_t seed = exec::derive_run_seed(
          advance_base, static_cast<std::uint64_t>(round) * opt.population + i);
      util::Rng thread_rng{seed};
      State next = prob.advance(population[i], thread_rng);
      double cost = prob.cost(next);
      return std::make_pair(std::move(next), cost);
    };
    // Dead thread: the advance crashed. Keep the prior state at infinite
    // cost — ranking puts it last and a winner is cloned over it, so the
    // population width survives the fault.
    const auto dead_thread = [&](std::size_t i) {
      obs::Registry::global().counter("opt.gwtw_dead_threads").add();
      return std::make_pair(population[i], std::numeric_limits<double>::infinity());
    };
    std::vector<std::pair<State, double>> advanced(population.size());
    if (prob.advance_batch) {
      // Batched advance: same per-thread seeds as the scalar path, one call
      // for the whole population, costs evaluated per resulting state — so
      // the round is bit-identical to the per-thread advance.
      std::vector<std::uint64_t> seeds(population.size());
      for (std::size_t i = 0; i < population.size(); ++i) {
        seeds[i] = exec::derive_run_seed(
            advance_base, static_cast<std::uint64_t>(round) * opt.population + i);
      }
      std::vector<State> next = prob.advance_batch(population, seeds);
      assert(next.size() == population.size());
      for (std::size_t i = 0; i < population.size(); ++i) {
        double cost = prob.cost(next[i]);
        advanced[i] = {std::move(next[i]), cost};
      }
    } else if (opt.executor) {
      std::vector<exec::RoundJob<std::pair<State, double>>> jobs(population.size());
      for (std::size_t i = 0; i < population.size(); ++i) {
        jobs[i].label = "gwtw_r" + std::to_string(round) + "#" + std::to_string(i);
        jobs[i].body = [&advance_one, i](exec::RunContext&) { return advance_one(i); };
      }
      auto outcomes = exec::dispatch_round(*opt.executor, std::move(jobs));
      for (std::size_t i = 0; i < population.size(); ++i) {
        if (outcomes[i].value) advanced[i] = std::move(*outcomes[i].value);
        else advanced[i] = dead_thread(i);
      }
    } else {
      for (std::size_t i = 0; i < population.size(); ++i) {
        try {
          advanced[i] = advance_one(i);
        } catch (const std::exception&) {
          advanced[i] = dead_thread(i);
        }
      }
    }
    for (std::size_t i = 0; i < population.size(); ++i) {
      population[i] = std::move(advanced[i].first);
      costs[i] = advanced[i].second;
      if (costs[i] < res.best_cost) {
        res.best_cost = costs[i];
        res.best = population[i];
      }
    }
    // Rank and clone winners over losers.
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return costs[a] < costs[b]; });
    const auto survivors = std::max<std::size_t>(
        static_cast<std::size_t>(opt.survivor_fraction * static_cast<double>(population.size())),
        1);
    for (std::size_t i = survivors; i < order.size(); ++i) {
      const std::size_t winner = order[rng.below(survivors)];
      population[order[i]] = population[winner];
      costs[order[i]] = costs[winner];
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
