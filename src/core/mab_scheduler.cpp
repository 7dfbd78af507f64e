#include "core/mab_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace maestro::core {

namespace {

/// Per-arm aggregates the regret computation needs; checkpointed alongside
/// the policy posteriors so a resumed campaign's regret matches the
/// uninterrupted one.
struct ArmAgg {
  std::size_t pulls = 0;
  std::size_t successes = 0;
  double reward_sum = 0.0;
};

/// Everything needed to continue (or short-circuit) a MAB campaign.
struct MabCampaignState {
  std::uint64_t base_seed = 0;
  std::uint64_t run_index = 0;
  std::size_t next_iteration = 0;
  double best = 0.0;
  std::vector<MabSample> samples;
  std::vector<double> best_per_iteration;
  std::vector<ArmAgg> agg;
  std::vector<ml::ArmStats> policy;
  util::Rng rng;
};

/// Campaign identity, validated on resume: a checkpoint from different
/// options must not be continued. The batch width is part of it because
/// seed derivation depends on it.
util::JsonObject mab_identity(const MabOptions& opt) {
  util::JsonObject o;
  o["algorithm"] = util::Json{ml::to_string(opt.algorithm)};
  util::JsonArray arms;
  for (const double a : opt.frequency_arms_ghz) arms.push_back(util::Json{a});
  o["arms"] = util::Json{std::move(arms)};
  o["concurrency"] = util::Json{opt.concurrency};
  return o;
}

util::Json mab_state_json(const MabCampaignState& st, const MabOptions& opt) {
  util::JsonObject o = mab_identity(opt);

  o["base_seed"] = store::u64_to_json(st.base_seed);
  o["run_index"] = store::u64_to_json(st.run_index);
  o["next_iteration"] = util::Json{st.next_iteration};
  o["best"] = util::Json{st.best};
  o["rng"] = store::rng_state_to_json(st.rng);
  util::JsonArray samples;
  for (const auto& s : st.samples) {
    util::JsonObject so;
    so["it"] = util::Json{s.iteration};
    so["ghz"] = util::Json{s.frequency_ghz};
    so["ok"] = util::Json{s.success};
    so["r"] = util::Json{s.reward};
    so["cen"] = util::Json{s.censored};
    samples.push_back(util::Json{std::move(so)});
  }
  o["samples"] = util::Json{std::move(samples)};
  util::JsonArray bests;
  for (const double b : st.best_per_iteration) bests.push_back(util::Json{b});
  o["best_per_iteration"] = util::Json{std::move(bests)};
  util::JsonArray agg;
  for (const auto& a : st.agg) {
    util::JsonObject ao;
    ao["pulls"] = util::Json{a.pulls};
    ao["succ"] = util::Json{a.successes};
    ao["rsum"] = util::Json{a.reward_sum};
    agg.push_back(util::Json{std::move(ao)});
  }
  o["agg"] = util::Json{std::move(agg)};
  util::JsonArray policy;
  for (const auto& p : st.policy) {
    util::JsonObject po;
    po["pulls"] = util::Json{p.pulls};
    po["rsum"] = util::Json{p.reward_sum};
    po["rsq"] = util::Json{p.reward_sq_sum};
    policy.push_back(util::Json{std::move(po)});
  }
  o["policy"] = util::Json{std::move(policy)};
  return util::Json{std::move(o)};
}

std::optional<MabCampaignState> mab_state_from_json(const util::Json& j,
                                                    const MabOptions& opt) {
  if (!j.is_object()) return std::nullopt;
  // Counts are checked integers: a NaN, negative or huge value rejects the
  // checkpoint instead of reaching an undefined double -> size_t cast.
  bool ok = true;
  const auto count = [&ok](const util::Json& v) {
    const auto u = v.as_uint();
    ok = ok && u.has_value();
    return static_cast<std::size_t>(u.value_or(0));
  };
  for (const auto& [key, value] : mab_identity(opt)) {
    if (j.at(key).dump() != value.dump()) return std::nullopt;
  }
  MabCampaignState st;
  const auto base_seed = store::u64_from_json(j.at("base_seed"));
  const auto run_index = store::u64_from_json(j.at("run_index"));
  if (!base_seed || !run_index) return std::nullopt;
  st.base_seed = *base_seed;
  st.run_index = *run_index;
  st.next_iteration = count(j.at("next_iteration"));
  st.best = j.at("best").as_number();
  if (!store::rng_state_from_json(st.rng, j.at("rng"))) return std::nullopt;
  for (const auto& s : j.at("samples").as_array()) {
    MabSample sample;
    sample.iteration = count(s.at("it"));
    sample.frequency_ghz = s.at("ghz").as_number();
    sample.success = s.at("ok").as_bool();
    sample.reward = s.at("r").as_number();
    // Absent in pre-resilience checkpoints: default to "observed".
    sample.censored = s.at("cen").as_bool(false);
    st.samples.push_back(sample);
  }
  for (const auto& b : j.at("best_per_iteration").as_array()) {
    st.best_per_iteration.push_back(b.as_number());
  }
  for (const auto& a : j.at("agg").as_array()) {
    ArmAgg agg;
    agg.pulls = count(a.at("pulls"));
    agg.successes = count(a.at("succ"));
    agg.reward_sum = a.at("rsum").as_number();
    st.agg.push_back(agg);
  }
  for (const auto& p : j.at("policy").as_array()) {
    ml::ArmStats stats;
    stats.pulls = count(p.at("pulls"));
    stats.reward_sum = p.at("rsum").as_number();
    stats.reward_sq_sum = p.at("rsq").as_number();
    st.policy.push_back(stats);
  }
  if (!ok) return std::nullopt;
  if (st.agg.size() != opt.frequency_arms_ghz.size()) return std::nullopt;
  if (st.policy.size() != opt.frequency_arms_ghz.size()) return std::nullopt;
  return st;
}

}  // namespace

FlowOracle make_flow_oracle(const flow::FlowManager& manager, const flow::DesignSpec& design,
                            const flow::FlowTrajectory& knobs,
                            const flow::FlowConstraints& constraints) {
  return [&manager, design, knobs, constraints](double target_ghz, std::uint64_t seed) {
    flow::FlowRecipe recipe;
    recipe.design = design;
    recipe.target_ghz = target_ghz;
    recipe.knobs = knobs;
    recipe.seed = seed;
    return manager.run(recipe, constraints);
  };
}

ResilientOracle make_resilient_flow_oracle(const flow::FlowManager& manager,
                                           const flow::DesignSpec& design,
                                           const flow::FlowTrajectory& knobs,
                                           const flow::FlowConstraints& constraints) {
  return [&manager, design, knobs, constraints](double target_ghz, std::uint64_t seed,
                                                exec::RunContext& ctx) {
    flow::FlowRecipe recipe;
    recipe.design = design;
    recipe.target_ghz = target_ghz;
    recipe.knobs = knobs;
    // The attempt seed, not the submission seed: a retried pull re-rolls its
    // tool noise (and its fault-site deviates) instead of replaying the
    // crash deterministically.
    recipe.seed = seed;
    // The executor's token, so deadline watchdogs cancel the flow mid-step
    // (injected hangs poll this token).
    recipe.cancel = ctx.cancel;
    return manager.run(recipe, constraints);
  };
}

std::vector<double> frequency_arms(double lo_ghz, double hi_ghz, std::size_t count) {
  assert(count >= 2 && hi_ghz > lo_ghz);
  std::vector<double> arms(count);
  for (std::size_t i = 0; i < count; ++i) {
    arms[i] = lo_ghz + (hi_ghz - lo_ghz) * static_cast<double>(i) /
                           static_cast<double>(count - 1);
  }
  return arms;
}

MabScheduler::MabScheduler(MabOptions options) : options_(std::move(options)) {
  assert(!options_.frequency_arms_ghz.empty());
}

bool MabScheduler::resumes_from(const util::Json& state) const {
  return mab_state_from_json(state, options_).has_value();
}

MabRunResult MabScheduler::run(const FlowOracle& oracle, util::Rng& rng) const {
  exec::RunExecutor pool;
  return run(oracle, rng, pool);
}

MabRunResult MabScheduler::run(const FlowOracle& oracle, util::Rng& rng,
                               exec::RunExecutor& pool) const {
  // A plain pull's seed is its submission seed (ctx.seed), so the oracle
  // sees exactly derive_run_seed(base_seed, run_index).
  const ResilientOracle pull = [&oracle](double freq, std::uint64_t seed, exec::RunContext&) {
    return oracle(freq, seed);
  };
  return iterate(pull, rng, pool, nullptr);
}

MabRunResult MabScheduler::run_resilient(const ResilientOracle& oracle, util::Rng& rng) const {
  exec::RunExecutor pool;
  return run_resilient(oracle, rng, pool);
}

MabRunResult MabScheduler::run_resilient(const ResilientOracle& oracle, util::Rng& rng,
                                         exec::RunExecutor& pool) const {
  resil::CircuitBreaker breaker(options_.frequency_arms_ghz.size(), options_.breaker);
  return iterate(oracle, rng, pool, &breaker);
}

MabRunResult MabScheduler::iterate(const ResilientOracle& oracle, util::Rng& rng,
                                   exec::RunExecutor& pool,
                                   resil::CircuitBreaker* breaker) const {
  MabRunResult res;
  const auto& arms = options_.frequency_arms_ghz;
  auto policy = ml::make_policy(options_.algorithm, arms.size(), options_.epsilon, options_.tau);
  // The failure-aware campaign neither memoizes nor checkpoints.
  store::FlowCache* const cache = breaker ? nullptr : options_.cache;
  store::RunStore* const checkpoint = breaker ? nullptr : options_.checkpoint;

  obs::Span run_span(breaker ? "mab_run_resilient" : "mab_run", "sched");
  run_span.arg("algorithm", ml::to_string(options_.algorithm))
      .arg("arms", static_cast<double>(arms.size()))
      .arg("iterations", static_cast<double>(options_.iterations));

  std::vector<ArmAgg> agg(arms.size());

  double best = 0.0;
  std::uint64_t base_seed = 0;
  std::uint64_t run_index = 0;
  std::size_t start_iteration = 0;
  const std::string state_key = "mab:" + options_.campaign_id;

  // Resume: restore posteriors, aggregates, the sampled trajectory and the
  // RNG from the last persisted iteration. The restored stream is bitwise
  // identical to the uninterrupted campaign (tests/test_store.cpp asserts
  // equality sample-by-sample); a checkpoint written under different
  // options is ignored and the campaign starts fresh.
  bool resumed = false;
  if (checkpoint) {
    if (const auto saved = checkpoint->get_state(state_key)) {
      if (auto st = mab_state_from_json(*saved, options_)) {
        base_seed = st->base_seed;
        run_index = st->run_index;
        start_iteration = st->next_iteration;
        best = st->best;
        res.samples = std::move(st->samples);
        res.best_per_iteration = std::move(st->best_per_iteration);
        for (const auto& s : res.samples) {
          ++res.total_runs;
          if (s.success) ++res.successful_runs;
          if (s.censored) ++res.censored_runs;
        }
        agg = std::move(st->agg);
        policy->restore_stats(st->policy);
        rng = st->rng;
        resumed = true;
        obs::Registry::global().counter("store.campaign_resumed").add();
      }
    }
  }
  if (!resumed) base_seed = rng.next();
  run_span.arg("start_iteration", static_cast<double>(start_iteration));

  const auto save_checkpoint = [&](std::size_t next_iteration) {
    if (!checkpoint) return;
    MabCampaignState st;
    st.base_seed = base_seed;
    st.run_index = run_index;
    st.next_iteration = next_iteration;
    st.best = best;
    st.samples = res.samples;
    st.best_per_iteration = res.best_per_iteration;
    st.agg = agg;
    st.policy = policy->export_stats();
    st.rng = rng;
    checkpoint->put_state(state_key, mab_state_json(st, options_));
  };

  for (std::size_t it = start_iteration; it < options_.iterations; ++it) {
    // The iteration span covers arm selection, the parallel batch and the
    // barrier — where the batch stalls on licenses shows up as its tail.
    obs::Span it_span("mab_iter", "sched");
    it_span.arg("iteration", static_cast<double>(it));

    // Serial: arm selection consumes the shared Rng in a fixed order. Under
    // a breaker, open (cooling-down) arms are redirected to the nearest
    // closed one, so the batch width and seed indices stay
    // schedule-independent.
    std::vector<std::size_t> chosen;
    chosen.reserve(options_.concurrency);
    for (std::size_t b = 0; b < options_.concurrency; ++b) {
      std::size_t arm = policy->select(rng);
      if (breaker && breaker->open(arm)) {
        const std::size_t redirect = breaker->nearest_closed(arm);
        if (redirect != arm) {
          obs::Registry::global().counter("sched.arm_cooldown_redirects").add();
          arm = redirect;
        }
      }
      chosen.push_back(arm);
    }
    obs::Registry::global().counter("sched.mab_pulls").add(chosen.size());

    // Parallel: the iteration's B concurrent tool runs (Fig. 7's "5
    // concurrent samples"). Submission seeds depend only on (base_seed,
    // run_index), and a retried attempt's seed only on (submission seed,
    // attempt), so the trajectory is bitwise identical at any pool size,
    // even under injected faults. With a cache, the key is the campaign's
    // fixed context plus this run's (frequency, seed): a repeated campaign
    // against the same store answers from the cache.
    std::vector<exec::RoundJob<flow::FlowResult, store::KeyedRunCache>> jobs(chosen.size());
    for (std::size_t b = 0; b < chosen.size(); ++b) {
      const double freq = arms[chosen[b]];
      auto& job = jobs[b];
      job.label = "mab#" + std::to_string(run_index + b);
      job.seed = exec::derive_run_seed(base_seed, run_index + b);
      job.body = [&oracle, freq](exec::RunContext& ctx) { return oracle(freq, ctx.seed, ctx); };
      if (cache) {
        store::RunKey key = options_.cache_key;
        key.set("target_ghz", freq);
        key.seed = job.seed;
        job.memo.emplace(*cache, std::move(key));
      }
    }
    run_index += chosen.size();
    auto outcomes = exec::dispatch_round(
        pool, std::move(jobs),
        breaker ? std::optional<resil::ResilOptions>(options_.resilience) : std::nullopt);

    // Barrier, then serial: observe rewards and update the policy in
    // submission order — exactly the serial schedule.
    for (std::size_t b = 0; b < chosen.size(); ++b) {
      const std::size_t arm = chosen[b];
      const double freq = arms[arm];
      MabSample s;
      s.iteration = it;
      s.frequency_ghz = freq;
      ++res.total_runs;
      if (!outcomes[b].value) {
        // The run died (injected crash, timeout, exhausted retries) and
        // produced no observation. Censor the pull: no posterior or
        // aggregate update — updating with reward 0 would conflate
        // "crashed" with "infeasible" and poison the policy — just record
        // the gap in the trajectory.
        obs::Registry::global().counter("sched.censored_runs").add();
        if (breaker) breaker->record_failure(arm);
        s.censored = true;
        res.samples.push_back(s);
        ++res.censored_runs;
        continue;
      }
      if (breaker) breaker->record_success(arm);
      // Reward: achieved (target) frequency when the run succeeds under its
      // constraints, else zero. Bounded, scale-free in GHz.
      const flow::FlowResult& fr = *outcomes[b].value;
      const double reward = fr.success() ? freq : 0.0;
      policy->update(arm, reward);
      ArmAgg& a = agg[arm];
      ++a.pulls;
      a.reward_sum += reward;
      s.success = fr.success();
      s.reward = reward;
      res.samples.push_back(s);
      if (fr.success()) {
        ++a.successes;
        ++res.successful_runs;
        best = std::max(best, freq);
      }
    }
    if (breaker) breaker->advance_round();
    res.best_per_iteration.push_back(best);
    it_span.arg("best_feasible_ghz", best);
    save_checkpoint(it + 1);
  }
  res.best_feasible_ghz = best;
  run_span.arg("best_feasible_ghz", best)
      .arg("total_runs", static_cast<double>(res.total_runs))
      .arg("censored_runs", static_cast<double>(res.censored_runs));

  // Regret vs. the best *feasible* arm discovered over the whole corpus:
  // mu* is the highest empirical mean reward among arms with at least one
  // successful run (mean reward = frequency x empirical success rate). Each
  // observed pull is charged mu* minus the reward it actually obtained. A
  // campaign that never found a feasible arm has zero regret — nothing
  // better was discoverable.
  double best_feasible_mean = 0.0;
  for (const auto& a : agg) {
    if (a.successes > 0) {
      best_feasible_mean =
          std::max(best_feasible_mean, a.reward_sum / static_cast<double>(a.pulls));
    }
  }
  double regret = 0.0;
  for (const auto& s : res.samples) {
    if (!s.censored) regret += best_feasible_mean - s.reward;
  }
  res.total_regret = std::max(regret, 0.0);
  return res;
}

}  // namespace maestro::core
