#include "tune/flow_tuner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "exec/cancel.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "store/fingerprint.hpp"
#include "util/json.hpp"

namespace maestro::tune {

namespace {

constexpr const char* kScoreMetric = "tune_score";

/// Everything needed to continue (or short-circuit) a tuning campaign.
struct TuneCampaignState {
  std::uint64_t base_seed = 0;
  std::size_t next_round = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_choice;
  std::vector<TuneSample> samples;
  std::vector<double> best_per_round;
  std::vector<std::vector<ml::ArmStats>> policy;  ///< per dimension
  ml::Dataset dataset;                            ///< surrogate training set
  std::vector<bool> active;
  std::vector<std::size_t> frozen;
  std::vector<double> importance;
  std::vector<std::size_t> focus;
  std::vector<std::uint64_t> distinct;
  std::size_t mined_rows = 0;
  util::Rng rng;
};

util::Json choice_json(const std::vector<std::size_t>& choice) {
  util::JsonArray a;
  for (const std::size_t c : choice) a.push_back(util::Json{c});
  return util::Json{std::move(a)};
}

/// Index list; clears `ok` when an entry is not an exact unsigned integer.
std::vector<std::size_t> choice_from(const util::Json& j, bool& ok) {
  std::vector<std::size_t> out;
  for (const auto& c : j.as_array()) {
    const auto u = c.as_uint();
    ok = ok && u.has_value();
    out.push_back(static_cast<std::size_t>(u.value_or(0)));
  }
  return out;
}

/// True when `choice` picks an in-range value of every dimension.
bool valid_choice(const std::vector<std::size_t>& choice, const std::vector<flow::KnobDim>& dims) {
  if (choice.size() != dims.size()) return false;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (choice[d] >= dims[d].values.size()) return false;
  }
  return true;
}

/// Campaign identity, validated on resume: a checkpoint written under a
/// different knob space or schedule must not be continued.
util::JsonObject tune_identity(const TuneOptions& opt, const std::vector<flow::KnobDim>& dims) {
  util::JsonObject o;
  o["design"] = util::Json{opt.design};
  util::JsonArray dim_ids;
  for (const auto& d : dims) {
    util::JsonObject di;
    di["name"] = util::Json{d.qualified()};
    di["arms"] = util::Json{d.values.size()};
    dim_ids.push_back(util::Json{std::move(di)});
  }
  o["dims"] = util::Json{std::move(dim_ids)};
  // `rounds` is deliberately NOT identity: resuming with a larger budget
  // continues the campaign (that is the point of a checkpoint). `batch` is —
  // seed indices and the refit cadence depend on the batch width.
  o["batch"] = util::Json{opt.batch};
  o["policy"] = util::Json{ml::to_string(opt.policy)};
  o["epsilon"] = util::Json{opt.epsilon};
  o["tau"] = util::Json{opt.tau};
  o["warmup"] = util::Json{opt.warmup_rounds};
  o["focus_dims"] = util::Json{opt.focus_dims};
  o["refit_every"] = util::Json{opt.refit_every};
  o["min_rows"] = util::Json{opt.min_surrogate_rows};
  util::JsonObject fo;
  fo["trees"] = util::Json{opt.forest.trees};
  fo["depth"] = util::Json{opt.forest.max_depth};
  fo["min_leaf"] = util::Json{opt.forest.min_leaf};
  fo["fps"] = util::Json{opt.forest.features_per_split};
  fo["thr"] = util::Json{opt.forest.max_thresholds};
  o["forest"] = util::Json{std::move(fo)};
  return o;
}

util::Json tune_state_json(const TuneCampaignState& st, const TuneOptions& opt,
                           const std::vector<flow::KnobDim>& dims) {
  util::JsonObject o = tune_identity(opt, dims);

  o["base_seed"] = store::u64_to_json(st.base_seed);
  o["next_round"] = util::Json{st.next_round};
  o["best_score"] = util::Json{st.best_score};
  o["best_choice"] = choice_json(st.best_choice);
  o["rng"] = store::rng_state_to_json(st.rng);
  o["mined_rows"] = util::Json{st.mined_rows};
  util::JsonArray samples;
  for (const auto& s : st.samples) {
    util::JsonObject so;
    so["r"] = util::Json{s.round};
    so["c"] = choice_json(s.choice);
    so["s"] = util::Json{s.score};
    so["ok"] = util::Json{s.success};
    // Written only for censored samples, so a fault-free campaign's
    // checkpoint bytes are unchanged; absent reads as "observed".
    if (s.censored) so["cen"] = util::Json{true};
    samples.push_back(util::Json{std::move(so)});
  }
  o["samples"] = util::Json{std::move(samples)};
  util::JsonArray bests;
  for (const double b : st.best_per_round) bests.push_back(util::Json{b});
  o["best_per_round"] = util::Json{std::move(bests)};
  util::JsonArray policy;
  for (const auto& dim_stats : st.policy) {
    util::JsonArray arms;
    for (const auto& a : dim_stats) {
      util::JsonObject ao;
      ao["pulls"] = util::Json{a.pulls};
      ao["rsum"] = util::Json{a.reward_sum};
      ao["rsq"] = util::Json{a.reward_sq_sum};
      arms.push_back(util::Json{std::move(ao)});
    }
    policy.push_back(util::Json{std::move(arms)});
  }
  o["policy_stats"] = util::Json{std::move(policy)};
  util::JsonArray rows;
  for (std::size_t i = 0; i < st.dataset.size(); ++i) {
    util::JsonObject ro;
    util::JsonArray x;
    for (const double v : st.dataset.x[i]) x.push_back(util::Json{v});
    ro["x"] = util::Json{std::move(x)};
    ro["y"] = util::Json{st.dataset.y[i]};
    rows.push_back(util::Json{std::move(ro)});
  }
  o["dataset"] = util::Json{std::move(rows)};
  util::JsonArray active;
  for (const bool a : st.active) active.push_back(util::Json{a});
  o["active"] = util::Json{std::move(active)};
  o["frozen"] = choice_json(st.frozen);
  util::JsonArray imp;
  for (const double v : st.importance) imp.push_back(util::Json{v});
  o["importance"] = util::Json{std::move(imp)};
  o["focus"] = choice_json(st.focus);
  util::JsonArray distinct;
  for (const std::uint64_t f : st.distinct) distinct.push_back(store::u64_to_json(f));
  o["distinct"] = util::Json{std::move(distinct)};
  return util::Json{std::move(o)};
}

std::optional<TuneCampaignState> tune_state_from_json(const util::Json& j,
                                                      const TuneOptions& opt,
                                                      const std::vector<flow::KnobDim>& dims) {
  if (!j.is_object()) return std::nullopt;
  // Counts and indices are checked integers: a NaN, negative or huge value
  // rejects the checkpoint instead of reaching an undefined double -> size_t
  // cast, and an index outside its dimension never reaches a posterior.
  bool ok = true;
  const auto count = [&ok](const util::Json& v) {
    const auto u = v.as_uint();
    ok = ok && u.has_value();
    return static_cast<std::size_t>(u.value_or(0));
  };
  for (const auto& [key, value] : tune_identity(opt, dims)) {
    if (j.at(key).dump() != value.dump()) return std::nullopt;
  }

  TuneCampaignState st;
  const auto base_seed = store::u64_from_json(j.at("base_seed"));
  if (!base_seed) return std::nullopt;
  st.base_seed = *base_seed;
  st.next_round = count(j.at("next_round"));
  st.best_score = j.at("best_score").as_number();
  st.best_choice = choice_from(j.at("best_choice"), ok);
  if (!store::rng_state_from_json(st.rng, j.at("rng"))) return std::nullopt;
  st.mined_rows = count(j.at("mined_rows"));
  for (const auto& s : j.at("samples").as_array()) {
    TuneSample sample;
    sample.round = count(s.at("r"));
    sample.choice = choice_from(s.at("c"), ok);
    sample.score = s.at("s").as_number();
    sample.success = s.at("ok").as_bool();
    sample.censored = s.at("cen").as_bool(false);
    st.samples.push_back(std::move(sample));
  }
  for (const auto& b : j.at("best_per_round").as_array()) {
    st.best_per_round.push_back(b.as_number());
  }
  for (const auto& dim_stats : j.at("policy_stats").as_array()) {
    std::vector<ml::ArmStats> arms;
    for (const auto& a : dim_stats.as_array()) {
      ml::ArmStats stats;
      stats.pulls = count(a.at("pulls"));
      stats.reward_sum = a.at("rsum").as_number();
      stats.reward_sq_sum = a.at("rsq").as_number();
      arms.push_back(stats);
    }
    st.policy.push_back(std::move(arms));
  }
  if (st.policy.size() != dims.size()) return std::nullopt;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (st.policy[d].size() != dims[d].values.size()) return std::nullopt;
  }
  for (const auto& row : j.at("dataset").as_array()) {
    std::vector<double> x;
    for (const auto& v : row.at("x").as_array()) x.push_back(v.as_number());
    if (x.size() != dims.size()) return std::nullopt;  // the surrogate's feature width
    st.dataset.add(std::move(x), row.at("y").as_number());
  }
  for (const auto& a : j.at("active").as_array()) st.active.push_back(a.as_bool());
  st.frozen = choice_from(j.at("frozen"), ok);
  for (const auto& v : j.at("importance").as_array()) st.importance.push_back(v.as_number());
  st.focus = choice_from(j.at("focus"), ok);
  for (const auto& f : j.at("distinct").as_array()) {
    const auto fingerprint = store::u64_from_json(f);
    ok = ok && fingerprint.has_value();
    st.distinct.push_back(fingerprint.value_or(0));
  }
  if (!ok) return std::nullopt;
  if (st.active.size() != dims.size() || !valid_choice(st.frozen, dims)) return std::nullopt;
  if (!st.best_choice.empty() && !valid_choice(st.best_choice, dims)) return std::nullopt;
  return st;
}

/// The run key of one tuned trajectory: design, "flow", the flattened knob
/// assignment, the trajectory-derived seed. Matches store::run_key_for's
/// vocabulary so cross-tool history (flow runs, other campaigns) shares
/// fingerprints with the tuner when design + knobs + seed agree.
store::RunKey trajectory_key(const std::string& design, const flow::FlowTrajectory& t,
                             std::uint64_t seed) {
  store::RunKey key;
  key.design = design;
  key.step = "flow";
  for (auto& [name, value] : flow::flatten(t)) key.knobs[name] = value;
  key.seed = seed;
  return key;
}

metrics::Record tune_record(const std::string& design, const flow::FlowTrajectory& t,
                            std::uint64_t seed, const flow::FlowResult& fr, double score) {
  metrics::Record rec;
  rec.design = design;
  rec.step = "tune";
  rec.seed = seed;
  for (auto& [name, value] : flow::flatten(t)) rec.knobs[name] = value;
  rec.values[kScoreMetric] = score;
  rec.values[metrics::names::kSuccess] = fr.success() ? 1.0 : 0.0;
  rec.values[metrics::names::kAreaUm2] = fr.area_um2;
  rec.values[metrics::names::kWnsPs] = fr.wns_ps;
  rec.values[metrics::names::kPowerMw] = fr.power_mw;
  return rec;
}

}  // namespace

TuneOracle make_flow_tune_oracle(const flow::FlowManager& manager,
                                 const flow::DesignSpec& design, double target_ghz,
                                 const flow::FlowConstraints& constraints) {
  return [&manager, design, target_ghz, constraints](const flow::FlowTrajectory& knobs,
                                                     std::uint64_t seed) {
    flow::FlowRecipe recipe;
    recipe.design = design;
    recipe.target_ghz = target_ghz;
    recipe.knobs = knobs;
    recipe.seed = seed;
    return manager.run(recipe, constraints);
  };
}

double default_objective(const flow::FlowResult& r) {
  if (!r.success()) return 0.0;
  return 1.0 + 1.0 / (1.0 + r.area_um2 / 1e4);
}

std::uint64_t trajectory_seed(std::uint64_t base_seed, const std::vector<std::size_t>& choice) {
  // Chained SplitMix: purely a function of (base_seed, the choice indices),
  // never of round or batch position — the property that makes a repeat
  // trajectory a repeat fingerprint.
  std::uint64_t seed = exec::derive_run_seed(base_seed, choice.size());
  for (const std::size_t c : choice) seed = exec::derive_run_seed(seed, c);
  return seed;
}

FlowTuner::FlowTuner(TuneOptions options) : options_(std::move(options)) {
  if (options_.spaces.empty()) options_.spaces = flow::default_knob_spaces();
  dims_ = flow::enumerate_dimensions(options_.spaces);
  assert(!dims_.empty());
}

bool FlowTuner::resumes_from(const util::Json& state) const {
  return tune_state_from_json(state, options_, dims_).has_value();
}

TuneResult FlowTuner::run(const TuneOracle& oracle, util::Rng& rng) const {
  exec::RunExecutor pool;
  return run(oracle, rng, pool);
}

TuneResult FlowTuner::run(const TuneOracle& oracle, util::Rng& rng,
                          exec::RunExecutor& pool) const {
  const std::size_t n_dims = dims_.size();
  const auto objective =
      options_.objective ? options_.objective : std::function<double(const flow::FlowResult&)>(
                                                    default_objective);

  TuneResult res;
  std::vector<std::unique_ptr<ml::BanditPolicy>> policies;
  policies.reserve(n_dims);
  for (const auto& d : dims_) {
    policies.push_back(
        ml::make_policy(options_.policy, d.values.size(), options_.epsilon, options_.tau));
  }

  obs::Span run_span("tune_run", "tune");
  run_span.arg("policy", ml::to_string(options_.policy))
      .arg("dims", static_cast<double>(n_dims))
      .arg("rounds", static_cast<double>(options_.rounds));

  ml::Dataset dataset;
  std::vector<bool> active(n_dims, true);
  std::vector<std::size_t> frozen(n_dims, 0);
  std::unordered_set<std::uint64_t> distinct;
  std::uint64_t base_seed = 0;
  std::size_t start_round = 0;
  const std::string state_key = "tune:" + options_.campaign_id;

  // Resume: restore posteriors, the surrogate training set, the focus state
  // and the RNG from the last persisted round — bitwise identical to the
  // uninterrupted campaign. A checkpoint written under different options
  // (other knob spaces, schedule or policy) is ignored.
  bool resumed = false;
  if (options_.checkpoint) {
    if (const auto saved = options_.checkpoint->get_state(state_key)) {
      if (auto st = tune_state_from_json(*saved, options_, dims_)) {
        base_seed = st->base_seed;
        start_round = st->next_round;
        res.best_score = st->best_score;
        res.best_choice = std::move(st->best_choice);
        res.samples = std::move(st->samples);
        res.best_per_round = std::move(st->best_per_round);
        res.total_runs = res.samples.size();
        for (const auto& s : res.samples) res.censored_runs += s.censored ? 1 : 0;
        res.mined_rows = st->mined_rows;
        res.importance = std::move(st->importance);
        res.focus = std::move(st->focus);
        dataset = std::move(st->dataset);
        active = std::move(st->active);
        frozen = std::move(st->frozen);
        distinct.insert(st->distinct.begin(), st->distinct.end());
        for (std::size_t d = 0; d < n_dims; ++d) policies[d]->restore_stats(st->policy[d]);
        rng = st->rng;
        resumed = true;
        res.resumed = true;
        obs::Registry::global().counter("store.campaign_resumed").add();
      }
    }
  }
  if (!resumed) {
    base_seed = rng.next();
    // Warm start: mine the METRICS server's existing history through a
    // subscriber. Past step="tune" records of this design seed both the
    // per-dimension posteriors and the surrogate training set, so a new
    // campaign starts where earlier ones (possibly in earlier processes,
    // rehydrated from the store) left off. Resumed campaigns skip this —
    // their mined rows are already in the checkpointed dataset.
    if (options_.metrics) {
      const std::uint64_t sub = options_.metrics->subscribe(/*from_start=*/true);
      for (;;) {
        metrics::Poll p = options_.metrics->poll_since(sub);
        if (p.records.empty()) break;
        for (const auto& rec : p.records) {
          if (rec.step != "tune" || rec.design != options_.design) continue;
          const auto score = rec.value(kScoreMetric);
          if (!score || !std::isfinite(*score)) continue;
          flow::FlowTrajectory t;
          for (const auto& [name, value] : rec.knobs) {
            const auto dot = name.find('.');
            if (dot == std::string::npos) continue;
            const auto step = flow::step_from_string(name.substr(0, dot));
            if (!step) continue;
            t.set(*step, name.substr(dot + 1), value);
          }
          const auto choice = flow::indices_from_trajectory(dims_, t);
          if (!choice) continue;  // foreign knob space: unusable as a row
          std::vector<double> row(n_dims);
          for (std::size_t d = 0; d < n_dims; ++d) {
            row[d] = static_cast<double>((*choice)[d]);
            policies[d]->update((*choice)[d], *score);
          }
          dataset.add(std::move(row), *score);
          ++res.mined_rows;
        }
      }
      options_.metrics->unsubscribe(sub);
      if (res.mined_rows > 0) {
        obs::Registry::global().counter("tune.mined_rows").add(res.mined_rows);
      }
    }
  }
  run_span.arg("start_round", static_cast<double>(start_round));

  const auto save_checkpoint = [&](std::size_t next_round) {
    if (!options_.checkpoint) return;
    TuneCampaignState st;
    st.base_seed = base_seed;
    st.next_round = next_round;
    st.best_score = res.best_score;
    st.best_choice = res.best_choice;
    st.samples = res.samples;
    st.best_per_round = res.best_per_round;
    for (const auto& p : policies) st.policy.push_back(p->export_stats());
    st.dataset = dataset;
    st.active = active;
    st.frozen = frozen;
    st.importance = res.importance;
    st.focus = res.focus;
    st.distinct.assign(distinct.begin(), distinct.end());
    std::sort(st.distinct.begin(), st.distinct.end());
    st.mined_rows = res.mined_rows;
    st.rng = rng;
    options_.checkpoint->put_state(state_key, tune_state_json(st, options_, dims_));
  };

  for (std::size_t r = start_round; r < options_.rounds; ++r) {
    obs::Span round_span("tune_round", "tune");
    round_span.arg("round", static_cast<double>(r))
        .arg("free_dims",
             static_cast<double>(std::count(active.begin(), active.end(), true)));

    // Serial: pick every free dimension in dimension order, consuming the
    // shared Rng; frozen dimensions replay their best empirical arm without
    // touching the Rng (the active mask is itself deterministic, so the
    // stream stays aligned). Warm-up rounds sample uniformly instead of from
    // the posterior: FIST's importance fit needs variance in *every*
    // dimension, and a bandit concentrates fastest on exactly the dimensions
    // that matter most — leaving them near-constant in the surrogate's
    // training rows and ranked as unimportant.
    const bool explore = r < options_.warmup_rounds;
    std::vector<std::vector<std::size_t>> choices(options_.batch,
                                                  std::vector<std::size_t>(n_dims));
    for (std::size_t b = 0; b < options_.batch; ++b) {
      for (std::size_t d = 0; d < n_dims; ++d) {
        if (!active[d]) {
          choices[b][d] = frozen[d];
        } else if (explore) {
          choices[b][d] = static_cast<std::size_t>(rng.below(dims_[d].values.size()));
        } else {
          choices[b][d] = policies[d]->select(rng);
        }
      }
    }
    obs::Registry::global().counter("tune.trajectories").add(options_.batch);

    // Parallel: dispatch the batch as one round. Seeds (and so run-key
    // fingerprints) derive purely from (base_seed, choice indices) — a
    // repeat trajectory is a repeat fingerprint, served by the cache or,
    // within the batch, by its first copy's run.
    std::vector<exec::RoundJob<flow::FlowResult, store::KeyedRunCache>> jobs(options_.batch);
    std::vector<flow::FlowTrajectory> trajectories(options_.batch);
    std::vector<std::uint64_t> seeds(options_.batch);
    for (std::size_t b = 0; b < options_.batch; ++b) {
      auto& job = jobs[b];
      job.label = "tune#" + std::to_string(r * options_.batch + b);
      job.seed = seeds[b] = trajectory_seed(base_seed, choices[b]);
      trajectories[b] = flow::trajectory_from_indices(dims_, choices[b]);
      job.body = [&oracle, &traj = trajectories[b]](exec::RunContext& ctx) {
        return oracle(traj, ctx.seed);
      };
      store::RunKey key = trajectory_key(options_.design, trajectories[b], job.seed);
      distinct.insert(key.fingerprint());
      if (options_.cache) job.memo.emplace(*options_.cache, std::move(key));
    }
    auto outcomes = exec::dispatch_round(pool, std::move(jobs));

    // Barrier, then serial: observe in submission order, share each run's
    // objective into every dimension's posterior (FlowTune's end-to-end
    // credit assignment) and grow the surrogate training set. A run that
    // died is censored: it carries no objective, so it updates no
    // posterior, adds no surrogate row and transmits no record.
    for (std::size_t b = 0; b < options_.batch; ++b) {
      TuneSample s;
      s.round = r;
      s.choice = choices[b];
      ++res.total_runs;
      if (!outcomes[b].value) {
        obs::Registry::global().counter("tune.censored_runs").add();
        s.censored = true;
        res.samples.push_back(std::move(s));
        ++res.censored_runs;
        continue;
      }
      const flow::FlowResult& fr = *outcomes[b].value;
      const double score = objective(fr);
      std::vector<double> row(n_dims);
      for (std::size_t d = 0; d < n_dims; ++d) {
        policies[d]->update(choices[b][d], score);
        row[d] = static_cast<double>(choices[b][d]);
      }
      dataset.add(std::move(row), score);
      if (options_.metrics) {
        options_.metrics->submit(
            tune_record(options_.design, trajectories[b], seeds[b], fr, score));
      }
      s.score = score;
      s.success = fr.success();
      res.samples.push_back(std::move(s));
      if (score > res.best_score) {
        res.best_score = score;
        res.best_choice = choices[b];
      }
    }
    res.best_per_round.push_back(res.best_score);
    round_span.arg("best_score", res.best_score);

    // FIST refit: fit the forest surrogate on the mined history, rank the
    // dimensions by importance, keep the top `focus_dims` free and freeze
    // the rest at their best empirical arm. The forest seed derives from
    // (base_seed, round), so refits are deterministic and resumable.
    const std::size_t done = r + 1;
    if (done >= options_.warmup_rounds && options_.focus_dims < n_dims &&
        dataset.size() >= options_.min_surrogate_rows &&
        (done - options_.warmup_rounds) % options_.refit_every == 0) {
      ml::RandomForest::Options fopt = options_.forest;
      fopt.seed = exec::derive_run_seed(base_seed ^ 0x9e3779b97f4a7c15ULL, r);
      ml::RandomForest forest{fopt};
      forest.fit(dataset);
      const auto& imp = forest.feature_importances();
      double total = 0.0;
      for (const double v : imp) total += v;
      if (total > 0.0) {
        std::vector<std::size_t> order(n_dims);
        for (std::size_t d = 0; d < n_dims; ++d) order[d] = d;
        std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b2) {
          return imp[a] > imp[b2];  // stable: ties keep lower index first
        });
        res.importance = imp;
        res.focus.assign(order.begin(),
                         order.begin() + static_cast<std::ptrdiff_t>(options_.focus_dims));
        std::sort(res.focus.begin(), res.focus.end());
        std::fill(active.begin(), active.end(), false);
        for (const std::size_t d : res.focus) active[d] = true;
        for (std::size_t d = 0; d < n_dims; ++d) {
          if (!active[d]) frozen[d] = policies[d]->best_empirical_arm();
        }
        obs::Registry::global().counter("tune.refits").add();
        round_span.arg("frozen_dims",
                       static_cast<double>(n_dims - options_.focus_dims));
      }
    }
    save_checkpoint(r + 1);
  }

  res.distinct_runs = distinct.size();
  if (!res.best_choice.empty()) {
    res.best_trajectory = flow::trajectory_from_indices(dims_, res.best_choice);
  }
  run_span.arg("best_score", res.best_score)
      .arg("total_runs", static_cast<double>(res.total_runs))
      .arg("distinct_runs", static_cast<double>(res.distinct_runs))
      .arg("censored_runs", static_cast<double>(res.censored_runs));
  return res;
}

}  // namespace maestro::tune
