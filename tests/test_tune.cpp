// Tests for maestro::tune — the multi-stage flow tuner: FlowTune-style
// per-dimension bandits chained into end-to-end trajectories, FIST-style
// feature-importance focusing, content-addressed memoization of repeat
// trajectories, checkpoint/resume bitwise discipline, and METRICS warm
// starts.
//
// This file builds as its own binary (maestro_tune_tests) labeled "tune" so
// it can run in isolation under -DMAESTRO_SANITIZE=thread:
//   ctest -L tune

#include <gtest/gtest.h>

#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "flow/knobs.hpp"
#include "metrics/server.hpp"
#include "obs/registry.hpp"
#include "resil/fault.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "tune/flow_tuner.hpp"

namespace fs = std::filesystem;
namespace mf = maestro::flow;
namespace mm = maestro::metrics;
namespace ms = maestro::store;
namespace mt = maestro::tune;
namespace mx = maestro::exec;
using maestro::obs::Registry;
using maestro::util::Rng;

namespace {

std::uint64_t counter(const std::string& name) {
  return Registry::global().counter(name).value();
}

std::string temp_store(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "maestro_tune_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A small 6-dimension knob space (3 values each) so campaigns stay fast.
std::vector<mf::KnobSpace> tune_spaces() {
  std::vector<mf::KnobSpace> spaces(2);
  spaces[0].step = mf::FlowStep::Synthesis;
  spaces[0].knobs = {{"a", {"a0", "a1", "a2"}},
                     {"b", {"b0", "b1", "b2"}},
                     {"c", {"c0", "c1", "c2"}}};
  spaces[1].step = mf::FlowStep::Place;
  spaces[1].knobs = {{"d", {"d0", "d1", "d2"}},
                     {"e", {"e0", "e1", "e2"}},
                     {"f", {"f0", "f1", "f2"}}};
  return spaces;
}

/// Synthetic oracle, pure in (trajectory, seed): only synthesis.a (strong,
/// monotone) and place.d (weak, interior optimum d1) matter; the other four
/// dimensions are noise-free no-ops. Smaller area = higher default objective.
mt::TuneOracle area_oracle() {
  return [](const mf::FlowTrajectory& t, std::uint64_t seed) {
    mf::FlowResult fr;
    fr.completed = fr.timing_met = fr.drc_clean = fr.constraints_met = true;
    const std::string& a = t.value(mf::FlowStep::Synthesis, "a", "a0");
    const std::string& d = t.value(mf::FlowStep::Place, "d", "d0");
    const double ia = static_cast<double>(a.back() - '0');
    double area = 1000.0 - 300.0 * ia;
    if (d == "d1") area -= 120.0;
    area += static_cast<double>(seed % 7) * 0.01;  // sub-point tool noise
    fr.area_um2 = area;
    fr.wns_ps = 5.0;
    fr.power_mw = 1.0;
    return fr;
  };
}

mt::TuneOptions base_options() {
  mt::TuneOptions opt;
  opt.spaces = tune_spaces();
  opt.design = "tune_test";
  opt.rounds = 10;
  opt.batch = 4;
  opt.warmup_rounds = 4;
  opt.focus_dims = 2;
  opt.refit_every = 2;
  opt.min_surrogate_rows = 8;
  opt.forest.trees = 32;
  opt.forest.max_depth = 5;
  return opt;
}

void expect_same_tune_result(const mt::TuneResult& x, const mt::TuneResult& y) {
  ASSERT_EQ(x.samples.size(), y.samples.size());
  for (std::size_t i = 0; i < x.samples.size(); ++i) {
    EXPECT_EQ(x.samples[i].round, y.samples[i].round);
    EXPECT_EQ(x.samples[i].choice, y.samples[i].choice);
    EXPECT_EQ(x.samples[i].score, y.samples[i].score);  // bitwise
    EXPECT_EQ(x.samples[i].success, y.samples[i].success);
    EXPECT_EQ(x.samples[i].censored, y.samples[i].censored);
  }
  EXPECT_EQ(x.best_per_round, y.best_per_round);
  EXPECT_EQ(x.best_score, y.best_score);
  EXPECT_EQ(x.best_choice, y.best_choice);
  EXPECT_EQ(x.total_runs, y.total_runs);
  EXPECT_EQ(x.censored_runs, y.censored_runs);
  EXPECT_EQ(x.distinct_runs, y.distinct_runs);
  EXPECT_EQ(x.importance, y.importance);
  EXPECT_EQ(x.focus, y.focus);
}

/// area_oracle() that crashes on every seed divisible by 5.
mt::TuneOracle crashing_oracle() {
  return [inner = area_oracle()](const mf::FlowTrajectory& t, std::uint64_t seed) {
    if (seed % 5 == 0) throw maestro::resil::InjectedCrash{"oracle"};
    return inner(t, seed);
  };
}

/// An rng_state_to_json-shaped array of the given words.
maestro::util::Json rng_words(std::initializer_list<const char*> words) {
  maestro::util::JsonArray a;
  for (const char* w : words) a.push_back(maestro::util::Json{w});
  return maestro::util::Json{std::move(a)};
}

/// A checkpoint with one field replaced.
maestro::util::Json with_field(const maestro::util::Json& state, const char* key,
                               maestro::util::Json value) {
  maestro::util::JsonObject o = state.as_object();
  o[key] = std::move(value);
  return maestro::util::Json{std::move(o)};
}

}  // namespace

TEST(Tuner, FindsStrongTrajectoryAndIsDeterministic) {
  const mt::FlowTuner tuner{base_options()};
  ASSERT_EQ(tuner.dimensions().size(), 6u);

  Rng rng1{42};
  const auto r1 = tuner.run(area_oracle(), rng1);
  EXPECT_EQ(r1.total_runs, 10u * 4u);
  EXPECT_EQ(r1.best_per_round.size(), 10u);
  // The best trajectory must have found the dominant arm a=a2; d=d1 is worth
  // another 120 um^2 and a well-mixed campaign finds it too.
  const auto& best = r1.best_trajectory;
  EXPECT_EQ(best.value(mf::FlowStep::Synthesis, "a", "?"), "a2");
  EXPECT_GT(r1.best_score, 1.0);  // a successful run

  Rng rng2{42};
  const auto r2 = tuner.run(area_oracle(), rng2);
  expect_same_tune_result(r1, r2);
}

TEST(Tuner, SerialAndParallelCampaignsBitwiseIdentical) {
  mt::TuneOptions opt = base_options();

  const std::string dir1 = temp_store("serial");
  ms::RunStore store1(dir1);
  ms::RunCache cache1(store1);
  opt.cache = &cache1;
  mx::RunExecutor serial{{.threads = 1}};
  Rng rng1{7};
  const auto r1 = mt::FlowTuner{opt}.run(area_oracle(), rng1, serial);

  const std::string dir2 = temp_store("parallel");
  ms::RunStore store2(dir2);
  ms::RunCache cache2(store2);
  opt.cache = &cache2;
  mx::RunExecutor parallel{{.threads = 8}};
  Rng rng2{7};
  const auto r2 = mt::FlowTuner{opt}.run(area_oracle(), rng2, parallel);

  expect_same_tune_result(r1, r2);
}

TEST(Tuner, FistFocusesOnImportantDimensions) {
  const mt::FlowTuner tuner{base_options()};
  Rng rng{11};
  const auto res = tuner.run(area_oracle(), rng);

  // After warmup the forest surrogate must have refit at least once and
  // focused the campaign on focus_dims dimensions.
  ASSERT_EQ(res.importance.size(), 6u);
  ASSERT_EQ(res.focus.size(), 2u);
  // synthesis.a is dimension 0 — the dominant effect — and must be focused
  // with the lion's share of the importance mass.
  EXPECT_EQ(res.focus[0], 0u);
  EXPECT_GT(res.importance[0], 0.5);
  // The four no-op dimensions together matter less than place.d.
  double noop = 0.0;
  for (const std::size_t d : {1u, 2u, 4u, 5u}) noop += res.importance[d];
  EXPECT_LT(noop, res.importance[0]);
}

TEST(Tuner, RepeatTrajectoriesAreServedFromTheMemoLayer) {
  const std::string dir = temp_store("memo");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  mt::TuneOptions opt = base_options();
  opt.cache = &cache;

  const std::uint64_t hits0 = counter("exec.cache_hits");
  const std::uint64_t joins0 = counter("exec.inflight_joins");
  Rng rng{5};
  const auto res = mt::FlowTuner{opt}.run(area_oracle(), rng);

  // Focusing collapses the reachable trajectory set (2 free dims x 3 values
  // = 9 configurations), so later rounds repeat earlier fingerprints.
  EXPECT_LT(res.distinct_runs, res.total_runs);
  EXPECT_GE(res.total_runs - res.distinct_runs, 8u);
  // Every repeat dispatch is answered by the memo layer — a cache hit when
  // the twin already completed, an in-flight join when it is still running —
  // and the store holds exactly one run per distinct fingerprint.
  const std::uint64_t served =
      (counter("exec.cache_hits") - hits0) + (counter("exec.inflight_joins") - joins0);
  EXPECT_EQ(served, res.total_runs - res.distinct_runs);
  EXPECT_EQ(store.run_count(), res.distinct_runs);
}

TEST(Tuner, CrashedRunsAreCensoredNotFatal) {
  // A run whose oracle throws is censored: the campaign completes, the dead
  // run is a sample with no observation, and nothing else learns from it.
  const auto campaign = [](std::size_t threads, mm::Server& server) {
    const std::string dir = temp_store("crash" + std::to_string(threads));
    ms::RunStore store(dir);
    ms::RunCache cache(store);
    mt::TuneOptions opt = base_options();
    opt.cache = &cache;
    opt.metrics = &server;
    mx::RunExecutor pool{{.threads = threads}};
    Rng rng{31};
    return mt::FlowTuner{opt}.run(crashing_oracle(), rng, pool);
  };
  mm::Server server1;
  mm::Server server4;
  const auto serial = campaign(1, server1);
  const auto parallel = campaign(4, server4);

  const mt::TuneOptions opt = base_options();
  EXPECT_EQ(serial.total_runs, opt.rounds * opt.batch);
  EXPECT_EQ(serial.samples.size(), serial.total_runs);
  EXPECT_GT(serial.censored_runs, 0u);
  EXPECT_LT(serial.censored_runs, serial.total_runs);
  std::size_t censored = 0;
  for (const auto& s : serial.samples) {
    if (!s.censored) continue;
    ++censored;
    EXPECT_FALSE(s.success);
    EXPECT_EQ(s.score, 0.0);
  }
  EXPECT_EQ(censored, serial.censored_runs);
  // Only observed runs are transmitted.
  EXPECT_EQ(server1.for_step("tune").size(), serial.total_runs - serial.censored_runs);
  EXPECT_GT(serial.best_score, 1.0);
  expect_same_tune_result(serial, parallel);
}

TEST(TuneResume, CensoredSamplesSurviveACheckpoint) {
  Rng rng_full{77};
  const auto full = mt::FlowTuner{base_options()}.run(crashing_oracle(), rng_full);
  ASSERT_GT(full.censored_runs, 0u);

  const std::string dir = temp_store("resume_censored");
  ms::RunStore store(dir);
  mt::TuneOptions half = base_options();
  half.rounds = 5;
  half.checkpoint = &store;
  half.campaign_id = "campaign-C";
  Rng rng_half{77};
  (void)mt::FlowTuner{half}.run(crashing_oracle(), rng_half);

  mt::TuneOptions resumed = base_options();
  resumed.checkpoint = &store;
  resumed.campaign_id = "campaign-C";
  Rng rng_resume{1};
  const auto cont = mt::FlowTuner{resumed}.run(crashing_oracle(), rng_resume);
  EXPECT_TRUE(cont.resumed);
  expect_same_tune_result(full, cont);
}

// ------------------------------------------------ checkpoint/resume discipline

TEST(TuneResume, InterruptedCampaignMatchesUninterruptedBitwise) {
  Rng rng_full{99};
  const auto full = mt::FlowTuner{base_options()}.run(area_oracle(), rng_full);

  const std::string dir = temp_store("resume");
  ms::RunStore store(dir);

  // First half: dies (returns) after 5 of 10 rounds, checkpointing as it
  // goes — including mid-campaign focus state and the surrogate dataset.
  mt::TuneOptions half = base_options();
  half.rounds = 5;
  half.checkpoint = &store;
  half.campaign_id = "campaign-T";
  Rng rng_half{99};
  const auto partial = mt::FlowTuner{half}.run(area_oracle(), rng_half);
  EXPECT_EQ(partial.samples.size(), 5u * half.batch);
  ASSERT_TRUE(store.get_state("tune:campaign-T").has_value());

  // Resume with the full budget; the initial rng is irrelevant — the
  // checkpoint restores the campaign's own random stream.
  mt::TuneOptions resumed = base_options();
  resumed.checkpoint = &store;
  resumed.campaign_id = "campaign-T";
  const std::uint64_t resumes0 = counter("store.campaign_resumed");
  Rng rng_resume{123456};
  const auto cont = mt::FlowTuner{resumed}.run(area_oracle(), rng_resume);
  EXPECT_EQ(counter("store.campaign_resumed"), resumes0 + 1);
  EXPECT_TRUE(cont.resumed);

  expect_same_tune_result(full, cont);
}

TEST(TuneResume, FinishedCampaignShortCircuits) {
  const std::string dir = temp_store("finished");
  ms::RunStore store(dir);
  ms::RunCache cache(store);

  mt::TuneOptions opt = base_options();
  opt.cache = &cache;
  opt.checkpoint = &store;
  opt.campaign_id = "done";
  Rng rng{7};
  const auto first = mt::FlowTuner{opt}.run(area_oracle(), rng);

  const std::size_t runs_before = store.run_count();
  Rng rng2{8};
  const auto again = mt::FlowTuner{opt}.run(area_oracle(), rng2);
  expect_same_tune_result(first, again);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(store.run_count(), runs_before);  // nothing re-executed
}

TEST(TuneResume, MismatchedOptionsStartFresh) {
  const std::string dir = temp_store("mismatch");
  ms::RunStore store(dir);

  mt::TuneOptions opt = base_options();
  opt.rounds = 4;
  opt.checkpoint = &store;
  opt.campaign_id = "shape";
  Rng rng{7};
  (void)mt::FlowTuner{opt}.run(area_oracle(), rng);

  // A different focus schedule invalidates the persisted campaign: the
  // posteriors and focus state no longer describe the same search.
  mt::TuneOptions changed = base_options();
  changed.rounds = 4;
  changed.focus_dims = 3;
  changed.checkpoint = &store;
  changed.campaign_id = "shape";
  Rng rng2{7};
  const auto fresh = mt::FlowTuner{changed}.run(area_oracle(), rng2);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(fresh.total_runs, changed.rounds * changed.batch);
  EXPECT_EQ(fresh.samples.front().round, 0u);
}

TEST(TuneResume, ZeroOrNonDecimalRngCheckpointStartsFresh) {
  // A checkpoint whose RNG words decode to the all-zero xoshiro state would
  // make every draw 0, and below() and gauss() would never return; it is
  // rejected like any other undecodable checkpoint and the campaign starts
  // over.
  Rng rng_fresh{99};
  const auto fresh = mt::FlowTuner{base_options()}.run(area_oracle(), rng_fresh);

  const std::string dir = temp_store("zero_rng");
  ms::RunStore store(dir);
  mt::TuneOptions half = base_options();
  half.rounds = 5;
  half.checkpoint = &store;
  half.campaign_id = "zero-rng";
  Rng rng_half{99};
  (void)mt::FlowTuner{half}.run(area_oracle(), rng_half);
  const auto saved = store.get_state("tune:zero-rng");
  ASSERT_TRUE(saved.has_value());

  mt::TuneOptions opt = base_options();
  opt.checkpoint = &store;
  opt.campaign_id = "zero-rng";
  const mt::FlowTuner tuner{opt};
  ASSERT_TRUE(tuner.resumes_from(*saved));
  EXPECT_FALSE(tuner.resumes_from(with_field(*saved, "base_seed", maestro::util::Json{"abc"})));
  EXPECT_FALSE(
      tuner.resumes_from(with_field(*saved, "rng", rng_words({"1", "2", "3", "4", "1", "?"}))));
  EXPECT_FALSE(tuner.resumes_from(
      with_field(*saved, "distinct", maestro::util::Json{maestro::util::JsonArray{
                                         maestro::util::Json{"12x"}}})));
  const auto zero = with_field(*saved, "rng", rng_words({"0", "0", "0", "0", "0", "0"}));
  EXPECT_FALSE(tuner.resumes_from(zero));

  store.put_state("tune:zero-rng", zero);
  Rng rng{99};
  const auto cont = tuner.run(area_oracle(), rng);
  EXPECT_FALSE(cont.resumed);
  expect_same_tune_result(fresh, cont);
}

// ---------------------------------------------------------- METRICS warm start

TEST(TuneWarmStart, MinesTuneHistoryFromMetricsServer) {
  mm::Server server;

  // Campaign A transmits every observed run as a step="tune" record.
  mt::TuneOptions a = base_options();
  a.rounds = 6;
  a.metrics = &server;
  Rng rng_a{3};
  const auto first = mt::FlowTuner{a}.run(area_oracle(), rng_a);
  EXPECT_EQ(first.mined_rows, 0u);  // nothing to mine yet
  EXPECT_EQ(server.for_step("tune").size(), first.total_runs);

  // Campaign B over the same server warm-starts from A's full history: its
  // surrogate dataset and posteriors are seeded before the first round.
  mt::TuneOptions b = base_options();
  b.rounds = 4;
  b.metrics = &server;
  Rng rng_b{4};
  const auto second = mt::FlowTuner{b}.run(area_oracle(), rng_b);
  EXPECT_EQ(second.mined_rows, first.total_runs);
  // Warm posteriors already know a2 dominates; the very first round's best
  // must be a strong trajectory.
  EXPECT_GT(second.best_per_round.front(), 1.0);

  // Records from foreign designs or steps are ignored.
  mm::Record foreign;
  foreign.design = "other";
  foreign.step = "tune";
  foreign.values["tune_score"] = 1.0;
  server.submit(std::move(foreign));
  mt::TuneOptions c = base_options();
  c.rounds = 1;
  c.metrics = &server;
  Rng rng_c{5};
  const auto third = mt::FlowTuner{c}.run(area_oracle(), rng_c);
  EXPECT_EQ(third.mined_rows, first.total_runs + second.total_runs);
}
