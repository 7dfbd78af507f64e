// Tests for maestro::core — the paper's contribution layer: MAB tool-run
// scheduling, robot engineers, the doomed-run guard, analysis correlation,
// flow-tree search, guardbanding, and the closed METRICS loop.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/correlation.hpp"
#include "core/doomed_guard.hpp"
#include "core/flow_search.hpp"
#include "core/guardband.hpp"
#include "core/mab_scheduler.hpp"
#include "core/metrics_loop.hpp"
#include "core/robot_engineer.hpp"

namespace mc = maestro::core;
namespace mf = maestro::flow;
namespace ml = maestro::ml;
namespace mn = maestro::netlist;
namespace mr = maestro::route;
namespace mt = maestro::timing;
using maestro::util::Rng;

namespace {
const mn::CellLibrary& lib() {
  static const mn::CellLibrary l = mn::make_default_library();
  return l;
}

/// A synthetic flow oracle with a crisp feasibility cliff at max_ghz: runs
/// below it succeed with high probability, above it fail. Fast (no real
/// flow), so MAB campaigns can be tested statistically.
mc::FlowOracle cliff_oracle(double max_ghz, double noise = 0.03) {
  return [max_ghz, noise](double target_ghz, std::uint64_t seed) {
    Rng rng{seed};
    mf::FlowResult res;
    res.completed = true;
    const double margin = max_ghz + rng.gauss(0.0, noise) - target_ghz;
    res.timing_met = margin > 0.0;
    res.drc_clean = true;
    res.constraints_met = true;
    res.wns_ps = margin * 100.0;
    res.area_um2 = 1000.0 + (target_ghz > max_ghz * 0.9 ? 200.0 * target_ghz : 0.0);
    res.power_mw = target_ghz * 2.0;
    res.final_drvs = 0.0;
    res.tat_minutes = 60.0;
    return res;
  };
}
}  // namespace

// ------------------------------------------------------------ MabScheduler

TEST(MabScheduler, FrequencyArmsEvenlySpaced) {
  const auto arms = mc::frequency_arms(0.5, 1.5, 5);
  ASSERT_EQ(arms.size(), 5u);
  EXPECT_DOUBLE_EQ(arms.front(), 0.5);
  EXPECT_DOUBLE_EQ(arms.back(), 1.5);
  EXPECT_NEAR(arms[1] - arms[0], 0.25, 1e-12);
}

TEST(MabScheduler, ThompsonConcentratesNearFeasibleMax) {
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.3, 2.0, 12);
  opt.iterations = 40;
  opt.concurrency = 5;
  opt.algorithm = ml::PolicyKind::Thompson;
  const mc::MabScheduler sched{opt};
  Rng rng{1};
  const auto res = sched.run(cliff_oracle(1.2), rng);
  EXPECT_EQ(res.total_runs, 200u);
  EXPECT_EQ(res.samples.size(), 200u);
  EXPECT_EQ(res.best_per_iteration.size(), 40u);
  // Best feasible found should be near (just below) the cliff.
  EXPECT_GT(res.best_feasible_ghz, 0.9);
  EXPECT_LT(res.best_feasible_ghz, 1.35);
  // Late samples concentrate near the best arm: mean late freq > mean early.
  double early = 0.0;
  double late = 0.0;
  std::size_t n_early = 0;
  std::size_t n_late = 0;
  for (const auto& s : res.samples) {
    if (s.iteration < 10) {
      early += s.frequency_ghz;
      ++n_early;
    } else if (s.iteration >= 30) {
      late += s.frequency_ghz;
      ++n_late;
    }
  }
  early /= static_cast<double>(n_early);
  late /= static_cast<double>(n_late);
  // Early sampling is exploratory (spread over 0.3..2.0, mean ~1.15);
  // late sampling should sit close below the 1.2 cliff.
  EXPECT_GT(late, 0.85);
  EXPECT_LT(late, 1.45);
  // Most late samples succeed.
  std::size_t late_success = 0;
  for (const auto& s : res.samples) {
    if (s.iteration >= 30 && s.success) ++late_success;
  }
  EXPECT_GT(static_cast<double>(late_success) / static_cast<double>(n_late), 0.5);
}

TEST(MabScheduler, ThompsonBeatsEpsilonGreedyOnRegret) {
  // Average across seeds, as in the paper's robustness claim for TS.
  double ts_regret = 0.0;
  double eg_regret = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    mc::MabOptions opt;
    opt.frequency_arms_ghz = mc::frequency_arms(0.3, 2.0, 10);
    opt.iterations = 30;
    opt.concurrency = 5;
    opt.algorithm = ml::PolicyKind::Thompson;
    Rng r1{seed};
    ts_regret += mc::MabScheduler{opt}.run(cliff_oracle(1.2), r1).total_regret;
    opt.algorithm = ml::PolicyKind::EpsilonGreedy;
    opt.epsilon = 0.3;
    Rng r2{seed};
    eg_regret += mc::MabScheduler{opt}.run(cliff_oracle(1.2), r2).total_regret;
  }
  EXPECT_LT(ts_regret, eg_regret);
}

TEST(MabScheduler, RegretOrderingMatchesFig7) {
  // The paper's Fig. 7 robustness claim, as a regret ordering on the
  // synthetic cliff oracle: Thompson < e-greedy < softmax at equal budget.
  // Regret is charged against the best *feasible* arm's empirical mean, so a
  // policy that keeps sampling infeasible (reward-0) frequencies pays for it.
  auto campaign_regret = [](ml::PolicyKind alg, double param) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      mc::MabOptions opt;
      opt.frequency_arms_ghz = mc::frequency_arms(0.3, 2.0, 10);
      opt.iterations = 30;
      opt.concurrency = 5;
      opt.algorithm = alg;
      if (alg == ml::PolicyKind::EpsilonGreedy) opt.epsilon = param;
      if (alg == ml::PolicyKind::Softmax) opt.tau = param;
      Rng rng{seed};
      const auto res = mc::MabScheduler{opt}.run(cliff_oracle(1.2), rng);
      EXPECT_GE(res.total_regret, 0.0);  // clamped, never negative
      total += res.total_regret;
    }
    return total / 6.0;
  };
  const double ts = campaign_regret(ml::PolicyKind::Thompson, 0.0);
  const double eg = campaign_regret(ml::PolicyKind::EpsilonGreedy, 0.3);
  const double sm = campaign_regret(ml::PolicyKind::Softmax, 0.5);
  EXPECT_LT(ts, eg);
  EXPECT_LT(eg, sm);
}

TEST(MabScheduler, RegretChargedAgainstBestFeasibleArm) {
  // With a cliff at 1.0 and arms {0.5, 0.9, 1.8}, the 1.8 arm always fails
  // (reward 0): the regret baseline must be the best *feasible* arm (0.9),
  // not the highest frequency. An always-best-arm campaign has ~0 regret;
  // one that wastes pulls above the cliff pays ~0.9 per wasted pull.
  mc::MabOptions opt;
  opt.frequency_arms_ghz = {0.5, 0.9, 1.8};
  opt.iterations = 20;
  opt.concurrency = 5;
  opt.algorithm = ml::PolicyKind::Thompson;
  Rng rng{3};
  const auto res = mc::MabScheduler{opt}.run(cliff_oracle(1.0, /*noise=*/0.001), rng);
  // Thompson locks onto 0.9 quickly: per-run average regret is well under
  // the 0.9 paid for every infeasible/suboptimal pull.
  EXPECT_GE(res.total_regret, 0.0);
  EXPECT_LT(res.total_regret / static_cast<double>(res.total_runs), 0.3);
  EXPECT_NEAR(res.best_feasible_ghz, 0.9, 1e-9);
}

TEST(MabScheduler, AllAlgorithmsRun) {
  for (const auto alg : {ml::PolicyKind::Thompson, ml::PolicyKind::Softmax,
                         ml::PolicyKind::EpsilonGreedy, ml::PolicyKind::Ucb1}) {
    mc::MabOptions opt;
    opt.frequency_arms_ghz = mc::frequency_arms(0.5, 1.5, 6);
    opt.iterations = 10;
    opt.concurrency = 2;
    opt.algorithm = alg;
    Rng rng{3};
    const auto res = mc::MabScheduler{opt}.run(cliff_oracle(1.0), rng);
    EXPECT_EQ(res.total_runs, 20u) << ml::to_string(alg);
    EXPECT_GT(res.successful_runs, 0u) << ml::to_string(alg);
  }
}

TEST(MabScheduler, RealFlowOracleIntegration) {
  mf::FlowManager fm{lib()};
  mf::DesignSpec design;
  design.kind = mf::DesignSpec::Kind::RandomLogic;
  design.scale = 1;
  design.name = "mab_int";
  const auto oracle = mc::make_flow_oracle(fm, design, mf::FlowTrajectory{},
                                           mf::FlowConstraints{});
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.6, 1.8, 7);
  opt.iterations = 6;
  opt.concurrency = 2;
  const mc::MabScheduler sched{opt};
  Rng rng{5};
  const auto res = sched.run(oracle, rng);
  EXPECT_EQ(res.total_runs, 12u);
  EXPECT_GT(res.best_feasible_ghz, 0.0);  // something at/below ~1.4 succeeds
}

// ----------------------------------------------------------- RobotEngineer

TEST(RobotEngineer, SucceedsImmediatelyOnEasyTask) {
  mf::FlowManager fm{lib()};
  mc::RobotEngineer robot{fm};
  mf::FlowRecipe recipe;
  recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
  recipe.design.scale = 1;
  recipe.design.name = "easy";
  recipe.target_ghz = 0.7;
  recipe.seed = 7;
  Rng rng{7};
  const auto out = robot.execute(recipe, mf::FlowConstraints{}, rng);
  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_TRUE(out.journal.empty());
}

TEST(RobotEngineer, BacksOffFrequencyOnHardTask) {
  mf::FlowManager fm{lib()};
  mc::RobotOptions ro;
  ro.max_attempts = 8;
  ro.frequency_backoff_ghz = 0.2;
  mc::RobotEngineer robot{fm, ro};
  mf::FlowRecipe recipe;
  recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
  recipe.design.scale = 1;
  recipe.design.name = "hard";
  recipe.target_ghz = 2.2;  // infeasible; needs backoff
  recipe.seed = 9;
  Rng rng{9};
  const auto out = robot.execute(recipe, mf::FlowConstraints{}, rng);
  EXPECT_TRUE(out.succeeded);
  EXPECT_GT(out.attempts, 1);
  EXPECT_LT(out.final_target_ghz, 2.2);
  EXPECT_FALSE(out.journal.empty());
  // Journal entries carry diagnosis + remedy text.
  for (const auto& a : out.journal) {
    EXPECT_FALSE(a.diagnosis.empty());
    EXPECT_FALSE(a.remedy.empty());
  }
  // TAT accumulates across attempts.
  EXPECT_GT(out.total_tat_minutes, out.result.tat_minutes - 1e-9);
}

TEST(RobotEngineer, RespectsAttemptBudget) {
  mf::FlowManager fm{lib()};
  mc::RobotOptions ro;
  ro.max_attempts = 2;
  ro.allow_frequency_backoff = false;  // cannot fix timing any other way
  mc::RobotEngineer robot{fm, ro};
  mf::FlowRecipe recipe;
  recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
  recipe.design.scale = 1;
  recipe.design.name = "stuck";
  recipe.target_ghz = 4.0;
  recipe.seed = 11;
  Rng rng{11};
  const auto out = robot.execute(recipe, mf::FlowConstraints{}, rng);
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(out.attempts, 2);
}

// ---------------------------------------------------------- DoomedRunGuard

namespace {
std::vector<mr::DrvRun> corpus(mr::CorpusKind kind, std::size_t n, std::uint64_t seed) {
  mr::DrvSimOptions opt;
  opt.seed = seed;
  Rng rng{seed};
  return mr::make_drv_corpus(kind, n, opt, rng);
}
}  // namespace

TEST(DoomedRunGuard, TrainsAndRendersCard) {
  const auto train = corpus(mr::CorpusKind::ArtificialLayouts, 300, 1);
  mc::DoomedRunGuard guard;
  guard.train(train);
  EXPECT_TRUE(guard.trained());
  const auto& card = guard.card();
  EXPECT_EQ(card.violation_bins(), guard.options().violation_bins);
  EXPECT_EQ(card.delta_bins(), guard.options().delta_bins);
  // Some cells STOP, some GO.
  EXPECT_GT(card.stop_fraction(), 0.05);
  EXPECT_LT(card.stop_fraction(), 0.95);
  const auto text = card.render();
  EXPECT_NE(text.find('S'), std::string::npos);
  EXPECT_FALSE(text.empty());
}

TEST(DoomedRunGuard, CardFollowsFillInRules) {
  const auto train = corpus(mr::CorpusKind::ArtificialLayouts, 200, 3);
  mc::DoomedRunGuard guard;
  guard.train(train);
  const auto& card = guard.card();
  const std::size_t V = card.violation_bins();
  const std::size_t D = card.delta_bins();
  // Footnote-5 rule (iii): very large violations, untrained cells -> STOP.
  for (std::size_t d = 0; d < D; ++d) {
    const std::size_t v = V - 1;
    if (!card.seen_in_training(v, d)) {
      EXPECT_TRUE(card.stop_at(v, d)) << "v=" << v << " d=" << d;
    }
  }
  // Rule (iv): small violations, flat slope, untrained -> GO.
  const std::size_t mid_d = D / 2;
  if (!card.seen_in_training(0, mid_d)) {
    EXPECT_FALSE(card.stop_at(0, mid_d));
  }
}

TEST(DoomedRunGuard, ConsecutiveStopsReduceType1Errors) {
  const auto train = corpus(mr::CorpusKind::ArtificialLayouts, 600, 5);
  const auto test = corpus(mr::CorpusKind::CpuFloorplans, 800, 7);
  mc::DoomedRunGuard guard;
  guard.train(train);
  const auto e1 = guard.evaluate(test, 1);
  const auto e2 = guard.evaluate(test, 2);
  const auto e3 = guard.evaluate(test, 3);
  // The paper's central Table-1 trend: error rate falls sharply with the
  // consecutive-STOP requirement; Type-1 errors (wrong stops) shrink.
  EXPECT_GT(e1.error_rate(), e2.error_rate());
  EXPECT_GE(e2.error_rate(), e3.error_rate());
  EXPECT_GT(e1.type1, e2.type1);
  EXPECT_GE(e2.type1, e3.type1);
  // Strict-stop error should be small (paper: ~4%).
  EXPECT_LT(e3.error_rate(), 0.15);
  // Type-2 errors stay low in absolute terms.
  EXPECT_LT(e3.type2, test.size() / 10);
  // Doomed runs save iterations when stopped.
  EXPECT_GT(e1.iterations_saved, 0u);
  EXPECT_EQ(e1.total_runs, test.size());
}

TEST(DoomedRunGuard, StopsObviouslyDoomedRun) {
  const auto train = corpus(mr::CorpusKind::ArtificialLayouts, 400, 9);
  mc::DoomedRunGuard guard;
  guard.train(train);
  // A run pinned at very high DRVs with positive slope must trigger STOP.
  EXPECT_TRUE(guard.stop_signal(50000.0, 5000.0, 45000.0));
}

TEST(DoomedRunGuard, MonitorStopsLiveFlowRoute) {
  const auto train = corpus(mr::CorpusKind::ArtificialLayouts, 400, 11);
  mc::DoomedRunGuard guard;
  guard.train(train);

  mf::FlowManager fm{lib()};
  mf::FlowRecipe recipe;
  recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
  recipe.design.scale = 1;
  recipe.design.name = "guarded";
  recipe.target_ghz = 1.0;
  recipe.seed = 13;
  // Force a hard route by cranking utilization.
  recipe.knobs.set(mf::FlowStep::Floorplan, "utilization", "0.95");
  auto monitor = guard.monitor(2);
  recipe.route_monitor = [&monitor](int it, double drvs, double delta) {
    return monitor(it, drvs, delta);
  };
  const auto res = fm.run(recipe);
  EXPECT_TRUE(res.completed);  // flow completes even if route stopped early
}

// -------------------------------------------------------- CorrelationModel

namespace {
struct CorrFixture {
  std::vector<mc::EndpointPair> train;
  std::vector<mc::EndpointPair> test;
};

CorrFixture correlation_fixture() {
  CorrFixture fx;
  mf::FlowManager fm{lib()};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mf::FlowRecipe recipe;
    recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
    recipe.design.scale = 1;
    recipe.design.name = "corr" + std::to_string(seed);
    recipe.design.rtl_seed = seed;
    recipe.target_ghz = 1.2;
    recipe.seed = seed;
    mf::DesignState state;
    fm.run_keep_state(recipe, mf::FlowConstraints{}, state);

    mt::StaOptions gba;
    gba.mode = mt::AnalysisMode::GraphBased;
    gba.clock_period_ps = 1000.0 / 1.2;
    const auto rep_gba = mt::run_sta(*state.pl, state.clock, gba);
    mt::StaOptions signoff;
    signoff.mode = mt::AnalysisMode::PathBased;
    signoff.with_si = true;
    signoff.clock_period_ps = 1000.0 / 1.2;
    const auto rep_so = mt::run_sta(*state.pl, state.clock, signoff, &state.routed);

    const auto pairs = mc::pair_endpoints(rep_gba, rep_so);
    auto& dst = seed <= 3 ? fx.train : fx.test;
    dst.insert(dst.end(), pairs.begin(), pairs.end());
  }
  return fx;
}
}  // namespace

TEST(CorrelationModel, LearnsGbaToSignoffCorrection) {
  const auto fx = correlation_fixture();
  ASSERT_GT(fx.train.size(), 50u);
  ASSERT_GT(fx.test.size(), 10u);
  mc::CorrelationModel model{mc::CorrelationModel::Learner::BoostedStumps};
  model.fit(fx.train);
  const auto rep = model.evaluate(fx.test);
  // Raw GBA is pessimistic (negative bias vs signoff slack).
  EXPECT_LT(rep.raw.bias_ps, 0.0);
  // The learned correction cuts the mean absolute miscorrelation
  // substantially — "accuracy for free" (Fig. 8).
  EXPECT_LT(rep.corrected.mean_abs_error_ps, 0.5 * rep.raw.mean_abs_error_ps);
}

TEST(CorrelationModel, AllLearnersImprove) {
  const auto fx = correlation_fixture();
  for (const auto learner :
       {mc::CorrelationModel::Learner::Ridge, mc::CorrelationModel::Learner::BoostedStumps,
        mc::CorrelationModel::Learner::Knn}) {
    mc::CorrelationModel model{learner};
    model.fit(fx.train);
    const auto rep = model.evaluate(fx.test);
    EXPECT_LT(rep.corrected.mean_abs_error_ps, rep.raw.mean_abs_error_ps)
        << static_cast<int>(learner);
  }
}

TEST(CorrelationStats, PerfectEstimateZeroError) {
  const std::vector<double> ref = {1.0, -2.0, 3.0};
  const auto s = mc::correlation_stats(ref, ref);
  EXPECT_DOUBLE_EQ(s.mean_abs_error_ps, 0.0);
  EXPECT_DOUBLE_EQ(s.bias_ps, 0.0);
  EXPECT_DOUBLE_EQ(s.r2, 1.0);
}

// ------------------------------------------------------------ FlowSearch

namespace {
/// Synthetic trajectory oracle: cost depends on two knobs so search has a
/// signal; deterministic given (trajectory, seed) modulo small noise.
mc::TrajectoryOracle knob_oracle() {
  return [](const mf::FlowTrajectory& t, std::uint64_t seed) {
    Rng rng{seed};
    mf::FlowResult res;
    res.completed = true;
    res.timing_met = true;
    res.drc_clean = true;
    res.constraints_met = true;
    const double util = std::stod(t.value(mf::FlowStep::Floorplan, "utilization", "0.70"));
    const std::string effort = t.value(mf::FlowStep::Place, "effort", "medium");
    // Higher utilization -> smaller area; high effort -> better wns.
    res.area_um2 = 3000.0 * (1.0 - util) + rng.gauss(0.0, 5.0);
    res.wns_ps = effort == "high" ? 10.0 : (effort == "medium" ? -5.0 : -30.0);
    res.power_mw = 2.0;
    return res;
  };
}
}  // namespace

TEST(QorCost, PenalizesFailuresAndViolations) {
  mf::FlowResult good;
  good.completed = true;
  good.wns_ps = 10.0;
  good.area_um2 = 1000.0;
  mf::FlowResult bad_timing = good;
  bad_timing.wns_ps = -50.0;
  mf::FlowResult incomplete;
  incomplete.completed = false;
  EXPECT_LT(mc::qor_cost(good), mc::qor_cost(bad_timing));
  EXPECT_GT(mc::qor_cost(incomplete), 1e5);
}

TEST(FlowTreeSearch, AllStrategiesImprove) {
  const auto spaces = mf::default_knob_spaces();
  for (const auto strat : {mc::SearchStrategy::RandomMultistart,
                           mc::SearchStrategy::AdaptiveMultistart, mc::SearchStrategy::Gwtw}) {
    mc::FlowSearchOptions opt;
    opt.strategy = strat;
    opt.population = 5;
    opt.rounds = 6;
    const mc::FlowTreeSearch search{spaces, opt};
    Rng rng{21};
    const auto res = search.run(knob_oracle(), rng);
    EXPECT_EQ(res.best_per_round.size(), 6u) << mc::to_string(strat);
    EXPECT_LE(res.best_per_round.back(), res.best_per_round.front()) << mc::to_string(strat);
    EXPECT_EQ(res.flow_runs, 30u) << mc::to_string(strat);
    // The search should discover high utilization + high effort.
    const double util =
        std::stod(res.best_trajectory.value(mf::FlowStep::Floorplan, "utilization", "0"));
    EXPECT_GE(util, 0.70) << mc::to_string(strat);
  }
}

TEST(FlowTreeSearch, GwtwCompetitiveWithRandomAtEqualBudget) {
  const auto spaces = mf::default_knob_spaces();
  double gwtw_total = 0.0;
  double rand_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mc::FlowSearchOptions opt;
    opt.population = 5;
    opt.rounds = 8;
    opt.strategy = mc::SearchStrategy::Gwtw;
    Rng r1{seed};
    gwtw_total += mc::FlowTreeSearch{spaces, opt}.run(knob_oracle(), r1).best_cost;
    opt.strategy = mc::SearchStrategy::RandomMultistart;
    Rng r2{seed};
    rand_total += mc::FlowTreeSearch{spaces, opt}.run(knob_oracle(), r2).best_cost;
  }
  EXPECT_LE(gwtw_total, rand_total * 1.1 + 1.0);
}

// ------------------------------------------------------------- Guardband

TEST(GuardbandAnalyzer, SweepFindsAchievableAndGuardbanded) {
  mf::FlowManager fm{lib()};
  mf::DesignSpec design;
  design.kind = mf::DesignSpec::Kind::RandomLogic;
  design.scale = 1;
  design.name = "gb";
  const mc::GuardbandAnalyzer analyzer{fm, design, mf::FlowTrajectory{}};
  Rng rng{23};
  const auto sweep = analyzer.sweep({0.8, 1.1, 1.3, 1.5}, 6, 0.99, rng);
  ASSERT_EQ(sweep.points.size(), 4u);
  EXPECT_GT(sweep.max_achievable_ghz, 0.0);
  // Guardbanded (aim-low) frequency never exceeds the achievable one.
  EXPECT_LE(sweep.guardbanded_ghz, sweep.max_achievable_ghz);
  // Success degrades with target.
  EXPECT_GE(sweep.points.front().success_rate, sweep.points.back().success_rate);
}

TEST(GuardbandAnalyzer, AreaNoiseFitNearMaxFrequency) {
  mf::FlowManager fm{lib()};
  mf::DesignSpec design;
  design.kind = mf::DesignSpec::Kind::RandomLogic;
  design.scale = 1;
  design.name = "gfit";
  const mc::GuardbandAnalyzer analyzer{fm, design, mf::FlowTrajectory{}};
  Rng rng{25};
  const auto fit = analyzer.area_noise_fit(1.45, 24, rng);
  EXPECT_GT(fit.sigma, 0.0);  // there IS noise near the limit
  EXPECT_GT(fit.mean, 0.0);
}

TEST(PartitionStudy, MorePartitionsFasterAndMoreCut) {
  mf::FlowManager fm{lib()};
  mf::DesignSpec design;
  design.kind = mf::DesignSpec::Kind::RandomLogic;
  design.gates_override = 1200;
  design.name = "part";
  mc::PartitionStudyOptions opt;
  opt.block_counts = {1, 4, 16};
  opt.seeds_per_block = 3;
  opt.target_ghz = 1.0;
  Rng rng{27};
  const auto points = mc::partition_study(fm, lib(), design, opt, rng);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].cut_nets, 0u);
  EXPECT_GT(points[2].cut_nets, points[1].cut_nets);
  // Parallel TAT shrinks with partitioning (blocks are smaller).
  EXPECT_LT(points[2].tat_minutes, points[0].tat_minutes);
  for (const auto& p : points) EXPECT_GT(p.achieved_quality, 0.0);
}

// ------------------------------------------------------------ MetricsLoop

TEST(MetricsLoop, RunsAndAdaptsWithoutHuman) {
  mf::FlowManager fm{lib()};
  maestro::metrics::Server server;
  mc::MetricsLoopOptions opt;
  opt.batches = 3;
  opt.runs_per_batch = 4;
  opt.target_metric = maestro::metrics::names::kAreaUm2;
  opt.minimize = true;
  const mc::MetricsLoop loop{fm, server, mf::default_knob_spaces(), opt};
  mf::DesignSpec design;
  design.kind = mf::DesignSpec::Kind::RandomLogic;
  design.scale = 1;
  design.name = "loop";
  Rng rng{29};
  const auto res = loop.run(design, 0.8, rng);
  EXPECT_EQ(res.batches.size(), 3u);
  EXPECT_EQ(res.total_runs, 12u);
  // Server accumulated all runs (flow + step records).
  EXPECT_GE(server.size(), 12u);
  // Mining produced settings for at least the utilization knob.
  EXPECT_FALSE(res.mined_settings.empty());
  // The adapted trajectory is legal (values come from the spaces).
  const auto spaces = mf::default_knob_spaces();
  for (const auto& s : spaces) {
    for (const auto& k : s.knobs) {
      const auto& v = res.final_trajectory.value(s.step, k.name, "?");
      EXPECT_NE(std::find(k.values.begin(), k.values.end(), v), k.values.end());
    }
  }
}
