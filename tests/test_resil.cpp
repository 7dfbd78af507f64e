// maestro::resil — fault injection, retries, deadlines and failure-aware
// orchestration (ctest label "resil"; clean under -DMAESTRO_SANITIZE=thread).
//
// The contract under test: every injected fault is a pure function of
// (plan seed, site, run seed), so chaos campaigns replay bitwise-identically
// at any thread count; retries, deadlines and cancellation never leak
// licenses or double-settle futures; and schedulers degrade gracefully —
// censored samples, cooled-down arms, dead branches, partial fleets —
// instead of aborting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>

#include "core/flow_search.hpp"
#include "core/mab_scheduler.hpp"
#include "core/robot_engineer.hpp"
#include "exec/executor.hpp"
#include "flow/flow.hpp"
#include "obs/registry.hpp"
#include "opt/gwtw.hpp"
#include "resil/circuit.hpp"
#include "resil/fault.hpp"
#include "resil/retry.hpp"
#include "store/run_store.hpp"

namespace {

using namespace maestro;
using namespace std::chrono_literals;

/// Clears the process-global fault plan when a test scope exits, so one
/// test's chaos never leaks into the next.
struct FaultGuard {
  ~FaultGuard() { resil::FaultInjector::clear(); }
};

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Poll `pred` for up to two seconds (terminal journal states lag the
/// future's resolution by one worker step).
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// FaultPlan / FaultInjector

TEST(FaultPlan, DecideIsPureAndSeedDerived) {
  resil::FaultRates rates;
  rates.crash = 0.2;
  rates.hang = 0.05;
  const resil::FaultPlan plan{rates, 7};

  // Pure: the same (site, run seed) always reproduces the same decision.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    EXPECT_EQ(plan.decide("route", seed), plan.decide("route", seed));
  }
  // The rates are respected in aggregate and sites are decorrelated.
  std::size_t crashes = 0;
  std::size_t site_diffs = 0;
  const std::size_t n = 4000;
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    const auto a = plan.decide("synthesis", seed);
    if (a == resil::FaultKind::Crash) ++crashes;
    if (a != plan.decide("signoff", seed)) ++site_diffs;
  }
  const double crash_rate = static_cast<double>(crashes) / static_cast<double>(n);
  EXPECT_NEAR(crash_rate, 0.2, 0.03);
  EXPECT_GT(site_diffs, n / 10);  // sites roll independent deviates
  // A different plan seed reschedules the faults.
  const resil::FaultPlan other{rates, 8};
  std::size_t plan_diffs = 0;
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    if (plan.decide("place", seed) != other.decide("place", seed)) ++plan_diffs;
  }
  EXPECT_GT(plan_diffs, n / 10);
}

TEST(FaultPlan, ParseSpecRoundTripsAndRejectsTypos) {
  const auto plan =
      resil::FaultPlan::parse("crash=0.2,hang=0.05,license=0.01,corrupt=0.02,seed=9,hang_ms=40");
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->rates().crash, 0.2);
  EXPECT_DOUBLE_EQ(plan->rates().hang, 0.05);
  EXPECT_DOUBLE_EQ(plan->rates().license_drop, 0.01);
  EXPECT_DOUBLE_EQ(plan->rates().corrupt_result, 0.02);
  EXPECT_EQ(plan->seed(), 9u);
  EXPECT_DOUBLE_EQ(plan->hang_ms(), 40.0);

  EXPECT_FALSE(resil::FaultPlan::parse("crsh=0.2").has_value());    // typo'd key
  EXPECT_FALSE(resil::FaultPlan::parse("crash=lots").has_value());  // malformed value
  EXPECT_FALSE(resil::FaultPlan::parse("crash=-0.1").has_value());  // negative rate
}

TEST(FaultInjector, InactiveIsNoneAndInstallClearWork) {
  FaultGuard guard;
  resil::FaultInjector::clear();
  EXPECT_FALSE(resil::FaultInjector::active());
  EXPECT_EQ(resil::FaultInjector::decide("route", 1), resil::FaultKind::None);

  resil::FaultRates rates;
  rates.crash = 1.0;
  resil::FaultInjector::install(resil::FaultPlan{rates, 3});
  EXPECT_TRUE(resil::FaultInjector::active());
  EXPECT_EQ(resil::FaultInjector::decide("route", 1), resil::FaultKind::Crash);
  resil::FaultInjector::clear();
  EXPECT_EQ(resil::FaultInjector::decide("route", 1), resil::FaultKind::None);
}

// ---------------------------------------------------------------------------
// Retry policy and circuit breaker

TEST(Retry, SeedDerivationAndBackoff) {
  EXPECT_EQ(resil::retry_seed(42, 0), 42u);  // first attempt is the base seed
  EXPECT_NE(resil::retry_seed(42, 1), 42u);
  EXPECT_NE(resil::retry_seed(42, 1), resil::retry_seed(42, 2));
  EXPECT_EQ(resil::retry_seed(42, 3), resil::retry_seed(42, 3));  // pure

  resil::RetryPolicy policy;
  policy.backoff_ms = 10.0;
  policy.backoff_factor = 3.0;
  policy.max_backoff_ms = 50.0;
  EXPECT_DOUBLE_EQ(policy.backoff_for(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.backoff_for(2), 30.0);
  EXPECT_DOUBLE_EQ(policy.backoff_for(3), 50.0);  // capped
}

TEST(CircuitBreaker, TripsCoolsAndRedirects) {
  resil::CircuitBreaker::Options opt;
  opt.failure_threshold = 2;
  opt.cooldown_rounds = 2;
  resil::CircuitBreaker breaker{4, opt};

  breaker.record_failure(1);
  EXPECT_FALSE(breaker.open(1));  // below threshold
  breaker.record_success(1);
  breaker.record_failure(1);
  EXPECT_FALSE(breaker.open(1));  // success reset the streak
  breaker.record_failure(1);
  EXPECT_TRUE(breaker.open(1));
  EXPECT_EQ(breaker.open_count(), 1u);
  EXPECT_EQ(breaker.nearest_closed(1), 0u);  // ties go low
  EXPECT_EQ(breaker.nearest_closed(2), 2u);  // closed arms map to themselves

  breaker.advance_round();
  EXPECT_TRUE(breaker.open(1));
  breaker.advance_round();
  EXPECT_FALSE(breaker.open(1));  // cooled down
}

// ---------------------------------------------------------------------------
// submit_resilient: retry, deadline, cancellation, license drops

TEST(SubmitResilient, RetryUntilSuccessIsBitwiseStableAcrossPoolSizes) {
  const std::uint64_t base = 42;
  const std::uint64_t winning = resil::retry_seed(base, 2);

  const auto campaign = [&](std::size_t threads) {
    exec::RunExecutor pool{{.threads = threads}};
    resil::ResilOptions opt;
    opt.retry.max_attempts = 4;
    auto fut = pool.submit_resilient(
        "flaky", base,
        [&](exec::RunContext& ctx) -> std::uint64_t {
          if (ctx.seed != winning) throw resil::InjectedCrash{"flaky"};
          return ctx.seed;
        },
        opt);
    const std::uint64_t value = fut.get();
    EXPECT_TRUE(eventually([&] { return pool.journal().summarize().failed == 2; }));
    return value;
  };

  const std::uint64_t before = counter_value("exec.retries");
  EXPECT_EQ(campaign(1), winning);
  EXPECT_EQ(counter_value("exec.retries") - before, 2u);
  EXPECT_EQ(campaign(4), winning);  // identical value on a wide pool
  EXPECT_EQ(counter_value("exec.retries") - before, 4u);
}

TEST(SubmitResilient, DeadlineTimesOutJournalsAndReleasesLicense) {
  // One license: if the overdue run leaked it, the follow-up run below
  // could never start and wait_for would expire instead of completing.
  exec::RunExecutor pool{{.threads = 2, .licenses = 1}};
  resil::ResilOptions opt;
  opt.deadline_ms = 50.0;

  const std::uint64_t timeouts_before = counter_value("exec.timeouts");
  auto fut = pool.submit_resilient(
      "overdue", 1,
      [](exec::RunContext& ctx) -> int {
        // Cooperative body that only polls its token — the watchdog must
        // reel it in. Capped so a watchdog bug fails the test, not CI.
        for (int i = 0; i < 10000 && !ctx.should_stop(); ++i) {
          std::this_thread::sleep_for(1ms);
        }
        return 1;
      },
      opt);
  EXPECT_THROW(fut.get(), resil::RunTimedOut);

  auto after = pool.submit("after", 2, [](exec::RunContext&) { return 2; });
  ASSERT_EQ(after.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(after.get(), 2);
  EXPECT_TRUE(eventually([&] { return pool.journal().summarize().timed_out >= 1; }));
  EXPECT_GE(counter_value("exec.timeouts"), timeouts_before + 1);
}

TEST(TimerThread, EarlierActionPreemptsArmedLongWait) {
  exec::RunExecutor pool{{.threads = 1}};
  // Arm the timer with a far deadline, then insert a near action: the timer
  // must re-arm for the new front instead of sleeping toward the stale one
  // (a short deadline watchdog submitted while a long one is queued).
  pool.schedule_at(std::chrono::steady_clock::now() + 60s, [] {});
  std::this_thread::sleep_for(20ms);  // let the timer thread arm the long wait
  std::promise<void> fired;
  auto fired_fut = fired.get_future();
  pool.schedule_at(std::chrono::steady_clock::now() + 20ms,
                   [&fired] { fired.set_value(); });
  ASSERT_EQ(fired_fut.wait_for(5s), std::future_status::ready);
}

TEST(SubmitResilient, CallerTokenCancelsTheLogicalRun) {
  exec::RunExecutor pool{{.threads = 2, .licenses = 1}};
  resil::ResilOptions opt;
  opt.retry.max_attempts = 3;
  exec::CancelToken cancel;
  auto fut = pool.submit_resilient(
      "cancellable", 5,
      [](exec::RunContext& ctx) -> int {
        for (int i = 0; i < 10000 && !ctx.should_stop(); ++i) {
          std::this_thread::sleep_for(1ms);
        }
        return 1;
      },
      opt, cancel);
  std::this_thread::sleep_for(20ms);
  cancel.request_cancel();
  EXPECT_THROW(fut.get(), exec::RunCancelled);
  // The cancelled attempt released its (only) license and no retry of the
  // cancelled logical run stole it.
  auto after = pool.submit("after", 6, [](exec::RunContext&) { return 2; });
  ASSERT_EQ(after.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(after.get(), 2);
}

/// Waits up to ten seconds for `fut`. A run still pending then is
/// deadlocked, and destroying its pool would join the stuck worker and hang
/// the suite, so the process exits with a failure instead.
template <typename T>
void ready_or_exit(std::future<T>& fut, const char* what) {
  if (fut.wait_for(10s) == std::future_status::ready) return;
  std::fprintf(stderr, "%s: still pending after 10 s (deadlock)\n", what);
  std::_Exit(1);
}

TEST(SubmitResilient, CallerTokenCancelledBeforeSubmissionRunsNoAttempt) {
  // The stop_callback fires inside its own constructor on this thread, so
  // the run settles before any attempt reaches the pool.
  exec::RunExecutor pool{{.threads = 2, .licenses = 1}};
  resil::ResilOptions opt;
  opt.retry.max_attempts = 3;
  exec::CancelToken cancel;
  cancel.request_cancel();
  std::atomic<int> calls{0};
  const std::uint64_t retries_before = counter_value("exec.retries");
  auto fut = pool.submit_resilient(
      "precancelled", 5,
      [&calls](exec::RunContext&) -> int {
        ++calls;
        throw resil::InjectedCrash{"precancelled"};
      },
      opt, cancel);
  ready_or_exit(fut, "precancelled run");
  EXPECT_THROW(fut.get(), exec::RunCancelled);
  auto after = pool.submit("after", 6, [](exec::RunContext&) { return 2; });
  ready_or_exit(after, "follow-up run");
  EXPECT_EQ(after.get(), 2);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(counter_value("exec.retries") - retries_before, 0u);
  EXPECT_EQ(pool.journal().summarize().runs, 1u);  // only the follow-up
}

TEST(SubmitResilient, CallerTokenCancelledInsideTheAttemptStopsRetries) {
  // The attempt cancels the caller's token itself, so the stop_callback
  // runs on this worker thread: it must cancel the attempt's own token and
  // settle the run without deadlocking, and the attempt's failure after
  // that must not start a retry.
  exec::RunExecutor pool{{.threads = 2, .licenses = 1}};
  resil::ResilOptions opt;
  opt.retry.max_attempts = 3;
  const exec::CancelToken cancel;
  std::atomic<int> calls{0};
  std::atomic<bool> attempt_cancelled{false};
  const std::uint64_t retries_before = counter_value("exec.retries");
  auto fut = pool.submit_resilient(
      "self_cancelled", 7,
      [&calls, &attempt_cancelled, cancel](exec::RunContext& ctx) -> int {
        ++calls;
        cancel.request_cancel();
        attempt_cancelled = ctx.cancel.cancelled();
        throw resil::InjectedCrash{"self_cancelled"};
      },
      opt, cancel);
  ready_or_exit(fut, "self-cancelled run");
  EXPECT_THROW(fut.get(), exec::RunCancelled);
  auto after = pool.submit("after", 8, [](exec::RunContext&) { return 2; });
  ready_or_exit(after, "follow-up run");
  EXPECT_EQ(after.get(), 2);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(attempt_cancelled.load());
  EXPECT_EQ(counter_value("exec.retries") - retries_before, 0u);
  EXPECT_TRUE(eventually([&] { return pool.journal().summarize().failed == 1; }));
}

TEST(SubmitResilient, InjectedLicenseDropExercisesRetries) {
  FaultGuard guard;
  resil::FaultRates rates;
  rates.license_drop = 1.0;  // every attempt's license acquisition fails
  resil::FaultInjector::install(resil::FaultPlan{rates, 5});

  exec::RunExecutor pool{{.threads = 2}};
  resil::ResilOptions opt;
  opt.retry.max_attempts = 3;
  const std::uint64_t retries_before = counter_value("exec.retries");
  auto fut = pool.submit_resilient("licensed", 11,
                                   [](exec::RunContext&) { return 1; }, opt);
  EXPECT_THROW(fut.get(), resil::LicenseDropped);
  EXPECT_EQ(counter_value("exec.retries") - retries_before, 2u);
  EXPECT_TRUE(eventually([&] { return pool.journal().summarize().failed == 3; }));
}

// ---------------------------------------------------------------------------
// MabScheduler: chaos campaigns, censoring, breaker

/// Synthetic feasibility-cliff oracle: feasible below 1.6 GHz, with injected
/// crashes/hangs decided at site "oracle" purely from the attempt seed.
flow::FlowResult chaos_oracle(double freq, std::uint64_t seed, exec::RunContext& ctx) {
  switch (resil::FaultInjector::decide("oracle", seed)) {
    case resil::FaultKind::Crash:
      throw resil::InjectedCrash{"oracle"};
    case resil::FaultKind::Hang:
      resil::injected_hang([&] { return ctx.should_stop(); },
                           resil::FaultInjector::plan()->hang_ms());
      break;
    default:
      break;
  }
  flow::FlowResult r;
  r.completed = true;
  const bool feasible = freq <= 1.6;
  r.timing_met = feasible;
  r.drc_clean = true;
  r.constraints_met = true;
  r.wns_ps = feasible ? 10.0 : -50.0;
  return r;
}

TEST(MabResilient, ChaosCampaignCompletesDeterministicallyAcrossPoolSizes) {
  FaultGuard guard;
  resil::FaultRates rates;
  rates.crash = 0.2;  // the ISSUE acceptance point: 20% crash, 5% hang
  rates.hang = 0.05;
  resil::FaultPlan plan{rates, 7};
  plan.set_hang_ms(5.0);
  resil::FaultInjector::install(plan);

  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(0.8, 2.4, 9);
  opt.iterations = 12;
  opt.concurrency = 4;
  opt.resilience.retry.max_attempts = 3;

  const core::MabScheduler sched{opt};
  const auto campaign = [&](std::size_t threads) {
    exec::RunExecutor pool{{.threads = threads}};
    util::Rng rng{2018};
    return sched.run_resilient(chaos_oracle, rng, pool);
  };

  const std::uint64_t retries_before = counter_value("exec.retries");
  const auto serial = campaign(1);
  const std::uint64_t serial_retries = counter_value("exec.retries") - retries_before;
  const auto parallel = campaign(8);
  const std::uint64_t parallel_retries =
      counter_value("exec.retries") - retries_before - serial_retries;

  // Chaos is seed-derived, so the campaign retries deterministically and
  // the two trajectories are bitwise identical.
  EXPECT_GT(serial_retries, 0u);
  EXPECT_EQ(serial_retries, parallel_retries);
  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  EXPECT_EQ(serial.samples.size(), opt.iterations * opt.concurrency);
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    EXPECT_EQ(serial.samples[i].frequency_ghz, parallel.samples[i].frequency_ghz);
    EXPECT_EQ(serial.samples[i].success, parallel.samples[i].success);
    EXPECT_EQ(serial.samples[i].reward, parallel.samples[i].reward);
    EXPECT_EQ(serial.samples[i].censored, parallel.samples[i].censored);
  }
  EXPECT_EQ(serial.censored_runs, parallel.censored_runs);
  EXPECT_EQ(serial.total_regret, parallel.total_regret);
  // Despite the chaos the campaign converged on the feasible region.
  EXPECT_GT(serial.best_feasible_ghz, 0.0);
  EXPECT_LE(serial.best_feasible_ghz, 1.6);
  EXPECT_GT(serial.successful_runs, 0u);
}

TEST(MabPlain, FailedFuturesBecomeCensoredSamples) {
  // No retries here: the plain run() path must also survive crashed pulls,
  // censoring them instead of updating the posterior with fake zeros.
  const core::FlowOracle oracle = [](double freq, std::uint64_t seed) {
    if (seed % 2 == 0) throw resil::InjectedCrash{"oracle"};
    flow::FlowResult r;
    r.completed = true;
    r.timing_met = freq <= 1.2;
    r.drc_clean = true;
    r.constraints_met = true;
    return r;
  };
  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(0.8, 1.6, 3);
  opt.iterations = 5;
  opt.concurrency = 3;
  const core::MabScheduler sched{opt};
  util::Rng rng{99};
  exec::RunExecutor pool{{.threads = 2}};
  const auto res = sched.run(oracle, rng, pool);
  EXPECT_EQ(res.total_runs, opt.iterations * opt.concurrency);
  EXPECT_GT(res.censored_runs, 0u);
  EXPECT_EQ(res.best_per_iteration.size(), opt.iterations);
  for (const auto& s : res.samples) {
    if (s.censored) {
      EXPECT_FALSE(s.success);
      EXPECT_EQ(s.reward, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Search / GWTW / fleet degradation

TEST(FlowSearch, DeadBranchesDropInsteadOfAborting) {
  const core::TrajectoryOracle oracle = [](const flow::FlowTrajectory&, std::uint64_t seed) {
    if (seed % 2 == 0) throw resil::InjectedCrash{"oracle"};
    flow::FlowResult r;
    r.completed = true;
    r.timing_met = true;
    r.drc_clean = true;
    r.constraints_met = true;
    r.area_um2 = static_cast<double>(seed % 1000);
    return r;
  };
  core::FlowSearchOptions opt;
  opt.strategy = core::SearchStrategy::Gwtw;
  opt.population = 4;
  opt.rounds = 3;
  const std::uint64_t dead_before = counter_value("sched.search_dead_branches");
  core::FlowTreeSearch search{flow::default_knob_spaces(), opt};
  util::Rng rng{5};
  const auto res = search.run(oracle, rng);
  EXPECT_EQ(res.flow_runs, opt.population * opt.rounds);
  EXPECT_GT(counter_value("sched.search_dead_branches") - dead_before, 0u);
  // A surviving branch won: the best is a real result, not the crash penalty.
  EXPECT_LT(res.best_cost, core::QorWeights{}.incomplete_penalty);
  EXPECT_TRUE(res.best_result.completed);
}

TEST(Gwtw, DeadThreadsKeepPriorStateAndPopulationWidth) {
  opt::GwtwProblem<double> prob;
  prob.init = [](util::Rng& rng) { return rng.uniform(1.0, 2.0); };
  prob.advance = [](const double& s, util::Rng& rng) {
    if (rng.uniform() < 0.3) throw std::runtime_error("injected advance crash");
    return s * 0.9;
  };
  prob.cost = [](const double& s) { return s; };
  opt::GwtwOptions options;
  options.population = 8;
  options.rounds = 6;
  const std::uint64_t dead_before = counter_value("opt.gwtw_dead_threads");
  util::Rng rng{12};
  const auto res = opt::go_with_the_winners(prob, options, rng);
  EXPECT_GT(counter_value("opt.gwtw_dead_threads") - dead_before, 0u);
  EXPECT_LT(res.best_cost, 2.0);  // progress despite crashed advances
  EXPECT_EQ(res.best_per_round.size(), static_cast<std::size_t>(options.rounds));
}

TEST(RobotFleet, CrashedRobotsReportPartialFleet) {
  FaultGuard guard;
  resil::FaultRates rates;
  rates.crash = 1.0;  // every tool step crashes: all robots die immediately
  resil::FaultInjector::install(resil::FaultPlan{rates, 2});

  const auto lib = netlist::make_default_library();
  const flow::FlowManager manager{lib};
  core::RobotOptions ropt;
  ropt.max_attempts = 1;
  const core::RobotEngineer robot{manager, ropt};
  std::vector<core::FleetTask> fleet(2);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].recipe.design.kind = flow::DesignSpec::Kind::RandomLogic;
    fleet[i].recipe.design.gates_override = 200;
    fleet[i].recipe.design.name = "blk" + std::to_string(i);
    fleet[i].recipe.seed = 10 + i;
  }
  exec::RunExecutor pool{{.threads = 2}};
  const std::uint64_t partial_before = counter_value("sched.fleet_partial");
  const auto outcomes = robot.run_fleet(std::move(fleet), pool, 77);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& out : outcomes) {
    EXPECT_FALSE(out.succeeded);
    ASSERT_FALSE(out.journal.empty());
    EXPECT_EQ(out.journal.front().diagnosis.rfind("crashed:", 0), 0u);
  }
  EXPECT_EQ(counter_value("sched.fleet_partial") - partial_before, 1u);
}

// ---------------------------------------------------------------------------
// Flow tool fault sites

TEST(FlowFaults, CrashSiteThrowsAndCorruptSiteFailsTheStep) {
  FaultGuard guard;
  const auto lib = netlist::make_default_library();
  const flow::FlowManager manager{lib};
  flow::FlowRecipe recipe;
  recipe.design.kind = flow::DesignSpec::Kind::RandomLogic;
  recipe.design.gates_override = 200;
  recipe.design.name = "fault_probe";
  recipe.seed = 3;

  resil::FaultRates crash;
  crash.crash = 1.0;
  resil::FaultInjector::install(resil::FaultPlan{crash, 4});
  EXPECT_THROW(manager.run(recipe), resil::InjectedCrash);

  resil::FaultRates corrupt;
  corrupt.corrupt_result = 1.0;
  resil::FaultInjector::install(resil::FaultPlan{corrupt, 4});
  const auto res = manager.run(recipe);
  EXPECT_FALSE(res.completed);  // garbage output fails the first step
  EXPECT_EQ(res.failed_step, "synthesis");

  resil::FaultInjector::clear();
  EXPECT_TRUE(manager.run(recipe).completed);  // chaos off: flow is healthy
}

// ---------------------------------------------------------------------------
// Store WAL degradation

TEST(StoreFaults, WalErrorDegradesToMemoryAndCompactionRecovers) {
  FaultGuard guard;
  const std::string dir = ::testing::TempDir() + "maestro_resil_store";
  std::filesystem::remove_all(dir);

  store::RunStore db{dir};
  store::StoredRun run;
  run.fingerprint = 1;
  db.append_run(run);  // healthy append
  EXPECT_FALSE(db.degraded());

  resil::FaultRates rates;
  rates.crash = 1.0;  // injected EIO on every WAL write
  resil::FaultInjector::install(resil::FaultPlan{rates, 6});
  const std::uint64_t errors_before = counter_value("store.wal_errors");
  run.fingerprint = 2;
  db.append_run(run);
  EXPECT_TRUE(db.degraded());
  EXPECT_GE(counter_value("store.wal_errors") - errors_before, 1u);
  resil::FaultInjector::clear();

  // Degraded: appends keep full in-memory service but skip the dead disk.
  run.fingerprint = 3;
  db.append_run(run);
  EXPECT_EQ(db.run_count(), 3u);
  EXPECT_TRUE(db.degraded());

  // Compaction folds the mirror into the snapshot and recovers the store.
  EXPECT_TRUE(db.compact());
  EXPECT_FALSE(db.degraded());
  run.fingerprint = 4;
  db.append_run(run);

  store::RunStore reopened{dir};
  EXPECT_EQ(reopened.run_count(), 4u);  // nothing was lost to the dead WAL
}

TEST(StoreFaults, InjectedShortWriteLeavesRecoverableTornTail) {
  FaultGuard guard;
  const std::string dir = ::testing::TempDir() + "maestro_resil_torn";
  std::filesystem::remove_all(dir);
  {
    store::RunStore db{dir};
    store::StoredRun run;
    run.fingerprint = 10;
    db.append_run(run);  // complete line

    resil::FaultRates rates;
    rates.corrupt_result = 1.0;  // short write: half a record, then death
    resil::FaultInjector::install(resil::FaultPlan{rates, 8});
    run.fingerprint = 11;
    db.append_run(run);
    EXPECT_TRUE(db.degraded());
    resil::FaultInjector::clear();
  }
  store::RunStore recovered{dir};
  EXPECT_EQ(recovered.run_count(), 1u);  // the torn record is dropped...
  EXPECT_GT(recovered.dropped_tail_bytes(), 0u);
  store::StoredRun run;
  run.fingerprint = 12;
  recovered.append_run(run);  // ...and the WAL appends cleanly again
  EXPECT_FALSE(recovered.degraded());
  store::RunStore again{dir};
  EXPECT_EQ(again.run_count(), 2u);
}

// ---------------------------------------------------------------------------
// Journal per-state summary

TEST(Journal, SummaryCountsTerminalStates) {
  exec::RunExecutor pool{{.threads = 2}};
  auto ok = pool.submit("ok", 1, [](exec::RunContext&) { return 1; });
  EXPECT_EQ(ok.get(), 1);
  auto bad = pool.submit("bad", 2,
                         [](exec::RunContext&) -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  exec::CancelToken cancelled;
  cancelled.request_cancel();
  auto skipped = pool.submit("skipped", 3, [](exec::RunContext&) { return 3; }, cancelled);
  EXPECT_THROW(skipped.get(), exec::RunCancelled);

  EXPECT_TRUE(eventually([&] {
    const auto s = pool.journal().summarize();
    return s.completed == 1 && s.failed == 1 && s.cancelled == 1;
  }));
  const auto s = pool.journal().summarize();
  EXPECT_EQ(s.runs, 3u);
  EXPECT_EQ(s.timed_out, 0u);
}

}  // namespace
