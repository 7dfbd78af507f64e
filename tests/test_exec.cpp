// Tests for maestro::exec — the concurrency layer: RunExecutor determinism
// (serial == parallel, bitwise), license gating, cooperative cancellation
// through the guard -> token -> flow chain, memoized dispatch_round rounds
// (cache hits, in-round joins, never caching a stopped run), and the run
// journal.
//
// This file builds as its own binary (maestro_exec_tests) labeled "exec" so
// it can run in isolation under -DMAESTRO_SANITIZE=thread:
//   ctest -L exec

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/doomed_guard.hpp"
#include "core/hmm_guard.hpp"
#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "metrics/server.hpp"
#include "obs/registry.hpp"
#include "opt/gwtw.hpp"
#include "route/drv_sim.hpp"

namespace mc = maestro::core;
namespace mf = maestro::flow;
namespace mn = maestro::netlist;
namespace mo = maestro::opt;
namespace mr = maestro::route;
namespace mx = maestro::exec;
using maestro::util::Rng;

namespace {

const mn::CellLibrary& lib() {
  static const mn::CellLibrary l = mn::make_default_library();
  return l;
}

/// Same synthetic cliff oracle as the core MAB tests: pure function of
/// (target_ghz, seed), so it is trivially safe to call from pool workers.
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
    res.area_um2 = 1000.0;
    res.power_mw = target_ghz * 2.0;
    res.tat_minutes = 60.0;
    return res;
  };
}

}  // namespace

// ------------------------------------------------------------- primitives

TEST(DeriveRunSeed, DependsOnlyOnBaseAndIndex) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = mx::derive_run_seed(42, i);
    EXPECT_EQ(s, mx::derive_run_seed(42, i));  // pure
    EXPECT_NE(s, 42u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across indices
  EXPECT_NE(mx::derive_run_seed(42, 0), mx::derive_run_seed(43, 0));
}

TEST(CancelToken, CopiesShareTheFlag) {
  mx::CancelToken a;
  mx::CancelToken b = a;
  mx::CancelToken c;
  EXPECT_FALSE(a.cancelled());
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_FALSE(c.cancelled());
}

// ------------------------------------------------------------ RunExecutor

TEST(DispatchRound, CollectsInSubmissionOrderAtAnyThreadCount) {
  std::vector<mx::RoundJob<double>> jobs(32);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "m#" + std::to_string(i);
    jobs[i].seed = mx::derive_run_seed(7, i);
    jobs[i].body = [i](mx::RunContext& ctx) {
      Rng rng{ctx.seed};
      return static_cast<double>(i) + rng.uniform();
    };
  }
  mx::RunExecutor one{{.threads = 1}};
  mx::RunExecutor four{{.threads = 4}};
  const auto a = mx::dispatch_round(one, jobs);
  const auto b = mx::dispatch_round(four, jobs);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].value && b[i].value) << i;
    EXPECT_EQ(*a[i].value, *b[i].value) << i;  // bitwise: same seed, same work
    EXPECT_GE(*a[i].value, static_cast<double>(i));
  }
  EXPECT_EQ(one.journal().count(mx::RunState::Completed), 32u);
  EXPECT_EQ(four.journal().count(mx::RunState::Completed), 32u);
}

// ------------------------------------------------------- memoized rounds

namespace {

/// Copyable memo handle over a shared map, bound to one fingerprint.
struct MapMemo {
  struct Map {
    std::mutex mu;
    std::map<std::uint64_t, int> values;
  };
  std::shared_ptr<Map> map;
  std::uint64_t fp = 0;

  std::uint64_t fingerprint() const { return fp; }
  std::optional<int> lookup(std::uint64_t f) const {
    const std::lock_guard<std::mutex> lock(map->mu);
    const auto it = map->values.find(f);
    if (it == map->values.end()) return std::nullopt;
    return it->second;
  }
  void insert(std::uint64_t f, int v) const {
    const std::lock_guard<std::mutex> lock(map->mu);
    map->values[f] = v;
  }
};

bool cached(const std::shared_ptr<MapMemo::Map>& map, std::uint64_t fp) {
  return MapMemo{map, fp}.lookup(fp).has_value();
}

using MemoJob = mx::RoundJob<int, MapMemo>;

MemoJob memo_job(const std::shared_ptr<MapMemo::Map>& map, std::uint64_t fp,
                 std::function<int(mx::RunContext&)> body) {
  MemoJob job;
  job.label = "memo#" + std::to_string(fp);
  job.seed = fp;
  job.body = std::move(body);
  job.memo = MapMemo{map, fp};
  return job;
}

std::uint64_t counter(const char* name) {
  return maestro::obs::Registry::global().counter(name).value();
}

/// The journal rows carrying `note`.
std::vector<mx::RunRecord> rows_noted(const mx::RunExecutor& pool, const std::string& note) {
  std::vector<mx::RunRecord> out;
  for (const auto& rec : pool.journal().snapshot()) {
    if (rec.note == note) out.push_back(rec);
  }
  return out;
}

/// Waits (bounded) until every submitted run of `pool` has a terminal row.
void drain(const mx::RunExecutor& pool) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto settled = [&] {
    for (const auto& rec : pool.journal().snapshot()) {
      if (rec.state == mx::RunState::Queued || rec.state == mx::RunState::Running) return false;
    }
    return true;
  };
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

TEST(MemoRound, InRoundDuplicateExecutesOnceAndJoins) {
  mx::RunExecutor pool{{.threads = 4}};
  const auto map = std::make_shared<MapMemo::Map>();
  std::atomic<int> executions{0};
  const auto body = [&](mx::RunContext&) {
    executions.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return 5;
  };
  const std::uint64_t joins0 = counter("exec.inflight_joins");
  std::vector<MemoJob> jobs{memo_job(map, 99, body), memo_job(map, 99, body)};
  const auto out = mx::dispatch_round(pool, std::move(jobs));
  ASSERT_TRUE(out[0].value && out[1].value);
  EXPECT_EQ(*out[0].value, 5);
  EXPECT_EQ(*out[1].value, 5);
  EXPECT_EQ(executions.load(), 1);  // the duplicate joined, it did not re-run
  EXPECT_EQ(counter("exec.inflight_joins") - joins0, 1u);
  const auto joins = rows_noted(pool, "inflight_join");
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].state, mx::RunState::Completed);
  EXPECT_EQ(joins[0].run_id, 2u);  // rows stay in submission order
}

TEST(MemoRound, DuplicateOfAThrowingRunSharesItsError) {
  mx::RunExecutor pool{{.threads = 2}};
  const auto map = std::make_shared<MapMemo::Map>();
  std::atomic<int> executions{0};
  const auto body = [&](mx::RunContext&) -> int {
    executions.fetch_add(1);
    throw std::runtime_error("boom");
  };
  std::vector<MemoJob> jobs{memo_job(map, 7, body), memo_job(map, 7, body)};
  const auto out = mx::dispatch_round(pool, std::move(jobs));
  EXPECT_FALSE(out[0].value);
  EXPECT_FALSE(out[1].value);
  EXPECT_EQ(out[0].error, "boom");
  EXPECT_EQ(out[1].error, "boom");
  EXPECT_EQ(executions.load(), 1);
  EXPECT_FALSE(cached(map, 7));
  // The join row carries the run's terminal state: both rows count Failed.
  EXPECT_EQ(pool.journal().summarize().failed, 2u);
  const auto joins = rows_noted(pool, "inflight_join");
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0].state, mx::RunState::Failed);
}

TEST(MemoRound, SecondRoundIsServedFromTheCache) {
  mx::RunExecutor pool{{.threads = 2}};
  const auto map = std::make_shared<MapMemo::Map>();
  std::atomic<int> executions{0};
  const auto body = [&](mx::RunContext&) {
    executions.fetch_add(1);
    return 11;
  };
  const std::uint64_t hits0 = counter("exec.cache_hits");
  const auto first = mx::dispatch_round(pool, std::vector<MemoJob>{memo_job(map, 3, body)});
  const auto second = mx::dispatch_round(pool, std::vector<MemoJob>{memo_job(map, 3, body)});
  ASSERT_TRUE(first[0].value && second[0].value);
  EXPECT_EQ(*second[0].value, 11);
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(counter("exec.cache_hits") - hits0, 1u);
  const auto hits = rows_noted(pool, "cache_hit");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].state, mx::RunState::Completed);
  EXPECT_EQ(hits[0].wall_ms(), 0.0);
}

TEST(MemoRound, CancelledRunIsNeverInserted) {
  mx::RunExecutor pool{{.threads = 2}};
  const auto map = std::make_shared<MapMemo::Map>();
  std::atomic<int> executions{0};
  const auto body = [&](mx::RunContext& ctx) {
    executions.fetch_add(1);
    ctx.cancel.request_cancel();  // a guard killed this run mid-flight
    return 4;                     // partial result
  };
  std::vector<MemoJob> jobs{memo_job(map, 21, body), memo_job(map, 21, body)};
  jobs[0].cancel = mx::CancelToken{};
  const auto out = mx::dispatch_round(pool, std::move(jobs));
  // Both get the partial result, the join row says Cancelled, and nothing
  // reached the cache.
  ASSERT_TRUE(out[0].value && out[1].value);
  EXPECT_EQ(*out[1].value, 4);
  EXPECT_FALSE(cached(map, 21));
  EXPECT_EQ(pool.journal().summarize().cancelled, 2u);
  ASSERT_EQ(rows_noted(pool, "inflight_join").size(), 1u);
  EXPECT_EQ(rows_noted(pool, "inflight_join")[0].state, mx::RunState::Cancelled);

  // A later round runs the fingerprint again.
  const auto again = mx::dispatch_round(
      pool, std::vector<MemoJob>{memo_job(map, 21, [](mx::RunContext&) { return 6; })});
  ASSERT_TRUE(again[0].value);
  EXPECT_EQ(*again[0].value, 6);
  EXPECT_TRUE(cached(map, 21));
}

TEST(MemoRound, ResilientDeadlineTimesOutAndIsNotInserted) {
  mx::RunExecutor pool{{.threads = 2}};
  const auto map = std::make_shared<MapMemo::Map>();
  maestro::resil::ResilOptions resilience;
  resilience.deadline_ms = 50.0;
  std::vector<MemoJob> jobs{memo_job(map, 123, [](mx::RunContext& ctx) {
    for (int i = 0; i < 10000 && !ctx.should_stop(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 9;
  })};
  const auto out = mx::dispatch_round(pool, std::move(jobs), resilience);
  EXPECT_FALSE(out[0].value);
  EXPECT_EQ(out[0].error, maestro::resil::RunTimedOut{}.what());
  // The overdue body yields after the round returns; once it has, its
  // partial result must still be absent from the cache.
  drain(pool);
  EXPECT_EQ(pool.journal().summarize().timed_out, 1u);
  EXPECT_FALSE(cached(map, 123));
}

TEST(MemoRound, CallerCancelledResilientRunIsNotInserted) {
  mx::RunExecutor pool{{.threads = 2}};
  const auto map = std::make_shared<MapMemo::Map>();
  maestro::resil::ResilOptions resilience;
  resilience.retry.max_attempts = 2;
  const mx::CancelToken cancel;
  std::vector<MemoJob> jobs{memo_job(map, 77, [](mx::RunContext& ctx) {
    for (int i = 0; i < 10000 && !ctx.should_stop(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 9;
  })};
  jobs[0].cancel = cancel;
  std::thread canceller([cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.request_cancel();
  });
  const auto out = mx::dispatch_round(pool, std::move(jobs), resilience);
  canceller.join();
  EXPECT_FALSE(out[0].value);
  EXPECT_EQ(out[0].error, mx::RunCancelled{}.what());
  drain(pool);
  EXPECT_FALSE(cached(map, 77));

  // The fingerprint is free: a later round runs it again.
  const auto again = mx::dispatch_round(
      pool, std::vector<MemoJob>{memo_job(map, 77, [](mx::RunContext&) { return 3; })});
  ASSERT_TRUE(again[0].value);
  EXPECT_EQ(*again[0].value, 3);
}

TEST(MemoRound, OutcomesIdenticalAtOneAndEightThreads) {
  // 24 jobs over 6 fingerprints, two of them cached beforehand and one that
  // always throws: hits, joins, runs and errors all in one round.
  const auto run = [](std::size_t threads) {
    mx::RunExecutor pool{{.threads = threads}};
    const auto map = std::make_shared<MapMemo::Map>();
    MapMemo{map, 0}.insert(0, 100);
    MapMemo{map, 4}.insert(4, 104);
    std::vector<MemoJob> jobs;
    for (std::uint64_t i = 0; i < 24; ++i) {
      const std::uint64_t fp = (i * 5) % 6;
      jobs.push_back(memo_job(map, fp, [fp](mx::RunContext& ctx) -> int {
        if (fp == 3) throw std::runtime_error("fp3 crashed");
        Rng rng{ctx.seed};
        return static_cast<int>(fp) * 1000 + static_cast<int>(rng.below(1000));
      }));
    }
    auto out = mx::dispatch_round(pool, std::move(jobs));
    std::vector<std::string> rows;
    for (const auto& rec : pool.journal().snapshot()) {
      rows.push_back(rec.label + "/" + mx::to_string(rec.state) + "/" + rec.note);
    }
    return std::make_pair(std::move(out), std::move(rows));
  };
  const auto [serial, serial_rows] = run(1);
  const auto [parallel, parallel_rows] = run(8);
  ASSERT_EQ(serial.size(), 24u);
  ASSERT_EQ(parallel.size(), 24u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].value, parallel[i].value) << i;
    EXPECT_EQ(serial[i].error, parallel[i].error) << i;
  }
  EXPECT_EQ(*serial[0].value, 100);
  EXPECT_EQ(serial[3].error, "fp3 crashed");
  // Hit vs join vs run is decided before anything runs, so even the journal
  // is the same at any thread count: 8 hits, 4 runs, 12 joins.
  EXPECT_EQ(serial_rows, parallel_rows);
  const auto count = [&](const std::string& suffix) {
    return std::count_if(serial_rows.begin(), serial_rows.end(), [&](const std::string& r) {
      return r.size() >= suffix.size() && r.compare(r.size() - suffix.size(), suffix.size(),
                                                    suffix) == 0;
    });
  };
  EXPECT_EQ(count("/cache_hit"), 8);
  EXPECT_EQ(count("/inflight_join"), 12);
}

TEST(RunExecutor, LicensesGateConcurrency) {
  mx::RunExecutor pool{{.threads = 4, .licenses = 2}};
  EXPECT_EQ(pool.threads(), 4u);
  EXPECT_EQ(pool.licenses(), 2u);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit("gated", 1, [&](mx::RunContext&) {
      const int now = ++running;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --running;
      return now;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
  EXPECT_EQ(pool.licenses_in_use(), 0u);
}

TEST(RunExecutor, CancelledWhileQueuedSkipsAndThrows) {
  mx::RunExecutor pool{{.threads = 1}};
  std::atomic<bool> release{false};
  auto blocker = pool.submit("blocker", 1, [&](mx::RunContext&) {
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return 1;
  });
  mx::CancelToken token;
  auto doomed = pool.submit("doomed", 2, [](mx::RunContext&) { return 2; }, token);
  token.request_cancel();
  release = true;
  EXPECT_EQ(blocker.get(), 1);
  EXPECT_THROW(doomed.get(), mx::RunCancelled);
  const auto snap = pool.journal().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].state, mx::RunState::Completed);
  EXPECT_EQ(snap[1].state, mx::RunState::Cancelled);
  EXPECT_EQ(snap[1].wall_ms(), 0.0);            // never started
  EXPECT_GE(snap[1].queue_wait_ms(), 0.0);      // waited until cancellation
}

TEST(RunExecutor, FailurePropagatesThroughFutureAndJournal) {
  mx::RunExecutor pool{{.threads = 2}};
  auto fut = pool.submit("explodes", 3, [](mx::RunContext&) -> int {
    throw std::runtime_error("tool crashed");
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
  auto ok = pool.submit("fine", 4, [](mx::RunContext&) { return 7; });
  EXPECT_EQ(ok.get(), 7);  // pool survives a failed run
  EXPECT_EQ(pool.journal().count(mx::RunState::Failed), 1u);
  EXPECT_EQ(pool.journal().count(mx::RunState::Completed), 1u);
  const auto snap = pool.journal().snapshot();
  EXPECT_EQ(snap[0].note, "tool crashed");
}

TEST(RunExecutor, JournalTimestampsAreOrdered) {
  mx::RunExecutor pool{{.threads = 2}};
  auto f = pool.submit("timed", 5, [](mx::RunContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return 0;
  });
  f.get();
  const auto snap = pool.journal().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_GE(snap[0].start_ms, snap[0].enqueue_ms);
  EXPECT_GE(snap[0].finish_ms, snap[0].start_ms);
  EXPECT_GE(snap[0].wall_ms(), 4.0);
  EXPECT_GE(pool.journal().total_wall_ms(), 4.0);
}

TEST(RunJournal, SummaryPercentilesAreMonotone) {
  mx::RunExecutor pool{{.threads = 2}};
  // Variable-duration runs so the percentiles spread out.
  std::vector<mx::RoundJob<std::size_t>> jobs(16);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "spread#" + std::to_string(i);
    jobs[i].body = [i](mx::RunContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + i % 5));
      return i;
    };
  }
  mx::dispatch_round(pool, std::move(jobs));
  const mx::JournalSummary s = pool.journal().summarize();
  EXPECT_EQ(s.runs, 16u);
  EXPECT_LE(s.queue_wait_p50_ms, s.queue_wait_p95_ms);
  EXPECT_LE(s.queue_wait_p95_ms, s.queue_wait_max_ms);
  EXPECT_LE(s.wall_p50_ms, s.wall_p95_ms);
  EXPECT_LE(s.wall_p95_ms, s.wall_max_ms);
  EXPECT_GT(s.wall_max_ms, 0.0);

  const mx::JournalSummary empty = mx::RunExecutor{{.threads = 1}}.journal().summarize();
  EXPECT_EQ(empty.runs, 0u);
  EXPECT_EQ(empty.wall_max_ms, 0.0);
}

TEST(RunExecutor, DefaultThreadCountHonorsEnvOverride) {
  setenv("MAESTRO_THREADS", "3", 1);
  EXPECT_EQ(mx::default_thread_count(), 3u);
  setenv("MAESTRO_THREADS", "999", 1);  // clamped to 256
  EXPECT_EQ(mx::default_thread_count(), 256u);
  setenv("MAESTRO_THREADS", "0", 1);    // invalid -> hardware fallback
  EXPECT_GE(mx::default_thread_count(), 1u);
  unsetenv("MAESTRO_THREADS");
  EXPECT_GE(mx::default_thread_count(), 1u);
}

// ------------------------------------------------- determinism: scheduler

TEST(ExecDeterminism, MabCampaignIdenticalSerialAndParallel) {
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.3, 2.0, 12);
  opt.iterations = 25;
  opt.concurrency = 5;
  opt.algorithm = maestro::ml::PolicyKind::Thompson;
  const mc::MabScheduler sched{opt};
  const auto oracle = cliff_oracle(1.2);

  mx::RunExecutor serial{{.threads = 1}};
  mx::RunExecutor wide{{.threads = 4}};
  Rng r1{99};
  Rng r2{99};
  const auto a = sched.run(oracle, r1, serial);
  const auto b = sched.run(oracle, r2, wide);

  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].iteration, b.samples[i].iteration);
    EXPECT_EQ(a.samples[i].frequency_ghz, b.samples[i].frequency_ghz) << i;
    EXPECT_EQ(a.samples[i].success, b.samples[i].success) << i;
    EXPECT_EQ(a.samples[i].reward, b.samples[i].reward) << i;
  }
  EXPECT_EQ(a.best_feasible_ghz, b.best_feasible_ghz);
  EXPECT_EQ(a.total_regret, b.total_regret);
  EXPECT_EQ(a.best_per_iteration, b.best_per_iteration);
  // And the shared-Rng state advanced identically.
  EXPECT_EQ(r1.next(), r2.next());
}

TEST(ExecDeterminism, GwtwIdenticalSerialAndParallel) {
  // Minimize (x - 3)^2 over a drifting population.
  mo::GwtwProblem<double> prob;
  prob.init = [](Rng& rng) { return rng.gauss(0.0, 5.0); };
  prob.advance = [](const double& s, Rng& rng) { return s + rng.gauss(0.0, 0.4); };
  prob.cost = [](const double& s) { return (s - 3.0) * (s - 3.0); };

  mo::GwtwOptions serial_opt;
  serial_opt.population = 8;
  serial_opt.rounds = 15;

  mx::RunExecutor pool{{.threads = 4}};
  mo::GwtwOptions pool_opt = serial_opt;
  pool_opt.executor = &pool;

  Rng r1{7};
  Rng r2{7};
  const auto a = mo::go_with_the_winners(prob, serial_opt, r1);
  const auto b = mo::go_with_the_winners(prob, pool_opt, r2);

  EXPECT_EQ(a.best, b.best);            // bitwise-identical winner
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_per_round, b.best_per_round);
  EXPECT_EQ(a.mean_per_round, b.mean_per_round);
  EXPECT_EQ(a.clones_made, b.clones_made);
  EXPECT_EQ(r1.next(), r2.next());
  EXPECT_EQ(pool.journal().size(), 8u * 15u);
}

// ------------------------------------------------------------ cancellation

TEST(Cancellation, GuardStopVerdictRequestsCancel) {
  Rng rng{5};
  mr::DrvSimOptions dso;
  dso.seed = 5;
  const auto train = mr::make_drv_corpus(mr::CorpusKind::ArtificialLayouts, 400, dso, rng);
  mc::DoomedRunGuard guard;
  guard.train(train);
  ASSERT_TRUE(guard.stop_signal(50000.0, 5000.0, 45000.0));

  mx::CancelToken token;
  auto monitor = guard.monitor(2, token);
  // Feed an obviously diverging trajectory: high DRVs, rising.
  double drvs = 45000.0;
  bool stopped = false;
  for (int it = 0; it < 6 && !stopped; ++it) {
    stopped = !monitor(it, drvs, 5000.0);
    drvs += 5000.0;
  }
  EXPECT_TRUE(stopped);
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, HmmGuardMonitorStopsADoomedRun) {
  Rng rng{23};
  mr::DrvSimOptions dso;
  dso.seed = 23;
  const auto train = mr::make_drv_corpus(mr::CorpusKind::ArtificialLayouts, 400, dso, rng);
  mc::HmmGuard guard;
  guard.train(train);
  const auto test = mr::make_drv_corpus(mr::CorpusKind::CpuFloorplans, 200, dso, rng);

  // At least one genuinely failing run must trip the live monitor (the
  // offline evaluate() already certifies iterations_saved > 0 on corpora
  // like this); when it does, the bound token must be cancelled.
  bool any_stopped = false;
  for (const auto& run : test) {
    if (run.succeeded) continue;
    mx::CancelToken token;
    auto monitor = guard.monitor(token);
    bool stopped = false;
    for (std::size_t t = 0; t < run.drvs.size() && !stopped; ++t) {
      const double delta = t == 0 ? 0.0 : run.drvs[t] - run.drvs[t - 1];
      stopped = !monitor(static_cast<int>(t), run.drvs[t], delta);
    }
    EXPECT_EQ(stopped, token.cancelled());
    any_stopped = any_stopped || stopped;
  }
  EXPECT_TRUE(any_stopped);
}

TEST(Cancellation, CancelledFlowAbortsAndReturnsLicense) {
  mf::FlowManager fm{lib()};
  mx::RunExecutor pool{{.threads = 1, .licenses = 1}};

  mx::CancelToken token;
  mf::FlowRecipe recipe;
  recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
  recipe.design.scale = 1;
  recipe.design.name = "doomed";
  recipe.target_ghz = 1.0;
  recipe.seed = 13;
  recipe.knobs.set(mf::FlowStep::Floorplan, "utilization", "0.95");  // hard route
  recipe.cancel = token;
  // A stand-in guard verdict: STOP (and cancel) at the third route iteration.
  std::atomic<int> calls{0};
  recipe.route_monitor = [&](int, double, double) {
    if (++calls >= 3) {
      token.request_cancel();
      return false;
    }
    return true;
  };

  auto doomed = pool.submit(
      "doomed_flow", recipe.seed,
      [&fm, recipe](mx::RunContext&) { return fm.run(recipe); }, token);
  // Queued behind the doomed run on the single license: must still execute
  // once cancellation releases the license.
  auto after = pool.submit("after", 1, [](mx::RunContext&) { return 42; });

  const mf::FlowResult res = doomed.get();
  EXPECT_EQ(res.failed_step, "cancelled");
  EXPECT_FALSE(res.completed);
  EXPECT_FALSE(res.success());
  EXPECT_GE(calls.load(), 3);
  EXPECT_EQ(after.get(), 42);

  EXPECT_EQ(pool.journal().count(mx::RunState::Cancelled), 1u);
  EXPECT_EQ(pool.journal().count(mx::RunState::Completed), 1u);
  EXPECT_EQ(pool.licenses_in_use(), 0u);
  const auto snap = pool.journal().snapshot();
  EXPECT_EQ(snap[0].state, mx::RunState::Cancelled);
  EXPECT_GT(snap[0].wall_ms(), 0.0);  // it ran (partially) before cancelling
}

// --------------------------------------------------- journal -> metrics

TEST(JournalMetricsBridge, TransmitJournalFlattensRuns) {
  mx::RunExecutor pool{{.threads = 2}};
  std::vector<mx::RoundJob<std::size_t>> jobs(6);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "bridge#" + std::to_string(i);
    jobs[i].body = [i](mx::RunContext&) { return i; };
  }
  mx::dispatch_round(pool, std::move(jobs));

  maestro::metrics::Server server;
  maestro::metrics::Transmitter tx{server};
  const std::size_t n = tx.transmit_journal(pool.journal());
  EXPECT_EQ(n, 6u);
  const auto execs = server.for_step("exec");
  ASSERT_EQ(execs.size(), 6u);
  for (const auto* r : execs) {
    EXPECT_EQ(r->knobs.at("state"), "completed");
    EXPECT_EQ(r->values.at("cancelled"), 0.0);
    EXPECT_GE(r->values.at("wall_ms"), 0.0);
  }
}

TEST(MetricsServer, ConcurrentSubmitsAreSafe) {
  maestro::metrics::Server server;
  mx::RunExecutor pool{{.threads = 4}};
  std::vector<mx::RoundJob<std::uint64_t>> jobs(64);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "ingest#" + std::to_string(i);
    jobs[i].body = [&server, i](mx::RunContext&) {
      maestro::metrics::Record rec;
      rec.design = "d" + std::to_string(i % 4);
      rec.step = "flow";
      rec.values["i"] = static_cast<double>(i);
      return server.submit(std::move(rec));
    };
  }
  mx::dispatch_round(pool, std::move(jobs));
  EXPECT_EQ(server.size(), 64u);
  std::set<std::uint64_t> ids;
  for (const auto& r : server.all()) ids.insert(r.run_id);
  EXPECT_EQ(ids.size(), 64u);  // unique ids under concurrent submission
}
