#pragma once
// RunExecutor — the concurrency layer under maestro's orchestration stack.
//
// The paper's orchestration constructs are explicitly concurrent: Fig. 7
// schedules "5 concurrent samples" per bandit iteration, GWTW advances a
// population of optimization threads, and Section 2's N robot engineers are
// "constrained chiefly by compute and license resources". RunExecutor makes
// that real: a fixed-size pool of worker threads fed from a FIFO queue,
// gated by a license semaphore (licenses <= threads models a tool-license
// pool smaller than the machine), with futures-based result collection and
// a RunJournal recording every run's queue wait and wall time.
//
// Determinism contract (enforced by tests/test_exec.cpp): callers derive
// each run's RNG seed from (base seed, run index) via derive_run_seed and
// never share an Rng across pooled work, so results are bitwise identical
// no matter the thread count — MAESTRO_THREADS=1 and =8 produce the same
// samples, in the same order. Resilience preserves the contract: retry
// seeds derive purely from (base seed, attempt).
//
// Cancellation: every run carries a CancelToken. Requesting cancellation
// while the run is queued skips it entirely (the future throws
// RunCancelled); mid-run it is cooperative — the work polls
// RunContext::should_stop() (e.g. the detailed-route iteration loop) and
// returns early, which releases the license and journals the run as
// Cancelled while still delivering the partial result through the future.
//
// Deadlines: a run past its Task::deadline is journaled TimedOut. Plain
// submit() relies on the body polling should_stop(); submit_resilient()
// additionally arms a watchdog on the executor's timer thread that
// requests cancellation at the deadline, so even a body that only polls
// its CancelToken is reeled in, its license released, and the caller's
// future fails fast with resil::RunTimedOut.
//
// Campaign rounds: MabScheduler, FlowTreeSearch, FlowTuner,
// RobotEngineer::run_fleet and opt::go_with_the_winners all share
// one dispatch path, dispatch_round(pool, jobs, resilience): submit a batch
// of runs (through submit_memo when a job has a memo handle, else through
// submit_resilient when ResilOptions are given, else submit), wait for all
// of them, and return each run's value or error text in submission order.
// A failed run never throws out of the round; each campaign folds a dead run
// in its own way (a censored pull, a dead branch, a crashed robot).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/journal.hpp"
#include "obs/registry.hpp"
#include "resil/fault.hpp"
#include "resil/retry.hpp"

namespace maestro::exec {

/// Thrown through the future of a run cancelled before it started.
struct RunCancelled : std::runtime_error {
  RunCancelled() : std::runtime_error("run cancelled before start") {}
};

struct ExecOptions {
  /// Worker threads. 0 = MAESTRO_THREADS env override, else hardware
  /// concurrency (at least 1).
  std::size_t threads = 0;
  /// License semaphore gating admission. 0 = same as threads.
  std::size_t licenses = 0;
};

/// MAESTRO_THREADS env override if set (clamped to [1, 256]), else
/// std::thread::hardware_concurrency(), else 1.
std::size_t default_thread_count();

class RunExecutor {
 public:
  explicit RunExecutor(ExecOptions opt = {});
  /// Joins after draining the queue: queued runs still execute. Pending
  /// timer actions (backoff retries, watchdogs) are dropped, so
  /// destroy the executor only after resilient futures have resolved.
  ~RunExecutor();

  RunExecutor(const RunExecutor&) = delete;
  RunExecutor& operator=(const RunExecutor&) = delete;

  std::size_t threads() const { return workers_.size(); }
  std::size_t licenses() const { return license_total_; }
  /// Licenses currently held by running work (for tests / dashboards).
  std::size_t licenses_in_use() const;

  RunJournal& journal() { return journal_; }
  const RunJournal& journal() const { return journal_; }

  /// Submit one run. `fn` is invoked as fn(RunContext&) on a worker thread
  /// once a license is available; the returned future carries its result.
  /// `on_abort`, if set, fires when the run is skipped without ever invoking
  /// `fn` (cancelled or past its deadline while still queued) with the
  /// terminal state and the exception the future will deliver — submit_memo
  /// uses it to settle in-flight joiners that never see the body run.
  template <typename F>
  auto submit(std::string label, std::uint64_t seed, F fn, CancelToken cancel = {},
              std::chrono::steady_clock::time_point deadline = {},
              std::function<void(RunState, std::exception_ptr)> on_abort = {})
      -> std::future<std::invoke_result_t<F&, RunContext&>> {
    using R = std::invoke_result_t<F&, RunContext&>;
    static_assert(!std::is_void_v<R>, "pooled runs must return a result");
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> fut = promise->get_future();
    // The worker journals the final state *before* deliver() resolves the
    // future, so a caller unblocked by get() always observes the run's
    // terminal journal entry. The body therefore parks the result here
    // instead of fulfilling the promise itself.
    struct Slot {
      std::optional<R> value;
      std::exception_ptr error;
    };
    auto slot = std::make_shared<Slot>();
    Task task;
    task.label = label;
    task.run_id = journal_.on_enqueue(std::move(label), seed);
    task.seed = seed;
    task.cancel = cancel;
    task.deadline = deadline;
    task.body = [slot, fn = std::move(fn),
                 on_abort = std::move(on_abort)](RunContext& ctx, bool run) mutable -> Outcome {
      if (!run) {
        if (ctx.past_deadline()) {
          slot->error = std::make_exception_ptr(resil::RunTimedOut{});
          if (on_abort) on_abort(RunState::TimedOut, slot->error);
          return {RunState::TimedOut, "deadline"};
        }
        slot->error = std::make_exception_ptr(RunCancelled{});
        if (on_abort) on_abort(RunState::Cancelled, slot->error);
        return {RunState::Cancelled, {}};
      }
      try {
        slot->value.emplace(fn(ctx));
      } catch (const std::exception& e) {
        slot->error = std::current_exception();
        return {RunState::Failed, e.what()};
      } catch (...) {
        slot->error = std::current_exception();
        return {RunState::Failed, "unknown error"};
      }
      if (ctx.past_deadline()) return {RunState::TimedOut, "deadline"};
      return {ctx.cancel.cancelled() ? RunState::Cancelled : RunState::Completed, {}};
    };
    // The error moves into the future's shared state, so the worker keeps no
    // reference of its own to drop after the caller has read it (see
    // dispatch_round).
    task.deliver = [slot, promise]() {
      if (slot->error) promise->set_exception(std::move(slot->error));
      else promise->set_value(std::move(*slot->value));
    };
    enqueue(std::move(task));
    return fut;
  }

  /// Submit one *logical* run with retry and deadline enforcement
  /// (resil::ResilOptions). Each attempt is a normal pooled run whose seed
  /// derives from (seed, attempt) via resil::retry_seed; a failed attempt
  /// journals Failed and, while attempts remain, schedules a retry (after
  /// the policy's backoff, on the timer thread). A retry starts only after
  /// its predecessor failed, so a logical run has at most one live attempt.
  /// A deadline arms a watchdog that cancels the live attempt and fails the
  /// returned future with resil::RunTimedOut; the overdue run is journaled
  /// TimedOut by the worker when it yields, releasing its license. The
  /// result type must be copy-constructible. The attempt body also consults
  /// the fault injector at site "exec.license" so injected license drops
  /// exercise the retry path.
  ///
  /// `cancel`, when provided, is the *caller's* token for the logical run: a
  /// std::stop_callback on it cancels the live attempt, stops further
  /// retries and fails the returned future with RunCancelled. The callback
  /// runs on the thread that requests cancellation (or here, when the token
  /// is already cancelled, in which case no attempt is submitted).
  ///
  /// `on_fail`, if set, fires exactly once if the logical run settles with
  /// an exception — (Failed, exhausted retries' error), (TimedOut,
  /// RunTimedOut) or (Cancelled, RunCancelled) — *before* the returned
  /// future observes it, so any bookkeeping it does (submit_memo settles
  /// in-flight joiners and releases cancelled fingerprints) is consistent
  /// by the time the caller unblocks.
  template <typename F>
  auto submit_resilient(std::string label, std::uint64_t seed, F fn,
                        resil::ResilOptions opt = {},
                        std::optional<CancelToken> cancel = std::nullopt,
                        std::function<void(RunState, std::exception_ptr)> on_fail = {})
      -> std::future<std::invoke_result_t<F&, RunContext&>> {
    using R = std::invoke_result_t<F&, RunContext&>;
    static_assert(std::is_copy_constructible_v<R>,
                  "resilient runs copy the result into the promise");
    using Clock = std::chrono::steady_clock;
    struct State {
      std::mutex mu;
      std::promise<R> promise;
      bool settled = false;
      CancelToken attempt;  ///< the live attempt's token
      resil::ResilOptions opt;
      std::string label;
      std::uint64_t base_seed = 0;
      Clock::time_point deadline{};
      /// Invoked once, after the promise settles with an exception.
      std::function<void(RunState, std::exception_ptr)> on_fail;
      /// Aborts the run when the caller's token is cancelled.
      std::optional<std::stop_callback<std::function<void()>>> on_cancel;

      bool is_settled() {
        std::lock_guard<std::mutex> lk(mu);
        return settled;
      }
      /// Claims the right to settle the promise; false once it is taken.
      bool try_settle() {
        std::lock_guard<std::mutex> lk(mu);
        if (settled) return false;
        settled = true;
        return true;
      }
      /// Settles with RunTimedOut or RunCancelled and cancels the live
      /// attempt. The token is cancelled outside `mu`: that runs any
      /// stop_callback registered on it synchronously.
      void abort(RunState s) {
        std::unique_lock<std::mutex> lk(mu);
        if (settled) return;
        settled = true;
        const CancelToken live = attempt;
        lk.unlock();
        live.request_cancel();
        const auto err = s == RunState::TimedOut ? std::make_exception_ptr(resil::RunTimedOut{})
                                                 : std::make_exception_ptr(RunCancelled{});
        if (on_fail) on_fail(s, err);
        promise.set_exception(err);
      }
    };
    auto st = std::make_shared<State>();
    st->opt = opt;
    st->label = std::move(label);
    st->base_seed = seed;
    st->on_fail = std::move(on_fail);
    if (opt.deadline_ms > 0.0) st->deadline = Clock::now() + to_duration(opt.deadline_ms);
    std::future<R> fut = st->promise.get_future();
    if (cancel) {
      // Weak, so the State does not own itself through its own callback.
      st->on_cancel.emplace(cancel->stop_token(), [wst = std::weak_ptr<State>(st)] {
        if (auto s = wst.lock()) s->abort(RunState::Cancelled);
      });
    }

    // Recursive launcher. It captures itself weakly — the strong refs live
    // in the attempt bodies and pending timer actions, so the closure chain
    // is released once the last attempt finishes (no shared_ptr cycle).
    using Launch = std::function<void(int)>;
    auto launch = std::make_shared<Launch>();
    *launch = [this, st, fn = std::move(fn),
               wlaunch = std::weak_ptr<Launch>(launch)](int attempt) mutable {
      auto self = wlaunch.lock();
      if (!self) return;
      CancelToken token;
      {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->settled) return;
        st->attempt = token;
      }
      std::string attempt_label = st->label;
      if (attempt > 0) attempt_label += "~retry" + std::to_string(attempt);

      auto body = [this, st, fn, self, attempt](RunContext& ctx) mutable -> R {
        std::exception_ptr exhausted_error;
        std::string exhausted_what = "unknown error";
        try {
          if (resil::FaultInjector::decide("exec.license", ctx.seed) ==
              resil::FaultKind::LicenseDrop) {
            obs::Registry::global().counter("resil.fault_license_drop").add();
            throw resil::LicenseDropped{"exec.license"};
          }
          R value = fn(ctx);
          // A cancelled or overdue attempt never settles: abort() owns the
          // promise. The worker journals it Cancelled / TimedOut.
          if (!ctx.should_stop() && st->try_settle()) st->promise.set_value(value);
          return value;
        } catch (...) {
          if (ctx.past_deadline()) throw;  // the watchdog settles the run
          const int next = attempt + 1;
          if (next < st->opt.retry.max_attempts) {
            if (!st->is_settled()) {
              obs::Registry::global().counter("exec.retries").add();
              const double backoff = st->opt.retry.backoff_for(next);
              if (backoff <= 0.0) {
                (*self)(next);
              } else {
                this->schedule_at(Clock::now() + to_duration(backoff),
                                  [self, next] { (*self)(next); });
              }
            }
            throw;  // journal this attempt as Failed
          }
          if (!st->try_settle()) throw;
          exhausted_error = std::current_exception();
          try {
            throw;
          } catch (const std::exception& e) {
            exhausted_what = e.what();
          } catch (...) {
          }
        }
        // Out of options: the caller gets the exception. It may free it as
        // soon as the promise settles, so this worker settles outside the
        // handler, hands over its only reference, and journals the attempt
        // from the text it copied before.
        if (st->on_fail) st->on_fail(RunState::Failed, exhausted_error);
        st->promise.set_exception(std::move(exhausted_error));
        throw std::runtime_error(exhausted_what);  // journal this attempt as Failed
      };
      this->submit(std::move(attempt_label), resil::retry_seed(st->base_seed, attempt),
                   std::move(body), token, st->deadline);
    };

    (*launch)(0);
    if (opt.deadline_ms > 0.0) {
      schedule_at(st->deadline, [st] { st->abort(RunState::TimedOut); });
    }
    return fut;
  }

  /// Cache-aware dispatch: consult a content-addressed result cache before
  /// queueing. On a hit the future resolves immediately with the memoized
  /// result — no license, no worker — and the journal records the run as
  /// Completed with note "cache_hit" (zero wall time). On a miss the run
  /// dispatches normally (with `deadline`, and under `resilience` via
  /// submit_resilient when any of its knobs are set) and, unless it was
  /// cancelled mid-run (partial results must not poison the cache),
  /// memoizes its result on completion.
  ///
  /// Duplicate fingerprints submitted while the first is still in flight
  /// join the first run (counter exec.inflight_joins) instead of burning a
  /// license on a duplicate execution. A join returns a promise-backed
  /// future (wait_for/wait_until behave normally) settled when the
  /// underlying run resolves, and is journaled at that point with the run's
  /// *terminal* state — Completed, Failed, TimedOut or Cancelled — under
  /// note "inflight_join". The caller's token and the first run's
  /// resilience policy both stay live: cancelling the first submission's
  /// token settles joiners too. All submissions of one fingerprint must
  /// share a result type (enforced: a mismatch throws std::logic_error). A
  /// fingerprint whose resilient run exhausted its retries or timed out
  /// keeps its settled entry, so later joiners observe the same error;
  /// cancelled runs release the fingerprint for a later re-run.
  ///
  /// `Cache` is any copyable handle with
  ///   std::optional<R> lookup(std::uint64_t) and
  ///   void insert(std::uint64_t, const R&)
  /// (e.g. store::KeyedRunCache). It is copied into the pooled task, so by-
  /// value validity must outlast the run. The handle may itself be tiered:
  /// wrapping a store::RemoteRunCache consults the fleet-wide CacheServer
  /// before the local store, and its degradation ladder (remote → local →
  /// in-memory) means a dead or partitioned server turns into ordinary
  /// misses here — executions are re-done, results never change.
  template <typename Cache, typename F>
  auto submit_memo(std::string label, std::uint64_t seed, std::uint64_t fingerprint,
                   Cache cache, F fn, CancelToken cancel = {},
                   std::chrono::steady_clock::time_point deadline = {},
                   resil::ResilOptions resilience = {})
      -> std::future<std::invoke_result_t<F&, RunContext&>> {
    using R = std::invoke_result_t<F&, RunContext&>;
    if (auto hit = cache.lookup(fingerprint)) {
      const std::uint64_t run_id = journal_.on_enqueue(std::move(label), seed);
      journal_.on_finish(run_id, RunState::Completed, "cache_hit");
      obs::Registry::global().counter("exec.cache_hits").add();
      std::promise<R> ready;
      ready.set_value(std::move(*hit));
      return ready.get_future();
    }
    std::unique_lock<std::mutex> memo_lock(memo_mu_);
    if (auto it = memo_inflight_.find(fingerprint); it != memo_inflight_.end()) {
      if (it->second.type != std::type_index(typeid(R))) {
        throw std::logic_error(
            "submit_memo: fingerprint resubmitted with a different result type");
      }
      auto entry = std::static_pointer_cast<MemoEntry<R>>(it->second.entry);
      memo_lock.unlock();
      const std::uint64_t run_id = journal_.on_enqueue(std::move(label), seed);
      obs::Registry::global().counter("exec.inflight_joins").add();
      return entry->join(run_id, journal_);
    }
    auto entry = std::make_shared<MemoEntry<R>>();
    memo_inflight_.emplace(fingerprint,
                           MemoSlot{entry, std::type_index(typeid(R))});
    memo_lock.unlock();

    const bool single_shot = !resilience.enabled();
    auto wrapped = [this, cache = std::move(cache), fingerprint, fn = std::move(fn),
                    single_shot, entry](RunContext& ctx) mutable -> R {
      try {
        R result = fn(ctx);
        if (!ctx.should_stop()) {
          cache.insert(fingerprint, result);
          entry->settle_value(RunState::Completed, result, this->journal_);
          this->memo_erase(fingerprint);
        } else if (single_shot) {
          // Partial result: joiners receive it (same as the submitter) but
          // the fingerprint is released so a later submission re-runs.
          entry->settle_value(
              ctx.past_deadline() ? RunState::TimedOut : RunState::Cancelled, result,
              this->journal_);
          this->memo_erase(fingerprint);
        }
        return result;
      } catch (...) {
        if (single_shot) {
          entry->settle_error(RunState::Failed, std::current_exception(),
                              this->journal_);
          this->memo_erase(fingerprint);
        }
        throw;
      }
    };
    if (!single_shot) {
      if (deadline != std::chrono::steady_clock::time_point{} &&
          resilience.deadline_ms <= 0.0) {
        const double remaining = std::chrono::duration<double, std::milli>(
                                     deadline - std::chrono::steady_clock::now())
                                     .count();
        resilience.deadline_ms = remaining > 0.0 ? remaining : 0.001;
      }
      // Terminal resilient failures (exhausted retries, deadline expiry,
      // caller cancellation) settle joiners with the same exception. Only
      // cancellation frees the fingerprint — Failed/TimedOut entries stay
      // so later joiners share the error instead of re-crashing.
      auto on_fail = [this, entry, fingerprint](RunState s, std::exception_ptr e) {
        entry->settle_error(s, e, this->journal_);
        if (s == RunState::Cancelled) this->memo_erase(fingerprint);
      };
      return submit_resilient(std::move(label), seed, std::move(wrapped), resilience,
                              cancel, std::move(on_fail));
    }
    // Skipped-while-queued runs (cancel or deadline) never invoke `wrapped`,
    // so the abort hook settles joiners and releases the fingerprint.
    auto on_abort = [this, entry, fingerprint](RunState s, std::exception_ptr e) {
      entry->settle_error(s, e, this->journal_);
      this->memo_erase(fingerprint);
    };
    return submit(std::move(label), seed, std::move(wrapped), std::move(cancel), deadline,
                  std::move(on_abort));
  }

  /// Run `fn` on the executor's timer thread at (or shortly after) `tp`.
  /// Used by the resilience layer for deadline watchdogs and backoff-delayed
  /// retries; dropped if the executor is stopping.
  void schedule_at(std::chrono::steady_clock::time_point tp, std::function<void()> fn);

 private:
  /// Final state plus the journal note (error text for Failed runs).
  struct Outcome {
    RunState state = RunState::Completed;
    std::string note;
  };

  struct Task {
    std::uint64_t run_id = 0;
    std::string label;  ///< for the run's trace span
    std::uint64_t seed = 0;
    CancelToken cancel;
    std::chrono::steady_clock::time_point deadline{};
    /// Invoked with run=true to execute (returns the final outcome) or
    /// run=false to park the cancelled/timed-out-before-start exception.
    std::function<Outcome(RunContext&, bool run)> body;
    /// Resolves the caller's future from the parked result; called after
    /// the journal records the terminal state.
    std::function<void()> deliver;
  };

  /// One in-flight memoized run. Joiners park a promise here; whichever
  /// settle path resolves the run first (worker success, failure, skip
  /// abort, resilient on_fail) fulfils every parked promise with the
  /// terminal value/error and journals each joiner's row with the run's
  /// real terminal state, note "inflight_join". Settling is idempotent —
  /// the first settle wins, later calls are no-ops — and after `done` the
  /// value/error/state fields are immutable, so post-settle joins read them
  /// without re-locking hazards.
  template <typename R>
  struct MemoEntry {
    struct Waiter {
      std::promise<R> promise;
      std::uint64_t run_id = 0;
    };

    std::mutex mu;
    bool done = false;
    RunState state = RunState::Completed;
    std::optional<R> value;
    std::exception_ptr error;
    std::vector<Waiter> waiters;

    void settle_value(RunState s, const R& v, RunJournal& journal) {
      std::vector<Waiter> pending;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (done) return;
        done = true;
        state = s;
        value = v;
        pending.swap(waiters);
      }
      for (auto& w : pending) {
        journal.on_finish(w.run_id, s, "inflight_join");
        w.promise.set_value(*value);
      }
    }

    void settle_error(RunState s, std::exception_ptr e, RunJournal& journal) {
      std::vector<Waiter> pending;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (done) return;
        done = true;
        state = s;
        error = e;
        pending.swap(waiters);
      }
      for (auto& w : pending) {
        journal.on_finish(w.run_id, s, "inflight_join");
        w.promise.set_exception(error);
      }
    }

    /// Promise-backed join: ready immediately when already settled, else
    /// parked until a settle path fires.
    std::future<R> join(std::uint64_t run_id, RunJournal& journal) {
      std::unique_lock<std::mutex> lk(mu);
      if (done) {
        lk.unlock();
        journal.on_finish(run_id, state, "inflight_join");
        std::promise<R> ready;
        if (error) ready.set_exception(error);
        else ready.set_value(*value);
        return ready.get_future();
      }
      Waiter w;
      w.run_id = run_id;
      std::future<R> fut = w.promise.get_future();
      waiters.push_back(std::move(w));
      return fut;
    }
  };

  /// Type-erased MemoEntry<R> plus the R it was erased from, so a
  /// fingerprint resubmitted with a different result type is detected
  /// instead of being static-cast into undefined behavior.
  struct MemoSlot {
    std::shared_ptr<void> entry;
    std::type_index type;
  };

  static std::chrono::steady_clock::duration to_duration(double ms) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  }

  void enqueue(Task task);
  void worker_loop();
  void timer_loop();
  void acquire_license();
  void release_license();
  void memo_erase(std::uint64_t fingerprint);

  ExecOptions opt_;
  RunJournal journal_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    ///< workers wait for tasks
  std::condition_variable license_cv_;  ///< workers wait for licenses
  std::condition_variable timer_cv_;    ///< timer thread waits for deadlines
  std::deque<Task> queue_;
  std::multimap<std::chrono::steady_clock::time_point, std::function<void()>>
      timer_queue_;  ///< guarded by mu_
  std::size_t license_total_ = 0;
  std::size_t licenses_free_ = 0;
  bool stopping_ = false;
  bool timer_started_ = false;

  std::mutex memo_mu_;
  /// fingerprint -> typed MemoEntry<R> of the in-flight (or terminally
  /// failed resilient) run.
  std::unordered_map<std::uint64_t, MemoSlot> memo_inflight_;

  std::vector<std::thread> workers_;
  std::thread timer_;
};

/// Memo-handle type of a RoundJob that never consults a cache.
struct NoMemo {};

/// One run of a campaign round.
template <typename R, typename Cache = NoMemo>
struct RoundJob {
  std::string label;
  std::uint64_t seed = 0;
  std::function<R(RunContext&)> body;
  /// When set, the run goes through submit_memo keyed by memo->fingerprint()
  /// (e.g. store::KeyedRunCache).
  std::optional<Cache> memo;
  std::optional<CancelToken> cancel;  ///< the caller's token, if any
};

/// What one run of a round produced: its value, or the error that killed it.
template <typename R>
struct RoundOutcome {
  std::optional<R> value;
  std::string error;  ///< what() of the run's exception when !value
};

/// Submit every job, wait for all of them, return their outcomes in
/// submission order; never throws for a failed run. With `resilience` set,
/// jobs without a memo handle go through submit_resilient even for default
/// ResilOptions, whose attempt bodies consult the "exec.license" fault site.
template <typename R, typename Cache>
std::vector<RoundOutcome<R>> dispatch_round(
    RunExecutor& pool, std::vector<RoundJob<R, Cache>> jobs,
    const std::optional<resil::ResilOptions>& resilience = std::nullopt) {
  std::vector<std::future<R>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) {
    const CancelToken cancel = job.cancel.value_or(CancelToken{});
    if constexpr (!std::is_same_v<Cache, NoMemo>) {
      if (job.memo) {
        const std::uint64_t fingerprint = job.memo->fingerprint();
        futures.push_back(pool.submit_memo(std::move(job.label), job.seed, fingerprint,
                                           std::move(*job.memo), std::move(job.body), cancel,
                                           {}, resilience.value_or(resil::ResilOptions{})));
        continue;
      }
    }
    futures.push_back(resilience ? pool.submit_resilient(std::move(job.label), job.seed,
                                                         std::move(job.body), *resilience,
                                                         job.cancel)
                                 : pool.submit(std::move(job.label), job.seed,
                                               std::move(job.body), cancel));
  }
  std::vector<RoundOutcome<R>> outcomes(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    // A shared_future holds the run's shared state, and the exception in it,
    // until the error text below is copied. The exception's last release is
    // then ordered by the state's shared_ptr count, which the thread
    // sanitizer sees, and not only by exception_ptr's count inside the
    // uninstrumented runtime (future::get() would drop the state first).
    const std::shared_future<R> result = futures[i].share();
    try {
      outcomes[i].value.emplace(result.get());
    } catch (const std::exception& e) {
      outcomes[i].error = e.what();
    } catch (...) {
      outcomes[i].error = "unknown error";
    }
  }
  return outcomes;
}

}  // namespace maestro::exec
