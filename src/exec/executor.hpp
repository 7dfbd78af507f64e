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
// one dispatch path, dispatch_round(pool, jobs, resilience): answer the
// jobs with a memo handle from their cache where it can, run each remaining
// fingerprint once (through submit_resilient when ResilOptions are given,
// else submit), wait for all of them, and return each run's value or error
// text in submission order.
// A failed run never throws out of the round; each campaign folds a dead run
// in its own way (a censored pull, a dead branch, a crashed robot).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stop_token>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
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
  template <typename F>
  auto submit(std::string label, std::uint64_t seed, F fn, CancelToken cancel = {},
              std::chrono::steady_clock::time_point deadline = {})
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
    task.body = [slot, fn = std::move(fn)](RunContext& ctx, bool run) mutable -> Outcome {
      if (!run) {
        if (ctx.past_deadline()) {
          slot->error = std::make_exception_ptr(resil::RunTimedOut{});
          return {RunState::TimedOut, "deadline"};
        }
        slot->error = std::make_exception_ptr(RunCancelled{});
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
  template <typename F>
  auto submit_resilient(std::string label, std::uint64_t seed, F fn,
                        resil::ResilOptions opt = {},
                        std::optional<CancelToken> cancel = std::nullopt)
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
        promise.set_exception(s == RunState::TimedOut
                                  ? std::make_exception_ptr(resil::RunTimedOut{})
                                  : std::make_exception_ptr(RunCancelled{}));
      }
    };
    auto st = std::make_shared<State>();
    st->opt = opt;
    st->label = std::move(label);
    st->base_seed = seed;
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

  static std::chrono::steady_clock::duration to_duration(double ms) {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  }

  void enqueue(Task task);
  void worker_loop();
  void timer_loop();
  void acquire_license();
  void release_license();

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
  /// When set, the round memoizes the run under memo->fingerprint() (e.g.
  /// store::KeyedRunCache; see dispatch_round).
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
/// every job goes through submit_resilient, even for default ResilOptions,
/// whose attempt bodies consult the "exec.license" fault site; without it,
/// through submit.
///
/// Memoization: before anything is submitted, every job with a memo handle
/// is looked up, in submission order. A hit settles at once, journaled
/// Completed with note "cache_hit" and zero wall time (counter
/// exec.cache_hits). A miss whose fingerprint matches an earlier miss of the
/// round is not submitted: it takes that twin's outcome, journaled with the
/// twin's terminal state and note "inflight_join" (counter
/// exec.inflight_joins). Any other miss runs and inserts its result unless
/// it was asked to stop: a cancelled or overdue run's partial result must
/// not poison the cache. `Cache` is a copyable handle with
///   std::uint64_t fingerprint(),
///   std::optional<R> lookup(std::uint64_t) and
///   void insert(std::uint64_t, const R&);
/// it is copied into the pooled task, so by-value validity must outlast the
/// run. A tiered handle (store::RemoteRunCache behind a KeyedRunCache) turns
/// a dead cache server into ordinary misses: runs are redone, results never
/// change.
template <typename R, typename Cache>
std::vector<RoundOutcome<R>> dispatch_round(
    RunExecutor& pool, std::vector<RoundJob<R, Cache>> jobs,
    const std::optional<resil::ResilOptions>& resilience = std::nullopt) {
  const std::size_t n = jobs.size();
  std::vector<RoundOutcome<R>> outcomes(n);
  // source[i]: the job whose run answers job i, i itself unless i joins an
  // earlier miss. A hit's value is already in its outcome.
  std::vector<std::size_t> source(n);
  std::iota(source.begin(), source.end(), std::size_t{0});
  if constexpr (!std::is_same_v<Cache, NoMemo>) {
    std::unordered_map<std::uint64_t, std::size_t> first_miss;
    for (std::size_t i = 0; i < n; ++i) {
      auto& memo = jobs[i].memo;
      if (!memo) continue;
      const std::uint64_t fingerprint = memo->fingerprint();
      if (auto hit = memo->lookup(fingerprint)) outcomes[i].value = std::move(*hit);
      else source[i] = first_miss.try_emplace(fingerprint, i).first->second;
    }
  }

  RunJournal& journal = pool.journal();
  std::vector<std::future<R>> futures(n);
  std::vector<std::uint64_t> join_rows(n);
  // Set by a memoized run that was asked to stop: its value is a Cancelled
  // run's partial result, which its joiners' rows must say.
  std::vector<std::shared_ptr<std::atomic<bool>>> stopped(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& job = jobs[i];
    if (outcomes[i].value) {
      journal.on_finish(journal.on_enqueue(std::move(job.label), job.seed),
                        RunState::Completed, "cache_hit");
      obs::Registry::global().counter("exec.cache_hits").add();
      continue;
    }
    if (source[i] != i) {
      join_rows[i] = journal.on_enqueue(std::move(job.label), job.seed);
      obs::Registry::global().counter("exec.inflight_joins").add();
      continue;
    }
    std::function<R(RunContext&)> body = std::move(job.body);
    if constexpr (!std::is_same_v<Cache, NoMemo>) {
      if (job.memo) {
        stopped[i] = std::make_shared<std::atomic<bool>>(false);
        body = [body = std::move(body), memo = std::move(*job.memo),
                stop = stopped[i]](RunContext& ctx) mutable -> R {
          R result = body(ctx);
          if (ctx.should_stop()) stop->store(true);
          else memo.insert(memo.fingerprint(), result);
          return result;
        };
      }
    }
    futures[i] = resilience ? pool.submit_resilient(std::move(job.label), job.seed,
                                                    std::move(body), *resilience, job.cancel)
                            : pool.submit(std::move(job.label), job.seed, std::move(body),
                                          job.cancel.value_or(CancelToken{}));
  }

  std::vector<RunState> states(n, RunState::Completed);
  for (std::size_t i = 0; i < n; ++i) {
    if (!futures[i].valid()) continue;
    // A shared_future holds the run's shared state, and the exception in it,
    // until the error text below is copied. The exception's last release is
    // then ordered by the state's shared_ptr count, which the thread
    // sanitizer sees, and not only by exception_ptr's count inside the
    // uninstrumented runtime (future::get() would drop the state first).
    const std::shared_future<R> result = futures[i].share();
    try {
      outcomes[i].value.emplace(result.get());
      if (stopped[i] && stopped[i]->load()) states[i] = RunState::Cancelled;
    } catch (const std::exception& e) {
      outcomes[i].error = e.what();
      states[i] = dynamic_cast<const resil::RunTimedOut*>(&e) ? RunState::TimedOut
                  : dynamic_cast<const RunCancelled*>(&e)     ? RunState::Cancelled
                                                              : RunState::Failed;
    } catch (...) {
      outcomes[i].error = "unknown error";
      states[i] = RunState::Failed;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (source[i] == i) continue;
    outcomes[i] = outcomes[source[i]];
    journal.on_finish(join_rows[i], states[source[i]], "inflight_join");
  }
  return outcomes;
}

}  // namespace maestro::exec
