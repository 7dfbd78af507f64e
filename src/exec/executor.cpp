#include "exec/executor.hpp"

#include <cstdlib>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace maestro::exec {

namespace {

/// Registry instrumentation for one finished run: terminal-state counter
/// plus queue-wait / wall-time histograms (always on — runs are coarse, the
/// atomic updates are noise next to a tool run).
void observe_run(const RunRecord& rec) {
  auto& reg = obs::Registry::global();
  switch (rec.state) {
    case RunState::Completed: reg.counter("exec.runs_completed").add(); break;
    case RunState::Cancelled: reg.counter("exec.runs_cancelled").add(); break;
    case RunState::Failed:
      reg.counter("exec.runs_failed").add();
      reg.counter("exec.failures").add();
      break;
    case RunState::TimedOut: reg.counter("exec.timeouts").add(); break;
    default: break;
  }
  reg.histogram("exec.queue_wait_ms").observe(rec.queue_wait_ms());
  reg.histogram("exec.wall_ms").observe(rec.wall_ms());
}

}  // namespace

std::size_t default_thread_count() {
  if (const char* env = std::getenv("MAESTRO_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v >= 1) return v < 256 ? static_cast<std::size_t>(v) : 256;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

RunExecutor::RunExecutor(ExecOptions opt) : opt_(opt) {
  const std::size_t n_threads = opt_.threads > 0 ? opt_.threads : default_thread_count();
  license_total_ = opt_.licenses > 0 ? opt_.licenses : n_threads;
  licenses_free_ = license_total_;
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RunExecutor::~RunExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  // The timer goes first so no retry/watchdog action enqueues work after
  // the workers start draining toward exit. Pending actions are dropped.
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  queue_cv_.notify_all();
  license_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void RunExecutor::schedule_at(std::chrono::steady_clock::time_point tp,
                              std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    if (!timer_started_) {
      timer_ = std::thread([this] { timer_loop(); });
      timer_started_ = true;
    }
    timer_queue_.emplace(tp, std::move(fn));
  }
  timer_cv_.notify_one();
}

void RunExecutor::timer_loop() {
  for (;;) {
    std::vector<std::function<void()>> due;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_) return;
      if (timer_queue_.empty()) {
        timer_cv_.wait(lock, [this] { return stopping_ || !timer_queue_.empty(); });
        continue;
      }
      // Wake early when stopping or when schedule_at() inserts an action
      // due *before* the one this wait was armed for (a short deadline
      // watchdog or backoff retry landing ahead of a long watchdog); loop
      // to recompute the wait target instead of sleeping toward a stale
      // front.
      const auto next = timer_queue_.begin()->first;
      timer_cv_.wait_until(lock, next, [this, next] {
        return stopping_ || timer_queue_.empty() || timer_queue_.begin()->first < next;
      });
      if (stopping_) return;
      const auto now = std::chrono::steady_clock::now();
      while (!timer_queue_.empty() && timer_queue_.begin()->first <= now) {
        due.push_back(std::move(timer_queue_.begin()->second));
        timer_queue_.erase(timer_queue_.begin());
      }
    }
    for (auto& fn : due) fn();
  }
}

std::size_t RunExecutor::licenses_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return license_total_ - licenses_free_;
}

void RunExecutor::enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void RunExecutor::acquire_license() {
  std::unique_lock<std::mutex> lock(mu_);
  license_cv_.wait(lock, [this] { return licenses_free_ > 0; });
  --licenses_free_;
}

void RunExecutor::release_license() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++licenses_free_;
  }
  license_cv_.notify_one();
}

void RunExecutor::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }

    RunContext ctx;
    ctx.run_id = task.run_id;
    ctx.seed = task.seed;
    ctx.cancel = task.cancel;
    ctx.deadline = task.deadline;

    // Cancelled (or timed out) while queued: skip without consuming a
    // license — the whole point of guard-driven cancellation is returning
    // capacity to the pool early. The body decides Cancelled vs TimedOut.
    if (ctx.should_stop()) {
      Outcome skipped = task.body(ctx, /*run=*/false);
      observe_run(journal_.on_finish(task.run_id, skipped.state, std::move(skipped.note)));
      task.deliver();
      continue;
    }

    {
      // License stalls are a first-class observable: this span is where
      // scheduler arms wait when the pool is licence-bound.
      obs::Span wait_span("license_wait", "exec");
      acquire_license();
    }
    if (obs::Tracer* t = obs::Tracer::current()) {
      t->counter("exec.licenses_in_use", static_cast<double>(licenses_in_use()), "exec");
    }
    // Re-check: cancellation may have landed while waiting for a license.
    if (ctx.should_stop()) {
      release_license();
      Outcome skipped = task.body(ctx, /*run=*/false);
      observe_run(journal_.on_finish(task.run_id, skipped.state, std::move(skipped.note)));
      task.deliver();
      continue;
    }

    journal_.on_start(task.run_id);
    Outcome outcome;
    {
      obs::Span run_span("run", "exec");
      run_span.arg("label", task.label).arg("seed", static_cast<double>(task.seed));
      outcome = task.body(ctx, /*run=*/true);
    }
    release_license();
    if (obs::Tracer* t = obs::Tracer::current()) {
      t->counter("exec.licenses_in_use", static_cast<double>(licenses_in_use()), "exec");
    }
    const RunRecord rec = journal_.on_finish(task.run_id, outcome.state, std::move(outcome.note));
    observe_run(rec);
    task.deliver();
  }
}

}  // namespace maestro::exec
