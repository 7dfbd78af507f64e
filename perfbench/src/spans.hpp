#pragma once
// In-memory spans the benchmark records around the public calls it makes.
// Each span has a name, start, end, parent and run id; the log is written
// out once the workload ends. A Span built with a null log records nothing,
// so one code path serves both untraced and traced runs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t run = 0;     ///< spans of one unit of work share it
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;

  double ms() const { return (end_us - start_us) / 1000.0; }
  Interval interval() const { return {start_us, end_us}; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  void add(SpanRecord rec) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
  }
  /// Durations in ms of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.ms());
    }
    return out;
  }

  /// Self time in ms of every span called `name`: its duration minus the
  /// union of its direct children's intervals.
  std::vector<double> self_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto& parent : spans_) {
      if (parent.name != name) continue;
      std::vector<Interval> children;
      for (const auto& s : spans_) {
        if (s.parent == parent.id) children.push_back(s.interval());
      }
      out.push_back(self_time(parent.interval(), std::move(children)) / 1000.0);
    }
    return out;
  }

  /// One JSON object per line: id, parent, run, name, start_us, end_us.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"run\":" << s.run
          << ",\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
          << ",\"end_us\":" << s.end_us << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: starts at construction, records at end() or destruction.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t parent = 0, std::uint64_t run = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    rec_.id = log_->next_id();
    rec_.parent = parent;
    rec_.run = run;
    rec_.name = name;
    rec_.start_us = log_->now_us();
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id, to pass as a child's parent; 0 when not recording.
  std::uint64_t id() const { return rec_.id; }

  void end() {
    if (log_ == nullptr) return;
    rec_.end_us = log_->now_us();
    log_->add(std::move(rec_));
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  SpanRecord rec_;
};

}  // namespace perfbench
