#pragma once
// FlowCache decorator shared by the campaign and fleet workloads: times and
// counts every call on an inner cache. With a span log, each call is also a
// span whose parent is read from `parent` at call time, so calls nest under
// whichever driver is running.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "spans.hpp"
#include "store/run_cache.hpp"
#include "workload.hpp"

namespace perfbench {

/// Calls seen by a TimedCache.
struct CacheCalls {
  std::vector<double> lookup_us;
  std::vector<double> insert_us;
  std::size_t hits = 0;

  double hit_ratio() const {
    return lookup_us.empty() ? 0.0 : static_cast<double>(hits) / lookup_us.size();
  }
};

class TimedCache : public maestro::store::FlowCache {
 public:
  explicit TimedCache(maestro::store::FlowCache& inner, SpanLog* log = nullptr,
                      const std::atomic<std::uint64_t>* parent = nullptr)
      : inner_(&inner), log_(log), parent_(parent) {}

  std::optional<maestro::flow::FlowResult> lookup(std::uint64_t fp) override {
    if (!recording_.load(std::memory_order_relaxed)) return inner_->lookup(fp);
    Span span(log_, "store.lookup", parent_id());
    const auto t0 = std::chrono::steady_clock::now();
    auto hit = inner_->lookup(fp);
    const double us = seconds_since(t0) * 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    calls_.lookup_us.push_back(us);
    if (hit) ++calls_.hits;
    return hit;
  }
  void insert(std::uint64_t fp, const maestro::store::RunKey& key,
              const maestro::flow::FlowResult& r) override {
    if (!recording_.load(std::memory_order_relaxed)) return inner_->insert(fp, key, r);
    Span span(log_, "store.insert", parent_id());
    const auto t0 = std::chrono::steady_clock::now();
    inner_->insert(fp, key, r);
    const double us = seconds_since(t0) * 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    calls_.insert_us.push_back(us);
  }

  /// Off: calls pass straight through, untimed. On by default.
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  CacheCalls calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    calls_ = {};
  }

 private:
  std::uint64_t parent_id() const {
    return parent_ != nullptr ? parent_->load(std::memory_order_relaxed) : 0;
  }

  maestro::store::FlowCache* inner_;
  SpanLog* log_;
  const std::atomic<std::uint64_t>* parent_;
  std::atomic<bool> recording_{true};
  mutable std::mutex mu_;
  CacheCalls calls_;
};

}  // namespace perfbench
