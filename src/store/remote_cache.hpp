#pragma once
// RemoteRunCache — a FlowCache that consults a shared CacheServer first and
// degrades gracefully when it can't.
//
// The degradation ladder (each rung strictly weaker, never absent):
//
//   1. remote   — the fleet-wide CacheServer over AF_UNIX, strict per-op
//                 deadline (op_timeout_ms) so a slow/hung server costs a
//                 bounded sliver of latency, never a stall;
//   2. local    — the fallback FlowCache (normally a store-backed RunCache),
//                 so this process still reuses everything it has seen;
//   3. memory   — an internal map when no fallback was given, so inserts
//                 are never dropped even with no store at all.
//
// A send or receive that fails on a live connection (a timeout or a short
// frame) is retried once: the client reconnects at once and resends the op,
// which is safe because lookup and insert are both idempotent, so a server
// that was slow for one reply costs one reconnect, not an error. A failed
// remote op (connect refused, no reply after that retry, garbage reply)
// drops the connection and schedules a reconnect with exponential backoff
// (resil::RetryPolicy — the same policy shape the executor uses for flaky
// tools). The schedule is consulted inline and never blocks: between
// attempts every op goes straight to the local rung. After max_attempts
// consecutive failures the client gives up on the server for good and runs
// local-only — campaigns finish bitwise-identically either way, because a
// cache tier can only *skip* work, never change a result.
//
// Observability: store.remote_hits / _misses / _errors / _reconnects /
// _retries counters and the store.remote_degraded gauge. A retry that gets
// its reply counts in _reconnects and _retries, not in _errors.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "resil/retry.hpp"
#include "store/run_cache.hpp"

namespace maestro::store {

struct RemoteCacheOptions {
  std::string socket_path;
  /// Hit attribution on the server; "whose past work served whom".
  std::string tenant = "default";
  /// Per-operation send+receive deadline. Keep small: a lookup that beats
  /// this is cheap, one that doesn't is a degradation signal.
  double op_timeout_ms = 50.0;
  /// Reconnect schedule. max_attempts consecutive failures = give up and
  /// run local-only for the rest of this client's life.
  resil::RetryPolicy reconnect{/*max_attempts=*/5, /*backoff_ms=*/20.0};
  std::size_t max_frame_bytes = 1 << 20;
};

class RemoteRunCache : public FlowCache {
 public:
  /// `fallback` is the local rung (normally a store-backed RunCache); it
  /// must outlive this object. Null means rung 3 (in-memory) only.
  explicit RemoteRunCache(RemoteCacheOptions opt, FlowCache* fallback = nullptr);
  ~RemoteRunCache() override;

  RemoteRunCache(const RemoteRunCache&) = delete;
  RemoteRunCache& operator=(const RemoteRunCache&) = delete;

  std::optional<flow::FlowResult> lookup(std::uint64_t fingerprint) override;
  void insert(std::uint64_t fingerprint, const RunKey& key,
              const flow::FlowResult& result) override;

  /// Currently holding a live server connection.
  bool connected() const;
  /// Exhausted the reconnect budget; local-only from here on.
  bool gave_up() const;
  /// Remote lookups answered by the server (this client's view).
  std::uint64_t remote_hits() const;
  std::uint64_t remote_errors() const;
  /// Forget the backoff history and allow reconnecting (tests; also useful
  /// after an operator restarts the server).
  void reset_backoff();

 private:
  using Clock = std::chrono::steady_clock;

  /// Open a fresh connection with the op deadline installed; a refused
  /// connect drops through drop_connection_locked.
  bool connect_locked();
  bool ensure_connected_locked();
  void drop_connection_locked(const char* why);
  /// One request/reply over the live connection, resent once on a fresh
  /// connection if the first exchange fails; nullopt drops the connection
  /// and schedules a reconnect.
  std::optional<util::Json> request_locked(const std::string& payload);

  RemoteCacheOptions opt_;
  FlowCache* fallback_;
  mutable std::mutex mu_;
  int fd_ = -1;
  int failed_attempts_ = 0;
  Clock::time_point next_retry_{};
  bool gave_up_ = false;
  std::uint64_t remote_hits_ = 0;
  std::uint64_t remote_errors_ = 0;
  std::unordered_map<std::uint64_t, flow::FlowResult> memory_;  ///< rung 3
};

}  // namespace maestro::store
