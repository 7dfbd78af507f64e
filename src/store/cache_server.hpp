#pragma once
// CacheServer — a shared memoization tier for fleets of flow campaigns.
//
// One process (typically the one that owns the RunStore directory) hosts the
// server; any number of campaign processes attach a RemoteRunCache and ask
// it "has anyone, anywhere, already run this fingerprint?" before paying for
// an execution. This is the paper's §3.3 cross-team reuse story made
// concrete: the store holds every run ever finished, the server fronts it
// with a bounded in-memory LRU, and clients that lose the server degrade to
// their local cache instead of failing (see store/remote_cache.hpp).
//
// Protocol: metrics::frame length-prefixed JSON over AF_UNIX (the exact
// transport the METRICS Collector speaks). Requests and replies:
//
//   {"type":"lookup","fp":"<dec>","tenant":T}  -> {"type":"hit","result":R}
//                                               | {"type":"miss"}
//   {"type":"insert","fp":"<dec>","key":K,
//    "result":R,"tenant":T}                    -> {"type":"ok"}
//   {"type":"stats"}                           -> {"type":"stats",...}
//   {"type":"bye"}                             -> {"type":"ack"} + close
//
// Serialize once: an LRU entry holds its result already serialized
// (flow_result_to_json(r).dump(), built when the entry is inserted or
// promoted from the backing cache), so a hit reply is those bytes spliced
// between {"result": and ,"type":"hit"} — the same bytes as dumping the reply
// object — with no FlowResult copied or re-serialized under the LRU lock.
//
// Eviction: least-recently-used beyond max_entries, plus an optional TTL —
// an expired entry is re-fetched from the backing RunCache (which indexes
// the durable store and is authoritative), so eviction only bounds memory,
// never loses results. Inserts populate the LRU only: the inserting
// client's local store is the durability rung (in a shared directory its
// append already reached the WAL; a server write-through would duplicate
// it). Per-tenant hit counts attribute who is saving whose time.
//
// Chaos: each request consults fault site "store.server" — Crash drops the
// connection, CorruptResult replies with a garbage frame, Hang stalls for
// hang_ms. Clients must survive all three (tests/test_store_fleet.cpp).

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "metrics/frame.hpp"
#include "store/run_cache.hpp"

namespace maestro::store {

struct CacheServerOptions {
  std::string socket_path;
  /// LRU capacity; 0 means unbounded.
  std::size_t max_entries = 4096;
  /// Entry time-to-live in milliseconds; 0 disables expiry.
  double ttl_ms = 0.0;
  std::size_t max_frame_bytes = 1 << 20;
};

class CacheServer {
 public:
  /// Serves `cache` (and through it the durable store). The cache must
  /// outlive the server.
  CacheServer(RunCache& cache, CacheServerOptions opt);
  ~CacheServer();

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  bool start();
  void stop();
  bool running() const { return listener_.running(); }
  const std::string& socket_path() const { return opt_.socket_path; }
  /// Connection threads not yet joined (live plus finished-but-unreaped).
  std::size_t tracked_connections() const { return listener_.tracked_connections(); }

  std::uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t inserts() const { return inserts_.load(std::memory_order_relaxed); }
  std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  /// Hits attributed per tenant, for "whose past work served whom" reports.
  std::map<std::string, std::uint64_t> tenant_hits() const;

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::string result_json;   ///< flow_result_to_json(result).dump()
    double inserted_ms = 0.0;  ///< steady-clock stamp for TTL
  };

  void serve_connection(int fd);
  /// Reply payload for one request; sets *close_conn for "bye".
  std::string handle_request(const util::Json& req, bool* close_conn);
  /// On a hit, appends the serialized result to `out` and returns true.
  bool cache_lookup(std::uint64_t fp, const std::string& tenant, std::string& out);
  void cache_put(std::uint64_t fp, std::string result_json);

  RunCache* cache_;
  CacheServerOptions opt_;

  mutable std::mutex lru_mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::map<std::string, std::uint64_t> tenant_hits_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> fault_seq_{0};
  /// Last: its reader threads use every member above.
  metrics::frame::Listener listener_;
};

}  // namespace maestro::store
