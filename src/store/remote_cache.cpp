#include "store/remote_cache.hpp"

#include <unistd.h>

#include "metrics/frame.hpp"
#include "obs/registry.hpp"

namespace maestro::store {

namespace {

std::string lookup_request(std::uint64_t fp, const std::string& tenant) {
  util::JsonObject req;
  req["type"] = util::Json{"lookup"};
  req["fp"] = util::Json{std::to_string(fp)};
  req["tenant"] = util::Json{tenant};
  return util::Json{std::move(req)}.dump();
}

std::string insert_request(std::uint64_t fp, const RunKey& key,
                           const flow::FlowResult& result, const std::string& tenant) {
  util::JsonObject req;
  req["type"] = util::Json{"insert"};
  req["fp"] = util::Json{std::to_string(fp)};
  req["key"] = run_key_to_json(key);
  req["result"] = flow_result_to_json(result);
  req["tenant"] = util::Json{tenant};
  return util::Json{std::move(req)}.dump();
}

struct RemoteCounters {
  obs::Counter& errors;
  obs::Counter& reconnects;
  obs::Counter& retries;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& cache_hit;
  obs::Counter& cache_miss;
  obs::Counter& cache_insert;
  obs::Gauge& degraded;
};

RemoteCounters& remote_counters() {
  static RemoteCounters c{
      obs::Registry::global().counter("store.remote_errors"),
      obs::Registry::global().counter("store.remote_reconnects"),
      obs::Registry::global().counter("store.remote_retries"),
      obs::Registry::global().counter("store.remote_hits"),
      obs::Registry::global().counter("store.remote_misses"),
      obs::Registry::global().counter("store.cache_hit"),
      obs::Registry::global().counter("store.cache_miss"),
      obs::Registry::global().counter("store.cache_insert"),
      obs::Registry::global().gauge("store.remote_degraded"),
  };
  return c;
}

/// Send one request frame and read one reply frame; false when either side
/// fails (timeout, short frame, closed connection).
bool exchange(int fd, const std::string& payload, std::size_t max_frame_bytes,
              std::string* reply) {
  return metrics::frame::write_frame(fd, payload) &&
         metrics::frame::read_frame(fd, max_frame_bytes, reply) == 1;
}

}  // namespace

RemoteRunCache::RemoteRunCache(RemoteCacheOptions opt, FlowCache* fallback)
    : opt_(std::move(opt)), fallback_(fallback) {
  if (opt_.reconnect.max_attempts < 1) opt_.reconnect.max_attempts = 1;
}

RemoteRunCache::~RemoteRunCache() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    metrics::frame::write_frame(fd_, "{\"type\":\"bye\"}");
    ::close(fd_);
    fd_ = -1;
  }
}

bool RemoteRunCache::connected() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

bool RemoteRunCache::gave_up() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return gave_up_;
}

std::uint64_t RemoteRunCache::remote_hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return remote_hits_;
}

std::uint64_t RemoteRunCache::remote_errors() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return remote_errors_;
}

void RemoteRunCache::reset_backoff() {
  const std::lock_guard<std::mutex> lock(mu_);
  failed_attempts_ = 0;
  next_retry_ = Clock::time_point{};
  gave_up_ = false;
  remote_counters().degraded.set(0.0);
}

void RemoteRunCache::drop_connection_locked(const char* why) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ++remote_errors_;
  remote_counters().errors.add();
  ++failed_attempts_;
  if (failed_attempts_ >= opt_.reconnect.max_attempts) {
    if (!gave_up_) {
      std::fprintf(stderr,
                   "[maestro::store] cache server %s unusable (%s) after %d "
                   "attempts; continuing with the local cache only\n",
                   opt_.socket_path.c_str(), why, failed_attempts_);
    }
    gave_up_ = true;
  } else {
    const double backoff = opt_.reconnect.backoff_for(failed_attempts_);
    next_retry_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(backoff));
  }
  remote_counters().degraded.set(1.0);
}

bool RemoteRunCache::connect_locked() {
  const int fd = metrics::frame::connect_unix(opt_.socket_path);
  if (fd < 0) {
    drop_connection_locked("connect failed");
    return false;
  }
  metrics::frame::set_io_timeout(fd, opt_.op_timeout_ms);
  fd_ = fd;
  remote_counters().reconnects.add();
  return true;
}

bool RemoteRunCache::ensure_connected_locked() {
  if (fd_ >= 0) return true;
  if (gave_up_ || opt_.socket_path.empty()) return false;
  // Non-blocking schedule: between retries every op goes local. No sleeps.
  if (Clock::now() < next_retry_) return false;
  if (!connect_locked()) return false;
  failed_attempts_ = 0;
  next_retry_ = Clock::time_point{};
  remote_counters().degraded.set(0.0);
  return true;
}

std::optional<util::Json> RemoteRunCache::request_locked(const std::string& payload) {
  std::string reply;
  if (!exchange(fd_, payload, opt_.max_frame_bytes, &reply)) {
    // A timeout or short frame on a live connection: the server may only
    // have been slow once. Lookup and insert are idempotent, so reconnect
    // once and resend before counting a remote error; the stale connection
    // (and any late reply on it) is discarded.
    ::close(fd_);
    fd_ = -1;
    if (!connect_locked()) return std::nullopt;
    remote_counters().retries.add();
    if (!exchange(fd_, payload, opt_.max_frame_bytes, &reply)) {
      drop_connection_locked("no reply after a reconnect");
      return std::nullopt;
    }
  }
  auto doc = util::Json::parse(reply);
  if (!doc || !doc->is_object()) {
    // Garbage frame: the server is lying to us; stop listening to it.
    drop_connection_locked("garbage reply");
    return std::nullopt;
  }
  return doc;
}

std::optional<flow::FlowResult> RemoteRunCache::lookup(std::uint64_t fingerprint) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (ensure_connected_locked()) {
      if (const auto reply = request_locked(lookup_request(fingerprint, opt_.tenant))) {
        const std::string& type = reply->at("type").as_string();
        if (type == "hit") {
          ++remote_hits_;
          remote_counters().hits.add();
          flow::FlowResult result = flow_result_from_json(reply->at("result"));
          if (!fallback_) memory_[fingerprint] = result;
          return result;
        }
        if (type == "miss") {
          remote_counters().misses.add();
          // fall through to the local rung
        } else {
          drop_connection_locked("unexpected reply");
        }
      }
    }
  }
  if (fallback_) return fallback_->lookup(fingerprint);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = memory_.find(fingerprint);
  if (it != memory_.end()) {
    remote_counters().cache_hit.add();
    return it->second;
  }
  remote_counters().cache_miss.add();
  return std::nullopt;
}

void RemoteRunCache::insert(std::uint64_t fingerprint, const RunKey& key,
                            const flow::FlowResult& result) {
  // Local rung first: an insert must never be lost to a flaky server.
  if (fallback_) {
    fallback_->insert(fingerprint, key, result);
  } else {
    const std::lock_guard<std::mutex> lock(mu_);
    memory_[fingerprint] = result;
    memory_[fingerprint].logs.clear();
    remote_counters().cache_insert.add();
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (!ensure_connected_locked()) return;
  if (const auto reply = request_locked(insert_request(fingerprint, key, result, opt_.tenant))) {
    if (reply->at("type").as_string() != "ok") drop_connection_locked("unexpected reply");
  }
}

}  // namespace maestro::store
