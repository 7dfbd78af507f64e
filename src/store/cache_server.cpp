#include "store/cache_server.hpp"

#include <chrono>

#include "metrics/frame.hpp"
#include "obs/registry.hpp"
#include "resil/fault.hpp"

namespace maestro::store {

namespace {

/// The reply to a request the server cannot serve: not a JSON object, an
/// unknown type, or a fingerprint that is not a whole decimal uint64.
constexpr const char* kErrorReply = R"({"type":"error"})";

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ServerCounters {
  obs::Counter& conns;
  obs::Counter& requests;
  obs::Counter& faults;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& expired;
  obs::Counter& evictions;
  obs::Counter& inserts;
};

ServerCounters& server_counters() {
  static ServerCounters c{
      obs::Registry::global().counter("store.server_conns"),
      obs::Registry::global().counter("store.server_requests"),
      obs::Registry::global().counter("store.server_faults"),
      obs::Registry::global().counter("store.server_hits"),
      obs::Registry::global().counter("store.server_misses"),
      obs::Registry::global().counter("store.server_expired"),
      obs::Registry::global().counter("store.server_evictions"),
      obs::Registry::global().counter("store.server_inserts"),
  };
  return c;
}

}  // namespace

CacheServer::CacheServer(RunCache& cache, CacheServerOptions opt)
    : cache_(&cache), opt_(std::move(opt)) {}

CacheServer::~CacheServer() { stop(); }

bool CacheServer::start() {
  return listener_.start(opt_.socket_path, 16, [this](int fd) { serve_connection(fd); });
}

void CacheServer::stop() { listener_.stop(); }

void CacheServer::serve_connection(int fd) {
  server_counters().conns.add();
  std::string payload;
  while (true) {
    const int st = metrics::frame::read_frame(fd, opt_.max_frame_bytes, &payload);
    if (st <= 0) return;
    requests_.fetch_add(1, std::memory_order_relaxed);
    server_counters().requests.add();

    // Chaos seam: every request rolls the "store.server" site.
    const auto fault = resil::FaultInjector::decide(
        "store.server", fault_seq_.fetch_add(1, std::memory_order_relaxed));
    if (fault == resil::FaultKind::Crash) {
      // A crashed server mid-request: the connection just dies.
      server_counters().faults.add();
      return;
    }
    if (fault == resil::FaultKind::Hang) {
      server_counters().faults.add();
      const auto plan = resil::FaultInjector::plan();
      resil::injected_hang([this] { return !running(); }, plan ? plan->hang_ms() : 25.0);
    }

    const auto doc = util::Json::parse(payload);
    bool close_conn = false;
    std::string reply =
        doc && doc->is_object() ? handle_request(*doc, &close_conn) : kErrorReply;
    if (fault == resil::FaultKind::CorruptResult) {
      // Injected corruption: a framed reply whose payload is not JSON.
      server_counters().faults.add();
      reply = "\x01garbage\x02";
    }
    if (!metrics::frame::write_frame(fd, reply)) return;
    if (close_conn) return;
  }
}

bool CacheServer::cache_lookup(std::uint64_t fp, const std::string& tenant, std::string& out) {
  const double now = steady_ms();
  {
    const std::lock_guard<std::mutex> lock(lru_mu_);
    const auto it = index_.find(fp);
    if (it != index_.end()) {
      const bool expired = opt_.ttl_ms > 0.0 && now - it->second->inserted_ms > opt_.ttl_ms;
      if (!expired) {
        lru_.splice(lru_.begin(), lru_, it->second);  // touch
        ++tenant_hits_[tenant];
        hits_.fetch_add(1, std::memory_order_relaxed);
        server_counters().hits.add();
        out += it->second->result_json;
        return true;
      }
      lru_.erase(it->second);
      index_.erase(it);
      server_counters().expired.add();
    }
  }
  // LRU miss (or expiry): the backing RunCache indexes the durable store
  // and is authoritative; promote its answer so hot entries stay resident.
  if (const auto result = cache_->lookup(fp)) {
    std::string json = flow_result_to_json(*result).dump();
    out += json;
    cache_put(fp, std::move(json));
    const std::lock_guard<std::mutex> lock(lru_mu_);
    ++tenant_hits_[tenant];
    hits_.fetch_add(1, std::memory_order_relaxed);
    server_counters().hits.add();
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  server_counters().misses.add();
  return false;
}

void CacheServer::cache_put(std::uint64_t fp, std::string result_json) {
  const double now = steady_ms();
  const std::lock_guard<std::mutex> lock(lru_mu_);
  const auto it = index_.find(fp);
  if (it != index_.end()) {
    it->second->result_json = std::move(result_json);
    it->second->inserted_ms = now;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{fp, std::move(result_json), now});
  index_[fp] = lru_.begin();
  if (opt_.max_entries > 0) {
    while (lru_.size() > opt_.max_entries) {
      index_.erase(lru_.back().fingerprint);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      server_counters().evictions.add();
    }
  }
}

std::string CacheServer::handle_request(const util::Json& req, bool* close_conn) {
  const std::string& type = req.at("type").as_string();
  util::JsonObject reply;
  if (type == "lookup") {
    const auto fp = u64_from_json(req.at("fp"));
    if (!fp) return kErrorReply;
    static const std::string kDefaultTenant = "default";
    const std::string& tenant =
        req.at("tenant").is_string() ? req.at("tenant").as_string() : kDefaultTenant;
    // A hit splices the stored bytes into the reply; the keys of
    // {"result":R,"type":"hit"} sort in this order, so the bytes are the
    // ones dumping that object would give.
    std::string hit = "{\"result\":";
    if (cache_lookup(*fp, tenant, hit)) {
      hit += ",\"type\":\"hit\"}";
      return hit;
    }
    reply["type"] = util::Json{"miss"};
  } else if (type == "insert") {
    const auto fp = u64_from_json(req.at("fp"));
    if (!fp) return kErrorReply;
    // Residency only: the inserting client's local store is the durability
    // rung (in a shared directory its append already reached the WAL; a
    // write-through here would duplicate it). The LRU makes the result
    // visible to every other tenant immediately. The round trip through
    // FlowResult keeps the stored bytes canonical whatever the client sent.
    cache_put(*fp, flow_result_to_json(flow_result_from_json(req.at("result"))).dump());
    inserts_.fetch_add(1, std::memory_order_relaxed);
    server_counters().inserts.add();
    reply["type"] = util::Json{"ok"};
  } else if (type == "stats") {
    reply["type"] = util::Json{"stats"};
    reply["hits"] = util::Json{static_cast<double>(hits())};
    reply["misses"] = util::Json{static_cast<double>(misses())};
    reply["inserts"] = util::Json{static_cast<double>(inserts())};
    reply["evictions"] = util::Json{static_cast<double>(evictions())};
    util::JsonObject tenants;
    {
      const std::lock_guard<std::mutex> lock(lru_mu_);
      reply["entries"] = util::Json{static_cast<double>(lru_.size())};
      for (const auto& [tenant, n] : tenant_hits_) {
        tenants[tenant] = util::Json{static_cast<double>(n)};
      }
    }
    reply["tenants"] = util::Json{std::move(tenants)};
  } else if (type == "bye") {
    *close_conn = true;
    reply["type"] = util::Json{"ack"};
  } else {
    return kErrorReply;
  }
  return util::Json{std::move(reply)}.dump();
}

std::map<std::string, std::uint64_t> CacheServer::tenant_hits() const {
  const std::lock_guard<std::mutex> lock(lru_mu_);
  return tenant_hits_;
}

}  // namespace maestro::store
