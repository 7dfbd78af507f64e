// Workload `fleet`: the shared services with no flows in the timed loop. An
// in-process CacheServer fronts a store seeded with 16,384 FlowResults under
// distinct fingerprints (4x the server's 4,096-entry LRU), and a Collector
// runs beside it. Four closed-loop threads drive them:
//   * 2 RemoteRunCache clients, each with a store-backed RunCache as its
//     local rung: 80% lookups of seeded fingerprints with Zipf popularity,
//     20% new-run pairs (lookup of a fresh fingerprint, then an insert);
//   * 1 RemoteTransmitter streaming records and flushing every 256; each
//     flush waits for the Collector's ack, so at most 256 are in flight;
//   * 1 dashboard polling the Collector's Server through a subscriber,
//     once per millisecond.
//
// Untraced runs measure for --seconds. The traced run measures half the
// time untraced (the overhead baseline) and half with spans around every
// client call, plus a timing decorator on each client's local rung.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/collector.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "store/cache_server.hpp"
#include "store/remote_cache.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "timed_cache.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace store = maestro::store;
namespace mm = maestro::metrics;
using maestro::flow::FlowResult;

constexpr std::size_t kSeeded = 16384;
constexpr std::size_t kLruEntries = 4096;
constexpr std::size_t kTemplates = 16;
constexpr std::size_t kClients = 2;
constexpr double kLookupShare = 0.8;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kFlushEvery = 256;  ///< records in flight, at most
constexpr std::size_t kRecordStreams = 16;  ///< distinct designs, so records spread over shards
constexpr std::uint64_t kSubmitSpanEvery = 64;  ///< traced: one submit span per this many
constexpr double kWarmupSeconds = 1.0;
// Throughput is the median over windows of this length: a batch fsync that
// stalls one window does not decide the run.
constexpr double kWindowSeconds = 0.25;
// Relative to the work directory, so the path fits sun_path wherever the
// checkout lives.
constexpr const char* kCacheSocket = "cache.sock";
constexpr const char* kCollectorSocket = "metrics.sock";

/// 8 shards; `fsync` decides the durability policy. The server's seeded
/// store keeps batch fsync every 64 appends; the clients' local rungs, which
/// take every new-run insert, append without fsync. On the shared build host
/// fsync latency swung by 3x over minutes and, through the 20% of operations
/// that insert, set the cache clients' throughput; the WAL write itself is
/// still measured.
store::RunStoreOptions store_options(store::FsyncMode fsync) {
  store::RunStoreOptions opt;
  opt.shards = 8;
  opt.fsync = fsync;
  opt.fsync_batch = 64;
  return opt;
}

/// Real flow outputs to seed from: small random-logic designs through
/// FlowManager::run. Each seeded entry is one template with its modelled
/// turnaround shifted by the entry index, so every payload is distinct.
std::vector<FlowResult> make_templates(std::uint64_t seed) {
  const maestro::netlist::CellLibrary lib = maestro::netlist::make_default_library();
  const maestro::flow::FlowManager manager{lib};
  std::vector<FlowResult> out;
  for (std::size_t i = 0; i < kTemplates; ++i) {
    maestro::flow::FlowRecipe recipe;
    recipe.design.kind = maestro::flow::DesignSpec::Kind::RandomLogic;
    recipe.design.gates_override = 200;
    recipe.design.rtl_seed = mix_seed(seed, 1000 + i);
    recipe.design.name = "fleet" + std::to_string(i);
    recipe.target_ghz = 0.8 + 0.05 * static_cast<double>(i);
    recipe.seed = mix_seed(seed, 2000 + i);
    FlowResult r = manager.run(recipe);
    r.logs.clear();
    out.push_back(std::move(r));
  }
  return out;
}

FlowResult payload(const std::vector<FlowResult>& templates, std::uint64_t index) {
  FlowResult r = templates[index % templates.size()];
  r.tat_minutes += static_cast<double>(index);
  return r;
}

store::RunKey seeded_key(std::uint64_t seed, std::uint64_t index) {
  store::RunKey key;
  key.design = "fleet";
  key.set("entry", static_cast<double>(index));
  key.seed = seed;
  return key;
}

/// Zipf(s) over ranks 1..n, with ranks mapped to entries through a seeded
/// permutation so popular entries are spread over the store's shards.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, double s, std::uint64_t seed) : cdf_(n), entry_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    for (std::size_t k = 0; k < n; ++k) entry_[k] = k;
    maestro::util::Rng rng{seed};
    for (std::size_t k = n - 1; k > 0; --k) {
      std::swap(entry_[k], entry_[static_cast<std::size_t>(rng.next() % (k + 1))]);
    }
  }
  std::size_t pick(maestro::util::Rng& rng) const {
    const double u = rng.uniform(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return entry_[std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> entry_;
};

/// Order-independent multiset digest: count, sum and xor of per-record
/// FNV hashes.
struct MultisetDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;

  void add(const mm::Record& r) {
    Digest d;
    d.add(r.run_id).add(r.design).add(r.step).add(r.seed);
    for (const auto& [k, v] : r.values) d.add(k).add(v);
    ++count;
    sum += d.value();
    xr ^= d.value() * 0x9e3779b97f4a7c15ULL;
  }
  bool operator==(const MultisetDigest&) const = default;
};

/// One client's local rung and remote cache.
struct Client {
  Client(const std::string& dir, std::size_t index)
      : store(dir, store_options(store::FsyncMode::Off)), local(store), timed(local),
        remote(options(index), &timed) {}
  static store::RemoteCacheOptions options(std::size_t index) {
    store::RemoteCacheOptions opt;
    opt.socket_path = kCacheSocket;
    opt.tenant = "client" + std::to_string(index);
    opt.op_timeout_ms = 50.0;
    return opt;
  }
  store::RunStore store;
  store::RunCache local;
  TimedCache timed;
  store::RemoteRunCache remote;
};

/// Everything set-up builds: the seeded server store, the cache server, the
/// metrics collector and the clients' local stores.
struct Fleet {
  Fleet(const std::string& dir, std::uint64_t seed, const std::vector<FlowResult>& templates)
      : server_store(dir + "/server", store_options(store::FsyncMode::Batch)),
        server_cache(server_store),
        cache_server(server_cache, cache_server_options()), metrics(metrics_options()),
        collector(metrics, {.socket_path = kCollectorSocket}) {
    for (std::uint64_t i = 0; i < kSeeded; ++i) {
      const store::RunKey key = seeded_key(seed, i);
      fingerprints.push_back(key.fingerprint());
      server_cache.insert(fingerprints.back(), key, payload(templates, i));
    }
    started = cache_server.start() && collector.start();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(dir + "/client" + std::to_string(c), c));
    }
  }
  ~Fleet() {
    clients.clear();
    collector.stop();
    cache_server.stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  static store::CacheServerOptions cache_server_options() {
    store::CacheServerOptions opt;
    opt.socket_path = kCacheSocket;
    opt.max_entries = kLruEntries;
    return opt;
  }
  static mm::ServerOptions metrics_options() {
    // Bounded, blocking shards: ingest waits for the dashboard instead of
    // growing memory or dropping records.
    mm::ServerOptions opt;
    opt.shards = 16;
    opt.shard_capacity = 4096;
    opt.overflow = mm::Overflow::Block;
    return opt;
  }

  store::RunStore server_store;
  store::RunCache server_cache;
  store::CacheServer cache_server;
  mm::Server metrics;
  mm::Collector collector;
  std::vector<std::uint64_t> fingerprints;
  std::vector<std::unique_ptr<Client>> clients;
  bool started = false;
};

/// What one measured phase saw.
struct Phase {
  double wall_s = 0.0;
  std::uint64_t cache_ops = 0;
  std::vector<double> window_ops_per_s;  ///< cache ops/s per kWindowSeconds
  std::uint64_t wrong = 0;  ///< wrong hit payloads, seeded misses, hits on fresh fingerprints
  std::uint64_t remote_errors = 0;
  std::vector<double> lookup_us;
  std::vector<double> insert_us;  ///< traced only
  std::uint64_t records_sent = 0;
  std::uint64_t tx_failures = 0;
  std::vector<double> submit_us;  ///< traced only, sampled
  std::vector<double> flush_ms;
  std::uint64_t records_polled = 0;
  std::vector<double> poll_ms;
  MultisetDigest sent;
  MultisetDigest polled;
  std::uint64_t missed = 0;
  std::uint64_t server_requests = 0, server_hits = 0, server_misses = 0, server_evictions = 0;
  std::uint64_t records_received = 0;
};

/// Drive the four threads for `seconds`. `phase_index` keeps fresh
/// fingerprints and record ids distinct across phases of one run.
Phase run_phase(Fleet& fleet, const std::vector<FlowResult>& templates, const ZipfPicker& zipf,
                std::uint64_t seed, std::uint64_t phase_index, double seconds, SpanLog* log) {
  Phase ph;
  const auto before_requests = fleet.cache_server.requests();
  const auto before_hits = fleet.cache_server.hits();
  const auto before_misses = fleet.cache_server.misses();
  const auto before_evictions = fleet.cache_server.evictions();
  const auto before_received = fleet.collector.records_received();
  std::vector<std::uint64_t> before_errors;
  for (const auto& c : fleet.clients) {
    before_errors.push_back(c->remote.remote_errors());
    c->timed.set_recording(log != nullptr);
    c->timed.clear();
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> tx_done{false};
  std::atomic<std::uint64_t> ops_done{0};
  std::mutex mu;  // guards ph while threads merge their results
  const std::uint64_t sub = fleet.metrics.subscribe(/*from_start=*/false);

  const auto client_loop = [&](std::size_t c) {
    Client& client = *fleet.clients[c];
    maestro::util::Rng rng{mix_seed(seed, 10 + phase_index * 16 + c)};
    std::vector<double> lookup_us;
    std::vector<double> insert_us;
    std::uint64_t ops = 0;
    std::uint64_t wrong = 0;
    std::uint64_t fresh = 0;
    // A lookup that fell back to the local rung (a remote error) is counted
    // as failed, not checked: the local rung never saw the seeded runs.
    const auto timed_lookup = [&](std::uint64_t fp, bool& fell_back) {
      Span span(log, "store.remote_lookup", 0, c + 1);
      const std::uint64_t errors = client.remote.remote_errors();
      const auto t0 = std::chrono::steady_clock::now();
      auto hit = client.remote.lookup(fp);
      lookup_us.push_back(seconds_since(t0) * 1e6);
      fell_back = client.remote.remote_errors() != errors;
      ++ops;
      ops_done.fetch_add(1, std::memory_order_relaxed);
      return hit;
    };
    bool fell_back = false;
    while (!stop.load(std::memory_order_relaxed)) {
      if (rng.uniform(0.0, 1.0) < kLookupShare) {
        const std::size_t entry = zipf.pick(rng);
        const auto hit = timed_lookup(fleet.fingerprints[entry], fell_back);
        if (hit ? !same_result(*hit, payload(templates, entry)) : !fell_back) ++wrong;
      } else {
        const std::uint64_t id =
            (phase_index << 48) | (static_cast<std::uint64_t>(c) << 40) | fresh++;
        store::RunKey key;
        key.design = "fleet-new";
        key.seed = id;
        const std::uint64_t fp = mix_seed(seed ^ 0xf1ee7ULL, id);
        if (timed_lookup(fp, fell_back)) ++wrong;
        Span span(log, "store.remote_insert", 0, c + 1);
        const auto t0 = std::chrono::steady_clock::now();
        client.remote.insert(fp, key, payload(templates, id));
        if (log != nullptr) insert_us.push_back(seconds_since(t0) * 1e6);
        ++ops;
        ops_done.fetch_add(1, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ph.cache_ops += ops;
    ph.wrong += wrong;
    ph.lookup_us.insert(ph.lookup_us.end(), lookup_us.begin(), lookup_us.end());
    ph.insert_us.insert(ph.insert_us.end(), insert_us.begin(), insert_us.end());
  };

  const auto transmitter_loop = [&] {
    mm::RemoteTransmitter tx(kCollectorSocket);
    if (!tx.connected()) ++ph.tx_failures;
    std::uint64_t n = 0;
    while (tx.connected() && !stop.load(std::memory_order_relaxed)) {
      mm::Record r;
      r.run_id = (phase_index << 40) + n + 1;
      r.design = "tool" + std::to_string(n % kRecordStreams);
      r.step = "fleet";
      r.seed = n;
      r.values["n"] = static_cast<double>(n);
      ph.sent.add(r);
      {
        const bool sampled = n % kSubmitSpanEvery == 0;
        Span span(sampled ? log : nullptr, "metrics.submit");
        const auto t0 = std::chrono::steady_clock::now();
        if (!tx.submit(std::move(r))) ++ph.tx_failures;
        if (sampled && log != nullptr) ph.submit_us.push_back(seconds_since(t0) * 1e6);
      }
      ++n;
      if (n % kFlushEvery == 0) {
        Span span(log, "metrics.flush");
        const auto t0 = std::chrono::steady_clock::now();
        if (!tx.flush()) ++ph.tx_failures;
        ph.flush_ms.push_back(seconds_since(t0) * 1000.0);
      }
    }
    if (!tx.close()) ++ph.tx_failures;
    ph.records_sent = n;
    tx_done.store(true, std::memory_order_release);
  };

  const auto dashboard_loop = [&] {
    // After the transmitter has closed, every record it sent is in the
    // server (close() waits for the collector's ack); drain the rest.
    while (true) {
      const bool last = tx_done.load(std::memory_order_acquire);
      mm::Poll p;
      {
        Span span(log, "metrics.poll");
        const auto t0 = std::chrono::steady_clock::now();
        p = fleet.metrics.poll_since(sub);
        ph.poll_ms.push_back(seconds_since(t0) * 1000.0);
      }
      ph.missed += p.missed;
      ph.records_polled += p.records.size();
      for (const auto& r : p.records) ph.polled.add(r);
      if (last && p.records.empty()) break;
      // A dashboard refreshes on a period; polling back to back instead
      // took a core from the cache clients and made their throughput swing.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.emplace_back(dashboard_loop);
  threads.emplace_back(transmitter_loop);
  for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  const auto window = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(kWindowSeconds));
  std::uint64_t last_ops = 0;
  auto last = t0;
  for (int w = 1; w <= static_cast<int>(std::lround(seconds / kWindowSeconds)); ++w) {
    std::this_thread::sleep_until(t0 + window * w);
    const std::uint64_t now_ops = ops_done.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    ph.window_ops_per_s.push_back(static_cast<double>(now_ops - last_ops) /
                                  std::chrono::duration<double>(now - last).count());
    last_ops = now_ops;
    last = now;
  }
  stop.store(true);
  for (std::size_t i = 1; i < threads.size(); ++i) threads[i].join();
  ph.wall_s = seconds_since(t0);
  threads.front().join();
  fleet.metrics.unsubscribe(sub);

  for (std::size_t c = 0; c < kClients; ++c) {
    Client& client = *fleet.clients[c];
    ph.remote_errors += client.remote.remote_errors() - before_errors[c];
  }
  ph.server_requests = fleet.cache_server.requests() - before_requests;
  ph.server_hits = fleet.cache_server.hits() - before_hits;
  ph.server_misses = fleet.cache_server.misses() - before_misses;
  ph.server_evictions = fleet.cache_server.evictions() - before_evictions;
  ph.records_received = fleet.collector.records_received() - before_received;
  return ph;
}

/// Output checks and failure accounting of one phase.
void account(const Phase& ph, Outcome& out, Digest& digest) {
  out.attempted += ph.cache_ops + ph.records_sent + ph.flush_ms.size();
  out.failed += ph.remote_errors + ph.wrong + ph.tx_failures;
  if (ph.wrong > 0) out.fail_check(std::to_string(ph.wrong) + " lookups returned a wrong payload");
  if (ph.remote_errors + ph.tx_failures > 0) {
    std::fprintf(stderr, "fleet: %llu cache operations fell back to the local rung, %llu "
                 "submit/flush calls failed\n",
                 static_cast<unsigned long long>(ph.remote_errors),
                 static_cast<unsigned long long>(ph.tx_failures));
  }
  if (ph.missed > 0 || !(ph.polled == ph.sent)) {
    out.fail_check("dashboard polled " + std::to_string(ph.polled.count) + " records (" +
                   std::to_string(ph.missed) + " missed); sent " + std::to_string(ph.sent.count));
  }
  digest.add(ph.sent.sum).add(ph.polled.sum);
}

}  // namespace

Outcome run_fleet(const Options& opt) {
  Outcome out;
  const std::vector<FlowResult> templates = make_templates(opt.seed);
  const ZipfPicker zipf(kSeeded, kZipfExponent, mix_seed(opt.seed, 7));
  const std::string root = (fs::current_path() / "fleet").string();

  // Set-up (seeding the store, starting both servers, opening the clients'
  // stores) five times; the last fleet is the one measured.
  std::vector<double> setup_samples;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < 5; ++rep) {
    fleet.reset();
    fs::remove_all(root);
    fs::create_directories(root);
    const auto t0 = std::chrono::steady_clock::now();
    fleet = std::make_unique<Fleet>(root, opt.seed, templates);
    setup_samples.push_back(seconds_since(t0));
  }
  if (!fleet->started) {
    out.fail_check("cache server or collector failed to start");
    out.attempted = out.failed = 1;
    fleet.reset();
    fs::remove_all(root);
    return out;
  }

  Digest digest;
  digest.add(static_cast<std::uint64_t>(fleet->server_store.run_count()));
  // Warm-up: fill the LRU and start every connection before measuring. Its
  // outputs are checked like any other phase's.
  account(run_phase(*fleet, templates, zipf, opt.seed, 0, kWarmupSeconds, nullptr), out, digest);
  const Phase base = run_phase(*fleet, templates, zipf, opt.seed, 1,
                               opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
  account(base, out, digest);
  const auto lookups = std::max<std::uint64_t>(1, base.server_hits + base.server_misses);
  std::printf("fleet: %.0f cache ops/s, %.0f records/s, server hit ratio %.3f, %llu evictions\n",
              static_cast<double>(base.cache_ops) / base.wall_s,
              static_cast<double>(base.records_polled) / base.wall_s,
              static_cast<double>(base.server_hits) / static_cast<double>(lookups),
              static_cast<unsigned long long>(base.server_evictions));

  if (!opt.trace) {
    out.digest = digest.value();
    out.set("setup_s", median(setup_samples), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("ops_per_s", median(base.window_ops_per_s), "1/s");
    std::vector<double> lookup_ms;
    for (const double us : base.lookup_us) lookup_ms.push_back(us / 1000.0);
    out.set("op_p50_ms", percentile(lookup_ms, 50).value, "ms");
    out.set("op_p90_ms", percentile(lookup_ms, 90).value, "ms");
    out.set("ok_ratio",
            static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
            "ratio");
    fleet.reset();
    fs::remove_all(root);
    return out;
  }

  SpanLog log;
  const Phase ph = run_phase(*fleet, templates, zipf, opt.seed, 2, opt.seconds / 2, &log);
  account(ph, out, digest);
  out.digest = digest.value();
  std::vector<double> local_lookup_us;
  std::vector<double> local_insert_us;
  for (const auto& c : fleet->clients) {
    const CacheCalls t = c->timed.calls();
    local_lookup_us.insert(local_lookup_us.end(), t.lookup_us.begin(), t.lookup_us.end());
    local_insert_us.insert(local_insert_us.end(), t.insert_us.begin(), t.insert_us.end());
  }
  fleet.reset();
  fs::remove_all(root);
  if (!opt.trace_path.empty() && !log.write_jsonl(opt.trace_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", opt.trace_path.c_str());
  }

  const Percentile lookup_p99 = percentile(ph.lookup_us, 99);
  std::printf("fleet: traced lookup p99 %.1f us over %zu samples\n", lookup_p99.value,
              lookup_p99.samples);
  const double ops_per_s = median(ph.window_ops_per_s);
  out.set("store.ops_per_s", ops_per_s, "1/s");
  out.set("store.remote_lookup_us_p50", percentile(ph.lookup_us, 50).value, "us");
  out.set("store.remote_lookup_us_p99", lookup_p99.value, "us");
  out.set("store.remote_insert_us_p50", percentile(ph.insert_us, 50).value, "us");
  out.set("store.remote_insert_us_p99", percentile(ph.insert_us, 99).value, "us");
  out.set("store.local_lookup_us_p50", percentile(local_lookup_us, 50).value, "us");
  out.set("store.local_insert_us_p50", percentile(local_insert_us, 50).value, "us");
  out.set("store.server_requests", static_cast<double>(ph.server_requests), "count");
  out.set("store.server_hits", static_cast<double>(ph.server_hits), "count");
  out.set("store.server_misses", static_cast<double>(ph.server_misses), "count");
  out.set("store.server_evictions", static_cast<double>(ph.server_evictions), "count");
  out.set("store.server_hit_ratio",
          static_cast<double>(ph.server_hits) /
              static_cast<double>(std::max<std::uint64_t>(1, ph.server_hits + ph.server_misses)),
          "ratio");
  out.set("store.remote_errors", static_cast<double>(base.remote_errors + ph.remote_errors),
          "count");
  out.set("metrics.submit_us_p50", percentile(ph.submit_us, 50).value, "us");
  out.set("metrics.flush_ms_p50", percentile(ph.flush_ms, 50).value, "ms");
  out.set("metrics.flush_ms_p99", percentile(ph.flush_ms, 99).value, "ms");
  out.set("metrics.records_received", static_cast<double>(ph.records_received), "count");
  out.set("metrics.ingest_records_per_s",
          static_cast<double>(ph.records_received) / ph.wall_s, "1/s");
  out.set("metrics.poll_ms_p50", percentile(ph.poll_ms, 50).value, "ms");
  out.set("metrics.poll_records_per_s", static_cast<double>(ph.records_polled) / ph.wall_s, "1/s");
  const double base_ops = median(base.window_ops_per_s);
  out.set("obs.trace_overhead_pct", (base_ops - ops_per_s) / base_ops * 100.0, "%");
  return out;
}

}  // namespace perfbench
