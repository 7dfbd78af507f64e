// perf_metrics_ingest — the METRICS 2.0 ingest-service benchmark and
// acceptance check.
//
// The seed metrics::Server was one mutex-guarded deque: every concurrent
// Transmitter serialized on the global lock, and every live consumer copied
// the entire store via all() *while holding that lock*, stalling all
// producers for O(store) per poll. The service rewrite shards records by
// (design, step) across striped partitions and streams incremental
// snapshots through per-shard subscriber cursors.
//
// Scenarios (seed baseline reimplemented verbatim below):
//   1. ingest-only   — P in {1, 8, 64} producers, records/sec (reported).
//   2. monitored     — the headline: 8 producers with a live monitoring
//      consumer (the Fig. 11 "DataMiner" refreshing as the store fills, at
//      a fixed record-driven cadence so the comparison is scheduler-
//      independent). Seed refresh = full all() snapshot under the global
//      lock; sharded refresh = a poll_since cursor delta. The sharded
//      campaign runs three times and its median rate counts. Floors,
//      enforced by exit code:
//        sharded >= 4x seed throughput, sharded >= 1M records/sec, and the
//        streamed record set must be identical to all().
//   3. wire          — records/sec through the Collector socket protocol
//      (two RemoteTransmitter connections; round-trip sanity enforced).
//
// Results land in machine-readable JSON (default BENCH_metrics.json):
//   perf_metrics_ingest [output.json]

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "metrics/collector.hpp"
#include "metrics/server.hpp"
#include "util/json.hpp"

using namespace maestro;
namespace mm = maestro::metrics;

#if defined(__SANITIZE_THREAD__)
#define MAESTRO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MAESTRO_TSAN 1
#endif
#endif

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Verbatim replica of the pre-service metrics::Server ingest/consume path:
/// one global mutex, one deque, full-copy all().
class SeedServer {
 public:
  std::uint64_t submit(mm::Record r) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (r.run_id == 0) r.run_id = next_id_++;
    const std::uint64_t id = r.run_id;
    records_.push_back(std::move(r));
    return id;
  }
  std::vector<mm::Record> all() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return {records_.begin(), records_.end()};
  }
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<mm::Record> records_;
  std::uint64_t next_id_ = 1;
};

/// One producer's record stream: a distinct (design, step) per producer, the
/// per-process tool stream the collector model assumes.
mm::Record make_record(std::size_t producer, std::uint64_t i) {
  mm::Record r;
  r.design = "tool_" + std::to_string(producer);
  r.step = "step_" + std::to_string(producer);
  r.seed = i;
  r.values["wns_ps"] = static_cast<double>(i);
  return r;
}

template <class Submit>
double run_producers(std::size_t producers, std::uint64_t per_producer, const Submit& submit) {
  std::vector<std::thread> threads;
  threads.reserve(producers);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) submit(p, make_record(p, i));
    });
  }
  for (auto& t : threads) t.join();
  return seconds_since(t0);
}

struct MonitoredResult {
  double rate = 0.0;           ///< producer-side records/sec
  std::size_t streamed = 0;    ///< records the consumer ended up holding
  bool stream_equals_all = false;
};

/// Rounds per monitored campaign: the monitor refreshes once per round (one
/// dashboard/miner refresh every producers*per_producer/kRounds records).
/// A fixed record-driven cadence keeps the comparison scheduler-independent:
/// both servers pay for the same number of refreshes over the same stream,
/// and what differs is what one refresh *costs* — a full all() copy under
/// the seed's global lock versus a per-shard cursor delta.
constexpr std::size_t kRounds = 80;

/// 8-producer campaign with a live monitoring consumer. Producers submit in
/// rounds; at each round boundary the barrier's completion step runs one
/// monitor refresh (poll_once). poll_once returns the count of *new* records
/// it extracted this refresh.
template <class Submit, class PollOnce>
double run_monitored(std::size_t producers, std::uint64_t per_producer, const Submit& submit,
                     const PollOnce& poll_once) {
  const std::uint64_t per_round = per_producer / kRounds;
  std::barrier barrier(static_cast<std::ptrdiff_t>(producers), [&]() noexcept { poll_once(); });
  std::vector<std::thread> threads;
  threads.reserve(producers);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::uint64_t i = 0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::uint64_t end = round + 1 == kRounds ? per_producer : i + per_round;
        for (; i < end; ++i) submit(p, make_record(p, i));
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  return seconds_since(t0);
}

/// Seed flavor: the server offers no cursor, so the only way a monitor can
/// learn what arrived since its last refresh is another full all() copy
/// under the global lock — exactly how sharing and mining consumers worked
/// against the seed server. It extracts the suffix beyond the last size.
MonitoredResult run_monitored_seed(std::size_t producers, std::uint64_t per_producer) {
  SeedServer server;
  MonitoredResult res;
  std::size_t seen = 0;
  const double secs = run_monitored(
      producers, per_producer,
      [&](std::size_t, mm::Record r) { server.submit(std::move(r)); },
      [&] {
        const std::vector<mm::Record> view = server.all();
        seen = view.size();
      });
  res.rate = static_cast<double>(producers * per_producer) / secs;
  res.streamed = seen;
  res.stream_equals_all = seen == producers * per_producer;
  return res;
}

/// Same load and refresh cadence against the sharded server: the monitor
/// holds a subscriber cursor, so each refresh drains only the delta.
MonitoredResult run_monitored_sharded(std::size_t producers, std::uint64_t per_producer) {
  mm::Server server;  // default options: 16 shards, unbounded
  MonitoredResult res;
  const std::uint64_t sub = server.subscribe(/*from_start=*/true);
  std::vector<mm::Record> streamed;
  streamed.reserve(producers * per_producer);
  std::uint64_t missed = 0;
  const double secs = run_monitored(
      producers, per_producer,
      [&](std::size_t, mm::Record r) { server.submit(std::move(r)); },
      [&] {
        mm::Poll p = server.poll_since(sub);
        missed += p.missed;
        for (auto& r : p.records) streamed.push_back(std::move(r));
      });
  server.unsubscribe(sub);
  res.rate = static_cast<double>(producers * per_producer) / secs;
  res.streamed = streamed.size();

  // The streamed reconstruction must be the record set all() reports —
  // compare the full JSON serializations as multisets.
  std::vector<std::string> streamed_dump;
  streamed_dump.reserve(streamed.size());
  for (const auto& r : streamed) streamed_dump.push_back(r.to_json().dump());
  std::vector<std::string> all_dump;
  for (const auto& r : server.all()) all_dump.push_back(r.to_json().dump());
  std::sort(streamed_dump.begin(), streamed_dump.end());
  std::sort(all_dump.begin(), all_dump.end());
  res.stream_equals_all = missed == 0 && streamed_dump == all_dump;
  return res;
}

struct WireResult {
  double rate = 0.0;
  bool ok = false;
};

WireResult run_wire(std::uint64_t per_client) {
  WireResult res;
  const std::string path = "/tmp/maestro_bench_metrics_" + std::to_string(::getpid()) + ".sock";
  mm::Server server;
  mm::Collector collector(server, {.socket_path = path});
  if (!collector.start()) return res;
  constexpr std::size_t kClients = 2;
  std::atomic<int> ok_clients{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      mm::RemoteTransmitter tx(path);
      if (!tx.connected()) return;
      for (std::uint64_t i = 0; i < per_client; ++i) {
        if (!tx.submit(make_record(c, i))) return;
      }
      if (tx.flush() && tx.close()) ok_clients.fetch_add(1);
    });
  }
  for (auto& t : clients) t.join();
  const double secs = seconds_since(t0);
  collector.stop();
  res.rate = static_cast<double>(kClients * per_client) / secs;
  res.ok = ok_clients.load() == kClients &&
           collector.records_received() == kClients * per_client &&
           server.size() == kClients * per_client;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_metrics.json";
  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.metrics.v1"};

  // ------------------------------------------------------------ ingest-only
  const struct {
    std::size_t producers;
    std::uint64_t per_producer;
  } kLoads[] = {{1, 200000}, {8, 50000}, {64, 2000}};
  for (const auto& load : kLoads) {
    SeedServer seed;
    const double seed_secs = run_producers(load.producers, load.per_producer,
                                           [&](std::size_t, mm::Record r) { seed.submit(std::move(r)); });
    mm::Server sharded;
    const double sharded_secs = run_producers(
        load.producers, load.per_producer,
        [&](std::size_t, mm::Record r) { sharded.submit(std::move(r)); });
    const double total = static_cast<double>(load.producers * load.per_producer);
    const std::string suffix = std::to_string(load.producers) + "p";
    report["ingest_seed_" + suffix] = util::Json{total / seed_secs};
    report["ingest_sharded_" + suffix] = util::Json{total / sharded_secs};
    std::printf("ingest-only %2zup: seed %8.0f rec/s   sharded %8.0f rec/s\n", load.producers,
                total / seed_secs, total / sharded_secs);
  }

  // ------------------------------------------------- monitored (the headline)
  constexpr std::size_t kProducers = 8;
  constexpr std::uint64_t kPerProducer = 50000;
  const MonitoredResult seed_mon = run_monitored_seed(kProducers, kPerProducer);
  // The sharded campaign lasts well under a second, and its first run comes
  // right after the seed campaign's mostly one-core phase, while idle host
  // cores may still be coming back up to speed. It runs three times; the
  // median rate is reported and every run's stream must reconstruct all().
  constexpr int kShardedRuns = 3;
  std::vector<MonitoredResult> sharded_runs;
  for (int i = 0; i < kShardedRuns; ++i) {
    sharded_runs.push_back(run_monitored_sharded(kProducers, kPerProducer));
  }
  std::sort(sharded_runs.begin(), sharded_runs.end(),
            [](const MonitoredResult& a, const MonitoredResult& b) { return a.rate < b.rate; });
  MonitoredResult sharded_mon = sharded_runs[kShardedRuns / 2];
  sharded_mon.stream_equals_all =
      std::all_of(sharded_runs.begin(), sharded_runs.end(),
                  [](const MonitoredResult& r) { return r.stream_equals_all; });
  const double speedup = seed_mon.rate > 0.0 ? sharded_mon.rate / seed_mon.rate : 0.0;
  report["monitored_seed_8p"] = util::Json{seed_mon.rate};
  report["monitored_sharded_8p"] = util::Json{sharded_mon.rate};
  report["monitored_speedup"] = util::Json{speedup};
  report["stream_equals_all"] = util::Json{sharded_mon.stream_equals_all};
  std::printf("monitored  8p: seed %8.0f rec/s   sharded %8.0f rec/s   speedup %.1fx   "
              "stream==all %s\n",
              seed_mon.rate, sharded_mon.rate, speedup,
              sharded_mon.stream_equals_all ? "yes" : "NO");

  // -------------------------------------------------------------------- wire
  const WireResult wire = run_wire(25000);
  report["wire_records_per_s"] = util::Json{wire.rate};
  report["wire_roundtrip_ok"] = util::Json{wire.ok};
  std::printf("wire      2cx: %8.0f rec/s through collector socket, round-trip %s\n", wire.rate,
              wire.ok ? "ok" : "FAILED");

  // ------------------------------------------------------------------ floors
  constexpr double kSpeedupFloor = 4.0;
#ifdef MAESTRO_TSAN
  // Sanitizer instrumentation costs ~25x on this path; the relative floor
  // still applies but the absolute single-node rate is scaled down.
  constexpr double kAbsFloor = 2e4;
#else
  constexpr double kAbsFloor = 1e6;
#endif
  report["speedup_floor"] = util::Json{kSpeedupFloor};
  report["abs_floor_records_per_s"] = util::Json{kAbsFloor};

  bool pass = true;
  if (speedup < kSpeedupFloor) {
    std::fprintf(stderr, "FAIL: sharded/seed monitored speedup %.2fx < %.1fx floor\n", speedup,
                 kSpeedupFloor);
    pass = false;
  }
  if (sharded_mon.rate < kAbsFloor) {
    std::fprintf(stderr, "FAIL: sharded monitored ingest %.0f rec/s < %.0f floor\n",
                 sharded_mon.rate, kAbsFloor);
    pass = false;
  }
  if (!sharded_mon.stream_equals_all) {
    std::fprintf(stderr, "FAIL: poll_since stream does not reconstruct all()\n");
    pass = false;
  }
  if (!wire.ok) {
    std::fprintf(stderr, "FAIL: wire protocol round-trip failed\n");
    pass = false;
  }
  report["pass"] = util::Json{pass};

  {
    std::ofstream out(out_path, std::ios::trunc);
    out << util::Json{std::move(report)}.dump() << '\n';
  }
  std::printf("perf_metrics_ingest: %s [%s]\n", pass ? "OK" : "FAIL", out_path.c_str());
  return pass ? 0 : 1;
}
