// perf_store_cache — the store/memoization benchmark and acceptance check.
//
// Measures the maestro::store primitives (fingerprinting, WAL append,
// recovery, compaction, cache lookup), then runs the headline experiment: the
// same MAB campaign twice against one MAESTRO_STORE. The first pass executes
// every run cold; the second pass must answer >= 30% of them from the
// content-addressed cache (identical campaigns reach 100%). The reduction is
// asserted via the obs::Registry store.cache_miss counter — a regression
// exits nonzero so the check can gate CI as a ctest (label "store").
//
// Fleet gates (this binary re-execs itself as the worker processes):
//   * sharded-WAL append throughput (8 shards, batch fsync) must be >= 3x
//     the durable single-WAL baseline (1 shard, fsync-per-append) with 8
//     concurrent writer threads;
//   * 4 concurrent writer *processes* over one store directory sustain
//     appends with zero lost entries (verified by reopen count);
//   * 4 campaign worker processes sharing one CacheServer skip >= 30% of
//     executions through cross-process reuse.
//
// Also reported, not gated: resident bytes per stored run on a local rung
// (rss_bytes_per_stored_run[_knobs]: 100k RunCache inserts, fsync off).
//
// Results are written as machine-readable JSON (default BENCH_store.json) so
// the perf trajectory is trackable across PRs:
//   perf_store_cache [output.json] [scratch-dir]     # everything
//   perf_store_cache --fleet [output.json] [scratch] # fleet phases only

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mab_scheduler.hpp"
#include "obs/registry.hpp"
#include "store/cache_server.hpp"
#include "store/fingerprint.hpp"
#include "store/remote_cache.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define MAESTRO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MAESTRO_TSAN 1
#endif
#endif

extern char** environ;

namespace fs = std::filesystem;
using namespace maestro;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

store::StoredRun make_run(std::uint64_t n) {
  store::StoredRun run;
  run.key.design = "bench";
  run.key.seed = n;
  run.key.set("place.density", store::canonical_number(0.6 + 0.0001 * static_cast<double>(n)));
  run.key.set("syn.effort", "high");
  run.fingerprint = run.key.fingerprint();
  run.result.completed = true;
  run.result.timing_met = true;
  run.result.drc_clean = true;
  run.result.constraints_met = true;
  run.result.area_um2 = 1000.0 + static_cast<double>(n);
  run.result.power_mw = 4.0;
  run.result.tat_minutes = 55.0;
  return run;
}

/// Same synthetic cliff oracle as the MAB tests: pure in (target_ghz, seed).
core::FlowOracle cliff_oracle(double max_ghz) {
  return [max_ghz](double target_ghz, std::uint64_t seed) {
    util::Rng rng{seed};
    flow::FlowResult res;
    res.completed = true;
    const double margin = max_ghz + rng.gauss(0.0, 0.03) - target_ghz;
    res.timing_met = margin > 0.0;
    res.drc_clean = true;
    res.constraints_met = true;
    res.wns_ps = margin * 100.0;
    res.area_um2 = 1000.0;
    res.power_mw = target_ghz * 2.0;
    res.tat_minutes = 60.0;
    return res;
  };
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

pid_t spawn_self(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(a.c_str());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                               const_cast<char* const*>(argv.data()), environ);
  return rc == 0 ? pid : -1;
}

/// Resident set size of this process, in bytes.
std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// RSS growth per stored run on a local rung: a RunCache over a fresh
/// 8-shard store with fsync off, as a campaign process holds it, after 100k
/// inserts. With `knobs`, keys carry make_run's two knobs; without, they are
/// design + seed like the fleet benchmark's new runs. Runs in a child
/// process of its own (--rss-rung), so no other phase's heap is reused.
int run_rss_rung(const char* dir, bool knobs, const char* out_path) {
  constexpr std::uint64_t kRuns = 100000;
  store::RunStoreOptions opt;
  opt.shards = 8;
  opt.fsync = store::FsyncMode::Off;
  store::RunStore st(dir, opt);
  store::RunCache cache(st);
  const std::size_t before = rss_bytes();
  for (std::uint64_t n = 0; n < kRuns; ++n) {
    store::StoredRun run = make_run(n);
    if (!knobs) {
      run.key.knobs.clear();
      run.fingerprint = run.key.fingerprint();
    }
    cache.insert(run.fingerprint, run.key, run.result);
  }
  const std::size_t after = rss_bytes();
  std::ofstream out(out_path, std::ios::trunc);
  out << static_cast<double>(after > before ? after - before : 0) / static_cast<double>(kRuns)
      << '\n';
  return out ? 0 : 1;
}

int wait_exit(pid_t pid) {
  int status = -1;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Reported, not gated: see run_rss_rung. -1 if the child failed.
double rss_bytes_per_stored_run(const fs::path& scratch, bool knobs) {
  const std::string tag = knobs ? "rss_rung_knobs" : "rss_rung";
  const std::string out = (scratch / (tag + ".txt")).string();
  const pid_t pid = spawn_self({"perf_store_cache", "--rss-rung", (scratch / tag).string(),
                                knobs ? "1" : "0", out});
  if (pid <= 0 || wait_exit(pid) != 0) return -1.0;
  double bytes = -1.0;
  std::ifstream(out) >> bytes;
  return bytes;
}

/// The one campaign every fleet worker runs: identical options + rng seed,
/// so every worker dispatches the same fingerprint set and cross-process
/// reuse is maximal for whoever arrives after the first executor.
core::MabOptions fleet_mab_options() {
  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(1.0, 2.0, 6);
  opt.iterations = 8;
  opt.concurrency = 4;
  opt.cache_key.design = "fleet-bench";
  return opt;
}

/// Worker child: run the fleet campaign over the shared store dir with the
/// shared CacheServer as the primary cache rung; write a JSON report.
int run_fleet_worker(const char* sock, const char* dir, const char* tenant,
                     const char* report_path) {
  store::RunStore st(dir);
  store::RunCache local(st);
  store::RemoteCacheOptions ropt;
  ropt.socket_path = sock;
  ropt.tenant = tenant;
  store::RemoteRunCache remote(ropt, &local);

  core::MabOptions opt = fleet_mab_options();
  opt.cache = &remote;
  const std::uint64_t miss0 = counter("store.cache_miss");
  util::Rng rng{7};
  const auto res = core::MabScheduler(opt).run(cliff_oracle(1.6), rng);
  const std::uint64_t executed = counter("store.cache_miss") - miss0;

  util::JsonObject rep;
  rep["tenant"] = util::Json{std::string(tenant)};
  rep["total"] = util::Json{static_cast<double>(res.total_runs)};
  rep["executed"] = util::Json{static_cast<double>(executed)};
  rep["remote_hits"] = util::Json{static_cast<double>(remote.remote_hits())};
  {
    std::ofstream out(report_path, std::ios::trunc);
    out << util::Json{std::move(rep)}.dump() << '\n';
  }
  return st.degraded() ? 2 : 0;
}

/// Append child for the concurrent-writer gate.
int run_fleet_append(const char* dir, std::uint64_t base, std::uint64_t count) {
  store::RunStoreOptions opt;
  opt.fsync = store::FsyncMode::Off;
  store::RunStore st(dir, opt);
  for (std::uint64_t i = 0; i < count; ++i) st.append_run(make_run(base + i));
  return st.degraded() ? 2 : 0;
}

/// Sharded-WAL append throughput, 8 writer threads: fleet configuration
/// (8 shards, batch fsync) vs the durable single-WAL baseline (1 shard,
/// fsync-per-append). On one spindle the win is fsync amortization plus
/// per-shard locking; the gate is >= 3x.
bool shard_matrix_phase(util::JsonObject& report, const fs::path& scratch) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50;
  const auto run_config = [&](const char* tag, std::size_t shards,
                              store::FsyncMode mode) {
    const std::string dir = (scratch / (std::string("matrix_") + tag)).string();
    store::RunStoreOptions opt;
    opt.shards = shards;
    opt.fsync = mode;
    store::RunStore st(dir, opt);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> writers;
    for (int w = 0; w < kThreads; ++w) {
      writers.emplace_back([&st, w] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          st.append_run(make_run(static_cast<std::uint64_t>(w) * 100000 + i));
        }
      });
    }
    for (auto& t : writers) t.join();
    const double secs = seconds_since(t0);
    return static_cast<double>(kThreads * kPerThread) / secs;
  };

  const double baseline = run_config("1shard_always", 1, store::FsyncMode::Always);
  const double fleet = run_config("8shard_batch", 8, store::FsyncMode::Batch);
  const double speedup = baseline > 0.0 ? fleet / baseline : 0.0;
#ifdef MAESTRO_TSAN
  // Instrumentation cost per write dwarfs the fsync cost the gate measures,
  // compressing the ratio; only assert sharding is not a regression.
  constexpr double kSpeedupFloor = 1.2;
#else
  constexpr double kSpeedupFloor = 3.0;
#endif
  report["append_1shard_always_per_s"] = util::Json{baseline};
  report["append_8shard_batch_per_s"] = util::Json{fleet};
  report["sharded_append_speedup"] = util::Json{speedup};
  report["sharded_speedup_floor"] = util::Json{kSpeedupFloor};
  const bool pass = speedup >= kSpeedupFloor;
  if (!pass) {
    std::fprintf(stderr, "FAIL: sharded append speedup %.2fx < %.1fx floor\n",
                 speedup, kSpeedupFloor);
  }
  return pass;
}

/// Multi-process fleet: 4 concurrent append processes over one store dir
/// (zero lost entries), then 4 campaign workers sharing one CacheServer
/// (>= 30% of executions skipped through cross-process reuse).
bool fleet_phase(util::JsonObject& report, const fs::path& scratch) {
  bool pass = true;

  // ---- concurrent writer processes
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 100;
  const std::string append_dir = (scratch / "fleet_append").string();
  {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<pid_t> pids;
    for (int w = 0; w < kWriters; ++w) {
      pids.push_back(spawn_self({"perf_store_cache", "--fleet-append", append_dir,
                                 std::to_string(1 + w * 100000),
                                 std::to_string(kPerWriter)}));
    }
    for (const pid_t pid : pids) {
      if (pid <= 0 || wait_exit(pid) != 0) {
        std::fprintf(stderr, "FAIL: append writer process failed/degraded\n");
        pass = false;
      }
    }
    const double secs = seconds_since(t0);
    store::RunStore reopened(append_dir);
    report["fleet_writer_processes"] = util::Json{static_cast<double>(kWriters)};
    report["fleet_append_per_s"] =
        util::Json{static_cast<double>(kWriters * kPerWriter) / secs};
    report["fleet_append_recovered"] =
        util::Json{static_cast<double>(reopened.run_count())};
    if (reopened.run_count() != kWriters * kPerWriter ||
        reopened.corrupt_lines() != 0 || reopened.dropped_tail_bytes() != 0) {
      std::fprintf(stderr, "FAIL: concurrent writers lost entries (%zu of %llu)\n",
                   reopened.run_count(),
                   static_cast<unsigned long long>(kWriters * kPerWriter));
      pass = false;
    }
  }

  // ---- cross-process cache reuse
  const std::string fleet_dir = (scratch / "fleet_store").string();
  const std::string sock =
      "/tmp/maestro_bench_fleet_" + std::to_string(::getpid()) + ".sock";
  store::RunStore server_store(fleet_dir);
  store::RunCache server_cache(server_store);
  store::CacheServer server(server_cache, {.socket_path = sock});
  if (!server.start()) {
    std::fprintf(stderr, "FAIL: cache server failed to start\n");
    return false;
  }
  const auto spawn_worker = [&](int idx) {
    const std::string report_path =
        (scratch / ("fleet_worker_" + std::to_string(idx) + ".json")).string();
    return spawn_self({"perf_store_cache", "--fleet-worker", sock, fleet_dir,
                       "worker-" + std::to_string(idx), report_path});
  };
  const auto t0 = std::chrono::steady_clock::now();
  // Worker 0 runs first and pays for the cold executions; workers 1..3 then
  // race each other and should reuse nearly everything through the server.
  if (wait_exit(spawn_worker(0)) != 0) {
    std::fprintf(stderr, "FAIL: fleet worker 0 failed/degraded\n");
    pass = false;
  }
  std::vector<pid_t> pids;
  for (int w = 1; w < 4; ++w) pids.push_back(spawn_worker(w));
  for (const pid_t pid : pids) {
    if (pid <= 0 || wait_exit(pid) != 0) {
      std::fprintf(stderr, "FAIL: fleet worker failed/degraded\n");
      pass = false;
    }
  }
  const double secs = seconds_since(t0);
  server.stop();

  double dispatched = 0.0, executed = 0.0, remote_hits = 0.0;
  for (int w = 0; w < 4; ++w) {
    const std::string report_path =
        (scratch / ("fleet_worker_" + std::to_string(w) + ".json")).string();
    std::ifstream in(report_path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto doc = util::Json::parse(text);
    if (!doc) {
      std::fprintf(stderr, "FAIL: missing worker report %s\n", report_path.c_str());
      pass = false;
      continue;
    }
    dispatched += doc->at("total").as_number();
    executed += doc->at("executed").as_number();
    remote_hits += doc->at("remote_hits").as_number();
  }
  const double reuse =
      dispatched > 0.0 ? 1.0 - executed / dispatched : 0.0;
  report["fleet_campaign_workers"] = util::Json{4.0};
  report["fleet_dispatched"] = util::Json{dispatched};
  report["fleet_executed"] = util::Json{executed};
  report["fleet_remote_hits"] = util::Json{remote_hits};
  report["fleet_reuse_reduction"] = util::Json{reuse};
  report["fleet_server_hits"] = util::Json{static_cast<double>(server.hits())};
  report["fleet_hit_throughput_per_s"] =
      util::Json{secs > 0.0 ? static_cast<double>(server.hits()) / secs : 0.0};
  if (!(dispatched > 0.0 && reuse >= 0.30)) {
    std::fprintf(stderr, "FAIL: cross-process reuse %.0f%% < 30%%\n", reuse * 100.0);
    pass = false;
  }
  // Zero lost entries: every executed run's append must survive a reopen.
  store::RunStore reopened(fleet_dir);
  report["fleet_store_entries"] = util::Json{static_cast<double>(reopened.run_count())};
  if (static_cast<double>(reopened.run_count()) != executed ||
      reopened.corrupt_lines() != 0) {
    std::fprintf(stderr, "FAIL: fleet store lost entries (%zu vs %.0f executed)\n",
                 reopened.run_count(), executed);
    pass = false;
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 6 && std::strcmp(argv[1], "--fleet-worker") == 0) {
    return run_fleet_worker(argv[2], argv[3], argv[4], argv[5]);
  }
  if (argc == 5 && std::strcmp(argv[1], "--fleet-append") == 0) {
    return run_fleet_append(argv[2], std::strtoull(argv[3], nullptr, 10),
                            std::strtoull(argv[4], nullptr, 10));
  }
  if (argc == 5 && std::strcmp(argv[1], "--rss-rung") == 0) {
    return run_rss_rung(argv[2], std::strcmp(argv[3], "1") == 0, argv[4]);
  }
  const bool fleet_only = argc > 1 && std::strcmp(argv[1], "--fleet") == 0;
  if (fleet_only) {
    --argc;
    ++argv;
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_store.json";
  const fs::path scratch =
      argc > 2 ? fs::path(argv[2]) : fs::temp_directory_path() / "maestro_perf_store_cache";
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  util::JsonObject report;
  report["schema"] = util::Json{"maestro.bench.store.v2"};

  if (fleet_only) {
    bool pass = shard_matrix_phase(report, scratch);
    pass = fleet_phase(report, scratch) && pass;
    report["pass"] = util::Json{pass};
    {
      std::ofstream out(out_path, std::ios::trunc);
      out << util::Json{std::move(report)}.dump() << '\n';
    }
    std::printf("perf_store_cache --fleet: %s [%s]\n", pass ? "OK" : "FAIL",
                out_path.c_str());
    return pass ? 0 : 1;
  }

  const double rss_per_run = rss_bytes_per_stored_run(scratch, false);
  report["rss_bytes_per_stored_run"] = util::Json{rss_per_run};
  report["rss_bytes_per_stored_run_knobs"] = util::Json{rss_bytes_per_stored_run(scratch, true)};

  // ------------------------------------------------------------ primitives
  constexpr int kFingerprints = 200000;
  {
    const store::StoredRun probe = make_run(1);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (int i = 0; i < kFingerprints; ++i) sink += probe.key.fingerprint();
    const double secs = seconds_since(t0);
    report["fingerprint_per_s"] = util::Json{kFingerprints / secs};
    if (sink == 0) std::fprintf(stderr, "(fingerprint sink zero)\n");  // defeat DCE
  }

  constexpr std::uint64_t kAppends = 2000;
  const std::string wal_dir = (scratch / "wal_bench").string();
  {
    store::RunStore st(wal_dir);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t n = 0; n < kAppends; ++n) st.append_run(make_run(n));
    const double secs = seconds_since(t0);
    report["wal_append_per_s"] = util::Json{static_cast<double>(kAppends) / secs};
  }
  double recover_ms = 0.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    store::RunStore st(wal_dir);
    recover_ms = seconds_since(t0) * 1e3;
    if (st.run_count() != kAppends) {
      std::fprintf(stderr, "FAIL: recovery lost entries (%zu of %llu)\n", st.run_count(),
                   static_cast<unsigned long long>(kAppends));
      return 1;
    }
    report["recover_2k_ms"] = util::Json{recover_ms};

    const auto t1 = std::chrono::steady_clock::now();
    if (!st.compact()) {
      std::fprintf(stderr, "FAIL: compaction failed\n");
      return 1;
    }
    report["compact_2k_ms"] = util::Json{seconds_since(t1) * 1e3};

    store::RunCache cache(st);
    constexpr int kLookups = 200000;
    const std::uint64_t fp = make_run(kAppends / 2).fingerprint;
    const auto t2 = std::chrono::steady_clock::now();
    for (int i = 0; i < kLookups; ++i) {
      if (!cache.lookup(fp)) {
        std::fprintf(stderr, "FAIL: warm lookup missed\n");
        return 1;
      }
    }
    report["cache_lookup_per_s"] = util::Json{kLookups / seconds_since(t2)};
  }

  // -------------------------------------------- repeated-campaign memoization
  // The acceptance experiment: one MAB campaign run twice against the same
  // store. Executed (non-cached) runs are exactly the store.cache_miss delta.
  const std::string campaign_dir = (scratch / "campaign").string();
  core::MabOptions opt;
  opt.frequency_arms_ghz = core::frequency_arms(1.0, 2.0, 6);
  opt.iterations = 8;
  opt.concurrency = 4;
  opt.cache_key.design = "bench";

  store::RunStore campaign_store(campaign_dir);
  std::uint64_t first_executed = 0, second_executed = 0, second_hits = 0;
  double first_secs = 0.0, second_secs = 0.0;
  {
    store::RunCache cache(campaign_store);
    opt.cache = &cache;
    util::Rng rng{7};
    const std::uint64_t miss0 = counter("store.cache_miss");
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = core::MabScheduler(opt).run(cliff_oracle(1.6), rng);
    first_secs = seconds_since(t0);
    first_executed = counter("store.cache_miss") - miss0;
    report["campaign_runs"] = util::Json{static_cast<double>(res.total_runs)};
  }
  {
    store::RunCache cache(campaign_store);  // fresh cache, warm store
    opt.cache = &cache;
    util::Rng rng{7};
    const std::uint64_t miss0 = counter("store.cache_miss");
    const std::uint64_t hit0 = counter("store.cache_hit");
    const auto t0 = std::chrono::steady_clock::now();
    (void)core::MabScheduler(opt).run(cliff_oracle(1.6), rng);
    second_secs = seconds_since(t0);
    second_executed = counter("store.cache_miss") - miss0;
    second_hits = counter("store.cache_hit") - hit0;
  }

  const double reduction =
      first_executed == 0
          ? 0.0
          : 1.0 - static_cast<double>(second_executed) / static_cast<double>(first_executed);
  report["first_pass_executed"] = util::Json{static_cast<double>(first_executed)};
  report["second_pass_executed"] = util::Json{static_cast<double>(second_executed)};
  report["second_pass_cache_hits"] = util::Json{static_cast<double>(second_hits)};
  report["executed_run_reduction"] = util::Json{reduction};
  report["first_pass_secs"] = util::Json{first_secs};
  report["second_pass_secs"] = util::Json{second_secs};
  bool pass = first_executed > 0 && reduction >= 0.30;
  if (!pass) std::fprintf(stderr, "FAIL: memoization reduction < 30%%\n");

  // ------------------------------------------------------------ fleet gates
  pass = shard_matrix_phase(report, scratch) && pass;
  pass = fleet_phase(report, scratch) && pass;
  report["pass"] = util::Json{pass};

  const double sharded_speedup = report.at("sharded_append_speedup").as_number();
  const double fleet_reuse = report.at("fleet_reuse_reduction").as_number();
  {
    std::ofstream out(out_path, std::ios::trunc);
    out << util::Json{std::move(report)}.dump() << '\n';
  }

  std::printf("perf_store_cache: pass1 executed %llu, pass2 executed %llu (%.0f%% fewer), "
              "recover(2k) %.2f ms, sharded append %.1fx, fleet reuse %.0f%%, "
              "%.0f B RSS per stored run -> %s [%s]\n",
              static_cast<unsigned long long>(first_executed),
              static_cast<unsigned long long>(second_executed), reduction * 100.0, recover_ms,
              sharded_speedup, fleet_reuse * 100.0, rss_per_run, pass ? "OK" : "FAIL",
              out_path.c_str());
  return pass ? 0 : 1;
}
