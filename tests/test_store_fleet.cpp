// Fleet chaos tests for maestro::store — kill -9 real writer processes
// mid-append and mid-compaction, flip random bytes in WAL and snapshot
// files, run ≥4 concurrent writer processes over one store directory, serve
// a multi-process cache fleet, and show that campaigns finish
// bitwise-identically when the store or the cache server is degraded.
//
// This file builds as its own binary (maestro_store_fleet_tests) with its
// own main(): the binary doubles as every child process role
// (--fleet-writer, --fleet-killme, --fleet-compact, --fleet-cache-client),
// re-exec'd via /proc/self/exe. Labeled "store_chaos" so the suite can run
// in isolation and under -DMAESTRO_SANITIZE=thread:
//   ctest -L store_chaos

#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/mab_scheduler.hpp"
#include "obs/registry.hpp"
#include "resil/fault.hpp"
#include "store/cache_server.hpp"
#include "store/remote_cache.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "store/wal_frame.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace fs = std::filesystem;
namespace mc = maestro::core;
namespace mf = maestro::flow;
namespace ms = maestro::store;
using maestro::util::Rng;

namespace {

std::string temp_store(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "maestro_fleet_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string temp_socket(const char* tag) {
  return "/tmp/maestro_fleet_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

ms::StoredRun fleet_run(std::uint64_t seed, double area) {
  ms::StoredRun run;
  run.key.design = "fleet";
  run.key.seed = seed;
  run.key.set("place.effort", "high");
  run.fingerprint = run.key.fingerprint();
  run.result.completed = true;
  run.result.timing_met = true;
  run.result.drc_clean = true;
  run.result.constraints_met = true;
  run.result.area_um2 = area;
  run.result.tat_minutes = 1.0;
  return run;
}

/// Spawn this binary again as `argv` (argv[0] is a display name); returns pid.
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

int wait_status(pid_t pid) {
  int status = -1;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return status;
}

/// Count intact framed payload lines across every WAL and snapshot file in
/// `dir` — ground truth for "zero complete records lost".
std::size_t intact_lines(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0 && name.rfind("snapshot-", 0) != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      if (ms::wal_frame::decode(line).has_value()) ++n;
    }
  }
  return n;
}

mc::FlowOracle cliff_oracle(double max_ghz, double noise = 0.03) {
  return [max_ghz, noise](double target_ghz, std::uint64_t seed) {
    Rng rng{seed};
    mf::FlowResult res;
    res.completed = true;
    const double margin = max_ghz + rng.gauss(0.0, noise) - target_ghz;
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

mc::MabOptions mab_base_options() {
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(1.0, 2.0, 5);
  opt.iterations = 6;
  opt.concurrency = 3;
  opt.algorithm = maestro::ml::PolicyKind::Thompson;
  return opt;
}

void expect_same_mab_result(const mc::MabRunResult& a, const mc::MabRunResult& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].iteration, b.samples[i].iteration);
    EXPECT_EQ(a.samples[i].frequency_ghz, b.samples[i].frequency_ghz);  // bitwise
    EXPECT_EQ(a.samples[i].success, b.samples[i].success);
    EXPECT_EQ(a.samples[i].reward, b.samples[i].reward);
  }
  EXPECT_EQ(a.best_per_iteration, b.best_per_iteration);
  EXPECT_EQ(a.best_feasible_ghz, b.best_feasible_ghz);
  EXPECT_EQ(a.total_runs, b.total_runs);
  EXPECT_EQ(a.successful_runs, b.successful_runs);
  EXPECT_EQ(a.total_regret, b.total_regret);
}

}  // namespace

// --------------------------------------------------------- kill -9 writers

TEST(FleetChaos, Kill9MidAppendLosesNoCompleteRecord) {
  const std::string dir = temp_store("kill9_append");
  const pid_t pid = spawn_self({"fleet-killme", "--fleet-killme", dir});
  ASSERT_GT(pid, 0);
  // Let it stream appends for a while, then SIGKILL mid-flight.
  ::usleep(150 * 1000);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  const int status = wait_status(pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  const std::size_t complete = intact_lines(dir);
  ASSERT_GT(complete, 0u) << "child never got an append out";

  ms::RunStore store(dir);
  // Every complete record survives; at most a torn tail is dropped, and a
  // tear is the only damage a SIGKILL can leave.
  EXPECT_EQ(store.recovered_entries(), complete);
  EXPECT_EQ(store.run_count(), complete);
  EXPECT_EQ(store.corrupt_lines(), 0u);
  // The dead writer's lease is stale; a new writer takes over cleanly.
  store.append_run(fleet_run(1000000, 1.0));
  EXPECT_FALSE(store.degraded());
  ms::RunStore reopened(dir);
  EXPECT_EQ(reopened.run_count(), complete + 1);
}

TEST(FleetChaos, Kill9DuringCompactionPreRenameKeepsOldState) {
  const std::string dir = temp_store("kill9_pre_rename");
  const pid_t pid =
      spawn_self({"fleet-compact", "--fleet-compact", dir, "pre_rename"});
  ASSERT_GT(pid, 0);
  const int status = wait_status(pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Killed before the rename: the snapshot never appeared, the WAL is
  // intact, and the orphaned temp file is swept on reopen.
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 6u);
  EXPECT_EQ(store.corrupt_lines(), 0u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(entry.path().filename().string().find(".tmp") == std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  ASSERT_TRUE(store.get_state("phase").has_value());
  EXPECT_EQ(store.get_state("phase")->as_string(), "before-compact");
}

TEST(FleetChaos, Kill9DuringCompactionPreTruncateDeduplicates) {
  const std::string dir = temp_store("kill9_pre_truncate");
  const pid_t pid =
      spawn_self({"fleet-compact", "--fleet-compact", dir, "pre_truncate"});
  ASSERT_GT(pid, 0);
  const int status = wait_status(pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Killed after the rename, before the truncate: every entry now sits in
  // both the snapshot and the WAL. Replay must cancel the duplicates.
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 6u);
  EXPECT_EQ(store.corrupt_lines(), 0u);
  std::set<std::uint64_t> fps;
  for (const auto& run : store.runs()) fps.insert(run.fingerprint);
  EXPECT_EQ(fps.size(), 6u);
  ASSERT_TRUE(store.get_state("phase").has_value());
  EXPECT_EQ(store.get_state("phase")->as_string(), "before-compact");
  // The next compaction completes the interrupted one.
  EXPECT_TRUE(store.compact());
  ms::RunStore reopened(dir);
  EXPECT_EQ(reopened.run_count(), 6u);
}

// -------------------------------------------------------- byte corruption

TEST(FleetChaos, RandomByteFlipsLoseOnlyTheDamagedLines) {
  const std::string dir = temp_store("byte_flips");
  ms::RunStoreOptions opt;
  opt.shards = 1;  // one WAL file: damage accounting is exact
  constexpr std::size_t kRuns = 50;
  {
    ms::RunStore store(dir, opt);
    for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
      store.append_run(fleet_run(seed, static_cast<double>(seed)));
    }
  }
  const fs::path wal = fs::path(dir) / "wal-00.jsonl";
  std::string bytes;
  {
    std::ifstream in(wal, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  // Map every byte offset to its line index so we can predict the damage.
  std::vector<std::size_t> line_of(bytes.size(), 0);
  std::size_t line = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    line_of[i] = line;
    if (bytes[i] == '\n') ++line;
  }
  Rng rng{2024};
  std::set<std::size_t> damaged;
  for (int k = 0; k < 5; ++k) {
    const std::size_t off = rng.next() % bytes.size();
    if (bytes[off] == '\n') {
      // Flipping the terminator merges this line into the next: both die
      // (the last line instead becomes a torn tail).
      damaged.insert(line_of[off]);
      if (line_of[off] + 1 < kRuns) damaged.insert(line_of[off] + 1);
    } else {
      damaged.insert(line_of[off]);
    }
    bytes[off] ^= 0x20;
  }
  {
    std::ofstream out(wal, std::ios::trunc | std::ios::binary);
    out << bytes;
  }

  ms::RunStore store(dir);
  // Exactly the damaged lines are gone; every untouched record survives.
  EXPECT_EQ(store.run_count(), kRuns - damaged.size());
  EXPECT_GE(store.corrupt_lines() + (store.dropped_tail_bytes() > 0 ? 1 : 0), 1u);
  std::set<std::uint64_t> surviving;
  for (const auto& run : store.runs()) surviving.insert(run.key.seed);
  for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
    if (damaged.count(seed - 1)) continue;  // line i holds seed i+1
    EXPECT_TRUE(surviving.count(seed)) << "undamaged seed " << seed << " lost";
  }
  // The store keeps working after surviving corruption.
  store.append_run(fleet_run(9999, 1.0));
  ms::RunStore reopened(dir);
  EXPECT_EQ(reopened.run_count(), kRuns - damaged.size() + 1);
}

TEST(FleetChaos, SnapshotCorruptionIsCountedAndSkipped) {
  const std::string dir = temp_store("snap_flip");
  ms::RunStoreOptions opt;
  opt.shards = 1;
  {
    ms::RunStore store(dir, opt);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      store.append_run(fleet_run(seed, static_cast<double>(seed)));
    }
    ASSERT_TRUE(store.compact());
  }
  const fs::path snap = fs::path(dir) / "snapshot-00.jsonl";
  std::string bytes;
  {
    std::ifstream in(snap, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x10;  // one flipped bit mid-snapshot
  {
    std::ofstream out(snap, std::ios::trunc | std::ios::binary);
    out << bytes;
  }
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 9u);
  EXPECT_EQ(store.corrupt_lines(), 1u);
}

// -------------------------------------------------- concurrent writer fleet

TEST(FleetChaos, FourWriterProcessesShareOneStoreWithoutLoss) {
  const std::string dir = temp_store("four_writers");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 40;
  std::vector<pid_t> pids;
  for (int w = 0; w < kWriters; ++w) {
    const std::string base = std::to_string(1 + w * 1000);
    const pid_t pid = spawn_self({"fleet-writer", "--fleet-writer", dir, base,
                                  std::to_string(kPerWriter)});
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    const int status = wait_status(pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "writer child failed";
  }

  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), kWriters * kPerWriter);
  EXPECT_EQ(store.corrupt_lines(), 0u);
  EXPECT_EQ(store.dropped_tail_bytes(), 0u);
  std::set<std::uint64_t> seeds;
  for (const auto& run : store.runs()) seeds.insert(run.key.seed);
  EXPECT_EQ(seeds.size(), kWriters * kPerWriter);  // no entry lost, none doubled
}

// --------------------------------------------------- multi-process caching

TEST(FleetChaos, CacheServerServesChildProcessesWithAttribution) {
  const std::string dir = temp_store("xproc_cache");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  constexpr std::uint64_t kEntries = 20;
  for (std::uint64_t seed = 1; seed <= kEntries; ++seed) {
    const auto run = fleet_run(seed, static_cast<double>(seed));
    cache.insert(run.fingerprint, run.key, run.result);
  }
  const std::string sock = temp_socket("xproc");
  ms::CacheServer server(cache, {.socket_path = sock});
  ASSERT_TRUE(server.start());

  std::vector<pid_t> pids;
  for (const char* tenant : {"team-a", "team-b"}) {
    const pid_t pid = spawn_self({"fleet-cache-client", "--fleet-cache-client",
                                  sock, tenant, "1", std::to_string(kEntries)});
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    const int status = wait_status(pid);
    ASSERT_TRUE(WIFEXITED(status));
    // Child exits with its hit count: every lookup must have been a hit.
    EXPECT_EQ(WEXITSTATUS(status), static_cast<int>(kEntries));
  }
  server.stop();
  const auto tenants = server.tenant_hits();
  ASSERT_TRUE(tenants.count("team-a"));
  ASSERT_TRUE(tenants.count("team-b"));
  EXPECT_EQ(tenants.at("team-a"), kEntries);
  EXPECT_EQ(tenants.at("team-b"), kEntries);
}

// ------------------------------------------- degraded-mode determinism

TEST(FleetChaos, CampaignOverFaultedShardedStoreMatchesCleanBitwise) {
  // 20% injected WAL crash rate, restricted to the store.wal sites: shards
  // degrade mid-campaign, but the campaign's *results* are bitwise those of
  // a clean run — the store is a cache/ledger, never an oracle.
  const auto oracle = cliff_oracle(1.6);

  const std::string dir_clean = temp_store("faulted_clean");
  ms::RunStore store_clean(dir_clean);
  ms::RunCache cache_clean(store_clean);
  mc::MabOptions opt = mab_base_options();
  opt.cache = &cache_clean;
  opt.cache_key.design = "faulted";
  opt.checkpoint = &store_clean;
  opt.campaign_id = "chaos";
  Rng rng1{7};
  const auto clean = mc::MabScheduler(opt).run(oracle, rng1);

  auto plan = *maestro::resil::FaultPlan::parse(
      "crash=0.2,corrupt=0.05,seed=11,sites=store.wal");
  maestro::resil::FaultInjector::install(plan);
  const std::string dir_chaos = temp_store("faulted_chaos");
  ms::RunStore store_chaos(dir_chaos);
  ms::RunCache cache_chaos(store_chaos);
  mc::MabOptions opt2 = mab_base_options();
  opt2.cache = &cache_chaos;
  opt2.cache_key.design = "faulted";
  opt2.checkpoint = &store_chaos;
  opt2.campaign_id = "chaos";
  Rng rng2{7};
  const auto chaotic = mc::MabScheduler(opt2).run(oracle, rng2);
  maestro::resil::FaultInjector::clear();

  expect_same_mab_result(clean, chaotic);
  EXPECT_TRUE(store_chaos.degraded());  // the faults really did land
  // A compaction heals every degraded shard and persists the full mirror.
  EXPECT_TRUE(store_chaos.compact());
  EXPECT_FALSE(store_chaos.degraded());
  ms::RunStore recovered(dir_chaos);
  EXPECT_EQ(recovered.run_count(), store_clean.run_count());
}

TEST(FleetChaos, CampaignOverPartitionedCacheServerMatchesCleanBitwise) {
  const auto oracle = cliff_oracle(1.6);

  // Clean: plain local cache, no server anywhere.
  const std::string dir_clean = temp_store("partition_clean");
  ms::RunStore store_clean(dir_clean);
  ms::RunCache cache_clean(store_clean);
  mc::MabOptions opt = mab_base_options();
  opt.cache = &cache_clean;
  opt.cache_key.design = "partition";
  Rng rng1{21};
  const auto clean = mc::MabScheduler(opt).run(oracle, rng1);

  // Partitioned: the campaign's remote tier points at a server that is
  // stopped (partitioned away) after start — every op fails fast and the
  // degradation ladder lands on the local store-backed cache.
  const std::string sock = temp_socket("partition");
  const std::string dir_part = temp_store("partition_chaos");
  ms::RunStore store_part(dir_part);
  ms::RunCache fallback(store_part);
  {
    ms::RunStore server_store(temp_store("partition_server"));
    ms::RunCache server_cache(server_store);
    ms::CacheServer server(server_cache, {.socket_path = sock});
    ASSERT_TRUE(server.start());
    server.stop();  // partition: socket path exists no more
  }
  ms::RemoteCacheOptions ropt;
  ropt.socket_path = sock;
  ropt.reconnect.max_attempts = 3;
  ropt.reconnect.backoff_ms = 0.0;
  ms::RemoteRunCache remote(ropt, &fallback);
  mc::MabOptions opt2 = mab_base_options();
  opt2.cache = &remote;
  opt2.cache_key.design = "partition";
  Rng rng2{21};
  const auto partitioned = mc::MabScheduler(opt2).run(oracle, rng2);

  expect_same_mab_result(clean, partitioned);
  EXPECT_TRUE(remote.gave_up());
  EXPECT_EQ(store_part.run_count(), store_clean.run_count());
}

// ------------------------------------------------------------ child roles

namespace {

/// Append `count` runs with seeds [base, base+count) and exit 0.
int run_fleet_writer(const char* dir, std::uint64_t base, std::uint64_t count) {
  ms::RunStoreOptions opt;
  opt.fsync = ms::FsyncMode::Off;  // speed; durability is not under test here
  ms::RunStore store(dir, opt);
  for (std::uint64_t i = 0; i < count; ++i) {
    store.append_run(fleet_run(base + i, static_cast<double>(base + i)));
  }
  return store.degraded() ? 3 : 0;
}

/// Append forever until SIGKILLed by the parent.
int run_fleet_killme(const char* dir) {
  ms::RunStoreOptions opt;
  opt.fsync = ms::FsyncMode::Off;
  ms::RunStore store(dir, opt);
  for (std::uint64_t seed = 1;; ++seed) {
    store.append_run(fleet_run(seed, static_cast<double>(seed)));
  }
}

/// Append 6 runs plus a state marker, then SIGKILL ourselves at the given
/// compaction phase — a real crashed compactor, not a simulation.
int run_fleet_compact(const char* dir, const char* phase) {
  const std::string want{phase};
  ms::RunStoreOptions opt;
  opt.shards = 1;
  opt.compact_hook = [&want](const char* at, std::size_t) {
    if (want == at) ::kill(::getpid(), SIGKILL);
  };
  ms::RunStore store(dir, opt);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    store.append_run(fleet_run(seed, static_cast<double>(seed)));
  }
  store.put_state("phase", maestro::util::Json{"before-compact"});
  store.compact();
  return 7;  // unreachable when the hook fires
}

/// Look up `count` fingerprints starting at seed `base`; exit with the
/// number of remote hits (the parent expects all of them to hit).
int run_fleet_cache_client(const char* sock, const char* tenant,
                           std::uint64_t base, std::uint64_t count) {
  ms::RemoteCacheOptions opt;
  opt.socket_path = sock;
  opt.tenant = tenant;
  ms::RemoteRunCache client(opt);
  int hits = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (client.lookup(fleet_run(base + i, 0.0).fingerprint)) ++hits;
  }
  return hits;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::strcmp(argv[1], "--fleet-writer") == 0) {
    return run_fleet_writer(argv[2], std::strtoull(argv[3], nullptr, 10),
                            std::strtoull(argv[4], nullptr, 10));
  }
  if (argc == 3 && std::strcmp(argv[1], "--fleet-killme") == 0) {
    return run_fleet_killme(argv[2]);
  }
  if (argc == 4 && std::strcmp(argv[1], "--fleet-compact") == 0) {
    return run_fleet_compact(argv[2], argv[3]);
  }
  if (argc == 6 && std::strcmp(argv[1], "--fleet-cache-client") == 0) {
    return run_fleet_cache_client(argv[2], argv[3],
                                  std::strtoull(argv[4], nullptr, 10),
                                  std::strtoull(argv[5], nullptr, 10));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
