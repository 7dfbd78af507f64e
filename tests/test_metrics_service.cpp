// METRICS 2.0 service tests: sharded ingest, secondary indexes, streaming
// subscribers, backpressure policies, load semantics, the miner's streaming
// cursor, and the collector wire protocol (in-process and cross-process).
//
// This binary has its own main(): when launched as
//   maestro_metrics_service_tests --metrics-child <socket> <count> <base_id>
// it acts as a remote tool process, streams <count> records with preset run
// ids through a RemoteTransmitter, and exits — the cross-process collector
// test posix_spawns /proc/self/exe in that mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "metrics/collector.hpp"
#include "metrics/miner.hpp"
#include "metrics/server.hpp"
#include "obs/registry.hpp"

extern char** environ;

namespace mm = maestro::metrics;
namespace obs = maestro::obs;

namespace {

mm::Record make_record(const std::string& design, const std::string& step, std::uint64_t seed,
                       double metric = 0.0) {
  mm::Record r;
  r.design = design;
  r.step = step;
  r.seed = seed;
  r.values["wns_ps"] = metric;
  return r;
}

/// The record stream a `--metrics-child` process transmits: preset nonzero
/// run ids plus awkward payloads, so the parent can check bit-identical
/// arrival. Must stay in sync between parent expectation and child.
mm::Record child_record(std::uint64_t base_id, std::uint64_t i) {
  mm::Record r;
  r.run_id = base_id + i;
  r.design = "remote_dut_" + std::to_string(base_id);
  r.step = i % 2 == 0 ? "route" : "place";
  r.seed = 0x9e3779b97f4a7c15ULL + i;  // exercises the 64-bit seed path
  r.knobs["engine"] = "v" + std::to_string(i % 7);
  r.values["wns_ps"] = static_cast<double>(i) * 0.25 - 100.0;
  r.values["drvs"] = static_cast<double>(i % 13);
  return r;
}

std::vector<std::string> sorted_dumps(const std::vector<mm::Record>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.to_json().dump());
  std::sort(out.begin(), out.end());
  return out;
}

std::string temp_socket_path(const char* tag) {
  return "/tmp/maestro_test_" + std::string(tag) + "_" + std::to_string(::getpid()) + ".sock";
}

// ------------------------------------------------------------------ sharding

TEST(MetricsService, ShardCountRoundsUpToPowerOfTwo) {
  mm::Server server{{.shards = 5}};
  EXPECT_EQ(server.options().shards, 8u);
  server.submit(make_record("d", "s", 1));
  EXPECT_EQ(server.size(), 1u);
}

TEST(MetricsService, IndexedLookupsMatchPredicateScan) {
  mm::Server server{{.shards = 4}};
  for (std::uint64_t i = 0; i < 200; ++i) {
    server.submit(make_record("design_" + std::to_string(i % 7),
                              "step_" + std::to_string(i % 5), i, static_cast<double>(i)));
  }
  for (int d = 0; d < 7; ++d) {
    const std::string design = "design_" + std::to_string(d);
    auto indexed = server.for_design(design);
    auto scanned = server.query([&](const mm::Record& r) { return r.design == design; });
    const auto ids = [](std::vector<const mm::Record*> v) {
      std::vector<std::uint64_t> out;
      for (const auto* r : v) out.push_back(r->run_id);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(ids(indexed), ids(scanned)) << design;
    EXPECT_FALSE(indexed.empty());
  }
  for (int s = 0; s < 5; ++s) {
    const std::string step = "step_" + std::to_string(s);
    auto indexed = server.for_step(step);
    auto scanned = server.query([&](const mm::Record& r) { return r.step == step; });
    EXPECT_EQ(indexed.size(), scanned.size()) << step;
  }
}

TEST(MetricsService, IndexesSurviveEviction) {
  // Bounded single shard: evictions must prune the index fronts in lockstep.
  mm::Server server{{.shards = 1, .shard_capacity = 8, .overflow = mm::Overflow::DropOldest}};
  for (std::uint64_t i = 0; i < 40; ++i) {
    server.submit(make_record("d" + std::to_string(i % 3), "s", i));
  }
  EXPECT_LE(server.size(), 8u);
  std::size_t total = 0;
  for (int d = 0; d < 3; ++d) {
    const std::string design = "d" + std::to_string(d);
    auto indexed = server.for_design(design);
    auto scanned = server.query([&](const mm::Record& r) { return r.design == design; });
    EXPECT_EQ(indexed.size(), scanned.size());
    for (const auto* r : indexed) EXPECT_EQ(r->design, design);
    total += indexed.size();
  }
  EXPECT_EQ(total, server.size());
}

// ----------------------------------------------------------------- streaming

TEST(MetricsService, PollSinceReconstructsAll) {
  mm::Server server{{.shards = 8}};
  const std::uint64_t sub = server.subscribe(/*from_start=*/true);
  for (std::uint64_t i = 0; i < 300; ++i) {
    server.submit(make_record("d" + std::to_string(i % 11), "s" + std::to_string(i % 3), i,
                              static_cast<double>(i)));
  }
  std::vector<mm::Record> streamed;
  for (;;) {  // bounded polls to exercise cursor resumption
    mm::Poll p = server.poll_since(sub, 64);
    EXPECT_EQ(p.missed, 0u);
    if (p.records.empty()) break;
    for (auto& r : p.records) streamed.push_back(std::move(r));
  }
  server.unsubscribe(sub);
  EXPECT_EQ(sorted_dumps(streamed), sorted_dumps(server.all()));
}

TEST(MetricsService, SubscribeFromTailSeesOnlyNewRecords) {
  mm::Server server{{.shards = 2}};
  server.submit(make_record("d", "s", 1));
  const std::uint64_t sub = server.subscribe(/*from_start=*/false);
  server.submit(make_record("d", "s", 2));
  mm::Poll p = server.poll_since(sub);
  ASSERT_EQ(p.records.size(), 1u);
  EXPECT_EQ(p.records[0].seed, 2u);
  server.unsubscribe(sub);
}

TEST(MetricsService, PerStreamOrderIsSubmissionOrder) {
  mm::Server server{{.shards = 16}};
  const std::uint64_t sub = server.subscribe();
  for (std::uint64_t i = 0; i < 50; ++i) server.submit(make_record("only", "flow", i));
  const mm::Poll p = server.poll_since(sub);
  ASSERT_EQ(p.records.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(p.records[i].seed, i);
  server.unsubscribe(sub);
}

TEST(MetricsService, ConcurrentSubmitWhilePolling) {
  // The TSan workhorse: 4 producers on distinct streams racing one
  // poll_since consumer; the streamed reconstruction must equal all().
  mm::Server server{{.shards = 8}};
  const std::uint64_t sub = server.subscribe();
  constexpr std::uint64_t kPerProducer = 2000;
  constexpr std::size_t kProducers = 4;
  std::atomic<bool> done{false};
  std::vector<mm::Record> streamed;
  std::uint64_t missed = 0;
  std::thread consumer([&] {
    for (;;) {
      mm::Poll p = server.poll_since(sub, 128);
      missed += p.missed;
      for (auto& r : p.records) streamed.push_back(std::move(r));
      if (p.records.empty()) {
        if (done.load(std::memory_order_acquire)) break;
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        server.submit(make_record("dut" + std::to_string(p), "flow", i, static_cast<double>(i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  server.unsubscribe(sub);
  EXPECT_EQ(missed, 0u);
  EXPECT_EQ(streamed.size(), kProducers * kPerProducer);
  EXPECT_EQ(sorted_dumps(streamed), sorted_dumps(server.all()));
}

// -------------------------------------------------------------- backpressure

TEST(MetricsService, DropOldestEvictsAndCountsMisses) {
  mm::Server server{{.shards = 1, .shard_capacity = 4, .overflow = mm::Overflow::DropOldest}};
  auto& dropped = obs::Registry::global().counter("metrics.ingest_dropped");
  const std::uint64_t before = dropped.value();
  const std::uint64_t sub = server.subscribe();  // never polls until the end
  for (std::uint64_t i = 0; i < 10; ++i) server.submit(make_record("d", "s", i));
  EXPECT_EQ(server.size(), 4u);
  EXPECT_EQ(dropped.value() - before, 6u);
  const mm::Poll p = server.poll_since(sub);
  EXPECT_EQ(p.missed, 6u);  // the subscriber saw the gap
  ASSERT_EQ(p.records.size(), 4u);
  EXPECT_EQ(p.records.front().seed, 6u);  // oldest retained
  server.unsubscribe(sub);
}

TEST(MetricsService, ConsumedRecordsAreFreeToEvict) {
  // A subscriber that keeps up turns the bound into pure retention trimming:
  // nothing is dropped and nothing is missed.
  mm::Server server{{.shards = 1, .shard_capacity = 4, .overflow = mm::Overflow::DropOldest}};
  auto& dropped = obs::Registry::global().counter("metrics.ingest_dropped");
  const std::uint64_t before = dropped.value();
  const std::uint64_t sub = server.subscribe();
  std::size_t streamed = 0;
  std::uint64_t missed = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    server.submit(make_record("d", "s", i));
    const mm::Poll p = server.poll_since(sub);
    streamed += p.records.size();
    missed += p.missed;
  }
  EXPECT_EQ(streamed, 32u);
  EXPECT_EQ(missed, 0u);
  EXPECT_EQ(dropped.value() - before, 0u);
  server.unsubscribe(sub);
}

TEST(MetricsService, BlockModeDeliversEverythingInOrder) {
  mm::Server server{{.shards = 1, .shard_capacity = 4, .overflow = mm::Overflow::Block}};
  auto& dropped = obs::Registry::global().counter("metrics.ingest_dropped");
  auto& blocked_ms = obs::Registry::global().counter("metrics.ingest_blocked_ms");
  const std::uint64_t dropped_before = dropped.value();
  const std::uint64_t blocked_before = blocked_ms.value();
  const std::uint64_t sub = server.subscribe();
  constexpr std::uint64_t kTotal = 64;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) server.submit(make_record("d", "s", i));
  });
  // Let the producer fill the shard and block on the condvar before the
  // consumer starts draining, so blocked time is actually accrued.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<mm::Record> streamed;
  std::uint64_t missed = 0;
  while (streamed.size() < kTotal) {
    mm::Poll p = server.poll_since(sub, 2);
    missed += p.missed;
    for (auto& r : p.records) streamed.push_back(std::move(r));
    if (p.records.empty()) std::this_thread::yield();
  }
  producer.join();
  server.unsubscribe(sub);
  EXPECT_EQ(missed, 0u);
  EXPECT_EQ(dropped.value() - dropped_before, 0u);
  EXPECT_GE(blocked_ms.value() - blocked_before, 1u);
  ASSERT_EQ(streamed.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) EXPECT_EQ(streamed[i].seed, i);
}

TEST(MetricsService, BlockModeWithoutSubscribersDegradesToDrop) {
  // Nobody will ever consume; waiting would deadlock, so overflow drops.
  mm::Server server{{.shards = 1, .shard_capacity = 4, .overflow = mm::Overflow::Block}};
  for (std::uint64_t i = 0; i < 20; ++i) server.submit(make_record("d", "s", i));
  EXPECT_EQ(server.size(), 4u);
}

// ---------------------------------------------------------- load persistence

TEST(MetricsService, LoadBypassesSinkAndBumpsIds) {
  const std::string path = "/tmp/maestro_test_load_" + std::to_string(::getpid()) + ".jsonl";
  mm::Server source;
  source.submit(make_record("dut", "flow", 1));
  source.submit(make_record("dut", "route", 2));
  ASSERT_TRUE(source.save(path));

  mm::Server server;
  std::atomic<std::size_t> sink_calls{0};
  server.set_sink([&](const mm::Record&) { sink_calls.fetch_add(1); });
  EXPECT_EQ(server.load(path), 2u);
  // The sink is the persistence bridge; replaying a file through it would
  // double-persist every record.
  EXPECT_EQ(sink_calls.load(), 0u);
  // New submissions must not collide with loaded run ids.
  const std::uint64_t id = server.submit(make_record("dut", "place", 3));
  EXPECT_GT(id, 2u);
  EXPECT_EQ(sink_calls.load(), 1u);
  std::remove(path.c_str());
}

TEST(MetricsService, LoadFileCountsSkippedLines) {
  const std::string path = "/tmp/maestro_test_skip_" + std::to_string(::getpid()) + ".jsonl";
  {
    std::ofstream out(path);
    out << make_record("dut", "flow", 1).to_json().dump() << '\n';
    out << "this is not json\n";
    out << make_record("dut", "flow", 2).to_json().dump() << '\n';
    out << "{\"unterminated\": \n";
  }
  auto& skipped = obs::Registry::global().counter("metrics.load_skipped");
  const std::uint64_t before = skipped.value();
  mm::Server server;
  const mm::LoadResult res = server.load_file(path);
  EXPECT_EQ(res.loaded, 2u);
  EXPECT_EQ(res.skipped, 2u);
  EXPECT_EQ(skipped.value() - before, 2u);
  EXPECT_EQ(server.size(), 2u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ streaming miner

TEST(MetricsService, StreamingKnobStatsMatchesBatchMiner) {
  mm::Server server;
  mm::StreamingKnobStats live{server, "wns_ps", "flow"};
  for (std::uint64_t i = 0; i < 120; ++i) {
    mm::Record r = make_record("dut", i % 4 == 0 ? "route" : "flow", i,
                               static_cast<double>(i % 17) - 8.0);
    r.knobs["effort"] = i % 3 == 0 ? "high" : "low";
    r.knobs["opt.style"] = i % 2 == 0 ? "timing" : "power";
    server.submit(std::move(r));
    if (i % 10 == 0) live.poll();  // interleave polling with collection
  }
  live.poll();
  EXPECT_EQ(live.consumed(), 120u);
  EXPECT_EQ(live.missed(), 0u);
  const auto stream = live.effects();
  const auto batch = mm::knob_sensitivity(server, "wns_ps", "flow");
  ASSERT_EQ(stream.size(), batch.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].knob, batch[i].knob);
    EXPECT_EQ(stream[i].value, batch[i].value);
    EXPECT_EQ(stream[i].runs, batch[i].runs);
    EXPECT_DOUBLE_EQ(stream[i].mean_metric, batch[i].mean_metric);
    EXPECT_DOUBLE_EQ(stream[i].stddev_metric, batch[i].stddev_metric);
  }
}

// -------------------------------------------------------------- wire protocol

TEST(MetricsService, WireRoundTripInProcess) {
  const std::string path = temp_socket_path("wire");
  mm::Server server;
  mm::Collector collector(server, {.socket_path = path});
  ASSERT_TRUE(collector.start());

  std::vector<mm::Record> sent;
  {
    mm::RemoteTransmitter tx(path, {.batch_records = 16});
    ASSERT_TRUE(tx.connected());
    for (std::uint64_t i = 0; i < 100; ++i) {
      mm::Record r = child_record(/*base_id=*/1000, i);
      sent.push_back(r);
      ASSERT_TRUE(tx.submit(std::move(r)));
    }
    // flush(): every record submitted so far is queryable on return.
    ASSERT_TRUE(tx.flush());
    EXPECT_EQ(server.size(), 100u);
    ASSERT_TRUE(tx.close());
  }
  collector.stop();
  EXPECT_EQ(collector.records_received(), 100u);
  EXPECT_EQ(collector.connections_accepted(), 1u);
  // Preset run ids survive the wire: arrival is bit-identical.
  EXPECT_EQ(sorted_dumps(sent), sorted_dumps(server.all()));
}

/// Threads of this process, counted from /proc/self/task (read only).
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task")) ++n;
  return n;
}

TEST(MetricsService, CollectorReapsFinishedConnectionThreads) {
  const std::string path = temp_socket_path("reap");
  mm::Server server;
  mm::Collector collector(server, {.socket_path = path});
  ASSERT_TRUE(collector.start());
  const std::size_t threads0 = thread_count();

  constexpr int kClients = 500;
  for (int i = 0; i < kClients; ++i) {
    mm::RemoteTransmitter tx(path);
    ASSERT_TRUE(tx.connected());
    ASSERT_TRUE(tx.submit(child_record(/*base_id=*/1, static_cast<std::uint64_t>(i))));
    ASSERT_TRUE(tx.flush());  // sync/ack handshake
    ASSERT_TRUE(tx.close());  // bye/ack, then disconnect
  }
  // Finished readers are joined as new clients arrive and on idle accept
  // polls, so threads and bookkeeping return to their starting level
  // instead of growing by one per client.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((thread_count() > threads0 + 1 || collector.tracked_connections() > 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(thread_count(), threads0 + 1);
  EXPECT_LE(collector.tracked_connections(), 1u);
  EXPECT_EQ(collector.connections_accepted(), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(collector.records_received(), static_cast<std::uint64_t>(kClients));
  collector.stop();
  EXPECT_EQ(collector.tracked_connections(), 0u);
  EXPECT_LE(thread_count(), threads0 - 1);  // the accept thread is gone too
}

TEST(MetricsService, CollectorAssignsIdsToUnnumberedRecords) {
  const std::string path = temp_socket_path("assign");
  mm::Server server;
  mm::Collector collector(server, {.socket_path = path});
  ASSERT_TRUE(collector.start());
  {
    mm::RemoteTransmitter tx(path);
    ASSERT_TRUE(tx.connected());
    for (std::uint64_t i = 0; i < 10; ++i) tx.submit(make_record("dut", "flow", i));
    ASSERT_TRUE(tx.close());
  }
  collector.stop();
  std::vector<std::uint64_t> ids;
  for (const auto& r : server.all()) ids.push_back(r.run_id);
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 10u);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());  // unique
  EXPECT_GT(ids.front(), 0u);
}

TEST(MetricsService, CrossProcessCollectorRoundTrip) {
  const std::string path = temp_socket_path("xproc");
  mm::Server server;
  mm::Collector collector(server, {.socket_path = path});
  ASSERT_TRUE(collector.start());

  // Two child processes, >= 10k records total, disjoint preset id ranges.
  constexpr std::uint64_t kPerChild = 5000;
  const std::uint64_t bases[] = {100000, 200000};
  std::vector<pid_t> children;
  for (const std::uint64_t base : bases) {
    const std::string count = std::to_string(kPerChild);
    const std::string base_s = std::to_string(base);
    const char* argv[] = {"maestro_metrics_service_tests", "--metrics-child", path.c_str(),
                          count.c_str(), base_s.c_str(), nullptr};
    pid_t pid = -1;
    ASSERT_EQ(::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                            const_cast<char* const*>(argv), environ),
              0);
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = -1;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "child transmitter failed";
  }
  collector.stop();

  std::vector<mm::Record> expected;
  for (const std::uint64_t base : bases) {
    for (std::uint64_t i = 0; i < kPerChild; ++i) expected.push_back(child_record(base, i));
  }
  EXPECT_EQ(collector.records_received(), expected.size());
  EXPECT_EQ(collector.connections_accepted(), 2u);
  // Bit-identical round-trip across the process boundary.
  EXPECT_EQ(sorted_dumps(expected), sorted_dumps(server.all()));
}

}  // namespace

/// Child mode: stream records into a collector socket and exit 0 on a fully
/// acknowledged graceful close.
static int run_metrics_child(const char* socket_path, std::uint64_t count, std::uint64_t base_id) {
  mm::RemoteTransmitter tx(socket_path, {.batch_records = 128});
  if (!tx.connected()) return 2;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!tx.submit(child_record(base_id, i))) return 3;
  }
  return tx.close() ? 0 : 4;
}

int main(int argc, char** argv) {
  if (argc == 5 && std::strcmp(argv[1], "--metrics-child") == 0) {
    return run_metrics_child(argv[2], std::strtoull(argv[3], nullptr, 10),
                             std::strtoull(argv[4], nullptr, 10));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
