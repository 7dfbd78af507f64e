// Tests for maestro::store — the durable run store: fingerprint stability,
// WAL append/recover, kill-the-writer torn-tail recovery, snapshot
// compaction, content-addressed memoization through RunExecutor, the
// metrics-server persistence bridge, and campaign checkpoint/resume for
// MabScheduler and FlowTreeSearch.
//
// This file builds as its own binary (maestro_store_tests) labeled "store"
// so it can run in isolation under -DMAESTRO_SANITIZE=thread:
//   ctest -L store

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <string_view>
#include <thread>
#include <vector>

#include "core/flow_search.hpp"
#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "metrics/frame.hpp"
#include "metrics/server.hpp"
#include "obs/registry.hpp"
#include "resil/fault.hpp"
#include "store/cache_server.hpp"
#include "store/fingerprint.hpp"
#include "store/remote_cache.hpp"
#include "store/run_cache.hpp"
#include "store/run_store.hpp"
#include "store/wal_frame.hpp"

namespace fs = std::filesystem;
namespace mc = maestro::core;
namespace mf = maestro::flow;
namespace mm = maestro::metrics;
namespace ms = maestro::store;
namespace mx = maestro::exec;
using maestro::obs::Registry;
using maestro::util::Rng;

namespace {

/// This process's directory for test stores: private, so concurrent test
/// runs cannot share or delete each other's stores.
fs::path temp_root() {
  return fs::temp_directory_path() / ("maestro_store_tests_" + std::to_string(::getpid()));
}

/// Removes this process's test stores when the test program ends.
class TempRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override { fs::remove_all(temp_root()); }
};
[[maybe_unused]] ::testing::Environment* const kTempRootCleanup =
    ::testing::AddGlobalTestEnvironment(new TempRootCleanup);

/// A fresh, empty store directory under temp_root().
std::string temp_store(const std::string& name) {
  const fs::path dir = temp_root() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

mf::FlowResult sample_result(double area) {
  mf::FlowResult r;
  r.completed = true;
  r.timing_met = true;
  r.drc_clean = true;
  r.constraints_met = true;
  r.area_um2 = area;
  r.wns_ps = 12.5;
  r.power_mw = 3.25;
  r.tat_minutes = 42.0;
  return r;
}

ms::StoredRun sample_run(std::uint64_t seed, double area) {
  ms::StoredRun run;
  run.key.design = "unit";
  run.key.seed = seed;
  run.key.set("place.effort", "high");
  run.fingerprint = run.key.fingerprint();
  run.result = sample_result(area);
  return run;
}

/// Global obs counters are cumulative per process: tests must diff.
std::uint64_t counter(const char* name) {
  return Registry::global().counter(name).value();
}

/// An rng_state_to_json-shaped array of the given words.
maestro::util::Json rng_words(std::initializer_list<const char*> words) {
  maestro::util::JsonArray a;
  for (const char* w : words) a.push_back(maestro::util::Json{w});
  return maestro::util::Json{std::move(a)};
}

/// A checkpoint with one field replaced.
maestro::util::Json with_field(const maestro::util::Json& state, const char* key,
                               maestro::util::Json value) {
  maestro::util::JsonObject o = state.as_object();
  o[key] = std::move(value);
  return maestro::util::Json{std::move(o)};
}

/// Same synthetic cliff oracle as the exec/core MAB tests: pure function of
/// (target_ghz, seed).
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

/// Synthetic trajectory oracle: cost is a pure function of the flattened
/// knob assignment plus seed noise, so searches are deterministic and fast.
mc::TrajectoryOracle knob_oracle() {
  return [](const mf::FlowTrajectory& t, std::uint64_t seed) {
    Rng rng{seed};
    double score = 0.0;
    for (const auto& [name, value] : mf::flatten(t)) {
      std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a: platform-stable
      for (const char c : name + "=" + value) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      }
      Rng knob_rng{h};
      score += knob_rng.uniform() * 300.0;
    }
    mf::FlowResult res;
    res.completed = true;
    res.timing_met = true;
    res.drc_clean = true;
    res.constraints_met = true;
    res.area_um2 = 500.0 + score + rng.gauss(0.0, 5.0);
    res.power_mw = 10.0;
    res.tat_minutes = 30.0;
    return res;
  };
}

}  // namespace

// -------------------------------------------------------------- fingerprint

TEST(RunKeyFingerprint, IndependentOfKnobInsertionOrder) {
  ms::RunKey a;
  a.design = "jpeg";
  a.seed = 7;
  a.set("syn.effort", "high");
  a.set("place.density", "0.7");
  a.set("route.layers", "6");

  ms::RunKey b;
  b.design = "jpeg";
  b.seed = 7;
  b.set("route.layers", "6");
  b.set("syn.effort", "high");
  b.set("place.density", "0.7");

  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), a.fingerprint());  // pure
}

TEST(RunKeyFingerprint, AnySingleComponentChangesTheHash) {
  ms::RunKey base;
  base.design = "jpeg";
  base.seed = 7;
  base.set("syn.effort", "high");
  base.set("place.density", "0.7");
  const std::uint64_t fp = base.fingerprint();

  ms::RunKey design = base;
  design.design = "aes";
  EXPECT_NE(design.fingerprint(), fp);

  ms::RunKey step = base;
  step.step = "route";
  EXPECT_NE(step.fingerprint(), fp);

  ms::RunKey seed = base;
  seed.seed = 8;
  EXPECT_NE(seed.fingerprint(), fp);

  ms::RunKey value = base;
  value.set("syn.effort", "low");
  EXPECT_NE(value.fingerprint(), fp);

  ms::RunKey extra = base;
  extra.set("cts.skew", "tight");
  EXPECT_NE(extra.fingerprint(), fp);

  // Knob name/value boundaries are length-prefixed: shuffling characters
  // between name and value must not collide.
  ms::RunKey shifted;
  shifted.design = "jpeg";
  shifted.seed = 7;
  shifted.set("syn.effor", "thigh");
  shifted.set("place.density", "0.7");
  EXPECT_NE(shifted.fingerprint(), fp);
}

TEST(RunKeyFingerprint, NumericKnobsUseCanonicalEncoding) {
  EXPECT_EQ(ms::canonical_number(2.0), "2");
  EXPECT_EQ(ms::canonical_number(0.5), "0.5");
  EXPECT_EQ(ms::canonical_number(1.0 / 3.0), ms::canonical_number(1.0 / 3.0));

  ms::RunKey a;
  a.set("target_ghz", 2.0);
  ms::RunKey b;
  b.set("target_ghz", "2");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(RunKeyFingerprint, RecipeKeyFlattensTrajectoryAndContext) {
  const auto spaces = mf::default_knob_spaces();
  mf::FlowRecipe recipe;
  recipe.design.name = "soc";
  recipe.target_ghz = 1.5;
  recipe.knobs = mf::default_trajectory(spaces);
  recipe.seed = 11;

  const ms::RunKey key = ms::run_key_for(recipe);
  EXPECT_EQ(key.design, "soc");
  EXPECT_EQ(key.step, "flow");
  EXPECT_EQ(key.seed, 11u);
  EXPECT_EQ(key.knobs.at("target_ghz"), ms::canonical_number(1.5));
  for (const auto& [name, value] : mf::flatten(recipe.knobs)) {
    EXPECT_EQ(key.knobs.at(name), value);
  }

  mf::FlowRecipe other = recipe;
  other.knobs.set(mf::FlowStep::Place, "density", "different");
  EXPECT_NE(ms::run_key_for(other).fingerprint(), key.fingerprint());
}

// ------------------------------------------------------------ rng state json

TEST(RngStateJson, RoundTripsIncludingGaussSpare) {
  Rng a{5};
  (void)a.uniform();
  (void)a.gauss(0.0, 1.0);  // leaves the Marsaglia spare armed

  const maestro::util::Json j = ms::rng_state_to_json(a);
  Rng b{999};
  ASSERT_TRUE(ms::rng_state_from_json(b, j));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.gauss(0.0, 1.0), b.gauss(0.0, 1.0));
  }

  const maestro::util::Json bad =
      maestro::util::Json{maestro::util::JsonArray{maestro::util::Json{"1"}}};
  EXPECT_FALSE(ms::rng_state_from_json(b, bad));
}

TEST(RngStateJson, RejectsStatesSaveStateCannotProduceAndLeavesTheGeneratorAlone) {
  Rng rng{5};
  (void)rng.gauss(0.0, 1.0);
  const auto before = rng.save_state();
  const maestro::util::Json bad[] = {
      // The all-zero xoshiro state: next() would return 0 forever.
      rng_words({"0", "0", "0", "0", "0", "0"}),
      rng_words({"0", "0", "0", "0", "1", "4607182418800017408"}),
      // A spare flag other than 0 or 1.
      rng_words({"1", "2", "3", "4", "2", "0"}),
      // Words that are not a whole decimal uint64.
      rng_words({"abc", "2", "3", "4", "0", "0"}),
      rng_words({"1", "12abc", "3", "4", "0", "0"}),
      rng_words({"1", "2", "-1", "4", "0", "0"}),
      rng_words({"1", "2", "3", "", "0", "0"}),
      rng_words({"1", "2", "3", " 4", "0", "0"}),
      rng_words({"1", "2", "3", "+4", "0", "0"}),
      rng_words({"1", "2", "3", "0x4", "0", "0"}),
      rng_words({"1", "2", "3", "4", "0", "18446744073709551616"}),
      maestro::util::Json{maestro::util::JsonArray(6, maestro::util::Json{1.0})},
  };
  for (const auto& j : bad) {
    EXPECT_FALSE(ms::rng_state_from_json(rng, j)) << j.dump();
    EXPECT_EQ(rng.save_state(), before) << j.dump();
  }
  // One nonzero state word is enough, and every word may be 2^64 - 1.
  EXPECT_TRUE(ms::rng_state_from_json(rng, rng_words({"0", "0", "0", "1", "0", "0"})));
  EXPECT_NE(rng.next(), 0u);
  const char* max = "18446744073709551615";
  EXPECT_TRUE(ms::rng_state_from_json(rng, rng_words({max, max, max, max, "1", max})));
}

TEST(U64Json, RoundTripsAndRejectsAnythingButAWholeDecimalUint64) {
  for (const std::uint64_t v : {0ULL, 1ULL, 18446744073709551615ULL}) {
    EXPECT_EQ(ms::u64_from_json(ms::u64_to_json(v)), v);
  }
  for (const char* bad : {"abc", "", "-1", "1.0", " 1", "1 ", "+1", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ms::u64_from_json(maestro::util::Json{bad}).has_value()) << '"' << bad << '"';
  }
  EXPECT_FALSE(ms::u64_from_json(maestro::util::Json{7.0}).has_value());
}

// ------------------------------------------------------------------ RunStore

TEST(RunStore, AppendRecoverRoundTrip) {
  const std::string dir = temp_store("roundtrip");
  mm::Record rec;
  rec.run_id = 3;
  rec.design = "unit";
  rec.step = "flow";
  rec.values["area_um2"] = 123.0;
  {
    ms::RunStore store(dir);
    EXPECT_EQ(store.recovered_entries(), 0u);
    store.append_run(sample_run(1, 100.0));
    store.append_run(sample_run(2, 200.0));
    store.append_metric(rec);
    store.put_state("campaign", maestro::util::Json{"half-done"});
    EXPECT_EQ(store.wal_entries(), 4u);
  }
  ms::RunStore store(dir);
  EXPECT_EQ(store.recovered_entries(), 4u);
  EXPECT_EQ(store.wal_entries(), 0u);
  EXPECT_EQ(store.dropped_tail_bytes(), 0u);
  ASSERT_EQ(store.run_count(), 2u);
  ASSERT_EQ(store.metric_count(), 1u);

  const auto runs = store.runs();
  EXPECT_EQ(runs[0].key.seed, 1u);
  EXPECT_EQ(runs[0].fingerprint, runs[0].key.fingerprint());
  EXPECT_DOUBLE_EQ(runs[0].result.area_um2, 100.0);
  EXPECT_DOUBLE_EQ(runs[1].result.area_um2, 200.0);
  EXPECT_EQ(runs[1].key.knobs.at("place.effort"), "high");
  EXPECT_TRUE(runs[0].result.timing_met);

  const auto metrics = store.metric_records();
  EXPECT_EQ(metrics[0].design, "unit");
  EXPECT_DOUBLE_EQ(metrics[0].values.at("area_um2"), 123.0);

  const auto state = store.get_state("campaign");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->as_string(), "half-done");
  EXPECT_FALSE(store.get_state("missing").has_value());
}

TEST(RunStore, StateLastWriteWins) {
  const std::string dir = temp_store("state_lww");
  {
    ms::RunStore store(dir);
    store.put_state("k", maestro::util::Json{1.0});
    store.put_state("k", maestro::util::Json{2.0});
    EXPECT_DOUBLE_EQ(store.get_state("k")->as_number(), 2.0);
  }
  ms::RunStore store(dir);
  EXPECT_DOUBLE_EQ(store.get_state("k")->as_number(), 2.0);
}

TEST(RunStore, KillTheWriterDropsOnlyTheTornTail) {
  const std::string dir = temp_store("torn_tail");
  ms::RunStoreOptions one_shard;
  one_shard.shards = 1;  // single WAL so the torn bytes land deterministically
  {
    ms::RunStore store(dir, one_shard);
    store.append_run(sample_run(1, 100.0));
    store.append_run(sample_run(2, 200.0));
    store.append_run(sample_run(3, 300.0));
  }
  // Simulate a writer killed mid-append: a torn, unterminated final record.
  const std::string partial = "deadbeef 40 {\"t\":\"run\",\"fp\":\"12";
  {
    std::ofstream wal(fs::path(dir) / "wal-00.jsonl", std::ios::app | std::ios::binary);
    wal << partial;
  }
  {
    ms::RunStore store(dir);
    EXPECT_EQ(store.run_count(), 3u);  // every complete record survives
    EXPECT_EQ(store.recovered_entries(), 3u);
    EXPECT_EQ(store.dropped_tail_bytes(), partial.size());
    EXPECT_DOUBLE_EQ(store.runs()[2].result.area_um2, 300.0);
    // The tail was truncated away, so post-recovery appends start clean.
    store.append_run(sample_run(4, 400.0));
  }
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 4u);
  EXPECT_EQ(store.dropped_tail_bytes(), 0u);
  EXPECT_DOUBLE_EQ(store.runs()[3].result.area_um2, 400.0);
}

TEST(RunStore, CorruptMidFileLineIsSkippedNotFatal) {
  // The recovery bugfix this PR ships: a bad line in the *middle* of the
  // WAL no longer drops everything after it. The CRC frame classifies it
  // as corruption; replay skips it, counts store.corrupt_lines and keeps
  // every complete neighbour — before and after.
  const std::string dir = temp_store("mid_corrupt");
  ms::RunStoreOptions one_shard;
  one_shard.shards = 1;
  {
    ms::RunStore store(dir, one_shard);
    store.append_run(sample_run(1, 100.0));
    store.append_run(sample_run(2, 200.0));
    store.append_run(sample_run(3, 300.0));
  }
  // Flip one byte inside the *second* entry's payload.
  const fs::path wal = fs::path(dir) / "wal-00.jsonl";
  std::string bytes;
  {
    std::ifstream in(wal, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  const std::size_t first_nl = bytes.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  bytes[first_nl + 20] ^= 0x40;
  {
    std::ofstream out(wal, std::ios::trunc | std::ios::binary);
    out << bytes;
  }
  const std::uint64_t corrupt0 = counter("store.corrupt_lines");
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 2u);  // entries 1 and 3 survive
  EXPECT_EQ(store.corrupt_lines(), 1u);
  EXPECT_EQ(counter("store.corrupt_lines"), corrupt0 + 1);
  EXPECT_EQ(store.dropped_tail_bytes(), 0u);  // not a tear: nothing truncated
  double areas = 0.0;
  for (const auto& run : store.runs()) areas += run.result.area_um2;
  EXPECT_DOUBLE_EQ(areas, 400.0);  // 100 + 300; the flipped 200 is gone
  // The store stays appendable and a reopen still sees both survivors.
  store.append_run(sample_run(4, 400.0));
  ms::RunStore reopened(dir);
  EXPECT_EQ(reopened.run_count(), 3u);
}

TEST(RunStore, UnframedGarbageLineIsCountedAndSkipped) {
  const std::string dir = temp_store("garbage_line");
  ms::RunStoreOptions one_shard;
  one_shard.shards = 1;
  {
    ms::RunStore store(dir, one_shard);
    store.append_run(sample_run(1, 100.0));
  }
  {
    std::ofstream wal(fs::path(dir) / "wal-00.jsonl", std::ios::app | std::ios::binary);
    wal << "not json at all\n";
    wal << "{\"t\":\"state\",\"key\":\"after\",\"value\":1}\n";  // unframed: invalid
  }
  // Both injected lines fail the CRC frame; both are skipped, neither kills
  // replay, and the complete first entry survives.
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.corrupt_lines(), 2u);
  EXPECT_FALSE(store.get_state("after").has_value());
  store.append_run(sample_run(2, 200.0));
  ms::RunStore reopened(dir);
  EXPECT_EQ(reopened.run_count(), 2u);
}

TEST(RunStore, CompactionFoldsWalIntoSnapshot) {
  const std::string dir = temp_store("compact");
  const std::uint64_t compactions0 = counter("store.compactions");
  ms::RunStoreOptions one_shard;
  one_shard.shards = 1;
  {
    ms::RunStore store(dir, one_shard);
    store.append_run(sample_run(1, 100.0));
    store.append_run(sample_run(2, 200.0));
    store.put_state("k", maestro::util::Json{"v1"});
    store.put_state("k", maestro::util::Json{"v2"});
    ASSERT_TRUE(store.compact());
    EXPECT_EQ(store.wal_entries(), 0u);
    EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-00.jsonl"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "snapshot-00.jsonl.tmp"));
    EXPECT_EQ(fs::file_size(fs::path(dir) / "wal-00.jsonl"), 0u);
    // The store stays writable after compaction.
    store.append_run(sample_run(3, 300.0));
    EXPECT_EQ(store.wal_entries(), 1u);
  }
  EXPECT_EQ(counter("store.compactions"), compactions0 + 1);
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 3u);
  // Compaction folds last-write-wins state: only one entry per key survives.
  EXPECT_EQ(store.get_state("k")->as_string(), "v2");
  EXPECT_EQ(store.recovered_entries(), 4u);  // 2 runs + 1 state + 1 WAL run
}

TEST(RunStore, ShardedLayoutAndMetaNegotiation) {
  const std::string dir = temp_store("sharded");
  {
    ms::RunStore store(dir);  // default: 8 shards
    EXPECT_EQ(store.shard_count(), 8u);
    for (int i = 0; i < 8; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "wal-%02d.jsonl", i);
      EXPECT_TRUE(fs::exists(fs::path(dir) / name)) << name;
    }
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      store.append_run(sample_run(seed, 100.0 + static_cast<double>(seed)));
    }
    EXPECT_EQ(store.run_count(), 32u);
  }
  // A reopen that *requests* a different shard count still honours the
  // directory's store.meta — every opener must agree on the layout.
  ms::RunStoreOptions other;
  other.shards = 2;
  ms::RunStore store(dir, other);
  EXPECT_EQ(store.shard_count(), 8u);
  EXPECT_EQ(store.recovered_entries(), 32u);
  EXPECT_EQ(store.run_count(), 32u);
  // Every appended run is findable by fingerprint regardless of shard.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto want = sample_run(seed, 0.0).fingerprint;
    bool found = false;
    for (const auto& run : store.runs()) found = found || run.fingerprint == want;
    EXPECT_TRUE(found) << "seed " << seed;
  }
}

TEST(RunStore, FsyncPolicyCountsAndHonoursModes) {
  const std::uint64_t fsyncs0 = counter("store.fsyncs");
  {
    ms::RunStoreOptions opt;
    opt.shards = 1;
    opt.fsync = ms::FsyncMode::Always;
    ms::RunStore store(temp_store("fsync_always"), opt);
    store.append_run(sample_run(1, 1.0));
    store.append_run(sample_run(2, 2.0));
    store.append_run(sample_run(3, 3.0));
  }
  const std::uint64_t always = counter("store.fsyncs") - fsyncs0;
  EXPECT_GE(always, 3u);  // one per append

  const std::uint64_t fsyncs1 = counter("store.fsyncs");
  {
    ms::RunStoreOptions opt;
    opt.shards = 1;
    opt.fsync = ms::FsyncMode::Batch;
    opt.fsync_batch = 2;
    ms::RunStore store(temp_store("fsync_batch"), opt);
    for (std::uint64_t i = 1; i <= 6; ++i) store.append_run(sample_run(i, 1.0));
  }
  const std::uint64_t batch = counter("store.fsyncs") - fsyncs1;
  EXPECT_GE(batch, 3u);  // every 2nd append
  EXPECT_LT(batch, 6u);  // but strictly fewer than one per append

  const std::uint64_t fsyncs2 = counter("store.fsyncs");
  {
    ms::RunStoreOptions opt;
    opt.shards = 1;
    opt.fsync = ms::FsyncMode::Off;
    ms::RunStore store(temp_store("fsync_off"), opt);
    for (std::uint64_t i = 1; i <= 6; ++i) store.append_run(sample_run(i, 1.0));
  }
  EXPECT_EQ(counter("store.fsyncs") - fsyncs2, 0u);
}

TEST(RunStore, RefreshIngestsAnotherWritersAppends) {
  // Two RunStore instances over one directory model two processes sharing
  // it. B opens first, A appends, B.refresh() catches up without the lease.
  const std::string dir = temp_store("refresh");
  ms::RunStore a(dir);
  ms::RunStore b(dir);
  EXPECT_EQ(b.run_count(), 0u);
  a.append_run(sample_run(1, 100.0));
  a.append_run(sample_run(2, 200.0));
  a.put_state("owner", maestro::util::Json{"a"});
  EXPECT_EQ(b.run_count(), 0u);  // nothing until B looks
  EXPECT_EQ(b.refresh(), 3u);
  EXPECT_EQ(b.run_count(), 2u);
  ASSERT_TRUE(b.get_state("owner").has_value());
  EXPECT_EQ(b.get_state("owner")->as_string(), "a");
  EXPECT_EQ(b.refresh(), 0u);  // idempotent when nothing new arrived

  // Cross-writer interleaving: B appends too, then A catches up on its next
  // append (under the lease) — neither writer loses the other's entries.
  b.append_run(sample_run(3, 300.0));
  a.append_run(sample_run(4, 400.0));
  (void)a.refresh();
  EXPECT_EQ(a.run_count(), 4u);
  ms::RunStore fresh(dir);
  EXPECT_EQ(fresh.run_count(), 4u);
}

TEST(RunStore, RefreshReloadsAfterForeignCompaction) {
  const std::string dir = temp_store("refresh_compact");
  ms::RunStore a(dir);
  ms::RunStore b(dir);
  a.append_run(sample_run(1, 100.0));
  a.append_run(sample_run(2, 200.0));
  (void)b.refresh();
  EXPECT_EQ(b.run_count(), 2u);
  // A compacts: WALs shrink under B. B's next refresh must detect the
  // shrink and reload from the new snapshot instead of mis-reading offsets.
  ASSERT_TRUE(a.compact());
  a.append_run(sample_run(3, 300.0));
  (void)b.refresh();
  EXPECT_EQ(b.run_count(), 3u);
}

TEST(RunStore, CrashBetweenRenameAndTruncateDeduplicatesOnReplay) {
  // A compactor that dies after renaming the snapshot but before truncating
  // the WAL leaves every pre-compaction entry in *both* files. Replay must
  // not double them.
  const std::string dir = temp_store("compact_dup");
  ms::RunStoreOptions opt;
  opt.shards = 1;
  std::string wal_before;
  opt.compact_hook = [&](const char* phase, std::size_t) {
    if (std::string_view(phase) == "pre_truncate") {
      std::ifstream in(fs::path(dir) / "wal-00.jsonl", std::ios::binary);
      wal_before.assign((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    }
  };
  {
    ms::RunStore store(dir, opt);
    store.append_run(sample_run(1, 100.0));
    store.append_run(sample_run(2, 200.0));
    ASSERT_TRUE(store.compact());
  }
  ASSERT_FALSE(wal_before.empty());
  {
    // Re-materialize the pre-truncate WAL: snapshot and WAL now both carry
    // both entries, exactly the crashed-compactor state.
    std::ofstream out(fs::path(dir) / "wal-00.jsonl", std::ios::trunc | std::ios::binary);
    out << wal_before;
  }
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 2u);  // deduplicated, not 4
  EXPECT_EQ(store.corrupt_lines(), 0u);
  double areas = 0.0;
  for (const auto& run : store.runs()) areas += run.result.area_um2;
  EXPECT_DOUBLE_EQ(areas, 300.0);
}

TEST(RunStore, ConcurrentAppendsAreThreadSafe) {
  const std::string dir = temp_store("concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    ms::RunStore store(dir);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const auto n = static_cast<std::uint64_t>(t * kPerThread + i);
          store.append_run(sample_run(n, 100.0 + static_cast<double>(n)));
          mm::Record rec;
          rec.design = "unit";
          rec.step = "flow";
          rec.values["n"] = static_cast<double>(n);
          store.append_metric(rec);
          store.put_state("t" + std::to_string(t), maestro::util::Json{static_cast<double>(i)});
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(store.run_count(), static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(store.metric_count(), static_cast<std::size_t>(kThreads * kPerThread));
  }
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(store.metric_count(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(store.dropped_tail_bytes(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    const auto v = store.get_state("t" + std::to_string(t));
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(v->as_number(), kPerThread - 1.0);
  }
}

// ------------------------------------------------------------------ RunCache

TEST(RunCache, LookupInsertAndCounters) {
  const std::string dir = temp_store("cache_basic");
  ms::RunStore store(dir);
  ms::RunCache cache(store);

  ms::RunKey key;
  key.design = "unit";
  key.seed = 9;
  const std::uint64_t fp = key.fingerprint();

  const std::uint64_t miss0 = counter("store.cache_miss");
  const std::uint64_t hit0 = counter("store.cache_hit");
  EXPECT_FALSE(cache.lookup(fp).has_value());
  EXPECT_EQ(counter("store.cache_miss"), miss0 + 1);

  cache.insert(fp, key, sample_result(77.0));
  const auto hit = cache.lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->area_um2, 77.0);
  EXPECT_EQ(counter("store.cache_hit"), hit0 + 1);
  EXPECT_EQ(cache.size(), 1u);
  // Inserts write through to the backing store.
  EXPECT_EQ(store.run_count(), 1u);
}

TEST(RunCache, WarmStartsFromExistingStore) {
  const std::string dir = temp_store("cache_warm");
  {
    ms::RunStore store(dir);
    store.append_run(sample_run(1, 111.0));
    store.append_run(sample_run(2, 222.0));
  }
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  EXPECT_EQ(cache.size(), 2u);
  const auto hit = cache.lookup(sample_run(2, 0.0).fingerprint);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->area_um2, 222.0);
}

TEST(RunCache, FingerprintIndexRules) {
  const std::string dir = temp_store("cache_rules");
  const auto run_a = sample_run(1, 10.0);
  const auto run_b = sample_run(2, 20.0);
  {
    ms::RunStore store(dir);
    store.append_run(run_a);
    auto dup = run_a;
    dup.result.area_um2 = 11.0;
    store.append_run(dup);  // the same fingerprint stored twice
    store.append_run(run_b);
  }
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  EXPECT_EQ(store.run_count(), 3u);
  EXPECT_EQ(cache.size(), 2u);  // distinct fingerprints
  // Duplicates in a replayed store: the first entry wins.
  ASSERT_TRUE(cache.lookup(run_a.fingerprint).has_value());
  EXPECT_DOUBLE_EQ(cache.lookup(run_a.fingerprint)->area_um2, 10.0);

  // A local insert after replay overwrites.
  cache.insert(run_a.fingerprint, run_a.key, sample_result(12.0));
  EXPECT_DOUBLE_EQ(cache.lookup(run_a.fingerprint)->area_um2, 12.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(store.run_count(), 4u);

  // Another process's appends become visible once refresh() ingests them;
  // a refreshed duplicate does not displace what the cache already serves.
  const auto run_c = sample_run(3, 30.0);
  {
    ms::RunStore other(dir);
    other.append_run(run_c);
    auto late = run_a;
    late.result.area_um2 = 99.0;
    other.append_run(late);
  }
  EXPECT_FALSE(cache.lookup(run_c.fingerprint).has_value());
  EXPECT_EQ(store.refresh(), 2u);
  ASSERT_TRUE(cache.lookup(run_c.fingerprint).has_value());
  EXPECT_DOUBLE_EQ(cache.lookup(run_c.fingerprint)->area_um2, 30.0);
  EXPECT_DOUBLE_EQ(cache.lookup(run_a.fingerprint)->area_um2, 12.0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(store.run_count(), 6u);
}

// ----------------------------------------------------- executor memoization

namespace {

/// A one-job round memoized by `keyed`.
std::vector<mx::RoundJob<mf::FlowResult, ms::KeyedRunCache>> memo_round(
    const ms::KeyedRunCache& keyed, std::function<mf::FlowResult(mx::RunContext&)> body) {
  std::vector<mx::RoundJob<mf::FlowResult, ms::KeyedRunCache>> jobs(1);
  jobs[0].label = "memo";
  jobs[0].body = std::move(body);
  jobs[0].memo.emplace(keyed);
  return jobs;
}

}  // namespace

TEST(MemoRound, SecondRoundResolvesFromCacheWithoutExecuting) {
  const std::string dir = temp_store("memo");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  ms::RunKey key;
  key.design = "unit";
  key.seed = 4;
  const ms::KeyedRunCache keyed{cache, key};

  mx::RunExecutor pool{{.threads = 2}};
  std::atomic<int> executions{0};
  auto body = [&executions](mx::RunContext&) {
    executions.fetch_add(1);
    return sample_result(55.0);
  };

  const std::uint64_t hits0 = counter("exec.cache_hits");
  const auto first = mx::dispatch_round(pool, memo_round(keyed, body));
  ASSERT_TRUE(first[0].value);
  EXPECT_DOUBLE_EQ(first[0].value->area_um2, 55.0);
  const auto second = mx::dispatch_round(pool, memo_round(keyed, body));
  ASSERT_TRUE(second[0].value);
  EXPECT_DOUBLE_EQ(second[0].value->area_um2, 55.0);

  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(counter("exec.cache_hits"), hits0 + 1);

  // The hit is journaled as a zero-wall-time completed run, note "cache_hit".
  const auto records = pool.journal().snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].state, mx::RunState::Completed);
  EXPECT_EQ(records[1].note, "cache_hit");
  EXPECT_DOUBLE_EQ(records[1].wall_ms(), 0.0);
}

TEST(MemoRound, CancelledRunDoesNotPoisonTheCache) {
  const std::string dir = temp_store("memo_cancel");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  ms::RunKey key;
  key.design = "unit";
  key.seed = 6;
  const ms::KeyedRunCache keyed{cache, key};

  mx::RunExecutor pool{{.threads = 1}};
  auto body = [](mx::RunContext& ctx) {
    ctx.cancel.request_cancel();  // a guard killed this run mid-flight
    return sample_result(1.0);    // partial result
  };
  const auto outcomes = mx::dispatch_round(pool, memo_round(keyed, body));
  EXPECT_TRUE(outcomes[0].value);  // the caller still gets the partial result

  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(store.run_count(), 0u);
  EXPECT_FALSE(cache.lookup(keyed.fingerprint()).has_value());
}

// -------------------------------------------------------- metrics sink bridge

TEST(MetricsSink, ServerSubmissionsPersistToTheStore) {
  const std::string dir = temp_store("sink");
  {
    mm::Server server;
    ms::RunStore store(dir);
    ms::bind_metrics_sink(server, store);

    mm::Record rec;
    rec.design = "soc";
    rec.step = "flow";
    rec.values["wns_ps"] = -3.0;
    const std::uint64_t id = server.submit(rec);
    EXPECT_GT(id, 0u);
    EXPECT_EQ(store.metric_count(), 1u);
    // The sink sees the record after id assignment.
    EXPECT_EQ(store.metric_records()[0].run_id, id);

    server.set_sink(nullptr);  // detach before the store dies
    server.submit(rec);
    EXPECT_EQ(server.size(), 2u);
    EXPECT_EQ(store.metric_count(), 1u);
  }
  ms::RunStore store(dir);
  ASSERT_EQ(store.metric_count(), 1u);
  EXPECT_EQ(store.metric_records()[0].design, "soc");
  EXPECT_DOUBLE_EQ(store.metric_records()[0].values.at("wns_ps"), -3.0);
}

// ------------------------------------------------------- MAB checkpoint/resume

namespace {

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

TEST(MabResume, InterruptedCampaignMatchesUninterruptedBitwise) {
  const auto oracle = cliff_oracle(1.6);

  mc::MabOptions uninterrupted = mab_base_options();
  Rng rng_full{99};
  const auto full = mc::MabScheduler(uninterrupted).run(oracle, rng_full);

  const std::string dir = temp_store("mab_resume");
  ms::RunStore store(dir);

  // First half: dies (returns) after 3 of 6 iterations, checkpointing as it
  // goes.
  mc::MabOptions half = mab_base_options();
  half.iterations = 3;
  half.checkpoint = &store;
  half.campaign_id = "campaign-A";
  Rng rng_half{99};
  const auto partial = mc::MabScheduler(half).run(oracle, rng_half);
  EXPECT_EQ(partial.samples.size(), 3u * half.concurrency);
  ASSERT_TRUE(store.get_state("mab:campaign-A").has_value());

  // Resume with the full iteration budget; the initial rng is irrelevant —
  // the checkpoint restores the campaign's own random stream.
  mc::MabOptions resumed = mab_base_options();
  resumed.checkpoint = &store;
  resumed.campaign_id = "campaign-A";
  const std::uint64_t resumes0 = counter("store.campaign_resumed");
  Rng rng_resume{12345};
  const auto cont = mc::MabScheduler(resumed).run(oracle, rng_resume);
  EXPECT_EQ(counter("store.campaign_resumed"), resumes0 + 1);

  expect_same_mab_result(full, cont);
}

TEST(MabResume, FinishedCampaignShortCircuits) {
  const auto oracle = cliff_oracle(1.6);
  const std::string dir = temp_store("mab_finished");
  ms::RunStore store(dir);

  mc::MabOptions opt = mab_base_options();
  opt.checkpoint = &store;
  opt.campaign_id = "done";
  Rng rng{7};
  const auto first = mc::MabScheduler(opt).run(oracle, rng);

  const std::size_t runs_before = store.run_count();
  Rng rng2{8};
  const auto again = mc::MabScheduler(opt).run(oracle, rng2);
  expect_same_mab_result(first, again);
  EXPECT_EQ(store.run_count(), runs_before);  // nothing re-executed
}

TEST(MabResume, MismatchedOptionsStartFresh) {
  const auto oracle = cliff_oracle(1.6);
  const std::string dir = temp_store("mab_mismatch");
  ms::RunStore store(dir);

  mc::MabOptions opt = mab_base_options();
  opt.iterations = 3;
  opt.checkpoint = &store;
  opt.campaign_id = "shape";
  Rng rng{7};
  (void)mc::MabScheduler(opt).run(oracle, rng);

  // Different arm set: the persisted posteriors no longer apply; the
  // campaign must restart rather than resume into the wrong shape.
  mc::MabOptions changed = mab_base_options();
  changed.frequency_arms_ghz = mc::frequency_arms(1.0, 2.0, 7);
  changed.iterations = 3;
  changed.checkpoint = &store;
  changed.campaign_id = "shape";
  Rng rng2{7};
  const auto fresh = mc::MabScheduler(changed).run(oracle, rng2);
  EXPECT_EQ(fresh.total_runs, changed.iterations * changed.concurrency);
  EXPECT_EQ(fresh.samples.front().iteration, 0u);
}

TEST(MabResume, ZeroOrNonDecimalRngCheckpointStartsFresh) {
  // A checkpoint whose RNG words decode to the all-zero xoshiro state would
  // make every draw 0, and below() and gauss() would never return; it is
  // rejected like any other undecodable checkpoint and the campaign starts
  // over.
  const auto oracle = cliff_oracle(1.6);
  Rng rng_fresh{99};
  const auto fresh = mc::MabScheduler(mab_base_options()).run(oracle, rng_fresh);

  const std::string dir = temp_store("mab_zero_rng");
  ms::RunStore store(dir);
  mc::MabOptions half = mab_base_options();
  half.iterations = 3;
  half.checkpoint = &store;
  half.campaign_id = "zero-rng";
  Rng rng_half{99};
  (void)mc::MabScheduler(half).run(oracle, rng_half);
  const auto saved = store.get_state("mab:zero-rng");
  ASSERT_TRUE(saved.has_value());

  mc::MabOptions opt = mab_base_options();
  opt.checkpoint = &store;
  opt.campaign_id = "zero-rng";
  const mc::MabScheduler sched{opt};
  ASSERT_TRUE(sched.resumes_from(*saved));
  EXPECT_FALSE(sched.resumes_from(with_field(*saved, "base_seed", maestro::util::Json{"abc"})));
  EXPECT_FALSE(sched.resumes_from(with_field(*saved, "run_index", maestro::util::Json{"1e3"})));
  EXPECT_FALSE(
      sched.resumes_from(with_field(*saved, "rng", rng_words({"1", "2", "x", "4", "0", "0"}))));
  const auto zero = with_field(*saved, "rng", rng_words({"0", "0", "0", "0", "0", "0"}));
  EXPECT_FALSE(sched.resumes_from(zero));

  store.put_state("mab:zero-rng", zero);
  const std::uint64_t resumes0 = counter("store.campaign_resumed");
  Rng rng{99};
  const auto cont = sched.run(oracle, rng);
  EXPECT_EQ(counter("store.campaign_resumed"), resumes0);
  expect_same_mab_result(fresh, cont);
}

// ------------------------------------------------------- FTS checkpoint/resume

TEST(FtsResume, InterruptedSearchMatchesUninterruptedBitwise) {
  const auto spaces = mf::default_knob_spaces();
  const auto oracle = knob_oracle();

  mc::FlowSearchOptions base;
  base.strategy = mc::SearchStrategy::Gwtw;
  base.population = 4;
  base.rounds = 4;
  base.mutations_per_round = 2;

  Rng rng_full{7};
  const auto full = mc::FlowTreeSearch(spaces, base).run(oracle, rng_full);

  const std::string dir = temp_store("fts_resume");
  ms::RunStore store(dir);

  mc::FlowSearchOptions half = base;
  half.rounds = 2;
  half.checkpoint = &store;
  half.campaign_id = "search-A";
  Rng rng_half{7};
  const auto partial = mc::FlowTreeSearch(spaces, half).run(oracle, rng_half);
  EXPECT_EQ(partial.best_per_round.size(), 2u);
  ASSERT_TRUE(store.get_state("fts:search-A").has_value());

  mc::FlowSearchOptions resumed = base;
  resumed.checkpoint = &store;
  resumed.campaign_id = "search-A";
  Rng rng_resume{424242};
  const auto cont = mc::FlowTreeSearch(spaces, resumed).run(oracle, rng_resume);

  ASSERT_EQ(cont.best_per_round.size(), full.best_per_round.size());
  EXPECT_EQ(cont.best_per_round, full.best_per_round);  // bitwise doubles
  EXPECT_EQ(cont.best_cost, full.best_cost);
  EXPECT_EQ(cont.flow_runs, full.flow_runs);
  EXPECT_EQ(mf::flatten(cont.best_trajectory), mf::flatten(full.best_trajectory));
}

TEST(FtsResume, ZeroOrNonDecimalRngCheckpointStartsFresh) {
  const auto spaces = mf::default_knob_spaces();
  const auto oracle = knob_oracle();
  mc::FlowSearchOptions base;
  base.strategy = mc::SearchStrategy::Gwtw;
  base.population = 4;
  base.rounds = 4;
  base.mutations_per_round = 2;
  Rng rng_fresh{7};
  const auto fresh = mc::FlowTreeSearch(spaces, base).run(oracle, rng_fresh);

  const std::string dir = temp_store("fts_zero_rng");
  ms::RunStore store(dir);
  mc::FlowSearchOptions half = base;
  half.rounds = 2;
  half.checkpoint = &store;
  half.campaign_id = "zero-rng";
  Rng rng_half{7};
  (void)mc::FlowTreeSearch(spaces, half).run(oracle, rng_half);
  const auto saved = store.get_state("fts:zero-rng");
  ASSERT_TRUE(saved.has_value());

  mc::FlowSearchOptions opt = base;
  opt.checkpoint = &store;
  opt.campaign_id = "zero-rng";
  const mc::FlowTreeSearch search{spaces, opt};
  ASSERT_TRUE(search.resumes_from(*saved));
  EXPECT_FALSE(
      search.resumes_from(with_field(*saved, "rng", rng_words({"1", "2", "3", "4", "0", "-5"}))));
  const auto zero = with_field(*saved, "rng", rng_words({"0", "0", "0", "0", "0", "0"}));
  EXPECT_FALSE(search.resumes_from(zero));

  store.put_state("fts:zero-rng", zero);
  const std::uint64_t resumes0 = counter("store.campaign_resumed");
  Rng rng{7};
  const auto cont = search.run(oracle, rng);
  EXPECT_EQ(counter("store.campaign_resumed"), resumes0);
  EXPECT_EQ(cont.best_per_round, fresh.best_per_round);  // bitwise doubles
  EXPECT_EQ(cont.best_cost, fresh.best_cost);
  EXPECT_EQ(cont.flow_runs, fresh.flow_runs);
  EXPECT_EQ(mf::flatten(cont.best_trajectory), mf::flatten(fresh.best_trajectory));
}

// --------------------------------------------- repeated campaigns hit the cache

TEST(RepeatedCampaign, SecondMabPassExecutesFarFewerRuns) {
  const auto oracle = cliff_oracle(1.6);
  const std::string dir = temp_store("repeat_mab");
  ms::RunStore store(dir);

  mc::MabOptions opt = mab_base_options();
  opt.iterations = 5;
  opt.cache_key.design = "repeat";

  const std::uint64_t miss0 = counter("store.cache_miss");
  ms::RunCache first_cache(store);
  opt.cache = &first_cache;
  Rng rng1{7};
  const auto first = mc::MabScheduler(opt).run(oracle, rng1);
  const std::uint64_t first_misses = counter("store.cache_miss") - miss0;
  EXPECT_EQ(first_misses, first.total_runs);  // cold store: every run executed

  // Second campaign, same knobs and seed, fresh cache over the same store:
  // every run is answered from the store. The acceptance bar is >= 30% fewer
  // executed (non-cached) runs; identical campaigns achieve 100%.
  const std::uint64_t miss1 = counter("store.cache_miss");
  const std::uint64_t hit1 = counter("store.cache_hit");
  ms::RunCache second_cache(store);
  opt.cache = &second_cache;
  Rng rng2{7};
  const auto second = mc::MabScheduler(opt).run(oracle, rng2);
  const std::uint64_t second_misses = counter("store.cache_miss") - miss1;
  const std::uint64_t second_hits = counter("store.cache_hit") - hit1;

  EXPECT_LE(10 * second_misses, 7 * first_misses);  // >= 30% fewer executions
  EXPECT_EQ(second_misses, 0u);
  EXPECT_EQ(second_hits, second.total_runs);
  expect_same_mab_result(first, second);  // memoized results are bit-identical
}

TEST(RepeatedCampaign, SecondFtsPassHitsTheCacheSerially) {
  const auto spaces = mf::default_knob_spaces();
  const auto oracle = knob_oracle();
  const std::string dir = temp_store("repeat_fts");
  ms::RunStore store(dir);

  mc::FlowSearchOptions opt;
  opt.strategy = mc::SearchStrategy::RandomMultistart;
  opt.population = 3;
  opt.rounds = 3;
  opt.cache_key.design = "repeat";

  const std::uint64_t miss0 = counter("store.cache_miss");
  ms::RunCache first_cache(store);
  opt.cache = &first_cache;
  Rng rng1{11};
  const auto first = mc::FlowTreeSearch(spaces, opt).run(oracle, rng1);
  const std::uint64_t first_misses = counter("store.cache_miss") - miss0;
  EXPECT_EQ(first_misses, first.flow_runs);

  const std::uint64_t miss1 = counter("store.cache_miss");
  ms::RunCache second_cache(store);
  opt.cache = &second_cache;
  Rng rng2{11};
  const auto second = mc::FlowTreeSearch(spaces, opt).run(oracle, rng2);
  const std::uint64_t second_misses = counter("store.cache_miss") - miss1;

  EXPECT_LE(10 * second_misses, 7 * first_misses);
  EXPECT_EQ(second_misses, 0u);
  EXPECT_EQ(second.best_cost, first.best_cost);
}

// ------------------------------------------------------------- WAL framing

TEST(WalFrame, EncodeDecodeRoundTrip) {
  const std::string payload = "{\"t\":\"run\",\"fp\":\"42\"}";
  const std::string line = ms::wal_frame::encode(payload);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  const auto decoded = ms::wal_frame::decode(
      std::string_view(line).substr(0, line.size() - 1));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(WalFrame, RejectsEveryKindOfDamage) {
  const std::string line = ms::wal_frame::encode("{\"k\":1}");
  const std::string_view body = std::string_view(line).substr(0, line.size() - 1);
  // Pristine decodes; then flip any single byte and it must not.
  ASSERT_TRUE(ms::wal_frame::decode(body).has_value());
  for (std::size_t i = 0; i < body.size(); ++i) {
    std::string damaged(body);
    damaged[i] ^= 0x01;
    EXPECT_FALSE(ms::wal_frame::decode(damaged).has_value()) << "byte " << i;
  }
  // Truncations, unframed text, and empty lines are all rejected too.
  for (std::size_t i = 0; i < body.size(); ++i) {
    EXPECT_FALSE(ms::wal_frame::decode(body.substr(0, i)).has_value());
  }
  EXPECT_FALSE(ms::wal_frame::decode("not a frame").has_value());
  EXPECT_FALSE(ms::wal_frame::decode("").has_value());
}

TEST(WalFrame, Crc32MatchesKnownVector) {
  // The classic zlib check value: crc32("123456789") == 0xcbf43926.
  EXPECT_EQ(ms::wal_frame::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(ms::wal_frame::crc32(""), 0x00000000u);
}

// ------------------------------------------------- cache server + remote

namespace {

std::string temp_socket(const char* tag) {
  return "/tmp/maestro_store_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

}  // namespace

TEST(CacheServer, ServesHitsAcrossClientsWithTenantAttribution) {
  const std::string dir = temp_store("srv_basic");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const auto run = sample_run(1, 123.0);
  cache.insert(run.fingerprint, run.key, run.result);

  const std::string sock = temp_socket("basic");
  ms::CacheServer server(cache, {.socket_path = sock});
  ASSERT_TRUE(server.start());

  ms::RemoteCacheOptions opt_a;
  opt_a.socket_path = sock;
  opt_a.tenant = "team-a";
  ms::RemoteRunCache a(opt_a);
  ms::RemoteCacheOptions opt_b;
  opt_b.socket_path = sock;
  opt_b.tenant = "team-b";
  ms::RemoteRunCache b(opt_b);

  // Both clients see team-local work through the shared tier.
  const auto hit_a = a.lookup(run.fingerprint);
  ASSERT_TRUE(hit_a.has_value());
  EXPECT_DOUBLE_EQ(hit_a->area_um2, 123.0);
  ASSERT_TRUE(b.lookup(run.fingerprint).has_value());
  ASSERT_TRUE(b.lookup(run.fingerprint).has_value());
  EXPECT_EQ(a.remote_hits(), 1u);
  EXPECT_EQ(b.remote_hits(), 2u);
  EXPECT_FALSE(a.lookup(999999).has_value());

  const auto tenants = server.tenant_hits();
  ASSERT_TRUE(tenants.count("team-a"));
  ASSERT_TRUE(tenants.count("team-b"));
  EXPECT_EQ(tenants.at("team-a"), 1u);
  EXPECT_EQ(tenants.at("team-b"), 2u);
  EXPECT_EQ(server.hits(), 3u);
  EXPECT_EQ(server.misses(), 1u);
  server.stop();
}

/// Threads of this process, counted from /proc/self/task (read only).
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/task")) ++n;
  return n;
}

TEST(CacheServer, ReapsFinishedConnectionThreads) {
  const std::string dir = temp_store("srv_reap");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const std::string sock = temp_socket("reap");
  ms::CacheServer server(cache, {.socket_path = sock});
  ASSERT_TRUE(server.start());
  const std::size_t threads0 = thread_count();

  constexpr int kClients = 500;
  std::string reply;
  for (int i = 0; i < kClients; ++i) {
    const int fd = mm::frame::connect_unix(sock);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(mm::frame::write_frame(fd, R"({"type":"stats"})"));
    ASSERT_EQ(mm::frame::read_frame(fd, 1 << 20, &reply), 1);
    ASSERT_TRUE(mm::frame::write_frame(fd, R"({"type":"bye"})"));
    ASSERT_EQ(mm::frame::read_frame(fd, 1 << 20, &reply), 1);
    ::close(fd);
  }
  // Finished readers are joined as new clients arrive and on idle accept
  // polls, so threads and bookkeeping return to their starting level
  // instead of growing by one per client.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((thread_count() > threads0 + 1 || server.tracked_connections() > 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(thread_count(), threads0 + 1);
  EXPECT_LE(server.tracked_connections(), 1u);
  EXPECT_EQ(server.requests(), 2u * kClients);
  server.stop();
  EXPECT_EQ(server.tracked_connections(), 0u);
  EXPECT_LE(thread_count(), threads0 - 1);  // the accept thread is gone too
}

TEST(CacheServer, InsertIsVisibleToOtherClientsButResidencyOnly) {
  const std::string dir = temp_store("srv_insert");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const std::string sock = temp_socket("insert");
  ms::CacheServer server(cache, {.socket_path = sock});
  ASSERT_TRUE(server.start());

  // Writer's local rung is its own store-backed cache in a *different* dir,
  // modelling a fleet without a shared store directory.
  const std::string wdir = temp_store("srv_insert_writer");
  ms::RunStore wstore(wdir);
  ms::RunCache wcache(wstore);
  ms::RemoteRunCache writer({.socket_path = sock, .tenant = "writer"}, &wcache);
  const auto run = sample_run(7, 77.0);
  writer.insert(run.fingerprint, run.key, run.result);
  EXPECT_EQ(wstore.run_count(), 1u);  // durability rung: the writer's store
  EXPECT_EQ(store.run_count(), 0u);   // server never writes through

  ms::RemoteRunCache reader({.socket_path = sock, .tenant = "reader"});
  const auto hit = reader.lookup(run.fingerprint);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->area_um2, 77.0);
  EXPECT_EQ(server.inserts(), 1u);
  server.stop();
}

TEST(CacheServer, LruEvictionAndTtlExpiryStayBounded) {
  const std::string dir = temp_store("srv_evict");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const std::string sock = temp_socket("evict");
  ms::CacheServer server(cache, {.socket_path = sock, .max_entries = 2, .ttl_ms = 0.0});
  ASSERT_TRUE(server.start());

  ms::RemoteRunCache client({.socket_path = sock});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto run = sample_run(seed, static_cast<double>(seed));
    client.insert(run.fingerprint, run.key, run.result);
  }
  EXPECT_EQ(server.inserts(), 5u);
  EXPECT_GE(server.evictions(), 3u);  // capacity 2, five inserts

  // Evicted entries are refilled from the backing RunCache when the store
  // has them; this writer had no store, so a *fresh* reader (no memory rung
  // of its own) sees plain misses for the evicted entries.
  ms::RemoteRunCache reader({.socket_path = sock});
  const auto oldest = sample_run(1, 0.0);
  EXPECT_FALSE(reader.lookup(oldest.fingerprint).has_value());
  const auto newest = sample_run(5, 0.0);
  EXPECT_TRUE(reader.lookup(newest.fingerprint).has_value());
  // The writer itself still answers everything from its memory rung.
  EXPECT_TRUE(client.lookup(oldest.fingerprint).has_value());
  server.stop();
}

TEST(CacheServer, TtlExpiryRefetchesFromBackingStore) {
  const std::string dir = temp_store("srv_ttl");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const auto run = sample_run(3, 33.0);
  cache.insert(run.fingerprint, run.key, run.result);  // durable

  const std::string sock = temp_socket("ttl");
  ms::CacheServer server(cache, {.socket_path = sock, .ttl_ms = 5.0});
  ASSERT_TRUE(server.start());
  ms::RemoteRunCache client({.socket_path = sock});
  ASSERT_TRUE(client.lookup(run.fingerprint).has_value());  // now resident
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  // Expired in the LRU, but the store is authoritative: still a hit.
  const std::uint64_t expired0 = counter("store.server_expired");
  ASSERT_TRUE(client.lookup(run.fingerprint).has_value());
  EXPECT_EQ(counter("store.server_expired"), expired0 + 1);
  server.stop();
}

namespace {

/// One raw request/reply exchange with a cache server: the reply's bytes.
std::string raw_request(int fd, const std::string& payload) {
  EXPECT_TRUE(mm::frame::write_frame(fd, payload));
  std::string reply;
  EXPECT_EQ(mm::frame::read_frame(fd, 1 << 20, &reply), 1);
  return reply;
}

std::string lookup_payload(std::uint64_t fp) {
  return "{\"fp\":\"" + std::to_string(fp) + "\",\"type\":\"lookup\"}";
}

std::string expected_hit(const mf::FlowResult& r) {
  return "{\"result\":" + ms::flow_result_to_json(r).dump() + ",\"type\":\"hit\"}";
}

/// A result whose numbers exercise both number formats and whose failed
/// step needs escaping.
mf::FlowResult awkward_result(double area) {
  mf::FlowResult r = sample_result(area);
  r.wns_ps = -0.1;
  r.tns_ps = -1234.5678901234567;
  r.ir_drop_v = 1e-7;
  r.hpwl_dbu = 1e15;
  r.clock_skew_ps = 3.0000000000000004;
  r.failed_step = "route \"dr\"\n";
  return r;
}

}  // namespace

TEST(CacheServer, HitRepliesAreTheSerializedResultSpliced) {
  const std::string dir = temp_store("srv_splice");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  auto stored = sample_run(1, 0.0);
  stored.result = awkward_result(101.0);
  cache.insert(stored.fingerprint, stored.key, stored.result);  // backing store only

  const std::string sock = temp_socket("splice");
  ms::CacheServer server(cache, {.socket_path = sock, .max_entries = 8, .ttl_ms = 100.0});
  ASSERT_TRUE(server.start());
  const int fd = mm::frame::connect_unix(sock);
  ASSERT_GE(fd, 0);

  // Promoted from the backing cache, then served from the LRU.
  EXPECT_EQ(raw_request(fd, lookup_payload(stored.fingerprint)), expected_hit(stored.result));
  EXPECT_EQ(raw_request(fd, lookup_payload(stored.fingerprint)), expected_hit(stored.result));
  // Expired, then re-fetched from the backing cache.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint64_t expired0 = counter("store.server_expired");
  EXPECT_EQ(raw_request(fd, lookup_payload(stored.fingerprint)), expected_hit(stored.result));
  EXPECT_EQ(counter("store.server_expired"), expired0 + 1);

  // Inserted by a client (residency only): the reply carries the canonical
  // bytes whatever the client sent.
  const auto inserted = sample_run(2, 0.0);
  const mf::FlowResult inserted_result = awkward_result(202.0);
  maestro::util::JsonObject req;
  req["type"] = maestro::util::Json{"insert"};
  req["fp"] = maestro::util::Json{std::to_string(inserted.fingerprint)};
  req["key"] = ms::run_key_to_json(inserted.key);
  req["result"] = ms::flow_result_to_json(inserted_result);
  EXPECT_EQ(raw_request(fd, maestro::util::Json{std::move(req)}.dump()), "{\"type\":\"ok\"}");
  EXPECT_EQ(raw_request(fd, lookup_payload(inserted.fingerprint)), expected_hit(inserted_result));
  EXPECT_EQ(raw_request(fd, lookup_payload(424242)), "{\"type\":\"miss\"}");
  ::close(fd);
  server.stop();
}

// --------------------------------------------- checked 64-bit decodes

namespace {

/// Decimal strings a checked uint64 decoder must refuse: trailing junk, a
/// sign, nothing, and 2^64.
const char* const kBadU64[] = {"12abc", "-1", "", "18446744073709551616"};

}  // namespace

TEST(RunKeyJson, RejectsMalformedSeeds) {
  ms::RunKey key;
  key.design = "unit";
  key.seed = 18446744073709551615ull;
  key.set("place.effort", "high");
  const auto back = ms::run_key_from_json(ms::run_key_to_json(key));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, key.seed);
  EXPECT_EQ(back->fingerprint(), key.fingerprint());
  for (const char* bad : kBadU64) {
    maestro::util::Json j = ms::run_key_to_json(key);
    j.as_object()["seed"] = maestro::util::Json{bad};
    EXPECT_FALSE(ms::run_key_from_json(j).has_value()) << '"' << bad << '"';
  }
}

TEST(RunStore, WalRunWithMalformedFingerprintOrSeedIsCorruptAndNotServed) {
  const std::string dir = temp_store("bad_u64");
  ms::RunStoreOptions one_shard;
  one_shard.shards = 1;
  {
    ms::RunStore store(dir, one_shard);
    store.append_run(sample_run(1, 100.0));
  }
  const auto run = sample_run(2, 200.0);
  const auto entry = [&](maestro::util::Json fp, maestro::util::Json key) {
    maestro::util::JsonObject o;
    o["t"] = maestro::util::Json{"run"};
    o["fp"] = std::move(fp);
    o["key"] = std::move(key);
    o["result"] = ms::flow_result_to_json(run.result);
    return ms::wal_frame::encode(maestro::util::Json{std::move(o)}.dump());
  };
  {
    std::ofstream wal(fs::path(dir) / "wal-00.jsonl", std::ios::app | std::ios::binary);
    for (const char* bad : kBadU64) {
      wal << entry(maestro::util::Json{bad}, ms::run_key_to_json(run.key));
      maestro::util::Json key = ms::run_key_to_json(run.key);
      key.as_object()["seed"] = maestro::util::Json{bad};
      wal << entry(ms::u64_to_json(run.fingerprint), std::move(key));
    }
  }
  // Every framed line is intact, so each bad value counts as one corrupt
  // line; none of them is served, and the good entry survives.
  ms::RunStore store(dir);
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(store.corrupt_lines(), 8u);
  ms::RunCache cache(store);
  EXPECT_FALSE(cache.lookup(run.fingerprint).has_value());
  EXPECT_FALSE(cache.lookup(12).has_value());
  EXPECT_FALSE(cache.lookup(18446744073709551615ull).has_value());
}

TEST(CacheServer, MalformedFingerprintsGetAnErrorReply) {
  const std::string dir = temp_store("srv_bad_fp");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const std::string sock = temp_socket("bad_fp");
  ms::CacheServer server(cache, {.socket_path = sock});
  ASSERT_TRUE(server.start());
  const int fd = mm::frame::connect_unix(sock);
  ASSERT_GE(fd, 0);
  const std::string result = ms::flow_result_to_json(sample_result(1.0)).dump();
  for (const char* bad : kBadU64) {
    const std::string fp = "\"fp\":\"" + std::string(bad) + "\"";
    EXPECT_EQ(raw_request(fd, "{" + fp + ",\"type\":\"lookup\"}"), "{\"type\":\"error\"}")
        << '"' << bad << '"';
    EXPECT_EQ(raw_request(fd, "{" + fp + ",\"result\":" + result + ",\"type\":\"insert\"}"),
              "{\"type\":\"error\"}")
        << '"' << bad << '"';
  }
  // Nothing was cached under a wrapped or truncated value, and the
  // connection still serves well-formed requests.
  EXPECT_EQ(server.inserts(), 0u);
  EXPECT_EQ(raw_request(fd, lookup_payload(12)), "{\"type\":\"miss\"}");
  EXPECT_EQ(raw_request(fd, lookup_payload(18446744073709551615ull)), "{\"type\":\"miss\"}");
  ::close(fd);
  server.stop();
}

TEST(RemoteCache, DeadServerDegradesToLocalThenGivesUp) {
  const std::string dir = temp_store("remote_dead");
  ms::RunStore store(dir);
  ms::RunCache local(store);
  const auto run = sample_run(2, 22.0);
  local.insert(run.fingerprint, run.key, run.result);

  ms::RemoteCacheOptions opt;
  opt.socket_path = "/tmp/maestro_no_such_server.sock";
  opt.reconnect.max_attempts = 3;
  opt.reconnect.backoff_ms = 0.0;
  ms::RemoteRunCache client(opt, &local);

  // Every lookup still answers from the local rung, immediately.
  for (int i = 0; i < 6; ++i) {
    const auto hit = client.lookup(run.fingerprint);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->area_um2, 22.0);
  }
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.gave_up());  // after max_attempts consecutive failures
  EXPECT_LE(client.remote_errors(), 3u);

  // Inserts keep landing in the durable local rung while degraded.
  const auto run2 = sample_run(9, 99.0);
  client.insert(run2.fingerprint, run2.key, run2.result);
  EXPECT_EQ(store.run_count(), 2u);
}

TEST(RemoteCache, GarbageRepliesTripDegradationNotCrashes) {
  const std::string dir = temp_store("remote_garbage");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const auto run = sample_run(4, 44.0);
  cache.insert(run.fingerprint, run.key, run.result);

  const std::string sock = temp_socket("garbage");
  ms::CacheServer server(cache, {.socket_path = sock});
  ASSERT_TRUE(server.start());

  // Every reply is corrupted: the frame arrives but the payload is garbage.
  auto plan = *maestro::resil::FaultPlan::parse("corrupt=1.0,seed=5,sites=store.server");
  maestro::resil::FaultInjector::install(plan);

  ms::RemoteCacheOptions opt;
  opt.socket_path = sock;
  opt.reconnect.max_attempts = 2;
  opt.reconnect.backoff_ms = 0.0;
  ms::RemoteRunCache client(opt, &cache);
  // Remote is useless, local rung still answers every time.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.lookup(run.fingerprint).has_value());
  }
  EXPECT_GE(client.remote_errors(), 1u);
  maestro::resil::FaultInjector::clear();
  server.stop();
}

namespace {

/// A cache server written for these tests: every lookup is a hit for
/// `result`, and the reply to request k (counted across connections) is held
/// back `stall_ms` when `stalls(k)` says so.
class StallingServer {
 public:
  StallingServer(const std::string& path, const mf::FlowResult& result,
                 std::function<bool(int)> stalls, int stall_ms)
      : hit_("{\"result\":" + ms::flow_result_to_json(result).dump() + ",\"type\":\"hit\"}"),
        stalls_(std::move(stalls)),
        stall_ms_(stall_ms) {
    started_ = listener_.start(path, 8, [this](int fd) { serve(fd); });
  }
  bool started() const { return started_; }
  int requests() const { return requests_.load(); }
  std::uint64_t connections() const { return listener_.accepted(); }
  void stop() { listener_.stop(); }

 private:
  void serve(int fd) {
    std::string request;
    while (mm::frame::read_frame(fd, 1 << 20, &request) == 1) {
      if (stalls_(requests_.fetch_add(1))) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      }
      if (!mm::frame::write_frame(fd, hit_)) return;
    }
  }

  const std::string hit_;
  const std::function<bool(int)> stalls_;
  const int stall_ms_;
  std::atomic<int> requests_{0};
  bool started_ = false;
  mm::frame::Listener listener_;  // last: its readers use the members above
};

}  // namespace

TEST(RemoteCache, OneSlowReplyIsResentOnAFreshConnection) {
  const auto run = sample_run(7, 70.0);
  const std::string sock = temp_socket("slow_once");
  StallingServer server(sock, run.result, [](int k) { return k == 0; }, 600);
  ASSERT_TRUE(server.started());

  ms::RemoteCacheOptions opt;
  opt.socket_path = sock;
  opt.op_timeout_ms = 150.0;  // well under the stall, well over a loaded reply
  ms::RemoteRunCache client(opt);  // no local rung: a hit can only be the server's
  const std::uint64_t retries0 = counter("store.remote_retries");
  const std::uint64_t reconnects0 = counter("store.remote_reconnects");
  const auto hit = client.lookup(run.fingerprint);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->area_um2, 70.0);
  EXPECT_EQ(client.remote_errors(), 0u);
  EXPECT_EQ(client.remote_hits(), 1u);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(counter("store.remote_retries"), retries0 + 1);
  EXPECT_EQ(counter("store.remote_reconnects"), reconnects0 + 2);  // first connect + retry
  EXPECT_EQ(server.requests(), 2);
  EXPECT_EQ(server.connections(), 2u);

  // The fresh connection carries on: no further retry.
  ASSERT_TRUE(client.lookup(run.fingerprint).has_value());
  EXPECT_EQ(client.remote_hits(), 2u);
  EXPECT_EQ(counter("store.remote_retries"), retries0 + 1);
  EXPECT_EQ(server.connections(), 2u);
  server.stop();
}

TEST(RemoteCache, EverySlowReplyDegradesAfterOneRetry) {
  const std::string dir = temp_store("remote_slow");
  ms::RunStore store(dir);
  ms::RunCache local(store);
  const auto run = sample_run(8, 80.0);
  local.insert(run.fingerprint, run.key, run.result);
  mf::FlowResult remote_result = run.result;
  remote_result.area_um2 = 81.0;

  const std::string sock = temp_socket("slow_always");
  StallingServer server(sock, remote_result, [](int) { return true; }, 600);
  ASSERT_TRUE(server.started());
  ms::RemoteCacheOptions opt;
  opt.socket_path = sock;
  opt.op_timeout_ms = 150.0;
  opt.reconnect.backoff_ms = 10000.0;  // no reconnect within this test
  ms::RemoteRunCache client(opt, &local);
  const std::uint64_t retries0 = counter("store.remote_retries");

  const auto hit = client.lookup(run.fingerprint);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->area_um2, 80.0);  // the local rung's answer
  EXPECT_EQ(client.remote_errors(), 1u);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(counter("store.remote_retries"), retries0 + 1);
  EXPECT_EQ(server.requests(), 2);  // the op and its one resend

  // Degraded: the next op stays local and never reaches the server.
  ASSERT_TRUE(client.lookup(run.fingerprint).has_value());
  EXPECT_EQ(server.requests(), 2);
  EXPECT_EQ(client.remote_errors(), 1u);
  server.stop();
}

TEST(RemoteCache, ReconnectsAfterServerRestart) {
  const std::string dir = temp_store("remote_restart");
  ms::RunStore store(dir);
  ms::RunCache cache(store);
  const auto run = sample_run(6, 66.0);
  cache.insert(run.fingerprint, run.key, run.result);

  const std::string sock = temp_socket("restart");
  ms::RemoteCacheOptions opt;
  opt.socket_path = sock;
  opt.reconnect.max_attempts = 100;
  opt.reconnect.backoff_ms = 0.0;
  ms::RemoteRunCache client(opt, &cache);

  // Server not up yet: local answers, connection fails quietly.
  ASSERT_TRUE(client.lookup(run.fingerprint).has_value());
  EXPECT_FALSE(client.connected());

  ms::CacheServer server(cache, {.socket_path = sock});
  ASSERT_TRUE(server.start());
  client.reset_backoff();
  ASSERT_TRUE(client.lookup(run.fingerprint).has_value());
  EXPECT_TRUE(client.connected());
  EXPECT_GE(client.remote_hits(), 1u);
  server.stop();
}

TEST(RemoteCache, MabCampaignOverDegradedRemoteMatchesLocalBitwise) {
  // The acceptance bar: a campaign whose cache tier lost its server finishes
  // bitwise-identically to one that never had a server — the cache can only
  // skip work, never change results.
  const auto oracle = cliff_oracle(1.6);

  const std::string dir_local = temp_store("degraded_local");
  ms::RunStore store_local(dir_local);
  ms::RunCache cache_local(store_local);
  mc::MabOptions opt = mab_base_options();
  opt.cache = &cache_local;
  opt.cache_key.design = "degraded";
  Rng rng1{42};
  const auto plain = mc::MabScheduler(opt).run(oracle, rng1);

  const std::string dir_remote = temp_store("degraded_remote");
  ms::RunStore store_remote(dir_remote);
  ms::RunCache fallback(store_remote);
  ms::RemoteCacheOptions ropt;
  ropt.socket_path = "/tmp/maestro_no_such_server.sock";
  ropt.reconnect.max_attempts = 2;
  ropt.reconnect.backoff_ms = 0.0;
  ms::RemoteRunCache remote(ropt, &fallback);
  mc::MabOptions opt2 = mab_base_options();
  opt2.cache = &remote;
  opt2.cache_key.design = "degraded";
  Rng rng2{42};
  const auto degraded = mc::MabScheduler(opt2).run(oracle, rng2);

  expect_same_mab_result(plain, degraded);
  EXPECT_TRUE(remote.gave_up());
  EXPECT_EQ(store_remote.run_count(), store_local.run_count());
}
