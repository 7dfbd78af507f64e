#pragma once
// RunStore — the durable half of the METRICS vision (paper Section 3.3 /
// Fig. 11): a crash-safe, append-only store of every tool run, every
// transmitted metrics record, and every campaign checkpoint, so that
// flow-trajectory search, MAB scheduling and doomed-run guards can learn
// from (and avoid repeating) past work across process restarts — and so
// that *many processes* can share one corpus without trampling each other.
//
// On-disk layout (one directory per store, MAESTRO_STORE=<dir> activates it
// in the examples). The store is sharded by fingerprint range into a
// power-of-two number of shards (MAESTRO_STORE_SHARDS, default 8), fixed at
// directory creation and recorded in store.meta so every opener agrees:
//
//   <dir>/store.meta          {"shards":N} — negotiated under store.lock
//   <dir>/store.lock          flock target for meta negotiation
//   <dir>/wal-NN.jsonl        per-shard append-only WAL since last compaction
//   <dir>/snapshot-NN.jsonl   per-shard compaction output, written whole to
//                             a .tmp then atomically renamed into place
//
// Entry grammar: each line is CRC32/length framed (see store/wal_frame.hpp)
// around one JSON object: {"t":"run",...} a memoized tool run, {"t":
// "metric",...} a metrics::Record, {"t":"state","key":...,"value":...} a
// campaign-checkpoint blob (last write per key wins; a key always lands in
// one shard, so LWW order is well defined).
//
// Multi-process coordination: every append takes an exclusive flock on the
// shard's WAL fd for the duration of one write. The kernel releases the
// lock when a process dies — even kill -9 — so stale-lease takeover is
// automatic and a crashed writer can never wedge the fleet. Before writing,
// the lease holder ingests any bytes other processes appended since it last
// looked (catch-up), so its in-memory mirror tracks the shared file.
// Readers that do not want the lease call refresh(), which ingests complete
// new entries from a consistent prefix without blocking writers.
//
// Recovery contract (tests/test_store.cpp, tests/test_store_fleet.cpp): a
// writer that dies mid-append leaves a torn final line — open() replays
// each snapshot, then each WAL up to the last complete line, drops only the
// torn tail and truncates to a clean boundary. A flipped byte *mid-file*
// fails that entry's CRC: the line is skipped and counted in
// store.corrupt_lines, replay continues, and no complete neighbour is ever
// lost. A crash between compaction's rename and WAL truncate replays some
// entries from both files; byte-identical WAL entries already present in
// the snapshot are deduplicated during replay.
//
// Durability policy (MAESTRO_STORE_FSYNC): "always" fsyncs the shard WAL
// after every append, "batch" (default) every fsync_batch appends, "off"
// never — entries still survive process death in all modes (the page cache
// outlives the writer); the policy only decides power-loss durability.
// compact() always fsyncs the snapshot temp file before the atomic rename
// and the directory after it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "metrics/record.hpp"
#include "metrics/server.hpp"
#include "store/fingerprint.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace maestro::store {

/// One memoized run: its content address, the key it was computed from, and
/// the result. Step logs are dropped on persist (they are bulky and nothing
/// downstream of the cache consumes them; FlowResult::logs comes back empty
/// from the store).
struct StoredRun {
  std::uint64_t fingerprint = 0;
  RunKey key;
  flow::FlowResult result;
};

/// FlowResult <-> JSON (logs dropped; see StoredRun).
util::Json flow_result_to_json(const flow::FlowResult& r);
flow::FlowResult flow_result_from_json(const util::Json& j);
util::Json run_key_to_json(const RunKey& key);
/// nullopt when the seed is not a whole decimal uint64 string.
std::optional<RunKey> run_key_from_json(const util::Json& j);
/// uint64 <-> JSON as a decimal string (64-bit values do not survive a JSON
/// double). The decoder accepts only a whole decimal uint64 string.
util::Json u64_to_json(std::uint64_t v);
std::optional<std::uint64_t> u64_from_json(const util::Json& j);
/// Rng state <-> JSON (six u64_to_json words). The campaign checkpoints use
/// this so a resumed search continues the identical random stream. The
/// decoder rejects — and leaves `rng` untouched — anything save_state()
/// cannot produce: a word that is not a decimal uint64, the all-zero
/// xoshiro state (on which the generator returns 0 forever) or a spare flag
/// other than 0 or 1.
util::Json rng_state_to_json(const util::Rng& rng);
bool rng_state_from_json(util::Rng& rng, const util::Json& j);

/// When appends hit the disk. See the header comment for semantics.
enum class FsyncMode { Always, Batch, Off };

struct RunStoreOptions {
  /// Requested shard count, rounded up to a power of two. 0 means
  /// $MAESTRO_STORE_SHARDS, else 8. An existing directory's store.meta
  /// always wins so every opener agrees on the layout.
  std::size_t shards = 0;
  /// Unset means $MAESTRO_STORE_FSYNC (always|batch|off), else Batch.
  std::optional<FsyncMode> fsync;
  /// Appends between fsyncs in Batch mode.
  std::size_t fsync_batch = 64;
  /// Test seam: called from compact() per shard at "pre_rename" (snapshot
  /// temp durable, not yet visible) and "pre_truncate" (snapshot renamed,
  /// WAL not yet reset). The crash-during-compaction chaos tests _exit()
  /// here to freeze the store between those steps.
  std::function<void(const char* phase, std::size_t shard)> compact_hook;
};

class RunStore {
 public:
  /// Opens (creating the directory if needed) and recovers every shard:
  /// snapshot first, then the WAL with corrupt-line skipping and torn-tail
  /// truncation.
  explicit RunStore(const std::string& dir) : RunStore(dir, RunStoreOptions{}) {}
  RunStore(const std::string& dir, RunStoreOptions options);
  ~RunStore();

  /// A store at $MAESTRO_STORE, or nullptr when the variable is unset.
  static std::unique_ptr<RunStore> open_from_env();

  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  const std::string& dir() const { return dir_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Appends are thread-safe, framed, written under the shard lease and
  /// fsynced per the store's FsyncMode.
  void append_run(StoredRun run);
  void append_metric(const metrics::Record& rec);
  /// Campaign checkpoint: last write per key wins on recovery.
  void put_state(const std::string& key, util::Json value);

  /// Snapshot copies of the in-memory mirror (shards concatenated in index
  /// order — position is not append order across shards; look entries up by
  /// fingerprint or key).
  std::vector<StoredRun> runs() const;
  std::vector<metrics::Record> metric_records() const;
  std::optional<util::Json> get_state(const std::string& key) const;

  /// The result of the run stored under `fingerprint`, or nullopt. Each
  /// shard indexes its mirror by fingerprint: replay, catch-up and refresh()
  /// keep the first entry seen for a fingerprint, a local append_run()
  /// replaces it. The mirror is the only in-memory copy of a run.
  std::optional<flow::FlowResult> find_run(std::uint64_t fingerprint) const;
  /// Runs mirrored (every entry, duplicates included).
  std::size_t run_count() const;
  /// Distinct fingerprints among the mirrored runs.
  std::size_t distinct_run_count() const;
  std::size_t metric_count() const;
  /// WAL entries appended by this process since open (excludes recovered
  /// and catch-up-ingested ones).
  std::size_t wal_entries() const;
  /// Complete entries replayed at open (snapshots + WALs, after dedup).
  std::size_t recovered_entries() const;
  /// Bytes of torn WAL tails dropped (and truncated away) at open or while
  /// holding the append lease.
  std::size_t dropped_tail_bytes() const;
  /// Framed-but-invalid lines skipped during replay (CRC or JSON failure).
  std::size_t corrupt_lines() const;

  /// Read-mostly path for processes that share the directory with other
  /// writers: ingest complete entries appended by them since open (or the
  /// last refresh/append) without taking the lease. Returns the number of
  /// entries ingested.
  std::size_t refresh();

  /// Fold every shard into its snapshot (write-temp + fsync + atomic
  /// rename + directory fsync), then truncate its WAL — all under the
  /// shard lease, after a final catch-up so no other writer's entries are
  /// dropped. False if any shard failed (store stays usable). A successful
  /// compaction also recovers degraded shards: the snapshot persists the
  /// full mirror and the WAL restarts fresh.
  bool compact();

  /// True once any shard's WAL write failed (real I/O error or injected
  /// EIO / short write at fault site "store.wal.<shard>"). A degraded
  /// shard keeps full in-memory service — lookups, caches and campaigns
  /// continue — but stops appending to disk until compact() succeeds; the
  /// first failure logs a warning to stderr.
  bool degraded() const;

 private:
  struct Shard;
  struct ReplayStats {
    std::size_t recovered = 0;
    std::size_t corrupt = 0;
    std::size_t dropped = 0;
  };

  Shard& shard_for_fp(std::uint64_t fp) const;
  Shard& shard_for_key(const std::string& key) const;
  void degrade_locked(Shard& s, const char* why);
  /// Appends one framed payload under the shard lease; mirrors are the
  /// caller's job. No-op when the shard is degraded.
  void append_line_locked(Shard& s, const std::string& payload);
  bool ingest_locked(Shard& s, const util::Json& entry);
  /// Clears the shard mirror and replays snapshot then WAL, truncating the
  /// torn tail. Caller holds the shard mutex and the flock lease.
  ReplayStats load_shard_locked(Shard& s);
  /// Ingest [offset, EOF) — other processes' appends. Holding the lease
  /// additionally truncates a dead writer's torn tail.
  std::size_t catch_up_locked(Shard& s, bool holding_lease);
  bool compact_shard_locked(Shard& s, std::size_t* entries);
  void fsync_policy_locked(Shard& s);
  void record_corrupt(Shard& s, std::size_t n);
  std::size_t negotiate_shards(std::size_t requested);

  std::string dir_;
  RunStoreOptions opt_;
  FsyncMode fsync_mode_ = FsyncMode::Batch;
  std::size_t shard_bits_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> degraded_shards_{0};
  mutable std::mutex warn_mu_;
  bool warned_corrupt_ = false;
};

/// Bridge the in-memory METRICS server into a durable store: every record
/// submitted to `server` from now on is also appended to `store`. The store
/// must outlive the server (or a later set_sink(nullptr)).
void bind_metrics_sink(metrics::Server& server, RunStore& store);

}  // namespace maestro::store
