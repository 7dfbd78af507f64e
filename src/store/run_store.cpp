#include "store/run_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "metrics/frame.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "resil/fault.hpp"
#include "store/wal_frame.hpp"

namespace maestro::store {

namespace fs = std::filesystem;

util::Json flow_result_to_json(const flow::FlowResult& r) {
  util::JsonObject o;
  o["completed"] = util::Json{r.completed};
  o["timing_met"] = util::Json{r.timing_met};
  o["drc_clean"] = util::Json{r.drc_clean};
  o["constraints_met"] = util::Json{r.constraints_met};
  o["area_um2"] = util::Json{r.area_um2};
  o["wns_ps"] = util::Json{r.wns_ps};
  o["whs_ps"] = util::Json{r.whs_ps};
  o["tns_ps"] = util::Json{r.tns_ps};
  o["power_mw"] = util::Json{r.power_mw};
  o["final_drvs"] = util::Json{r.final_drvs};
  o["route_difficulty"] = util::Json{r.route_difficulty};
  o["hpwl_dbu"] = util::Json{r.hpwl_dbu};
  o["clock_skew_ps"] = util::Json{r.clock_skew_ps};
  o["ir_drop_v"] = util::Json{r.ir_drop_v};
  o["tat_minutes"] = util::Json{r.tat_minutes};
  if (!r.failed_step.empty()) o["failed_step"] = util::Json{r.failed_step};
  return util::Json{std::move(o)};
}

flow::FlowResult flow_result_from_json(const util::Json& j) {
  flow::FlowResult r;
  r.completed = j.at("completed").as_bool();
  r.timing_met = j.at("timing_met").as_bool();
  r.drc_clean = j.at("drc_clean").as_bool();
  r.constraints_met = j.at("constraints_met").as_bool();
  r.area_um2 = j.at("area_um2").as_number();
  r.wns_ps = j.at("wns_ps").as_number();
  r.whs_ps = j.at("whs_ps").as_number();
  r.tns_ps = j.at("tns_ps").as_number();
  r.power_mw = j.at("power_mw").as_number();
  r.final_drvs = j.at("final_drvs").as_number();
  r.route_difficulty = j.at("route_difficulty").as_number();
  r.hpwl_dbu = j.at("hpwl_dbu").as_number();
  r.clock_skew_ps = j.at("clock_skew_ps").as_number();
  r.ir_drop_v = j.at("ir_drop_v").as_number();
  r.tat_minutes = j.at("tat_minutes").as_number();
  r.failed_step = j.at("failed_step").as_string();
  return r;
}

util::Json run_key_to_json(const RunKey& key) {
  util::JsonObject o;
  o["design"] = util::Json{key.design};
  o["step"] = util::Json{key.step};
  // 64-bit values do not round-trip through a JSON double; use strings.
  o["seed"] = util::Json{std::to_string(key.seed)};
  util::JsonObject knobs;
  for (const auto& [name, value] : key.knobs) knobs[name] = util::Json{value};
  o["knobs"] = util::Json{std::move(knobs)};
  return util::Json{std::move(o)};
}

std::optional<RunKey> run_key_from_json(const util::Json& j) {
  const auto seed = u64_from_json(j.at("seed"));
  if (!seed) return std::nullopt;
  RunKey key;
  key.design = j.at("design").as_string();
  key.step = j.at("step").as_string();
  key.seed = *seed;
  for (const auto& [name, value] : j.at("knobs").as_object()) key.knobs[name] = value.as_string();
  return key;
}

util::Json u64_to_json(std::uint64_t v) { return util::Json{std::to_string(v)}; }

std::optional<std::uint64_t> u64_from_json(const util::Json& j) {
  return util::parse_u64(j.as_string());
}

util::Json rng_state_to_json(const util::Rng& rng) {
  util::JsonArray words;
  for (const std::uint64_t w : rng.save_state()) words.push_back(u64_to_json(w));
  return util::Json{std::move(words)};
}

bool rng_state_from_json(util::Rng& rng, const util::Json& j) {
  const auto& words = j.as_array();
  if (words.size() != 6) return false;
  std::array<std::uint64_t, 6> s{};
  for (std::size_t i = 0; i < 6; ++i) {
    const auto w = u64_from_json(words[i]);
    if (!w) return false;
    s[i] = *w;
  }
  if ((s[0] | s[1] | s[2] | s[3]) == 0 || s[4] > 1) return false;
  rng.restore_state(s);
  return true;
}

namespace {

/// One run in a shard's in-memory mirror — the only copy of it the process
/// holds — packed for size: the key's strings live in one length-prefixed
/// buffer (pack_key), which for a short key fits std::string's inline
/// storage, instead of a RunKey's two strings and knob map.
struct MirroredRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;  ///< RunKey::seed
  std::string key;         ///< pack_key(): design, step, then knob pairs
  flow::FlowResult result;
};

void pack_string(std::string& out, std::string_view s) {
  for (std::size_t n = s.size(); ; n >>= 7) {  // LEB128 length
    out.push_back(static_cast<char>((n & 0x7f) | (n > 0x7f ? 0x80 : 0)));
    if (n <= 0x7f) break;
  }
  out += s;
}

std::string_view unpack_string(std::string_view& in) {
  std::size_t n = 0;
  for (int shift = 0; !in.empty(); shift += 7) {
    const auto b = static_cast<unsigned char>(in.front());
    in.remove_prefix(1);
    n |= static_cast<std::size_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
  }
  const std::string_view s = in.substr(0, n);
  in.remove_prefix(s.size());
  return s;
}

std::string pack_key(const RunKey& key) {
  std::string out;
  pack_string(out, key.design);
  pack_string(out, key.step);
  for (const auto& [name, value] : key.knobs) {
    pack_string(out, name);
    pack_string(out, value);
  }
  out.shrink_to_fit();
  return out;
}

RunKey unpack_key(const MirroredRun& run) {
  RunKey key;
  std::string_view in = run.key;
  key.design = unpack_string(in);
  key.step = unpack_string(in);
  while (!in.empty()) {
    const std::string_view name = unpack_string(in);
    key.knobs.emplace(name, unpack_string(in));
  }
  key.seed = run.seed;
  return key;
}

MirroredRun mirror_run(std::uint64_t fingerprint, const RunKey& key, flow::FlowResult result) {
  MirroredRun m;
  m.fingerprint = fingerprint;
  m.seed = key.seed;
  m.key = pack_key(key);
  m.result = std::move(result);
  m.result.logs.clear();  // logs are not persisted (see StoredRun)
  return m;
}

util::Json run_to_entry(std::uint64_t fingerprint, const RunKey& key,
                        const flow::FlowResult& result) {
  util::JsonObject o;
  o["t"] = util::Json{"run"};
  o["fp"] = util::Json{std::to_string(fingerprint)};
  o["key"] = run_key_to_json(key);
  o["result"] = flow_result_to_json(result);
  return util::Json{std::move(o)};
}

util::Json metric_to_entry(const metrics::Record& rec) {
  util::JsonObject o;
  o["t"] = util::Json{"metric"};
  o["rec"] = rec.to_json();
  return util::Json{std::move(o)};
}

util::Json state_to_entry(const std::string& key, const util::Json& value) {
  util::JsonObject o;
  o["t"] = util::Json{"state"};
  o["key"] = util::Json{key};
  o["value"] = value;
  return util::Json{std::move(o)};
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Full write to a plain file fd (frame::write_all is socket-only: it uses
/// send(MSG_NOSIGNAL), which files reject with ENOTSOCK).
bool file_write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

int flock_retry(int fd, int op) {
  int r;
  do {
    r = ::flock(fd, op);
  } while (r != 0 && errno == EINTR);
  return r;
}

bool fsync_counted(int fd) {
  static obs::Counter& fsyncs = obs::Registry::global().counter("store.fsyncs");
  fsyncs.add();
  return ::fsync(fd) == 0;
}

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = fsync_counted(fd);
  ::close(fd);
  return ok;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

FsyncMode fsync_mode_from_env() {
  const char* v = std::getenv("MAESTRO_STORE_FSYNC");
  if (!v || !*v) return FsyncMode::Batch;
  const std::string_view s{v};
  if (s == "always") return FsyncMode::Always;
  if (s == "off") return FsyncMode::Off;
  return FsyncMode::Batch;
}

std::size_t shards_from_env() {
  const char* v = std::getenv("MAESTRO_STORE_SHARDS");
  if (!v || !*v) return 8;
  const unsigned long n = std::strtoul(v, nullptr, 10);
  return (n >= 1 && n <= 256) ? static_cast<std::size_t>(n) : 8;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n && p < 256) p <<= 1;
  return p;
}

/// fingerprint -> position in a shard's mirror. Open addressing with linear
/// probing over 4-byte slots holding position + 1 (0 = empty); a probe
/// compares the mirrored run's own fingerprint, so the table stores no keys.
/// Kept at most 3/4 full.
class RunIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t size() const { return size_; }
  void clear() {
    slots_.clear();
    size_ = 0;
  }

  std::size_t find(std::uint64_t fp, const std::deque<MirroredRun>& runs) const {
    if (slots_.empty()) return npos;
    for (std::size_t i = home(fp);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == 0) return npos;
      if (runs[slots_[i] - 1].fingerprint == fp) return slots_[i] - 1;
    }
  }

  /// Maps runs[pos].fingerprint to pos; an existing mapping is kept unless
  /// `replace`.
  void put(std::size_t pos, const std::deque<MirroredRun>& runs, bool replace) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow(runs);
    const std::uint64_t fp = runs[pos].fingerprint;
    for (std::size_t i = home(fp);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == 0) {
        slots_[i] = static_cast<std::uint32_t>(pos + 1);
        ++size_;
        return;
      }
      if (runs[slots_[i] - 1].fingerprint == fp) {
        if (replace) slots_[i] = static_cast<std::uint32_t>(pos + 1);
        return;
      }
    }
  }

 private:
  std::size_t home(std::uint64_t fp) const {
    // Fibonacci hashing: the shard already consumed the fingerprint's top
    // bits, so mix before taking the table's.
    return static_cast<std::size_t>((fp * 0x9e3779b97f4a7c15ULL) >> (64 - bits_));
  }

  void grow(const std::deque<MirroredRun>& runs) {
    std::vector<std::uint32_t> old;
    old.swap(slots_);
    bits_ = old.empty() ? 4 : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, 0);
    for (const std::uint32_t slot : old) {
      if (slot == 0) continue;
      std::size_t i = home(runs[slot - 1].fingerprint);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
  unsigned bits_ = 0;
};

}  // namespace

struct RunStore::Shard {
  std::size_t index = 0;
  std::string wal_path;
  std::string snapshot_path;
  std::string site;  ///< fault site "store.wal.<index>"
  mutable std::mutex mu;
  int fd = -1;                ///< WAL fd (O_RDWR|O_APPEND); the flock lease target
  std::uint64_t offset = 0;   ///< WAL bytes already mirrored in memory
  /// A deque, not a vector: growing it never copies the mirror or leaves
  /// the old buffer resident.
  std::deque<MirroredRun> runs;
  /// fingerprint -> position in `runs` of the entry find_run() serves.
  RunIndex run_index;
  std::vector<metrics::Record> metrics;
  std::map<std::string, util::Json> state;
  std::size_t wal_entries = 0;  ///< appended by this process since open
  std::size_t recovered = 0;
  std::size_t dropped_tail = 0;
  std::size_t corrupt = 0;
  std::size_t seq = 0;       ///< append attempts; seeds the WAL fault site
  std::size_t unsynced = 0;  ///< appends since the last fsync (Batch mode)
  bool degraded = false;
};

RunStore::RunStore(const std::string& dir, RunStoreOptions options)
    : dir_(dir), opt_(std::move(options)) {
  fs::create_directories(dir_);
  fsync_mode_ = opt_.fsync ? *opt_.fsync : fsync_mode_from_env();
  if (opt_.fsync_batch == 0) opt_.fsync_batch = 1;
  std::size_t requested = opt_.shards != 0 ? opt_.shards : shards_from_env();
  const std::size_t n = negotiate_shards(round_up_pow2(requested));
  shard_bits_ = 0;
  while ((std::size_t{1} << shard_bits_) < n) ++shard_bits_;

  obs::Span span("store_recover", "store");
  ReplayStats totals;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%02zu.jsonl", i);
    s->wal_path = (fs::path(dir_) / name).string();
    std::snprintf(name, sizeof(name), "snapshot-%02zu.jsonl", i);
    s->snapshot_path = (fs::path(dir_) / name).string();
    s->site = "store.wal." + std::to_string(i);
    s->fd = ::open(s->wal_path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (s->fd >= 0 && flock_retry(s->fd, LOCK_EX) == 0) {
      const ReplayStats st = load_shard_locked(*s);
      s->recovered = st.recovered;
      s->dropped_tail = st.dropped;
      totals.recovered += st.recovered;
      totals.corrupt += st.corrupt;
      totals.dropped += st.dropped;
      flock_retry(s->fd, LOCK_UN);
    }
    shards_.push_back(std::move(s));
  }
  span.arg("shards", static_cast<double>(n))
      .arg("recovered", static_cast<double>(totals.recovered))
      .arg("corrupt_lines", static_cast<double>(totals.corrupt))
      .arg("dropped_tail_bytes", static_cast<double>(totals.dropped));
  static obs::Counter& opens = obs::Registry::global().counter("store.opens");
  opens.add();
}

RunStore::~RunStore() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.fd < 0) continue;
    if (fsync_mode_ == FsyncMode::Batch && s.unsynced > 0) fsync_counted(s.fd);
    ::close(s.fd);
    s.fd = -1;
  }
}

std::unique_ptr<RunStore> RunStore::open_from_env() {
  const char* dir = std::getenv("MAESTRO_STORE");
  if (!dir || !*dir) return nullptr;
  return std::make_unique<RunStore>(dir);
}

std::size_t RunStore::negotiate_shards(std::size_t requested) {
  // First opener writes store.meta; everyone after reads it. The flock on
  // store.lock makes the "first" race well defined across processes.
  const std::string lock_path = (fs::path(dir_) / "store.lock").string();
  const std::string meta_path = (fs::path(dir_) / "store.meta").string();
  const int lfd = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (lfd >= 0) flock_retry(lfd, LOCK_EX);
  std::size_t n = requested;
  bool have_meta = false;
  if (const std::string text = slurp(meta_path); !text.empty()) {
    if (const auto j = util::Json::parse(text); j && j->is_object()) {
      const double v = j->at("shards").as_number();
      if (v >= 1.0 && v <= 256.0) {
        n = static_cast<std::size_t>(v);
        have_meta = true;
      }
    }
  }
  if (!have_meta) {
    util::JsonObject o;
    o["shards"] = util::Json{static_cast<double>(n)};
    const std::string tmp = meta_path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << util::Json{std::move(o)}.dump() << '\n';
    out.flush();
    std::error_code ec;
    if (out) fs::rename(tmp, meta_path, ec);
  }
  if (lfd >= 0) {
    flock_retry(lfd, LOCK_UN);
    ::close(lfd);
  }
  return n;
}

RunStore::Shard& RunStore::shard_for_fp(std::uint64_t fp) const {
  if (shard_bits_ == 0) return *shards_[0];
  return *shards_[fp >> (64 - shard_bits_)];
}

RunStore::Shard& RunStore::shard_for_key(const std::string& key) const {
  return shard_for_fp(fnv1a64(key));
}

void RunStore::record_corrupt(Shard& s, std::size_t n) {
  if (n == 0) return;
  s.corrupt += n;
  static obs::Counter& corrupt_lines = obs::Registry::global().counter("store.corrupt_lines");
  corrupt_lines.add(n);
  const std::lock_guard<std::mutex> lock(warn_mu_);
  if (!warned_corrupt_) {
    warned_corrupt_ = true;
    std::fprintf(stderr,
                 "[maestro::store] WARNING: skipped %zu corrupt WAL/snapshot "
                 "line(s) in %s (CRC or parse failure); replay continued — "
                 "complete neighbours are intact\n",
                 n, dir_.c_str());
  }
}

RunStore::ReplayStats RunStore::load_shard_locked(Shard& s) {
  ReplayStats st;
  s.runs.clear();
  s.run_index.clear();
  s.metrics.clear();
  s.state.clear();
  std::error_code ec;
  // A compactor that died before its atomic rename leaves a temp file; it
  // is unreferenced by definition, so recovery discards it.
  fs::remove(s.snapshot_path + ".tmp", ec);

  // Dedup ledger: a crash between compaction's rename and WAL truncate
  // leaves every pre-compaction entry in both files. Byte-identical WAL
  // entries cancel against snapshot occurrences, one for one, so legitimate
  // duplicate appends still survive.
  std::map<std::uint64_t, std::size_t> snapshot_hashes;

  const auto process = [&](std::string_view line, bool from_snapshot) {
    if (line.empty()) return;
    const auto payload = wal_frame::decode(line);
    if (!payload) {
      ++st.corrupt;
      return;
    }
    if (!from_snapshot) {
      const auto it = snapshot_hashes.find(fnv1a64(*payload));
      if (it != snapshot_hashes.end() && it->second > 0) {
        --it->second;
        return;
      }
    }
    const auto entry = util::Json::parse(*payload);
    if (!entry || !ingest_locked(s, *entry)) {
      ++st.corrupt;
      return;
    }
    ++st.recovered;
    if (from_snapshot) ++snapshot_hashes[fnv1a64(*payload)];
  };

  // Snapshot: renamed into place whole, so any bad line is corruption, not
  // a tear — skip and keep going.
  {
    const std::string data = slurp(s.snapshot_path);
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t nl = data.find('\n', pos);
      if (nl == std::string::npos) {
        process(std::string_view(data).substr(pos), /*from_snapshot=*/true);
        break;
      }
      process(std::string_view(data).substr(pos, nl - pos), /*from_snapshot=*/true);
      pos = nl + 1;
    }
  }

  // WAL: complete lines replay (corrupt ones skipped and counted); the
  // unterminated tail is a torn append — drop it and truncate so the next
  // append starts on a clean boundary.
  {
    const std::string data = slurp(s.wal_path);
    std::size_t pos = 0;
    while (true) {
      const std::size_t nl = data.find('\n', pos);
      if (nl == std::string::npos) break;
      process(std::string_view(data).substr(pos, nl - pos), /*from_snapshot=*/false);
      pos = nl + 1;
    }
    if (pos < data.size()) {
      st.dropped += data.size() - pos;
      if (s.fd >= 0) ::ftruncate(s.fd, static_cast<off_t>(pos));
    }
    s.offset = pos;
  }
  record_corrupt(s, st.corrupt);
  return st;
}

bool RunStore::ingest_locked(Shard& s, const util::Json& entry) {
  if (!entry.is_object()) return false;
  const std::string& t = entry.at("t").as_string();
  if (t == "run") {
    const auto fp = u64_from_json(entry.at("fp"));
    const auto key = run_key_from_json(entry.at("key"));
    if (!fp || !key) return false;
    s.runs.push_back(mirror_run(*fp, *key, flow_result_from_json(entry.at("result"))));
    s.run_index.put(s.runs.size() - 1, s.runs, /*replace=*/false);  // replayed: first wins
    return true;
  }
  if (t == "metric") {
    auto rec = metrics::Record::from_json(entry.at("rec"));
    if (!rec) return false;
    s.metrics.push_back(std::move(*rec));
    return true;
  }
  if (t == "state") {
    const std::string& key = entry.at("key").as_string();
    if (key.empty()) return false;
    s.state[key] = entry.at("value");
    return true;
  }
  return false;
}

std::size_t RunStore::catch_up_locked(Shard& s, bool holding_lease) {
  if (s.fd < 0) return 0;
  struct stat stbuf {};
  if (::fstat(s.fd, &stbuf) != 0) return 0;
  const auto size = static_cast<std::uint64_t>(stbuf.st_size);
  if (size <= s.offset) return 0;
  // Another process appended [offset, size); mirror the complete lines.
  std::string gap(size - s.offset, '\0');
  std::size_t got = 0;
  while (got < gap.size()) {
    const ssize_t r = ::pread(s.fd, gap.data() + got, gap.size() - got,
                              static_cast<off_t>(s.offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  gap.resize(got);
  std::size_t ingested = 0;
  std::size_t corrupt = 0;
  std::size_t pos = 0;
  while (true) {
    const std::size_t nl = gap.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string_view line = std::string_view(gap).substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const auto payload = wal_frame::decode(line);
    if (!payload) {
      ++corrupt;
      continue;
    }
    const auto entry = util::Json::parse(*payload);
    if (!entry || !ingest_locked(s, *entry)) {
      ++corrupt;
      continue;
    }
    ++ingested;
  }
  record_corrupt(s, corrupt);
  if (pos < gap.size() && holding_lease) {
    // Unterminated tail while we hold the lease: a writer died mid-append
    // (live writers complete their write before releasing the flock). Drop
    // the torn bytes so our next append starts on a clean boundary.
    s.dropped_tail += gap.size() - pos;
    ::ftruncate(s.fd, static_cast<off_t>(s.offset + pos));
  }
  s.offset += pos;
  return ingested;
}

void RunStore::degrade_locked(Shard& s, const char* why) {
  if (!s.degraded) {
    std::fprintf(stderr,
                 "[maestro::store] WARNING: WAL append failed (%s) on shard "
                 "%zu in %s; degrading to in-memory operation — results are "
                 "served from memory but will not survive this process until "
                 "compact() succeeds\n",
                 why, s.index, dir_.c_str());
    s.degraded = true;
    degraded_shards_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::global().gauge("store.degraded").set(1.0);
  }
  static obs::Counter& wal_errors = obs::Registry::global().counter("store.wal_errors");
  wal_errors.add();
}

void RunStore::fsync_policy_locked(Shard& s) {
  switch (fsync_mode_) {
    case FsyncMode::Always:
      fsync_counted(s.fd);
      s.unsynced = 0;
      break;
    case FsyncMode::Batch:
      if (s.unsynced >= opt_.fsync_batch) {
        fsync_counted(s.fd);
        s.unsynced = 0;
      }
      break;
    case FsyncMode::Off:
      break;
  }
}

void RunStore::append_line_locked(Shard& s, const std::string& payload) {
  // The fault site is seeded by the shard append sequence number, so a
  // chaos test kills the writer at a deterministic entry regardless of
  // thread count or shard interleaving.
  const auto fault = resil::FaultInjector::decide(s.site.c_str(), s.seq++);
  if (s.degraded) return;  // in-memory only until compact() recovers the WAL
  if (fault == resil::FaultKind::Crash) {
    // Injected EIO: the write never reaches the disk.
    degrade_locked(s, "injected EIO");
    return;
  }
  if (s.fd < 0) {
    degrade_locked(s, "no WAL fd");
    return;
  }
  const std::string line = wal_frame::encode(payload);
  if (flock_retry(s.fd, LOCK_EX) != 0) {
    degrade_locked(s, "lease acquisition failed");
    return;
  }
  catch_up_locked(s, /*holding_lease=*/true);
  bool ok = false;
  if (fault == resil::FaultKind::CorruptResult) {
    // Injected short write: half a record lands, then the device dies. The
    // torn tail is exactly what the recovery path truncates on next open.
    file_write_all(s.fd, line.data(), line.size() / 2);
    degrade_locked(s, "injected short write");
  } else {
    ok = file_write_all(s.fd, line.data(), line.size());
    if (!ok) degrade_locked(s, "write error");
  }
  struct stat stbuf {};
  if (::fstat(s.fd, &stbuf) == 0) s.offset = static_cast<std::uint64_t>(stbuf.st_size);
  if (ok) {
    ++s.unsynced;
    fsync_policy_locked(s);
  }
  flock_retry(s.fd, LOCK_UN);
  if (!ok) return;
  ++s.wal_entries;
  static obs::Counter& wal_appends = obs::Registry::global().counter("store.wal_appends");
  wal_appends.add();
}

void RunStore::append_run(StoredRun run) {
  MirroredRun m = mirror_run(run.fingerprint, run.key, std::move(run.result));
  const std::string payload = run_to_entry(m.fingerprint, run.key, m.result).dump();
  Shard& s = shard_for_fp(m.fingerprint);
  const std::lock_guard<std::mutex> lock(s.mu);
  append_line_locked(s, payload);
  s.runs.push_back(std::move(m));
  s.run_index.put(s.runs.size() - 1, s.runs, /*replace=*/true);  // local: latest wins
}

void RunStore::append_metric(const metrics::Record& rec) {
  const std::string payload = metric_to_entry(rec).dump();
  // Metrics have no fingerprint; hash the serialized entry so the load
  // spreads across shards deterministically.
  Shard& s = shard_for_fp(fnv1a64(payload));
  const std::lock_guard<std::mutex> lock(s.mu);
  append_line_locked(s, payload);
  s.metrics.push_back(rec);
}

void RunStore::put_state(const std::string& key, util::Json value) {
  const std::string payload = state_to_entry(key, value).dump();
  // A state key always lands in one shard, so last-write-wins replay order
  // is well defined.
  Shard& s = shard_for_key(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  append_line_locked(s, payload);
  s.state[key] = std::move(value);
}

std::vector<StoredRun> RunStore::runs() const {
  std::vector<StoredRun> out;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    for (const MirroredRun& m : sp->runs) {
      StoredRun& run = out.emplace_back();
      run.fingerprint = m.fingerprint;
      run.key = unpack_key(m);
      run.result = m.result;
    }
  }
  return out;
}

std::vector<metrics::Record> RunStore::metric_records() const {
  std::vector<metrics::Record> out;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    out.insert(out.end(), sp->metrics.begin(), sp->metrics.end());
  }
  return out;
}

std::optional<util::Json> RunStore::get_state(const std::string& key) const {
  const Shard& s = shard_for_key(key);
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.state.find(key);
  if (it == s.state.end()) return std::nullopt;
  return it->second;
}

std::size_t RunStore::run_count() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    n += sp->runs.size();
  }
  return n;
}

std::optional<flow::FlowResult> RunStore::find_run(std::uint64_t fingerprint) const {
  const Shard& s = shard_for_fp(fingerprint);
  const std::lock_guard<std::mutex> lock(s.mu);
  const std::size_t pos = s.run_index.find(fingerprint, s.runs);
  if (pos == RunIndex::npos) return std::nullopt;
  return s.runs[pos].result;
}

std::size_t RunStore::distinct_run_count() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    n += sp->run_index.size();
  }
  return n;
}

std::size_t RunStore::metric_count() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    n += sp->metrics.size();
  }
  return n;
}

std::size_t RunStore::wal_entries() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    n += sp->wal_entries;
  }
  return n;
}

std::size_t RunStore::recovered_entries() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    n += sp->recovered;
  }
  return n;
}

std::size_t RunStore::dropped_tail_bytes() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    n += sp->dropped_tail;
  }
  return n;
}

std::size_t RunStore::corrupt_lines() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const std::lock_guard<std::mutex> lock(sp->mu);
    n += sp->corrupt;
  }
  return n;
}

bool RunStore::degraded() const {
  return degraded_shards_.load(std::memory_order_relaxed) > 0;
}

std::size_t RunStore::refresh() {
  std::size_t total = 0;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.fd < 0) continue;
    struct stat stbuf {};
    if (::fstat(s.fd, &stbuf) != 0) continue;
    const auto size = static_cast<std::uint64_t>(stbuf.st_size);
    if (size < s.offset) {
      // Another process compacted the shard out from under us: the WAL
      // shrank. Reload from the (new) snapshot + WAL under the lease.
      if (flock_retry(s.fd, LOCK_EX) != 0) continue;
      const std::size_t before = s.runs.size() + s.metrics.size() + s.state.size();
      load_shard_locked(s);
      const std::size_t after = s.runs.size() + s.metrics.size() + s.state.size();
      if (after > before) total += after - before;
      flock_retry(s.fd, LOCK_UN);
    } else if (size > s.offset) {
      // Complete new lines ingest without the lease; a torn in-flight tail
      // is left for the writer (or the next refresh) to resolve.
      total += catch_up_locked(s, /*holding_lease=*/false);
    }
  }
  return total;
}

bool RunStore::compact_shard_locked(Shard& s, std::size_t* entries) {
  if (s.fd < 0) return false;
  if (flock_retry(s.fd, LOCK_EX) != 0) return false;
  bool ok = false;
  // Final catch-up under the lease: the snapshot must fold in every other
  // writer's entries, because the WAL truncate below discards them.
  catch_up_locked(s, /*holding_lease=*/true);
  const std::string tmp = s.snapshot_path + ".tmp";
  do {
    const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) break;
    bool wrote = true;
    const auto emit = [&](const util::Json& entry) {
      if (!wrote) return;
      const std::string line = wal_frame::encode(entry.dump());
      wrote = file_write_all(tfd, line.data(), line.size());
    };
    for (const auto& run : s.runs) emit(run_to_entry(run.fingerprint, unpack_key(run), run.result));
    for (const auto& rec : s.metrics) emit(metric_to_entry(rec));
    for (const auto& [key, value] : s.state) emit(state_to_entry(key, value));
    wrote = wrote && fsync_counted(tfd);
    ::close(tfd);
    if (!wrote) break;
    if (opt_.compact_hook) opt_.compact_hook("pre_rename", s.index);
    std::error_code ec;
    fs::rename(tmp, s.snapshot_path, ec);  // atomic within the store directory
    if (ec) break;
    // The rename is only durable once the directory entry is; fsync it.
    fsync_dir(dir_);
    if (opt_.compact_hook) opt_.compact_hook("pre_truncate", s.index);
    if (::ftruncate(s.fd, 0) != 0) break;
    s.offset = 0;
    s.wal_entries = 0;
    s.unsynced = 0;
    *entries += s.runs.size() + s.metrics.size() + s.state.size();
    if (s.degraded) {
      // The snapshot just persisted the full mirror and the WAL is fresh:
      // the degradation is healed.
      s.degraded = false;
      if (degraded_shards_.fetch_sub(1, std::memory_order_relaxed) == 1) {
        obs::Registry::global().gauge("store.degraded").set(0.0);
      }
      std::fprintf(stderr, "[maestro::store] shard %zu WAL recovered by compaction in %s\n",
                   s.index, dir_.c_str());
    }
    ok = true;
  } while (false);
  flock_retry(s.fd, LOCK_UN);
  return ok;
}

bool RunStore::compact() {
  obs::Span span("store_compact", "store");
  bool ok = true;
  std::size_t entries = 0;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.mu);
    ok = compact_shard_locked(s, &entries) && ok;
  }
  span.arg("entries", static_cast<double>(entries));
  static obs::Counter& compactions = obs::Registry::global().counter("store.compactions");
  compactions.add();
  return ok;
}

void bind_metrics_sink(metrics::Server& server, RunStore& store) {
  server.set_sink([&store](const metrics::Record& rec) { store.append_metric(rec); });
}

}  // namespace maestro::store
