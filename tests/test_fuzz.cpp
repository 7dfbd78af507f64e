// Seeded fuzz driver for the JSON reader and writer (ctest label "fuzz").
//
// Every byte a server reads from a socket, and every line replay reads from
// a WAL, goes through util::Json::parse. This driver takes valid documents
// of each kind the services exchange — stored FlowResult entries, metrics
// records, framed WAL lines and cache requests — mutates their bytes with a
// seeded util::Rng for a bounded number of iterations, and checks two
// properties on every mutant:
//   * parse() returns (a value or nullopt) without crashing;
//   * for every document it accepts, parse(dump(x)) succeeds and dumps to
//     the same bytes as dump(x).
// The decoders behind those bytes get the same treatment: metrics
// Record::from_json (socket and WAL records) and the MAB, flow-tree-search
// and tuner checkpoint decoders (WAL "state" entries) see byte-mutated
// documents and documents whose values were swapped for hostile ones (NaN,
// infinities, negatives, 2^64, fractions, wrong types, dropped keys); they
// must accept or reject without crashing and without undefined behaviour.
// The netlist and placement text readers (netlist::read_netlist,
// place::read_placement) see byte-mutated writer output: they may reject it
// with nullopt, and text they accept must write back to text that reads to
// the same bytes again. metrics::frame::read_frame, the reader behind both
// socket services, sees hostile length headers (0, max_bytes, max_bytes+1,
// 0xffffffff), payloads cut short by a close or by a peer gone quiet, and
// random byte streams over a socketpair with a receive timeout: it returns
// only 1, 0 or -1, never grows the payload past max_bytes, and never hangs.
// No external fuzzer is needed; runs are reproducible from the seed. Build
// with -DMAESTRO_SANITIZE=address,undefined,float-cast-overflow to turn
// memory errors and UB (GCC's `undefined` group leaves out
// float-cast-overflow) into failures.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flow_search.hpp"
#include "core/mab_scheduler.hpp"
#include "exec/executor.hpp"
#include "metrics/frame.hpp"
#include "metrics/record.hpp"
#include "netlist/generators.hpp"
#include "netlist/io.hpp"
#include "place/io.hpp"
#include "place/placer.hpp"
#include "store/run_store.hpp"
#include "store/wal_frame.hpp"
#include "tune/flow_tuner.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mc = maestro::core;
namespace mf = maestro::flow;
namespace mm = maestro::metrics;
namespace mn = maestro::netlist;
namespace mp = maestro::place;
namespace ms = maestro::store;
namespace mt = maestro::tune;
namespace mu = maestro::util;
namespace mx = maestro::exec;

namespace {

constexpr int kIterationsPerSeed = 25'000;

mu::Json run_entry(std::uint64_t n) {
  ms::RunKey key;
  key.design = "fuzz\"design";
  key.seed = n;
  key.set("place.density", 0.6 + 0.001 * static_cast<double>(n));
  key.set("syn.effort", "high");
  maestro::flow::FlowResult r;
  r.completed = true;
  r.timing_met = n % 2 == 0;
  r.area_um2 = 1234.5678 * static_cast<double>(n + 1);
  r.wns_ps = -0.1 * static_cast<double>(n);
  r.ir_drop_v = 1e-7;
  r.tat_minutes = 55.0;
  r.failed_step = n % 3 == 0 ? "route\n" : "";
  mu::JsonObject o;
  o["t"] = mu::Json{"run"};
  o["fp"] = mu::Json{std::to_string(key.fingerprint())};
  o["key"] = ms::run_key_to_json(key);
  o["result"] = ms::flow_result_to_json(r);
  return mu::Json{std::move(o)};
}

mu::Json metric_record(std::uint64_t n) {
  maestro::metrics::Record rec;
  rec.run_id = n + 1;
  rec.design = "tool" + std::to_string(n);
  rec.step = "route";
  rec.seed = n * 7919;
  rec.knobs["effort"] = "high";
  rec.values["drvs"] = static_cast<double>(n * 3);
  rec.values["wns"] = -12.25;
  return rec.to_json();
}

/// Valid documents of every kind the store and metrics services exchange.
std::vector<std::string> corpus() {
  std::vector<std::string> docs;
  for (std::uint64_t n = 0; n < 4; ++n) {
    const std::string run = run_entry(n).dump();
    docs.push_back(run);
    docs.push_back(metric_record(n).dump());
    docs.push_back(ms::wal_frame::encode(run));  // a framed WAL line, newline included
    docs.push_back("{\"fp\":\"" + std::to_string(1000 + n) +
                   "\",\"tenant\":\"client" + std::to_string(n) + "\",\"type\":\"lookup\"}");
    mu::JsonObject insert = run_entry(n).as_object();
    insert["type"] = mu::Json{"insert"};
    insert["tenant"] = mu::Json{"t\\u00e9"};
    docs.push_back(mu::Json{std::move(insert)}.dump());
  }
  docs.push_back("{\"type\":\"stats\"}");
  docs.push_back("{\"type\":\"bye\"}");
  docs.push_back("[1e308,-0.0,4.9406564584124654e-324,\"\\u0000\\u001f\\/\",[[{}]],null,true]");
  return docs;
}

/// Bytes that steer the parser into its interesting branches.
constexpr char kInteresting[] = {'{', '}', '[', ']', '"', '\\', ',', ':', '-', '+', '.',
                                 'e', 'E', '0', '9', 'u', 'n', 't', 'f', ' ', '\0', '\x7f',
                                 '\x80', '\xff'};

char pick_byte(mu::Rng& rng) {
  const std::uint64_t r = rng.next();
  return r % 2 == 0 ? kInteresting[(r >> 8) % sizeof kInteresting] : static_cast<char>(r >> 16);
}

/// One to four random edits: flip a bit, overwrite, insert, erase, duplicate
/// or truncate a range, or splice in a slice of another corpus document.
std::string mutate(std::string s, const std::vector<std::string>& docs, mu::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.next() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng.next() % (s.size() + 1);
    const std::size_t len = 1 + rng.next() % 8;
    switch (rng.next() % 7) {
      case 0:
        if (at < s.size()) s[at] = static_cast<char>(s[at] ^ (1 << (rng.next() % 8)));
        break;
      case 1:
        if (at < s.size()) s[at] = pick_byte(rng);
        break;
      case 2: s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), pick_byte(rng)); break;
      case 3: s.erase(std::min(at, s.size()), len); break;
      case 4: s.insert(std::min(at, s.size()), s.substr(std::min(at, s.size()), len)); break;
      case 5: s.resize(std::min(at, s.size())); break;
      default: {
        const std::string& other = docs[rng.next() % docs.size()];
        const std::size_t from = rng.next() % (other.size() + 1);
        s.insert(std::min(at, s.size()), other.substr(from, len * 4));
      }
    }
  }
  return s;
}

struct FuzzStats {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// parse() must not crash; an accepted document must re-dump stably.
void check_one(std::string_view input, FuzzStats& stats) {
  const auto doc = mu::Json::parse(input);
  if (!doc) {
    ++stats.rejected;
    return;
  }
  ++stats.accepted;
  const std::string once = doc->dump();
  const auto again = mu::Json::parse(once);
  ASSERT_TRUE(again.has_value()) << "dump of an accepted document does not parse: " << once;
  ASSERT_EQ(again->dump(), once) << "input: " << std::string(input);
}

}  // namespace

TEST(JsonFuzz, CorpusParsesAndRedumpsStably) {
  FuzzStats stats;
  for (const auto& doc : corpus()) check_one(doc, stats);
  // Everything but the framed WAL lines is a JSON document.
  EXPECT_EQ(stats.rejected, 4u);
}

TEST(JsonFuzz, MutatedDocumentsNeverCrashAndRedumpStably) {
  const std::vector<std::string> docs = corpus();
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    mu::Rng rng{seed};
    FuzzStats stats;
    for (int i = 0; i < kIterationsPerSeed; ++i) {
      const std::string input = mutate(docs[rng.next() % docs.size()], docs, rng);
      check_one(input, stats);
      if (HasFatalFailure()) return;
    }
    // Both outcomes must be well represented, or the mutator is too timid
    // (everything still parses) or too destructive (nothing does).
    EXPECT_GT(stats.accepted, kIterationsPerSeed / 20) << "seed " << seed;
    EXPECT_GT(stats.rejected, kIterationsPerSeed / 20) << "seed " << seed;
  }
}

TEST(JsonFuzz, MutatedWalLinesNeverCrashTheFrameDecoder) {
  const std::vector<std::string> docs = corpus();
  mu::Rng rng{5};
  FuzzStats stats;
  for (int i = 0; i < kIterationsPerSeed; ++i) {
    const std::string line = mutate(ms::wal_frame::encode(docs[rng.next() % docs.size()]), docs, rng);
    // Replay hands decode() a line without its newline.
    const std::string_view body = std::string_view(line).substr(0, line.find('\n'));
    if (const auto payload = ms::wal_frame::decode(body)) check_one(*payload, stats);
    if (HasFatalFailure()) return;
  }
}

// ------------------------------------------------------------ decoder fuzzing

namespace {

constexpr int kDecoderIterations = 20'000;

/// Values a hostile writer can put where a decoder expects a count, an id
/// or an index.
std::vector<mu::Json> hostile_values() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {mu::Json{nan},        mu::Json{inf},   mu::Json{-inf},
          mu::Json{-1.0},       mu::Json{-0.0},  mu::Json{0.5},
          mu::Json{1e300},      mu::Json{-1e300},
          mu::Json{18446744073709551616.0},  // 2^64
          mu::Json{18446744073709549568.0},  // the largest double below 2^64
          mu::Json{1e15},       mu::Json{3.0},   mu::Json{"7"},
          mu::Json{true},       mu::Json{},      mu::Json{mu::JsonArray{}},
          mu::Json{mu::JsonObject{}}};
}

void collect_nodes(mu::Json& j, std::vector<mu::Json*>& out) {
  out.push_back(&j);
  if (j.is_array()) {
    for (auto& v : j.as_array()) collect_nodes(v, out);
  } else if (j.is_object()) {
    for (auto& [k, v] : j.as_object()) collect_nodes(v, out);
  }
}

/// One to three value-level edits: replace a random node (leaf or
/// container) with a hostile value, or drop a random key of an object.
mu::Json mutate_values(mu::Json doc, mu::Rng& rng) {
  static const std::vector<mu::Json> hostile = hostile_values();
  const int edits = 1 + static_cast<int>(rng.next() % 3);
  for (int e = 0; e < edits; ++e) {
    std::vector<mu::Json*> nodes;
    collect_nodes(doc, nodes);
    mu::Json& node = *nodes[rng.next() % nodes.size()];
    if (node.is_object() && !node.as_object().empty() && rng.next() % 4 == 0) {
      auto it = node.as_object().begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next() % node.as_object().size()));
      node.as_object().erase(it);
    } else {
      node = hostile[rng.next() % hostile.size()];
    }
  }
  return doc;
}

/// Run `decode` on value-mutated and on byte-mutated copies of `valid`.
template <typename Decode>
void fuzz_decoder(const mu::Json& valid, Decode decode, std::uint64_t seed) {
  const std::vector<std::string> docs{valid.dump()};
  mu::Rng rng{seed};
  std::size_t accepted = 0;
  for (int i = 0; i < kDecoderIterations; ++i) {
    if (i % 2 == 0) {
      accepted += decode(mutate_values(valid, rng)) ? 1 : 0;
    } else if (const auto doc = mu::Json::parse(mutate(docs[0], docs, rng))) {
      accepted += decode(*doc) ? 1 : 0;
    }
  }
  // Some mutants land on fields the decoder does not check (doubles,
  // booleans) and are still accepted; most are not.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kDecoderIterations));
}

std::string fuzz_store_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("maestro_fuzz_" + std::string(tag) + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

mf::FlowResult synthetic_result(double area, bool ok) {
  mf::FlowResult r;
  r.completed = true;
  r.timing_met = ok;
  r.drc_clean = true;
  r.constraints_met = true;
  r.area_um2 = area;
  return r;
}

}  // namespace

TEST(DecoderFuzz, RecordFromJsonRejectsOutOfRangeIdsWithoutUb) {
  for (const std::uint64_t n : {0ULL, 1ULL, 2ULL}) {
    const mu::Json valid = metric_record(n);
    ASSERT_TRUE(mm::Record::from_json(valid).has_value());
    fuzz_decoder(valid, [](const mu::Json& j) { return mm::Record::from_json(j).has_value(); },
                 10 + n);
  }
  // The checked conversion's edges, on the numeric run_id and seed fields.
  const auto with = [](const char* field, mu::Json v) {
    mu::JsonObject o = metric_record(0).as_object();
    o[field] = std::move(v);
    return mm::Record::from_json(mu::Json{std::move(o)});
  };
  for (const char* field : {"run_id", "seed"}) {
    EXPECT_FALSE(with(field, mu::Json{std::nan("")}).has_value()) << field;
    EXPECT_FALSE(with(field, mu::Json{-1.0}).has_value()) << field;
    EXPECT_FALSE(with(field, mu::Json{0.5}).has_value()) << field;
    EXPECT_FALSE(with(field, mu::Json{18446744073709551616.0}).has_value()) << field;
    EXPECT_FALSE(with(field, mu::Json{std::numeric_limits<double>::infinity()}).has_value());
    const auto top = with(field, mu::Json{18446744073709549568.0});
    ASSERT_TRUE(top.has_value()) << field;
    EXPECT_EQ(std::string(field) == "seed" ? top->seed : top->run_id, 18446744073709549568ULL);
    // The decimal-string form: digits only, at most 2^64 - 1.
    for (const char* bad : {"-1", "12abc", "", " 1", "+1", "1.0", "0x10",
                            "18446744073709551616", "99999999999999999999999"}) {
      EXPECT_FALSE(with(field, mu::Json{bad}).has_value()) << field << " \"" << bad << '"';
    }
    const auto max = with(field, mu::Json{"18446744073709551615"});
    ASSERT_TRUE(max.has_value()) << field;
    EXPECT_EQ(std::string(field) == "seed" ? max->seed : max->run_id, 18446744073709551615ULL);
    const auto zero = with(field, mu::Json{"0"});
    ASSERT_TRUE(zero.has_value()) << field;
    EXPECT_EQ(std::string(field) == "seed" ? zero->seed : zero->run_id, 0u);
  }
}

TEST(DecoderFuzz, MabCheckpointDecoderNeverCrashes) {
  const std::string dir = fuzz_store_dir("mab");
  ms::RunStore store(dir);
  mc::MabOptions opt;
  opt.frequency_arms_ghz = mc::frequency_arms(0.8, 1.6, 3);
  opt.iterations = 3;
  opt.concurrency = 2;
  opt.checkpoint = &store;
  const mc::MabScheduler sched{opt};
  mx::RunExecutor pool{{.threads = 1}};
  mu::Rng rng{3};
  (void)sched.run([](double ghz, std::uint64_t) { return synthetic_result(1.0, ghz <= 1.2); },
                  rng, pool);
  const auto state = store.get_state("mab:" + opt.campaign_id);
  ASSERT_TRUE(state.has_value());
  ASSERT_TRUE(sched.resumes_from(*state));
  fuzz_decoder(*state, [&](const mu::Json& j) { return sched.resumes_from(j); }, 21);
  std::filesystem::remove_all(dir);
}

TEST(DecoderFuzz, FlowSearchCheckpointDecoderNeverCrashes) {
  const std::string dir = fuzz_store_dir("fts");
  ms::RunStore store(dir);
  mc::FlowSearchOptions opt;
  opt.population = 3;
  opt.rounds = 2;
  opt.checkpoint = &store;
  const mc::FlowTreeSearch search{mf::default_knob_spaces(), opt};
  mu::Rng rng{4};
  (void)search.run(
      [](const mf::FlowTrajectory&, std::uint64_t seed) {
        return synthetic_result(static_cast<double>(seed % 97), true);
      },
      rng);
  const auto state = store.get_state("fts:" + opt.campaign_id);
  ASSERT_TRUE(state.has_value());
  ASSERT_TRUE(search.resumes_from(*state));
  fuzz_decoder(*state, [&](const mu::Json& j) { return search.resumes_from(j); }, 22);
  std::filesystem::remove_all(dir);
}

TEST(DecoderFuzz, TunerCheckpointDecoderNeverCrashes) {
  const std::string dir = fuzz_store_dir("tune");
  ms::RunStore store(dir);
  mt::TuneOptions opt;
  std::vector<mf::KnobSpace> spaces(1);
  spaces[0].step = mf::FlowStep::Synthesis;
  spaces[0].knobs = {{"a", {"a0", "a1", "a2"}}, {"b", {"b0", "b1"}}, {"c", {"c0", "c1"}}};
  opt.spaces = spaces;
  opt.rounds = 4;
  opt.batch = 3;
  opt.warmup_rounds = 2;
  opt.refit_every = 1;
  opt.min_surrogate_rows = 4;
  opt.focus_dims = 1;
  opt.forest.trees = 4;
  opt.checkpoint = &store;
  const mt::FlowTuner tuner{opt};
  mx::RunExecutor pool{{.threads = 1}};
  mu::Rng rng{5};
  (void)tuner.run(
      [](const mf::FlowTrajectory& t, std::uint64_t) {
        return synthetic_result(t.value(mf::FlowStep::Synthesis, "a", "a0") == "a2" ? 1.0 : 2.0,
                                true);
      },
      rng, pool);
  const auto state = store.get_state("tune:" + opt.campaign_id);
  ASSERT_TRUE(state.has_value());
  ASSERT_TRUE(tuner.resumes_from(*state));
  fuzz_decoder(*state, [&](const mu::Json& j) { return tuner.resumes_from(j); }, 23);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ netlist / placement readers

namespace {

constexpr int kReaderIterations = 20'000;

const mn::CellLibrary& cell_library() {
  static const mn::CellLibrary lib = mn::make_default_library();
  return lib;
}

/// Small random-logic netlists, as write_netlist emits them.
std::vector<mn::Netlist> reader_netlists() {
  std::vector<mn::Netlist> out;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    mn::RandomLogicSpec spec;
    spec.gates = 12;
    spec.primary_inputs = 4;
    spec.primary_outputs = 3;
    spec.levels = 4;
    spec.seed = seed;
    out.push_back(mn::make_random_logic(cell_library(), spec));
  }
  return out;
}

/// One or two line-level edits — copy a line to another position, drop a
/// line or swap two — so the reader sees well-formed lines in hostile order.
std::string mutate_lines(const std::string& text, mu::Rng& rng) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const int edits = 1 + static_cast<int>(rng.next() % 2);
  for (int e = 0; e < edits && !lines.empty(); ++e) {
    const std::size_t a = rng.next() % lines.size();
    const std::size_t b = rng.next() % lines.size();
    switch (rng.next() % 3) {
      case 0: {
        const std::string copy = lines[a];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b), copy);
        break;
      }
      case 1: lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a)); break;
      default: std::swap(lines[a], lines[b]);
    }
  }
  std::string out;
  for (const auto& line : lines) out += line + '\n';
  return out;
}

/// Every net is its driver's output net and every sink pin points back at
/// its net.
bool connectivity_consistent(const mn::Netlist& nl) {
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    const auto id = static_cast<mn::NetId>(n);
    const auto& net = nl.net(id);
    if (nl.instance(net.driver).output_net != id) return false;
    for (const auto& sink : net.sinks) {
      if (nl.instance(sink.instance).input_nets[static_cast<std::size_t>(sink.pin)] != id) {
        return false;
      }
    }
  }
  return true;
}

/// Feeds `read` mutants of `docs` (the matching writer's output), half
/// line-level and half byte-level. `read` returns the re-written text of an
/// input it accepts, or nullopt; the re-written text must itself be
/// accepted and re-write to the same bytes.
template <typename Read>
void fuzz_reader(const std::vector<std::string>& docs, Read read, std::uint64_t seed) {
  for (const auto& doc : docs) ASSERT_TRUE(read(doc).has_value()) << doc;
  mu::Rng rng{seed};
  std::size_t accepted = 0;
  for (int i = 0; i < kReaderIterations; ++i) {
    const std::string& doc = docs[rng.next() % docs.size()];
    const std::string input = i % 2 == 0 ? mutate_lines(doc, rng) : mutate(doc, docs, rng);
    const auto once = read(input);
    if (!once) continue;
    ++accepted;
    const auto again = read(*once);
    ASSERT_TRUE(again.has_value()) << "re-written text does not read back:\n" << *once;
    ASSERT_EQ(*again, *once) << "input:\n" << input;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kReaderIterations));
}

}  // namespace

TEST(ReaderFuzz, MutatedNetlistTextNeverCrashesTheReader) {
  std::vector<std::string> docs;
  for (const auto& nl : reader_netlists()) docs.push_back(mn::write_netlist(nl));
  fuzz_reader(
      docs,
      [](const std::string& text) -> std::optional<std::string> {
        const auto nl = mn::read_netlist(cell_library(), text);
        if (!nl) return std::nullopt;
        EXPECT_TRUE(connectivity_consistent(*nl)) << "accepted:\n" << text;
        (void)nl->validate();  // walks the connectivity the reader built
        return mn::write_netlist(*nl);
      },
      31);
}

TEST(ReaderFuzz, NetlistInputsTheFuzzerFoundAreRejected) {
  // A design line after an instance used to rebuild the netlist under the
  // old name table (an out-of-bounds driver id); a second net on one
  // driver used to overwrite the driver's output net.
  const std::pair<const char*, std::size_t> cases[] = {
      {"maestro_netlist 1\ninstance a INPUT\ndesign d\nnet n a\n", 3},
      {"maestro_netlist 1\ninstance a INPUT\nnet n a\nnet m a\n", 4}};
  for (const auto& [text, line] : cases) {
    mn::ParseError err;
    EXPECT_FALSE(mn::read_netlist(cell_library(), text, &err).has_value()) << text;
    EXPECT_EQ(err.line, line) << text;
  }
}

TEST(ReaderFuzz, MutatedPlacementTextNeverCrashesTheReader) {
  const auto netlists = reader_netlists();
  const mn::Netlist& nl = netlists.front();
  const auto fp = mp::Floorplan::for_netlist(nl, 0.7);
  std::vector<std::string> docs;
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    mu::Rng rng{seed};
    docs.push_back(mp::write_placement(mp::random_placement(nl, fp, rng)));
  }
  fuzz_reader(
      docs,
      [&](const std::string& text) -> std::optional<std::string> {
        const auto pl = mp::read_placement(nl, fp, text);
        if (!pl) return std::nullopt;
        return mp::write_placement(*pl);
      },
      32);
}

// ------------------------------------------------------ frame transport

namespace {

/// One connected AF_UNIX stream pair; the reader side carries a receive
/// timeout so a short frame from a peer that stays open cannot hang.
struct SocketPair {
  int reader = -1;
  int writer = -1;

  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;
    reader = fds[0];
    writer = fds[1];
    mm::frame::set_io_timeout(reader, 50.0);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
  ~SocketPair() {
    close_writer();
    if (reader >= 0) ::close(reader);
  }
  void close_writer() {
    if (writer >= 0) ::close(writer);
    writer = -1;
  }
};

std::string le32(std::uint32_t v) {
  return {static_cast<char>(v), static_cast<char>(v >> 8), static_cast<char>(v >> 16),
          static_cast<char>(v >> 24)};
}

/// Reads frames until one does not return 1 (bounded, since every frame
/// consumes at least its 4-byte header). Every return must be 1, 0 or -1,
/// and *payload must never exceed max_bytes. Returns the results in order.
std::vector<int> read_all(int fd, std::size_t max_bytes, std::vector<std::string>* frames) {
  std::vector<int> results;
  std::string payload;
  for (int n = 0; n < 1 << 16; ++n) {
    const int r = mm::frame::read_frame(fd, max_bytes, &payload);
    results.push_back(r);
    EXPECT_TRUE(r == 1 || r == 0 || r == -1) << r;
    EXPECT_LE(payload.size(), max_bytes);
    if (r != 1) break;
    frames->push_back(payload);
  }
  return results;
}

}  // namespace

TEST(FrameFuzz, HostileHeadersAndShortPayloadsNeverHangOrOvergrow) {
  constexpr std::size_t kMaxBytes[] = {0, 1, 16, 4096};
  mu::Rng rng{41};
  std::size_t whole = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t max_bytes = kMaxBytes[rng.next() % std::size(kMaxBytes)];
    const std::uint32_t lengths[] = {0, static_cast<std::uint32_t>(max_bytes),
                                     static_cast<std::uint32_t>(max_bytes + 1), 0xffffffffu,
                                     static_cast<std::uint32_t>(rng.next() % (2 * max_bytes + 2))};
    const std::uint32_t len = lengths[rng.next() % std::size(lengths)];
    // Send the whole payload, a prefix of it, or (for oversized headers)
    // a few stray bytes; then close.
    const std::size_t want = std::min<std::size_t>(len, 2 * max_bytes + 8);
    const bool is_short = rng.next() % 2 == 0 && want > 0;
    const std::size_t sent = is_short ? rng.next() % want : want;
    std::string bytes = le32(len);
    for (std::size_t b = 0; b < sent; ++b) bytes += pick_byte(rng);

    SocketPair sp;
    ASSERT_GE(sp.reader, 0);
    ASSERT_TRUE(mm::frame::write_all(sp.writer, bytes.data(), bytes.size()));
    sp.close_writer();
    std::vector<std::string> frames;
    const std::vector<int> results = read_all(sp.reader, max_bytes, &frames);
    if (len > max_bytes || sent < len) {
      // Oversized header, or a payload cut off by the close: one error.
      EXPECT_EQ(results, std::vector<int>{-1}) << "len " << len << " sent " << sent;
      ++refused;
    } else {
      // A whole frame, then a clean end of stream.
      EXPECT_EQ(results, (std::vector<int>{1, 0})) << "len " << len;
      ASSERT_EQ(frames.size(), 1u);
      EXPECT_EQ(frames[0], bytes.substr(4));
      ++whole;
    }
  }
  EXPECT_GT(whole, 100u);
  EXPECT_GT(refused, 100u);
}

TEST(FrameFuzz, TruncatedHeadersAndRandomStreamsEndCleanly) {
  mu::Rng rng{42};
  for (int i = 0; i < 2000; ++i) {
    const std::size_t max_bytes = 1 + rng.next() % 64;
    std::string bytes;
    if (i % 4 == 0) {
      bytes = le32(static_cast<std::uint32_t>(rng.next())).substr(0, 1 + rng.next() % 3);
    } else {
      // Random bytes: small length words often frame, large ones refuse.
      const std::size_t n = rng.next() % 256;
      for (std::size_t b = 0; b < n; ++b) {
        bytes += rng.next() % 3 == 0 ? '\0' : static_cast<char>(rng.next() % 24);
      }
    }
    SocketPair sp;
    ASSERT_GE(sp.reader, 0);
    ASSERT_TRUE(mm::frame::write_all(sp.writer, bytes.data(), bytes.size()));
    sp.close_writer();
    std::vector<std::string> frames;
    const std::vector<int> results = read_all(sp.reader, max_bytes, &frames);
    // The stream ends cleanly exactly when its frames used every byte; a
    // header cut short is always an error, never a clean end.
    std::size_t consumed = 0;
    for (const auto& f : frames) consumed += 4 + f.size();
    EXPECT_EQ(results.back() == 0, consumed == bytes.size()) << "i " << i;
    if (i % 4 == 0) {
      EXPECT_EQ(results, std::vector<int>{-1});
    }
  }
}

TEST(FrameFuzz, ShortFrameFromAnOpenPeerTimesOut) {
  // The peer sends a header and part of its payload and then goes quiet
  // without closing: the receive timeout turns the wait into an error.
  for (const std::size_t sent : {0u, 3u}) {
    SocketPair sp;
    ASSERT_GE(sp.reader, 0);
    const std::string bytes = le32(8) + std::string(sent, 'x');
    ASSERT_TRUE(mm::frame::write_all(sp.writer, bytes.data(), bytes.size()));
    std::string payload;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(mm::frame::read_frame(sp.reader, 16, &payload), -1);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
    EXPECT_LE(payload.size(), 16u);
  }
  // A peer that sends nothing at all also times out rather than blocking.
  SocketPair quiet;
  ASSERT_GE(quiet.reader, 0);
  std::string payload;
  EXPECT_EQ(mm::frame::read_frame(quiet.reader, 16, &payload), -1);
}
