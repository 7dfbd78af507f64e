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
// No external fuzzer is needed; runs are reproducible from the seed. Build
// with -DMAESTRO_SANITIZE=address,undefined to turn memory errors and UB
// into failures.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/record.hpp"
#include "store/run_store.hpp"
#include "store/wal_frame.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ms = maestro::store;
namespace mu = maestro::util;

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
