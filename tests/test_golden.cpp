// Golden behaviour digests (ctest label: golden).
//
// Pins WHAT the flow produces, not just that two runs in one binary agree:
// FNV-1a digests of the FlowResults FlowManager::run returns for cpu@1,
// rand@1, rent@1 and the congested rand@3 at 0.6 GHz with default knobs under
// two tool seeds, and of every global-route segment path of those designs,
// are compared against
// the committed file tests/golden/digests.json. A refactor that changes QoR
// or a single routed edge fails here.
//
// A deliberate behaviour change rewrites the file:
//
//   maestro_golden_tests --rebaseline
//
// and the diff of digests.json is then part of the reviewed change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "util/json.hpp"

namespace mf = maestro::flow;
namespace mr = maestro::route;
using maestro::util::Json;

namespace {

const char* const kDigestFile = MAESTRO_GOLDEN_DIR "/digests.json";

/// Incremental 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& add(std::uint64_t v) { return bytes(&v, sizeof v); }
  Fnv1a& add(double v) { return bytes(&v, sizeof v); }
  Fnv1a& add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    return bytes(s.data(), s.size());
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string digest_of(const mf::FlowResult& r) {
  Fnv1a d;
  d.add(static_cast<std::uint64_t>(r.completed) | static_cast<std::uint64_t>(r.timing_met) << 1 |
        static_cast<std::uint64_t>(r.drc_clean) << 2 |
        static_cast<std::uint64_t>(r.constraints_met) << 3);
  for (const double v : {r.area_um2, r.wns_ps, r.whs_ps, r.tns_ps, r.power_mw, r.final_drvs,
                         r.route_difficulty, r.hpwl_dbu, r.clock_skew_ps, r.ir_drop_v,
                         r.tat_minutes}) {
    d.add(v);
  }
  d.add(r.failed_step);
  for (const auto& log : r.logs) d.add(log.to_json().dump());
  return d.hex();
}

std::string digest_of(const std::vector<mr::RoutedSegment>& segments) {
  Fnv1a d;
  d.add(static_cast<std::uint64_t>(segments.size()));
  for (const auto& s : segments) {
    d.add(std::uint64_t{s.from.col} << 32 | s.from.row);
    d.add(std::uint64_t{s.to.col} << 32 | s.to.row);
    d.add(static_cast<std::uint64_t>(s.edges.size()));
    for (const std::size_t e : s.edges) d.add(static_cast<std::uint64_t>(e));
  }
  return d.hex();
}

struct Digests {
  std::map<std::string, std::string> flow;    ///< "<case>/seed<k>" -> FlowResult digest
  std::map<std::string, std::string> groute;  ///< "<case>/seed<k>" -> segment-path digest
  std::vector<std::string> problems;          ///< runs whose digests cannot be trusted
};

/// Runs the golden matrix. Every flow's global route is replayed with
/// keep_segments on the flow's final placement and the same options; the
/// replay must reproduce the flow's overflow series before its paths count.
Digests compute() {
  struct Case {
    const char* name;
    mf::DesignSpec::Kind kind;
    std::size_t scale;
    std::uint64_t rtl_seed;
  };
  // rand@3 (RTL seed 4, as in the flow benchmark's matrix) is the congested
  // case: its negotiation runs every round and builds up heavy history
  // costs, which the scale-1 designs never reach.
  constexpr Case kCases[] = {{"cpu_s1", mf::DesignSpec::Kind::CpuLike, 1, 1},
                             {"rand_s1", mf::DesignSpec::Kind::RandomLogic, 1, 1},
                             {"rent_s1", mf::DesignSpec::Kind::Rent, 1, 1},
                             {"rand_s3", mf::DesignSpec::Kind::RandomLogic, 3, 4}};
  static const auto lib = maestro::netlist::make_default_library();
  const mf::FlowManager fm{lib};
  Digests out;
  for (const Case& c : kCases) {
    for (const std::uint64_t seed : {1u, 2u}) {
      mf::FlowRecipe recipe;
      recipe.design.kind = c.kind;
      recipe.design.scale = c.scale;
      recipe.design.rtl_seed = c.rtl_seed;
      recipe.design.name = c.name;
      recipe.target_ghz = 0.6;
      recipe.seed = seed;
      mf::DesignState state;
      const mf::FlowResult res = fm.run_keep_state(recipe, mf::FlowConstraints{}, state);
      const std::string key = std::string(c.name) + "/seed" + std::to_string(seed);
      out.flow[key] = digest_of(res);

      if (!res.completed || !state.pl || !state.view) {
        out.problems.push_back(key + ": flow did not complete");
        continue;
      }
      mr::RouteOptions ro = mf::route_options(*state.fp, {});
      ro.keep_segments = true;
      mr::GridGraph g;
      const auto replay = mr::global_route(*state.pl, *state.view, ro, g);
      if (replay.overflow_per_round != state.groute.overflow_per_round ||
          replay.wirelength_gcells != state.groute.wirelength_gcells) {
        out.problems.push_back(key + ": route replay differs from the flow's route");
      }
      out.groute[key] = digest_of(replay.segments);
    }
  }
  return out;
}

const Digests& computed() {
  static const Digests d = compute();
  return d;
}

/// One digest per line, so a rebaseline reads as a per-case diff.
void write_section(std::ostream& os, const char* name,
                   const std::map<std::string, std::string>& m, bool last) {
  os << "  \"" << name << "\": {\n";
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    os << "    \"" << k << "\": \"" << v << "\"" << (++i < m.size() ? "," : "") << "\n";
  }
  os << "  }" << (last ? "" : ",") << "\n";
}

std::map<std::string, std::string> from_json(const Json& j) {
  std::map<std::string, std::string> m;
  for (const auto& [k, v] : j.as_object()) m[k] = v.as_string();
  return m;
}

Digests load() {
  std::ifstream in(kDigestFile);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto j = Json::parse(ss.str());
  if (!j) return {};
  Digests d;
  d.flow = from_json(j->at("flow"));
  d.groute = from_json(j->at("groute"));
  return d;
}

void expect_same(const std::map<std::string, std::string>& recorded,
                 const std::map<std::string, std::string>& now) {
  ASSERT_FALSE(recorded.empty()) << "no recorded digests in " << kDigestFile;
  EXPECT_EQ(recorded.size(), now.size());
  for (const auto& [key, digest] : recorded) {
    const auto it = now.find(key);
    ASSERT_NE(it, now.end()) << key << " was not computed";
    EXPECT_EQ(it->second, digest) << key << " drifted from the recorded digest";
  }
}

}  // namespace

TEST(Golden, FlowResultsMatchRecordedDigests) {
  EXPECT_TRUE(computed().problems.empty()) << computed().problems.front();
  expect_same(load().flow, computed().flow);
}

TEST(Golden, GlobalRoutePathsMatchRecordedDigests) {
  expect_same(load().groute, computed().groute);
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rebaseline") != 0) continue;
    const Digests& d = computed();
    if (!d.problems.empty()) {
      std::fprintf(stderr, "refusing to rebaseline: %s\n", d.problems.front().c_str());
      return 1;
    }
    std::ofstream os(kDigestFile);
    os << "{\n";
    write_section(os, "flow", d.flow, false);
    write_section(os, "groute", d.groute, true);
    os << "}\n";
    std::printf("rewrote %s (%zu flow, %zu groute digests)\n", kDigestFile, d.flow.size(),
                d.groute.size());
    return 0;
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
