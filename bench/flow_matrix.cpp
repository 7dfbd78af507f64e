// flow_matrix — route QoR and negotiation effort over the `flow` benchmark's
// flow matrix.
//
// Runs the six cases of perfbench's `flow` workload (cpu@1, rand@1..3,
// rent@1..2 at 0.6 GHz, default knobs, RTL seed = case index + 1) with the
// same tool seeds: for seed set s and pass k, case i runs with recipe seed
// mix_seed(mix_seed(s, k), 2i + 1), three passes per seed set like the
// workload's cycle. Seed sets 1-8 make the 144-flow matrix the routing
// changes are scored on. Flows run serially, so the global route counters
// read per flow are that flow's alone.
//
// The seed mixer is perfbench's own (perfbench/src/workload.hpp). The case
// table below mirrors kCases and make_recipes in
// perfbench/src/flow_workload.cpp and must be kept in step with them.
//
// Per case it prints:
//   * flows, how many finish under the 200-DRV bar, and how many succeed
//     (FlowResult::success());
//   * median final DRVs and median global-route overflow;
//   * negotiation rounds (Phase A counts as round 1), summed, and how many
//     routes the stall rule ended (RouteResult::stopped_early);
//   * Phase-B searches and sit-outs, summed: a round's victims are either
//     searched or sit the round out (route.ripup_segments counts victims,
//     route.sit_outs the sit-outs).
//
//   flow_matrix [--seeds FIRST-LAST]      (default --seeds 1-8)
//
// Exits nonzero only on a bad argument or a flow that did not complete.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "netlist/cell_library.hpp"
#include "obs/registry.hpp"
#include "workload.hpp"

using namespace maestro;

namespace {

struct Case {
  const char* name;
  flow::DesignSpec::Kind kind;
  std::size_t scale;
};

constexpr Case kCases[] = {
    {"cpu_s1", flow::DesignSpec::Kind::CpuLike, 1},
    {"rand_s1", flow::DesignSpec::Kind::RandomLogic, 1},
    {"rand_s2", flow::DesignSpec::Kind::RandomLogic, 2},
    {"rand_s3", flow::DesignSpec::Kind::RandomLogic, 3},
    {"rent_s1", flow::DesignSpec::Kind::Rent, 1},
    {"rent_s2", flow::DesignSpec::Kind::Rent, 2},
};
constexpr std::size_t kCaseCount = std::size(kCases);
/// Tool-seed passes per seed set: the workload's kToolSeeds.
constexpr std::uint64_t kPasses = 3;
/// A flow counts under the bar when it ends with fewer final DRVs.
constexpr double kDrvBar = 200.0;

using perfbench::mix_seed;

flow::FlowRecipe recipe_for(std::size_t i, std::uint64_t pass_seed) {
  flow::FlowRecipe r;
  r.design.kind = kCases[i].kind;
  r.design.scale = kCases[i].scale;
  r.design.rtl_seed = i + 1;
  r.design.name = kCases[i].name;
  r.target_ghz = 0.6;
  r.seed = mix_seed(pass_seed, 2 * i + 1);
  return r;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tally {
  std::vector<double> drvs;
  std::vector<double> overflow;
  std::size_t under_bar = 0;
  std::size_t success = 0;
  std::uint64_t rounds = 0;
  std::size_t stopped_early = 0;
  std::uint64_t searches = 0;
  std::uint64_t sit_outs = 0;

  void add(const Tally& o) {
    drvs.insert(drvs.end(), o.drvs.begin(), o.drvs.end());
    overflow.insert(overflow.end(), o.overflow.begin(), o.overflow.end());
    under_bar += o.under_bar;
    success += o.success;
    rounds += o.rounds;
    stopped_early += o.stopped_early;
    searches += o.searches;
    sit_outs += o.sit_outs;
  }
};

void print_row(const char* name, const Tally& t) {
  std::printf("%-8s %6zu %10zu %8zu %12.1f %12.1f %7llu %8zu %12llu %10llu\n", name,
              t.drvs.size(), t.under_bar, t.success, median(t.drvs), median(t.overflow),
              static_cast<unsigned long long>(t.rounds), t.stopped_early,
              static_cast<unsigned long long>(t.searches),
              static_cast<unsigned long long>(t.sit_outs));
}

bool parse_range(const std::string& s, std::uint64_t& first, std::uint64_t& last) {
  const auto dash = s.find('-');
  char* end = nullptr;
  first = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str()) return false;
  if (dash == std::string::npos) {
    last = first;
    return *end == '\0';
  }
  const char* rest = s.c_str() + dash + 1;
  last = std::strtoull(rest, &end, 10);
  return end != rest && *end == '\0' && first <= last;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t first = 1;
  std::uint64_t last = 8;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--seeds" && has_value && parse_range(argv[a + 1], first, last)) {
      ++a;
    } else {
      std::fprintf(stderr, "usage: %s [--seeds FIRST-LAST]\n", argv[0]);
      return 2;
    }
  }

  auto& reg = obs::Registry::global();
  obs::Counter& victims = reg.counter("route.ripup_segments");
  obs::Counter& sit_outs = reg.counter("route.sit_outs");
  const auto lib = netlist::make_default_library();
  const flow::FlowManager fm{lib};

  std::vector<Tally> per_case(kCaseCount);
  bool all_completed = true;
  for (std::uint64_t s = first; s <= last; ++s) {
    for (std::uint64_t k = 0; k < kPasses; ++k) {
      const std::uint64_t pass_seed = mix_seed(s, k);
      for (std::size_t i = 0; i < kCaseCount; ++i) {
        const std::uint64_t victims0 = victims.value();
        const std::uint64_t sit_outs0 = sit_outs.value();
        flow::DesignState state;
        const flow::FlowResult res =
            fm.run_keep_state(recipe_for(i, pass_seed), flow::FlowConstraints{}, state);
        if (!res.completed) {
          std::fprintf(stderr, "%s seed set %llu pass %llu did not complete (%s)\n",
                       kCases[i].name, static_cast<unsigned long long>(s),
                       static_cast<unsigned long long>(k), res.failed_step.c_str());
          all_completed = false;
          continue;
        }
        Tally& t = per_case[i];
        const std::uint64_t sat = sit_outs.value() - sit_outs0;
        t.drvs.push_back(res.final_drvs);
        t.overflow.push_back(state.groute.total_overflow);
        t.under_bar += res.final_drvs < kDrvBar ? 1 : 0;
        t.success += res.success() ? 1 : 0;
        t.rounds += static_cast<std::uint64_t>(state.groute.rounds_used);
        t.stopped_early += state.groute.stopped_early ? 1 : 0;
        t.searches += victims.value() - victims0 - sat;
        t.sit_outs += sat;
      }
    }
  }

  std::printf("flow matrix: seed sets %llu-%llu x %llu passes x %zu cases, 0.6 GHz, DRV bar %.0f\n",
              static_cast<unsigned long long>(first), static_cast<unsigned long long>(last),
              static_cast<unsigned long long>(kPasses), kCaseCount, kDrvBar);
  std::printf("%-8s %6s %10s %8s %12s %12s %7s %8s %12s %10s\n", "case", "flows", "under_bar",
              "success", "median_drvs", "median_ovfl", "rounds", "stopped", "b_searches",
              "sit_outs");
  Tally total;
  for (std::size_t i = 0; i < kCaseCount; ++i) {
    print_row(kCases[i].name, per_case[i]);
    total.add(per_case[i]);
  }
  print_row("all", total);
  return all_completed ? 0 : 1;
}
