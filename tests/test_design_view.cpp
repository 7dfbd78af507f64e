// Equivalence and invalidation suite for netlist::DesignView and its
// consumers (own binary, ctest label "view", TSan-able via
// -DMAESTRO_SANITIZE=thread):
//   * structural/geometry queries match the Netlist/Placement ground truth,
//   * cached bboxes and the running HPWL total survive randomized
//     move/swap/undo sequences through the trial/commit protocol,
//   * sa_place is bitwise identical to the seed annealer across seeds and
//     configs,
//   * the congestion, global-route and timing-graph view paths match their
//     pin-scanning equivalents,
//   * revision counters detect staleness and trigger exactly the right
//     rebuilds.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "netlist/design_view.hpp"
#include "netlist/generators.hpp"
#include "perf_place_reference.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "timing/clock_tree.hpp"
#include "timing/timing_graph.hpp"
#include "util/rng.hpp"

using namespace maestro;

namespace {

struct ViewFixture {
  const netlist::CellLibrary& lib;
  netlist::Netlist nl;
  place::Floorplan fp;
  place::Placement pl;

  explicit ViewFixture(std::size_t gates, std::uint64_t seed = 1)
      : lib(default_lib()),
        nl(make_nl(lib, gates, seed)),
        fp(place::Floorplan::for_netlist(nl, 0.7)),
        pl(make_pl(nl, fp, seed)) {}

  static const netlist::CellLibrary& default_lib() {
    static const netlist::CellLibrary l = netlist::make_default_library();
    return l;
  }
  static netlist::Netlist make_nl(const netlist::CellLibrary& l, std::size_t gates,
                                  std::uint64_t seed) {
    netlist::RandomLogicSpec spec;
    spec.gates = gates;
    spec.seed = seed;
    return netlist::make_random_logic(l, spec);
  }
  static place::Placement make_pl(const netlist::Netlist& nl, const place::Floorplan& fp,
                                  std::uint64_t seed) {
    util::Rng rng{seed};
    place::Placement pl = place::random_placement(nl, fp, rng);
    place::legalize(pl);
    return pl;
  }
};

/// A random snapped in-core origin (the SA move distribution at full range).
geom::Point random_origin(const place::Floorplan& fp, util::Rng& rng) {
  const auto& core = fp.core();
  geom::Point cand{
      core.lo.x + static_cast<geom::Dbu>(rng.below(static_cast<std::uint64_t>(core.width()))),
      core.lo.y + static_cast<geom::Dbu>(rng.below(static_cast<std::uint64_t>(core.height())))};
  return fp.snap(cand);
}

}  // namespace

TEST(DesignView, StructureAndGeometryMatchGroundTruth) {
  ViewFixture f{400};
  netlist::DesignView view{f.nl};
  EXPECT_FALSE(view.geometry_valid());
  EXPECT_TRUE(view.sync(f.pl.locs(), f.pl.revision()));
  EXPECT_TRUE(view.in_sync(f.nl.revision(), f.pl.revision()));
  // Second sync with unchanged revisions is a no-op.
  EXPECT_FALSE(view.sync(f.pl.locs(), f.pl.revision()));

  ASSERT_EQ(view.cell_count(), f.nl.instance_count());
  ASSERT_EQ(view.net_count(), f.nl.net_count());

  for (std::size_t n = 0; n < f.nl.net_count(); ++n) {
    const auto id = static_cast<netlist::NetId>(n);
    const auto& net = f.nl.net(id);
    const auto pins = view.pins_of(id);
    ASSERT_EQ(pins.size(), net.sinks.size() + 1);
    EXPECT_EQ(pins[0], net.driver);
    EXPECT_EQ(view.net_driver(id), net.driver);
    EXPECT_EQ(view.net_fanout(id), net.sinks.size());
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      EXPECT_EQ(pins[s + 1], net.sinks[s].instance);
    }
    EXPECT_EQ(view.net_hpwl(id), f.pl.net_hpwl(id));
  }
  for (std::size_t i = 0; i < f.nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    EXPECT_EQ(view.pin(id), f.pl.pin_of(id));
    // nets_of is dedup'd and ascending — the seed placer's contract.
    const auto nets = view.nets_of(id);
    for (std::size_t k = 1; k < nets.size(); ++k) EXPECT_LT(nets[k - 1], nets[k]);
  }
  EXPECT_EQ(view.total_hpwl(), f.pl.total_hpwl());
}

TEST(DesignView, TrialCommitSurvivesRandomMoveSwapUndo) {
  ViewFixture f{300, 5};
  netlist::DesignView view{f.nl};
  view.sync(f.pl.locs(), f.pl.revision());

  std::vector<netlist::InstanceId> movable;
  for (std::size_t i = 0; i < f.nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto fn = f.nl.master_of(id).function;
    if (fn != netlist::CellFunction::Input && fn != netlist::CellFunction::Output) {
      movable.push_back(id);
    }
  }

  util::Rng rng{99};
  const std::int64_t start_hpwl = view.total_hpwl();
  for (int op = 0; op < 1500; ++op) {
    const double kind = rng.uniform();
    if (kind < 0.4) {  // move, commit
      const auto a = movable[rng.below(movable.size())];
      const geom::Point target = random_origin(f.fp, rng);
      const geom::Point orig = f.pl.loc(a);
      const std::int64_t before = f.pl.total_hpwl();
      const std::int64_t delta = view.trial_move(a, target);
      f.pl.set_loc(a, target);
      view.commit(f.pl.revision());
      EXPECT_EQ(f.pl.total_hpwl(), before + delta);
      if (kind < 0.1) {  // ...and undo it (the SA reject-after-apply shape)
        const std::int64_t back = view.trial_move(a, orig);
        EXPECT_EQ(back, -delta);
        f.pl.set_loc(a, orig);
        view.commit(f.pl.revision());
      }
    } else if (kind < 0.7) {  // swap, commit
      const auto a = movable[rng.below(movable.size())];
      const auto b = movable[rng.below(movable.size())];
      if (a == b) continue;
      const geom::Point pa = f.pl.loc(a);
      const geom::Point pb = f.pl.loc(b);
      const std::int64_t before = f.pl.total_hpwl();
      const std::int64_t delta = view.trial_swap(a, pb, b, pa);
      f.pl.set_loc(a, pb);
      f.pl.set_loc(b, pa);
      view.commit(f.pl.revision());
      EXPECT_EQ(f.pl.total_hpwl(), before + delta);
    } else {  // trial + discard must leave every cache untouched
      const auto a = movable[rng.below(movable.size())];
      const std::int64_t hpwl = view.total_hpwl();
      (void)view.trial_move(a, random_origin(f.fp, rng));
      view.discard();
      EXPECT_EQ(view.total_hpwl(), hpwl);
    }
    ASSERT_TRUE(view.in_sync(f.nl.revision(), f.pl.revision()));
    ASSERT_EQ(view.total_hpwl(), f.pl.total_hpwl());
    // Spot-check a few cached bboxes against a raw pin rescan.
    for (int k = 0; k < 3; ++k) {
      const auto n = static_cast<netlist::NetId>(rng.below(f.nl.net_count()));
      EXPECT_EQ(view.net_hpwl(n), f.pl.net_hpwl(n));
    }
  }
  EXPECT_NE(view.total_hpwl(), start_hpwl);  // the fuzz actually moved things
  // Both delta paths must have been exercised.
  EXPECT_GT(view.fastpath_nets(), 0u);
  EXPECT_GT(view.rescanned_nets(), 0u);
}

TEST(DesignView, CachedOriginSwapMatchesExplicitOriginSwap) {
  ViewFixture f{300, 5};
  netlist::DesignView view{f.nl};
  view.sync(f.pl.locs(), f.pl.revision());

  std::vector<netlist::InstanceId> movable;
  for (std::size_t i = 0; i < f.nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto fn = f.nl.master_of(id).function;
    if (fn != netlist::CellFunction::Input && fn != netlist::CellFunction::Output) {
      movable.push_back(id);
    }
  }

  util::Rng rng{321};
  for (int op = 0; op < 200; ++op) {
    const auto a = movable[rng.below(movable.size())];
    const auto b = movable[rng.below(movable.size())];
    if (a == b) continue;
    // The origin-free overload derives both targets from the cached pins.
    const std::int64_t via_cache = view.trial_swap(a, b);
    view.discard();
    const std::int64_t via_origins = view.trial_swap(a, f.pl.loc(b), b, f.pl.loc(a));
    EXPECT_EQ(via_cache, via_origins);
    if (op % 3 == 0) {  // commit some so the caches drift from the start state
      const geom::Point pa = f.pl.loc(a);
      const geom::Point pb = f.pl.loc(b);
      f.pl.set_loc(a, pb);
      f.pl.set_loc(b, pa);
      view.commit(f.pl.revision());
    } else {
      view.discard();
    }
    ASSERT_EQ(view.total_hpwl(), f.pl.total_hpwl());
  }
}

TEST(DesignView, SaPlaceBitwiseMatchesReferenceAcrossSeedsAndConfigs) {
  ViewFixture f{500};
  place::AnnealOptions fast;
  fast.moves_per_cell = 3.0;
  place::AnnealOptions swappy;
  swappy.moves_per_cell = 2.0;
  swappy.swap_fraction = 0.7;
  swappy.final_range_sites = 2.0;

  for (const auto& opt : {fast, swappy}) {
    for (const std::uint64_t seed : {3ull, 17ull, 101ull}) {
      util::Rng init{seed};
      place::Placement ref_pl = place::random_placement(f.nl, f.fp, init);
      place::Placement inc_pl = ref_pl;

      util::Rng ref_rng{seed * 7919};
      util::Rng inc_rng{seed * 7919};
      const auto ref = bench::anneal_placement_reference(ref_pl, opt, ref_rng);
      netlist::DesignView view{f.nl};
      const auto inc = place::sa_place(inc_pl, view, opt, inc_rng);

      EXPECT_EQ(ref.initial_hpwl, inc.initial_hpwl);
      EXPECT_EQ(ref.final_hpwl, inc.final_hpwl);
      EXPECT_EQ(ref.moves_attempted, inc.moves_attempted);
      EXPECT_EQ(ref.moves_accepted, inc.moves_accepted);
      for (std::size_t i = 0; i < f.nl.instance_count(); ++i) {
        const auto id = static_cast<netlist::InstanceId>(i);
        ASSERT_EQ(ref_pl.loc(id), inc_pl.loc(id)) << "cell " << i << " seed " << seed;
      }
      // The RNG streams must also end in the same state (same draw count).
      EXPECT_EQ(ref_rng.uniform(), inc_rng.uniform());
      // View left in sync, running total exact.
      EXPECT_TRUE(view.in_sync(f.nl.revision(), inc_pl.revision()));
      EXPECT_EQ(view.total_hpwl(), inc_pl.total_hpwl());
    }
  }
}

TEST(DesignView, AnnealPlacementWrapperMatchesReference) {
  ViewFixture f{300, 2};
  place::AnnealOptions opt;
  opt.moves_per_cell = 3.0;
  util::Rng i1{4};
  place::Placement a = place::random_placement(f.nl, f.fp, i1);
  place::Placement b = a;
  util::Rng r1{42};
  util::Rng r2{42};
  const auto ra = place::anneal_placement(a, opt, r1);
  const auto rb = bench::anneal_placement_reference(b, opt, r2);
  EXPECT_EQ(ra.final_hpwl, rb.final_hpwl);
  EXPECT_EQ(ra.moves_accepted, rb.moves_accepted);
  for (std::size_t i = 0; i < f.nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    ASSERT_EQ(a.loc(id), b.loc(id));
  }
}

TEST(DesignView, RevisionStalenessAndRebuildCounters) {
  ViewFixture f{200, 3};
  netlist::DesignView view{f.nl};
  view.sync(f.pl.locs(), f.pl.revision());
  const std::size_t sr = view.structure_rebuilds();
  const std::size_t gr = view.geometry_rebuilds();

  // Placement mutation: geometry-only staleness.
  f.pl.set_loc(static_cast<netlist::InstanceId>(0), f.pl.loc(static_cast<netlist::InstanceId>(0)));
  EXPECT_FALSE(view.in_sync(f.nl.revision(), f.pl.revision()));
  EXPECT_TRUE(view.sync(f.pl.locs(), f.pl.revision()));
  EXPECT_EQ(view.structure_rebuilds(), sr);
  EXPECT_EQ(view.geometry_rebuilds(), gr + 1);
  EXPECT_TRUE(view.in_sync(f.nl.revision(), f.pl.revision()));

  // Netlist mutation (gate resize): structural staleness, full rebuild.
  netlist::InstanceId victim = netlist::kNoInstance;
  std::size_t other = 0;
  for (std::size_t i = 0; i < f.nl.instance_count(); ++i) {
    const auto id = static_cast<netlist::InstanceId>(i);
    const auto fn = f.nl.master_of(id).function;
    if (fn == netlist::CellFunction::Input || fn == netlist::CellFunction::Output ||
        fn == netlist::CellFunction::Dff) {
      continue;
    }
    const auto vars = f.lib.variants(fn);
    if (vars.size() < 2) continue;
    victim = id;
    other = f.nl.instance(id).master == vars[0] ? vars[1] : vars[0];
    break;
  }
  ASSERT_NE(victim, netlist::kNoInstance);
  f.nl.resize_instance(victim, other);
  EXPECT_FALSE(view.in_sync(f.nl.revision(), f.pl.revision()));
  EXPECT_TRUE(view.sync(f.pl.locs(), f.pl.revision()));
  EXPECT_EQ(view.structure_rebuilds(), sr + 1);
  EXPECT_EQ(view.geometry_rebuilds(), gr + 2);
  EXPECT_TRUE(view.in_sync(f.nl.revision(), f.pl.revision()));
  EXPECT_EQ(view.total_hpwl(), f.pl.total_hpwl());
}

TEST(DesignView, CongestionViaViewMatchesPinScan) {
  ViewFixture f{400, 6};
  netlist::DesignView view{f.nl};
  const auto seed_map = place::estimate_congestion(f.pl, 16, 16);
  const auto view_map = place::estimate_congestion(f.pl, view, 16, 16);
  EXPECT_EQ(view_map.max_overflow, seed_map.max_overflow);
  EXPECT_EQ(view_map.total_overflow, seed_map.total_overflow);
  EXPECT_EQ(view_map.avg_utilization, seed_map.avg_utilization);
  EXPECT_EQ(view_map.overflow_fraction, seed_map.overflow_fraction);
  ASSERT_EQ(view_map.demand.cols(), seed_map.demand.cols());
  ASSERT_EQ(view_map.demand.rows(), seed_map.demand.rows());
  for (std::size_t r = 0; r < seed_map.demand.rows(); ++r) {
    for (std::size_t c = 0; c < seed_map.demand.cols(); ++c) {
      ASSERT_EQ(view_map.demand.at(c, r), seed_map.demand.at(c, r));
    }
  }
}

TEST(DesignView, GlobalRouteViaViewMatchesPinScan) {
  ViewFixture f{400, 7};
  netlist::DesignView view{f.nl};
  route::RouteOptions opt;
  opt.gcells_x = opt.gcells_y = 24;
  route::GridGraph g1;
  route::GridGraph g2;
  const auto seed_res = route::global_route(f.pl, opt, g1);
  const auto view_res = route::global_route(f.pl, view, opt, g2);
  EXPECT_EQ(view_res.wirelength_gcells, seed_res.wirelength_gcells);
  EXPECT_EQ(view_res.total_overflow, seed_res.total_overflow);
  EXPECT_EQ(view_res.overflowed_edges, seed_res.overflowed_edges);
  EXPECT_EQ(view_res.max_utilization, seed_res.max_utilization);
  EXPECT_EQ(view_res.rounds_used, seed_res.rounds_used);
  EXPECT_EQ(view_res.overflow_per_round, seed_res.overflow_per_round);
}

TEST(DesignView, TimingGraphViaViewMatchesDirect) {
  ViewFixture f{400, 8};
  util::Rng crng{9};
  const timing::ClockTree clock = timing::build_clock_tree(f.pl, timing::ClockTreeOptions{}, crng);
  netlist::DesignView view{f.nl};
  view.sync(f.pl.locs(), f.pl.revision());

  timing::StaOptions opt;
  opt.mode = timing::AnalysisMode::PathBased;
  timing::TimingGraph direct(f.pl, clock);
  timing::TimingGraph viewed(f.pl, clock, &view);
  const auto a = direct.analyze(opt);
  const auto b = viewed.analyze(opt);
  EXPECT_EQ(a.wns_ps, b.wns_ps);
  EXPECT_EQ(a.tns_ps, b.tns_ps);
  EXPECT_EQ(a.failing_endpoints, b.failing_endpoints);
  ASSERT_EQ(a.endpoints.size(), b.endpoints.size());
  for (std::size_t i = 0; i < a.endpoints.size(); ++i) {
    ASSERT_EQ(a.endpoints[i].slack_ps, b.endpoints[i].slack_ps);
  }

  // A stale view must not poison the graph: refresh falls back to the
  // placement and stays correct.
  const auto vic = static_cast<netlist::InstanceId>(f.nl.instance_count() / 2);
  f.pl.set_loc(vic, f.fp.snap({f.fp.core().lo.x, f.fp.core().lo.y}));
  timing::TimingGraph direct2(f.pl, clock);
  const auto a2 = direct2.analyze(opt);
  viewed.sync();
  const auto b2 = viewed.analyze(opt);
  EXPECT_EQ(a2.wns_ps, b2.wns_ps);
  EXPECT_EQ(a2.tns_ps, b2.tns_ps);
}
