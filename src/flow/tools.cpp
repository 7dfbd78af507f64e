#include "flow/tools.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "obs/registry.hpp"

#include "obs/trace.hpp"
#include "resil/fault.hpp"
#include "route/detail_router.hpp"
#include "timing/timing_graph.hpp"
#include "util/rng.hpp"

namespace maestro::flow {

using netlist::CellFunction;
using netlist::InstanceId;
using netlist::NetId;
using util::Rng;

namespace {

double knob_double(const KnobSetting& knobs, const std::string& name, double fallback) {
  const auto it = knobs.find(name);
  if (it == knobs.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

std::string knob_string(const KnobSetting& knobs, const std::string& name,
                        const std::string& fallback) {
  const auto it = knobs.find(name);
  return it != knobs.end() ? it->second : fallback;
}

/// Modeled tool runtime: base minutes scaled by design size and effort, with
/// lognormal run-to-run variation (license queues, machine load).
double model_runtime(double base_min, double cells, double effort_factor, Rng& rng) {
  return base_min * std::pow(cells / 1000.0, 1.1) * effort_factor *
         std::exp(rng.gauss(0.0, 0.08));
}

/// Consult the global fault plan for this tool invocation (pure in
/// (plan, tool, seed), so replays are exact). Crash and license-drop throw;
/// a hang stalls cooperatively and fails the step only if cancellation
/// lands during the stall; corrupt-result sets `corrupt` and lets the step
/// run, leaving each tool to garble its own outputs.
std::optional<StepOutcome> consult_faults(const char* tool, const ToolContext& ctx,
                                          bool& corrupt) {
  switch (resil::FaultInjector::decide(tool, ctx.seed)) {
    case resil::FaultKind::Crash:
      obs::Registry::global().counter("resil.fault_crash").add();
      throw resil::InjectedCrash{tool};
    case resil::FaultKind::LicenseDrop:
      obs::Registry::global().counter("resil.fault_license_drop").add();
      throw resil::LicenseDropped{tool};
    case resil::FaultKind::Hang: {
      obs::Registry::global().counter("resil.fault_hang").add();
      const auto plan = resil::FaultInjector::plan();
      const double ms = plan ? plan->hang_ms() : 25.0;
      if (resil::injected_hang([&ctx] { return ctx.cancel.cancelled(); }, ms)) {
        StepOutcome out;
        out.ok = false;
        out.error = std::string("fault:hang cancelled in ") + tool;
        out.log.tool = tool;
        out.log.seed = ctx.seed;
        return out;
      }
      break;  // hang resolved quietly: the run proceeds, just late
    }
    case resil::FaultKind::CorruptResult:
      obs::Registry::global().counter("resil.fault_corrupt").add();
      corrupt = true;
      break;
    default:
      break;
  }
  return std::nullopt;
}

}  // namespace

WireloadTiming wireload_timing(const netlist::Netlist& nl, double wireload_factor,
                               double clk_to_q_margin_ps) {
  // Thin wrapper over the levelized kernel's wireload mode; results are
  // bit-identical to the original per-call sweep. Loops that re-time after
  // local edits (sizing, TILOS trials) should hold a TimingGraph and use
  // wireload_repropagate() instead.
  timing::TimingGraph graph(nl);
  WireloadTiming wt;
  wt.critical_path_ps = graph.wireload_propagate(wireload_factor, clk_to_q_margin_ps);
  wt.arrival_ps = graph.wireload_arrivals();
  return wt;
}

StepOutcome run_synthesis(DesignState& ds, const DesignSpec& spec, const ToolContext& ctx) {
  assert(ds.lib != nullptr);
  StepOutcome out;
  out.log.tool = "synthesis";
  out.log.design = spec.name;
  out.log.seed = ctx.seed;
  bool corrupt = false;
  if (auto faulted = consult_faults("synthesis", ctx, corrupt)) return *faulted;
  Rng rng{ctx.seed ^ 0x51f7a3c9u};

  // Elaborate the "RTL".
  switch (spec.kind) {
    case DesignSpec::Kind::RandomLogic: {
      netlist::RandomLogicSpec rl;
      rl.gates = spec.gates_override > 0 ? spec.gates_override : spec.scale * 1000;
      rl.seed = spec.rtl_seed;
      ds.nl = std::make_unique<netlist::Netlist>(netlist::make_random_logic(*ds.lib, rl));
      break;
    }
    case DesignSpec::Kind::CpuLike: {
      netlist::CpuLikeSpec cs;
      cs.scale = spec.scale;
      cs.seed = spec.rtl_seed;
      ds.nl = std::make_unique<netlist::Netlist>(netlist::make_cpu_like(*ds.lib, cs));
      break;
    }
    case DesignSpec::Kind::Rent: {
      netlist::RentSpec rs;
      rs.seed = spec.rtl_seed;
      rs.levels = 3 + spec.scale / 2;
      ds.nl = std::make_unique<netlist::Netlist>(netlist::make_rent_netlist(*ds.lib, rs));
      break;
    }
  }
  ds.nl->set_name(spec.name);
  netlist::Netlist& nl = *ds.nl;

  const double wl_factor = [&] {
    const std::string wl = knob_string(ctx.knobs, "wireload", "balanced");
    if (wl == "optimistic") return 1.15;
    if (wl == "pessimistic") return 1.8;
    return 1.4;
  }();
  const auto max_fanout = static_cast<std::size_t>(knob_double(ctx.knobs, "max_fanout", 16));
  const int sizing_iters = static_cast<int>(knob_double(ctx.knobs, "sizing_iterations", 4));
  const std::string effort = knob_string(ctx.knobs, "effort", "medium");
  const double effort_factor = effort == "high" ? 1.6 : (effort == "low" ? 0.7 : 1.0);

  // Fanout buffering: split nets whose sink count exceeds max_fanout.
  std::size_t buffers_added = 0;
  const std::size_t buf_master = ds.lib->find(CellFunction::Buf, 4).value_or(
      ds.lib->smallest(CellFunction::Buf));
  const std::size_t orig_nets = nl.net_count();
  for (std::size_t n = 0; n < orig_nets; ++n) {
    const auto id = static_cast<NetId>(n);
    while (nl.net(id).sinks.size() > max_fanout) {
      // Move a chunk of sinks onto a new buffer.
      const InstanceId buf =
          nl.add_instance("fbuf" + std::to_string(buffers_added), buf_master);
      const NetId buf_net = nl.add_net("nfbuf" + std::to_string(buffers_added), buf);
      ++buffers_added;
      // Copy out the tail sinks (reconnect mutates the vector).
      std::vector<netlist::Sink> tail(nl.net(id).sinks.end() -
                                          static_cast<std::ptrdiff_t>(std::min(
                                              max_fanout, nl.net(id).sinks.size() - 1)),
                                      nl.net(id).sinks.end());
      for (const auto& s : tail) nl.reconnect(buf_net, s.instance, s.pin);
      nl.connect(id, buf, 0);
    }
  }

  // Timing-driven sizing toward the target period. The wireload estimate is
  // systematically optimistic versus post-P&R signoff (no clock insertion,
  // no I/O delays, no real wires), so the tool sizes against a calibrated
  // P&R-margin inflation of its own estimate — mirroring how production
  // synthesis applies derates to anticipate downstream steps.
  constexpr double kPnrMarginFactor = 1.72;
  constexpr double kPnrMarginOffsetPs = 30.0;
  const double period_ps = 1000.0 / std::max(ctx.target_ghz, 1e-3);
  double achieved_ps = 0.0;
  int iters_used = 0;
  // One timing graph for the whole sizing loop: the netlist structure is
  // fixed here (buffering happened above), so each iteration re-propagates
  // only the forward cone of the instances the previous iteration resized.
  timing::TimingGraph tg(nl);
  std::vector<InstanceId> resized;
  for (int it = 0; it < sizing_iters; ++it) {
    achieved_ps = it == 0 ? tg.wireload_propagate(wl_factor)
                          : tg.wireload_repropagate(resized, wl_factor);
    resized.clear();
    const std::vector<double>& arrival_ps = tg.wireload_arrivals();
    util::LogIteration li;
    li.iteration = it;
    li.values["critical_path_ps"] = achieved_ps;
    li.values["area_um2"] = nl.total_area_um2();
    out.log.iterations.push_back(li);
    ++iters_used;
    if (achieved_ps * kPnrMarginFactor + kPnrMarginOffsetPs <= period_ps) break;

    // Upsize instances whose output arrival is near-critical. The estimate
    // the tool acts on is noisy — the deliberate source of the Fig. 3
    // threshold chaos: which gates cross the criticality cut varies by seed.
    const double cut = achieved_ps * (0.80 + rng.uniform(0.0, 0.05) -
                                      0.06 * effort_factor * rng.uniform(0.0, 1.0));
    for (std::size_t i = 0; i < nl.instance_count(); ++i) {
      const auto id = static_cast<InstanceId>(i);
      const auto& m = nl.master_of(id);
      if (m.function == CellFunction::Input || m.function == CellFunction::Output) continue;
      const double noisy_arrival = arrival_ps[i] * (1.0 + rng.gauss(0.0, 0.02));
      if (noisy_arrival < cut) continue;
      const auto variants = ds.lib->variants(m.function);
      // Find current variant position; upsize one step if possible.
      for (std::size_t v = 0; v + 1 < variants.size(); ++v) {
        if (ds.lib->master(variants[v]).drive == m.drive) {
          if (rng.chance(0.85)) {
            nl.resize_instance(id, variants[v + 1]);
            resized.push_back(id);
          }
          break;
        }
      }
    }
  }

  out.log.metadata["gates"] = std::to_string(nl.instance_count());
  out.log.metadata["buffers_added"] = std::to_string(buffers_added);
  out.log.metadata["achieved_ps"] = std::to_string(achieved_ps);
  out.log.metadata["target_ps"] = std::to_string(period_ps);
  out.log.completed = true;
  out.runtime_min = model_runtime(3.0, static_cast<double>(nl.instance_count()),
                                  effort_factor * (1.0 + 0.15 * iters_used), rng);
  if (corrupt) {
    out.ok = false;
    out.error = "fault:corrupt_result in synthesis";
    out.log.metadata["fault"] = "corrupt_result";
  }
  return out;
}

StepOutcome run_floorplan(DesignState& ds, const ToolContext& ctx) {
  StepOutcome out;
  out.log.tool = "floorplan";
  out.log.design = ds.nl ? ds.nl->name() : "?";
  out.log.seed = ctx.seed;
  if (!ds.nl) {
    out.ok = false;
    out.error = "floorplan requires a synthesized netlist";
    return out;
  }
  bool corrupt = false;
  if (auto faulted = consult_faults("floorplan", ctx, corrupt)) return *faulted;
  Rng rng{ctx.seed ^ 0x9a3cf01bu};
  const double util = std::clamp(knob_double(ctx.knobs, "utilization", 0.70), 0.3, 0.95);
  const double aspect = std::clamp(knob_double(ctx.knobs, "aspect", 1.0), 0.3, 3.0);
  ds.fp = std::make_unique<place::Floorplan>(
      place::Floorplan::for_netlist(*ds.nl, util, aspect));
  out.log.metadata["utilization"] = std::to_string(util);
  out.log.metadata["core_w_dbu"] = std::to_string(ds.fp->core().width());
  out.log.metadata["core_h_dbu"] = std::to_string(ds.fp->core().height());
  out.log.completed = true;
  out.runtime_min = model_runtime(0.5, static_cast<double>(ds.nl->instance_count()), 1.0, rng);
  if (corrupt) {
    out.ok = false;
    out.error = "fault:corrupt_result in floorplan";
    out.log.metadata["fault"] = "corrupt_result";
  }
  return out;
}

StepOutcome run_place(DesignState& ds, const ToolContext& ctx) {
  StepOutcome out;
  out.log.tool = "place";
  out.log.design = ds.nl ? ds.nl->name() : "?";
  out.log.seed = ctx.seed;
  if (!ds.nl || !ds.fp) {
    out.ok = false;
    out.error = "place requires netlist and floorplan";
    return out;
  }
  bool corrupt = false;
  if (auto faulted = consult_faults("place", ctx, corrupt)) return *faulted;
  Rng rng{ctx.seed ^ 0x3e2d11c7u};
  const std::string effort = knob_string(ctx.knobs, "effort", "medium");
  place::AnnealOptions ao;
  ao.moves_per_cell = knob_double(ctx.knobs, "moves_per_cell", 40.0);
  if (effort == "low") ao.moves_per_cell *= 0.5;
  if (effort == "high") ao.moves_per_cell *= 2.0;
  ao.swap_fraction = knob_double(ctx.knobs, "swap_fraction", 0.35);

  ds.pl = std::make_unique<place::Placement>(place::random_placement(*ds.nl, *ds.fp, rng));
  // One DesignView per netlist, shared with the router and signoff timing;
  // sa_place is bit-identical to the seed annealer on the same RNG stream.
  if (!ds.view || &ds.view->netlist() != ds.nl.get()) {
    ds.view = std::make_unique<netlist::DesignView>(*ds.nl);
  }
  const auto ar = place::sa_place(*ds.pl, *ds.view, ao, rng);
  place::legalize(*ds.pl);

  out.log.metadata["initial_hpwl"] = std::to_string(ar.initial_hpwl);
  out.log.metadata["final_hpwl"] = std::to_string(ds.pl->total_hpwl());
  out.log.metadata["moves"] = std::to_string(ar.moves_attempted);
  out.log.completed = true;
  const double effort_factor = effort == "high" ? 2.0 : (effort == "low" ? 0.6 : 1.0);
  out.runtime_min =
      model_runtime(8.0, static_cast<double>(ds.nl->instance_count()), effort_factor, rng);
  if (corrupt) {
    out.ok = false;
    out.error = "fault:corrupt_result in place";
    out.log.metadata["fault"] = "corrupt_result";
  }
  return out;
}

StepOutcome run_cts(DesignState& ds, const ToolContext& ctx) {
  StepOutcome out;
  out.log.tool = "cts";
  out.log.design = ds.nl ? ds.nl->name() : "?";
  out.log.seed = ctx.seed;
  if (!ds.pl) {
    out.ok = false;
    out.error = "cts requires placement";
    return out;
  }
  bool corrupt = false;
  if (auto faulted = consult_faults("cts", ctx, corrupt)) return *faulted;
  Rng rng{ctx.seed ^ 0x77aa10f3u};
  timing::ClockTreeOptions co;
  co.leaf_fanout = static_cast<std::size_t>(knob_double(ctx.knobs, "leaf_fanout", 16));
  co.buffer_delay_ps = knob_double(ctx.knobs, "buffer_delay", 18.0);
  ds.clock = timing::build_clock_tree(*ds.pl, co, rng);
  out.log.metadata["skew_ps"] = std::to_string(ds.clock.skew_ps());
  out.log.metadata["buffers"] = std::to_string(ds.clock.buffers);
  out.log.completed = true;
  out.runtime_min = model_runtime(2.0, static_cast<double>(ds.nl->instance_count()), 1.0, rng);
  if (corrupt) {
    out.ok = false;
    out.error = "fault:corrupt_result in cts";
    out.log.metadata["fault"] = "corrupt_result";
  }
  return out;
}

route::RouteOptions route_options(const place::Floorplan& fp, const KnobSetting& knobs) {
  route::RouteOptions ro;
  const auto gcells = static_cast<std::size_t>(knob_double(knobs, "gcells", 32));
  ro.gcells_x = ro.gcells_y = gcells;
  ro.max_rounds = static_cast<int>(knob_double(knobs, "rounds", 8));
  ro.history_cost_weight = knob_double(knobs, "history_weight", 0.4);
  // Track capacity is physical: tracks per GCell edge scale with the GCell
  // pitch (wider cells of the same grid have more routing tracks).
  const double gcell_w_um =
      static_cast<double>(fp.core().width()) / static_cast<double>(gcells) / 1000.0;
  const double gcell_h_um =
      static_cast<double>(fp.core().height()) / static_cast<double>(gcells) / 1000.0;
  const double tracks_per_um = knob_double(knobs, "tracks_per_um", 20.0);
  ro.h_capacity = tracks_per_um * gcell_h_um;  // horizontal wires cross row height
  ro.v_capacity = tracks_per_um * gcell_w_um * 0.85;
  return ro;
}

StepOutcome run_route(DesignState& ds, const ToolContext& ctx) {
  StepOutcome out;
  out.log.tool = "route";
  out.log.design = ds.nl ? ds.nl->name() : "?";
  out.log.seed = ctx.seed;
  if (!ds.pl) {
    out.ok = false;
    out.error = "route requires placement";
    return out;
  }
  bool corrupt = false;
  if (auto faulted = consult_faults("route", ctx, corrupt)) return *faulted;
  Rng rng{ctx.seed ^ 0xc4d5e6f7u};

  route::RouteOptions ro = route_options(*ds.fp, ctx.knobs);
  const std::string engine = knob_string(ctx.knobs, "detail_engine", "model");
  ro.keep_segments = engine == "track";
  {
    obs::Span gr_span("global_route", "route");
    ds.groute = ds.view ? route::global_route(*ds.pl, *ds.view, ro, ds.routed)
                        : route::global_route(*ds.pl, ro, ds.routed);
    gr_span.arg("overflow", ds.groute.total_overflow)
        .arg("wirelength_gcells", ds.groute.wirelength_gcells);
  }

  const int detail_iterations =
      static_cast<int>(knob_double(ctx.knobs, "detail_iterations", 20));
  const route::RouteDifficulty diff = route::difficulty_from_congestion(ds.groute);
  obs::Span dr_span("detail_route", "route");
  dr_span.arg("engine", engine).arg("difficulty", diff.value);
  if (engine == "track") {
    // Real track-assignment detailed routing on the global-route segments.
    route::DetailRouteOptions dro;
    dro.max_iterations = detail_iterations;
    auto segments = std::move(ds.groute.segments);
    const auto dr = route::detail_route(*ds.pl, ds.routed, segments, dro, rng);
    ds.droute = route::DrvRun{};
    ds.droute.drvs = dr.drvs_per_iteration;
    ds.droute.succeeded = dr.succeeded;
    ds.droute.difficulty = diff.value;
    ds.droute.log = dr.log;
    ds.droute.log.seed = ctx.seed;
  } else {
    // Statistical DRV-convergence model, difficulty from congestion.
    route::DrvSimOptions dso;
    dso.iterations = detail_iterations;
    dso.seed = ctx.seed ^ 0x1122334455667788u;
    // Scale initial DRVs with design size.
    dso.initial_drv_scale = 2000.0 + 1.2 * static_cast<double>(ds.nl->instance_count());
    Rng droute_rng{dso.seed};
    ds.droute = route::simulate_drv_run(diff, dso, droute_rng);
  }
  ds.droute.log.design = out.log.design;

  // Early-termination hooks (DoomedRunGuard monitor and cooperative
  // cancellation): a STOP verdict or a cancelled token truncates the
  // iteration series, so a doomed run gives its license back mid-route.
  int iterations_run = static_cast<int>(ds.droute.drvs.size());
  if (ctx.route_monitor || ctx.cancel.cancelled()) {
    double prev = ds.droute.drvs.empty() ? 0.0 : ds.droute.drvs.front();
    for (int t = 0; t < static_cast<int>(ds.droute.drvs.size()); ++t) {
      const double drvs = ds.droute.drvs[static_cast<std::size_t>(t)];
      const double delta = t == 0 ? 0.0 : drvs - prev;
      prev = drvs;
      const bool guard_stop = ctx.route_monitor && !ctx.route_monitor(t, drvs, delta);
      if (guard_stop || ctx.cancel.cancelled()) {
        iterations_run = t + 1;
        ds.droute.drvs.resize(static_cast<std::size_t>(iterations_run));
        ds.droute.log.iterations.resize(static_cast<std::size_t>(iterations_run));
        ds.droute.log.completed = false;
        ds.droute.succeeded =
            ds.droute.drvs.back() < route::DrvSimOptions{}.success_threshold;
        break;
      }
    }
  }

  dr_span.arg("final_drvs", ds.droute.drvs.empty() ? 0.0 : ds.droute.drvs.back())
      .arg("iterations", static_cast<double>(iterations_run));

  if (corrupt) {
    // Corrupted route database: DRV count explodes and the run reads as
    // unconverged, deterministically.
    if (!ds.droute.drvs.empty()) ds.droute.drvs.back() += 1e6;
    ds.droute.succeeded = false;
    ds.droute.log.metadata["fault"] = "corrupt_result";
  }
  out.log = ds.droute.log;
  out.log.tool = "route";
  out.log.metadata["groute_overflow"] = std::to_string(ds.groute.total_overflow);
  out.log.metadata["groute_wirelength"] = std::to_string(ds.groute.wirelength_gcells);
  out.log.metadata["difficulty"] = std::to_string(diff.value);
  out.ok = true;
  // Detailed routing dominates runtime; each iteration is expensive.
  out.runtime_min = model_runtime(2.5, static_cast<double>(ds.nl->instance_count()),
                                  static_cast<double>(iterations_run), rng);
  return out;
}

StepOutcome run_signoff(DesignState& ds, const ToolContext& ctx) {
  StepOutcome out;
  out.log.tool = "signoff";
  out.log.design = ds.nl ? ds.nl->name() : "?";
  out.log.seed = ctx.seed;
  if (!ds.pl) {
    out.ok = false;
    out.error = "signoff requires placement";
    return out;
  }
  bool corrupt = false;
  if (auto faulted = consult_faults("signoff", ctx, corrupt)) return *faulted;
  Rng rng{ctx.seed ^ 0x0badcafeu};
  timing::StaOptions so;
  so.mode = timing::AnalysisMode::PathBased;
  so.with_si = knob_string(ctx.knobs, "si_mode", "on") == "on";
  so.with_hold = knob_string(ctx.knobs, "hold", "on") == "on";
  so.clock_period_ps = 1000.0 / std::max(ctx.target_ghz, 1e-3);
  so.gba_derate = 1.0;  // PBA signoff applies the explicit derate knob instead
  const double derate = knob_double(ctx.knobs, "derate", 1.0);
  if (ds.view) {
    // Build the timing graph over the shared view's cached geometry
    // (bit-identical to run_sta; see TimingGraph::attach_view).
    ds.view->sync(ds.pl->locs(), ds.pl->revision());
    timing::TimingGraph graph(*ds.pl, ds.clock, ds.view.get());
    ds.signoff = graph.analyze(so, so.with_si ? &ds.routed : nullptr);
  } else {
    ds.signoff = timing::run_sta(*ds.pl, ds.clock, so,
                                 so.with_si ? &ds.routed : nullptr);
  }
  if (derate != 1.0) {
    // Apply a signoff derate: scale arrivals, recompute slacks.
    for (auto& ep : ds.signoff.endpoints) {
      ep.arrival_ps *= derate;
      ep.slack_ps = ep.required_ps - ep.arrival_ps;
    }
    double wns = 0.0;
    double tns = 0.0;
    std::size_t failing = 0;
    bool first = true;
    for (const auto& ep : ds.signoff.endpoints) {
      if (first || ep.slack_ps < wns) wns = ep.slack_ps;
      first = false;
      if (ep.slack_ps < 0.0) {
        tns += ep.slack_ps;
        ++failing;
      }
    }
    ds.signoff.wns_ps = wns;
    ds.signoff.tns_ps = tns;
    ds.signoff.failing_endpoints = failing;
  }
  ds.pwr = power::estimate_power(*ds.pl, ctx.target_ghz, power::PowerOptions{});
  ds.ir = power::analyze_ir_drop(*ds.pl, ds.pwr, power::IrDropOptions{});

  if (corrupt) {
    // Corrupted signoff database: timing reads as catastrophically violated
    // (a deterministic, *detectable* garbage value rather than a silent
    // near-miss), so downstream success checks fail the run.
    ds.signoff.wns_ps = -1e9;
    ds.signoff.tns_ps = -1e9;
    ds.signoff.failing_endpoints = ds.signoff.endpoints.size();
    out.log.metadata["fault"] = "corrupt_result";
  }
  out.log.metadata["wns_ps"] = std::to_string(ds.signoff.wns_ps);
  out.log.metadata["whs_ps"] = std::to_string(ds.signoff.whs_ps);
  out.log.metadata["tns_ps"] = std::to_string(ds.signoff.tns_ps);
  out.log.metadata["power_mw"] = std::to_string(ds.pwr.total_mw());
  out.log.metadata["ir_drop_v"] = std::to_string(ds.ir.worst_drop_v);
  out.log.completed = true;
  out.runtime_min = model_runtime(4.0, static_cast<double>(ds.nl->instance_count()),
                                  so.with_si ? 1.8 : 1.0, rng);
  return out;
}

}  // namespace maestro::flow
