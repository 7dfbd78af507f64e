#pragma once
// The individual "tools" of the maestro implementation flow. Each tool takes
// the evolving DesignState plus a knob setting, runs a real algorithm from
// the substrate libraries, emits a ToolLog, and reports a modeled wall-clock
// runtime. Tool results are seed-dependent — by design. Figure 3 of the
// paper shows that commercial SP&R noise is Gaussian and grows as the target
// frequency approaches the achievable maximum; the same behaviour emerges
// here from seeded annealing, sizing threshold effects, and explicit
// measurement-grade noise on modeled quantities.

#include <functional>
#include <memory>
#include <string>

#include "exec/cancel.hpp"
#include "flow/knobs.hpp"
#include "netlist/generators.hpp"
#include "place/placer.hpp"
#include "power/ir_drop.hpp"
#include "power/power.hpp"
#include "route/drv_sim.hpp"
#include "route/global_router.hpp"
#include "timing/sta.hpp"
#include "util/log.hpp"

namespace maestro::flow {

/// What the flow starts from — the "RTL hand-off".
struct DesignSpec {
  enum class Kind { RandomLogic, CpuLike, Rent };
  Kind kind = Kind::CpuLike;
  std::size_t scale = 1;         ///< CpuLike: ~2500*scale gates; others ~1000*scale
  std::size_t gates_override = 0;  ///< RandomLogic only: exact gate count if > 0
  std::uint64_t rtl_seed = 1;
  std::string name = "design";
};

/// The evolving design database. Substrate objects hold cross-pointers, so
/// the state is movable but not copyable.
struct DesignState {
  const netlist::CellLibrary* lib = nullptr;
  std::unique_ptr<netlist::Netlist> nl;
  std::unique_ptr<place::Floorplan> fp;
  std::unique_ptr<place::Placement> pl;
  /// Shared SoA substrate over `nl`: built by run_place, then reused by the
  /// placer (incremental SA), router and signoff timing build. Revision
  /// counters keep it honest across later mutations.
  std::unique_ptr<netlist::DesignView> view;
  timing::ClockTree clock;
  route::GridGraph routed;
  route::RouteResult groute;
  route::DrvRun droute;
  timing::StaReport signoff;
  power::PowerReport pwr;
  power::IrDropReport ir;
};

/// Per-step invocation context.
struct ToolContext {
  double target_ghz = 1.0;
  KnobSetting knobs;
  std::uint64_t seed = 1;
  /// Route-step only: called after each detailed-route iteration with
  /// (iteration, drvs, delta); returning false terminates the run early —
  /// the hook the DoomedRunGuard plugs into (Section 3.3).
  std::function<bool(int, double, double)> route_monitor;
  /// Cooperative cancellation: iteration loops poll this and bail out, so a
  /// run judged doomed releases its license mid-route.
  exec::CancelToken cancel;
};

/// What every tool returns.
struct StepOutcome {
  bool ok = true;
  std::string error;
  double runtime_min = 0.0;   ///< modeled wall-clock minutes
  util::ToolLog log;
};

StepOutcome run_synthesis(DesignState& ds, const DesignSpec& spec, const ToolContext& ctx);
StepOutcome run_floorplan(DesignState& ds, const ToolContext& ctx);
StepOutcome run_place(DesignState& ds, const ToolContext& ctx);
StepOutcome run_cts(DesignState& ds, const ToolContext& ctx);
StepOutcome run_route(DesignState& ds, const ToolContext& ctx);
StepOutcome run_signoff(DesignState& ds, const ToolContext& ctx);

/// The global-route options run_route uses for a floorplan and route-step
/// knobs: grid size, rounds and history weight from the knobs, and track
/// capacities that scale with the GCell pitch.
route::RouteOptions route_options(const place::Floorplan& fp, const KnobSetting& knobs);

/// Wireload-model STA used inside synthesis (no placement yet): arrival-time
/// estimate with load = pin caps scaled by a wireload factor. Returns the
/// worst arrival (critical path delay) in ps and per-instance arrivals.
struct WireloadTiming {
  double critical_path_ps = 0.0;
  std::vector<double> arrival_ps;  ///< per instance output arrival
};
WireloadTiming wireload_timing(const netlist::Netlist& nl, double wireload_factor,
                               double clk_to_q_margin_ps = 0.0);

}  // namespace maestro::flow
