#pragma once
// timing::TimingGraph — the reusable evaluation kernel under every STA query.
//
// Every orchestrator in this repo (MAB scheduling, GWTW/flow-tree search, the
// Fig. 8 accuracy-cost sweeps, hold ECO, gate sizing) bottoms out in
// thousands of timing queries, and the seed engine rebuilt topological order,
// net loads and per-node state on every call. TimingGraph is constructed
// once per netlist revision and amortizes that work across queries:
//
//  * Levelized structure-of-arrays storage — a flat level-major node order
//    with per-level ranges, CSR fanin/fanout adjacency, and flat per-node /
//    per-net / per-edge arrays (master delay parameters, pin positions, net
//    HPWL, per-sink Manhattan lengths). No per-call allocation or
//    topo_order() recomputation.
//  * Incremental re-propagation — reanalyze() takes a dirty set (resized or
//    moved instances; ECO-inserted cells after sync()) and re-propagates only
//    the affected forward cone, with bitwise early cut-off. Results are
//    bit-identical to a full propagation.
//
// run_sta() is a thin wrapper (construct + analyze) preserving the seed
// engine's signature and bit-identical reports; long-lived callers hold a
// TimingGraph and reuse it.
//
// Contracts:
//  * Structure (instances/nets/connectivity) changed => call sync() before
//    the next query. sync() rebuilds structure and derived caches but keeps
//    surviving per-node timing state, so the next reanalyze() is incremental.
//  * Non-structural changes (resize_instance, set_loc) => pass the touched
//    instance ids as the dirty set of reanalyze(); the graph refreshes the
//    derived caches (master parameters, pin, incident-net geometry/loads)
//    for exactly that closure.
//  * reanalyze() is valid relative to the last analyze()/reanalyze() with
//    equal StaOptions and the same routed-graph revision; on any mismatch it
//    transparently falls back to a full propagation.
//  * analysis_cost of a full report reproduces the seed engine's accounting;
//    incremental reports charge only the work actually redone.
//  * One corner per propagation: a corner sweep (ablation_missing_corner)
//    calls analyze() once per corner on the same graph, so the structure and
//    geometry caches are built once.

#include <cstdint>
#include <vector>

#include "timing/sta.hpp"

namespace maestro::timing {

class TimingGraph {
 public:
  /// Wireload mode: netlist only (synthesis-time sizing; no placement). Only
  /// the wireload_* queries are valid.
  explicit TimingGraph(const netlist::Netlist& nl);

  /// Placed mode: full STA over a placement and clock tree. An optional
  /// in_sync netlist::DesignView supplies cached pin positions / net HPWLs
  /// to the build (see attach_view); values are bit-identical either way.
  TimingGraph(const place::Placement& pl, const ClockTree& clock,
              const netlist::DesignView* view = nullptr);

  TimingGraph(const TimingGraph&) = delete;
  TimingGraph& operator=(const TimingGraph&) = delete;

  /// Rebuild structure and every derived cache from the bound netlist /
  /// placement / clock (after ECO transforms added instances or nets, or
  /// after bulk mutations outside the dirty-set protocol). Per-node timing
  /// state of surviving instances is preserved so a following reanalyze()
  /// re-propagates only the ECO cone.
  void sync();

  /// Full propagation; report is bit-identical to the seed run_sta engine.
  StaReport analyze(const StaOptions& opt, const route::GridGraph* routed = nullptr);

  /// Incremental re-propagation after the instances in `dirty` were resized
  /// or moved (or inserted, following sync()). Refreshes derived caches for
  /// the dirty closure, re-propagates the affected forward cone with bitwise
  /// early cut-off, and returns a report whose timing fields are
  /// bit-identical to a full analyze(); analysis_cost charges only the
  /// re-propagated work. Falls back to a full analyze() when no compatible
  /// cached propagation exists (different options or a different
  /// routed-graph revision).
  StaReport reanalyze(const std::vector<netlist::InstanceId>& dirty, const StaOptions& opt,
                      const route::GridGraph* routed = nullptr);

  // ---- wireload mode -------------------------------------------------------
  /// Full wireload propagation (bit-identical to flow::wireload_timing).
  /// Returns the critical path delay; per-node arrivals via
  /// wireload_arrivals().
  double wireload_propagate(double wireload_factor, double clk_to_q_margin_ps = 0.0);
  /// Incremental wireload re-propagation over the dirty instances' forward
  /// cone; bit-identical to a full wireload_propagate with the same factors.
  double wireload_repropagate(const std::vector<netlist::InstanceId>& dirty,
                              double wireload_factor, double clk_to_q_margin_ps = 0.0);
  const std::vector<double>& wireload_arrivals() const { return wl_arrival_; }
  double wireload_critical_path() const { return wl_critical_; }

  // ---- observability / introspection --------------------------------------
  /// Late (setup) arrival at an instance's output pin from the last
  /// propagation.
  double arrival_of(netlist::InstanceId id) const { return arr_[id]; }
  std::size_t node_count() const { return n_; }
  std::size_t level_count() const { return level_range_.empty() ? 0 : level_range_.size() - 1; }
  /// Nodes whose state was recomputed by the last reanalyze().
  std::size_t last_repropagated() const { return last_repropagated_; }

  /// Share a netlist::DesignView as the geometry source for build / refresh:
  /// whenever the view is in_sync with the bound netlist and placement
  /// revisions, pin positions and net HPWLs are read from its caches
  /// (bit-identical values) instead of being recomputed per pin via
  /// Placement::pin_of / net_hpwl; a stale or null view falls back to the
  /// direct path. The view must outlive this graph or be detached
  /// (attach_view(nullptr)) first. Placed mode only.
  void attach_view(const netlist::DesignView* view) { view_ = view; }

 private:
  void build();
  void refresh_instance(netlist::InstanceId id);
  void refresh_net(netlist::NetId id);
  void refresh_net_load(netlist::NetId id);
  void compute_net_loads();
  void ensure_state(bool hold);
  double si_of_edge(std::size_t e) const;
  void prepare_si(const StaOptions& opt, const route::GridGraph* routed);

  /// Recompute node u's state at the cached corner; returns true when any
  /// field changed bitwise. `cost` accrues the seed engine's per-node and
  /// per-edge charges.
  bool propagate_node(std::size_t u, double& cost);
  /// Re-time endpoint slot j from cached node state.
  void compute_endpoint(std::size_t j, double& cost);
  StaReport assemble_report() const;
  bool options_match(const StaOptions& opt, const route::GridGraph* routed) const;

  double wireload_node(std::size_t u, double factor, double margin) const;
  double wireload_critical() const;

  // Bound design state.
  const netlist::Netlist* nl_ = nullptr;
  const place::Placement* pl_ = nullptr;  ///< null in wireload mode
  const ClockTree* clock_ = nullptr;      ///< null in wireload mode
  const netlist::DesignView* view_ = nullptr;  ///< optional shared geometry

  // ---- structure (valid per netlist revision) ----
  std::size_t n_ = 0;
  std::size_t nets_n_ = 0;
  std::vector<netlist::InstanceId> order_;   ///< level-major node order
  std::vector<std::size_t> level_range_;     ///< level L = order_[range[L], range[L+1])
  std::vector<std::uint32_t> level_of_;
  std::vector<std::size_t> fanin_begin_;     ///< CSR over connected input pins
  std::vector<netlist::NetId> fanin_net_;
  std::vector<netlist::InstanceId> fanin_driver_;
  std::vector<netlist::InstanceId> fanin_sink_;
  std::vector<netlist::NetId> out_net_;
  std::vector<std::size_t> fanout_begin_;    ///< CSR: combinational sinks only
  std::vector<netlist::InstanceId> fanout_inst_;
  std::vector<std::size_t> net_edge_begin_;  ///< CSR: net -> its fanin-edge ids
  std::vector<std::size_t> net_edge_;

  // ---- per-instance derived caches ----
  std::vector<netlist::CellFunction> func_;
  std::vector<double> input_cap_;
  std::vector<double> intrinsic_;
  std::vector<double> drive_res_;
  std::vector<double> setup_;
  std::vector<double> hold_req_;
  std::vector<double> clk_to_q_;
  std::vector<double> insertion_;
  std::vector<geom::Point> pin_;

  // ---- per-net derived caches ----
  std::vector<netlist::InstanceId> net_driver_;
  std::vector<double> net_sink_cap_;   ///< sum of sink input caps, in sink order
  std::vector<double> net_hpwl_;       ///< dbu, as double (placed mode)
  std::vector<std::size_t> net_fanout_;  ///< sinks.size()
  std::vector<double> net_load_;       ///< per the cached analysis' wire model

  // ---- per-fanin-edge derived caches ----
  std::vector<double> edge_manh_;  ///< manhattan(driver pin, sink pin), dbu

  // ---- propagated state (cached across queries) ----
  bool cached_hold_ = false;
  bool cache_valid_ = false;
  StaOptions cached_opt_;
  const route::GridGraph* cached_routed_ = nullptr;
  std::uint64_t cached_routed_rev_ = 0;
  std::vector<double> arr_, wire_acc_, gate_acc_, early_;
  std::vector<std::size_t> stages_, fanout_acc_;

  // ---- endpoint cache ----
  std::vector<netlist::InstanceId> ep_ids_;  ///< ascending instance id
  std::vector<netlist::NetId> ep_net_;       ///< the endpoint's D/input net
  std::vector<EndpointTiming> ep_cache_;     ///< one row per ep_ids_ entry

  // ---- SI map cache ----
  SiMap si_;
  bool si_active_ = false;

  // ---- wireload state ----
  bool wl_valid_ = false;
  double wl_factor_ = 0.0;
  double wl_margin_ = 0.0;
  std::vector<double> wl_arrival_;
  double wl_critical_ = 0.0;
  std::vector<netlist::InstanceId> wl_ep_inst_;  ///< endpoint-id order
  std::vector<netlist::NetId> wl_ep_net_;

  // ---- incremental scratch ----
  std::vector<std::uint32_t> node_mark_;     ///< epoch stamps, per instance
  std::vector<std::uint32_t> node_changed_;  ///< stamped when state changed
  std::vector<std::uint32_t> net_mark_;
  std::uint32_t epoch_ = 0;
  std::vector<std::vector<netlist::InstanceId>> frontier_;  ///< per level
  std::size_t last_repropagated_ = 0;
};

}  // namespace maestro::timing
