#include "timing/timing_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace maestro::timing {

using netlist::CellFunction;
using netlist::InstanceId;
using netlist::NetId;

namespace {

constexpr std::size_t kNoEdge = std::numeric_limits<std::size_t>::max();

bool corner_equal(const Corner& a, const Corner& b) {
  return a.gate_factor == b.gate_factor && a.wire_factor == b.wire_factor &&
         a.setup_factor == b.setup_factor && a.name == b.name;
}

bool options_equal(const StaOptions& a, const StaOptions& b) {
  return a.mode == b.mode && a.with_si == b.with_si && corner_equal(a.corner, b.corner) &&
         a.clock_period_ps == b.clock_period_ps && a.gba_derate == b.gba_derate &&
         a.gba_early_derate == b.gba_early_derate && a.with_hold == b.with_hold &&
         a.si_coupling_factor == b.si_coupling_factor &&
         a.wire.cap_per_nm_ff == b.wire.cap_per_nm_ff &&
         a.wire.res_per_nm_kohm == b.wire.res_per_nm_kohm &&
         a.io_input_delay_ps == b.io_input_delay_ps &&
         a.io_output_margin_ps == b.io_output_margin_ps;
}

struct KernelCounters {
  obs::Counter& full_props;
  obs::Counter& incr_props;
  obs::Counter& nodes_repropagated;
};

KernelCounters& counters() {
  static KernelCounters c{obs::Registry::global().counter("timing.full_props"),
                          obs::Registry::global().counter("timing.incr_props"),
                          obs::Registry::global().counter("timing.nodes_repropagated")};
  return c;
}

}  // namespace

TimingGraph::TimingGraph(const netlist::Netlist& nl) : nl_(&nl) { build(); }

TimingGraph::TimingGraph(const place::Placement& pl, const ClockTree& clock,
                         const netlist::DesignView* view)
    : nl_(&pl.netlist()), pl_(&pl), clock_(&clock), view_(view) { build(); }

void TimingGraph::sync() { build(); }

// ---------------------------------------------------------------------------
// Structure
// ---------------------------------------------------------------------------

void TimingGraph::build() {
  obs::Span span("sta_build", "timing");
  const auto& nl = *nl_;
  n_ = nl.instance_count();
  nets_n_ = nl.net_count();

  // Levelize the combinational DAG: IOs and flops are level-0 sources, a
  // combinational node sits one past its deepest connected fanin. topo_order
  // guarantees drivers precede combinational sinks, so one pass suffices.
  // (An empty order on a cyclic netlist mirrors the seed engine: nothing
  // propagates, endpoints are still collected from zeroed state.)
  const auto topo = nl.topo_order();
  level_of_.assign(n_, 0);
  std::uint32_t max_level = 0;
  for (const InstanceId u : topo) {
    const CellFunction f = nl.master_of(u).function;
    if (f == CellFunction::Input || f == CellFunction::Dff || f == CellFunction::Output) {
      continue;  // level 0
    }
    std::uint32_t lvl = 0;
    for (const NetId in : nl.instance(u).input_nets) {
      if (in == netlist::kNoNet) continue;
      lvl = std::max(lvl, level_of_[nl.net(in).driver] + 1);
    }
    level_of_[u] = lvl;
    max_level = std::max(max_level, lvl);
  }
  level_range_.assign(static_cast<std::size_t>(max_level) + 2, 0);
  for (const InstanceId u : topo) ++level_range_[level_of_[u] + 1];
  for (std::size_t l = 1; l < level_range_.size(); ++l) level_range_[l] += level_range_[l - 1];
  order_.assign(topo.size(), 0);
  {
    std::vector<std::size_t> cursor(level_range_.begin(), level_range_.end() - 1);
    for (const InstanceId u : topo) order_[cursor[level_of_[u]]++] = u;
  }

  // Fanin CSR over connected input pins, preserving pin order (the seed's
  // worst-input tie break iterates pins in declaration order).
  fanin_begin_.assign(n_ + 1, 0);
  for (std::size_t u = 0; u < n_; ++u) {
    for (const NetId in : nl.instance(static_cast<InstanceId>(u)).input_nets) {
      if (in != netlist::kNoNet) ++fanin_begin_[u + 1];
    }
  }
  for (std::size_t u = 0; u < n_; ++u) fanin_begin_[u + 1] += fanin_begin_[u];
  const std::size_t edges = fanin_begin_[n_];
  fanin_net_.resize(edges);
  fanin_driver_.resize(edges);
  fanin_sink_.resize(edges);
  {
    std::size_t e = 0;
    for (std::size_t u = 0; u < n_; ++u) {
      for (const NetId in : nl.instance(static_cast<InstanceId>(u)).input_nets) {
        if (in == netlist::kNoNet) continue;
        fanin_net_[e] = in;
        fanin_driver_[e] = nl.net(in).driver;
        fanin_sink_[e] = static_cast<InstanceId>(u);
        ++e;
      }
    }
  }

  // Fanout CSR: combinational sinks of each instance's output net. Only
  // these carry node-state dependencies forward (flop/PO endpoints are
  // re-timed through the endpoint cache instead).
  out_net_.assign(n_, netlist::kNoNet);
  fanout_begin_.assign(n_ + 1, 0);
  for (std::size_t u = 0; u < n_; ++u) {
    const NetId out = nl.instance(static_cast<InstanceId>(u)).output_net;
    out_net_[u] = out;
    if (out == netlist::kNoNet) continue;
    for (const auto& s : nl.net(out).sinks) {
      const CellFunction f = nl.master_of(s.instance).function;
      if (f != CellFunction::Dff && f != CellFunction::Output && f != CellFunction::Input) {
        ++fanout_begin_[u + 1];
      }
    }
  }
  for (std::size_t u = 0; u < n_; ++u) fanout_begin_[u + 1] += fanout_begin_[u];
  fanout_inst_.resize(fanout_begin_[n_]);
  {
    std::vector<std::size_t> cursor(fanout_begin_.begin(), fanout_begin_.end() - 1);
    for (std::size_t u = 0; u < n_; ++u) {
      const NetId out = out_net_[u];
      if (out == netlist::kNoNet) continue;
      for (const auto& s : nl.net(out).sinks) {
        const CellFunction f = nl.master_of(s.instance).function;
        if (f != CellFunction::Dff && f != CellFunction::Output && f != CellFunction::Input) {
          fanout_inst_[cursor[u]++] = s.instance;
        }
      }
    }
  }

  // Net -> fanin-edge CSR, so a net refresh can re-derive the geometry of
  // exactly its edges.
  net_edge_begin_.assign(nets_n_ + 1, 0);
  for (std::size_t e = 0; e < edges; ++e) ++net_edge_begin_[fanin_net_[e] + 1];
  for (std::size_t ni = 0; ni < nets_n_; ++ni) net_edge_begin_[ni + 1] += net_edge_begin_[ni];
  net_edge_.resize(edges);
  {
    std::vector<std::size_t> cursor(net_edge_begin_.begin(), net_edge_begin_.end() - 1);
    for (std::size_t e = 0; e < edges; ++e) net_edge_[cursor[fanin_net_[e]]++] = e;
  }

  // Derived per-instance / per-net caches.
  func_.resize(n_);
  input_cap_.resize(n_);
  intrinsic_.resize(n_);
  drive_res_.resize(n_);
  setup_.resize(n_);
  hold_req_.resize(n_);
  clk_to_q_.resize(n_);
  insertion_.resize(n_);
  pin_.resize(n_);
  for (std::size_t u = 0; u < n_; ++u) refresh_instance(static_cast<InstanceId>(u));

  net_driver_.resize(nets_n_);
  net_sink_cap_.resize(nets_n_);
  net_hpwl_.resize(nets_n_);
  net_fanout_.resize(nets_n_);
  net_load_.resize(nets_n_);
  edge_manh_.resize(edges);
  for (std::size_t ni = 0; ni < nets_n_; ++ni) refresh_net(static_cast<NetId>(ni));

  // Endpoint cache: flop D pins and primary outputs with a connected input,
  // in ascending instance id (the seed's endpoint/tns iteration order).
  // Preserve surviving rows across a sync() so a following reanalyze() only
  // re-times endpoints inside the ECO cone.
  std::vector<InstanceId> old_ids = std::move(ep_ids_);
  std::vector<NetId> old_nets = std::move(ep_net_);
  std::vector<EndpointTiming> old_rows = std::move(ep_cache_);
  ep_ids_.clear();
  ep_net_.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    const auto id = static_cast<InstanceId>(i);
    const CellFunction f = func_[id];
    if (f != CellFunction::Dff && f != CellFunction::Output) continue;
    const NetId in = nl.instance(id).input_nets[0];
    if (in == netlist::kNoNet) continue;
    ep_ids_.push_back(id);
    ep_net_.push_back(in);
  }
  ep_cache_.assign(ep_ids_.size(), EndpointTiming{});
  if (!old_rows.empty()) {
    // Both id lists ascend: merge-copy rows whose endpoint survived with the
    // same input net (a rewired endpoint is re-timed via its net mark).
    std::size_t oj = 0;
    for (std::size_t j = 0; j < ep_ids_.size(); ++j) {
      while (oj < old_ids.size() && old_ids[oj] < ep_ids_[j]) ++oj;
      if (oj < old_ids.size() && old_ids[oj] == ep_ids_[j] && old_nets[oj] == ep_net_[j]) {
        ep_cache_[j] = old_rows[oj];
      }
    }
  }

  // Wireload endpoint edges (endpoint id order; connected inputs only).
  wl_ep_inst_.clear();
  wl_ep_net_.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (func_[id] != CellFunction::Dff && func_[id] != CellFunction::Output) continue;
    for (const NetId in : nl.instance(id).input_nets) {
      if (in == netlist::kNoNet) continue;
      wl_ep_inst_.push_back(id);
      wl_ep_net_.push_back(in);
    }
  }

  // Grow state and scratch to the (possibly larger) instance count,
  // preserving surviving node state — ids are stable and only appended.
  arr_.resize(n_, 0.0);
  wire_acc_.resize(n_, 0.0);
  gate_acc_.resize(n_, 0.0);
  early_.resize(n_, 0.0);
  stages_.resize(n_, 0);
  fanout_acc_.resize(n_, 0);
  wl_arrival_.resize(n_, 0.0);
  node_mark_.resize(n_, 0);
  node_changed_.resize(n_, 0);
  net_mark_.resize(nets_n_, 0);
  frontier_.resize(level_range_.size());
}

void TimingGraph::refresh_instance(InstanceId id) {
  const auto& m = nl_->master_of(id);
  func_[id] = m.function;
  input_cap_[id] = m.input_cap_ff;
  intrinsic_[id] = m.intrinsic_delay_ps;
  drive_res_[id] = m.drive_res_kohm;
  setup_[id] = m.setup_ps;
  hold_req_[id] = m.hold_ps;
  clk_to_q_[id] = m.clk_to_q_ps;
  insertion_[id] = clock_ != nullptr ? clock_->insertion_of(id) : 0.0;
  if (pl_ != nullptr) {
    // A shared in_sync DesignView holds the identical pin position without
    // the per-pin master/library indirections.
    pin_[id] = (view_ != nullptr && view_->in_sync(nl_->revision(), pl_->revision()))
                   ? view_->pin(id)
                   : pl_->pin_of(id);
  }
}

void TimingGraph::refresh_net(NetId id) {
  const auto& net = nl_->net(id);
  net_driver_[id] = net.driver;
  net_fanout_[id] = net.sinks.size();
  double sc = 0.0;  // seed accumulation order: sinks in declaration order
  for (const auto& s : net.sinks) sc += input_cap_[s.instance];
  net_sink_cap_[id] = sc;
  if (pl_ != nullptr) {
    net_hpwl_[id] = static_cast<double>(
        view_ != nullptr && view_->in_sync(nl_->revision(), pl_->revision())
            ? view_->net_hpwl(id)
            : pl_->net_hpwl(id));
    for (std::size_t i = net_edge_begin_[id]; i < net_edge_begin_[id + 1]; ++i) {
      const std::size_t e = net_edge_[i];
      edge_manh_[e] =
          static_cast<double>(geom::manhattan(pin_[fanin_driver_[e]], pin_[fanin_sink_[e]]));
    }
  }
}

void TimingGraph::refresh_net_load(NetId id) {
  // Seed association: start from the bbox wire cap, then add sink caps in
  // declaration order — caching a pre-added sink sum would change rounding.
  const auto& net = nl_->net(id);
  double load = cached_opt_.wire.cap_per_nm_ff * net_hpwl_[id];
  for (const auto& s : net.sinks) load += input_cap_[s.instance];
  net_load_[id] = load;
}

void TimingGraph::compute_net_loads() {
  for (std::size_t ni = 0; ni < nets_n_; ++ni) refresh_net_load(static_cast<NetId>(ni));
}

void TimingGraph::prepare_si(const StaOptions& opt, const route::GridGraph* routed) {
  si_active_ = opt.with_si && routed != nullptr;
  if (!si_active_) return;
  if (si_.source != routed || si_.revision != routed->revision() || si_.cols != routed->cols() ||
      si_.rows != routed->rows()) {
    si_ = build_si_map(*routed);
  }
}

double TimingGraph::si_of_edge(std::size_t e) const {
  const auto& idx = cached_routed_->indexer();
  const auto [c0, r0] = idx.cell_of(pin_[fanin_driver_[e]]);
  const auto [c1, r1] = idx.cell_of(pin_[fanin_sink_[e]]);
  return si_.max_in_window(std::min(c0, c1), std::min(r0, r1), std::max(c0, c1),
                           std::max(r0, r1));
}

// ---------------------------------------------------------------------------
// Propagation
// ---------------------------------------------------------------------------

void TimingGraph::ensure_state(bool hold) {
  cached_hold_ = hold;
  arr_.assign(n_, 0.0);
  wire_acc_.assign(n_, 0.0);
  gate_acc_.assign(n_, 0.0);
  early_.assign(n_, 0.0);
  stages_.assign(n_, 0);
  fanout_acc_.assign(n_, 0);
  ep_cache_.assign(ep_ids_.size(), EndpointTiming{});
}

bool TimingGraph::propagate_node(std::size_t u, double& cost) {
  const bool pba = cached_opt_.mode == AnalysisMode::PathBased;
  const double derate = pba ? 1.0 : cached_opt_.gba_derate;
  const double early_derate = pba ? 1.0 : cached_opt_.gba_early_derate;
  const double gf = cached_opt_.corner.gate_factor;
  const double wf = cached_opt_.corner.wire_factor;
  const bool hold = cached_hold_;
  const CellFunction f = func_[u];

  double new_arr = 0.0;
  double new_wire = 0.0;
  double new_gate = 0.0;
  double new_early = 0.0;
  std::size_t new_stages = 0;
  std::size_t new_fan = 0;

  cost += 1.0;             // late-pass node visit (seed parity)
  if (hold) cost += 1.0;   // early-pass node visit

  if (f == CellFunction::Input) {
    new_arr = cached_opt_.io_input_delay_ps;
    new_early = hold ? cached_opt_.io_input_delay_ps + clock_->min_insertion_ps : 0.0;
  } else if (f == CellFunction::Dff) {
    new_arr = insertion_[u] + clk_to_q_[u] * gf;
    new_early = hold ? new_arr : 0.0;
  } else if (f != CellFunction::Output) {
    double worst_in = 0.0;
    std::size_t sel = kNoEdge;
    double sel_wd = 0.0;
    double best_early = std::numeric_limits<double>::infinity();
    const double res = cached_opt_.wire.res_per_nm_kohm;
    const double cap = cached_opt_.wire.cap_per_nm_ff;
    const double sink_cap = input_cap_[u];
    for (std::size_t e = fanin_begin_[u]; e < fanin_begin_[u + 1]; ++e) {
      const NetId in = fanin_net_[e];
      const InstanceId drv = fanin_driver_[e];
      // Late (setup) wire delay: GBA bbox length for every sink, PBA the
      // true driver->sink length. Same association as the seed lambda.
      const double len = pba ? edge_manh_[e] : net_hpwl_[in];
      const double rw = res * len;
      const double cw = cap * len;
      double wd = rw * (0.5 * cw + sink_cap) * wf;
      if (si_active_) {
        wd *= 1.0 + cached_opt_.si_coupling_factor * si_of_edge(e);
        cost += 4.0;  // SI analysis visits the congestion map per sink
      }
      cost += pba ? 2.0 : 1.0;  // PBA computes per-sink geometry
      const double cand = arr_[drv] + wd * derate;
      if (cand >= worst_in) {  // >= : the seed's last-fanin tie break
        worst_in = cand;
        sel = e;
        sel_wd = wd;
      }
      if (hold) {
        // Early wire delay always uses the direct driver->sink distance.
        const double rw_e = res * edge_manh_[e];
        const double cw_e = cap * edge_manh_[e];
        const double wd_e = rw_e * (0.5 * cw_e + sink_cap) * wf;
        cost += 1.0;
        best_early = std::min(best_early, early_[drv] + wd_e * early_derate);
      }
    }
    const NetId out = out_net_[u];
    const double load = out != netlist::kNoNet ? net_load_[out] : 0.0;
    const double raw_delay = intrinsic_[u] + drive_res_[u] * load;
    const double gd = raw_delay * derate * gf;
    if (sel != kNoEdge) {
      const std::size_t drv = fanin_driver_[sel];
      new_wire = wire_acc_[drv] + sel_wd;
      new_gate = gate_acc_[drv] + gd;
      new_stages = stages_[drv] + 1;
      new_fan = std::max(fanout_acc_[drv], net_fanout_[fanin_net_[sel]]);
    } else {
      new_gate = gd;
      new_stages = 1;
    }
    new_arr = worst_in + gd;
    if (hold) {
      const double b = std::isfinite(best_early) ? best_early : 0.0;
      new_early = b + raw_delay * early_derate * gf;
    }
  }

  const bool changed = arr_[u] != new_arr || wire_acc_[u] != new_wire ||
                       gate_acc_[u] != new_gate || early_[u] != new_early ||
                       stages_[u] != new_stages || fanout_acc_[u] != new_fan;
  arr_[u] = new_arr;
  wire_acc_[u] = new_wire;
  gate_acc_[u] = new_gate;
  early_[u] = new_early;
  stages_[u] = new_stages;
  fanout_acc_[u] = new_fan;
  return changed;
}

void TimingGraph::compute_endpoint(std::size_t j, double& cost) {
  const InstanceId id = ep_ids_[j];
  const NetId in = ep_net_[j];
  const std::size_t e = fanin_begin_[id];  // pin 0 is the D/input pin
  assert(e < fanin_begin_[id + 1] && fanin_net_[e] == in);
  const InstanceId drv = fanin_driver_[e];
  const bool pba = cached_opt_.mode == AnalysisMode::PathBased;
  const double derate = pba ? 1.0 : cached_opt_.gba_derate;
  const double early_derate = pba ? 1.0 : cached_opt_.gba_early_derate;
  const double wf = cached_opt_.corner.wire_factor;
  const double sf = cached_opt_.corner.setup_factor;
  const bool flop = func_[id] == CellFunction::Dff;

  const double res = cached_opt_.wire.res_per_nm_kohm;
  const double cap = cached_opt_.wire.cap_per_nm_ff;
  const double len = pba ? edge_manh_[e] : net_hpwl_[in];
  const double rw = res * len;
  const double cw = cap * len;
  double wd = rw * (0.5 * cw + input_cap_[id]) * wf;
  if (si_active_) {
    wd *= 1.0 + cached_opt_.si_coupling_factor * si_of_edge(e);
    cost += 4.0;
  }
  cost += pba ? 2.0 : 1.0;

  EndpointTiming& ep = ep_cache_[j];
  ep.endpoint = id;
  ep.is_flop = flop;
  ep.arrival_ps = arr_[drv] + wd * derate;
  ep.path_stages = stages_[drv];
  ep.path_wire_delay_ps = wire_acc_[drv] + wd;
  ep.path_gate_delay_ps = gate_acc_[drv];
  ep.max_fanout_on_path = std::max(fanout_acc_[drv], net_fanout_[in]);
  ep.required_ps = flop ? cached_opt_.clock_period_ps + insertion_[id] - setup_[id] * sf
                        : cached_opt_.clock_period_ps - cached_opt_.io_output_margin_ps;
  ep.slack_ps = ep.required_ps - ep.arrival_ps;
  if (cached_hold_ && flop) {
    const double rw_e = res * edge_manh_[e];
    const double cw_e = cap * edge_manh_[e];
    const double wd_e = rw_e * (0.5 * cw_e + input_cap_[id]) * wf;
    cost += 1.0;
    const double early_at_d = early_[drv] + wd_e * early_derate;
    ep.hold_slack_ps = early_at_d - (insertion_[id] + hold_req_[id] * sf);
  } else {
    ep.hold_slack_ps = 0.0;
  }
}

StaReport TimingGraph::assemble_report() const {
  StaReport r;
  r.endpoints.reserve(ep_ids_.size());
  double wns = std::numeric_limits<double>::infinity();
  double whs = std::numeric_limits<double>::infinity();
  for (const EndpointTiming& ep : ep_cache_) {
    if (cached_hold_ && ep.is_flop) {
      whs = std::min(whs, ep.hold_slack_ps);
      if (ep.hold_slack_ps < 0.0) ++r.hold_violations;
    }
    if (ep.slack_ps < 0.0) {
      r.tns_ps += ep.slack_ps;  // endpoint-id order, as the seed sums it
      ++r.failing_endpoints;
    }
    wns = std::min(wns, ep.slack_ps);
    r.endpoints.push_back(ep);
  }
  r.wns_ps = r.endpoints.empty() ? 0.0 : wns;
  r.whs_ps = std::isfinite(whs) ? whs : 0.0;
  return r;
}

bool TimingGraph::options_match(const StaOptions& opt, const route::GridGraph* routed) const {
  if (!options_equal(opt, cached_opt_)) return false;
  const bool want_si = opt.with_si && routed != nullptr;
  if (want_si != si_active_) return false;
  if (want_si &&
      (routed != cached_routed_ || routed->revision() != cached_routed_rev_)) {
    return false;
  }
  return true;
}

StaReport TimingGraph::analyze(const StaOptions& opt, const route::GridGraph* routed) {
  assert(pl_ != nullptr && clock_ != nullptr && "analyze requires placed mode");
  obs::Span span("sta_propagate", "timing");
  span.arg("nodes", static_cast<double>(n_));

  cached_opt_ = opt;
  cached_routed_ = routed;
  cached_routed_rev_ = routed != nullptr ? routed->revision() : 0;
  prepare_si(opt, routed);
  compute_net_loads();
  ensure_state(opt.with_hold);

  double cost = 0.0;
  for (const InstanceId u : order_) propagate_node(u, cost);
  for (std::size_t j = 0; j < ep_ids_.size(); ++j) compute_endpoint(j, cost);
  cache_valid_ = true;
  counters().full_props.add();

  StaReport r = assemble_report();
  r.analysis_cost = cost;
  return r;
}

StaReport TimingGraph::reanalyze(const std::vector<InstanceId>& dirty, const StaOptions& opt,
                                 const route::GridGraph* routed) {
  if (!cache_valid_ || !options_match(opt, routed)) {
    // No compatible cached propagation: refresh the dirty closure (analyze()
    // recomputes loads from the cached per-instance/per-net arrays, so those
    // must be brought current first), then run a full analysis.
    for (const InstanceId id : dirty) refresh_instance(id);
    for (const InstanceId id : dirty) {
      if (out_net_[id] != netlist::kNoNet) refresh_net(out_net_[id]);
      for (const NetId in : nl_->instance(id).input_nets) {
        if (in != netlist::kNoNet) refresh_net(in);
      }
    }
    return analyze(opt, routed);
  }
  obs::Span span("sta_incremental", "timing");
  if (++epoch_ == 0) {
    std::fill(node_mark_.begin(), node_mark_.end(), 0);
    std::fill(node_changed_.begin(), node_changed_.end(), 0);
    std::fill(net_mark_.begin(), net_mark_.end(), 0);
    epoch_ = 1;
  }
  double cost = 0.0;

  // Refresh the dirty closure: instance parameters first (net refreshes read
  // them), then every incident net's geometry and load.
  for (const InstanceId id : dirty) refresh_instance(id);
  auto enqueue = [&](InstanceId v) {
    if (node_mark_[v] == epoch_) return;
    node_mark_[v] = epoch_;
    frontier_[level_of_[v]].push_back(v);
  };
  auto touch_net = [&](NetId in) {
    if (in == netlist::kNoNet || net_mark_[in] == epoch_) return;
    net_mark_[in] = epoch_;
    refresh_net(in);
    refresh_net_load(in);
    // The driver's load and every sink's wire delay may have changed.
    enqueue(net_driver_[in]);
    for (const auto& s : nl_->net(in).sinks) {
      const CellFunction f = func_[s.instance];
      if (f != CellFunction::Dff && f != CellFunction::Output && f != CellFunction::Input) {
        enqueue(s.instance);
      }
    }
  };
  for (const InstanceId id : dirty) {
    enqueue(id);
    touch_net(out_net_[id]);
    for (const NetId in : nl_->instance(id).input_nets) touch_net(in);
  }

  // Re-propagate the forward cone level by level with bitwise early cut-off;
  // fanout pushes only ever target higher levels.
  last_repropagated_ = 0;
  for (std::size_t l = 0; l + 1 < level_range_.size(); ++l) {
    auto& bucket = frontier_[l];
    for (const InstanceId v : bucket) {
      ++last_repropagated_;
      if (propagate_node(v, cost)) {
        node_changed_[v] = epoch_;
        for (std::size_t i = fanout_begin_[v]; i < fanout_begin_[v + 1]; ++i) {
          enqueue(fanout_inst_[i]);
        }
      }
    }
    bucket.clear();
  }

  // Re-time endpoints whose input net was refreshed or whose driver's state
  // changed; everything else keeps its cached row.
  for (std::size_t j = 0; j < ep_ids_.size(); ++j) {
    const NetId in = ep_net_[j];
    if (net_mark_[in] == epoch_ || node_changed_[net_driver_[in]] == epoch_) {
      compute_endpoint(j, cost);
    }
  }

  counters().incr_props.add();
  counters().nodes_repropagated.add(last_repropagated_);
  span.arg("repropagated", static_cast<double>(last_repropagated_));

  StaReport r = assemble_report();
  r.analysis_cost = cost;  // only the work actually redone
  return r;
}

// ---------------------------------------------------------------------------
// Wireload mode
// ---------------------------------------------------------------------------

double TimingGraph::wireload_node(std::size_t u, double factor, double margin) const {
  const CellFunction f = func_[u];
  if (f == CellFunction::Input || f == CellFunction::Output) return 0.0;
  if (f == CellFunction::Dff) return clk_to_q_[u] + margin;
  double worst = 0.0;
  for (std::size_t e = fanin_begin_[u]; e < fanin_begin_[u + 1]; ++e) {
    worst = std::max(worst, wl_arrival_[fanin_driver_[e]]);
  }
  const NetId out = out_net_[u];
  const double load = out != netlist::kNoNet ? net_sink_cap_[out] : 0.0;
  return worst + (intrinsic_[u] + drive_res_[u] * (load * factor));
}

double TimingGraph::wireload_critical() const {
  double cp = 0.0;
  for (std::size_t j = 0; j < wl_ep_inst_.size(); ++j) {
    const InstanceId id = wl_ep_inst_[j];
    const double setup = func_[id] == CellFunction::Dff ? setup_[id] : 0.0;
    cp = std::max(cp, wl_arrival_[net_driver_[wl_ep_net_[j]]] + setup);
  }
  return cp;
}

double TimingGraph::wireload_propagate(double wireload_factor, double clk_to_q_margin_ps) {
  std::fill(wl_arrival_.begin(), wl_arrival_.end(), 0.0);
  for (const InstanceId u : order_) {
    wl_arrival_[u] = wireload_node(u, wireload_factor, clk_to_q_margin_ps);
  }
  wl_critical_ = wireload_critical();
  wl_factor_ = wireload_factor;
  wl_margin_ = clk_to_q_margin_ps;
  wl_valid_ = true;
  counters().full_props.add();
  return wl_critical_;
}

double TimingGraph::wireload_repropagate(const std::vector<InstanceId>& dirty,
                                         double wireload_factor, double clk_to_q_margin_ps) {
  if (!wl_valid_ || wireload_factor != wl_factor_ || clk_to_q_margin_ps != wl_margin_) {
    return wireload_propagate(wireload_factor, clk_to_q_margin_ps);
  }
  if (++epoch_ == 0) {
    std::fill(node_mark_.begin(), node_mark_.end(), 0);
    std::fill(node_changed_.begin(), node_changed_.end(), 0);
    std::fill(net_mark_.begin(), net_mark_.end(), 0);
    epoch_ = 1;
  }
  auto enqueue = [&](InstanceId v) {
    if (node_mark_[v] == epoch_) return;
    node_mark_[v] = epoch_;
    frontier_[level_of_[v]].push_back(v);
  };
  // A resize changes the dirty instance's own delay parameters and, through
  // its input capacitance, the load of every net it sinks — so those nets'
  // drivers re-evaluate too. (No wires in this mode: fanout loads of the
  // dirty instance's output net are unaffected.)
  for (const InstanceId id : dirty) refresh_instance(id);
  for (const InstanceId id : dirty) {
    enqueue(id);
    for (const NetId in : nl_->instance(id).input_nets) {
      if (in == netlist::kNoNet || net_mark_[in] == epoch_) continue;
      net_mark_[in] = epoch_;
      refresh_net(in);
      enqueue(net_driver_[in]);
    }
  }
  last_repropagated_ = 0;
  for (std::size_t l = 0; l + 1 < level_range_.size(); ++l) {
    auto& bucket = frontier_[l];
    for (const InstanceId v : bucket) {
      ++last_repropagated_;
      const double a = wireload_node(v, wl_factor_, wl_margin_);
      if (a != wl_arrival_[v]) {
        wl_arrival_[v] = a;
        for (std::size_t i = fanout_begin_[v]; i < fanout_begin_[v + 1]; ++i) {
          enqueue(fanout_inst_[i]);
        }
      }
    }
    bucket.clear();
  }
  wl_critical_ = wireload_critical();
  counters().incr_props.add();
  counters().nodes_repropagated.add(last_repropagated_);
  return wl_critical_;
}

}  // namespace maestro::timing
