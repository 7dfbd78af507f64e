#pragma once
// The seed (pre-kernel) global router, kept verbatim as perf_groute's
// baseline: per-segment full-grid scratch allocation, O(p^2) pin dedup,
// serial rip-up with O(E) per-round scans, seeded rip-up order. Not used by
// the flow.

#include "place/placement.hpp"
#include "route/global_router.hpp"
#include "util/rng.hpp"

namespace maestro::bench {

route::RouteResult global_route_reference(const place::Placement& pl,
                                          const route::RouteOptions& opt,
                                          route::GridGraph& graph, util::Rng& rng);

}  // namespace maestro::bench
