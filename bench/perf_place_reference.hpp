#pragma once
// The seed full-reevaluation annealer, kept verbatim as the equivalence and
// performance baseline for place::sa_place (bench/perf_place.cpp,
// tests/test_design_view.cpp). Recomputes every touched net's HPWL from raw
// pins before and after each move. Not used by the flow.

#include "place/placer.hpp"
#include "util/rng.hpp"

namespace maestro::bench {

place::AnnealResult anneal_placement_reference(place::Placement& pl,
                                               const place::AnnealOptions& opt, util::Rng& rng);

}  // namespace maestro::bench
