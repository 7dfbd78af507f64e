// ABLATION — missing-corner timing prediction (paper Section 3.2, near-term
// extension (2)): predict slack at a corner that was never analyzed, from
// the corners that were, and compare against the scalar-derate baseline a
// non-ML flow would use. Also quantifies the analysis cost avoided by
// skipping the corner run.

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>

#include "core/corner_predictor.hpp"
#include "flow/flow.hpp"
#include "timing/timing_graph.hpp"
#include "util/csv.hpp"

int main() {
  using namespace maestro;
  std::puts("=== ABLATION: missing-corner prediction vs scalar derate ===");

  const auto lib = netlist::make_default_library();
  flow::FlowManager fm{lib};

  std::vector<core::CornerSample> train;
  std::vector<core::CornerSample> test;
  double skipped_cost = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    flow::FlowRecipe recipe;
    recipe.design.kind = flow::DesignSpec::Kind::RandomLogic;
    recipe.design.scale = 1;
    recipe.design.rtl_seed = seed;
    recipe.design.name = "mc" + std::to_string(seed);
    recipe.target_ghz = 1.2;
    recipe.seed = seed;
    flow::DesignState state;
    fm.run_keep_state(recipe, flow::FlowConstraints{}, state);

    // One graph, one analyze() per corner: the build is shared, each report
    // is bit-identical to a per-corner run_sta call.
    timing::StaOptions so;
    so.mode = timing::AnalysisMode::PathBased;
    so.clock_period_ps = 1000.0 / 1.2;
    timing::TimingGraph graph(*state.pl, state.clock);
    std::map<std::string, timing::StaReport> reports;
    for (const auto& corner : timing::standard_corners()) {
      so.corner = corner;
      auto report = graph.analyze(so);
      if (seed > 4 && corner.name == "ss") skipped_cost += report.analysis_cost;
      reports[corner.name] = std::move(report);
    }
    auto samples = core::join_corner_reports(reports);
    auto& dst = seed <= 4 ? train : test;
    dst.insert(dst.end(), samples.begin(), samples.end());
  }

  core::CornerPredictor predictor{{"tt", "ff"}, "ss"};
  predictor.fit(train);
  const auto rep = predictor.evaluate(test);

  util::CsvTable table{{"method", "mae_ps", "max_err_ps", "r2"}};
  table.new_row().add("scalar_derate(tt->ss)").add(rep.scalar_baseline_mae_ps, 2).add("-").add("-");
  table.new_row().add("ml_prediction").add(rep.mean_abs_error_ps, 2).add(rep.max_abs_error_ps, 2).add(
      rep.r2, 3);
  table.print(std::cout);
  std::printf("endpoints evaluated: %zu; analysis cost avoided by skipping ss: %.0f units\n",
              rep.endpoints, skipped_cost);

  std::printf("\nShape check vs paper:\n");
  std::printf("  ML beats the scalar derate (%.2f vs %.2f ps MAE): %s\n",
              rep.mean_abs_error_ps, rep.scalar_baseline_mae_ps,
              rep.mean_abs_error_ps < rep.scalar_baseline_mae_ps ? "OK" : "MISMATCH");
  std::printf("  prediction is tight (R2=%.3f > 0.9): %s\n", rep.r2,
              rep.r2 > 0.9 ? "OK" : "MISMATCH");
  return 0;
}
