// No-human-in-the-loop implementation (paper Sections 2-3; DARPA IDEA's
// "no human in the loop, 24-hour design framework").
//
//   $ ./example_no_human_flow
//
// Two robots cooperate with zero human input:
//   1. A MabScheduler explores target frequencies with Thompson Sampling
//      under power/area constraints (paper Fig. 7) and reports the highest
//      feasible clock.
//   2. A RobotEngineer then drives a flow at that clock to completion,
//      applying its expert-system playbook whenever a run fails, and prints
//      its remediation journal.

#include <cstdio>

#include "core/mab_scheduler.hpp"
#include "core/robot_engineer.hpp"

int main() {
  using namespace maestro;
  const netlist::CellLibrary lib = netlist::make_default_library();
  const flow::FlowManager manager{lib};
  util::Rng rng{42};

  flow::DesignSpec design;
  design.kind = flow::DesignSpec::Kind::RandomLogic;
  design.scale = 2;
  design.name = "autopilot_block";

  flow::FlowConstraints constraints;
  constraints.max_power_mw = 30.0;

  // --- Phase 1: bandit search for the highest feasible frequency. ---
  std::puts("[phase 1] Thompson-sampling frequency exploration (3x12 tool runs)");
  core::MabOptions mab;
  mab.frequency_arms_ghz = core::frequency_arms(0.6, 1.8, 9);
  mab.iterations = 12;
  mab.concurrency = 3;
  mab.algorithm = ml::PolicyKind::Thompson;
  const auto oracle = core::make_flow_oracle(manager, design, flow::FlowTrajectory{}, constraints);
  const auto campaign = core::MabScheduler{mab}.run(oracle, rng);
  std::printf("  %zu runs, %zu successes, best feasible %.2f GHz\n", campaign.total_runs,
              campaign.successful_runs, campaign.best_feasible_ghz);

  // --- Phase 2: robot engineer closes the design at that frequency +5%. ---
  const double target = campaign.best_feasible_ghz > 0 ? campaign.best_feasible_ghz * 1.05 : 0.8;
  std::printf("\n[phase 2] robot engineer drives the flow at %.2f GHz\n", target);
  core::RobotOptions ro;
  ro.max_attempts = 8;
  const core::RobotEngineer robot{manager, ro};
  flow::FlowRecipe recipe;
  recipe.design = design;
  recipe.target_ghz = target;
  recipe.knobs = flow::default_trajectory(flow::default_knob_spaces());
  recipe.seed = 7;
  const auto outcome = robot.execute(recipe, constraints, rng);

  std::printf("  outcome: %s after %d attempt(s), final target %.2f GHz\n",
              outcome.succeeded ? "CLOSED" : "NOT CLOSED", outcome.attempts,
              outcome.final_target_ghz);
  if (!outcome.journal.empty()) {
    std::puts("  remediation journal:");
    for (const auto& action : outcome.journal) {
      std::printf("    attempt %d: %s -> %s\n", action.attempt, action.diagnosis.c_str(),
                  action.remedy.c_str());
    }
  }
  std::printf("  final: wns %+.1f ps, %0.f DRVs, %.1f um2, %.2f mW, total TAT %.0f min\n",
              outcome.result.wns_ps, outcome.result.final_drvs, outcome.result.area_um2,
              outcome.result.power_mw, outcome.total_tat_minutes);
  return outcome.succeeded ? 0 : 1;
}
