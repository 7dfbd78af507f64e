// Unit tests for maestro::metrics — records, the server/transmitter, and
// the data miner's knob-sensitivity / prescription / outcome-model features.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "flow/flow.hpp"
#include "metrics/miner.hpp"
#include "metrics/server.hpp"

namespace mm = maestro::metrics;
namespace mf = maestro::flow;
using maestro::util::Rng;

namespace {
mm::Record make_record(const std::string& design, double area, const std::string& util) {
  mm::Record r;
  r.design = design;
  r.step = "flow";
  r.knobs["floorplan.utilization"] = util;
  r.values[mm::names::kAreaUm2] = area;
  return r;
}
}  // namespace

TEST(Record, JsonRoundTrip) {
  mm::Record r;
  r.run_id = 42;
  r.design = "cpu";
  r.step = "route";
  r.seed = 7;
  r.knobs["k"] = "v";
  r.values["m"] = 1.25;
  const auto back = mm::Record::from_json(r.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->run_id, 42u);
  EXPECT_EQ(back->design, "cpu");
  EXPECT_EQ(back->step, "route");
  EXPECT_EQ(back->seed, 7u);
  EXPECT_EQ(*back->knob("k"), "v");
  EXPECT_DOUBLE_EQ(*back->value("m"), 1.25);
  EXPECT_FALSE(back->value("absent").has_value());
  EXPECT_FALSE(back->knob("absent").has_value());
}

TEST(Record, JsonRoundTripEmbeddedQuotesAndNewlines) {
  mm::Record r;
  r.design = "dut \"quoted\"\nline2\ttabbed";
  r.step = "synth\\elaborate";
  r.knobs["note"] = "value with \"quotes\" and\nnewlines";
  r.values["m"] = -0.0625;
  // Must survive one serialized line: embedded newlines have to be escaped
  // or the JSONL save/load and wire framing would split the record.
  const std::string line = r.to_json().dump();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = maestro::util::Json::parse(line);
  ASSERT_TRUE(parsed.has_value());
  const auto back = mm::Record::from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->design, r.design);
  EXPECT_EQ(back->step, r.step);
  EXPECT_EQ(*back->knob("note"), r.knobs["note"]);
  EXPECT_DOUBLE_EQ(*back->value("m"), -0.0625);
}

TEST(Record, JsonRoundTripNonFiniteValues) {
  mm::Record r;
  r.design = "dut";
  r.step = "sta";
  r.values["wns_ps"] = std::numeric_limits<double>::quiet_NaN();
  r.values["tns_ps"] = std::numeric_limits<double>::infinity();
  r.values["slack_ps"] = -std::numeric_limits<double>::infinity();
  r.values["ok"] = 1.5;
  const auto back = mm::Record::from_json(r.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::isnan(*back->value("wns_ps")));
  EXPECT_EQ(*back->value("tns_ps"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(*back->value("slack_ps"), -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(*back->value("ok"), 1.5);
  // The non-finite encoding is stable across a second round trip.
  EXPECT_EQ(back->to_json().dump(), r.to_json().dump());
}

TEST(Record, JsonRoundTripLargeSeed) {
  mm::Record r;
  r.design = "dut";
  r.step = "flow";
  r.seed = 0xffffffffffffffffULL;  // does not fit in a JSON double
  const auto back = mm::Record::from_json(r.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, 0xffffffffffffffffULL);
}

TEST(Record, JsonRoundTripLargeRunIds) {
  // Ids above 2^53 are not exact as JSON doubles; through the text form,
  // as the wire and the WAL carry records, they come back unchanged.
  for (const std::uint64_t id : {(std::uint64_t{1} << 53) + 1, std::uint64_t{0xffffffffffffffff}}) {
    mm::Record r;
    r.run_id = id;
    r.design = "dut";
    r.step = "flow";
    r.seed = id;
    const auto parsed = maestro::util::Json::parse(r.to_json().dump());
    ASSERT_TRUE(parsed.has_value());
    const auto back = mm::Record::from_json(*parsed);
    ASSERT_TRUE(back.has_value()) << id;
    EXPECT_EQ(back->run_id, id);
    EXPECT_EQ(back->seed, id);
  }
}

TEST(Record, FromJsonToleratesMissingOptionalFields) {
  const auto minimal = maestro::util::Json::parse(R"({"design":"dut","step":"flow"})");
  ASSERT_TRUE(minimal.has_value());
  const auto back = mm::Record::from_json(*minimal);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->design, "dut");
  EXPECT_EQ(back->step, "flow");
  EXPECT_EQ(back->run_id, 0u);
  EXPECT_EQ(back->seed, 0u);
  EXPECT_TRUE(back->knobs.empty());
  EXPECT_TRUE(back->values.empty());
  // Non-objects are rejected rather than read as empty records.
  EXPECT_FALSE(mm::Record::from_json(maestro::util::Json{3.0}).has_value());
}

TEST(Server, SubmitAssignsIds) {
  mm::Server server;
  const auto id1 = server.submit(make_record("a", 1.0, "0.7"));
  const auto id2 = server.submit(make_record("b", 2.0, "0.7"));
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id2, id1);
  EXPECT_EQ(server.size(), 2u);
}

TEST(Server, QueriesFilter) {
  mm::Server server;
  server.submit(make_record("a", 1.0, "0.7"));
  server.submit(make_record("a", 2.0, "0.8"));
  server.submit(make_record("b", 3.0, "0.7"));
  EXPECT_EQ(server.for_design("a").size(), 2u);
  EXPECT_EQ(server.for_design("b").size(), 1u);
  EXPECT_EQ(server.for_step("flow").size(), 3u);
  EXPECT_EQ(server.for_step("route").size(), 0u);
  const auto big = server.query(
      [](const mm::Record& r) { return r.value(mm::names::kAreaUm2).value_or(0) > 1.5; });
  EXPECT_EQ(big.size(), 2u);
}

TEST(Server, SaveLoadRoundTrip) {
  const std::string path = "/tmp/maestro_metrics_test.jsonl";
  {
    mm::Server server;
    server.submit(make_record("a", 1.0, "0.7"));
    server.submit(make_record("b", 2.0, "0.8"));
    ASSERT_TRUE(server.save(path));
  }
  mm::Server loaded;
  EXPECT_EQ(loaded.load(path), 2u);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.for_design("a").size(), 1u);
  std::filesystem::remove(path);
}

TEST(Server, LoadMissingFileReturnsZero) {
  mm::Server server;
  EXPECT_EQ(server.load("/tmp/definitely_not_here.jsonl"), 0u);
}

TEST(Transmitter, FlattensFlowRun) {
  const auto lib = maestro::netlist::make_default_library();
  mf::FlowManager fm{lib};
  mf::FlowRecipe recipe;
  recipe.design.kind = mf::DesignSpec::Kind::RandomLogic;
  recipe.design.scale = 1;
  recipe.design.name = "tx_test";
  recipe.target_ghz = 0.8;
  recipe.seed = 3;
  recipe.knobs = mf::default_trajectory(mf::default_knob_spaces());
  const auto result = fm.run(recipe);

  mm::Server server;
  mm::Transmitter tx{server};
  const auto id = tx.transmit_flow(recipe, result);
  EXPECT_NE(id, 0u);
  // One flow record + one per step log.
  EXPECT_EQ(server.size(), 1u + result.logs.size());
  const auto flows = server.for_step("flow");
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0]->design, "tx_test");
  EXPECT_TRUE(flows[0]->value(mm::names::kAreaUm2).has_value());
  EXPECT_TRUE(flows[0]->knob("floorplan.utilization").has_value());
  // Step records present with parsed numeric metadata.
  EXPECT_EQ(server.for_step("synthesis").size(), 1u);
  EXPECT_EQ(server.for_step("route").size(), 1u);
}

TEST(Miner, KnobSensitivityGroupsByValue) {
  mm::Server server;
  // utilization 0.7 -> small area, 0.9 -> big area, clean separation.
  for (int i = 0; i < 10; ++i) {
    server.submit(make_record("d", 100.0 + i, "0.7"));
    server.submit(make_record("d", 200.0 + i, "0.9"));
  }
  const auto effects = mm::knob_sensitivity(server, mm::names::kAreaUm2);
  ASSERT_EQ(effects.size(), 2u);
  double mean07 = 0.0;
  double mean09 = 0.0;
  for (const auto& e : effects) {
    EXPECT_EQ(e.knob, "floorplan.utilization");
    EXPECT_EQ(e.runs, 10u);
    if (e.value == "0.7") mean07 = e.mean_metric;
    if (e.value == "0.9") mean09 = e.mean_metric;
  }
  EXPECT_NEAR(mean07, 104.5, 1e-9);
  EXPECT_NEAR(mean09, 204.5, 1e-9);
}

TEST(Miner, BestKnobSettingsMinimize) {
  mm::Server server;
  for (int i = 0; i < 5; ++i) {
    server.submit(make_record("d", 100.0, "0.7"));
    server.submit(make_record("d", 200.0, "0.9"));
  }
  const auto best_min = mm::best_knob_settings(server, mm::names::kAreaUm2, true);
  EXPECT_EQ(best_min.at("floorplan.utilization"), "0.7");
  const auto best_max = mm::best_knob_settings(server, mm::names::kAreaUm2, false);
  EXPECT_EQ(best_max.at("floorplan.utilization"), "0.9");
}

TEST(Miner, PrescribeFrequencyFindsHighestReliable) {
  mm::Server server;
  auto add_runs = [&](double ghz, int succ, int fail) {
    for (int i = 0; i < succ + fail; ++i) {
      mm::Record r;
      r.design = "cpu";
      r.step = "flow";
      r.values[mm::names::kTargetGhz] = ghz;
      r.values[mm::names::kSuccess] = i < succ ? 1.0 : 0.0;
      server.submit(std::move(r));
    }
  };
  add_runs(0.8, 10, 0);   // 100%
  add_runs(1.0, 9, 1);    // 90%
  add_runs(1.2, 5, 5);    // 50%
  add_runs(1.4, 0, 10);   // 0%
  const auto p = mm::prescribe_frequency(server, "cpu", 0.8);
  EXPECT_DOUBLE_EQ(p.recommended_ghz, 1.0);
  EXPECT_NEAR(p.predicted_success_rate, 0.9, 1e-12);
  EXPECT_EQ(p.supporting_runs, 40u);
  // Different design: no data.
  const auto none = mm::prescribe_frequency(server, "other", 0.8);
  EXPECT_DOUBLE_EQ(none.recommended_ghz, 0.0);
}

TEST(Miner, OutcomeModelLearnsLinearRelation) {
  mm::Server server;
  Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    mm::Record r;
    r.design = "d";
    r.step = "flow";
    const double f = rng.uniform(0.5, 2.0);
    r.values[mm::names::kTargetGhz] = f;
    r.values[mm::names::kPowerMw] = 3.0 * f + rng.gauss(0, 0.01);
    server.submit(std::move(r));
  }
  Rng rng2{7};
  const auto model = mm::fit_outcome_model(server, {mm::names::kTargetGhz},
                                           mm::names::kPowerMw, rng2);
  EXPECT_EQ(model.rows, 200u);
  EXPECT_GT(model.test_r2, 0.99);
  const double pred = model.predict({{mm::names::kTargetGhz, 1.0}});
  EXPECT_NEAR(pred, 3.0, 0.1);
}

TEST(Miner, OutcomeModelNeedsData) {
  mm::Server server;
  Rng rng{9};
  const auto model =
      mm::fit_outcome_model(server, {mm::names::kTargetGhz}, mm::names::kPowerMw, rng);
  EXPECT_EQ(model.rows, 0u);
  EXPECT_DOUBLE_EQ(model.test_r2, 0.0);
}

// --- Degenerate inputs the flow tuner generates -----------------------------
// A tuning campaign mines its own history as it goes, so the miner sees
// buckets with one run, metrics that came back NaN from a diverged signoff,
// and polls against an empty server. None of these may poison the stats.

TEST(Miner, KnobSensitivitySkipsNonFiniteMetrics) {
  mm::Server server;
  server.submit(make_record("d", 100.0, "0.7"));
  server.submit(make_record("d", 102.0, "0.7"));
  server.submit(make_record("d", std::numeric_limits<double>::quiet_NaN(), "0.7"));
  server.submit(make_record("d", std::numeric_limits<double>::infinity(), "0.7"));
  const auto effects = mm::knob_sensitivity(server, mm::names::kAreaUm2);
  ASSERT_EQ(effects.size(), 1u);
  // The NaN/inf records are dropped, not folded: mean stays finite and only
  // the two clean runs count.
  EXPECT_EQ(effects[0].runs, 2u);
  EXPECT_NEAR(effects[0].mean_metric, 101.0, 1e-12);
  EXPECT_TRUE(std::isfinite(effects[0].stddev_metric));
}

TEST(Miner, StreamingFoldMatchesBatchWithNonFiniteMetrics) {
  mm::Server server;
  mm::StreamingKnobStats stream{server, mm::names::kAreaUm2, "flow"};
  server.submit(make_record("d", 10.0, "0.7"));
  server.submit(make_record("d", std::numeric_limits<double>::quiet_NaN(), "0.7"));
  server.submit(make_record("d", 30.0, "0.9"));
  server.submit(make_record("d", -std::numeric_limits<double>::infinity(), "0.9"));
  stream.poll();
  const auto streamed = stream.effects();
  const auto batch = mm::knob_sensitivity(server, mm::names::kAreaUm2);
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].knob, batch[i].knob);
    EXPECT_EQ(streamed[i].value, batch[i].value);
    EXPECT_EQ(streamed[i].runs, batch[i].runs);
    EXPECT_DOUBLE_EQ(streamed[i].mean_metric, batch[i].mean_metric);
    EXPECT_DOUBLE_EQ(streamed[i].stddev_metric, batch[i].stddev_metric);
  }
}

TEST(Miner, KnobSensitivitySingleRunBucket) {
  mm::Server server;
  server.submit(make_record("d", 42.0, "0.7"));
  const auto effects = mm::knob_sensitivity(server, mm::names::kAreaUm2);
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0].runs, 1u);
  EXPECT_DOUBLE_EQ(effects[0].mean_metric, 42.0);
  EXPECT_DOUBLE_EQ(effects[0].stddev_metric, 0.0);
}

TEST(Miner, KnobSensitivityEmptyServer) {
  mm::Server server;
  EXPECT_TRUE(mm::knob_sensitivity(server, mm::names::kAreaUm2).empty());
  mm::StreamingKnobStats stream{server, mm::names::kAreaUm2, "flow"};
  EXPECT_EQ(stream.poll(), 0u);
  EXPECT_TRUE(stream.effects().empty());
}

TEST(Miner, OutcomeModelSkipsNonFiniteRows) {
  mm::Server server;
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    mm::Record r;
    r.design = "d";
    r.step = "flow";
    const double f = rng.uniform(0.5, 2.0);
    r.values[mm::names::kTargetGhz] = f;
    r.values[mm::names::kPowerMw] = 3.0 * f + rng.gauss(0, 0.01);
    server.submit(std::move(r));
  }
  // NaN target and NaN feature rows are both dropped from the training set.
  mm::Record bad_target;
  bad_target.design = "d";
  bad_target.step = "flow";
  bad_target.values[mm::names::kTargetGhz] = 1.0;
  bad_target.values[mm::names::kPowerMw] = std::numeric_limits<double>::quiet_NaN();
  server.submit(std::move(bad_target));
  mm::Record bad_feature;
  bad_feature.design = "d";
  bad_feature.step = "flow";
  bad_feature.values[mm::names::kTargetGhz] = std::numeric_limits<double>::infinity();
  bad_feature.values[mm::names::kPowerMw] = 3.0;
  server.submit(std::move(bad_feature));

  Rng rng2{7};
  const auto model =
      mm::fit_outcome_model(server, {mm::names::kTargetGhz}, mm::names::kPowerMw, rng2);
  EXPECT_EQ(model.rows, 100u);
  EXPECT_GT(model.test_r2, 0.99);
}
