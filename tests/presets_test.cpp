// Tests for PAPI-style preset generation (core/presets) and derived-event
// support in the vpapi session.
#include "core/presets.hpp"

#include <gtest/gtest.h>

#include "cat/cat.hpp"
#include "json/json.hpp"
#include "core/pipeline.hpp"
#include "core/signatures.hpp"

namespace catalyst::core {
namespace {

MetricDefinition sample_metric(bool composable = true) {
  MetricDefinition m;
  m.metric_name = "DP Ops.";
  m.terms = {{"EV_A", 1.0001}, {"EV_B", 2.0}, {"EV_C", 0.0004}};
  m.backward_error = composable ? 1e-16 : 0.3;
  m.composable = composable;
  return m;
}

TEST(PresetSymbols, CanonicalMapping) {
  EXPECT_EQ(canonical_preset_symbol("DP Ops."), "PAPI_DP_OPS");
  EXPECT_EQ(canonical_preset_symbol("Mispredicted Branches."),
            "PAPI_BR_MSP");
  EXPECT_EQ(canonical_preset_symbol("L2 Misses."), "PAPI_L2_DCM");
  EXPECT_FALSE(canonical_preset_symbol("no such metric").has_value());
}

TEST(PresetSymbols, DerivedFallback) {
  EXPECT_EQ(derived_preset_symbol("HP Add and Sub Ops."),
            "CAT_HP_ADD_AND_SUB_OPS");
  EXPECT_EQ(derived_preset_symbol("weird--name!!"), "CAT_WEIRD_NAME");
}

TEST(MakePreset, RoundsAndDropsZeroTerms) {
  auto p = make_preset(sample_metric());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->symbol, "PAPI_DP_OPS");
  ASSERT_EQ(p->terms.size(), 2u);  // EV_C rounded to zero and dropped
  EXPECT_DOUBLE_EQ(p->terms[0].coefficient, 1.0);
  EXPECT_DOUBLE_EQ(p->terms[1].coefficient, 2.0);
}

TEST(MakePreset, RefusesNonComposableMetrics) {
  EXPECT_FALSE(make_preset(sample_metric(false)).has_value());
}

TEST(MakePresets, FiltersWholeList) {
  auto presets = make_presets({sample_metric(true), sample_metric(false)});
  EXPECT_EQ(presets.size(), 1u);
}

TEST(PresetSerialization, TableFormat) {
  auto presets = make_presets({sample_metric()});
  const auto text = presets_to_table(presets);
  EXPECT_NE(text.find("PAPI_DP_OPS|DP Ops.|1*EV_A+2*EV_B|"),
            std::string::npos)
      << text;
}

TEST(PresetSerialization, JsonFormat) {
  auto presets = make_presets({sample_metric()});
  const auto text = presets_to_json(presets);
  EXPECT_NE(text.find("\"symbol\": \"PAPI_DP_OPS\""), std::string::npos);
  EXPECT_NE(text.find("\"event\": \"EV_A\""), std::string::npos);
  EXPECT_NE(text.find("\"coefficient\": 2"), std::string::npos);
}

TEST(PresetSerialization, JsonEscapesControlCharacters) {
  // Raw tab/CR/control bytes in a JSON string are invalid; the output must
  // parse back to the exact description.
  auto presets = make_presets({sample_metric()});
  presets[0].description = "tab\there\r\x01 \"q\" \\";
  const json::Value doc = json::parse(presets_to_json(presets));
  EXPECT_EQ(doc.as_array().at(0).at("description").as_string(),
            presets[0].description);
}

// --- vpapi derived events ----------------------------------------------------

pmu::Machine preset_machine() {
  pmu::Machine m("pm", 3, 11);
  m.add_event({"A", "", {{"x", 1.0}}, {}});
  m.add_event({"B", "", {{"y", 1.0}}, {}});
  m.add_event({"C", "", {{"z", 1.0}}, {}});
  m.add_event({"D", "", {{"w", 1.0}}, {}});
  return m;
}

TEST(DerivedEvents, RegisterAndQuery) {
  auto m = preset_machine();
  vpapi::Session s(m);
  vpapi::DerivedEvent d{"PAPI_XY", "x plus 2y", {{"A", 1.0}, {"B", 2.0}}};
  EXPECT_EQ(s.register_preset(d), vpapi::Status::ok);
  EXPECT_TRUE(s.query_event("PAPI_XY"));
  EXPECT_EQ(s.event_description("PAPI_XY"), "x plus 2y");
  EXPECT_EQ(s.enumerate_presets(), std::vector<std::string>{"PAPI_XY"});
}

TEST(DerivedEvents, RegistrationValidation) {
  auto m = preset_machine();
  vpapi::Session s(m);
  EXPECT_EQ(s.register_preset({"P", "", {}}), vpapi::Status::invalid_preset);
  EXPECT_EQ(s.register_preset({"", "", {{"A", 1.0}}}),
            vpapi::Status::invalid_preset);
  EXPECT_EQ(s.register_preset({"P", "", {{"NOPE", 1.0}}}),
            vpapi::Status::invalid_preset);
  EXPECT_EQ(s.register_preset({"A", "", {{"B", 1.0}}}),
            vpapi::Status::already_added);  // collides with raw event
  ASSERT_EQ(s.register_preset({"P", "", {{"A", 1.0}}}), vpapi::Status::ok);
  EXPECT_EQ(s.register_preset({"P", "", {{"B", 1.0}}}),
            vpapi::Status::already_added);
}

TEST(DerivedEvents, ReadComputesLinearCombination) {
  auto m = preset_machine();
  vpapi::Session s(m);
  s.register_preset({"PAPI_XY", "", {{"A", 1.0}, {"B", 2.0}}});
  const int set = s.create_eventset();
  ASSERT_EQ(s.add_event(set, "PAPI_XY"), vpapi::Status::ok);
  s.start(set);
  s.run_kernel(m.densify({{"x", 5.0}, {"y", 7.0}}), 0, 0);
  s.stop(set);
  std::vector<double> vals;
  ASSERT_EQ(s.read(set, vals), vpapi::Status::ok);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_DOUBLE_EQ(vals[0], 5.0 + 2.0 * 7.0);
}

TEST(DerivedEvents, PresetSharesCountersWithRawEvents) {
  auto m = preset_machine();  // 3 counters
  vpapi::Session s(m);
  s.register_preset({"P", "", {{"A", 1.0}, {"B", -1.0}}});
  const int set = s.create_eventset();
  ASSERT_EQ(s.add_event(set, "A"), vpapi::Status::ok);
  // Preset needs A and B; A is already counted -> only one new counter.
  ASSERT_EQ(s.add_event(set, "P"), vpapi::Status::ok);
  EXPECT_EQ(s.counters_in_use(set), 2u);
  // A third raw event still fits; a fourth does not.
  ASSERT_EQ(s.add_event(set, "C"), vpapi::Status::ok);
  EXPECT_EQ(s.add_event(set, "D"), vpapi::Status::conflict);
}

TEST(DerivedEvents, PresetTooWideForCounters) {
  pmu::Machine m("small", 2, 1);
  m.add_event({"A", "", {}, {}});
  m.add_event({"B", "", {}, {}});
  m.add_event({"C", "", {}, {}});
  vpapi::Session s(m);
  s.register_preset({"P", "", {{"A", 1.0}, {"B", 1.0}, {"C", 1.0}}});
  const int set = s.create_eventset();
  EXPECT_EQ(s.add_event(set, "P"), vpapi::Status::conflict);
}

TEST(DerivedEvents, RemovePresetFreesOnlyUnsharedCounters) {
  auto m = preset_machine();
  vpapi::Session s(m);
  s.register_preset({"P", "", {{"A", 1.0}, {"B", 1.0}}});
  const int set = s.create_eventset();
  s.add_event(set, "A");
  s.add_event(set, "P");
  ASSERT_EQ(s.counters_in_use(set), 2u);
  ASSERT_EQ(s.remove_event(set, "P"), vpapi::Status::ok);
  // B's counter freed; A's counter still held by the raw item.
  EXPECT_EQ(s.counters_in_use(set), 1u);
  std::vector<double> vals;
  s.start(set);
  s.run_kernel(m.densify({{"x", 3.0}}), 0, 0);
  s.stop(set);
  ASSERT_EQ(s.read(set, vals), vpapi::Status::ok);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_DOUBLE_EQ(vals[0], 3.0);
}

TEST(DerivedEvents, DuplicateConstituentCountedOnce) {
  auto m = preset_machine();
  vpapi::Session s(m);
  // 3*A - 1*A is legal and must allocate exactly one counter.
  s.register_preset({"P", "", {{"A", 3.0}, {"A", -1.0}}});
  const int set = s.create_eventset();
  ASSERT_EQ(s.add_event(set, "P"), vpapi::Status::ok);
  EXPECT_EQ(s.counters_in_use(set), 1u);
  s.start(set);
  s.run_kernel(m.densify({{"x", 10.0}}), 0, 0);
  s.stop(set);
  std::vector<double> vals;
  s.read(set, vals);
  EXPECT_DOUBLE_EQ(vals[0], 20.0);
}

TEST(DerivedEvents, EndToEndFromPipeline) {
  // Full loop: pipeline discovers metrics -> presets -> registered in a
  // fresh session -> read during a "user application" and checked against
  // ground truth.
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  const auto result =
      run_pipeline(machine, bench, cpu_flops_signatures());
  const auto presets = make_presets(result.metrics);
  ASSERT_GE(presets.size(), 4u);

  vpapi::Session session(machine);
  EXPECT_EQ(register_presets(session, presets), presets.size());

  // "User application": 100 iterations of 3 DP-AVX256-FMA + 5 scalar-DP
  // instructions -> DP FLOPs = 100 * (3 * 8 + 5) = 2900.
  pmu::Activity app;
  app[pmu::sig::fp("256", "dp", true)] = 300.0;
  app[pmu::sig::fp("scalar", "dp", false)] = 500.0;

  const int set = session.create_eventset();
  ASSERT_EQ(session.add_event(set, "PAPI_DP_OPS"), vpapi::Status::ok);
  session.start(set);
  session.run_kernel(machine.densify(app), 0, 0);
  session.stop(set);
  std::vector<double> vals;
  ASSERT_EQ(session.read(set, vals), vpapi::Status::ok);
  EXPECT_DOUBLE_EQ(vals[0], 2900.0);
}

}  // namespace
}  // namespace catalyst::core
