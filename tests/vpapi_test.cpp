// Unit tests for the PAPI-flavoured shim and the multiplexed collector.
#include "vpapi/collector.hpp"

#include <algorithm>

#include <gtest/gtest.h>

namespace catalyst::vpapi {
namespace {

/// A plan for `n` repetitions on `threads` workers.
CollectionPlan reps(std::size_t n, int threads = 1) {
  CollectionPlan plan;
  plan.repetitions = n;
  plan.threads = threads;
  return plan;
}

pmu::Machine tiny_machine(std::size_t counters = 2) {
  pmu::Machine m("tiny", counters, 7);
  m.add_event({"A", "signal x", {{"x", 1.0}}, {}});
  m.add_event({"B", "2x", {{"x", 2.0}}, {}});
  m.add_event({"C", "y", {{"y", 1.0}}, {}});
  m.add_event({"N", "noisy x", {{"x", 1.0}}, pmu::NoiseModel::relative(0.05)});
  m.add_event({"Z", "dead", {}, {}});
  return m;
}

TEST(SessionTest, QueryAndEnumerate) {
  auto m = tiny_machine();
  Session s(m);
  EXPECT_TRUE(s.query_event("A"));
  EXPECT_FALSE(s.query_event("nope"));
  EXPECT_EQ(s.enumerate_events().size(), 5u);
  EXPECT_EQ(s.event_description("B"), "2x");
  EXPECT_EQ(s.event_description("nope"), "");
}

TEST(SessionTest, AddEventErrors) {
  auto m = tiny_machine(2);
  Session s(m);
  const int set = s.create_eventset();
  EXPECT_EQ(s.add_event(set, "A"), Status::ok);
  EXPECT_EQ(s.add_event(set, "A"), Status::already_added);
  EXPECT_EQ(s.add_event(set, "nope"), Status::no_such_event);
  EXPECT_EQ(s.add_event(set, "B"), Status::ok);
  // Third event exceeds the 2 physical counters.
  EXPECT_EQ(s.add_event(set, "C"), Status::conflict);
  EXPECT_EQ(s.add_event(99, "A"), Status::no_such_eventset);
}

TEST(SessionTest, LifecycleEnforcement) {
  auto m = tiny_machine();
  Session s(m);
  const int set = s.create_eventset();
  s.add_event(set, "A");
  EXPECT_EQ(s.stop(set), Status::not_running);
  std::vector<double> vals;
  EXPECT_EQ(s.read(set, vals), Status::not_running);
  EXPECT_EQ(s.start(set), Status::ok);
  EXPECT_EQ(s.start(set), Status::is_running);
  EXPECT_EQ(s.add_event(set, "B"), Status::is_running);
  EXPECT_EQ(s.destroy_eventset(set), Status::is_running);
  EXPECT_EQ(s.stop(set), Status::ok);
  EXPECT_EQ(s.read(set, vals), Status::ok);
  EXPECT_EQ(s.destroy_eventset(set), Status::ok);
  EXPECT_EQ(s.start(set), Status::no_such_eventset);
}

TEST(SessionTest, CountsAccumulateAcrossKernels) {
  auto m = tiny_machine();
  Session s(m);
  const int set = s.create_eventset();
  s.add_event(set, "A");
  s.add_event(set, "B");
  s.start(set);
  s.run_kernel(m.densify({{"x", 10.0}}), 0, 0);
  s.run_kernel(m.densify({{"x", 5.0}}), 0, 1);
  s.stop(set);
  std::vector<double> vals;
  ASSERT_EQ(s.read(set, vals), Status::ok);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_DOUBLE_EQ(vals[0], 15.0);
  EXPECT_DOUBLE_EQ(vals[1], 30.0);
}

TEST(SessionTest, StoppedSetDoesNotCount) {
  auto m = tiny_machine();
  Session s(m);
  const int set = s.create_eventset();
  s.add_event(set, "A");
  s.start(set);
  s.run_kernel(m.densify({{"x", 10.0}}), 0, 0);
  s.stop(set);
  s.run_kernel(m.densify({{"x", 100.0}}), 0, 1);  // not counted
  std::vector<double> vals;
  s.read(set, vals);
  EXPECT_DOUBLE_EQ(vals[0], 10.0);
}

TEST(SessionTest, ResetZeroesCounts) {
  auto m = tiny_machine();
  Session s(m);
  const int set = s.create_eventset();
  s.add_event(set, "A");
  s.start(set);
  s.run_kernel(m.densify({{"x", 10.0}}), 0, 0);
  s.reset(set);
  s.run_kernel(m.densify({{"x", 3.0}}), 0, 1);
  s.stop(set);
  std::vector<double> vals;
  s.read(set, vals);
  EXPECT_DOUBLE_EQ(vals[0], 3.0);
}

TEST(SessionTest, RemoveEvent) {
  auto m = tiny_machine();
  Session s(m);
  const int set = s.create_eventset();
  s.add_event(set, "A");
  s.add_event(set, "B");
  EXPECT_EQ(s.remove_event(set, "A"), Status::ok);
  EXPECT_EQ(s.list_events(set), std::vector<std::string>{"B"});
  EXPECT_EQ(s.remove_event(set, "A"), Status::no_such_event);
}

TEST(SessionTest, TwoSetsRunIndependently) {
  auto m = tiny_machine();
  Session s(m);
  const int s1 = s.create_eventset();
  const int s2 = s.create_eventset();
  s.add_event(s1, "A");
  s.add_event(s2, "C");
  s.start(s1);
  s.run_kernel(m.densify({{"x", 4.0}, {"y", 9.0}}), 0, 0);
  s.start(s2);
  s.run_kernel(m.densify({{"x", 1.0}, {"y", 1.0}}), 0, 1);
  s.stop(s1);
  s.stop(s2);
  std::vector<double> v1, v2;
  s.read(s1, v1);
  s.read(s2, v2);
  EXPECT_DOUBLE_EQ(v1[0], 5.0);  // saw both kernels
  EXPECT_DOUBLE_EQ(v2[0], 1.0);  // only the second
}

TEST(Scheduler, GroupsRespectCounterBudget) {
  auto m = tiny_machine(2);
  const auto schedule = schedule_event_sets(m, {"A", "B", "C", "N", "Z"});
  ASSERT_EQ(schedule.runs.size(), 3u);
  EXPECT_EQ(schedule.runs[0].events, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(schedule.runs[1].events, (std::vector<std::string>{"C", "N"}));
  EXPECT_EQ(schedule.runs[2].events, (std::vector<std::string>{"Z"}));
}

TEST(Scheduler, EmptyListGivesNoGroups) {
  auto m = tiny_machine(2);
  EXPECT_TRUE(schedule_event_sets(m, {}).runs.empty());
}

TEST(Collector, CollectsAllEventsOverAllKernels) {
  auto m = tiny_machine(2);
  std::vector<pmu::Activity> acts{{{"x", 1.0}, {"y", 10.0}},
                                  {{"x", 2.0}, {"y", 20.0}},
                                  {{"x", 3.0}, {"y", 30.0}}};
  auto res = collect(m, m.event_names(), acts, reps(2));
  EXPECT_EQ(res.event_names.size(), 5u);
  EXPECT_EQ(res.measurements.size(), 5u);
  EXPECT_EQ(res.measurements.repetitions(), 2u);
  EXPECT_EQ(res.measurements.slots(), 3u);
  EXPECT_EQ(res.runs_per_repetition, 3u);  // 5 events / 2 counters
  // Deterministic events agree across repetitions.
  const auto row = [&res](std::size_t e, std::size_t r) {
    const auto span = res.measurements.row(e, r);
    return std::vector<double>(span.begin(), span.end());
  };
  EXPECT_EQ(row(0, 0), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(row(0, 1), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(row(1, 0), (std::vector<double>{2, 4, 6}));
  EXPECT_EQ(row(2, 0), (std::vector<double>{10, 20, 30}));
  EXPECT_EQ(row(4, 0), (std::vector<double>{0, 0, 0}));
}

TEST(Collector, NoisyEventDiffersAcrossRepetitions) {
  auto m = tiny_machine(2);
  std::vector<pmu::Activity> acts{{{"x", 1e6}}, {{"x", 2e6}}};
  auto res = collect(m, {"N"}, acts, reps(2));
  const auto r0 = res.measurements.row(0, 0);
  const auto r1 = res.measurements.row(0, 1);
  EXPECT_FALSE(std::equal(r0.begin(), r0.end(), r1.begin()));
}

TEST(Collector, UnknownEventThrows) {
  auto m = tiny_machine();
  EXPECT_THROW(collect(m, {"nope"}, {{{"x", 1.0}}}),
               std::invalid_argument);
}

TEST(Collector, ZeroRepetitionsThrows) {
  auto m = tiny_machine();
  EXPECT_THROW(collect(m, {"A"}, {{{"x", 1.0}}}, reps(0)),
               std::invalid_argument);
}

TEST(Collector, ThreadedCollectionBitIdenticalToSerial) {
  auto m = tiny_machine(2);
  std::vector<pmu::Activity> acts{{{"x", 5e5}, {"y", 2e5}},
                                  {{"x", 1e6}, {"y", 4e5}},
                                  {{"x", 2e6}, {"y", 8e5}}};
  const auto serial = collect(m, m.event_names(), acts, reps(4));
  for (int threads : {2, 4, 8}) {
    const auto parallel =
        collect(m, m.event_names(), acts, reps(4, threads));
    EXPECT_EQ(parallel.measurements, serial.measurements)
        << "threads=" << threads;
  }
}

TEST(Collector, RejectsZeroThreads) {
  auto m = tiny_machine();
  EXPECT_THROW(collect(m, {"A"}, {{{"x", 1.0}}}, reps(1, 0)),
               std::invalid_argument);
}

TEST(Collector, DeterministicEndToEnd) {
  auto m = tiny_machine(2);
  std::vector<pmu::Activity> acts{{{"x", 5e5}}, {{"x", 1e6}}};
  auto r1 = collect(m, m.event_names(), acts, reps(3));
  auto r2 = collect(m, m.event_names(), acts, reps(3));
  EXPECT_EQ(r1.measurements, r2.measurements);
}

// --- the (event, repetition, slot) measurement tensor ------------------------

/// A 3 x 2 x 4 tensor whose reading (e, r, k) is 100e + 10r + k.
Measurements numbered_tensor() {
  Measurements m(3, 2, 4);
  for (std::size_t e = 0; e < m.size(); ++e) {
    for (std::size_t r = 0; r < m.repetitions(); ++r) {
      for (std::size_t k = 0; k < m.slots(); ++k) {
        m.row(e, r)[k] = 100.0 * e + 10.0 * r + k;
      }
    }
  }
  return m;
}

TEST(Measurements, RowsAndEventBlocksAddressOneRowMajorBlock) {
  const Measurements m = numbered_tensor();
  ASSERT_EQ(m.values().size(), 3u * 2u * 4u);
  // (event, repetition, slot) row-major: the packed-SUBMIT order.
  for (std::size_t i = 0; i < m.values().size(); ++i) {
    const std::size_t e = i / 8, r = (i / 4) % 2, k = i % 4;
    EXPECT_EQ(m.values()[i], 100.0 * e + 10.0 * r + k) << "index " << i;
  }
  const auto row = m.row(2, 1);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row.data(), m.values().data() + (2 * 2 + 1) * 4);
  const auto block = m.event(1);
  ASSERT_EQ(block.size(), 8u);
  EXPECT_EQ(block.data(), m.values().data() + 8);
  EXPECT_EQ(block[5], 111.0);  // repetition 1, slot 1
}

TEST(Measurements, AdoptsAValueBlockOnlyOfTheDeclaredShape) {
  const Measurements m(2, 3, 2, std::vector<double>(12, 1.5));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.repetitions(), 3u);
  EXPECT_EQ(m.slots(), 2u);
  EXPECT_THROW(Measurements(2, 3, 2, std::vector<double>(11)),
               std::invalid_argument);
  EXPECT_THROW(Measurements(2, 3, 2, std::vector<double>(13)),
               std::invalid_argument);
  EXPECT_NO_THROW(Measurements(0, 3, 2, {}));
  // The literal form refuses ragged blocks.
  EXPECT_THROW((Measurements{{{1.0, 2.0}}, {{1.0}}}), std::invalid_argument);
  EXPECT_THROW((Measurements{{{1.0}}, {{1.0}, {2.0}}}),
               std::invalid_argument);
  EXPECT_EQ((Measurements{{{1.0, 2.0}, {3.0, 4.0}}}),
            Measurements(1, 2, 2, {1.0, 2.0, 3.0, 4.0}));
}

TEST(Measurements, KeepEventsCompactsInOrder) {
  Measurements none = numbered_tensor();
  none.keep_events({1, 1, 1});
  EXPECT_EQ(none, numbered_tensor());

  Measurements some = numbered_tensor();
  some.keep_events({1, 0, 1});
  ASSERT_EQ(some.size(), 2u);
  EXPECT_EQ(some.values().size(), 2u * 2u * 4u);
  EXPECT_EQ(some.row(0, 1)[3], 13.0);   // event 0 stays first
  EXPECT_EQ(some.row(1, 0)[0], 200.0);  // event 2 moves up
  EXPECT_EQ(some.row(1, 1)[2], 212.0);

  Measurements all = numbered_tensor();
  all.keep_events({0, 0, 0});
  EXPECT_EQ(all.size(), 0u);
  EXPECT_TRUE(all.values().empty());
  EXPECT_EQ(all.repetitions(), 2u);
  EXPECT_EQ(all.slots(), 4u);

  Measurements wrong = numbered_tensor();
  EXPECT_THROW(wrong.keep_events({1, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace catalyst::vpapi
