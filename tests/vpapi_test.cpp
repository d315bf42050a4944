// Unit tests for the PAPI-flavoured shim and the multiplexed collector.
#include "vpapi/collector.hpp"

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
  s.run_kernel({{"x", 10.0}}, 0, 0);
  s.run_kernel({{"x", 5.0}}, 0, 1);
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
  s.run_kernel({{"x", 10.0}}, 0, 0);
  s.stop(set);
  s.run_kernel({{"x", 100.0}}, 0, 1);  // not counted
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
  s.run_kernel({{"x", 10.0}}, 0, 0);
  s.reset(set);
  s.run_kernel({{"x", 3.0}}, 0, 1);
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
  s.run_kernel({{"x", 4.0}, {"y", 9.0}}, 0, 0);
  s.start(s2);
  s.run_kernel({{"x", 1.0}, {"y", 1.0}}, 0, 1);
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
  auto groups = schedule_groups(m, {"A", "B", "C", "N", "Z"});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[1].size(), 2u);
  EXPECT_EQ(groups[2].size(), 1u);
}

TEST(Scheduler, EmptyListGivesNoGroups) {
  auto m = tiny_machine(2);
  EXPECT_TRUE(schedule_groups(m, {}).empty());
}

TEST(Collector, CollectsAllEventsOverAllKernels) {
  auto m = tiny_machine(2);
  std::vector<pmu::Activity> acts{{{"x", 1.0}, {"y", 10.0}},
                                  {{"x", 2.0}, {"y", 20.0}},
                                  {{"x", 3.0}, {"y", 30.0}}};
  auto res = collect(m, m.event_names(), acts, reps(2));
  EXPECT_EQ(res.event_names.size(), 5u);
  EXPECT_EQ(res.repetitions.size(), 2u);
  EXPECT_EQ(res.runs_per_repetition, 3u);  // 5 events / 2 counters
  // Deterministic events agree across repetitions.
  EXPECT_EQ(res.repetitions[0].values[0], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(res.repetitions[1].values[0], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(res.repetitions[0].values[1], (std::vector<double>{2, 4, 6}));
  EXPECT_EQ(res.repetitions[0].values[2], (std::vector<double>{10, 20, 30}));
  EXPECT_EQ(res.repetitions[0].values[4], (std::vector<double>{0, 0, 0}));
}

TEST(Collector, NoisyEventDiffersAcrossRepetitions) {
  auto m = tiny_machine(2);
  std::vector<pmu::Activity> acts{{{"x", 1e6}}, {{"x", 2e6}}};
  auto res = collect(m, {"N"}, acts, reps(2));
  EXPECT_NE(res.repetitions[0].values[0], res.repetitions[1].values[0]);
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
    ASSERT_EQ(parallel.repetitions.size(), serial.repetitions.size());
    for (std::size_t rep = 0; rep < serial.repetitions.size(); ++rep) {
      EXPECT_EQ(parallel.repetitions[rep].values,
                serial.repetitions[rep].values)
          << "threads=" << threads << " rep=" << rep;
    }
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
  for (std::size_t rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(r1.repetitions[rep].values, r2.repetitions[rep].values);
  }
}

}  // namespace
}  // namespace catalyst::vpapi
