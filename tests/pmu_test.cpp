// Unit tests for the simulated PMU: event algebra, noise determinism, and
// the structural properties of the two machine models that the paper's
// pipeline depends on.
#include "pmu/pmu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

namespace catalyst::pmu {
namespace {

// One event's readings over a kernel sequence at repetition `rep`.
std::vector<double> readings(const Machine& m, const EventDefinition& event,
                             const std::vector<Activity>& acts,
                             std::uint64_t rep) {
  std::vector<double> out;
  for (std::size_t k = 0; k < acts.size(); ++k) {
    out.push_back(measure_event(m, event, acts[k], rep, k));
  }
  return out;
}

TEST(Event, IdealIsLinearFunctional) {
  EventDefinition e;
  e.terms = {{"a", 2.0}, {"b", -1.0}};
  Activity act{{"a", 10.0}, {"b", 3.0}, {"c", 99.0}};
  EXPECT_DOUBLE_EQ(e.ideal(act), 17.0);
}

TEST(Event, MissingSignalsCountAsZero) {
  EventDefinition e;
  e.terms = {{"missing", 5.0}};
  EXPECT_DOUBLE_EQ(e.ideal({}), 0.0);
}

TEST(NoiseModelTest, NoiseFreePredicate) {
  EXPECT_TRUE(NoiseModel::none().is_noise_free());
  EXPECT_FALSE(NoiseModel::relative(1e-3).is_noise_free());
  EXPECT_FALSE(NoiseModel::absolute(1.0).is_noise_free());
  EXPECT_FALSE(NoiseModel::spiky(0.1, 5.0).is_noise_free());
}

TEST(MachineTest, RejectsDuplicateEventNames) {
  Machine m("test", 4, 1);
  m.add_event(EventDefinition{"E1", "", {}, {}});
  EXPECT_THROW(m.add_event(EventDefinition{"E1", "", {}, {}}),
               std::invalid_argument);
}

TEST(MachineTest, RejectsNonFiniteCoefficients) {
  // In the dense sum an absent signal contributes coefficient * 0.0, which
  // is NaN for +/-inf; the machine refuses such an event outright and is
  // left as it was.
  Machine m("test", 4, 1);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(m.add_event(EventDefinition{
                     "E", "", {{"x", 1.0}, {"y", bad}}, {}}),
                 std::invalid_argument);
  }
  EXPECT_EQ(m.num_events(), 0u);
  EXPECT_EQ(m.num_signals(), 0u);
  m.add_event(EventDefinition{"E", "", {{"x", 1.0}}, {}});
  EXPECT_EQ(m.num_signals(), 1u);
}

TEST(MachineTest, DensifyUsesFirstAppearanceIdsAndZeroFill) {
  Machine m("test", 4, 1);
  m.add_event(EventDefinition{"E1", "", {{"b", 1.0}, {"a", 2.0}}, {}});
  m.add_event(EventDefinition{"E2", "", {{"a", 1.0}, {"c", -1.0}}, {}});
  ASSERT_EQ(m.num_signals(), 3u);
  // ids: b = 0, a = 1, c = 2; "zzz" is read by no event and is dropped.
  EXPECT_EQ(m.densify({{"a", 5.0}, {"zzz", 9.0}}),
            (std::vector<double>{0.0, 5.0, 0.0}));
  const std::vector<double> sig = m.densify({{"a", 5.0}, {"b", 1.0}});
  EXPECT_DOUBLE_EQ(m.ideal(0, sig), 11.0);
  EXPECT_DOUBLE_EQ(m.ideal(1, sig), 5.0);
  EXPECT_THROW(m.ideal(2, sig), std::invalid_argument);
  EXPECT_THROW(m.ideal(0, std::vector<double>(2)), std::invalid_argument);
}

TEST(MachineTest, RejectsZeroCounters) {
  EXPECT_THROW(Machine("bad", 0, 1), std::invalid_argument);
}

TEST(MachineTest, FindByName) {
  Machine m("test", 4, 1);
  m.add_event(EventDefinition{"E1", "", {}, {}});
  m.add_event(EventDefinition{"E2", "", {}, {}});
  EXPECT_EQ(m.find("E2"), 1u);
  EXPECT_FALSE(m.find("nope").has_value());
}

TEST(Hashing, Fnv1aMatchesKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hashing, MachineCachesEventNameHash) {
  // add_event must stamp fnv1a(name) on the stored event so the measurement
  // hot path never re-hashes; a free-standing copy with the cache cleared
  // must still land in the same noise stream (fallback hashing).
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E1", "", {{"x", 1.0}},
                              NoiseModel::relative(1e-2)});
  EXPECT_EQ(m.event(0).name_hash, fnv1a("E1"));
  EventDefinition uncached = m.event(0);
  uncached.name_hash = 0;
  Activity act{{"x", 1e6}};
  EXPECT_DOUBLE_EQ(measure_event(m, m.event(0), act, 2, 3),
                   measure_event(m, uncached, act, 2, 3));
}

TEST(Measure, NoiseFreeEventIsExactAndInteger) {
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E", "", {{"x", 2.0}}, NoiseModel::none()});
  Activity act{{"x", 21.0}};
  const double v = measure_event(m, m.event(0), act, 0, 0);
  EXPECT_DOUBLE_EQ(v, 42.0);
  // Identical across repetitions.
  EXPECT_DOUBLE_EQ(measure_event(m, m.event(0), act, 7, 0), 42.0);
}

TEST(Measure, ReadingsAreNonNegativeIntegers) {
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E", "", {{"x", 1.0}},
                              NoiseModel::absolute(50.0)});
  Activity act{{"x", 10.0}};
  for (std::uint64_t rep = 0; rep < 50; ++rep) {
    const double v = measure_event(m, m.event(0), act, rep, 0);
    EXPECT_GE(v, 0.0);
    EXPECT_DOUBLE_EQ(v, std::round(v));
  }
}

TEST(Measure, NoisyEventIsDeterministicPerCoordinates) {
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E", "", {{"x", 1.0}},
                              NoiseModel::relative(1e-2)});
  Activity act{{"x", 1e6}};
  const double v1 = measure_event(m, m.event(0), act, 3, 5);
  const double v2 = measure_event(m, m.event(0), act, 3, 5);
  EXPECT_DOUBLE_EQ(v1, v2);
}

TEST(Measure, NoisyEventVariesAcrossRepetitions) {
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E", "", {{"x", 1.0}},
                              NoiseModel::relative(1e-2)});
  Activity act{{"x", 1e6}};
  std::set<double> values;
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    values.insert(measure_event(m, m.event(0), act, rep, 0));
  }
  EXPECT_GT(values.size(), 5u);
}

TEST(Measure, NoiseVariesAcrossKernelsToo) {
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E", "", {{"x", 1.0}},
                              NoiseModel::relative(1e-2)});
  Activity act{{"x", 1e6}};
  EXPECT_NE(measure_event(m, m.event(0), act, 0, 0),
            measure_event(m, m.event(0), act, 0, 1));
}

TEST(Measure, DriftGrowsMonotonicallyAcrossRepetitions) {
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E", "", {{"x", 1.0}},
                              NoiseModel::drifting(1e-2)});
  Activity act{{"x", 1e6}};
  double prev = 0.0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const double v = measure_event(m, m.event(0), act, rep, 0);
    EXPECT_GT(v, prev);
    prev = v;
  }
  // rep 0 is unscaled; rep 4 is +4%.
  EXPECT_DOUBLE_EQ(measure_event(m, m.event(0), act, 0, 0), 1e6);
  EXPECT_DOUBLE_EQ(measure_event(m, m.event(0), act, 4, 0), 1.04e6);
}

TEST(Measure, DriftIsCaughtByRnmseStyleComparison) {
  // The max-RNMSE filter compares repetition pairs; with 1% drift per rep
  // the (0, 4) pair differs by ~4%, far above a 1e-10 tau.
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E", "", {{"x", 1.0}},
                              NoiseModel::drifting(1e-2)});
  std::vector<Activity> acts{{{"x", 1e6}}, {{"x", 2e6}}};
  const auto v0 = readings(m, m.event(0), acts, 0);
  const auto v4 = readings(m, m.event(0), acts, 4);
  double max_rel = 0.0;
  for (std::size_t i = 0; i < v0.size(); ++i) {
    max_rel = std::max(max_rel, std::fabs(v4[i] - v0[i]) / v0[i]);
  }
  EXPECT_GT(max_rel, 1e-3);
}

TEST(Measure, VectorAndAllShapes) {
  Machine m("test", 4, 99);
  m.add_event(EventDefinition{"E1", "", {{"x", 1.0}}, {}});
  m.add_event(EventDefinition{"E2", "", {{"x", 3.0}}, {}});
  std::vector<Activity> acts{{{"x", 1.0}}, {{"x", 2.0}}, {{"x", 3.0}}};
  auto vec = readings(m, m.event(1), acts, 0);
  EXPECT_EQ(vec, (std::vector<double>{3, 6, 9}));
  std::vector<std::vector<double>> all;
  for (const EventDefinition& e : m.events()) {
    all.push_back(readings(m, e, acts, 0));
  }
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(all[1], (std::vector<double>{3, 6, 9}));
}

// --- Saphira model structure -------------------------------------------------

TEST(Saphira, HasExpectedScale) {
  const Machine m = saphira_cpu();
  EXPECT_GE(m.num_events(), 300u);
  EXPECT_LE(m.num_events(), 450u);
  EXPECT_EQ(m.physical_counters(), 8u);
}

TEST(Saphira, HasTheEightFpArithEvents) {
  const Machine m = saphira_cpu();
  for (const char* n :
       {"FP_ARITH_INST_RETIRED:SCALAR_SINGLE",
        "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
        "FP_ARITH_INST_RETIRED:128B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE",
        "FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE",
        "FP_ARITH_INST_RETIRED:512B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE"}) {
    EXPECT_TRUE(m.find(n).has_value()) << n;
  }
}

TEST(Saphira, FpArithCountsFmaTwice) {
  const Machine m = saphira_cpu();
  const auto& e = m.event(*m.find("FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE"));
  Activity nonfma{{sig::fp("128", "dp", false), 10.0}};
  Activity fma{{sig::fp("128", "dp", true), 10.0}};
  EXPECT_DOUBLE_EQ(e.ideal(nonfma), 10.0);
  EXPECT_DOUBLE_EQ(e.ideal(fma), 20.0);
}

TEST(Saphira, FpArithEventsAreNoiseFree) {
  const Machine m = saphira_cpu();
  const auto& e = m.event(*m.find("FP_ARITH_INST_RETIRED:SCALAR_DOUBLE"));
  EXPECT_TRUE(e.noise.is_noise_free());
}

TEST(Saphira, NoEventMeasuresSpeculativeCondBranches) {
  // Table VII requires "Conditional Branches Executed" to be non-composable:
  // no Saphira event may read the branch.cond.executed signal.
  const Machine m = saphira_cpu();
  for (const auto& e : m.events()) {
    for (const auto& t : e.terms) {
      EXPECT_NE(t.signal, sig::branch_cond_exec) << "in event " << e.name;
    }
  }
}

TEST(Saphira, AllBranchesIsLinearCombination) {
  const Machine m = saphira_cpu();
  const auto& e = m.event(*m.find("BR_INST_RETIRED:ALL_BRANCHES"));
  Activity act{{sig::branch_cond_retired, 7.0}, {sig::branch_uncond, 3.0}};
  EXPECT_DOUBLE_EQ(e.ideal(act), 10.0);
}

TEST(Saphira, CacheEventsAreNoisy) {
  const Machine m = saphira_cpu();
  for (const char* n : {"MEM_LOAD_RETIRED:L1_HIT", "MEM_LOAD_RETIRED:L1_MISS",
                        "L2_RQSTS:DEMAND_DATA_RD_HIT",
                        "MEM_LOAD_RETIRED:L3_HIT"}) {
    EXPECT_FALSE(m.event(*m.find(n)).noise.is_noise_free()) << n;
  }
}

TEST(Saphira, CycleCountersHaveLargeCoefficientsOnCycles) {
  const Machine m = saphira_cpu();
  const auto& slots = m.event(*m.find("TOPDOWN:SLOTS"));
  ASSERT_EQ(slots.terms.size(), 1u);
  EXPECT_EQ(slots.terms[0].signal, sig::cycles);
  EXPECT_DOUBLE_EQ(slots.terms[0].coefficient, 6.0);
}

TEST(Saphira, BuildIsDeterministic) {
  const Machine a = saphira_cpu();
  const Machine b = saphira_cpu();
  ASSERT_EQ(a.num_events(), b.num_events());
  for (std::size_t i = 0; i < a.num_events(); ++i) {
    EXPECT_EQ(a.event(i).name, b.event(i).name);
    EXPECT_EQ(a.event(i).noise.rel_sigma, b.event(i).noise.rel_sigma);
    ASSERT_EQ(a.event(i).terms.size(), b.event(i).terms.size());
    for (std::size_t t = 0; t < a.event(i).terms.size(); ++t) {
      EXPECT_EQ(a.event(i).terms[t].signal, b.event(i).terms[t].signal);
      EXPECT_EQ(a.event(i).terms[t].coefficient,
                b.event(i).terms[t].coefficient);
    }
  }
}

// --- Tempest model structure ----------------------------------------------------

TEST(Tempest, HasExpectedScale) {
  const Machine m = tempest_gpu();
  EXPECT_GE(m.num_events(), 1000u);
  EXPECT_LE(m.num_events(), 1500u);
}

TEST(Tempest, TwelveValuFpCountersPerDevice) {
  const Machine m = tempest_gpu();
  for (int dev = 0; dev < 8; ++dev) {
    for (const char* op : {"ADD", "MUL", "TRANS", "FMA"}) {
      for (const char* p : {"F16", "F32", "F64"}) {
        const std::string name = std::string("rocm:::SQ_INSTS_VALU_") + op +
                                 "_" + p + ":device=" + std::to_string(dev);
        EXPECT_TRUE(m.find(name).has_value()) << name;
      }
    }
  }
}

TEST(Tempest, AddCounterCountsAddAndSub) {
  const Machine m = tempest_gpu();
  const auto& e = m.event(*m.find("rocm:::SQ_INSTS_VALU_ADD_F16:device=0"));
  Activity add{{sig::gpu_valu("add", "f16"), 5.0}};
  Activity sub{{sig::gpu_valu("sub", "f16"), 5.0}};
  EXPECT_DOUBLE_EQ(e.ideal(add), 5.0);
  EXPECT_DOUBLE_EQ(e.ideal(sub), 5.0);
}

TEST(Tempest, IdleDevicesHaveNoInstructionSignal) {
  const Machine m = tempest_gpu();
  for (int dev = 1; dev < 8; ++dev) {
    const auto& e = m.event(*m.find("rocm:::SQ_INSTS_VALU_FMA_F64:device=" +
                                    std::to_string(dev)));
    EXPECT_TRUE(e.terms.empty()) << "device " << dev;
  }
}

TEST(Tempest, IdleDeviceClockStillTicks) {
  // Idle-device GRBM_COUNT must be nonzero-noisy so it survives the
  // zero-measurement discard rule (Fig. 2c's long tail).
  const Machine m = tempest_gpu();
  const auto& e = m.event(*m.find("rocm:::GRBM_COUNT:device=3"));
  EXPECT_FALSE(e.noise.is_noise_free());
  double sum = 0.0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    sum += measure_event(m, e, {}, rep, 0);
  }
  EXPECT_GT(sum, 0.0);
}

TEST(Tempest, Device0FmaIsNoiseFree) {
  const Machine m = tempest_gpu();
  const auto& e = m.event(*m.find("rocm:::SQ_INSTS_VALU_FMA_F32:device=0"));
  EXPECT_TRUE(e.noise.is_noise_free());
  ASSERT_EQ(e.terms.size(), 1u);
  EXPECT_EQ(e.terms[0].signal, sig::gpu_valu("fma", "f32"));
}

}  // namespace
}  // namespace catalyst::pmu
