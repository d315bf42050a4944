// Differential test of the dense signal ids: pmu::Machine::ideal over
// Machine::densify(act) must carry the same bits as the event's own map
// form, EventDefinition::ideal(act), for every event of every shipped and
// generated machine over every slot activity of every benchmark, and a
// Session reading over a dense span must be exactly the reading
// measure_from_ideal gives from the map form.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cat/cat.hpp"
#include "modelgen/modelgen.hpp"
#include "pmu/pmu.hpp"
#include "vpapi/vpapi.hpp"

namespace catalyst {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every thread's activity in every slot of every category benchmark and of
/// the scale_10k model's benchmark.
std::vector<pmu::Activity> all_activities(const cat::Benchmark& model) {
  std::vector<pmu::Activity> acts;
  for (const cat::Benchmark& b :
       {cat::cpu_flops_benchmark(), cat::gpu_flops_benchmark(),
        cat::branch_benchmark(), cat::dcache_benchmark(),
        cat::icache_benchmark(), cat::gpu_dcache_benchmark(), model}) {
    for (const cat::KernelSlot& slot : b.slots) {
      acts.insert(acts.end(), slot.thread_activities.begin(),
                  slot.thread_activities.end());
    }
  }
  return acts;
}

// Counts the (event, activity) pairs whose dense ideal differs in any bit
// from the map ideal, reporting the first few.
std::size_t count_mismatches(const pmu::Machine& m,
                             const std::vector<pmu::Activity>& acts) {
  std::size_t mismatches = 0;
  for (const pmu::Activity& act : acts) {
    const std::vector<double> signals = m.densify(act);
    for (std::size_t e = 0; e < m.num_events(); ++e) {
      const double dense = m.ideal(e, signals);
      const double map = m.event(e).ideal(act);
      if (bits(dense) != bits(map) && ++mismatches <= 5) {
        ADD_FAILURE() << m.name() << " event " << m.event(e).name
                      << ": dense " << dense << " map " << map;
      }
    }
  }
  return mismatches;
}

TEST(DenseSignals, MachineIdealHasTheBitsOfEventIdeal) {
  const modelgen::GeneratedModel model =
      modelgen::generate(modelgen::GeneratorSpec::scale_10k(2024));
  const std::vector<pmu::Activity> acts = all_activities(model.benchmark);
  ASSERT_GT(acts.size(), 100u);
  for (const pmu::Machine& m : {pmu::saphira_cpu(), pmu::tempest_gpu(),
                                pmu::vesuvio_cpu(), model.machine()}) {
    SCOPED_TRACE(m.name());
    EXPECT_GT(m.num_signals(), 0u);
    EXPECT_EQ(count_mismatches(m, acts), 0u);
  }
}

TEST(DenseSignals, SignedZerosAndRepeatedTermsKeepTheirBits) {
  // The edge cases of the c * 0.0 argument: negative coefficients on absent
  // signals (c * 0.0 is -0.0), an event none of whose signals is present
  // (the map sum stays +0.0), a signal read twice by one event, present
  // signals whose values are -0.0, and magnitudes where the term order
  // decides the rounding.
  pmu::Machine m("edge", 4, 1);
  m.add_event({"neg", "", {{"a", -3.0}, {"b", -0.5}, {"c", -1e300}}, {}});
  m.add_event({"twice", "", {{"a", 1.0}, {"b", 2.0}, {"a", -1.0}}, {}});
  m.add_event({"order", "", {{"c", 1.0}, {"a", 1.0}, {"b", 1.0}}, {}});
  m.add_event({"zero", "", {{"b", 0.0}, {"c", -0.0}}, {}});
  m.add_event({"empty", "", {}, {}});
  const std::vector<pmu::Activity> acts{
      {},
      {{"a", 1.0}},
      {{"a", -0.0}, {"c", -0.0}},
      {{"b", 3.0}, {"other", 7.0}},
      {{"a", 1.0}, {"b", -2.0}, {"c", 1.0}},
      {{"c", std::numeric_limits<double>::denorm_min()}},
      // In term order 1e16 + 1 + 1 is 1e16; in reverse order it is 1e16 + 2.
      {{"c", 1e16}, {"a", 1.0}, {"b", 1.0}}};
  EXPECT_EQ(count_mismatches(m, acts), 0u);
  EXPECT_EQ(bits(m.ideal(0, m.densify({}))), bits(0.0));  // not -0.0
}

TEST(DenseSignals, SessionReadingsEqualMeasureFromIdeal) {
  // Events of each noise model, driven kernel by kernel through a counting
  // set over dense spans: each reading is exactly the reading of the map
  // form at the same (repetition, kernel) coordinates.
  pmu::Machine m("tbl", 4, 77);
  m.add_event({"D", "", {{"x", 2.0}}, pmu::NoiseModel::none()});
  m.add_event({"R", "", {{"x", 1.0}}, pmu::NoiseModel::relative(0.05)});
  m.add_event({"S", "", {{"y", 1.0}}, pmu::NoiseModel::spiky(0.5, 1e4)});
  m.add_event({"A", "", {{"x", 1.0}, {"y", -1.0}},
               pmu::NoiseModel::absolute(30.0)});
  const std::vector<pmu::Activity> acts{
      {{"x", 1e6}, {"y", 2e6}}, {{"x", 3e6}}, {{"y", 5e5}}, {}};
  for (const std::uint64_t rep : {0u, 3u, 11u}) {
    vpapi::Session session(m);
    const int set = session.create_eventset();
    for (const char* n : {"D", "R", "S", "A"}) {
      ASSERT_EQ(session.add_event(set, n), vpapi::Status::ok);
    }
    for (std::size_t k = 0; k < acts.size(); ++k) {
      session.start(set);
      session.run_kernel(m.densify(acts[k]), rep, k);
      session.stop(set);
      std::vector<double> vals;
      ASSERT_EQ(session.read(set, vals), vpapi::Status::ok);
      session.reset(set);
      ASSERT_EQ(vals.size(), m.num_events());
      for (std::size_t e = 0; e < vals.size(); ++e) {
        const pmu::EventDefinition& ev = m.event(e);
        EXPECT_EQ(bits(vals[e]), bits(pmu::measure_from_ideal(
                                     m, ev, ev.ideal(acts[k]), rep, k)))
            << ev.name << " rep " << rep << " kernel " << k;
      }
    }
  }
}

TEST(DenseSignals, RunKernelRefusesASpanOfTheWrongSize) {
  const pmu::Machine m = pmu::saphira_cpu();
  vpapi::Session session(m);
  const int set = session.create_eventset();
  ASSERT_EQ(session.add_event(set, m.event(0).name), vpapi::Status::ok);
  session.start(set);
  for (const std::size_t n : {std::size_t{0}, m.num_signals() - 1,
                              m.num_signals() + 1}) {
    EXPECT_THROW(session.run_kernel(std::vector<double>(n), 0, 0),
                 std::invalid_argument)
        << n;
  }
  // Refused before any counter moved.
  session.stop(set);
  std::vector<double> vals;
  ASSERT_EQ(session.read(set, vals), vpapi::Status::ok);
  EXPECT_EQ(vals, std::vector<double>{0.0});
  // With no set running the size is still checked.
  vpapi::Session idle(m);
  EXPECT_THROW(idle.run_kernel(std::vector<double>(1), 0, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(idle.run_kernel(m.densify({}), 0, 0));
}

}  // namespace
}  // namespace catalyst
