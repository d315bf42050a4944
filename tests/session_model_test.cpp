// Model-based randomized testing of the vpapi Session state machine:
// random operation sequences are executed against both the real Session and
// a simple reference model; observable behaviour (status codes, list
// contents, counter budget, read values) must match at every step.
#include <gtest/gtest.h>

#include "seed_util.hpp"

#include <map>
#include <random>
#include <set>

#include "vpapi/vpapi.hpp"

namespace catalyst::vpapi {
namespace {

pmu::Machine model_machine() {
  pmu::Machine m("model", 3, 5);
  m.add_event({"A", "", {{"x", 1.0}}, {}});
  m.add_event({"B", "", {{"y", 2.0}}, {}});
  m.add_event({"C", "", {{"x", 1.0}, {"y", 1.0}}, {}});
  m.add_event({"D", "", {{"z", 3.0}}, {}});
  m.add_event({"E", "", {}, {}});
  return m;
}

// Reference model of one event set.  Mirrors the documented semantics only
// (no noise: the machine above is deterministic, so expected readings are
// exact linear functionals).
struct ModelSet {
  std::vector<std::string> items;      // add order
  std::set<std::string> raw_counters;  // distinct raw constituents
  bool running = false;
  bool ever_started = false;
  std::map<std::string, double> raw_counts;
};

struct Model {
  const pmu::Machine& machine;
  std::map<std::string, std::vector<DerivedTerm>> presets;
  std::vector<ModelSet> sets;

  std::vector<DerivedTerm> constituents(const std::string& name) const {
    if (machine.find(name)) return {{name, 1.0}};
    auto it = presets.find(name);
    if (it != presets.end()) return it->second;
    return {};
  }
};

TEST(SessionModel, RandomOperationSequencesMatchReference) {
  const auto machine = model_machine();
  const std::vector<std::string> names{"A", "B", "C", "D", "E",
                                       "P1", "P2", "nope"};

  for (std::uint64_t seed : testing::sweep_seeds(0, 20)) {
    Session session(machine);
    Model model{machine, {}, {}};
    // Register two presets up front (tested separately below).
    ASSERT_EQ(session.register_preset(
                  {"P1", "", {{"A", 1.0}, {"B", -1.0}}}),
              Status::ok);
    ASSERT_EQ(session.register_preset({"P2", "", {{"C", 2.0}}}), Status::ok);
    model.presets["P1"] = {{"A", 1.0}, {"B", -1.0}};
    model.presets["P2"] = {{"C", 2.0}};

    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> op_dist(0, 6);
    std::uniform_int_distribution<std::size_t> name_dist(0, names.size() - 1);

    for (int step = 0; step < 200; ++step) {
      const int op = op_dist(rng);
      if (op == 0 || model.sets.empty()) {
        const int handle = session.create_eventset();
        ASSERT_EQ(handle, static_cast<int>(model.sets.size()));
        model.sets.emplace_back();
        continue;
      }
      std::uniform_int_distribution<std::size_t> set_dist(
          0, model.sets.size() - 1);
      const auto si = set_dist(rng);
      const int handle = static_cast<int>(si);
      ModelSet& ms = model.sets[si];
      switch (op) {
        case 1: {  // add_event
          const std::string& name = names[name_dist(rng)];
          const Status got = session.add_event(handle, name);
          Status want = Status::ok;
          const auto parts = model.constituents(name);
          if (ms.running) {
            want = Status::is_running;
          } else if (std::count(ms.items.begin(), ms.items.end(), name)) {
            want = Status::already_added;
          } else if (parts.empty()) {
            want = Status::no_such_event;
          } else {
            std::set<std::string> needed = ms.raw_counters;
            for (const auto& t : parts) needed.insert(t.event_name);
            if (needed.size() > machine.physical_counters()) {
              want = Status::conflict;
            } else {
              ms.items.push_back(name);
              ms.raw_counters = needed;
            }
          }
          ASSERT_EQ(got, want) << testing::seed_banner(seed) << "step " << step
                               << " add " << name;
          break;
        }
        case 2: {  // remove_event
          const std::string& name = names[name_dist(rng)];
          const Status got = session.remove_event(handle, name);
          Status want = Status::ok;
          if (ms.running) {
            want = Status::is_running;
          } else if (!std::count(ms.items.begin(), ms.items.end(), name)) {
            want = Status::no_such_event;
          } else {
            ms.items.erase(
                std::find(ms.items.begin(), ms.items.end(), name));
            // Recompute raw counters from remaining items; freed counters
            // lose their accumulated counts (the slot is released).
            ms.raw_counters.clear();
            for (const auto& item : ms.items) {
              for (const auto& t : model.constituents(item)) {
                ms.raw_counters.insert(t.event_name);
              }
            }
            std::erase_if(ms.raw_counts, [&](const auto& kv) {
              return ms.raw_counters.count(kv.first) == 0;
            });
          }
          ASSERT_EQ(got, want);
          break;
        }
        case 3: {  // start
          const Status got = session.start(handle);
          const Status want = ms.running ? Status::is_running : Status::ok;
          if (want == Status::ok) {
            ms.running = true;
            ms.ever_started = true;
          }
          ASSERT_EQ(got, want);
          break;
        }
        case 4: {  // stop
          const Status got = session.stop(handle);
          const Status want = ms.running ? Status::ok : Status::not_running;
          if (want == Status::ok) ms.running = false;
          ASSERT_EQ(got, want);
          break;
        }
        case 5: {  // run_kernel (global)
          pmu::Activity act{{"x", double(step + 1)},
                            {"y", double(step % 7)},
                            {"z", double(step % 3)}};
          session.run_kernel(machine.densify(act), 0,
                             static_cast<std::uint64_t>(step));
          for (auto& set : model.sets) {
            if (!set.running) continue;
            for (const auto& raw : set.raw_counters) {
              const auto idx = machine.find(raw);
              set.raw_counts[raw] +=
                  machine.event(*idx).ideal(act);  // deterministic machine
            }
          }
          break;
        }
        case 6: {  // read + verify values
          std::vector<double> vals;
          const Status got = session.read(handle, vals);
          const Status want =
              ms.ever_started ? Status::ok : Status::not_running;
          ASSERT_EQ(got, want);
          if (want != Status::ok) break;
          ASSERT_EQ(vals.size(), ms.items.size());
          ASSERT_EQ(session.list_events(handle), ms.items);
          ASSERT_EQ(session.counters_in_use(handle), ms.raw_counters.size());
          for (std::size_t i = 0; i < ms.items.size(); ++i) {
            double want_val = 0.0;
            for (const auto& t : model.constituents(ms.items[i])) {
              auto it = ms.raw_counts.find(t.event_name);
              if (it != ms.raw_counts.end()) {
                want_val += t.coefficient * it->second;
              }
            }
            EXPECT_DOUBLE_EQ(vals[i], want_val)
                << testing::seed_banner(seed) << "step " << step << " item "
                << ms.items[i];
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

}  // namespace
}  // namespace catalyst::vpapi
