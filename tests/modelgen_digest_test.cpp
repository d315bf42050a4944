// Differential pin of modelgen::generate: a 64-bit digest of every byte a
// generated model carries, recorded before the generator's search loops
// were rewritten, so any change to a draw, a rotation or an RNG rewind
// shows up as a different model.
//
// The presets cover both exits of the two redraw loops in generate():
//   * default, edge and near-cap specs accept an expectation matrix and a
//     scaffold column before the last try, so the generator must rewind
//     its RNG to just after the winning draw;
//   * scale_5k and scale_10k never reach the conditioning cap, so every
//     one of the 500 expectation and scaffold tries is drawn and the best
//     one kept.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "modelgen/modelgen.hpp"

namespace catalyst::modelgen {
namespace {

/// FNV-1a over a stream of length-prefixed fields.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_event(Digest& d, const pmu::EventDefinition& ev) {
  d.str(ev.name);
  d.str(ev.description);
  d.u64(ev.terms.size());
  for (const auto& t : ev.terms) {
    d.str(t.signal);
    d.f64(t.coefficient);
  }
  d.f64(ev.noise.rel_sigma);
  d.f64(ev.noise.abs_sigma);
  d.f64(ev.noise.spike_prob);
  d.f64(ev.noise.spike_magnitude);
  d.f64(ev.noise.drift_per_rep);
  d.u64(ev.slot_mask);
}

template <typename Map>
std::vector<std::string> sorted_keys(const Map& m) {
  std::vector<std::string> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::uint64_t model_digest(const GeneratedModel& m) {
  Digest d;
  d.u64(m.dims);
  d.u64(m.orphaned_dim);

  const pmu::MachineSpec& ms = m.machine_spec;
  d.str(ms.name);
  d.u64(ms.physical_counters);
  d.u64(ms.noise_seed);
  d.u64(ms.events.size());
  for (const auto& ev : ms.events) add_event(d, ev);

  const cat::Benchmark& b = m.benchmark;
  d.str(b.name);
  const linalg::Matrix& e = b.basis.e;
  d.u64(static_cast<std::uint64_t>(e.rows()));
  d.u64(static_cast<std::uint64_t>(e.cols()));
  for (linalg::index_t j = 0; j < e.cols(); ++j) {
    for (linalg::index_t i = 0; i < e.rows(); ++i) d.f64(e(i, j));
  }
  for (const auto& label : b.basis.labels) d.str(label);
  for (const auto& ev : b.basis.ideal_events) add_event(d, ev);
  d.u64(b.slots.size());
  for (const auto& slot : b.slots) {
    d.str(slot.name);
    d.f64(slot.normalizer);
    d.u64(slot.thread_activities.size());
    for (const auto& act : slot.thread_activities) {
      d.u64(act.size());
      for (const auto& key : sorted_keys(act)) {
        d.str(key);
        d.f64(act.at(key));
      }
    }
  }

  d.u64(m.signatures.size());
  for (const auto& sig : m.signatures) {
    d.str(sig.name);
    d.doubles(sig.coordinates);
  }
  for (const auto& p : m.planted) {
    d.str(p.metric_name);
    d.doubles(p.coefficients);
    for (const auto& cls : p.classes) {
      d.u64(cls.size());
      for (const auto& name : cls) d.str(name);
    }
  }
  d.u64(m.representations.size());
  for (const auto& key : sorted_keys(m.representations)) {
    d.str(key);
    d.doubles(m.representations.at(key));
  }
  return d.value();
}

/// One digest over a run of seeds: each model's digest in seed order.
template <typename MakeSpec>
std::uint64_t run_digest(std::uint64_t first, std::uint64_t last,
                         MakeSpec make_spec) {
  Digest d;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    d.u64(model_digest(generate(make_spec(seed))));
  }
  return d.value();
}

TEST(ModelgenDigest, ScalePresetsExhaustEveryTry) {
  EXPECT_EQ(model_digest(generate(GeneratorSpec::scale_10k(2024))),
            0xaae48e781a5e9e28ULL) << "scale_10k(2024)";
  EXPECT_EQ(model_digest(generate(GeneratorSpec::scale_5k(2024))),
            0xfe486ddeff1a0cc0ULL) << "scale_5k(2024)";
}

TEST(ModelgenDigest, DefaultSeedsStopEarly) {
  EXPECT_EQ(run_digest(1, 200,
                       [](std::uint64_t seed) {
                         GeneratorSpec spec;
                         spec.seed = seed;
                         return spec;
                       }),
            0x3a44ee09b0fac931ULL) << "default spec, seeds 1-200";
}

// A 24- or 28-dimension head with one extra slot sits near the conditioning
// cap: these seeds accept their expectation matrix after 0 to ~180 tries,
// inside and across draw batches.
TEST(ModelgenDigest, MidSearchExpectationDraws) {
  const auto near_cap = [](std::size_t dims) {
    return [dims](std::uint64_t seed) {
      GeneratorSpec spec;
      spec.seed = seed;
      spec.min_dims = dims;
      spec.max_dims = dims;
      spec.extra_slots = 1;
      return spec;
    };
  };
  EXPECT_EQ(run_digest(1, 6, near_cap(24)), 0xf3085664ae69a83cULL)
      << "24 dims, 1 extra slot, seeds 1-6";
  EXPECT_EQ(run_digest(1, 3, near_cap(28)), 0xac9beb11c12b75f5ULL)
      << "28 dims, 1 extra slot, seeds 1-3";
}

TEST(ModelgenDigest, EdgePresets) {
  EXPECT_EQ(run_digest(1, 20, GeneratorSpec::edge_all_noise),
            0x341016b296dcfd42ULL)
      << "edge_all_noise, seeds 1-20";
  EXPECT_EQ(run_digest(1, 20, GeneratorSpec::edge_single_dim),
            0x4d29632740d6c083ULL)
      << "edge_single_dim, seeds 1-20";
  EXPECT_EQ(run_digest(1, 20,
                       [](std::uint64_t seed) {
                         return GeneratorSpec::edge_orphan(seed, 0.25);
                       }),
            0x1fa6daf69006b0c0ULL) << "edge_orphan(gamma 0.25), seeds 1-20";
}

}  // namespace
}  // namespace catalyst::modelgen
