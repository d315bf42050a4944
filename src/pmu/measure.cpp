#include "pmu/measure.hpp"

#include <algorithm>
#include <cmath>

#include "core/contract.hpp"

namespace catalyst::pmu {

std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform_from_key(std::uint64_t key) noexcept {
  return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr double kTwoPi = 6.28318530717958647692528676655900577;

// Stateless counter-based uniform/normal stream: draw i is
// mix64(key + i * kGolden), i.e. the splitmix64 sequence seeded at `key`.
// Construction costs nothing, which is the property the per-sample hot path
// needs -- a std::mt19937_64 here costs a 312-word seeding pass (~2.5 KB of
// state) for the two or three draws a noise model actually consumes.
class NoiseRng {
 public:
  explicit NoiseRng(std::uint64_t key) noexcept : key_(key) {}

  std::uint64_t next_u64() noexcept { return mix64(key_ + kGolden * ctr_++); }

  /// Uniform in [0, 1), 53-bit resolution.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via Box-Muller; a pair shares two uniform draws.
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_r_ * std::sin(kTwoPi * spare_u2_);
    }
    // u1 in (0, 1] keeps the log finite.
    const double u1 = static_cast<double>((next_u64() >> 11) + 1) * 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    // The spare's sine is drawn only if a second normal is asked for: most
    // noise models (rel_sigma alone) never use it.  std::sin has the bits of
    // the sine half of sincos, so a spare reads what an eager draw read.
    spare_r_ = r;
    spare_u2_ = u2;
    have_spare_ = true;
    return r * std::cos(kTwoPi * u2);
  }

 private:
  std::uint64_t key_;
  std::uint64_t ctr_ = 0;
  double spare_r_ = 0.0;
  double spare_u2_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace

double measure_from_ideal(const Machine& machine, const EventDefinition& event,
                          double ideal, std::uint64_t rep,
                          std::uint64_t kernel_index) {
  // A non-finite ideal means the event functional (or an upstream signal)
  // is broken; rounding it below would silently turn it into garbage
  // readings, so reject it at the source.
  CATALYST_ASSUME_FINITE(ideal, "measure_from_ideal: event '" + event.name +
                                    "' has a non-finite ideal value");
  double v = ideal;
  if (event.noise.drift_per_rep != 0.0) {
    // Deterministic systematic drift; separate from the seeded jitter so
    // it reproduces across reruns of the same repetition index.
    v *= 1.0 + event.noise.drift_per_rep * static_cast<double>(rep);
  }
  if (!event.noise.is_noise_free()) {
    const std::uint64_t name_hash =
        event.name_hash != 0 ? event.name_hash : fnv1a(event.name);
    NoiseRng rng(name_hash ^ machine.noise_seed() ^ mix64(rep + 1) ^
                 mix64(kernel_index + 0x10001));
    if (event.noise.rel_sigma > 0.0) {
      v *= 1.0 + event.noise.rel_sigma * rng.normal();
    }
    if (event.noise.abs_sigma > 0.0) {
      v += event.noise.abs_sigma * rng.normal();
    }
    if (event.noise.spike_prob > 0.0) {
      if (rng.uniform() < event.noise.spike_prob) {
        v += rng.uniform() * event.noise.spike_magnitude;
      }
    }
  }
  // Hardware counters report non-negative integers.
  const double reading = std::max(0.0, std::round(v));
  CATALYST_ENSURE(std::isfinite(reading),
                  "measure_from_ideal: non-finite reading for event '" +
                      event.name + "'");
  return reading;
}

double measure_event(const Machine& machine, const EventDefinition& event,
                     const Activity& activity, std::uint64_t rep,
                     std::uint64_t kernel_index) {
  return measure_from_ideal(machine, event, event.ideal(activity), rep,
                            kernel_index);
}

}  // namespace catalyst::pmu
