#include "modelgen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/svd.hpp"

namespace catalyst::modelgen {

namespace {

// Seeded-once model construction, same rationale as the shipped machine
// builders (saphira/tempest/vesuvio): the PRNG runs exactly once per spec,
// never per measurement, so the counter-based noise contract is untouched.
using Rng = std::mt19937_64;

int rint(Rng& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

std::string dim_signal(std::size_t d) {
  return "syn.dim" + std::to_string(d);
}

std::string scaffold_signal(std::size_t j) {
  return "syn.scaffold" + std::to_string(j);
}

/// One candidate expectation matrix: a diagonally-dominant small-integer
/// head (rows 0..dims-1) plus fully random extra rows.
linalg::Matrix draw_candidate(Rng& rng, std::size_t slots, std::size_t dims) {
  linalg::Matrix e(static_cast<linalg::index_t>(slots),
                   static_cast<linalg::index_t>(dims), 0.0);
  for (std::size_t k = 0; k < slots; ++k) {
    for (std::size_t d = 0; d < dims; ++d) {
      int v;
      if (k < dims) {
        v = k == d ? rint(rng, 3, 5)
                   : (rint(rng, 0, 9) < 4 ? rint(rng, 1, 2) : 0);
      } else {
        v = rint(rng, 0, 4);
      }
      e(static_cast<linalg::index_t>(k), static_cast<linalg::index_t>(d)) =
          static_cast<double>(v);
    }
  }
  return e;
}

/// Expectation candidates drawn per batch before their spectra are taken
/// on the worker pool.  A constant, not an option: the batch bounds how
/// many candidate matrices are alive at once.
constexpr int kDrawBatch = 16;

/// Draws the slots x dims expectation matrix, redrawn until the spectrum is
/// well-conditioned.  Conditioning is capped so benign measurement noise
/// cannot be amplified past the QRCP rounding tolerance when events are
/// projected onto the basis.
///
/// The attempts are drawn serially in batches, the batch's spectra are
/// computed in parallel, and the batch is then scanned in attempt order
/// with the rule of one attempt at a time: the first well-conditioned
/// attempt wins, else the strictly best one.  An early win restores the
/// RNG state saved after the winning draw, so the RNG ends exactly where a
/// one-at-a-time loop would leave it, for any thread count.
linalg::Matrix draw_expectation(Rng& rng, std::size_t slots,
                                std::size_t dims) {
  constexpr double kMaxCondition = 30.0;
  constexpr int kMaxTries = 500;
  const int threads = core::resolve_threads(0);
  std::vector<linalg::Matrix> batch;
  std::vector<Rng> rng_after;
  std::vector<double> ratios;
  linalg::Matrix best;
  double best_ratio = -1.0;
  for (int first = 0; first < kMaxTries; first += kDrawBatch) {
    const auto count =
        static_cast<std::size_t>(std::min(kDrawBatch, kMaxTries - first));
    batch.clear();
    rng_after.clear();
    for (std::size_t k = 0; k < count; ++k) {
      batch.push_back(draw_candidate(rng, slots, dims));
      rng_after.push_back(rng);
    }
    ratios.assign(count, 0.0);
    core::parallel_for(count, threads, [&](std::size_t k) {
      const linalg::Vector sv = linalg::singular_values(batch[k]);
      ratios[k] = sv.front() > 0.0 ? sv.back() / sv.front() : 0.0;
    });
    for (std::size_t k = 0; k < count; ++k) {
      if (ratios[k] >= 1.0 / kMaxCondition) {
        rng = rng_after[k];
        return std::move(batch[k]);
      }
      if (ratios[k] > best_ratio) {
        best_ratio = ratios[k];
        best = std::move(batch[k]);
      }
    }
  }
  return best;  // every attempt was ill-conditioned; the best one.
}

void draw_scaffold_column(Rng& rng, std::span<double> g) {
  for (double& v : g) v = static_cast<double>(rint(rng, 1, 9));
}

/// Draws one scaffold slot-value vector, redrawn until it is clearly
/// OUTSIDE the basis span (its least-squares fitness is several times the
/// projection cutoff), so the projection stage provably rejects it.
///
/// All tries are drawn up front as the columns of one block and fitted by
/// one factorization of E; the scan then applies the one-try-at-a-time
/// rule in order.  On an early win the RNG is rewound and the draws up to
/// the winner replayed, so it ends where a one-at-a-time loop would.
linalg::Vector draw_scaffold(Rng& rng, const linalg::Matrix& e,
                             double projection_max_error) {
  constexpr linalg::index_t kMaxTries = 500;
  const Rng start = rng;
  linalg::Matrix g(e.rows(), kMaxTries);
  for (linalg::index_t t = 0; t < kMaxTries; ++t) {
    draw_scaffold_column(rng, g.col(t));
  }
  const std::vector<double> errs = linalg::lstsq(e, g).backward_errors;
  linalg::index_t best = -1;
  double best_err = -1.0;
  for (linalg::index_t t = 0; t < kMaxTries; ++t) {
    const double err = errs[static_cast<std::size_t>(t)];
    if (err > 4.0 * projection_max_error) {
      rng = start;
      for (linalg::index_t r = 0; r <= t; ++r) {
        draw_scaffold_column(rng, g.col(r));
      }
      return g.col_copy(t);
    }
    if (err > best_err) {
      best_err = err;
      best = t;
    }
  }
  return best < 0 ? linalg::Vector{} : g.col_copy(best);
}

}  // namespace

GeneratedModel generate(const GeneratorSpec& spec) {
  spec.validate();
  GeneratedModel model;
  model.spec = spec;
  model.options = spec.derive_options();
  Rng rng(spec.seed);

  const std::size_t dims = static_cast<std::size_t>(
      rint(rng, static_cast<int>(spec.min_dims),
           static_cast<int>(spec.max_dims)));
  const std::size_t slots =
      dims + static_cast<std::size_t>(
                 rint(rng, 1, static_cast<int>(spec.extra_slots)));
  model.dims = dims;
  if (spec.orphan_dimension && dims >= 2) {
    model.orphaned_dim =
        static_cast<std::size_t>(rint(rng, 0, static_cast<int>(dims) - 1));
  }
  const std::size_t orphan = model.orphaned_dim;

  const double sigma = GeneratorSpec::kBaseRelSigma * spec.noise_level;
  const pmu::NoiseModel benign =
      sigma > 0.0 ? pmu::NoiseModel::relative(sigma) : pmu::NoiseModel::none();

  // --- expectation basis & scaffold ground truth ---------------------------
  const linalg::Matrix e = draw_expectation(rng, slots, dims);
  std::vector<linalg::Vector> scaffold_values;
  scaffold_values.reserve(spec.scaffold_events);
  for (std::size_t j = 0; j < spec.scaffold_events; ++j) {
    scaffold_values.push_back(
        draw_scaffold(rng, e, model.options.projection_max_error));
  }

  // --- events --------------------------------------------------------------
  auto unit_vec = [dims](std::size_t d, double coeff) {
    linalg::Vector v(dims, 0.0);
    v[d] = coeff;
    return v;
  };
  std::vector<pmu::EventDefinition> events;
  std::vector<std::vector<std::string>> dim_classes(dims);

  for (std::size_t d = 0; d < dims; ++d) {
    const std::size_t copies =
        d == orphan
            ? 0
            : 1 + static_cast<std::size_t>(
                      rint(rng, 0, static_cast<int>(spec.max_aliases)));
    for (std::size_t j = 0; j < copies; ++j) {
      const std::string name =
          "SYN_D" + std::to_string(d) + "_UNIT" + std::to_string(j);
      events.push_back({name,
                        j == 0 ? "Clean unit counter of dimension " +
                                     std::to_string(d)
                               : "Exact alias (duplicated counter)",
                        {{dim_signal(d), 1.0}},
                        benign});
      dim_classes[d].push_back(name);
      model.representations[name] = unit_vec(d, 1.0);
    }
  }

  auto nonorphan_dim = [&](void) {
    std::size_t d;
    do {
      d = static_cast<std::size_t>(rint(rng, 0, static_cast<int>(dims) - 1));
    } while (d == orphan);
    return d;
  };

  for (std::size_t i = 0; i < spec.scaled_decoys; ++i) {
    const std::size_t d = nonorphan_dim();
    const int scale = rint(rng, 2, 4);
    const std::string name = "SYN_D" + std::to_string(d) + "_X" +
                             std::to_string(scale) + "_" + std::to_string(i);
    events.push_back({name, "Integer-scaled decoy (counts per operation)",
                      {{dim_signal(d), static_cast<double>(scale)}},
                      benign});
    model.representations[name] = unit_vec(d, static_cast<double>(scale));
  }

  if (dims >= 2) {
    for (std::size_t i = 0; i < spec.derived_decoys; ++i) {
      const std::size_t a = nonorphan_dim();
      std::size_t b;
      do {
        b = static_cast<std::size_t>(
            rint(rng, 0, static_cast<int>(dims) - 1));
      } while (b == a || b == orphan);
      const std::string name = "SYN_D" + std::to_string(a) + "_PLUS_D" +
                               std::to_string(b) + "_" + std::to_string(i);
      events.push_back({name, "Derived decoy (sum of two dimensions)",
                        {{dim_signal(a), 1.0}, {dim_signal(b), 1.0}},
                        benign});
      linalg::Vector rep = unit_vec(a, 1.0);
      rep[b] = 1.0;
      model.representations[name] = rep;
    }

    const double gamma = spec.correlation_gamma;
    for (std::size_t i = 0; i < spec.correlated_decoys; ++i) {
      // When a dimension is orphaned, every correlated decoy leaks FROM it:
      // the decoy is then the only column covering the orphan.
      const std::size_t a = orphan < dims ? orphan : nonorphan_dim();
      std::size_t b;
      do {
        b = static_cast<std::size_t>(
            rint(rng, 0, static_cast<int>(dims) - 1));
      } while (b == a);
      const std::string name = "SYN_D" + std::to_string(a) + "_CORR_D" +
                               std::to_string(b) + "_" + std::to_string(i);
      std::vector<pmu::SignalTerm> terms = {{dim_signal(a), 1.0}};
      if (gamma > 0.0) terms.push_back({dim_signal(b), gamma});
      events.push_back(
          {name, "Correlated decoy (cross-dimension leakage)", terms,
           benign});
      linalg::Vector rep = unit_vec(a, 1.0);
      rep[b] += gamma;
      model.representations[name] = rep;
      // Leakage below half the QRCP rounding tolerance is indistinguishable
      // from a clean unit event -- the decoy joins the equivalence class.
      if (gamma < 0.5 * model.options.alpha) {
        dim_classes[a].push_back(name);
      }
    }
  }

  for (std::size_t i = 0; i < spec.noise_decoys; ++i) {
    events.push_back({"SYN_SPIKY" + std::to_string(i),
                      "Interrupt-style counter (sporadic spikes, no signal)",
                      {},
                      pmu::NoiseModel::spiky(0.15, 0.5 * spec.iterations)});
  }
  for (std::size_t i = 0; i < spec.dead_decoys; ++i) {
    events.push_back({"SYN_DEAD" + std::to_string(i),
                      "Dead counter (always reads zero)",
                      {},
                      pmu::NoiseModel::none()});
  }
  if (spec.huge_norm_decoy) {
    // Cycles-style trap: huge norm, analytically useless.  Noise-free so
    // its (100x-amplified) projection error cannot keep it QRCP-eligible
    // after the clean columns span the space.
    std::vector<pmu::SignalTerm> terms;
    terms.reserve(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      terms.push_back({dim_signal(d), 100.0});
    }
    events.push_back({"SYN_CYCLESLIKE",
                      "Huge-norm trap (cycles-style aggregate)", terms,
                      pmu::NoiseModel::none()});
    model.representations["SYN_CYCLESLIKE"] = linalg::Vector(dims, 100.0);
  }
  for (std::size_t j = 0; j < spec.scaffold_events; ++j) {
    events.push_back({"SYN_SCAFFOLD" + std::to_string(j),
                      "Outside the expectation basis (projection rejects)",
                      {{scaffold_signal(j), 1.0}},
                      benign});
  }

  // Registration order must carry no information about event roles.
  std::shuffle(events.begin(), events.end(), rng);

  model.machine_spec.name = "syngen-" + std::to_string(spec.seed);
  model.machine_spec.physical_counters = static_cast<std::size_t>(
      rint(rng, static_cast<int>(spec.min_counters),
           static_cast<int>(spec.max_counters)));
  model.machine_spec.noise_seed = rng();
  model.machine_spec.events = std::move(events);

  // --- benchmark -----------------------------------------------------------
  cat::Benchmark& bench = model.benchmark;
  bench.name = "modelgen/seed" + std::to_string(spec.seed);
  bench.basis.e = e;
  for (std::size_t d = 0; d < dims; ++d) {
    bench.basis.labels.push_back("DIM" + std::to_string(d));
    bench.basis.ideal_events.push_back(
        {"DIM" + std::to_string(d),
         "Ideal event: basis dimension " + std::to_string(d),
         {{dim_signal(d), 1.0}},
         pmu::NoiseModel::none()});
  }
  for (std::size_t k = 0; k < slots; ++k) {
    cat::KernelSlot slot;
    slot.name = "syn/slot" + std::to_string(k);
    slot.normalizer = spec.iterations;
    pmu::Activity act;
    for (std::size_t d = 0; d < dims; ++d) {
      const double v = e(static_cast<linalg::index_t>(k),
                         static_cast<linalg::index_t>(d));
      if (v != 0.0) act[dim_signal(d)] = spec.iterations * v;
    }
    for (std::size_t j = 0; j < spec.scaffold_events; ++j) {
      act[scaffold_signal(j)] = spec.iterations * scaffold_values[j][k];
    }
    slot.thread_activities.push_back(std::move(act));
    bench.slots.push_back(std::move(slot));
  }

  // --- planted metrics -----------------------------------------------------
  const int cmax = spec.max_coefficient;
  for (std::size_t i = 0; i < spec.num_metrics; ++i) {
    linalg::Vector coords(dims, 0.0);
    bool any = false;
    for (std::size_t d = 0; d < dims; ++d) {
      const int c = rint(rng, -cmax, cmax);
      coords[d] = static_cast<double>(c);
      any = any || c != 0;
    }
    if (!any) coords[i % dims] = 1.0;
    if (i == 0 && orphan < dims && coords[orphan] == 0.0) {
      // The degradation study needs at least one metric that can only be
      // satisfied through the orphaned dimension.
      coords[orphan] = static_cast<double>(rint(rng, 0, 1) == 0 ? 1 : -1) *
                       static_cast<double>(rint(rng, 1, cmax));
    }
    const std::string name = "planted_metric_" + std::to_string(i);
    model.signatures.push_back({name, coords});
    core::PlantedComposition planted;
    planted.metric_name = name;
    planted.coefficients.assign(coords.begin(), coords.end());
    planted.classes = dim_classes;
    model.planted.push_back(std::move(planted));
  }

  CATALYST_ENSURE(model.signatures.size() == model.planted.size(),
                  "modelgen: signatures/planted truth out of step");
  return model;
}

}  // namespace catalyst::modelgen
