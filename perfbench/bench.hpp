// perfbench -- shared pieces of the end-to-end benchmark driver.
//
// A workload is a closed loop driven by one client thread: set up, then run
// homogeneous ops back to back for the measured window.  Each op times the
// calls it makes into the library's modules and books them into Layers; the
// "leaf" layers tile the op, so whatever the op spent outside them is the
// untraced share of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cat/benchmark.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Named per-layer sums (ms unless the name says otherwise).
class Layers {
 public:
  /// `leaf` marks a layer that is part of the op's partition: leaf times
  /// never overlap, and their total is what the layers account for.
  void add(const std::string& name, double value, bool leaf = false) {
    sums_[name] += value;
    if (leaf) leaf_total_ += value;
  }
  double get(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }
  bool has(const std::string& name) const { return sums_.count(name) != 0; }
  double leaf_total() const { return leaf_total_; }
  void merge(const Layers& other) {
    for (const auto& [name, value] : other.sums_) sums_[name] += value;
    leaf_total_ += other.leaf_total_;
  }

 private:
  std::map<std::string, double> sums_;
  double leaf_total_ = 0.0;
};

/// Times `fn`, books its wall time under `name`, and returns its result.
template <typename Fn>
auto timed(Layers& layers, const char* name, bool leaf, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto out = fn();
  layers.add(name, ms_between(start, Clock::now()), leaf);
  return out;
}

/// Books the pipeline's own stage spans (PipelineResult::stage_timings or
/// the tracer's "stage.*" records) under the benchmark's layer names.
/// Unknown stage names are left unbooked, so they show as untraced time.
void add_stage(Layers& layers, const std::string& stage, double ms,
               bool leaf);

/// One measured op: its wall time (outputs are checked after the clock
/// stops) and whether every output matched its reference.
struct OpResult {
  double ms = 0.0;
  bool ok = true;
  std::string failure;  ///< First mismatch, for the log.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the ops need.  Called several times per run (the
  /// median is setup_s); each call replaces the previous state.  Layers
  /// that run only here are booked into `layers`.
  virtual void setup(Layers& layers) = 0;
  /// Runs one op.  When `traced` is set the tracer is on and the op may
  /// also harvest the library's own spans.
  virtual OpResult op(Layers& layers, bool traced) = 0;
  /// Analyses one successful op completes.
  virtual int analyses_per_op() const = 0;
  /// Input facts worth recording with the result (after set-up).
  virtual std::string describe() const { return ""; }
};

struct WorkloadContext {
  std::string root;    ///< Checkout root (goldens and references).
  std::uint64_t seed = 0;
};

std::unique_ptr<Workload> make_scale_10k(const WorkloadContext& ctx);
std::unique_ptr<Workload> make_service_packed(const WorkloadContext& ctx);

/// Deterministic 64-bit stream (splitmix64) for seeded category orders.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// A fresh Fisher-Yates permutation of `items`.
  std::vector<std::string> shuffled(std::vector<std::string> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[next() % i]);
    }
    return items;
  }

 private:
  std::uint64_t state_;
};

std::string read_file(const std::string& path);

/// Books a finished dcache category build: its wall time under
/// "cachesim.dcache_build" and, under "cachesim.dcache_accesses", the
/// pointer-chase accesses it simulated (warm-up and measured traversals of
/// every slot on every chase thread, computed from cat::dcache_slot_info).
/// The build is part of "cat.build", so neither is a leaf of its own.
void add_dcache_build(Layers& layers, const catalyst::cat::Benchmark& built,
                      double ms);

}  // namespace perfbench
