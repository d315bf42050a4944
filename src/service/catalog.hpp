// catalyst/service -- the category/machine catalog and its shared caches.
//
// One source of truth for "what does category C mean": its benchmark (and
// therefore expectation basis), its metric signatures, its default pipeline
// thresholds, and its default machine.  Both front ends resolve requests
// through THIS table -- the `catalyst` CLI directly, `catalystd` via the
// engine -- which is what makes the byte-identity guarantee structural: a
// category analyzed over the service path runs the same benchmark, basis,
// signatures, and thresholds as the same category analyzed by the CLI,
// because there is only one place any of them is defined.
//
// SharedCatalog adds the daemon-grade layer: benchmark construction (the
// dcache pointer-chase simulations especially) and machine-model
// construction are not free, so a long-running server builds each entry
// once and shares the immutable result across its worker pool behind a
// sync::SharedMutex (readers concurrent, first-builder exclusive).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cat/benchmark.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "pmu/machine.hpp"
#include "sync/annotations.hpp"
#include "sync/mutex.hpp"

namespace catalyst::service {

/// What a category implies short of its ground-truth benchmark: enough to
/// analyze an archive of it, which brings its own readings and basis.
struct CategoryInfo {
  std::string benchmark_name;  ///< The name the benchmark build carries.
  std::vector<core::MetricSignature> signatures;
  core::PipelineOptions options;  ///< Category-default thresholds.
  std::string default_machine;
};

/// Everything a category implies beyond the machine choice.
struct CategorySetup : CategoryInfo {
  cat::Benchmark benchmark;
};

/// The machine registry ("saphira" | "tempest" | "vesuvio").
std::optional<pmu::Machine> machine_by_name(const std::string& name);
const std::vector<std::string>& machine_names();
/// True for a name machine_by_name() builds, without building it.
bool is_machine_name(const std::string& name);

/// Builds a category's setup from scratch; nullopt for unknown names.
/// Categories: cpu_flops | gpu_flops | branch | dcache | icache |
/// gpu_dcache.
std::optional<CategorySetup> category_setup(const std::string& category);
const std::vector<std::string>& category_names();

/// category_setup() without the benchmark build (the dcache pointer-chase
/// simulation especially): the same info, at the cost of the signatures.
std::optional<CategoryInfo> category_info(const std::string& category);

/// Build-once, share-forever cache of catalog entries.  Returned pointers
/// are stable for the cache's lifetime and the pointees immutable, so
/// workers hold them across an entire analysis with no lock held.
class SharedCatalog {
 public:
  /// nullptr for an unknown category / machine (never throws: the daemon
  /// maps the miss to a typed bad_request error).
  const CategorySetup* category(const std::string& name)
      CATALYST_EXCLUDES(mutex_);
  const pmu::Machine* machine(const std::string& name)
      CATALYST_EXCLUDES(mutex_);

 private:
  mutable sync::SharedMutex mutex_{"service.catalog"};
  std::unordered_map<std::string, std::unique_ptr<CategorySetup>> categories_
      CATALYST_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::unique_ptr<pmu::Machine>> machines_
      CATALYST_GUARDED_BY(mutex_);
};

}  // namespace catalyst::service
