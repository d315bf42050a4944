#include "service/catalog.hpp"

#include <algorithm>

#include "cat/cat.hpp"
#include "core/contract.hpp"
#include "core/signatures.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::service {

std::optional<pmu::Machine> machine_by_name(const std::string& name) {
  if (name == "saphira") return pmu::saphira_cpu();
  if (name == "tempest") return pmu::tempest_gpu();
  if (name == "vesuvio") return pmu::vesuvio_cpu();
  return std::nullopt;
}

const std::vector<std::string>& machine_names() {
  static const std::vector<std::string> names = {"saphira", "tempest",
                                                 "vesuvio"};
  return names;
}

bool is_machine_name(const std::string& name) {
  return std::ranges::find(machine_names(), name) != machine_names().end();
}

namespace {

/// One catalog entry.  The three cache categories are noisy by nature and
/// run with looser thresholds (`cache_thresholds`).
struct CategoryEntry {
  const char* name;
  const char* benchmark_name;
  const char* default_machine;
  bool cache_thresholds;
  std::vector<core::MetricSignature> (*signatures)();
  cat::Benchmark (*build)();
};

const CategoryEntry kCategories[] = {
    {"cpu_flops", "cat-cpu-flops", "saphira", false,
     core::cpu_flops_signatures, [] { return cat::cpu_flops_benchmark(); }},
    {"gpu_flops", "cat-gpu-flops", "tempest", false,
     core::gpu_flops_signatures, [] { return cat::gpu_flops_benchmark(); }},
    {"branch", "cat-branch", "saphira", false, core::branch_signatures,
     [] { return cat::branch_benchmark(); }},
    {"dcache", "cat-dcache", "saphira", true, core::dcache_signatures,
     [] {
       cat::DcacheOptions chase;
       chase.threads = 3;
       return cat::dcache_benchmark(chase);
     }},
    {"icache", "cat-icache", "saphira", true, core::icache_signatures,
     [] { return cat::icache_benchmark(); }},
    {"gpu_dcache", "cat-gpu-dcache", "tempest", true,
     core::gpu_dcache_signatures, [] { return cat::gpu_dcache_benchmark(); }},
};

const CategoryEntry* find_category(const std::string& category) {
  for (const CategoryEntry& entry : kCategories) {
    if (category == entry.name) return &entry;
  }
  return nullptr;
}

CategoryInfo info_of(const CategoryEntry& entry) {
  CategoryInfo info;
  info.benchmark_name = entry.benchmark_name;
  info.signatures = entry.signatures();
  if (entry.cache_thresholds) {
    info.options.tau = 1e-1;
    info.options.alpha = 5e-2;
    info.options.projection_max_error = 1e-1;
    info.options.fitness_threshold = 5e-2;
  }
  info.default_machine = entry.default_machine;
  return info;
}

}  // namespace

std::optional<CategoryInfo> category_info(const std::string& category) {
  const CategoryEntry* entry = find_category(category);
  if (entry == nullptr) return std::nullopt;
  return info_of(*entry);
}

std::optional<CategorySetup> category_setup(const std::string& category) {
  const CategoryEntry* entry = find_category(category);
  if (entry == nullptr) return std::nullopt;
  CategorySetup setup{info_of(*entry), entry->build()};
  CATALYST_ENSURE(setup.benchmark.name == setup.benchmark_name,
                  "category_setup: '" + category + "' built benchmark '" +
                      setup.benchmark.name + "', the catalog names '" +
                      setup.benchmark_name + "'");
  return setup;
}

const std::vector<std::string>& category_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const CategoryEntry& entry : kCategories) out.push_back(entry.name);
    return out;
  }();
  return names;
}

namespace {

/// Double-checked insert shared by both caches: a read-locked lookup on the
/// hit path, an exclusive build-and-insert on the first miss.  Losing a
/// build race is harmless -- the first inserted entry wins and the loser's
/// build is discarded -- because entries are pure functions of their name.
template <typename Map, typename Build>
const typename Map::mapped_type::element_type* find_or_build(
    sync::SharedMutex& mutex, Map& map, const std::string& name,
    Build&& build) CATALYST_NO_THREAD_SAFETY_ANALYSIS {
  {
    const sync::ReadLockGuard lock(mutex);
    const auto it = map.find(name);
    if (it != map.end()) return it->second.get();
  }
  auto built = build(name);  // Built outside any lock: may be expensive.
  if (built == nullptr) return nullptr;
  const sync::WriteLockGuard lock(mutex);
  auto [it, inserted] = map.emplace(name, std::move(built));
  return it->second.get();
}

}  // namespace

const CategorySetup* SharedCatalog::category(const std::string& name) {
  return find_or_build(
      mutex_, categories_, name,
      [](const std::string& n) -> std::unique_ptr<CategorySetup> {
        auto setup = category_setup(n);
        if (!setup.has_value()) return nullptr;
        return std::make_unique<CategorySetup>(std::move(*setup));
      });
}

const pmu::Machine* SharedCatalog::machine(const std::string& name) {
  return find_or_build(
      mutex_, machines_, name,
      [](const std::string& n) -> std::unique_ptr<pmu::Machine> {
        auto machine = machine_by_name(n);
        if (!machine.has_value()) return nullptr;
        return std::make_unique<pmu::Machine>(std::move(*machine));
      });
}

}  // namespace catalyst::service
