// perfbench -- helpers shared by the workloads.
#include "bench.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cat/dcache.hpp"

namespace perfbench {

using namespace catalyst;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void add_stage(Layers& layers, const std::string& stage, double ms,
               bool leaf) {
  static const std::map<std::string, std::pair<const char*, bool>> layer_of = {
      // stage -> (layer, part of the analysis stages)
      {"collect", {"vpapi.collect", false}},
      {"median_normalize", {"core.median_normalize", false}},
      {"detrend", {"core.noise", true}},
      {"noise_filter", {"core.noise", true}},
      {"projection", {"core.projection", true}},
      {"qrcp", {"core.qrcp", true}},
      {"metrics", {"core.metrics", true}},
  };
  const auto it = layer_of.find(stage);
  if (it == layer_of.end()) return;
  layers.add(it->second.first, ms, leaf);
  if (it->second.second) layers.add("core.analysis", ms);
}

void add_dcache_build(Layers& layers, const cat::Benchmark& built,
                      double ms) {
  const cat::DcacheOptions defaults;
  const double threads =
      static_cast<double>(built.slots.front().thread_activities.size());
  const double traversals =
      defaults.warmup_traversals + defaults.measured_traversals;
  double accesses = 0.0;
  for (const cat::DcacheSlotInfo& slot : cat::dcache_slot_info(defaults)) {
    accesses += static_cast<double>(slot.num_pointers) * traversals * threads;
  }
  layers.add("cachesim.dcache_build", ms);
  layers.add("cachesim.dcache_accesses", accesses);
}

}  // namespace perfbench
