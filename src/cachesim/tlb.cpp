#include "cachesim/tlb.hpp"

namespace catalyst::cachesim {

void TlbConfig::validate() const {
  l1.as_cache_config().validate();
  l2.as_cache_config().validate();
  if (l1.page_bytes != l2.page_bytes) {
    throw ConfigError("TlbConfig: mixed page sizes are not supported");
  }
  if (l2.entries < l1.entries) {
    throw ConfigError("TlbConfig: STLB smaller than DTLB");
  }
}

TlbConfig TlbConfig::tiny() {
  TlbConfig c;
  c.l1 = {"DTLB", 4, 2, 64};
  c.l2 = {"STLB", 16, 2, 64};
  return c;
}

TlbHierarchy::TlbHierarchy(const TlbConfig& config)
    : l1_((config.validate(), config.l1.as_cache_config())),
      l2_(config.l2.as_cache_config()) {}

std::optional<std::size_t> TlbHierarchy::access(std::uint64_t addr) {
  if (l1_.access(addr)) {
    ++stats_.l1_hits;
    return 0;
  }
  ++stats_.l1_misses;
  if (l2_.access(addr)) {
    ++stats_.l2_hits;
    return 1;  // translation promoted into L1 by the access() install
  }
  ++stats_.walks;
  return std::nullopt;
}

}  // namespace catalyst::cachesim
