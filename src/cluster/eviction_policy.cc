#include "cluster/eviction_policy.h"

#include <stdexcept>
#include <string>

namespace stark {

const char* eviction_policy_name(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kLru: return "lru";
    case EvictionPolicyKind::kLrc: return "lrc";
    case EvictionPolicyKind::kCostSize: return "cost-size";
  }
  return "unknown";
}

void CachePolicyOptions::validate() const {
  if (min_recompute_cost <= 0.0) {
    throw std::invalid_argument(
        "CachePolicyOptions: min_recompute_cost must be > 0 (got " +
        std::to_string(min_recompute_cost) + ")");
  }
  for (std::size_t i = 0; i < tenant_quota_fractions.size(); ++i) {
    const double f = tenant_quota_fractions[i];
    if (f < 0.0 || f > 1.0) {
      throw std::invalid_argument(
          "CachePolicyOptions: tenant_quota_fractions[" + std::to_string(i) +
          "] must be in [0, 1] (got " + std::to_string(f) + ")");
    }
  }
}

}  // namespace stark
