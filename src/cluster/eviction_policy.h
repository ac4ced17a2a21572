// Block identity and the cache-eviction rules BlockManager applies.
//
// A block store picks *which* block to evict by one of three rules (paper
// §II-B motivates why recency alone is blind to the DAG). The rules keep
// no state: the store scans its own recency list from the LRU end and
// applies the configured EvictionPolicyKind to each record it visits.
//
//   * Lru      — classic least-recently-used: the first unpinned record
//                from the LRU end. The default.
//   * Lrc      — least-reference-count (Lu et al., "Lifetime-Based Memory
//                Management for Distributed Data Processing Systems"):
//                victims are ordered by how many not-yet-completed stages
//                still reference the block's dataset. The refcounts are fed
//                by the DagScheduler -> Cluster lineage channel: +1 per
//                submitted stage whose chain reads a cached dataset, -1
//                when that stage completes or its job aborts. Ties (and a
//                missing refcount feed) degrade to LRU order.
//   * CostSize — weighted cost/size caching (Yang et al., "Intermediate
//                Data Caching Optimization for Multi-Stage and Parallel Big
//                Data Frameworks"): evict the block with the largest
//                size / recompute_cost ratio, i.e. the most bytes reclaimed
//                per second of lineage recompute the eviction risks. The
//                recompute cost is a CostModel estimate stamped by the task
//                planner at insert time. Ties degrade to LRU order.
//
// Recency means the same thing under every rule, so a store's MRU order
// (read by deterministic fault injectors) and its victim scans are
// deterministic.
#pragma once

#include <compare>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.h"

namespace stark {

// Identity of one cached partition: (dataset, partition). Hashable and
// ordered by (dataset, partition); the whole block vocabulary
// (BlockManager, Cluster index, trace events) keys on this pair.
struct BlockId {
  DatasetId dataset = kInvalidId;
  int partition = -1;

  auto operator<=>(const BlockId&) const = default;
};

struct BlockIdHash {
  std::size_t operator()(const BlockId& b) const noexcept {
    return std::hash<long long>()(
        (static_cast<long long>(b.dataset) << 32) ^
        static_cast<long long>(b.partition));
  }
};

// Which eviction policy a block store runs. kLru is the default and leaves
// simulated timelines byte-identical to the pre-policy engine.
enum class EvictionPolicyKind {
  kLru,
  kLrc,
  kCostSize,
};

// Stable lower-case name ("lru", "lrc", "cost-size") for logs and JSON.
const char* eviction_policy_name(EvictionPolicyKind kind);

// Resolves a dataset to its current lineage refcount: the number of
// submitted-but-not-completed stages whose chains read the dataset's cached
// blocks. 0 for datasets no in-flight stage needs. Only kLrc consults it.
using LineageRefcountFn = std::function<int(DatasetId)>;

// Cache-policy knobs, wired through ContextOptions::cluster.cache. The block
// stores and the DagScheduler's task planner both read them from the
// Cluster's config. Defaults reproduce the historical engine exactly: plain
// LRU, no pinning.
struct CachePolicyOptions {
  EvictionPolicyKind policy = EvictionPolicyKind::kLru;
  // Pin blocks referenced by currently-running tasks so they are never
  // eviction victims while the task that planned against them runs. An
  // insert that cannot fit without evicting pinned bytes is skipped
  // (Spark-like: caching is best-effort), never a partial eviction.
  bool pin_running_blocks = false;
  // CostSize: floor (seconds) for recompute-cost estimates, so a
  // zero-estimate block cannot produce an infinite size/cost score.
  // Must be > 0; validate() throws std::invalid_argument otherwise.
  double min_recompute_cost = 1e-6;
  // Per-tenant cache quotas, indexed by TenantId (entry 0 = the default
  // tenant; entries must be in [0, 1]). A tenant with fraction f > 0 may
  // hold at most f * capacity bytes per store: its inserts evict its own
  // blocks first, and other tenants' global-pressure evictions never push
  // it below f * capacity. A 0 entry (or an id past the end) means no
  // quota: full capacity cap, no guaranteed floor. Empty (the default)
  // disables quota accounting entirely — byte-identical to the historical
  // store. Built from TenantOptions::cache_quota by api::Context.
  std::vector<double> tenant_quota_fractions;

  // Rejects inconsistent knobs with std::invalid_argument naming the field.
  // Called by ContextOptions::validate() and by BlockManager's constructor.
  void validate() const;
};

}  // namespace stark
