// Block identity and pluggable cache-eviction policies for BlockManager.
//
// The per-server block store delegates *which* block to evict to an
// EvictionPolicy. Three policies ship (paper §II-B motivates why recency
// alone is blind to the DAG):
//
//   * Lru      — classic least-recently-used; byte-identical to the
//                behaviour BlockManager had when the LRU list was
//                hardwired, and therefore the default.
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
// All three policies keep the same recency bookkeeping, so
// blocks_mru_order() (used by deterministic fault injectors) means the same
// thing under every policy, and victim scans are deterministic.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace stark {

// Identity of one cached partition: (dataset, partition). Hashable; the
// whole block vocabulary (BlockManager, Cluster index, trace events) keys
// on this pair.
struct BlockId {
  DatasetId dataset = kInvalidId;
  int partition = -1;

  bool operator==(const BlockId&) const = default;
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

// Victim-selection strategy of one BlockManager. The store mirrors every
// mutation into the policy (on_insert / on_touch / on_remove / on_clear);
// choose_victim() answers "which unpinned block goes next". The base class
// owns the recency bookkeeping shared by all policies; subclasses only
// implement the victim scan. Not copyable; owned by the BlockManager via
// make_eviction_policy().
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual EvictionPolicyKind kind() const noexcept = 0;

  // Store mutations, mirrored by BlockManager. on_insert registers a new
  // block as most-recently-used with its in-memory footprint and the
  // planner's recompute-cost estimate (seconds; 0 = unknown). All four are
  // no-ops / idempotent for absent ids.
  void on_insert(const BlockId& id, Bytes bytes, double recompute_cost);
  void on_touch(const BlockId& id);
  void on_remove(const BlockId& id);
  void on_clear();

  // Blocks from most- to least-recently used (same recency meaning under
  // every policy; fault injectors rely on this order being deterministic).
  std::vector<BlockId> blocks_mru_order() const;

  // The next eviction victim among blocks for which `pinned` (when
  // non-empty) returns false; nullopt when no block is eligible or the
  // store is empty (the insert is then skipped, not partially evicted).
  // `incoming` identifies the block being inserted: Lrc and CostSize never
  // victimize other partitions of the same dataset (Spark's MemoryStore
  // rule — evicting the RDD being materialized to admit more of itself
  // turns every multi-partition insert into a self-eviction storm). Lru
  // ignores `incoming` to stay byte-identical to the hardwired list.
  // Pure: the caller (BlockManager) performs the actual removal and
  // mirrors it back via on_remove().
  virtual std::optional<BlockId> choose_victim(
      const BlockId& incoming,
      const std::function<bool(const BlockId&)>& pinned) const = 0;

 protected:
  struct Node {
    BlockId id;
    Bytes bytes = 0.0;
    double recompute_cost = 0.0;
  };
  // front = most recently used. Victim scans walk from the back so every
  // policy resolves ties in LRU order.
  std::list<Node> recency_;
  std::unordered_map<BlockId, std::list<Node>::iterator, BlockIdHash> index_;
};

// Builds the policy `options.policy` selects. `lineage_refcount` feeds kLrc
// (may be empty: refcounts then read as 0 and kLrc degrades to LRU); the
// other policies ignore it. Never returns null.
std::unique_ptr<EvictionPolicy> make_eviction_policy(
    const CachePolicyOptions& options, LineageRefcountFn lineage_refcount);

}  // namespace stark
