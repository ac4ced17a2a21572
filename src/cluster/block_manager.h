// Per-server cached-block store with pluggable eviction (LRU by default).
//
// Mirrors Spark's BlockManager at the granularity the simulation needs:
// which (dataset, partition) blocks live in this server's storage pool, how
// big they are, and which get evicted when memory runs out. *Which* block
// goes is delegated to an EvictionPolicy (see cluster/eviction_policy.h):
// LRU, least-reference-count, or weighted cost/size. Blocks referenced by
// currently-running tasks can be pinned so they are never victims. Every
// block carries an integrity tag — a simulated checksum stamped at write
// time. Corruption injection flips the tag; a verified read (the task
// planner's cache probe) detects the mismatch instead of serving poisoned
// bytes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/eviction_policy.h"  // also defines BlockId / BlockIdHash
#include "common/types.h"

namespace stark {

class BlockManager {
 public:
  // Capacity in bytes (>= 0; throws std::invalid_argument otherwise).
  // `cache` selects the eviction policy (validated here — throws on bad
  // knobs); `lineage_refcount` feeds the kLrc policy and may be empty.
  explicit BlockManager(Bytes capacity, const CachePolicyOptions& cache = {},
                        LineageRefcountFn lineage_refcount = nullptr);

  Bytes capacity() const noexcept { return capacity_; }
  Bytes used() const noexcept { return used_; }
  // An empty store is 0% utilized even at zero capacity; only a
  // zero-capacity store actually holding (zero-byte) blocks reports full.
  double utilization() const noexcept {
    if (capacity_ > 0.0) return used_ / capacity_;
    return blocks_.empty() ? 0.0 : 1.0;
  }
  std::size_t num_blocks() const noexcept { return blocks_.size(); }

  // The eviction policy this store runs (kLru unless configured otherwise).
  EvictionPolicyKind policy() const noexcept { return policy_->kind(); }

  bool contains(const BlockId& id) const noexcept;
  // A stored block's size and integrity tag, or nullopt when absent.
  struct StoredBlock {
    Bytes bytes = 0.0;
    bool corrupted = false;
  };
  std::optional<StoredBlock> find(const BlockId& id) const noexcept;

  // Integrity tag (StoredBlock::corrupted). A fresh insert always stores a
  // valid checksum; mark_corrupt simulates a bit flip in the stored copy
  // (returns false if the block is absent). The flag travels with the
  // block on spill-eviction (EvictedBlock::corrupted) — corrupt bytes
  // written to disk stay corrupt.
  bool mark_corrupt(const BlockId& id);

  // Marks the block most-recently-used.
  void touch(const BlockId& id);

  // Pinning: a pinned block is never an eviction victim (running tasks pin
  // the blocks their plan reads). Pins nest — pin() increments a per-block
  // count, unpin() decrements it. Both return false (and change nothing)
  // when the block is absent, which makes unpinning safe across evictions,
  // explicit removals and server kills that already dropped the block.
  // Pins do NOT protect against remove()/clear(): explicit removal (e.g. a
  // verified read dropping a corrupt replica) always wins.
  bool pin(const BlockId& id);
  bool unpin(const BlockId& id);
  int pin_count(const BlockId& id) const noexcept;  // 0 if absent
  Bytes pinned_bytes() const noexcept { return pinned_bytes_; }

  // Inserts (or resizes) a block, evicting policy-chosen victims as needed.
  // Returns the evicted blocks. A block larger than total capacity is not
  // stored (Spark skips caching partitions that cannot fit) and `stored` is
  // false; likewise when pinned blocks alone leave too little room, or when
  // the policy runs out of eligible victims (kLrc/kCostSize never evict
  // other partitions of the inserting dataset). An insert never evicts a
  // pinned block.
  // `spill_on_evict` tags MEMORY_AND_DISK blocks: the owner (Cluster) moves
  // such victims to the server's disk store instead of dropping them.
  // `recompute_cost` (seconds, 0 = unknown) is the planner's estimate of
  // rebuilding this block from lineage; only the kCostSize policy reads it.
  struct EvictedBlock {
    BlockId id;
    Bytes bytes = 0.0;
    bool spill = false;
    bool corrupted = false;  // the victim's integrity tag was already bad
  };
  struct InsertResult {
    bool stored = false;
    std::vector<EvictedBlock> evicted;
  };
  // `tenant` records which tenant owns the block for quota accounting
  // (inert while CachePolicyOptions::tenant_quota_fractions is empty). A
  // re-insert under a different tenant transfers ownership to the last
  // writer. Quota semantics: the owning tenant's inserts first evict its
  // own blocks while it sits over its cap; the global-pressure pass then
  // skips victims whose eviction would push *their* owner below its
  // guaranteed share.
  InsertResult insert(const BlockId& id, Bytes bytes,
                      bool spill_on_evict = false,
                      double recompute_cost = 0.0, TenantId tenant = 0);

  // Removes a block if present (pinned or not); returns true if it existed.
  bool remove(const BlockId& id);

  // Drops everything, including pins (server failure).
  std::vector<BlockId> clear();

  // Blocks from most- to least-recently used (recency order is maintained
  // identically under every policy).
  std::vector<BlockId> blocks_mru_order() const;

  // Bytes currently held by a tenant's blocks. Always 0 while quotas are
  // disabled (ownership is only tracked when tenant_quota_fractions is
  // non-empty).
  Bytes tenant_used(TenantId tenant) const noexcept;

 private:
  struct Entry {
    Bytes bytes;
    bool spill_on_evict;
    bool corrupted = false;
    int pins = 0;
    TenantId tenant = 0;  // quota owner; meaningful only with quotas on
  };
  // Quota helpers (see CachePolicyOptions::tenant_quota_fractions).
  double quota_fraction(TenantId tenant) const noexcept;
  void charge_tenant(TenantId tenant, Bytes delta);

  Bytes capacity_;
  Bytes used_ = 0.0;
  Bytes pinned_bytes_ = 0.0;  // bytes of blocks with pins > 0
  bool quotas_enabled_ = false;
  std::vector<double> quota_fractions_;  // copy of the configured fractions
  std::vector<Bytes> tenant_used_;       // index = TenantId; lazily grown
  std::unique_ptr<EvictionPolicy> policy_;
  std::unordered_map<BlockId, Entry, BlockIdHash> blocks_;
  // Victim filter handed to the policy; empty while nothing is pinned so
  // the unpinned common case skips per-victim pin lookups entirely.
  std::function<bool(const BlockId&)> pinned_fn_;
};

}  // namespace stark
