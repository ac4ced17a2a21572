// Cached-block store: each server's RAM cache, and the store inside the
// cluster-wide remote-memory pool.
//
// Mirrors Spark's BlockManager at the granularity the simulation needs:
// which (dataset, partition) blocks live in a storage pool, how big they
// are, and which get evicted when memory runs out. The store keeps exactly
// one record per block, in one recency list it owns. *Which* block goes is
// one of the stateless rules in cluster/eviction_policy.h (LRU,
// least-reference-count, or weighted cost/size), applied while the store
// scans that list from the LRU end. Blocks referenced by currently-running
// tasks can be pinned so they are never victims. Every block carries an
// integrity tag — a simulated checksum stamped at write time. Corruption
// injection flips the tag; a verified read (the task planner's cache
// probe) detects the mismatch instead of serving poisoned bytes.
#pragma once

#include <cstddef>
#include <list>
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

  // The one record of a stored block copy. An eviction hands the victim's
  // record back to the caller.
  struct CachedBlock {
    BlockId id;
    Bytes bytes = 0.0;
    // Integrity tag. A fresh insert always stores a valid checksum;
    // mark_corrupt simulates a bit flip in the stored copy. The flag
    // travels with an evicted copy — corrupt bytes written to a lower tier
    // stay corrupt.
    bool corrupted = false;
    // MEMORY_AND_DISK: the owner (Cluster) moves this block down the
    // hierarchy when it is evicted instead of dropping it.
    bool spill = false;
    int pins = 0;
    TenantId tenant = 0;           // last writer; quota owner
    double recompute_cost = 0.0;   // planner's estimate (s); 0 = unknown
    ServerId origin = kInvalidId;  // server whose RAM cache wrote the copy
  };

  Bytes capacity() const noexcept { return capacity_; }
  // Exactly 0 once the store is empty, whatever add/subtract residue the
  // inserts and removals before left behind.
  Bytes used() const noexcept { return used_; }
  // An empty store is 0% utilized even at zero capacity; only a
  // zero-capacity store actually holding (zero-byte) blocks reports full.
  double utilization() const noexcept {
    if (capacity_ > 0.0) return used_ / capacity_;
    return blocks_.empty() ? 0.0 : 1.0;
  }
  std::size_t num_blocks() const noexcept { return blocks_.size(); }

  // The eviction policy this store runs (kLru unless configured otherwise).
  EvictionPolicyKind policy() const noexcept { return cache_.policy; }

  bool contains(const BlockId& id) const noexcept;
  // The block's record, or null when absent.
  const CachedBlock* find(const BlockId& id) const noexcept;

  // Flips the block's integrity tag; false if the block is absent.
  bool mark_corrupt(const BlockId& id);

  // Marks the block most-recently-used.
  void touch(const BlockId& id);

  // Pinning: a pinned block is never an eviction victim (running tasks pin
  // the blocks their plan reads), whatever its size. Pins nest — pin()
  // increments a per-block count, unpin() decrements it. Both return false
  // (and change nothing) when the block is absent, which makes unpinning
  // safe across evictions, explicit removals and server kills that
  // already dropped the block. Pins do NOT protect against
  // remove()/clear(): explicit removal (e.g. a verified read dropping a
  // corrupt replica) always wins.
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
  // such victims to a lower tier instead of dropping them.
  // `recompute_cost` (seconds, 0 = unknown) is the planner's estimate of
  // rebuilding this block from lineage; only the kCostSize policy reads it.
  struct InsertResult {
    bool stored = false;
    std::vector<CachedBlock> evicted;
  };
  // `tenant` records which tenant owns the block for quota accounting
  // (inert while CachePolicyOptions::tenant_quota_fractions is empty). A
  // re-insert under a different tenant transfers ownership to the last
  // writer. Quota semantics: the owning tenant's inserts first evict its
  // own blocks while it sits over its cap; the global-pressure pass then
  // skips victims whose eviction would push *their* owner below its
  // guaranteed share. `origin` is the server whose RAM cache wrote the copy
  // (a RAM store passes its own server).
  InsertResult insert(const BlockId& id, Bytes bytes,
                      bool spill_on_evict = false,
                      double recompute_cost = 0.0, TenantId tenant = 0,
                      ServerId origin = kInvalidId);

  // Removes a block if present (pinned or not); returns true if it existed.
  bool remove(const BlockId& id);

  // Drops everything, including pins (server failure); returns the dropped
  // ids in MRU order.
  std::vector<BlockId> clear();

  // Every block's record, from most- to least-recently used (recency order
  // means the same under every policy).
  const std::list<CachedBlock>& records() const noexcept { return blocks_; }
  std::vector<BlockId> blocks_mru_order() const;

  // Bytes currently held by a tenant's blocks. Always 0 while quotas are
  // disabled (ownership is only charged when tenant_quota_fractions is
  // non-empty).
  Bytes tenant_used(TenantId tenant) const noexcept;

 private:
  using Iter = std::list<CachedBlock>::iterator;
  // The next victim for an insert of `incoming` by `tenant`, or end() when
  // no record is eligible: one scan from the LRU end applying the policy.
  Iter next_victim(const BlockId& incoming, TenantId tenant, bool own_only);
  // Victim filter: never a pinned block; with `own_only`, only `tenant`'s
  // blocks; otherwise never one whose eviction would push a quota-holding
  // owner below its guaranteed share.
  bool evictable(const CachedBlock& block, TenantId tenant,
                 bool own_only) const noexcept;
  // Unlinks a record and settles every byte counter it was charged to.
  void erase(Iter it);
  // Quota helpers (see CachePolicyOptions::tenant_quota_fractions).
  bool quotas_enabled() const noexcept {
    return !cache_.tenant_quota_fractions.empty();
  }
  double quota_fraction(TenantId tenant) const noexcept;
  void charge_tenant(TenantId tenant, Bytes delta);

  Bytes capacity_;
  Bytes used_ = 0.0;
  Bytes pinned_bytes_ = 0.0;  // bytes of blocks with pins > 0
  CachePolicyOptions cache_;
  LineageRefcountFn lineage_refcount_;
  std::vector<Bytes> tenant_used_;  // index = TenantId; lazily grown
  // front = most recently used; victim scans walk from the back so every
  // policy resolves ties in LRU order.
  std::list<CachedBlock> blocks_;
  std::unordered_map<BlockId, Iter, BlockIdHash> index_;
};

}  // namespace stark
