// Disaggregated remote-memory pool: the middle tier of the block hierarchy.
//
// The block path historically knew two homes — the local executor cache
// (BlockManager, RAM speed) and the per-server disk spill store (disk
// speed) — so cache pressure fell straight off a cliff. This pool adds a
// third home between them, in the spirit of Sparkle's large-shared-memory
// Spark and RDMA-disaggregated stores: a single cluster-wide memory region
// reachable from every executor via one-sided reads
// (CostModel::remote_read_latency + remote_read_bw, distinct from the disk
// service). Demotion follows RAM -> remote memory -> disk:
//
//   * BlockManager evictions with spill_on_evict first demote into the
//     pool (Cluster::insert_block), falling back to the victim's local
//     disk only when the pool cannot make room.
//   * The pool is bounded and runs its own EvictionPolicy — the PR 5
//     interface generalizes to a per-tier demotion policy — evicting its
//     victims down to the *origin* server's disk store.
//   * Reads fault blocks back up the hierarchy (DagScheduler::plan_chain),
//     charging the tier they were found in.
//
// The pool is disaggregated: it survives executor loss (kill_server leaves
// pool entries intact), holds at most one copy per BlockId, and is shared
// across tenants — per-tenant cache quotas (PR 7) govern RAM only.
// Integrity tags (PR 3) travel with demoted copies, so verified reads
// detect corrupt remote copies exactly like cache or spill ones.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/eviction_policy.h"
#include "common/types.h"

namespace stark {

// Tier a block copy lives in; also the `code` payload of block-demote /
// block-fault-back trace instants (see obs/trace_event.h).
enum class MemoryTier {
  kRam = 0,
  kRemote = 1,
  kDisk = 2,
};

// Knobs for the remote-memory tier, wired through
// ClusterConfig::remote_memory. Defaults keep the tier disabled and the
// engine byte-identical to the two-tier hierarchy.
struct RemoteMemoryOptions {
  bool enabled = false;
  // Pool capacity in bytes, shared by the whole cluster.
  Bytes capacity = 64.0 * kGiB;
  // Demotion policy for the pool's own evictions (pool -> disk). The pool
  // has no recompute-cost feed, so kCostSize degrades to its LRU tie-break;
  // kLrc reads the same lineage refcounts the RAM stores use.
  EvictionPolicyKind policy = EvictionPolicyKind::kLru;

  // Rejects inconsistent knobs with std::invalid_argument naming the
  // field. Called by ContextOptions::validate() and the Cluster ctor.
  void validate() const;
};

// Lifetime counters for the tier; reachable via Cluster::remote_stats().
struct RemoteMemoryStats {
  long long demotions_in = 0;        // RAM -> pool demotions stored
  Bytes bytes_demoted_in = 0.0;
  long long evictions_to_disk = 0;   // pool victims written to origin disk
  Bytes bytes_evicted_to_disk = 0.0;
  long long dropped_dead_origin = 0;  // pool victims whose origin is dead
  long long rejected_no_room = 0;     // demotions the pool could not admit
};

// The pool itself. Owned by Cluster (constructed only when enabled);
// Cluster mediates all demotions, fault-backs and fault injection, so the
// pool stays a pure container + policy pair.
class RemoteMemoryPool {
 public:
  RemoteMemoryPool(const RemoteMemoryOptions& options,
                   LineageRefcountFn lineage_refcount);

  // One block the pool evicted to make room; `origin` is the server whose
  // RAM copy originally demoted it (where the disk fallback copy lands).
  struct Demoted {
    BlockId id;
    Bytes bytes = 0.0;
    bool corrupted = false;
    ServerId origin = kInvalidId;
  };
  struct InsertResult {
    bool stored = false;
    std::vector<Demoted> evicted;
  };

  // Demotes a block into the pool, evicting policy-chosen victims until it
  // fits. Returns stored=false when the pool cannot make room (victims
  // already evicted are still returned and must be spilled by the caller);
  // the caller then spills the incoming block to its origin disk instead.
  // Re-demoting a present block overwrites it (last writer wins).
  InsertResult insert(const BlockId& id, Bytes bytes, bool corrupted,
                      ServerId origin);

  // One stored copy; `origin` is the server whose eviction demoted it.
  struct Entry {
    Bytes bytes = 0.0;
    bool corrupted = false;
    ServerId origin = kInvalidId;
  };
  const Entry* find(const BlockId& id) const noexcept;  // null if absent
  bool mark_corrupt(const BlockId& id);  // false when absent
  void touch(const BlockId& id);
  bool remove(const BlockId& id);  // false when absent

  Bytes capacity() const noexcept { return capacity_; }
  Bytes used() const noexcept { return used_; }
  std::size_t num_blocks() const noexcept { return entries_.size(); }
  // Pool contents sorted by (dataset, partition) so fault injectors
  // enumerating them stay deterministic across runs and stdlibs.
  std::vector<BlockId> blocks() const;

  const RemoteMemoryStats& stats() const noexcept { return stats_; }
  // Outcome notes for pool victims — the *caller* decides their fate
  // (origin disk vs dropped), so it reports it back for the stats.
  void note_evicted_to_disk(Bytes bytes) noexcept;
  void note_dropped_dead_origin() noexcept;

 private:
  Bytes capacity_ = 0.0;
  Bytes used_ = 0.0;
  std::unique_ptr<EvictionPolicy> policy_;
  std::unordered_map<BlockId, Entry, BlockIdHash> entries_;
  RemoteMemoryStats stats_;
};

}  // namespace stark
