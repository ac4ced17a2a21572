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
//   * The pool is bounded and stores its copies in its own BlockManager,
//     which applies the pool's own eviction policy (it may differ from the
//     RAM one), evicting its victims down to the *origin* server's disk
//     store.
//   * Reads fault blocks back up the hierarchy (DagScheduler::plan_chain),
//     charging the tier they were found in.
//
// The pool is disaggregated: it survives executor loss (kill_server leaves
// pool entries intact), holds at most one copy per BlockId, and is shared
// across tenants — per-tenant cache quotas (PR 7) govern RAM only.
// Integrity tags (PR 3) travel with demoted copies, so verified reads
// detect corrupt remote copies exactly like cache or spill ones.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/block_manager.h"
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
  // has no recompute-cost feed, so every cost sits at the floor and
  // kCostSize evicts the largest block, breaking ties in LRU order; kLrc
  // reads the same lineage refcounts the RAM stores use.
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

// The pool itself: a BlockManager with no pins and no quotas, whose
// records carry the origin server of each copy. Owned by Cluster
// (constructed only when enabled); Cluster mediates all demotions,
// fault-backs and fault injection, so the pool stays a pure store.
class RemoteMemoryPool {
 public:
  RemoteMemoryPool(const RemoteMemoryOptions& options,
                   LineageRefcountFn lineage_refcount);

  // Each evicted record's `origin` is the server whose RAM copy originally
  // demoted it (where the disk fallback copy lands).
  using InsertResult = BlockManager::InsertResult;

  // Demotes a block into the pool, evicting policy-chosen victims until it
  // fits. Returns stored=false when the pool cannot make room (victims
  // already evicted are still returned and must be spilled by the caller);
  // the caller then spills the incoming block to its origin disk instead.
  // A block larger than the whole pool is rejected up front and any old
  // copy stays. Re-demoting a present block overwrites it (last writer
  // wins); a corrupt copy keeps its bad tag.
  InsertResult insert(const BlockId& id, Bytes bytes, bool corrupted,
                      ServerId origin);

  // One stored copy; `origin` is the server whose eviction demoted it.
  // Null if absent.
  const BlockManager::CachedBlock* find(const BlockId& id) const noexcept {
    return store_.find(id);
  }
  // Both return false when absent.
  bool mark_corrupt(const BlockId& id) { return store_.mark_corrupt(id); }
  bool remove(const BlockId& id) { return store_.remove(id); }
  void touch(const BlockId& id) { store_.touch(id); }

  Bytes capacity() const noexcept { return store_.capacity(); }
  Bytes used() const noexcept { return store_.used(); }
  std::size_t num_blocks() const noexcept { return store_.num_blocks(); }
  // Pool contents sorted by (dataset, partition) so fault injectors
  // enumerating them stay deterministic across runs and stdlibs.
  std::vector<BlockId> blocks() const;

  const RemoteMemoryStats& stats() const noexcept { return stats_; }
  // Outcome notes for pool victims — the *caller* decides their fate
  // (origin disk vs dropped), so it reports it back for the stats.
  void note_evicted_to_disk(Bytes bytes) noexcept;
  void note_dropped_dead_origin() noexcept;

 private:
  BlockManager store_;
  RemoteMemoryStats stats_;
};

}  // namespace stark
