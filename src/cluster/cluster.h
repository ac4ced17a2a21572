// Cluster: the set of simulated servers plus a global cached-block index.
//
// The index answers "which servers hold block B in RAM" — what Spark's
// driver-side BlockManagerMaster tracks — and keeps itself consistent with
// per-server policy-driven evictions (see cluster/eviction_policy.h) and
// server failures. Observers (the task scheduler's contention tracking,
// metrics) subscribe to block events. The cluster also hosts the lineage
// refcounts the kLrc eviction policy reads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/remote_memory.h"
#include "cluster/server.h"
#include "common/types.h"

namespace stark {

struct ClusterConfig {
  int num_servers = 40;
  ServerConfig server;
  // Rack topology for rack-level fault injection: servers [k*r, k*(r+1))
  // share rack r. 0 means a single rack spanning the whole cluster.
  int servers_per_rack = 0;
  // Eviction policy + pinning knobs shared by every server's block store
  // (see cluster/eviction_policy.h). Defaults reproduce plain LRU exactly.
  CachePolicyOptions cache;
  // Disaggregated remote-memory tier between RAM and disk (see
  // cluster/remote_memory.h). Disabled by default: demotion then goes
  // straight to the local disk store, byte-identical to the two-tier
  // engine.
  RemoteMemoryOptions remote_memory;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  int size() const noexcept { return static_cast<int>(servers_.size()); }
  // Inline: the schedulers call these on every offer, so the lookup must
  // not cost a cross-TU function call. .at() keeps the bounds check.
  Server& server(ServerId id) { return *servers_.at(static_cast<std::size_t>(id)); }
  const Server& server(ServerId id) const {
    return *servers_.at(static_cast<std::size_t>(id));
  }
  const ClusterConfig& config() const noexcept { return config_; }

  // Servers currently holding the block in RAM.
  const std::vector<ServerId>& cache_locations(const BlockId& id) const;
  bool cached_on(const BlockId& id, ServerId s) const;
  bool cached_anywhere(const BlockId& id) const;

  // Stores a block on a server (policy-chosen evictions propagate to the
  // index). Returns false if the block did not fit. With `spill_on_evict`,
  // a later eviction moves the block to the server's local disk store
  // (MEMORY_AND_DISK semantics) instead of dropping it. `recompute_cost`
  // (seconds, 0 = unknown) feeds the kCostSize eviction policy. `tenant`
  // records the owner for per-tenant cache quotas (inert unless
  // ClusterConfig::cache.tenant_quota_fractions is set).
  bool insert_block(ServerId s, const BlockId& id, Bytes bytes,
                    bool spill_on_evict = false, double recompute_cost = 0.0,
                    TenantId tenant = 0);

  // Pin / unpin one replica against eviction (see BlockManager::pin). Safe
  // no-ops when the block (or the server's storage) is gone.
  void pin_block(ServerId s, const BlockId& id);
  void unpin_block(ServerId s, const BlockId& id);

  // --- lineage refcounts (kLrc eviction feed) -------------------------------
  // Submitted-but-not-completed stages reading a cached dataset, maintained
  // by the DagScheduler: +delta on stage build, -delta on stage completion
  // or job abort. Clamped at zero; every server's block store reads it.
  void bump_lineage_refcount(DatasetId dataset, int delta);
  int lineage_refcount(DatasetId dataset) const noexcept;

  // --- local-disk spill store (unbounded; reads pay the cost model) -------
  Bytes total_spilled_bytes() const noexcept;
  // Spilled bytes held on one server's local disk (exact maintained
  // counter; summing these in server order is what total_spilled_bytes
  // does, so the total never depends on hash-map iteration order).
  Bytes disk_used_bytes(ServerId s) const {
    return disk_used_.at(static_cast<std::size_t>(s));
  }
  // Spilled block ids on a server, sorted by (dataset, partition) so fault
  // injectors enumerating them stay deterministic across runs.
  std::vector<BlockId> spilled_blocks(ServerId s) const;

  // --- remote-memory tier (cluster/remote_memory.h) ----------------------
  // Safe when the tier is disabled: 0 bytes, no blocks, zero stats.
  bool remote_memory_enabled() const noexcept { return remote_ != nullptr; }
  Bytes remote_used_bytes() const noexcept;
  // Pool contents sorted by (dataset, partition).
  std::vector<BlockId> remote_blocks() const;
  const RemoteMemoryStats& remote_stats() const noexcept {
    static const RemoteMemoryStats kEmpty{};
    return remote_ ? remote_->stats() : kEmpty;
  }

  // --- tier-indexed block copies ------------------------------------------
  // One stored copy of a block in one tier of the RAM -> remote pool ->
  // local disk hierarchy. `host` is the server holding it; for the
  // cluster-wide pool, the origin server whose eviction demoted it.
  struct BlockCopy {
    Bytes bytes = 0.0;  // stored size; a zero-byte copy is still present
    bool corrupt = false;
    ServerId host = kInvalidId;
  };
  // The copy of `id` in `tier` on server `s` (the remote tier ignores `s`),
  // or nullopt. A RAM copy is one the index lists for `s`; every RAM store
  // mutation goes through this class, so the store holds exactly those and
  // one store lookup answers the probe. Safe when the remote tier is
  // disabled (it then holds nothing).
  std::optional<BlockCopy> find_copy(MemoryTier tier, ServerId s,
                                     const BlockId& id) const;
  // Drops that copy; false when absent. Dropping a RAM replica notifies
  // the block observers; lower-tier copies stay put.
  bool drop_copy(MemoryTier tier, ServerId s, const BlockId& id);
  // Integrity fault: flips the copy's checksum tag; false when absent. A
  // corrupt RAM victim carries its bad tag down the hierarchy.
  bool corrupt_copy(MemoryTier tier, ServerId s, const BlockId& id);
  // Marks the copy most-recently-used (no-op on disk, which keeps no
  // recency).
  void touch_copy(MemoryTier tier, ServerId s, const BlockId& id);
  // Drops every copy of `id` in every tier and returns `acc` plus their
  // stored bytes, summed RAM replicas first (cache_locations order), then
  // the pool copy, then disk copies by ascending server. Callers fold
  // their running total through `acc` so it sums in exactly that order.
  Bytes drop_everywhere(const BlockId& id, Bytes acc = 0.0);

  // Failure injection: kills the server and forgets its blocks. Both calls
  // are idempotent; the return value says whether the state changed.
  bool kill_server(ServerId s);
  bool restart_server(ServerId s);

  // Network partition toggle; no-op (and no epoch bump) when unchanged.
  void set_server_reachable(ServerId s, bool reachable);

  // Monotonic counter bumped on every alive/reachable transition. Lets
  // schedulers cache topology-derived state and rebuild only after the
  // cluster actually changed.
  std::uint64_t topology_epoch() const noexcept { return topology_epoch_; }

  // Rack of a server under the configured topology (0 if single-rack).
  int rack_of(ServerId s) const noexcept;
  int num_racks() const noexcept;
  std::vector<ServerId> rack_members(int rack) const;

  int total_free_cores() const noexcept;
  std::vector<ServerId> alive_servers() const;
  // alive_servers().size(), kept by kill_server / restart_server.
  int alive_count() const noexcept { return alive_count_; }
  // Servers the driver can actually use: alive and not partitioned away.
  std::vector<ServerId> reachable_servers() const;

  Bytes total_cached_bytes() const noexcept;

  // Block event observers.
  using BlockObserver =
      std::function<void(ServerId, const BlockId&, bool inserted)>;
  void add_block_observer(BlockObserver obs);

  // Eviction-decision observers: each fires once per victim the eviction
  // policy picks during insert_block (before the generic not-inserted
  // notification), with the victim's size and spill fate. api::Context
  // wires the tracer's eviction-decision instants and, when overload
  // protection is on, the memory-pressure monitor's eviction-rate feed.
  using EvictionObserver =
      std::function<void(ServerId, const BlockManager::CachedBlock&)>;
  void add_eviction_observer(EvictionObserver obs);

  // Demotion observers: fire once per block copy moving *down* the
  // hierarchy — RAM -> remote pool (to == kRemote, origin = the evicting
  // server) and pool -> origin disk or plain RAM -> disk spill
  // (to == kDisk). api::Context wires the tracer's block-demote instants
  // when the remote tier is enabled.
  using DemotionObserver =
      std::function<void(const BlockId&, Bytes, MemoryTier to, ServerId origin)>;
  void add_demotion_observer(DemotionObserver obs);

 private:
  void notify(ServerId s, const BlockId& id, bool inserted);
  void index_remove(ServerId s, const BlockId& id);
  // Moves an evicted spill victim down the hierarchy: remote pool first
  // (when enabled), origin disk otherwise or when the pool refuses.
  void demote(ServerId s, const BlockManager::CachedBlock& victim);
  // Disk-store mutations routed through these two so disk_used_ can never
  // drift from the store contents (re-spill subtracts the old size first).
  void disk_put(ServerId s, const BlockId& id, Bytes bytes, bool corrupted);
  bool disk_erase(ServerId s, const BlockId& id);

  struct SpilledBlock {
    Bytes bytes = 0.0;
    bool corrupted = false;
  };

  ClusterConfig config_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::unordered_map<BlockId, std::vector<ServerId>, BlockIdHash> index_;
  std::vector<std::unordered_map<BlockId, SpilledBlock, BlockIdHash>>
      disk_store_;
  // Exact spilled bytes per server, maintained by disk_put/disk_erase.
  std::vector<Bytes> disk_used_;
  std::unique_ptr<RemoteMemoryPool> remote_;  // null when tier disabled
  std::vector<BlockObserver> observers_;
  std::vector<EvictionObserver> eviction_observers_;
  std::vector<DemotionObserver> demotion_observers_;
  std::unordered_map<DatasetId, int> lineage_refcounts_;
  std::vector<ServerId> empty_;
  std::uint64_t topology_epoch_ = 0;
  int alive_count_ = 0;
};

}  // namespace stark
