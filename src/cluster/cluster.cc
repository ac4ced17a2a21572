#include "cluster/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace stark {

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), alive_count_(config.num_servers) {
  if (config.num_servers <= 0) {
    throw std::invalid_argument("Cluster: num_servers must be > 0");
  }
  config.cache.validate();
  config.remote_memory.validate();
  servers_.reserve(static_cast<std::size_t>(config.num_servers));
  disk_store_.resize(static_cast<std::size_t>(config.num_servers));
  disk_used_.resize(static_cast<std::size_t>(config.num_servers), 0.0);
  // Every store — each server's and the pool's — reads this cluster's
  // lineage refcounts when it runs kLrc (the pool's policy may differ from
  // the RAM one). The lambda captures `this`; Cluster is neither copied nor
  // moved after construction (Context holds it by value, tests on the
  // stack).
  const LineageRefcountFn refcount = [this](DatasetId id) {
    return lineage_refcount(id);
  };
  for (int i = 0; i < config.num_servers; ++i) {
    servers_.push_back(
        std::make_unique<Server>(i, config.server, config.cache, refcount));
  }
  if (config.remote_memory.enabled) {
    remote_ = std::make_unique<RemoteMemoryPool>(config.remote_memory,
                                                 refcount);
  }
}

const std::vector<ServerId>& Cluster::cache_locations(
    const BlockId& id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? empty_ : it->second;
}

bool Cluster::cached_on(const BlockId& id, ServerId s) const {
  const auto& locs = cache_locations(id);
  return std::find(locs.begin(), locs.end(), s) != locs.end();
}

bool Cluster::cached_anywhere(const BlockId& id) const {
  return !cache_locations(id).empty();
}

void Cluster::notify(ServerId s, const BlockId& id, bool inserted) {
  for (const auto& obs : observers_) obs(s, id, inserted);
}

void Cluster::index_remove(ServerId s, const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  auto& locs = it->second;
  locs.erase(std::remove(locs.begin(), locs.end(), s), locs.end());
  if (locs.empty()) index_.erase(it);
}

bool Cluster::insert_block(ServerId s, const BlockId& id, Bytes bytes,
                           bool spill_on_evict, double recompute_cost,
                           TenantId tenant) {
  Server& srv = server(s);
  if (!srv.alive()) return false;
  const bool was_indexed = cached_on(id, s);
  const auto result = srv.storage().insert(id, bytes, spill_on_evict,
                                           recompute_cost, tenant, s);
  // Victims leave RAM first (observers, index, not-inserted notifications
  // in eviction order), then demote in ascending BlockId order: the pool's
  // recency state among same-instant victims must never depend on how the
  // store's containers happened to iterate.
  std::vector<BlockManager::CachedBlock> spill;
  for (const auto& victim : result.evicted) {
    for (const auto& obs : eviction_observers_) obs(s, victim);
    if (victim.spill) spill.push_back(victim);
    index_remove(s, victim.id);
    notify(s, victim.id, /*inserted=*/false);
  }
  std::ranges::sort(spill, {}, &BlockManager::CachedBlock::id);
  for (const auto& victim : spill) demote(s, victim);
  if (!result.stored) {
    // A failed re-insert still dropped the old RAM copy inside the store
    // (resize-or-insert semantics); the index must not keep advertising a
    // phantom replica. Lower-tier copies stay put — a failed insert must
    // never destroy the only remaining spilled or remote copy.
    if (was_indexed) {
      index_remove(s, id);
      notify(s, id, /*inserted=*/false);
    }
    return false;
  }
  // A fresh in-memory copy supersedes stale lower-tier ones.
  disk_erase(s, id);
  if (remote_) remote_->remove(id);
  auto& locs = index_[id];
  if (std::find(locs.begin(), locs.end(), s) == locs.end()) {
    locs.push_back(s);
  }
  notify(s, id, /*inserted=*/true);
  return true;
}

void Cluster::demote(ServerId s, const BlockManager::CachedBlock& victim) {
  if (remote_) {
    const auto result =
        remote_->insert(victim.id, victim.bytes, victim.corrupted, s);
    // Pool victims cascade to their *origin* server's disk; a dead origin
    // means the copy is simply gone (lineage recompute covers the loss,
    // exactly as if the block had spilled to that disk before the crash).
    for (const auto& demoted : result.evicted) {
      if (server(demoted.origin).alive()) {
        disk_put(demoted.origin, demoted.id, demoted.bytes, demoted.corrupted);
        remote_->note_evicted_to_disk(demoted.bytes);
        for (const auto& obs : demotion_observers_) {
          obs(demoted.id, demoted.bytes, MemoryTier::kDisk, demoted.origin);
        }
      } else {
        remote_->note_dropped_dead_origin();
      }
    }
    if (result.stored) {
      // The pool copy supersedes a stale spilled one on the origin disk.
      disk_erase(s, victim.id);
      for (const auto& obs : demotion_observers_) {
        obs(victim.id, victim.bytes, MemoryTier::kRemote, s);
      }
      return;
    }
  }
  disk_put(s, victim.id, victim.bytes, victim.corrupted);
  for (const auto& obs : demotion_observers_) {
    obs(victim.id, victim.bytes, MemoryTier::kDisk, s);
  }
}

void Cluster::disk_put(ServerId s, const BlockId& id, Bytes bytes,
                       bool corrupted) {
  auto& store = disk_store_[static_cast<std::size_t>(s)];
  auto& used = disk_used_[static_cast<std::size_t>(s)];
  const auto it = store.find(id);
  if (it != store.end()) used -= it->second.bytes;  // re-spill overwrites
  store[id] = {bytes, corrupted};
  used += bytes;
}

bool Cluster::disk_erase(ServerId s, const BlockId& id) {
  auto& store = disk_store_[static_cast<std::size_t>(s)];
  const auto it = store.find(id);
  if (it == store.end()) return false;
  auto& used = disk_used_[static_cast<std::size_t>(s)];
  used -= it->second.bytes;
  store.erase(it);
  // FP add/subtract churn may leave a residue; the counter is defined to
  // be exactly 0 for an empty store and never negative.
  if (store.empty() || used < 0.0) used = 0.0;
  return true;
}

std::optional<Cluster::BlockCopy> Cluster::find_copy(MemoryTier tier,
                                                     ServerId s,
                                                     const BlockId& id) const {
  switch (tier) {
    case MemoryTier::kRam: {
      const auto* block = server(s).storage().find(id);
      if (block == nullptr) return std::nullopt;
      return BlockCopy{block->bytes, block->corrupted, s};
    }
    case MemoryTier::kRemote: {
      const auto* block = remote_ ? remote_->find(id) : nullptr;
      if (block == nullptr) return std::nullopt;
      return BlockCopy{block->bytes, block->corrupted, block->origin};
    }
    case MemoryTier::kDisk: {
      const auto& store = disk_store_.at(static_cast<std::size_t>(s));
      const auto it = store.find(id);
      if (it == store.end()) return std::nullopt;
      return BlockCopy{it->second.bytes, it->second.corrupted, s};
    }
  }
  return std::nullopt;
}

bool Cluster::drop_copy(MemoryTier tier, ServerId s, const BlockId& id) {
  switch (tier) {
    case MemoryTier::kRam:
      if (!server(s).storage().remove(id)) return false;
      index_remove(s, id);
      notify(s, id, /*inserted=*/false);
      return true;
    case MemoryTier::kRemote:
      return remote_ && remote_->remove(id);
    case MemoryTier::kDisk:
      // Through disk_erase so dropping a copy — corrupt or not — always
      // settles the byte accounting (no leak, no double-subtract).
      return disk_erase(s, id);
  }
  return false;
}

bool Cluster::corrupt_copy(MemoryTier tier, ServerId s, const BlockId& id) {
  // Dead servers hold no copies (kill_server clears their RAM and disk),
  // so the presence check refuses them too.
  if (!find_copy(tier, s, id)) return false;
  switch (tier) {
    case MemoryTier::kRam:
      return server(s).storage().mark_corrupt(id);
    case MemoryTier::kRemote:
      return remote_->mark_corrupt(id);
    case MemoryTier::kDisk:
      disk_store_[static_cast<std::size_t>(s)].at(id).corrupted = true;
      return true;
  }
  return false;
}

void Cluster::touch_copy(MemoryTier tier, ServerId s, const BlockId& id) {
  if (tier == MemoryTier::kRam) {
    server(s).storage().touch(id);
  } else if (tier == MemoryTier::kRemote && remote_) {
    remote_->touch(id);
  }
}

Bytes Cluster::drop_everywhere(const BlockId& id, Bytes acc) {
  const auto take = [&](MemoryTier tier, ServerId s) {
    if (const auto copy = find_copy(tier, s, id)) {
      acc += copy->bytes;
      drop_copy(tier, s, id);
    }
  };
  // Copy: dropping a RAM replica edits the index vector.
  const std::vector<ServerId> locs = cache_locations(id);
  for (const ServerId s : locs) take(MemoryTier::kRam, s);
  take(MemoryTier::kRemote, kInvalidId);
  for (ServerId s = 0; s < size(); ++s) take(MemoryTier::kDisk, s);
  return acc;
}

void Cluster::pin_block(ServerId s, const BlockId& id) {
  server(s).storage().pin(id);
}

void Cluster::unpin_block(ServerId s, const BlockId& id) {
  server(s).storage().unpin(id);
}

void Cluster::bump_lineage_refcount(DatasetId dataset, int delta) {
  const auto it = lineage_refcounts_.find(dataset);
  if (it == lineage_refcounts_.end()) {
    if (delta > 0) lineage_refcounts_.emplace(dataset, delta);
    return;
  }
  it->second += delta;
  if (it->second <= 0) lineage_refcounts_.erase(it);
}

int Cluster::lineage_refcount(DatasetId dataset) const noexcept {
  const auto it = lineage_refcounts_.find(dataset);
  return it == lineage_refcounts_.end() ? 0 : it->second;
}

bool Cluster::kill_server(ServerId s) {
  Server& srv = server(s);
  if (!srv.alive()) return false;  // killing a dead server is a no-op
  // RAM and local disk die with the server; remote-pool entries survive —
  // the pool is disaggregated, which is the tier's whole fault-model point.
  disk_store_[static_cast<std::size_t>(s)].clear();
  disk_used_[static_cast<std::size_t>(s)] = 0.0;
  for (const BlockId& id : srv.storage().clear()) {
    index_remove(s, id);
    notify(s, id, /*inserted=*/false);
  }
  srv.kill();
  --alive_count_;
  ++topology_epoch_;
  return true;
}

bool Cluster::restart_server(ServerId s) {
  Server& srv = server(s);
  if (srv.alive()) return false;  // restarting a live server is a no-op
  srv.restart();
  ++alive_count_;
  ++topology_epoch_;
  return true;
}

void Cluster::set_server_reachable(ServerId s, bool reachable) {
  Server& srv = server(s);
  if (srv.reachable() == reachable) return;
  srv.set_reachable(reachable);
  ++topology_epoch_;
}

int Cluster::rack_of(ServerId s) const noexcept {
  return config_.servers_per_rack > 0 ? s / config_.servers_per_rack : 0;
}

int Cluster::num_racks() const noexcept {
  if (config_.servers_per_rack <= 0) return 1;
  return (config_.num_servers + config_.servers_per_rack - 1) /
         config_.servers_per_rack;
}

std::vector<ServerId> Cluster::rack_members(int rack) const {
  std::vector<ServerId> out;
  for (const auto& srv : servers_) {
    if (rack_of(srv->id()) == rack) out.push_back(srv->id());
  }
  return out;
}

int Cluster::total_free_cores() const noexcept {
  int n = 0;
  for (const auto& srv : servers_) {
    if (srv->alive()) n += srv->free_cores();
  }
  return n;
}

std::vector<ServerId> Cluster::alive_servers() const {
  std::vector<ServerId> out;
  out.reserve(servers_.size());
  for (const auto& srv : servers_) {
    if (srv->alive()) out.push_back(srv->id());
  }
  return out;
}

std::vector<ServerId> Cluster::reachable_servers() const {
  std::vector<ServerId> out;
  out.reserve(servers_.size());
  for (const auto& srv : servers_) {
    if (srv->alive() && srv->reachable()) out.push_back(srv->id());
  }
  return out;
}

Bytes Cluster::total_cached_bytes() const noexcept {
  Bytes total = 0.0;
  for (const auto& srv : servers_) total += srv->storage().used();
  return total;
}

Bytes Cluster::total_spilled_bytes() const noexcept {
  // Sum the maintained per-server counters in server-index order: exact
  // and independent of hash-map iteration order, so the value (and any
  // JSON built from it) is identical across standard libraries.
  Bytes total = 0.0;
  for (const Bytes used : disk_used_) total += used;
  return total;
}

std::vector<BlockId> Cluster::spilled_blocks(ServerId s) const {
  const auto& store = disk_store_.at(static_cast<std::size_t>(s));
  std::vector<BlockId> out;
  out.reserve(store.size());
  for (const auto& [id, block] : store) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

// --- remote-memory tier ------------------------------------------------

Bytes Cluster::remote_used_bytes() const noexcept {
  return remote_ ? remote_->used() : 0.0;
}

std::vector<BlockId> Cluster::remote_blocks() const {
  return remote_ ? remote_->blocks() : std::vector<BlockId>{};
}

void Cluster::add_block_observer(BlockObserver obs) {
  observers_.push_back(std::move(obs));
}

void Cluster::add_eviction_observer(EvictionObserver obs) {
  eviction_observers_.push_back(std::move(obs));
}

void Cluster::add_demotion_observer(DemotionObserver obs) {
  demotion_observers_.push_back(std::move(obs));
}

}  // namespace stark
