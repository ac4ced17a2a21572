#include "cluster/block_manager.h"

#include <algorithm>
#include <stdexcept>

namespace stark {

BlockManager::BlockManager(Bytes capacity, const CachePolicyOptions& cache,
                           LineageRefcountFn lineage_refcount)
    : capacity_(capacity),
      cache_(cache),
      lineage_refcount_(std::move(lineage_refcount)) {
  if (capacity < 0.0) {
    throw std::invalid_argument("BlockManager: negative capacity");
  }
  cache.validate();
}

double BlockManager::quota_fraction(TenantId tenant) const noexcept {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  const auto& fractions = cache_.tenant_quota_fractions;
  return idx < fractions.size() ? fractions[idx] : 0.0;
}

void BlockManager::charge_tenant(TenantId tenant, Bytes delta) {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  if (tenant_used_.size() <= idx) tenant_used_.resize(idx + 1, 0.0);
  tenant_used_[idx] += delta;
}

Bytes BlockManager::tenant_used(TenantId tenant) const noexcept {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  return idx < tenant_used_.size() ? tenant_used_[idx] : 0.0;
}

bool BlockManager::contains(const BlockId& id) const noexcept {
  return index_.contains(id);
}

const BlockManager::CachedBlock* BlockManager::find(
    const BlockId& id) const noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &*it->second;
}

bool BlockManager::mark_corrupt(const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  it->second->corrupted = true;
  return true;
}

void BlockManager::touch(const BlockId& id) {
  const auto it = index_.find(id);
  if (it != index_.end()) blocks_.splice(blocks_.begin(), blocks_, it->second);
}

bool BlockManager::pin(const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  CachedBlock& block = *it->second;
  if (block.pins++ == 0) pinned_bytes_ += block.bytes;
  return true;
}

bool BlockManager::unpin(const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end() || it->second->pins == 0) return false;
  CachedBlock& block = *it->second;
  if (--block.pins == 0) pinned_bytes_ -= block.bytes;
  return true;
}

int BlockManager::pin_count(const BlockId& id) const noexcept {
  const CachedBlock* block = find(id);
  return block == nullptr ? 0 : block->pins;
}

bool BlockManager::evictable(const CachedBlock& block, TenantId tenant,
                             bool own_only) const noexcept {
  if (block.pins > 0) return false;
  if (block.tenant == tenant) return true;  // own blocks: always eligible
  if (own_only) return false;
  // Someone else's block. An owner without a quota (every owner while
  // quotas are off) has no guaranteed floor.
  const double f = quota_fraction(block.tenant);
  return f <= 0.0 ||
         tenant_used(block.tenant) - block.bytes >= f * capacity_ - 1e-9;
}

BlockManager::Iter BlockManager::next_victim(const BlockId& incoming,
                                             TenantId tenant, bool own_only) {
  Iter best = blocks_.end();
  int best_refs = 0;
  double best_score = 0.0;
  // From the LRU end, so the strict comparisons below leave ties in LRU
  // order.
  for (Iter it = blocks_.end(); it != blocks_.begin();) {
    --it;
    if (!evictable(*it, tenant, own_only)) continue;
    switch (cache_.policy) {
      case EvictionPolicyKind::kLru:
        return it;  // ignores `incoming`
      case EvictionPolicyKind::kLrc: {
        // Same-RDD guard (Spark's MemoryStore rule): evicting the dataset
        // being materialized to admit more of itself turns every
        // multi-partition insert into a self-eviction storm.
        if (it->id.dataset == incoming.dataset) continue;
        const int refs =
            lineage_refcount_ ? lineage_refcount_(it->id.dataset) : 0;
        if (best == blocks_.end() || refs < best_refs) {
          best = it;
          best_refs = refs;
          if (refs == 0) return best;  // cannot do better than dead
        }
        break;
      }
      case EvictionPolicyKind::kCostSize: {
        if (it->id.dataset == incoming.dataset) continue;  // same-RDD guard
        // The cost floor keeps unknown (0) estimates finite.
        const double score =
            it->bytes / std::max(cache_.min_recompute_cost, it->recompute_cost);
        if (best == blocks_.end() || score > best_score) {
          best = it;
          best_score = score;
        }
        break;
      }
    }
  }
  return best;
}

BlockManager::InsertResult BlockManager::insert(const BlockId& id,
                                                Bytes bytes,
                                                bool spill_on_evict,
                                                double recompute_cost,
                                                TenantId tenant,
                                                ServerId origin) {
  InsertResult result;
  // Resize-or-insert: drop the old copy first (also settles ownership
  // transfer — the last writer's tenant owns the block).
  remove(id);
  // Too large to ever cache, or pinned blocks alone leave too little room:
  // skip the insert rather than evict half the store for a block that
  // still cannot fit.
  if (bytes > capacity_ || pinned_bytes_ + bytes > capacity_) return result;
  if (quotas_enabled()) {
    // The inserting tenant may hold at most `cap` bytes here (full
    // capacity when it has no quota configured). While the insert would put
    // it over, evict the tenant's *own* blocks (policy order among them) —
    // its quota pressure must not displace other tenants.
    const double f = quota_fraction(tenant);
    const Bytes cap = f > 0.0 ? f * capacity_ : capacity_;
    if (bytes > cap) return result;  // can never fit inside the tenant's cap
    while (tenant_used(tenant) + bytes > cap) {
      const Iter victim = next_victim(id, tenant, /*own_only=*/true);
      if (victim == blocks_.end()) return result;  // still over its cap
      result.evicted.push_back(*victim);
      erase(victim);
    }
  }
  // Global pressure. Victims may come from any tenant, except that a
  // quota-holding tenant is never pushed below its guaranteed
  // f * capacity share by someone else's insert. Without quotas, kLru
  // always finds room (the pinned-bytes check above covers the shortfall);
  // kLrc/kCostSize may refuse same-dataset victims and skip the insert.
  while (used_ + bytes > capacity_) {
    const Iter victim = next_victim(id, tenant, /*own_only=*/false);
    if (victim == blocks_.end()) return result;
    result.evicted.push_back(*victim);
    erase(victim);
  }
  blocks_.push_front(CachedBlock{id, bytes, false, spill_on_evict, 0, tenant,
                                 recompute_cost, origin});
  index_.emplace(id, blocks_.begin());
  used_ += bytes;
  if (quotas_enabled()) charge_tenant(tenant, bytes);
  result.stored = true;
  return result;
}

void BlockManager::erase(Iter it) {
  used_ -= it->bytes;
  if (it->pins > 0) pinned_bytes_ -= it->bytes;
  if (quotas_enabled()) charge_tenant(it->tenant, -it->bytes);
  index_.erase(it->id);
  blocks_.erase(it);
  // FP add/subtract churn may leave a residue; an empty store holds
  // exactly 0 bytes.
  if (blocks_.empty()) used_ = 0.0;
}

bool BlockManager::remove(const BlockId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  erase(it->second);
  return true;
}

std::vector<BlockId> BlockManager::clear() {
  std::vector<BlockId> all = blocks_mru_order();
  blocks_.clear();
  index_.clear();
  used_ = 0.0;
  pinned_bytes_ = 0.0;
  tenant_used_.assign(tenant_used_.size(), 0.0);
  return all;
}

std::vector<BlockId> BlockManager::blocks_mru_order() const {
  std::vector<BlockId> out;
  out.reserve(blocks_.size());
  for (const CachedBlock& block : blocks_) out.push_back(block.id);
  return out;
}

}  // namespace stark
