#include "cluster/block_manager.h"

#include <stdexcept>

namespace stark {

BlockManager::BlockManager(Bytes capacity, const CachePolicyOptions& cache,
                           LineageRefcountFn lineage_refcount)
    : capacity_(capacity),
      quotas_enabled_(!cache.tenant_quota_fractions.empty()),
      quota_fractions_(cache.tenant_quota_fractions),
      policy_(make_eviction_policy(cache, std::move(lineage_refcount))) {
  if (capacity < 0.0) {
    throw std::invalid_argument("BlockManager: negative capacity");
  }
  cache.validate();
  pinned_fn_ = [this](const BlockId& id) {
    const auto it = blocks_.find(id);
    return it != blocks_.end() && it->second.pins > 0;
  };
}

double BlockManager::quota_fraction(TenantId tenant) const noexcept {
  const auto idx = static_cast<std::size_t>(tenant < 0 ? 0 : tenant);
  return idx < quota_fractions_.size() ? quota_fractions_[idx] : 0.0;
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
  return blocks_.find(id) != blocks_.end();
}

std::optional<BlockManager::StoredBlock> BlockManager::find(
    const BlockId& id) const noexcept {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return std::nullopt;
  return StoredBlock{it->second.bytes, it->second.corrupted};
}

bool BlockManager::mark_corrupt(const BlockId& id) {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return false;
  it->second.corrupted = true;
  return true;
}

void BlockManager::touch(const BlockId& id) { policy_->on_touch(id); }

bool BlockManager::pin(const BlockId& id) {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return false;
  if (it->second.pins++ == 0) pinned_bytes_ += it->second.bytes;
  return true;
}

bool BlockManager::unpin(const BlockId& id) {
  const auto it = blocks_.find(id);
  if (it == blocks_.end() || it->second.pins == 0) return false;
  if (--it->second.pins == 0) pinned_bytes_ -= it->second.bytes;
  return true;
}

int BlockManager::pin_count(const BlockId& id) const noexcept {
  const auto it = blocks_.find(id);
  return it == blocks_.end() ? 0 : it->second.pins;
}

BlockManager::InsertResult BlockManager::insert(const BlockId& id,
                                                Bytes bytes,
                                                bool spill_on_evict,
                                                double recompute_cost,
                                                TenantId tenant) {
  static const std::function<bool(const BlockId&)> kNoPins;
  InsertResult result;
  if (bytes > capacity_) {
    // Too large to ever cache; don't evict the world for it.
    remove(id);
    return result;
  }
  // Resize-or-insert: drop the old copy first (also settles ownership
  // transfer — the last writer's tenant owns the block).
  remove(id);
  if (pinned_bytes_ + bytes > capacity_) {
    // Pinned blocks alone leave too little room; skip the insert rather
    // than evict half the store for a block that still cannot fit.
    return result;
  }
  const auto& pinned = pinned_bytes_ > 0.0 ? pinned_fn_ : kNoPins;
  const auto evict = [&](const BlockId& victim) {
    const auto it = blocks_.find(victim);
    used_ -= it->second.bytes;
    if (quotas_enabled_) charge_tenant(it->second.tenant, -it->second.bytes);
    result.evicted.push_back({victim, it->second.bytes,
                              it->second.spill_on_evict,
                              it->second.corrupted});
    policy_->on_remove(victim);
    blocks_.erase(it);
  };

  if (!quotas_enabled_) {
    // Evict policy-chosen victims until the new block fits. Under kLru the
    // pre-check above guarantees the unpinned blocks cover the shortfall,
    // so the loop always terminates by storing; kLrc/kCostSize may
    // additionally refuse same-dataset victims and give up (insert
    // skipped).
    while (used_ + bytes > capacity_) {
      const auto victim = policy_->choose_victim(id, pinned);
      if (!victim.has_value()) break;  // no eligible victim: skip
      evict(*victim);
    }
    if (used_ + bytes > capacity_) return result;  // defensive (see above)
    policy_->on_insert(id, bytes, recompute_cost);
    blocks_.emplace(id, Entry{bytes, spill_on_evict, false, 0});
    used_ += bytes;
    result.stored = true;
    return result;
  }

  // Quota path. The inserting tenant may hold at most `cap` bytes here
  // (full capacity when it has no quota configured).
  const double f = quota_fraction(tenant);
  const Bytes cap = f > 0.0 ? f * capacity_ : capacity_;
  if (bytes > cap) return result;  // can never fit inside the tenant's cap
  // Phase A: while the insert would put the tenant over its own cap, evict
  // the tenant's *own* blocks (policy order among them) — its quota
  // pressure must not displace other tenants.
  const std::function<bool(const BlockId&)> not_own = [&](const BlockId& v) {
    if (pinned && pinned(v)) return true;
    const auto it = blocks_.find(v);
    return it == blocks_.end() || it->second.tenant != tenant;
  };
  while (tenant_used(tenant) + bytes > cap) {
    const auto victim = policy_->choose_victim(id, not_own);
    if (!victim.has_value()) break;
    evict(*victim);
  }
  if (tenant_used(tenant) + bytes > cap) return result;  // still over cap
  // Phase B: global pressure. Victims may come from any tenant, except
  // that a quota-holding tenant is never pushed below its guaranteed
  // f * capacity share by someone else's insert.
  const std::function<bool(const BlockId&)> protected_victim =
      [&](const BlockId& v) {
        if (pinned && pinned(v)) return true;
        const auto it = blocks_.find(v);
        if (it == blocks_.end()) return true;
        const TenantId owner = it->second.tenant;
        if (owner == tenant) return false;  // own blocks: always eligible
        const double owner_f = quota_fraction(owner);
        if (owner_f <= 0.0) return false;  // no quota: no guaranteed floor
        return tenant_used(owner) - it->second.bytes <
               owner_f * capacity_ - 1e-9;
      };
  while (used_ + bytes > capacity_) {
    const auto victim = policy_->choose_victim(id, protected_victim);
    if (!victim.has_value()) break;  // everything left is protected: skip
    evict(*victim);
  }
  if (used_ + bytes > capacity_) return result;
  policy_->on_insert(id, bytes, recompute_cost);
  blocks_.emplace(id, Entry{bytes, spill_on_evict, false, 0, tenant});
  used_ += bytes;
  charge_tenant(tenant, bytes);
  result.stored = true;
  return result;
}

bool BlockManager::remove(const BlockId& id) {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return false;
  used_ -= it->second.bytes;
  if (quotas_enabled_) charge_tenant(it->second.tenant, -it->second.bytes);
  if (it->second.pins > 0) pinned_bytes_ -= it->second.bytes;
  policy_->on_remove(id);
  blocks_.erase(it);
  return true;
}

std::vector<BlockId> BlockManager::clear() {
  std::vector<BlockId> all = policy_->blocks_mru_order();
  policy_->on_clear();
  blocks_.clear();
  used_ = 0.0;
  pinned_bytes_ = 0.0;
  tenant_used_.assign(tenant_used_.size(), 0.0);
  return all;
}

std::vector<BlockId> BlockManager::blocks_mru_order() const {
  return policy_->blocks_mru_order();
}

}  // namespace stark
