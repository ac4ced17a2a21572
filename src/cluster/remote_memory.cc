#include "cluster/remote_memory.h"

#include <algorithm>
#include <stdexcept>

namespace stark {

void RemoteMemoryOptions::validate() const {
  if (!enabled) return;
  if (!(capacity > 0.0)) {
    throw std::invalid_argument(
        "RemoteMemoryOptions: capacity must be > 0 when the tier is enabled");
  }
}

RemoteMemoryPool::RemoteMemoryPool(const RemoteMemoryOptions& options,
                                   LineageRefcountFn lineage_refcount) {
  options.validate();
  capacity_ = options.capacity;
  CachePolicyOptions policy_options;
  policy_options.policy = options.policy;
  policy_ = make_eviction_policy(policy_options, std::move(lineage_refcount));
}

RemoteMemoryPool::InsertResult RemoteMemoryPool::insert(const BlockId& id,
                                                        Bytes bytes,
                                                        bool corrupted,
                                                        ServerId origin) {
  InsertResult result;
  if (bytes > capacity_) {
    // Larger than the whole pool; never admissible. The caller spills it
    // straight to disk — a demoted block must not be silently lost.
    ++stats_.rejected_no_room;
    return result;
  }
  // Re-demotion overwrites: drop the old copy first so its bytes do not
  // count against the incoming one.
  const auto old = entries_.find(id);
  if (old != entries_.end()) {
    used_ -= old->second.bytes;
    policy_->on_remove(id);
    entries_.erase(old);
  }
  while (used_ + bytes > capacity_) {
    const auto victim = policy_->choose_victim(id, /*pinned=*/{});
    if (!victim.has_value()) break;  // nothing eligible: give up
    const auto it = entries_.find(*victim);
    result.evicted.push_back(
        {*victim, it->second.bytes, it->second.corrupted, it->second.origin});
    used_ -= it->second.bytes;
    policy_->on_remove(*victim);
    entries_.erase(it);
  }
  if (entries_.empty()) used_ = 0.0;  // settle FP residue at the floor
  if (used_ + bytes > capacity_) {
    ++stats_.rejected_no_room;
    return result;  // victims already evicted still spill (caller's job)
  }
  policy_->on_insert(id, bytes, /*recompute_cost=*/0.0);
  entries_.emplace(id, Entry{bytes, corrupted, origin});
  used_ += bytes;
  ++stats_.demotions_in;
  stats_.bytes_demoted_in += bytes;
  result.stored = true;
  return result;
}

const RemoteMemoryPool::Entry* RemoteMemoryPool::find(
    const BlockId& id) const noexcept {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

bool RemoteMemoryPool::mark_corrupt(const BlockId& id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  it->second.corrupted = true;
  return true;
}

void RemoteMemoryPool::touch(const BlockId& id) { policy_->on_touch(id); }

bool RemoteMemoryPool::remove(const BlockId& id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  used_ -= it->second.bytes;
  policy_->on_remove(id);
  entries_.erase(it);
  if (entries_.empty()) used_ = 0.0;
  return true;
}

std::vector<BlockId> RemoteMemoryPool::blocks() const {
  std::vector<BlockId> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) out.push_back(id);
  std::sort(out.begin(), out.end(), [](const BlockId& a, const BlockId& b) {
    return a.dataset != b.dataset ? a.dataset < b.dataset
                                  : a.partition < b.partition;
  });
  return out;
}

void RemoteMemoryPool::note_evicted_to_disk(Bytes bytes) noexcept {
  ++stats_.evictions_to_disk;
  stats_.bytes_evicted_to_disk += bytes;
}

void RemoteMemoryPool::note_dropped_dead_origin() noexcept {
  ++stats_.dropped_dead_origin;
}

}  // namespace stark
