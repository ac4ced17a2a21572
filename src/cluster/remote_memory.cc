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
                                   LineageRefcountFn lineage_refcount)
    : store_(options.capacity, CachePolicyOptions{.policy = options.policy},
             std::move(lineage_refcount)) {
  options.validate();
}

RemoteMemoryPool::InsertResult RemoteMemoryPool::insert(const BlockId& id,
                                                        Bytes bytes,
                                                        bool corrupted,
                                                        ServerId origin) {
  if (bytes > store_.capacity()) {
    // Larger than the whole pool; never admissible. The caller spills it
    // straight to disk — a demoted block must not be silently lost.
    ++stats_.rejected_no_room;
    return {};
  }
  InsertResult result = store_.insert(id, bytes, /*spill_on_evict=*/false,
                                      /*recompute_cost=*/0.0, /*tenant=*/0,
                                      origin);
  if (!result.stored) {
    ++stats_.rejected_no_room;
    return result;  // victims already evicted still spill (caller's job)
  }
  if (corrupted) store_.mark_corrupt(id);
  ++stats_.demotions_in;
  stats_.bytes_demoted_in += bytes;
  return result;
}

std::vector<BlockId> RemoteMemoryPool::blocks() const {
  std::vector<BlockId> out = store_.blocks_mru_order();
  std::sort(out.begin(), out.end());
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
