// Remote-memory tier (PR 9): the pool container itself, the Cluster-level
// demotion chain RAM -> pool -> origin disk, and the spill-path accounting
// fixes that rode along (zero-byte presence, iteration-order independence,
// byte counters that never leak or go negative).
#include "cluster/remote_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cluster/cluster.h"

namespace stark {
namespace {

RemoteMemoryOptions pool_options(Bytes capacity) {
  RemoteMemoryOptions o;
  o.enabled = true;
  o.capacity = capacity;
  return o;
}

RemoteMemoryPool make_pool(Bytes capacity) {
  return RemoteMemoryPool(pool_options(capacity),
                          [](DatasetId) { return 0; });
}

bool in_pool(const Cluster& c, const BlockId& id) {
  return c.find_copy(MemoryTier::kRemote, kInvalidId, id).has_value();
}

bool on_disk(const Cluster& c, const BlockId& id, ServerId s) {
  return c.find_copy(MemoryTier::kDisk, s, id).has_value();
}

ClusterConfig small_cluster(Bytes pool_capacity = 0.0) {
  ClusterConfig c;
  c.num_servers = 4;
  c.server.cores = 2;
  c.server.ram = 1000.0;
  c.server.storage_fraction = 0.5;  // 500 bytes of cache per server
  if (pool_capacity > 0.0) {
    c.remote_memory.enabled = true;
    c.remote_memory.capacity = pool_capacity;
  }
  return c;
}

// --- the pool container ----------------------------------------------------

TEST(RemoteMemoryPool, InsertAndLookup) {
  auto pool = make_pool(1000.0);
  const auto r = pool.insert({1, 0}, 300.0, false, 2);
  EXPECT_TRUE(r.stored);
  EXPECT_TRUE(r.evicted.empty());
  ASSERT_NE(pool.find({1, 0}), nullptr);
  EXPECT_DOUBLE_EQ(pool.find({1, 0})->bytes, 300.0);
  EXPECT_EQ(pool.find({1, 0})->origin, 2);
  EXPECT_FALSE(pool.find({1, 0})->corrupted);
  EXPECT_DOUBLE_EQ(pool.used(), 300.0);
  EXPECT_EQ(pool.stats().demotions_in, 1);
}

TEST(RemoteMemoryPool, EvictsLruVictimsToMakeRoom) {
  auto pool = make_pool(1000.0);
  pool.insert({1, 0}, 400.0, false, 0);
  pool.insert({2, 0}, 400.0, false, 1);
  pool.touch({1, 0});  // {2,0} is now least-recently used
  const auto r = pool.insert({3, 0}, 400.0, false, 2);
  EXPECT_TRUE(r.stored);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{2, 0}));
  EXPECT_EQ(r.evicted[0].origin, 1);
  EXPECT_EQ(pool.find({2, 0}), nullptr);
  EXPECT_NE(pool.find({1, 0}), nullptr);
  EXPECT_NE(pool.find({3, 0}), nullptr);
}

TEST(RemoteMemoryPool, OverwriteReplacesWithoutLeak) {
  auto pool = make_pool(1000.0);
  pool.insert({1, 0}, 400.0, true, 0);
  const auto r = pool.insert({1, 0}, 250.0, false, 3);  // re-demotion
  EXPECT_TRUE(r.stored);
  EXPECT_DOUBLE_EQ(pool.used(), 250.0);
  ASSERT_NE(pool.find({1, 0}), nullptr);
  EXPECT_EQ(pool.find({1, 0})->origin, 3);
  EXPECT_FALSE(pool.find({1, 0})->corrupted);  // last writer wins, clean copy
  EXPECT_EQ(pool.num_blocks(), 1u);
}

TEST(RemoteMemoryPool, RejectsBlockLargerThanCapacity) {
  auto pool = make_pool(1000.0);
  pool.insert({1, 0}, 400.0, false, 0);
  const auto r = pool.insert({2, 0}, 1500.0, false, 1);
  EXPECT_FALSE(r.stored);
  EXPECT_NE(pool.find({1, 0}), nullptr);  // hopeless insert evicts nothing
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_EQ(pool.stats().rejected_no_room, 1);
}

TEST(RemoteMemoryPool, UsedIsExactlyZeroWhenEmptied) {
  auto pool = make_pool(1000.0);
  // FP-hostile sizes: naive add/subtract would leave dust in `used`.
  pool.insert({1, 0}, 0.1, false, 0);
  pool.insert({1, 1}, 0.2, false, 0);
  pool.insert({1, 2}, 0.3, false, 0);
  pool.remove({1, 0});
  pool.remove({1, 2});
  pool.remove({1, 1});
  EXPECT_EQ(pool.num_blocks(), 0u);
  EXPECT_EQ(pool.used(), 0.0);  // exact, not approximate
}

TEST(RemoteMemoryPool, BlocksAreSortedDeterministically) {
  auto pool = make_pool(1.0e9);
  pool.insert({3, 1}, 1.0, false, 0);
  pool.insert({1, 2}, 1.0, false, 0);
  pool.insert({1, 0}, 1.0, false, 0);
  pool.insert({2, 5}, 1.0, false, 0);
  const std::vector<BlockId> want = {{1, 0}, {1, 2}, {2, 5}, {3, 1}};
  EXPECT_EQ(pool.blocks(), want);
}

TEST(RemoteMemoryPool, LrcEvictsLowestRefcountAndSparesTheIncomingDataset) {
  RemoteMemoryOptions o = pool_options(300.0);
  o.policy = EvictionPolicyKind::kLrc;
  const std::map<DatasetId, int> refs{{1, 2}, {2, 0}, {3, 1}};
  RemoteMemoryPool pool(o, [&refs](DatasetId d) {
    const auto it = refs.find(d);
    return it == refs.end() ? 0 : it->second;
  });
  pool.insert({1, 0}, 100.0, false, 0);
  pool.insert({2, 0}, 100.0, false, 1);
  pool.insert({3, 0}, 100.0, false, 2);
  pool.touch({2, 0});  // most recently used, but zero lineage references
  const auto r = pool.insert({4, 0}, 100.0, false, 3);
  ASSERT_TRUE(r.stored);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{2, 0}));
  EXPECT_EQ(r.evicted[0].origin, 1);
  // {4,0} now has the lowest refcount (0), but it is another partition of
  // the incoming dataset: the next-lowest {3,0} goes instead.
  const auto r2 = pool.insert({4, 1}, 100.0, false, 3);
  ASSERT_TRUE(r2.stored);
  ASSERT_EQ(r2.evicted.size(), 1u);
  EXPECT_EQ(r2.evicted[0].id, (BlockId{3, 0}));
  EXPECT_NE(pool.find({4, 0}), nullptr);
  EXPECT_NE(pool.find({1, 0}), nullptr);
}

TEST(RemoteMemoryPool, CostSizeEvictsLargestAndBreaksTiesInLruOrder) {
  // The pool has no recompute-cost feed: every cost sits at the floor, so
  // kCostSize ranks victims by size alone.
  RemoteMemoryOptions o = pool_options(500.0);
  o.policy = EvictionPolicyKind::kCostSize;
  RemoteMemoryPool pool(o, nullptr);
  pool.insert({1, 0}, 100.0, false, 0);  // least recently used
  pool.insert({2, 0}, 300.0, false, 0);
  pool.insert({3, 0}, 100.0, false, 0);
  const auto r = pool.insert({4, 0}, 100.0, false, 0);
  ASSERT_TRUE(r.stored);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{2, 0}));  // largest, not LRU
  // Equal sizes: LRU order decides.
  const auto r2 = pool.insert({5, 0}, 300.0, false, 0);
  ASSERT_TRUE(r2.stored);
  ASSERT_EQ(r2.evicted.size(), 1u);
  EXPECT_EQ(r2.evicted[0].id, (BlockId{1, 0}));
  EXPECT_DOUBLE_EQ(pool.used(), 500.0);
}

TEST(RemoteMemoryPool, OversizedRedemotionKeepsTheOldCopy) {
  auto pool = make_pool(1000.0);
  ASSERT_TRUE(pool.insert({1, 0}, 100.0, /*corrupted=*/true, 0).stored);
  const auto r = pool.insert({1, 0}, 5000.0, false, 1);
  EXPECT_FALSE(r.stored);
  EXPECT_TRUE(r.evicted.empty());
  ASSERT_NE(pool.find({1, 0}), nullptr);
  EXPECT_EQ(pool.find({1, 0})->origin, 0);
  EXPECT_TRUE(pool.find({1, 0})->corrupted);  // the old copy, bad tag and all
  EXPECT_DOUBLE_EQ(pool.used(), 100.0);
}

TEST(RemoteMemoryOptions, ValidateRejectsEnabledWithoutCapacity) {
  RemoteMemoryOptions o;
  o.enabled = true;
  o.capacity = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.enabled = false;
  EXPECT_NO_THROW(o.validate());  // disabled tier never rejects
}

// --- the Cluster demotion chain ---------------------------------------------

TEST(ClusterRemoteMemory, DisabledTierIsInert) {
  Cluster c(small_cluster());
  EXPECT_FALSE(c.remote_memory_enabled());
  EXPECT_FALSE(in_pool(c, {1, 0}));
  EXPECT_DOUBLE_EQ(c.drop_everywhere({1, 0}), 0.0);
  EXPECT_FALSE(c.find_copy(MemoryTier::kRemote, 0, {1, 0}));  // any server
  EXPECT_FALSE(c.corrupt_copy(MemoryTier::kRemote, kInvalidId, {1, 0}));
  EXPECT_FALSE(c.drop_copy(MemoryTier::kRemote, kInvalidId, {1, 0}));
  c.touch_copy(MemoryTier::kRemote, kInvalidId, {1, 0});  // safe no-op
  EXPECT_DOUBLE_EQ(c.remote_used_bytes(), 0.0);
  EXPECT_TRUE(c.remote_blocks().empty());
  const RemoteMemoryStats& rs = c.remote_stats();  // a zero struct
  EXPECT_EQ(rs.demotions_in + rs.evictions_to_disk + rs.dropped_dead_origin +
                rs.rejected_no_room,
            0);
}

TEST(ClusterRemoteMemory, SpillEvictionDemotesToPoolNotDisk) {
  Cluster c(small_cluster(/*pool_capacity=*/10000.0));
  c.insert_block(0, {1, 0}, 300.0, /*spill_on_evict=*/true);
  c.insert_block(0, {2, 0}, 300.0, /*spill_on_evict=*/true);  // evicts {1,0}
  EXPECT_FALSE(c.cached_anywhere({1, 0}));
  ASSERT_TRUE(in_pool(c, {1, 0}));
  EXPECT_EQ(c.find_copy(MemoryTier::kRemote, kInvalidId, {1, 0})->host, 0);
  EXPECT_FALSE(on_disk(c, {1, 0}, 0));  // pool intercepted the spill
  EXPECT_DOUBLE_EQ(c.total_spilled_bytes(), 0.0);
  ASSERT_TRUE(c.remote_memory_enabled());
  EXPECT_EQ(c.remote_stats().demotions_in, 1);
}

TEST(ClusterRemoteMemory, PoolOverflowCascadesToOriginDisk) {
  // Pool of 500 holds one 300-byte victim; the second demotion evicts the
  // first pool entry down to its *origin* server's disk.
  Cluster c(small_cluster(/*pool_capacity=*/500.0));
  c.insert_block(0, {1, 0}, 300.0, true);
  c.insert_block(0, {2, 0}, 300.0, true);  // {1,0} -> pool
  c.insert_block(1, {3, 0}, 300.0, true);
  c.insert_block(1, {4, 0}, 300.0, true);  // {3,0} -> pool, {1,0} -> disk 0
  EXPECT_TRUE(in_pool(c, {3, 0}));
  EXPECT_FALSE(in_pool(c, {1, 0}));
  EXPECT_TRUE(on_disk(c, {1, 0}, 0));  // landed on origin, not server 1
  EXPECT_FALSE(on_disk(c, {1, 0}, 1));
  EXPECT_DOUBLE_EQ(c.disk_used_bytes(0), 300.0);
  EXPECT_EQ(c.remote_stats().evictions_to_disk, 1);
}

TEST(ClusterRemoteMemory, PromotionSupersedesPoolCopy) {
  // Faulting a block back into RAM removes the pool copy: the hierarchy
  // moves copies, it does not duplicate them.
  Cluster c(small_cluster(/*pool_capacity=*/10000.0));
  c.insert_block(0, {1, 0}, 300.0, true);
  c.insert_block(0, {2, 0}, 300.0, true);  // {1,0} -> pool
  ASSERT_TRUE(in_pool(c, {1, 0}));
  EXPECT_TRUE(c.insert_block(1, {1, 0}, 300.0, true));  // fault back up
  EXPECT_TRUE(c.cached_on({1, 0}, 1));
  EXPECT_FALSE(in_pool(c, {1, 0}));
}

TEST(ClusterRemoteMemory, KillServerLeavesPoolEntriesIntact) {
  // The pool is disaggregated: executor loss wipes its RAM and local disk
  // but never the remote tier.
  Cluster c(small_cluster(/*pool_capacity=*/10000.0));
  c.insert_block(0, {1, 0}, 300.0, true);
  c.insert_block(0, {2, 0}, 300.0, true);  // {1,0} -> pool
  c.insert_block(0, {3, 9}, 10.0);
  c.kill_server(0);
  EXPECT_FALSE(c.cached_anywhere({3, 9}));
  EXPECT_DOUBLE_EQ(c.disk_used_bytes(0), 0.0);
  EXPECT_TRUE(in_pool(c, {1, 0}));  // survives its origin's death
}

TEST(ClusterRemoteMemory, DeadOriginPoolVictimIsDropped) {
  // A pool victim whose origin died has nowhere to land: it is dropped
  // (lineage recompute covers it) and counted, never written to a dead
  // server's disk.
  Cluster c(small_cluster(/*pool_capacity=*/500.0));
  c.insert_block(0, {1, 0}, 300.0, true);
  c.insert_block(0, {2, 0}, 300.0, true);  // {1,0} -> pool (origin 0)
  c.kill_server(0);
  c.insert_block(1, {3, 0}, 300.0, true);
  c.insert_block(1, {4, 0}, 300.0, true);  // {3,0} -> pool, {1,0} victim
  EXPECT_FALSE(in_pool(c, {1, 0}));
  EXPECT_FALSE(on_disk(c, {1, 0}, 0));
  EXPECT_DOUBLE_EQ(c.disk_used_bytes(0), 0.0);
  EXPECT_EQ(c.remote_stats().dropped_dead_origin, 1);
}

TEST(ClusterRemoteMemory, CorruptionTagTravelsAndDropReleasesBytes) {
  Cluster c(small_cluster(/*pool_capacity=*/10000.0));
  c.insert_block(0, {1, 0}, 300.0, true);
  ASSERT_TRUE(c.corrupt_copy(MemoryTier::kRam, 0, {1, 0}));
  c.insert_block(0, {2, 0}, 300.0, true);  // corrupt {1,0} -> pool
  ASSERT_TRUE(in_pool(c, {1, 0}));
  // Tag travelled down.
  EXPECT_TRUE(c.find_copy(MemoryTier::kRemote, kInvalidId, {1, 0})->corrupt);
  EXPECT_DOUBLE_EQ(c.remote_used_bytes(), 300.0);
  EXPECT_TRUE(c.drop_copy(MemoryTier::kRemote, kInvalidId, {1, 0}));
  EXPECT_FALSE(in_pool(c, {1, 0}));
  EXPECT_EQ(c.remote_used_bytes(), 0.0);  // dropped bytes released, exact
  EXPECT_FALSE(c.drop_copy(MemoryTier::kRemote, kInvalidId, {1, 0}));
}

// --- satellite 1: presence vs size ------------------------------------------

TEST(ClusterRemoteMemory, ZeroByteSpilledBlockReadsAsPresent) {
  // A legitimately empty partition (fully filtered dataset) spilled to disk
  // must read back as *present*; treating a zero-byte copy as absent forced
  // a needless recompute.
  Cluster c(small_cluster());
  c.insert_block(2, {1, 0}, 0.0, /*spill_on_evict=*/true);
  c.insert_block(2, {1, 5}, 300.0, true);
  // A full-store insert must walk past the zero-byte LRU victim (freeing
  // nothing) and keep evicting; both land in the disk store.
  c.insert_block(2, {2, 0}, 500.0, true);
  EXPECT_FALSE(c.cached_anywhere({1, 0}));
  ASSERT_TRUE(on_disk(c, {1, 0}, 2));
  EXPECT_DOUBLE_EQ(c.find_copy(MemoryTier::kDisk, 2, {1, 0})->bytes, 0.0);
  EXPECT_TRUE(c.drop_copy(MemoryTier::kDisk, 2, {1, 0}));
  EXPECT_FALSE(on_disk(c, {1, 0}, 2));
}

// --- satellite 2: iteration-order independence -------------------------------

TEST(ClusterRemoteMemory, SpilledTotalsIndependentOfInsertionOrder) {
  // total_spilled_bytes must not depend on hash-map iteration order: sum
  // the same FP-hostile sizes inserted in shuffled orders and compare
  // bit-for-bit.
  const std::vector<Bytes> sizes = {0.1, 0.7, 0.2, 0.31, 0.17, 0.44};
  const auto spill_all = [&](const std::vector<int>& order) {
    Cluster c(small_cluster());
    for (int i : order) {
      c.insert_block(0, {static_cast<DatasetId>(i + 1), 0}, sizes[i], true);
    }
    // One fat insert evicts everything spillable to disk.
    c.insert_block(0, {100, 0}, 500.0, false);
    return c.total_spilled_bytes();
  };
  const Bytes a = spill_all({0, 1, 2, 3, 4, 5});
  const Bytes b = spill_all({5, 3, 1, 0, 4, 2});
  const Bytes d = spill_all({2, 4, 0, 1, 3, 5});
  EXPECT_EQ(a, b);  // exact FP equality, not near
  EXPECT_EQ(a, d);
}

TEST(ClusterRemoteMemory, SameInstantDemotionsArriveInBlockIdOrder) {
  // Several victims evicted by ONE insert demote in (dataset, partition)
  // order regardless of container iteration order, so pool contents (and
  // downstream victim cascades) are deterministic across stdlibs.
  Cluster c(small_cluster(/*pool_capacity=*/10000.0));
  std::vector<BlockId> demoted;
  c.add_demotion_observer(
      [&](const BlockId& id, Bytes, MemoryTier to, ServerId) {
        if (to == MemoryTier::kRemote) demoted.push_back(id);
      });
  c.insert_block(0, {7, 3}, 150.0, true);
  c.insert_block(0, {2, 9}, 150.0, true);
  c.insert_block(0, {5, 1}, 150.0, true);
  c.insert_block(0, {99, 0}, 500.0, true);  // evicts all three at once
  const std::vector<BlockId> want = {{2, 9}, {5, 1}, {7, 3}};
  EXPECT_EQ(demoted, want);
}

// --- satellite 3: byte accounting across the fault paths ---------------------

TEST(ClusterRemoteMemory, AccountingSurvivesDropCorruptRespillAndLoss) {
  Cluster c(small_cluster());
  const auto check_invariant = [&] {
    for (ServerId s = 0; s < c.size(); ++s) {
      Bytes sum = 0.0;
      for (const BlockId& id : c.spilled_blocks(s)) {
        sum += c.find_copy(MemoryTier::kDisk, s, id)->bytes;
      }
      EXPECT_GE(c.disk_used_bytes(s), 0.0);
      EXPECT_DOUBLE_EQ(c.disk_used_bytes(s), sum);
    }
  };
  // Spill two blocks on server 0.
  c.insert_block(0, {1, 0}, 200.0, true);
  c.insert_block(0, {2, 0}, 200.0, true);
  c.insert_block(0, {3, 0}, 400.0, true);  // evicts both to disk
  check_invariant();
  ASSERT_TRUE(on_disk(c, {1, 0}, 0));
  // Corrupt one spilled copy, then drop it: bytes must not leak.
  ASSERT_TRUE(c.corrupt_copy(MemoryTier::kDisk, 0, {1, 0}));
  EXPECT_TRUE(c.drop_copy(MemoryTier::kDisk, 0, {1, 0}));
  check_invariant();
  // Re-spill the same id at a different size: overwrite, not double-count.
  c.insert_block(0, {2, 0}, 350.0, true);   // promote back to RAM first
  EXPECT_FALSE(on_disk(c, {2, 0}, 0));  // promotion superseded disk
  c.insert_block(0, {4, 0}, 400.0, true);   // evict it again
  check_invariant();
  // Executor loss zeroes the counter with the store.
  c.kill_server(0);
  EXPECT_EQ(c.disk_used_bytes(0), 0.0);
  check_invariant();
}

TEST(ClusterRemoteMemory, FailedReinsertKeepsSpilledCopyAndCleansIndex) {
  // A block too large for RAM must not destroy its only disk copy, and a
  // failed re-insert must not leave the index advertising a RAM replica
  // the store just dropped.
  Cluster c(small_cluster());
  c.insert_block(0, {1, 0}, 300.0, true);
  c.insert_block(0, {2, 0}, 300.0, true);  // {1,0} spills to disk
  ASSERT_TRUE(on_disk(c, {1, 0}, 0));
  // Pin the resident block so eviction can't free room, then try to
  // re-insert {1,0} at a size that can no longer fit.
  c.pin_block(0, {2, 0});
  EXPECT_FALSE(c.insert_block(0, {1, 0}, 400.0, true));
  EXPECT_FALSE(c.cached_on({1, 0}, 0));     // no phantom index entry
  EXPECT_TRUE(on_disk(c, {1, 0}, 0));  // disk copy survived the miss
  // Same contract for a block bigger than the whole store.
  EXPECT_FALSE(c.insert_block(0, {1, 0}, 900.0, true));
  EXPECT_TRUE(on_disk(c, {1, 0}, 0));
  // And the resident block: a failed resize-in-place (store drops the old
  // copy, new size doesn't fit) must clean the index entry too.
  c.unpin_block(0, {2, 0});
  ASSERT_TRUE(c.cached_on({2, 0}, 0));
  EXPECT_FALSE(c.insert_block(0, {2, 0}, 900.0, true));
  EXPECT_FALSE(c.cached_on({2, 0}, 0));  // no phantom RAM replica
}

}  // namespace
}  // namespace stark
