#include "cluster/block_manager.h"

#include <gtest/gtest.h>

namespace stark {
namespace {

TEST(BlockManager, InsertAndContains) {
  BlockManager bm(1000.0);
  EXPECT_TRUE(bm.insert({1, 0}, 100.0).stored);
  EXPECT_TRUE(bm.contains({1, 0}));
  EXPECT_FALSE(bm.contains({1, 1}));
  EXPECT_DOUBLE_EQ(bm.used(), 100.0);
  EXPECT_DOUBLE_EQ(bm.find({1, 0})->bytes, 100.0);
  EXPECT_FALSE(bm.find({1, 1}));
}

TEST(BlockManager, EvictsLeastRecentlyUsed) {
  BlockManager bm(300.0);
  bm.insert({1, 0}, 100.0);
  bm.insert({2, 0}, 100.0);
  bm.insert({3, 0}, 100.0);
  const auto result = bm.insert({4, 0}, 100.0);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].id, (BlockId{1, 0}));
  EXPECT_FALSE(bm.contains({1, 0}));
  EXPECT_TRUE(bm.contains({4, 0}));
}

TEST(BlockManager, TouchProtectsFromEviction) {
  BlockManager bm(300.0);
  bm.insert({1, 0}, 100.0);
  bm.insert({2, 0}, 100.0);
  bm.insert({3, 0}, 100.0);
  bm.touch({1, 0});  // now {2,0} is LRU
  const auto result = bm.insert({4, 0}, 100.0);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].id, (BlockId{2, 0}));
  EXPECT_TRUE(bm.contains({1, 0}));
}

TEST(BlockManager, OversizedBlockNotStored) {
  BlockManager bm(100.0);
  bm.insert({1, 0}, 50.0);
  const auto result = bm.insert({2, 0}, 500.0);
  EXPECT_FALSE(result.stored);
  EXPECT_TRUE(result.evicted.empty());  // did not evict the world for it
  EXPECT_TRUE(bm.contains({1, 0}));
}

TEST(BlockManager, ReinsertResizes) {
  BlockManager bm(1000.0);
  bm.insert({1, 0}, 100.0);
  bm.insert({1, 0}, 250.0);
  EXPECT_DOUBLE_EQ(bm.used(), 250.0);
  EXPECT_EQ(bm.num_blocks(), 1u);
}

TEST(BlockManager, MultiEviction) {
  BlockManager bm(300.0);
  bm.insert({1, 0}, 100.0);
  bm.insert({2, 0}, 100.0);
  bm.insert({3, 0}, 100.0);
  const auto result = bm.insert({4, 0}, 250.0);
  EXPECT_TRUE(result.stored);
  // 100+250 still exceeds 300, so all three residents get evicted.
  EXPECT_EQ(result.evicted.size(), 3u);
  EXPECT_LE(bm.used(), 300.0);
}

TEST(BlockManager, RemoveFreesSpace) {
  BlockManager bm(200.0);
  bm.insert({1, 0}, 150.0);
  EXPECT_TRUE(bm.remove({1, 0}));
  EXPECT_FALSE(bm.remove({1, 0}));
  EXPECT_DOUBLE_EQ(bm.used(), 0.0);
}

TEST(BlockManager, ClearReturnsAll) {
  BlockManager bm(1000.0);
  bm.insert({1, 0}, 10.0);
  bm.insert({1, 1}, 10.0);
  const auto all = bm.clear();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(bm.num_blocks(), 0u);
  EXPECT_DOUBLE_EQ(bm.used(), 0.0);
}

TEST(BlockManager, MruOrder) {
  BlockManager bm(1000.0);
  bm.insert({1, 0}, 10.0);
  bm.insert({2, 0}, 10.0);
  bm.touch({1, 0});
  const auto order = bm.blocks_mru_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (BlockId{1, 0}));
  EXPECT_EQ(order[1], (BlockId{2, 0}));
}

TEST(BlockManager, UsedIsExactlyZeroWhenEmptied) {
  BlockManager bm(1.0);
  // FP-hostile sizes: naive add/subtract would leave dust in `used`.
  bm.insert({1, 0}, 0.1);
  bm.insert({1, 1}, 0.2);
  bm.insert({1, 2}, 0.3);
  bm.remove({1, 0});
  bm.remove({1, 2});
  bm.remove({1, 1});
  EXPECT_EQ(bm.num_blocks(), 0u);
  EXPECT_EQ(bm.used(), 0.0);  // exact, not approximate
}

TEST(BlockManager, UtilizationAndCapacity) {
  BlockManager bm(400.0);
  bm.insert({1, 0}, 100.0);
  EXPECT_DOUBLE_EQ(bm.utilization(), 0.25);
  EXPECT_DOUBLE_EQ(bm.capacity(), 400.0);
}

TEST(BlockManager, NegativeCapacityThrows) {
  EXPECT_THROW(BlockManager(-1.0), std::invalid_argument);
}

TEST(BlockManager, ZeroCapacityEmptyStoreIsNotFull) {
  // Regression: 0/0 used to report 1.0 ("full") for a store that holds
  // nothing. Empty means 0% regardless of capacity; only a zero-capacity
  // store actually holding zero-byte blocks is full.
  BlockManager bm(0.0);
  EXPECT_DOUBLE_EQ(bm.utilization(), 0.0);
  EXPECT_FALSE(bm.insert({1, 0}, 100.0).stored);  // oversized for 0 capacity
  EXPECT_DOUBLE_EQ(bm.utilization(), 0.0);        // failed insert: still 0%
  ASSERT_TRUE(bm.insert({1, 1}, 0.0).stored);     // zero-byte block fits
  EXPECT_DOUBLE_EQ(bm.utilization(), 1.0);
  bm.remove({1, 1});
  EXPECT_DOUBLE_EQ(bm.utilization(), 0.0);
}

TEST(BlockManager, ResizeEvictsInLruOrderAndRefreshesRecency) {
  // Growing a resident block must evict LRU victims (not the block being
  // resized) and leave the grown block most-recently-used.
  BlockManager bm(300.0);
  bm.insert({1, 0}, 100.0);  // A — LRU after B and C arrive
  bm.insert({2, 0}, 100.0);  // B
  bm.insert({3, 0}, 100.0);  // C
  const auto result = bm.insert({1, 0}, 150.0);  // grow A by 50
  EXPECT_TRUE(result.stored);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].id, (BlockId{2, 0}));  // B was LRU, not A
  EXPECT_TRUE(bm.contains({1, 0}));
  EXPECT_TRUE(bm.contains({3, 0}));
  EXPECT_DOUBLE_EQ(bm.used(), 250.0);
  const auto order = bm.blocks_mru_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (BlockId{1, 0}));  // resize counts as a touch
}

TEST(BlockManager, CorruptionTagLifecycle) {
  BlockManager bm(1000.0);
  bm.insert({1, 0}, 100.0);
  EXPECT_FALSE(bm.find({1, 0})->corrupted);  // fresh write: valid checksum
  EXPECT_FALSE(bm.mark_corrupt({9, 9}));     // absent block
  EXPECT_FALSE(bm.find({9, 9}));
  EXPECT_TRUE(bm.mark_corrupt({1, 0}));
  EXPECT_TRUE(bm.find({1, 0})->corrupted);
  bm.insert({1, 0}, 100.0);                  // rewrite restamps the checksum
  EXPECT_FALSE(bm.find({1, 0})->corrupted);
}

// --- per-tenant cache quotas ----------------------------------------------

CachePolicyOptions quotas(std::vector<double> fractions) {
  CachePolicyOptions c;
  c.tenant_quota_fractions = std::move(fractions);
  return c;
}

TEST(BlockManagerQuota, CappedTenantEvictsItsOwnBlocksFirst) {
  // Tenant 1 may hold 30% of a 1000-byte store. At its cap, its next
  // insert evicts its *own* LRU block even though 700 bytes sit free.
  BlockManager bm(1000.0, quotas({0.0, 0.3}));
  bm.insert({1, 0}, 100.0, false, 0.0, /*tenant=*/1);
  bm.insert({2, 0}, 100.0, false, 0.0, /*tenant=*/1);
  bm.insert({3, 0}, 100.0, false, 0.0, /*tenant=*/1);
  EXPECT_DOUBLE_EQ(bm.tenant_used(1), 300.0);
  const auto result = bm.insert({4, 0}, 100.0, false, 0.0, /*tenant=*/1);
  ASSERT_TRUE(result.stored);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].id, (BlockId{1, 0}));  // own LRU paid
  EXPECT_DOUBLE_EQ(bm.tenant_used(1), 300.0);        // still at the cap
  EXPECT_DOUBLE_EQ(bm.used(), 300.0);                // free space untouched
}

TEST(BlockManagerQuota, BlockLargerThanTheCapIsNeverStored) {
  BlockManager bm(1000.0, quotas({0.0, 0.3}));
  const auto result = bm.insert({1, 0}, 400.0, false, 0.0, /*tenant=*/1);
  EXPECT_FALSE(result.stored);
  EXPECT_TRUE(result.evicted.empty());
  EXPECT_DOUBLE_EQ(bm.tenant_used(1), 0.0);
}

TEST(BlockManagerQuota, GlobalPressureNeverDipsBelowAGuaranteedFloor) {
  // Tenant 1's quota doubles as a floor: while it holds <= 300 bytes,
  // other tenants' evictions must skip its blocks, even the global LRU.
  BlockManager bm(1000.0, quotas({0.0, 0.3}));
  bm.insert({1, 0}, 100.0, false, 0.0, /*tenant=*/1);
  bm.insert({2, 0}, 100.0, false, 0.0, /*tenant=*/1);
  for (DatasetId d = 10; d < 18; ++d) {
    bm.insert({d, 0}, 100.0);  // default tenant fills the remaining 800
  }
  EXPECT_DOUBLE_EQ(bm.used(), 1000.0);
  const auto result = bm.insert({20, 0}, 100.0);  // default tenant, full
  ASSERT_TRUE(result.stored);
  ASSERT_EQ(result.evicted.size(), 1u);
  // The global LRU blocks are tenant 1's, but both sit under its floor:
  // the victim comes from the unprotected default pool instead.
  EXPECT_EQ(result.evicted[0].id, (BlockId{10, 0}));
  EXPECT_TRUE(bm.contains({1, 0}));
  EXPECT_TRUE(bm.contains({2, 0}));
  EXPECT_DOUBLE_EQ(bm.tenant_used(1), 200.0);
}

TEST(BlockManagerQuota, QuotaTenantAtItsCapIsStillProtected) {
  // The quota is a cap on the tenant's own inserts AND a guaranteed floor
  // against everyone else: even sitting exactly at the cap, the tenant's
  // blocks are not victims for other tenants' pressure.
  BlockManager bm(1000.0, quotas({0.0, 0.0, 0.5}));
  for (DatasetId d = 1; d <= 5; ++d) {
    bm.insert({d, 0}, 100.0, false, 0.0, /*tenant=*/2);  // 500 = the cap
  }
  for (DatasetId d = 10; d < 15; ++d) {
    bm.insert({d, 0}, 100.0);  // default tenant fills the rest
  }
  EXPECT_DOUBLE_EQ(bm.used(), 1000.0);
  const auto result = bm.insert({20, 0}, 100.0);
  ASSERT_TRUE(result.stored);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].id, (BlockId{10, 0}));  // default's own LRU
  EXPECT_DOUBLE_EQ(bm.tenant_used(2), 500.0);
}

TEST(BlockManagerQuota, ReinsertTransfersOwnershipToTheLastWriter) {
  BlockManager bm(1000.0, quotas({0.0, 0.5, 0.5}));
  bm.insert({1, 0}, 100.0, false, 0.0, /*tenant=*/1);
  EXPECT_DOUBLE_EQ(bm.tenant_used(1), 100.0);
  bm.insert({1, 0}, 150.0, false, 0.0, /*tenant=*/2);
  EXPECT_DOUBLE_EQ(bm.tenant_used(1), 0.0);
  EXPECT_DOUBLE_EQ(bm.tenant_used(2), 150.0);
}

TEST(BlockManagerQuota, DisabledQuotasTrackNothing) {
  BlockManager bm(1000.0);  // no fractions: historical store
  bm.insert({1, 0}, 100.0, false, 0.0, /*tenant=*/1);
  EXPECT_DOUBLE_EQ(bm.tenant_used(1), 0.0);
}

TEST(BlockManager, EvictionCarriesCorruptionTag) {
  BlockManager bm(200.0);
  bm.insert({1, 0}, 100.0, /*spill_on_evict=*/true);
  bm.insert({2, 0}, 100.0, /*spill_on_evict=*/true);
  bm.mark_corrupt({1, 0});
  const auto result = bm.insert({3, 0}, 100.0);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].id, (BlockId{1, 0}));
  EXPECT_TRUE(result.evicted[0].spill);
  EXPECT_TRUE(result.evicted[0].corrupted);  // rot follows the bytes to disk
}

}  // namespace
}  // namespace stark
