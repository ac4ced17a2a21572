// Storage levels: MEMORY_ONLY vs MEMORY_ONLY_SER vs MEMORY_AND_DISK.
#include <gtest/gtest.h>

#include "sched/dag_scheduler.h"
#include "trace/wiki.h"

namespace stark {
namespace {

class StorageLevelTest : public ::testing::Test {
 protected:
  StorageLevelTest() { reset(16.0 * kGiB); }

  void reset(Bytes ram) {
    ClusterConfig cc;
    cc.num_servers = 2;
    cc.server.ram = ram;
    sim_ = std::make_unique<sim::Simulation>();
    cluster_ = std::make_unique<Cluster>(cc);
    locality_ = std::make_unique<LocalityManager>(*cluster_);
    groups_ = std::make_unique<GroupManager>(*locality_);
    dag_ = std::make_unique<DagScheduler>(*sim_, *cluster_, CostModel{},
                                          *locality_, *groups_, DagOptions{});
  }

  DatasetPtr make_cached(Dataset::StorageLevel level,
                         Bytes total = 64 * kMiB) {
    trace::WikiTraceGen::Config c;
    c.num_urls = 128;
    auto hist = std::make_shared<const KeyHistogram>(
        trace::WikiTraceGen(c).histogram(total, 0.9));
    auto ds = Dataset::source("s", hist, 2)
                  ->partition_by(std::make_shared<HashPartitioner>(4));
    ds->cache(level);
    dag_->run_job(ds);
    return ds;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<LocalityManager> locality_;
  std::unique_ptr<GroupManager> groups_;
  std::unique_ptr<DagScheduler> dag_;
};

TEST_F(StorageLevelTest, SerializedFootprintIsSmaller) {
  auto deser = make_cached(Dataset::StorageLevel::kMemory);
  const Bytes mem_deser = cluster_->total_cached_bytes();
  reset(16.0 * kGiB);
  auto ser = make_cached(Dataset::StorageLevel::kMemorySerialized);
  const Bytes mem_ser = cluster_->total_cached_bytes();
  EXPECT_NEAR(mem_ser / mem_deser, dag_->cost_model().serialization_ratio,
              1e-6);
  (void)deser;
  (void)ser;
}

TEST_F(StorageLevelTest, SerializedReadsPayDeserialization) {
  auto deser = make_cached(Dataset::StorageLevel::kMemory);
  const auto r1 = dag_->run_job(deser->filter({.selectivity = 0.5}));
  reset(16.0 * kGiB);
  auto ser = make_cached(Dataset::StorageLevel::kMemorySerialized);
  const auto r2 = dag_->run_job(ser->filter({.selectivity = 0.5}));
  EXPECT_GT(r2.total_cpu, r1.total_cpu);  // deserialization cost
  EXPECT_GT(r2.delay, r1.delay);
}

TEST_F(StorageLevelTest, MemoryAndDiskSpillsInsteadOfDropping) {
  // Tiny storage pool: the second dataset evicts the first; with
  // MEMORY_AND_DISK the evicted blocks land in the local disk store
  // (serialized blocks are ~0.55x, hence the tighter pool).
  reset(24 * kMiB);  // pool = ~14 MiB per server
  auto a = make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);
  auto b = make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);
  EXPECT_GT(cluster_->total_spilled_bytes(), 0.0);
  // Every partition of `a` is available somewhere: memory or spill.
  for (int p = 0; p < a->num_partitions(); ++p) {
    bool available = cluster_->cached_anywhere({a->id(), p});
    for (ServerId s = 0; s < cluster_->size() && !available; ++s) {
      available =
          cluster_->find_copy(MemoryTier::kDisk, s, {a->id(), p}).has_value();
    }
    EXPECT_TRUE(available) << "partition " << p;
  }
  (void)b;
}

TEST_F(StorageLevelTest, SpilledBlocksServeReadsWithoutRecompute) {
  reset(24 * kMiB);
  auto a = make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);
  auto b = make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);
  (void)b;
  // Re-query `a`: spilled partitions read from local disk (bytes_from_disk)
  // rather than refetching the shuffle (bytes_from_net == 0 would only hold
  // if the task lands on the spill server; at minimum no source re-read of
  // the full data happens and the job completes).
  const auto r = dag_->run_job(a->filter({.selectivity = 0.5}));
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.bytes_from_disk + r.bytes_from_cache, 0.0);
}

TEST_F(StorageLevelTest, MemoryOnlyEvictionLosesBlocks) {
  reset(64 * kMiB);
  auto a = make_cached(Dataset::StorageLevel::kMemory, 40 * kMiB);
  auto b = make_cached(Dataset::StorageLevel::kMemory, 40 * kMiB);
  (void)b;
  EXPECT_DOUBLE_EQ(cluster_->total_spilled_bytes(), 0.0);
  int lost = 0;
  for (int p = 0; p < a->num_partitions(); ++p) {
    if (!cluster_->cached_anywhere({a->id(), p})) ++lost;
  }
  EXPECT_GT(lost, 0);  // plain MEMORY eviction drops data
}

TEST_F(StorageLevelTest, FreshMemoryCopySupersedesSpill) {
  reset(24 * kMiB);
  auto a = make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);
  make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);  // evict a
  ASSERT_GT(cluster_->total_spilled_bytes(), 0.0);
  // Recompute `a` (rerun its job): blocks return to memory; the stale spill
  // copies on those servers are dropped.
  dag_->run_job(a);
  for (ServerId s = 0; s < cluster_->size(); ++s) {
    for (int p = 0; p < a->num_partitions(); ++p) {
      if (cluster_->cached_on({a->id(), p}, s)) {
        EXPECT_FALSE(cluster_->find_copy(MemoryTier::kDisk, s, {a->id(), p}));
      }
    }
  }
}

TEST_F(StorageLevelTest, KillServerLosesSpilledBlocks) {
  reset(24 * kMiB);
  auto a = make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);
  make_cached(Dataset::StorageLevel::kMemoryAndDisk, 40 * kMiB);
  ASSERT_GT(cluster_->total_spilled_bytes(), 0.0);
  const Bytes before = cluster_->total_spilled_bytes();
  cluster_->kill_server(0);
  cluster_->kill_server(1);
  EXPECT_LT(cluster_->total_spilled_bytes(), before);
  EXPECT_DOUBLE_EQ(cluster_->total_spilled_bytes(), 0.0);
  (void)a;
}

}  // namespace
}  // namespace stark
