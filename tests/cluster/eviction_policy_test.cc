#include "cluster/eviction_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "cluster/block_manager.h"
#include "sched/dag_scheduler.h"
#include "trace/wiki.h"

namespace stark {
namespace {

CachePolicyOptions policy_opts(EvictionPolicyKind kind) {
  CachePolicyOptions o;
  o.policy = kind;
  return o;
}

constexpr EvictionPolicyKind kAllPolicies[] = {EvictionPolicyKind::kLru,
                                               EvictionPolicyKind::kLrc,
                                               EvictionPolicyKind::kCostSize};

TEST(CachePolicyOptions, ValidateRejectsNonPositiveMinRecomputeCost) {
  CachePolicyOptions o;
  o.min_recompute_cost = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.min_recompute_cost = -1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.min_recompute_cost = 1e-9;
  EXPECT_NO_THROW(o.validate());
}

TEST(EvictionPolicy, NamesAndDefaultKind) {
  EXPECT_STREQ(eviction_policy_name(EvictionPolicyKind::kLru), "lru");
  EXPECT_STREQ(eviction_policy_name(EvictionPolicyKind::kLrc), "lrc");
  EXPECT_STREQ(eviction_policy_name(EvictionPolicyKind::kCostSize),
               "cost-size");
  BlockManager bm(100.0);
  EXPECT_EQ(bm.policy(), EvictionPolicyKind::kLru);
}

TEST(EvictionPolicy, PinnedBlocksSurviveCapacityPressure) {
  for (const auto kind : kAllPolicies) {
    BlockManager bm(300.0, policy_opts(kind));
    bm.insert({1, 0}, 100.0);
    bm.insert({2, 0}, 100.0);
    bm.insert({3, 0}, 100.0);
    ASSERT_TRUE(bm.pin({1, 0}));
    EXPECT_DOUBLE_EQ(bm.pinned_bytes(), 100.0);
    // {1,0} is the LRU/lowest-ranked victim under every policy here, but
    // the pin shields it: pressure falls on the next candidate instead.
    const auto r = bm.insert({4, 0}, 100.0);
    ASSERT_TRUE(r.stored);
    EXPECT_TRUE(bm.contains({1, 0}));
    for (const auto& v : r.evicted) EXPECT_NE(v.id, (BlockId{1, 0}));
    // Unpinned again, it becomes a victim like any other block.
    ASSERT_TRUE(bm.unpin({1, 0}));
    EXPECT_DOUBLE_EQ(bm.pinned_bytes(), 0.0);
    bm.insert({5, 0}, 290.0);
    EXPECT_FALSE(bm.contains({1, 0}));
  }
}

TEST(EvictionPolicy, InsertNeverEvictsPinnedAndNeverEvictsWithoutStoring) {
  BlockManager bm(200.0);
  bm.insert({1, 0}, 150.0);
  bm.insert({2, 0}, 50.0);
  ASSERT_TRUE(bm.pin({1, 0}));
  // 150 pinned + 100 requested > 200 capacity: the insert must fail up
  // front without evicting {2,0} only to discover it still cannot fit.
  const auto r = bm.insert({3, 0}, 100.0);
  EXPECT_FALSE(r.stored);
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_TRUE(bm.contains({1, 0}));
  EXPECT_TRUE(bm.contains({2, 0}));
}

TEST(EvictionPolicy, PinnedZeroByteBlockIsNeverAVictim) {
  // A pin protects a block whatever its size: a pinned zero-byte block
  // adds nothing to pinned_bytes(), yet it must survive pressure.
  for (const auto kind : kAllPolicies) {
    SCOPED_TRACE(eviction_policy_name(kind));
    BlockManager bm(100.0, policy_opts(kind));
    bm.insert({1, 0}, 0.0);
    bm.insert({2, 0}, 60.0);
    ASSERT_TRUE(bm.pin({1, 0}));
    EXPECT_DOUBLE_EQ(bm.pinned_bytes(), 0.0);
    const auto r = bm.insert({3, 0}, 60.0);
    EXPECT_TRUE(r.stored);
    const std::vector<BlockId> want = {{2, 0}};
    std::vector<BlockId> got;
    for (const auto& v : r.evicted) got.push_back(v.id);
    EXPECT_EQ(got, want);
    // Another partition of dataset 3: kLrc and kCostSize skip {3,0}, which
    // leaves the pinned block as their only candidate, so the insert is
    // skipped; kLru evicts {3,0}. No policy evicts {1,0}.
    const auto r2 = bm.insert({3, 1}, 60.0);
    EXPECT_EQ(r2.stored, kind == EvictionPolicyKind::kLru);
    for (const auto& v : r2.evicted) EXPECT_NE(v.id, (BlockId{1, 0}));
    EXPECT_TRUE(bm.contains({1, 0}));
    EXPECT_EQ(bm.pin_count({1, 0}), 1);
  }
}

TEST(EvictionPolicy, PinsNestAndAbsentUnpinIsSafe) {
  BlockManager bm(100.0);
  EXPECT_FALSE(bm.pin({1, 0}));  // absent: no-op
  bm.insert({1, 0}, 50.0);
  EXPECT_TRUE(bm.pin({1, 0}));
  EXPECT_TRUE(bm.pin({1, 0}));
  EXPECT_EQ(bm.pin_count({1, 0}), 2);
  EXPECT_TRUE(bm.unpin({1, 0}));
  EXPECT_EQ(bm.pin_count({1, 0}), 1);
  EXPECT_DOUBLE_EQ(bm.pinned_bytes(), 50.0);  // still pinned until count 0
  EXPECT_TRUE(bm.unpin({1, 0}));
  EXPECT_DOUBLE_EQ(bm.pinned_bytes(), 0.0);
  // Explicit removal wins over pins (verified reads drop corrupt replicas
  // regardless), and unpinning after the block is gone stays a no-op.
  bm.pin({1, 0});
  EXPECT_TRUE(bm.remove({1, 0}));
  EXPECT_FALSE(bm.unpin({1, 0}));
  EXPECT_DOUBLE_EQ(bm.pinned_bytes(), 0.0);
}

TEST(EvictionPolicy, LrcEvictsLowestReferenceCountFirst) {
  std::unordered_map<DatasetId, int> refs{{1, 2}, {2, 0}, {3, 1}};
  BlockManager bm(300.0, policy_opts(EvictionPolicyKind::kLrc),
                  [&refs](DatasetId id) { return refs[id]; });
  bm.insert({1, 0}, 100.0);
  bm.insert({2, 0}, 100.0);
  bm.insert({3, 0}, 100.0);
  bm.touch({2, 0});  // most recently used, but zero lineage references
  const auto r = bm.insert({4, 0}, 100.0);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{2, 0}));
  // Next pressure round: {4,0} (refs[4] == 0 via operator[]) loses to the
  // still-referenced {1,0} and {3,0}.
  const auto r2 = bm.insert({5, 0}, 100.0);
  ASSERT_EQ(r2.evicted.size(), 1u);
  EXPECT_EQ(r2.evicted[0].id, (BlockId{4, 0}));
}

TEST(EvictionPolicy, LrcBreaksRefcountTiesInLruOrder) {
  std::unordered_map<DatasetId, int> refs;  // everyone at zero references
  BlockManager bm(300.0, policy_opts(EvictionPolicyKind::kLrc),
                  [&refs](DatasetId id) { return refs[id]; });
  bm.insert({1, 0}, 100.0);
  bm.insert({2, 0}, 100.0);
  bm.insert({3, 0}, 100.0);
  bm.touch({1, 0});  // {2,0} is now least recently used
  const auto r = bm.insert({4, 0}, 100.0);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{2, 0}));
}

TEST(EvictionPolicy, CostSizePrefersEvictingCheapToRecomputeBytes) {
  BlockManager bm(300.0, policy_opts(EvictionPolicyKind::kCostSize));
  // Same size, different recompute cost: the cheap block has the highest
  // bytes/cost score and goes first even though it is most recently used.
  bm.insert({1, 0}, 100.0, false, /*recompute_cost=*/50.0);
  bm.insert({2, 0}, 100.0, false, /*recompute_cost=*/0.5);
  const auto r = bm.insert({3, 0}, 200.0, false, 10.0);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{2, 0}));
  EXPECT_TRUE(bm.contains({1, 0}));
}

TEST(EvictionPolicy, CostSizeWeighsSizeAgainstCost) {
  BlockManager bm(300.0, policy_opts(EvictionPolicyKind::kCostSize));
  // Equal cost: the bigger block frees more room per recompute-second and
  // is the better victim (score 200/10 vs 50/10).
  bm.insert({1, 0}, 200.0, false, 10.0);
  bm.insert({2, 0}, 50.0, false, 10.0);
  const auto r = bm.insert({3, 0}, 150.0, false, 10.0);
  ASSERT_GE(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{1, 0}));
}

TEST(EvictionPolicy, CostSizeClampsUnknownCostToFloor) {
  // recompute_cost = 0 (unknown) must not divide by zero; the floor makes
  // unknown-cost blocks maximally evictable, matching LRU's pessimism.
  BlockManager bm(200.0, policy_opts(EvictionPolicyKind::kCostSize));
  bm.insert({1, 0}, 100.0, false, 0.0);
  bm.insert({2, 0}, 100.0, false, 100.0);
  const auto r = bm.insert({3, 0}, 100.0, false, 1.0);
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id, (BlockId{1, 0}));
}

TEST(EvictionPolicy, ZeroCapacityAndOversizedBlocksPerPolicy) {
  for (const auto kind : kAllPolicies) {
    BlockManager zero(0.0, policy_opts(kind),
                      [](DatasetId) { return 0; });
    EXPECT_FALSE(zero.insert({1, 0}, 1.0).stored);
    EXPECT_TRUE(zero.insert({1, 1}, 0.0).stored);  // zero-byte block fits

    BlockManager bm(100.0, policy_opts(kind), [](DatasetId) { return 0; });
    bm.insert({1, 0}, 50.0);
    const auto r = bm.insert({2, 0}, 500.0);
    EXPECT_FALSE(r.stored);
    EXPECT_TRUE(r.evicted.empty());  // did not evict the world for it
    EXPECT_TRUE(bm.contains({1, 0}));
  }
}

TEST(EvictionPolicy, CorruptionTagTravelsWithVictimsPerPolicy) {
  // Verified-read semantics must hold under every policy: a corrupt block
  // evicted to disk carries its bad integrity tag along (the read path
  // re-checksums spilled copies too).
  for (const auto kind : kAllPolicies) {
    BlockManager bm(200.0, policy_opts(kind), [](DatasetId) { return 0; });
    bm.insert({1, 0}, 100.0, /*spill_on_evict=*/true);
    bm.insert({2, 0}, 100.0, /*spill_on_evict=*/true);
    ASSERT_TRUE(bm.mark_corrupt({1, 0}));
    const auto r = bm.insert({3, 0}, 200.0);
    ASSERT_EQ(r.evicted.size(), 2u);
    for (const auto& v : r.evicted) {
      EXPECT_TRUE(v.spill);
      EXPECT_EQ(v.corrupted, v.id == (BlockId{1, 0}));
    }
  }
}

TEST(EvictionPolicy, ClusterRefcountBumpsClampAtZero) {
  ClusterConfig cc;
  cc.num_servers = 2;
  Cluster cluster(cc);
  EXPECT_EQ(cluster.lineage_refcount(7), 0);
  cluster.bump_lineage_refcount(7, +1);
  cluster.bump_lineage_refcount(7, +1);
  EXPECT_EQ(cluster.lineage_refcount(7), 2);
  cluster.bump_lineage_refcount(7, -1);
  EXPECT_EQ(cluster.lineage_refcount(7), 1);
  cluster.bump_lineage_refcount(7, -1);
  cluster.bump_lineage_refcount(7, -1);  // over-release clamps, never -1
  EXPECT_EQ(cluster.lineage_refcount(7), 0);
}

KeyHistogramPtr hist() {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return std::make_shared<const KeyHistogram>(
      trace::WikiTraceGen(c).histogram(64 * kMiB, 0.9));
}

// Full-engine harness: the lineage refcount channel across a job lifecycle.
class LrcLifecycleTest : public ::testing::Test {
 protected:
  LrcLifecycleTest() {
    ClusterConfig cc;
    cc.num_servers = 4;
    cc.cache.policy = EvictionPolicyKind::kLrc;
    sim_ = std::make_unique<sim::Simulation>();
    cluster_ = std::make_unique<Cluster>(cc);
    locality_ = std::make_unique<LocalityManager>(*cluster_);
    groups_ = std::make_unique<GroupManager>(*locality_);
    dag_ = std::make_unique<DagScheduler>(*sim_, *cluster_, CostModel{},
                                          *locality_, *groups_, DagOptions{});
    cluster_->add_block_observer(
        [this](ServerId s, const BlockId& id, bool inserted) {
          dag_->tasks().on_block_event(s, id, inserted);
        });
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<LocalityManager> locality_;
  std::unique_ptr<GroupManager> groups_;
  std::unique_ptr<DagScheduler> dag_;
};

TEST_F(LrcLifecycleTest, RefcountRisesOnSubmitAndFallsAtCompletion) {
  auto src = Dataset::source("s", hist(), 4);
  auto cached = src->filter({.selectivity = 0.5});
  cached->cache();
  EXPECT_EQ(cluster_->lineage_refcount(cached->id()), 0);

  // Stage construction charges the refcount immediately at submit; two
  // overlapping jobs reading the same cached dataset stack their charges.
  dag_->submit(cached, ActionType::kCount);
  EXPECT_EQ(cluster_->lineage_refcount(cached->id()), 1);
  dag_->submit(cached, ActionType::kCount);
  EXPECT_EQ(cluster_->lineage_refcount(cached->id()), 2);
  EXPECT_EQ(cluster_->lineage_refcount(src->id()), 0);  // not cache-requested

  sim_->run();
  EXPECT_EQ(dag_->active_jobs(), 0);
  EXPECT_EQ(cluster_->lineage_refcount(cached->id()), 0);
}

TEST_F(LrcLifecycleTest, CachedBlocksLandDespitePolicy) {
  auto src = Dataset::source("s", hist(), 4);
  auto cached = src->filter({.selectivity = 0.5});
  cached->cache();
  const auto r = dag_->run_job(cached);
  ASSERT_TRUE(r.completed);
  int replicas = 0;
  for (int p = 0; p < cached->num_partitions(); ++p) {
    replicas += static_cast<int>(
        cluster_->cache_locations({cached->id(), p}).size());
  }
  EXPECT_GT(replicas, 0);
}

// The planner takes pinning from the cluster it plans against: a bare
// DagScheduler with default options still pins the cached blocks its
// running tasks read.
TEST(PlannerPinning, FollowsTheClusterConfig) {
  ClusterConfig cc;
  cc.num_servers = 4;
  cc.cache.pin_running_blocks = true;
  sim::Simulation sim;
  Cluster cluster(cc);
  LocalityManager locality(cluster);
  GroupManager groups(locality);
  DagScheduler dag(sim, cluster, CostModel{}, locality, groups, DagOptions{});
  cluster.add_block_observer(
      [&dag](ServerId s, const BlockId& id, bool inserted) {
        dag.tasks().on_block_event(s, id, inserted);
      });
  auto cached = Dataset::source("s", hist(), 4)->filter({.selectivity = 0.5});
  cached->cache();
  ASSERT_TRUE(dag.run_job(cached).completed);

  const auto pins = [&] {
    int n = 0;
    for (ServerId s = 0; s < cluster.size(); ++s) {
      for (int p = 0; p < cached->num_partitions(); ++p) {
        n += cluster.server(s).storage().pin_count({cached->id(), p});
      }
    }
    return n;
  };
  // A second job reads the cached blocks; sample their pins as it runs.
  const JobId id = dag.submit(cached->map_values(), ActionType::kCount);
  int peak = 0;
  sim.run_until([&] {
    peak = std::max(peak, pins());
    return dag.job_done(id);
  });
  ASSERT_TRUE(dag.result(id).completed);
  EXPECT_GT(peak, 0);
  EXPECT_EQ(pins(), 0);  // every pin left with its task
}

}  // namespace
}  // namespace stark
