// CacheAdvisor: automatic lifetime-based cache management (auto-free of
// dead datasets, cross-job protection, kFull promotion, and the
// uncache-during-recompute veto).
#include <gtest/gtest.h>

#include <memory>

#include "sched/cache_advisor.h"
#include "sched/dag_scheduler.h"
#include "trace/wiki.h"

namespace stark {
namespace {

class CacheAdvisorTest : public ::testing::Test {
 protected:
  CacheAdvisorTest() { reset({}); }

  void reset(DagOptions opts, Bytes ram = 16.0 * kGiB,
             std::vector<double> quotas = {}) {
    ClusterConfig cc;
    cc.num_servers = 2;
    cc.server.ram = ram;
    cc.cache.tenant_quota_fractions = std::move(quotas);
    sim_ = std::make_unique<sim::Simulation>();
    cluster_ = std::make_unique<Cluster>(cc);
    locality_ = std::make_unique<LocalityManager>(*cluster_);
    groups_ = std::make_unique<GroupManager>(*locality_);
    dag_ = std::make_unique<DagScheduler>(*sim_, *cluster_, CostModel{},
                                          *locality_, *groups_, opts);
  }

  static DagOptions advisor_opts(AutoCacheMode mode) {
    DagOptions opts;
    opts.auto_cache.mode = mode;
    return opts;
  }

  // A 4-partition shuffled dataset over a synthetic wiki histogram.
  DatasetPtr make_dataset(Bytes total = 64 * kMiB) {
    trace::WikiTraceGen::Config c;
    c.num_urls = 128;
    auto hist = std::make_shared<const KeyHistogram>(
        trace::WikiTraceGen(c).histogram(total, 0.9));
    return Dataset::source("s", hist, 2)
        ->partition_by(std::make_shared<HashPartitioner>(4));
  }

  // Materializes a cached dataset by running its identity job.
  DatasetPtr make_cached(Bytes total = 64 * kMiB) {
    auto ds = make_dataset(total);
    ds->cache(Dataset::StorageLevel::kMemorySerialized);
    dag_->run_job(ds);
    return ds;
  }

  bool cached_anywhere(const DatasetPtr& ds) {
    for (int p = 0; p < ds->num_partitions(); ++p) {
      if (cluster_->cached_anywhere({ds->id(), p})) return true;
    }
    return false;
  }

  // Any copy of the dataset's partitions in any tier (RAM, remote pool,
  // local disk); works after the dataset's last handle is gone.
  bool stored_anywhere(DatasetId id, int num_partitions) {
    for (int p = 0; p < num_partitions; ++p) {
      for (const MemoryTier tier :
           {MemoryTier::kRam, MemoryTier::kRemote, MemoryTier::kDisk}) {
        for (ServerId s = 0; s < cluster_->size(); ++s) {
          if (cluster_->find_copy(tier, s, {id, p})) return true;
        }
      }
    }
    return false;
  }

  // A 2-partition source -> filter chain with no shuffle. The scheduler
  // remembers every shuffle edge (and so its datasets) for the whole run;
  // a narrow chain is gone once the caller drops it.
  DatasetPtr make_narrow() {
    if (narrow_hist_ == nullptr) {
      trace::WikiTraceGen::Config c;
      c.num_urls = 128;
      narrow_hist_ = std::make_shared<const KeyHistogram>(
          trace::WikiTraceGen(c).histogram(16 * kMiB, 0.9));
    }
    return Dataset::source("n", narrow_hist_, 2)->filter({.selectivity = 0.5});
  }

  // Runs `n` one-shot jobs, each over a fresh narrow chain whose handles
  // are dropped when its job finishes (two datasets per job).
  void run_one_shot_jobs(int n) {
    for (int i = 0; i < n; ++i) dag_->run_job(make_narrow());
  }

  KeyHistogramPtr narrow_hist_;

  // Advances simulated time by `dt` (the advisor sweeps only on job
  // submit/finish, so tests drive the clock explicitly).
  void advance(double dt) {
    sim_->after(dt, [] {});
    sim_->run();
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<LocalityManager> locality_;
  std::unique_ptr<GroupManager> groups_;
  std::unique_ptr<DagScheduler> dag_;
};

TEST_F(CacheAdvisorTest, ManualModeHasNoAdvisor) {
  auto ds = make_cached();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  advance(3600.0);
  dag_->run_job(make_dataset());  // sweeps would fire here if an advisor ran
  EXPECT_EQ(dag_->cache_advisor(), nullptr);
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_TRUE(ds->cache_requested());
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_frees, 0);
  EXPECT_EQ(s.auto_caches, 0);
}

TEST_F(CacheAdvisorTest, OptionsValidateRejectsBadKnobs) {
  AutoCacheOptions bad;
  bad.mode = AutoCacheMode::kFull;
  bad.ram_budget_fraction = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.ram_budget_fraction = 0.5;
  bad.decay_half_life = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.decay_half_life = 600.0;
  bad.free_grace_seconds = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.free_grace_seconds = 30.0;
  EXPECT_NO_THROW(bad.validate());
}

TEST_F(CacheAdvisorTest, AutoFreeReclaimsDeadDatasetAfterGrace) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  // Back-to-back follow-up inside the grace period: nothing is freed.
  dag_->run_job(make_dataset());
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  // Dead past the grace period: the next sweep reclaims every tier.
  advance(60.0);
  dag_->run_job(make_dataset());
  EXPECT_FALSE(cached_anywhere(ds));
  EXPECT_FALSE(ds->cache_requested());
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_frees, 1);
  EXPECT_GT(s.bytes_freed, 0.0);
}

TEST_F(CacheAdvisorTest, RepeatedlyReferencedDatasetIsProtected) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached();
  // Several distinct jobs keep coming back to ds: its decayed reuse score
  // climbs past protect_threshold, so the sweep must not free it.
  for (int i = 0; i < 3; ++i) {
    dag_->run_job(ds->filter({.selectivity = 0.5}));
  }
  advance(60.0);
  dag_->run_job(make_dataset());
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_TRUE(ds->cache_requested());
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_frees, 0);
  EXPECT_GE(s.frees_protected, 1);
  EXPECT_GE(dag_->cache_advisor()->reuse_score(ds->id(), sim_->now()), 1.5);
}

TEST_F(CacheAdvisorTest, PinnedBlockDefersFreeUntilUnpinned) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  // Pin one replica (as a running task would): the sweep must defer.
  const BlockId bid{ds->id(), 0};
  const auto locs = cluster_->cache_locations(bid);
  ASSERT_FALSE(locs.empty());
  ASSERT_TRUE(cluster_->server(locs.front()).storage().pin(bid));
  advance(60.0);
  dag_->run_job(make_dataset());
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_GE(dag_->auto_cache_stats().frees_deferred, 1);
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  // Unpin: the next sweep reclaims it.
  ASSERT_TRUE(cluster_->server(locs.front()).storage().unpin(bid));
  dag_->run_job(make_dataset());
  EXPECT_FALSE(cached_anywhere(ds));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 1);
}

TEST_F(CacheAdvisorTest, StillReferencedDatasetIsNeverFreed) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached();
  // Submit a consumer but do not run the simulation: its stages hold live
  // references, so even a sweep far in the future must not free ds.
  const JobId id = dag_->submit(ds->filter({.selectivity = 0.5}),
                                ActionType::kCount);
  EXPECT_GT(dag_->cache_advisor()->live_stages(ds->id()), 0);
  dag_->cache_advisor()->sweep(sim_->now() + 1e9);
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  sim_->run();
  EXPECT_TRUE(dag_->job_done(id));
  EXPECT_EQ(dag_->cache_advisor()->live_stages(ds->id()), 0);
}

TEST_F(CacheAdvisorTest, FullModePromotesReusedIntermediate) {
  reset(advisor_opts(AutoCacheMode::kFull));
  auto inter = make_dataset();  // uncached non-source intermediate
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_FALSE(inter->cache_requested());
  // A second job over the same intermediate is cross-job reuse evidence:
  // the submit-time ranking promotes it under the RAM budget.
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_TRUE(inter->cache_requested());
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_caches, 1);
  EXPECT_GT(s.bytes_promoted, 0.0);
  EXPECT_LE(dag_->cache_advisor()->promoted_bytes_live(),
            dag_->cache_advisor()->promotion_budget());
  // The promoting job materialized the blocks; a third job hits the cache.
  const JobResult r = dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_GT(r.bytes_from_cache, 0.0);
}

TEST_F(CacheAdvisorTest, PromotionAfterManyOneShotJobs) {
  // Hundreds of one-shot jobs leave nothing the promotion ranking or the
  // advisor's bookkeeping should carry: the reuse pattern afterwards still
  // promotes exactly once, and the advisor tracks the live datasets only,
  // not every dataset those jobs ever referenced.
  reset(advisor_opts(AutoCacheMode::kFull));
  constexpr int kJobs = 600;  // two datasets each
  run_one_shot_jobs(kJobs);
  const CacheAdvisor& advisor = *dag_->cache_advisor();
  EXPECT_EQ(dag_->auto_cache_stats().auto_caches, 0);
  EXPECT_LT(advisor.tracked_datasets(), static_cast<std::size_t>(kJobs));

  auto inter = make_dataset();
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_FALSE(inter->cache_requested());
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_TRUE(inter->cache_requested());
  EXPECT_EQ(dag_->auto_cache_stats().auto_caches, 1);
  const JobResult r = dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_GT(r.bytes_from_cache, 0.0);
  EXPECT_EQ(dag_->auto_cache_stats().auto_caches, 1);
}

TEST_F(CacheAdvisorTest, TrackedDatasetsBoundedByLiveDatasets) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  // Datasets the application keeps stay tracked through any number of
  // jobs; the one-shot datasets are forgotten, so the tracked count
  // saw-tooths below a fixed ceiling instead of growing with jobs run.
  std::vector<DatasetPtr> kept;
  for (int i = 0; i < 8; ++i) {
    kept.push_back(make_narrow());
    dag_->run_job(kept.back());
  }
  std::size_t peak = 0;
  for (int round = 0; round < 4; ++round) {
    run_one_shot_jobs(500);
    peak = std::max(peak, dag_->cache_advisor()->tracked_datasets());
  }
  // 2000 jobs reference 4000 one-shot datasets; the prune floor is 1024.
  EXPECT_LE(peak, 1024u);
  for (const DatasetPtr& ds : kept) {
    // Still known: a re-reference by another job is cross-job reuse.
    dag_->run_job(ds->filter({.selectivity = 0.5}));
    EXPECT_GT(dag_->cache_advisor()->reuse_score(ds->id(), sim_->now()),
              0.9);
  }
}

TEST_F(CacheAdvisorTest, DroppedHandleStillFreedAfterGrace) {
  // A cache-requested dataset that dies and loses its last handle stays
  // queued for its free even while the advisor forgets other dead entries:
  // after the grace period its blocks leave every tier.
  DagOptions opts = advisor_opts(AutoCacheMode::kAutoFreeOnly);
  opts.auto_cache.free_grace_seconds = 1e6;
  reset(opts);
  auto ds = make_narrow();
  ds->cache(Dataset::StorageLevel::kMemorySerialized);
  dag_->run_job(ds);
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  const DatasetId id = ds->id();
  const int parts = ds->num_partitions();
  ds.reset();
  ASSERT_TRUE(stored_anywhere(id, parts));
  run_one_shot_jobs(600);
  ASSERT_LT(dag_->cache_advisor()->tracked_datasets(), 1200u);  // pruned
  EXPECT_TRUE(stored_anywhere(id, parts));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  advance(2e6);
  dag_->run_job(make_dataset());
  EXPECT_FALSE(stored_anywhere(id, parts));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 1);
}

TEST_F(CacheAdvisorTest, AutoFreeOnlyModeNeverPromotes) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto inter = make_dataset();
  for (int i = 0; i < 3; ++i) {
    dag_->run_job(inter->filter({.selectivity = 0.5}));
  }
  EXPECT_FALSE(inter->cache_requested());
  EXPECT_EQ(dag_->auto_cache_stats().auto_caches, 0);
}

TEST_F(CacheAdvisorTest, PromotionRespectsTenantCacheQuota) {
  // Tenant 1 owns a 25% cache quota; kFull promotions enter the cache
  // through the ordinary insert path, so the quota caps them too.
  reset(advisor_opts(AutoCacheMode::kFull), 256 * kMiB, {1.0, 0.25});
  auto inter = make_dataset(128 * kMiB);
  for (int i = 0; i < 3; ++i) {
    dag_->submit(inter->filter({.selectivity = 0.5}), ActionType::kCount,
                 SubmitOptions{.tenant = "quota-tenant"});
    sim_->run();
  }
  for (ServerId s = 0; s < cluster_->size(); ++s) {
    const BlockManager& bm = cluster_->server(s).storage();
    EXPECT_LE(bm.tenant_used(1), 0.25 * bm.capacity() + 1.0)
        << "server " << s;
  }
}

TEST_F(CacheAdvisorTest, RetiredDatasetVetoesInFlightReinsertion) {
  // The uncache-during-recompute race: a job whose tasks will materialize
  // a cached dataset is in flight when the dataset is freed. The recomputed
  // partitions must not be re-inserted into the dead dataset's cache.
  auto inter = make_dataset();
  inter->cache(Dataset::StorageLevel::kMemorySerialized);
  const JobId id = dag_->submit(inter->filter({.selectivity = 0.5}),
                                ActionType::kCount);
  const Bytes dropped = dag_->retire_dataset(inter);
  EXPECT_TRUE(dag_->dataset_retired(inter->id()));
  EXPECT_FALSE(inter->cache_requested());
  sim_->run();
  EXPECT_TRUE(dag_->job_done(id));
  EXPECT_FALSE(cached_anywhere(inter));  // the veto held
  (void)dropped;
}

TEST_F(CacheAdvisorTest, ReReferenceLiftsRetirementVeto) {
  auto inter = make_dataset();
  inter->cache(Dataset::StorageLevel::kMemorySerialized);
  dag_->run_job(inter);
  ASSERT_TRUE(cached_anywhere(inter));
  dag_->retire_dataset(inter);
  EXPECT_FALSE(cached_anywhere(inter));
  // The user re-caches and resubmits: the veto lifts at stage build and
  // the dataset materializes again.
  inter->cache(Dataset::StorageLevel::kMemorySerialized);
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_FALSE(dag_->dataset_retired(inter->id()));
  EXPECT_TRUE(cached_anywhere(inter));
}

TEST_F(CacheAdvisorTest, RetirementVetoForgetsDroppedHandles) {
  // The veto must still hold while a job that can recompute the dataset is
  // in flight, but once the application drops its handle nothing can
  // re-insert the blocks, so the veto set does not grow with retirements.
  auto inter = make_narrow();
  inter->cache(Dataset::StorageLevel::kMemorySerialized);
  const DatasetId id = inter->id();
  const int parts = inter->num_partitions();
  const JobId job = dag_->submit(inter->filter({.selectivity = 0.5}),
                                 ActionType::kCount);
  dag_->retire_dataset(inter);
  inter.reset();  // the in-flight job's stages still own the dataset
  for (int i = 0; i < 200; ++i) dag_->retire_dataset(make_narrow());
  EXPECT_TRUE(dag_->dataset_retired(id));
  sim_->run();
  EXPECT_TRUE(dag_->job_done(job));
  EXPECT_FALSE(stored_anywhere(id, parts));  // the veto held
  for (int i = 0; i < 200; ++i) dag_->retire_dataset(make_narrow());
  EXPECT_LE(dag_->retired_datasets(), 64u);
  EXPECT_FALSE(dag_->dataset_retired(id));
}

TEST_F(CacheAdvisorTest, RetireDatasetReportsDroppedBytes) {
  auto ds = make_cached();
  const Bytes cached = cluster_->total_cached_bytes();
  ASSERT_GT(cached, 0.0);
  const Bytes dropped = dag_->retire_dataset(ds);
  EXPECT_NEAR(dropped, cached, 1.0);
  EXPECT_NEAR(cluster_->total_cached_bytes(), 0.0, 1e-6);
}

}  // namespace
}  // namespace stark
