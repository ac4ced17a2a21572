#include "sched/dag_scheduler.h"

#include <gtest/gtest.h>

#include "trace/wiki.h"

namespace stark {
namespace {

// Full engine harness around the DagScheduler.
class DagSchedulerTest : public ::testing::Test {
 protected:
  DagSchedulerTest() { reset({}); }

  void reset(DagOptions opts, int servers = 4) {
    ClusterConfig cc;
    cc.num_servers = servers;
    sim_ = std::make_unique<sim::Simulation>();
    cluster_ = std::make_unique<Cluster>(cc);
    locality_ = std::make_unique<LocalityManager>(*cluster_);
    groups_ = std::make_unique<GroupManager>(*locality_);
    dag_ = std::make_unique<DagScheduler>(*sim_, *cluster_, CostModel{},
                                          *locality_, *groups_, opts);
    cluster_->add_block_observer(
        [this](ServerId s, const BlockId& id, bool inserted) {
          dag_->tasks().on_block_event(s, id, inserted);
        });
  }

  KeyHistogramPtr hist(Bytes total = 64 * kMiB, double exp = 0.9) {
    trace::WikiTraceGen::Config c;
    c.num_urls = 256;
    return std::make_shared<const KeyHistogram>(
        trace::WikiTraceGen(c).histogram(total, exp));
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<LocalityManager> locality_;
  std::unique_ptr<GroupManager> groups_;
  std::unique_ptr<DagScheduler> dag_;
};

TEST_F(DagSchedulerTest, SingleStageJob) {
  auto src = Dataset::source("s", hist(), 4);
  const auto r = dag_->run_job(src);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.num_stages, 1);
  EXPECT_EQ(r.num_tasks, 4);
  EXPECT_GT(r.delay, 0.0);
  EXPECT_GT(r.bytes_from_disk, 0.0);
  EXPECT_EQ(r.bytes_from_net, 0.0);
}

TEST_F(DagSchedulerTest, ShuffleJobHasTwoStages) {
  auto src = Dataset::source("s", hist(), 4);
  auto ds = src->partition_by(std::make_shared<HashPartitioner>(8));
  const auto r = dag_->run_job(ds);
  EXPECT_EQ(r.num_stages, 2);
  EXPECT_EQ(r.num_tasks, 4 + 8);
  EXPECT_GT(r.bytes_from_net, 0.0);  // reduce side fetched map outputs
}

TEST_F(DagSchedulerTest, ShuffleOutputsReusedAcrossJobs) {
  // Paper Fig 1's D- case: the second job skips the map stage entirely and
  // starts from the reduce phase.
  auto src = Dataset::source("s", hist(), 4);
  auto part = std::make_shared<HashPartitioner>(8);
  auto b = src->partition_by(part);
  auto c = b->filter({.selectivity = 0.1});
  const auto r1 = dag_->run_job(c);
  EXPECT_EQ(r1.num_stages, 2);

  auto c2 = b->filter({.selectivity = 0.2});
  const auto r2 = dag_->run_job(c2);
  EXPECT_EQ(r2.num_stages, 1);  // map outputs reused
  EXPECT_EQ(r2.num_tasks, 8);
  EXPECT_LT(r2.delay, r1.delay);
  EXPECT_EQ(r2.bytes_from_disk, 0.0);  // no source re-read
}

TEST_F(DagSchedulerTest, CachedDatasetMakesRerunsFast) {
  auto src = Dataset::source("s", hist(), 4);
  auto part = std::make_shared<HashPartitioner>(8);
  auto c = src->partition_by(part)->filter({.selectivity = 0.1});
  c->cache();
  const auto r1 = dag_->run_job(c);
  // Second job on a child of the cached dataset: served from local RAM.
  auto d = c->filter({.selectivity = 0.5});
  const auto r2 = dag_->run_job(d);
  EXPECT_LT(r2.delay, 0.05 * r1.delay);
  EXPECT_GT(r2.bytes_from_cache, 0.0);
  EXPECT_EQ(r2.bytes_from_net, 0.0);
  EXPECT_EQ(r2.node_local_tasks, r2.num_tasks);
}

TEST_F(DagSchedulerTest, ViolatedLocalityRecomputesFromShuffle) {
  // Cache C, then drop its blocks (as if evicted): the next job re-fetches
  // from the shuffle rather than reading a remote cache.
  auto src = Dataset::source("s", hist(), 4);
  auto part = std::make_shared<HashPartitioner>(8);
  auto c = src->partition_by(part)->filter({.selectivity = 0.1});
  c->cache();
  dag_->run_job(c);
  for (int p = 0; p < 8; ++p) {
    cluster_->drop_everywhere({c->id(), p});
  }
  auto d = c->filter({.selectivity = 0.5});
  const auto r = dag_->run_job(d);
  EXPECT_GT(r.bytes_from_net, 0.0);
  EXPECT_EQ(r.bytes_from_cache, 0.0);
}

TEST_F(DagSchedulerTest, CoGroupOfCachedCoPartitionedInputsIsOneStage) {
  auto part = std::make_shared<HashPartitioner>(8);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    auto ds = Dataset::source("s" + std::to_string(i), hist(), 4)
                  ->partition_by(part);
    ds->cache();
    dag_->run_job(ds);
    inputs.push_back(ds);
  }
  auto cg = Dataset::cogroup(inputs, part);
  const auto r = dag_->run_job(cg);
  EXPECT_EQ(r.num_stages, 1);
  EXPECT_EQ(r.num_tasks, 8);
}

TEST_F(DagSchedulerTest, AsyncSubmitCallbacksFire) {
  auto src = Dataset::source("s", hist(), 4);
  int called = 0;
  JobId seen = kInvalidId;
  const JobId id = dag_->submit(src, ActionType::kCount, {},
                                [&](const JobResult& r) {
                                  ++called;
                                  seen = r.id;
                                });
  EXPECT_FALSE(dag_->job_done(id));
  sim_->run();
  EXPECT_EQ(called, 1);
  EXPECT_EQ(seen, id);
  EXPECT_TRUE(dag_->job_done(id));
  EXPECT_EQ(dag_->jobs_completed(), 1);
}

TEST_F(DagSchedulerTest, ConcurrentJobsShareShuffleStage) {
  auto src = Dataset::source("s", hist(), 4);
  auto part = std::make_shared<HashPartitioner>(8);
  auto b = src->partition_by(part);
  auto c1 = b->filter({.selectivity = 0.1});
  auto c2 = b->filter({.selectivity = 0.2});
  const JobId j1 = dag_->submit(c1, ActionType::kCount);
  const JobId j2 = dag_->submit(c2, ActionType::kCount);
  sim_->run();
  ASSERT_TRUE(dag_->job_done(j1));
  ASSERT_TRUE(dag_->job_done(j2));
  // Job 2 waited for job 1's map stage instead of duplicating it: it has
  // only its reduce stage's tasks.
  EXPECT_EQ(dag_->result(j1).num_tasks, 4 + 8);
  EXPECT_EQ(dag_->result(j2).num_tasks, 8);
}

TEST_F(DagSchedulerTest, CheckpointShortensStage) {
  auto src = Dataset::source("s", hist(), 4);
  auto a = src->map({});
  auto b = a->filter({.selectivity = 0.5});
  dag_->checkpoint_now(a);
  EXPECT_TRUE(dag_->is_checkpointed(a->id()));
  EXPECT_GT(dag_->total_checkpoint_bytes(), 0.0);
  const auto r = dag_->run_job(b);
  // Reading the checkpoint, not the source.
  EXPECT_EQ(r.num_stages, 1);
  EXPECT_NEAR(r.bytes_from_disk,
              a->total_bytes() * dag_->cost_model().serialization_ratio,
              1.0);
}

TEST_F(DagSchedulerTest, RecoveryDelayEstimation) {
  auto src = Dataset::source("s", hist(), 4);
  auto a = src->map({});
  auto b = a->map({});
  const double before = dag_->estimate_recovery_delay(b);
  dag_->checkpoint_now(a);
  const double after = dag_->estimate_recovery_delay(b);
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0.0);
}

TEST_F(DagSchedulerTest, GcChargedUnderMemoryPressure) {
  // A small cluster and a large cogroup working set push heap utilization
  // past the knee.
  reset({}, /*servers=*/2);
  auto part = std::make_shared<HashPartitioner>(2);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 6; ++i) {
    auto ds =
        Dataset::source("s" + std::to_string(i), hist(1.5 * kGiB), 4)
            ->partition_by(part);
    ds->cache();
    dag_->run_job(ds);
    inputs.push_back(ds);
  }
  auto cg = Dataset::cogroup(inputs, part);
  const auto r = dag_->run_job(cg);
  EXPECT_GT(r.total_gc, 0.0);
}

TEST_F(DagSchedulerTest, LocalityHomesDriveplacement) {
  reset({.use_locality_homes = true, .mcf = false, .locality_wait = 3.0,
         .detail_task_metrics = true});
  auto part = std::make_shared<HashPartitioner>(4);
  groups_->register_namespace("ns", part, {});
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    auto ds = Dataset::source("s" + std::to_string(i), hist(), 2)
                  ->partition_by(part, "ns");
    ds->cache();
    dag_->run_job(ds);
    inputs.push_back(ds);
  }
  // Co-locality: both datasets' partition p live on the same server.
  for (int p = 0; p < 4; ++p) {
    const auto l0 = cluster_->cache_locations({inputs[0]->id(), p});
    const auto l1 = cluster_->cache_locations({inputs[1]->id(), p});
    ASSERT_FALSE(l0.empty());
    ASSERT_FALSE(l1.empty());
    EXPECT_EQ(l0[0], l1[0]) << "collection partition " << p;
  }
}

TEST_F(DagSchedulerTest, FailureRequeuesAndCompletes) {
  auto src = Dataset::source("s", hist(256 * kMiB), 8);
  const JobId id = dag_->submit(src, ActionType::kCount);
  sim_->run(0.5);  // mid-flight
  const SimTime failed_at = sim_->now();
  dag_->handle_server_failure(0);
  sim_->run();
  ASSERT_TRUE(dag_->job_done(id));
  // Tasks that were still running on server 0 got requeued elsewhere; only
  // tasks already finished before the failure may report server 0.
  for (const auto& t : dag_->result(id).tasks) {
    if (t.finish_time > failed_at) {
      EXPECT_NE(t.server, 0);
    }
  }
}

TEST_F(DagSchedulerTest, SubmitRejectsNull) {
  EXPECT_THROW(dag_->submit(nullptr, ActionType::kCount),
               std::invalid_argument);
}

}  // namespace
}  // namespace stark
