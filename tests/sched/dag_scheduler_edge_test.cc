// Edge cases of the DagScheduler: unions, joins, checkpoint/cache
// interplay, driver serialization, metric detail toggles.
#include <gtest/gtest.h>

#include "sched/dag_scheduler.h"
#include "trace/wiki.h"

namespace stark {
namespace {

class DagEdgeTest : public ::testing::Test {
 protected:
  DagEdgeTest() { reset({}); }

  void reset(DagOptions opts, int servers = 4) {
    ClusterConfig cc;
    cc.num_servers = servers;
    sim_ = std::make_unique<sim::Simulation>();
    cluster_ = std::make_unique<Cluster>(cc);
    locality_ = std::make_unique<LocalityManager>(*cluster_);
    groups_ = std::make_unique<GroupManager>(*locality_);
    dag_ = std::make_unique<DagScheduler>(*sim_, *cluster_, CostModel{},
                                          *locality_, *groups_, opts);
  }

  KeyHistogramPtr hist(Bytes total = 64 * kMiB) {
    trace::WikiTraceGen::Config c;
    c.num_urls = 256;
    return std::make_shared<const KeyHistogram>(
        trace::WikiTraceGen(c).histogram(total, 0.9));
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<LocalityManager> locality_;
  std::unique_ptr<GroupManager> groups_;
  std::unique_ptr<DagScheduler> dag_;
};

TEST_F(DagEdgeTest, UnionJobRunsAsOneStageOverCachedParents) {
  auto part = std::make_shared<HashPartitioner>(8);
  std::vector<DatasetPtr> parts;
  for (int i = 0; i < 3; ++i) {
    auto ds = Dataset::source("s" + std::to_string(i), hist(), 2)
                  ->partition_by(part);
    ds->cache();
    dag_->run_job(ds);
    parts.push_back(ds);
  }
  auto u = Dataset::union_all(parts);
  const auto r = dag_->run_job(u);
  EXPECT_EQ(r.num_stages, 1);
  EXPECT_EQ(r.num_tasks, 8);
  // Without co-locality the scattered parents may still need fetches, but
  // at least the first-walked parent is served from RAM.
  EXPECT_GT(r.bytes_from_cache, 0.0);
}

TEST_F(DagEdgeTest, JoinJobChargesJoinCpu) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto a = Dataset::source("a", hist(), 2)->partition_by(part);
  auto b = Dataset::source("b", hist(), 2)->partition_by(part);
  a->cache();
  b->cache();
  dag_->run_job(a);
  dag_->run_job(b);
  auto j = Dataset::join(a, b, part, 0.5);
  const auto r = dag_->run_job(j);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.total_cpu, 0.0);
  EXPECT_EQ(r.num_stages, 1);  // co-partitioned join is narrow
}

TEST_F(DagEdgeTest, CheckpointBeatsCacheWalkWhenBlocksEvicted) {
  auto src = Dataset::source("s", hist(), 4);
  auto a = src->map({});
  dag_->checkpoint_now(a);
  auto b = a->filter({.selectivity = 0.5});
  b->cache();
  const auto r1 = dag_->run_job(b);
  // Drop b's cache: the rerun must read the checkpoint, not the source.
  for (int p = 0; p < b->num_partitions(); ++p) {
    cluster_->drop_everywhere({b->id(), p});
  }
  auto c = b->filter({.selectivity = 0.5});
  const auto r2 = dag_->run_job(c);
  EXPECT_GT(r2.bytes_from_disk, 0.0);   // checkpoint read
  EXPECT_LT(r2.bytes_from_disk, r1.bytes_from_disk + 1.0);
  EXPECT_EQ(r2.num_stages, 1);
}

TEST_F(DagEdgeTest, DetailTaskMetricsToggle) {
  reset({.use_locality_homes = false,
         .mcf = false,
         .locality_wait = 3.0,
         .detail_task_metrics = false});
  auto src = Dataset::source("s", hist(), 4);
  const auto r = dag_->run_job(src);
  EXPECT_EQ(r.num_tasks, 4);
  EXPECT_TRUE(r.tasks.empty());  // per-task list suppressed
}

TEST_F(DagEdgeTest, DriverLaunchTimesAreSerialized) {
  auto src = Dataset::source("s", hist(), 8);
  const auto r = dag_->run_job(src);
  std::vector<double> launches;
  for (const auto& t : r.tasks) launches.push_back(t.launch_time);
  std::sort(launches.begin(), launches.end());
  for (std::size_t i = 1; i < launches.size(); ++i) {
    EXPECT_GE(launches[i] - launches[i - 1],
              dag_->cost_model().driver_dispatch_per_task - 1e-12);
  }
}

TEST_F(DagEdgeTest, CheckpointNowIsIdempotent) {
  auto src = Dataset::source("s", hist(), 4);
  dag_->checkpoint_now(src);
  const Bytes once = dag_->total_checkpoint_bytes();
  dag_->checkpoint_now(src);
  EXPECT_DOUBLE_EQ(dag_->total_checkpoint_bytes(), once);
  EXPECT_THROW(dag_->checkpoint_now(nullptr), std::invalid_argument);
}

TEST_F(DagEdgeTest, ShuffleBytesCounterGrows) {
  auto src = Dataset::source("s", hist(), 4);
  auto ds = src->partition_by(std::make_shared<HashPartitioner>(8));
  EXPECT_DOUBLE_EQ(dag_->total_shuffle_bytes_written(), 0.0);
  dag_->run_job(ds);
  EXPECT_NEAR(dag_->total_shuffle_bytes_written(), src->total_bytes(), 1.0);
}

TEST_F(DagEdgeTest, ManyConcurrentJobsAllComplete) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto base = Dataset::source("s", hist(), 4)->partition_by(part);
  base->cache();
  dag_->run_job(base);
  int done = 0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    dag_->submit(base->filter({.selectivity = 0.5}), ActionType::kCount, {},
                 [&done](const JobResult& r) {
                   EXPECT_TRUE(r.completed);
                   ++done;
                 });
  }
  sim_->run();
  EXPECT_EQ(done, n);
  EXPECT_EQ(dag_->tasks().running_tasks(), 0u);
}

TEST_F(DagEdgeTest, RecomputeDelayLargestForHeavyOps) {
  auto part = std::make_shared<HashPartitioner>(4);
  auto a = Dataset::source("a", hist(100 * kMiB), 2)->partition_by(part);
  auto m = a->map({});
  auto f = a->filter({.selectivity = 1.0});
  // map throughput < filter throughput => larger recompute delay.
  EXPECT_GT(dag_->recompute_delay(*m), dag_->recompute_delay(*f));
}

}  // namespace
}  // namespace stark
