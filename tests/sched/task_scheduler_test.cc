#include "sched/task_scheduler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace stark {
namespace {

// Harness: drive the TaskScheduler directly with synthetic task sets.
class TaskSchedulerTest : public ::testing::Test {
 protected:
  TaskSchedulerTest() { reset({}); }

  void reset(TaskScheduler::Options opts, int servers = 4, int cores = 2) {
    ClusterConfig cc;
    cc.num_servers = servers;
    cc.server.cores = cores;
    cluster_ = std::make_unique<Cluster>(cc);
    sim_ = std::make_unique<sim::Simulation>();
    cost_ = CostModel{};
    cost_.driver_dispatch_per_task = 0.0;  // keep timing simple here
    cost_.task_launch_overhead = 0.0;
    sched_ = std::make_unique<TaskScheduler>(
        *sim_, *cluster_, cost_, opts,
        [](DatasetId) { return std::string{}; });
  }

  // A task set whose tasks all take `work` seconds on any server.
  TaskScheduler::TaskSetPtr make_set(
      int n, double work, std::vector<std::vector<ServerId>> preferred = {}) {
    auto ts = std::make_shared<TaskScheduler::TaskSet>();
    for (int i = 0; i < n; ++i) {
      TaskSpec spec;
      spec.job = 0;
      spec.stage = 0;
      spec.index = i;
      spec.unit_id = i;
      spec.lo = i;
      spec.hi = i + 1;
      if (static_cast<std::size_t>(i) < preferred.size()) {
        spec.preferred = preferred[static_cast<std::size_t>(i)];
      }
      ts->tasks.push_back(std::move(spec));
    }
    ts->plan = [work](const TaskSpec&, ServerId) {
      TaskPlan p;
      p.cpu = work;
      return p;
    };
    ts->task_done = [this](const TaskSpec& t, const TaskMetrics& m) {
      done_.push_back({t, m});
    };
    ts->all_done = [this] { ++sets_done_; };
    return ts;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<sim::Simulation> sim_;
  CostModel cost_;
  std::unique_ptr<TaskScheduler> sched_;
  std::vector<std::pair<TaskSpec, TaskMetrics>> done_;
  int sets_done_ = 0;
};

TEST_F(TaskSchedulerTest, RunsAllTasks) {
  sched_->submit(make_set(10, 1.0));
  sim_->run();
  EXPECT_EQ(done_.size(), 10u);
  EXPECT_EQ(sets_done_, 1);
  EXPECT_EQ(sched_->running_tasks(), 0u);
  EXPECT_EQ(sched_->pending_task_sets(), 0u);
}

TEST_F(TaskSchedulerTest, ParallelismBoundedByCores) {
  // 8 cores, 16 tasks of 1s => exactly two waves, finish at t=2.
  sched_->submit(make_set(16, 1.0));
  sim_->run();
  EXPECT_EQ(done_.size(), 16u);
  EXPECT_NEAR(sim_->now(), 2.0, 1e-9);
}

TEST_F(TaskSchedulerTest, PreferredServerWinsWhenFree) {
  sched_->submit(make_set(1, 1.0, {{2}}));
  sim_->run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].second.server, 2);
  EXPECT_TRUE(done_[0].second.node_local);
}

TEST_F(TaskSchedulerTest, DelaySchedulingWaitsThenEscalates) {
  reset({.mcf = false, .locality_wait = 3.0});
  // Fill server 0 completely with a long task set pinned there.
  sched_->submit(make_set(2, 100.0, {{0}, {0}}));
  // Now a short task also preferring server 0 must wait 3s, then go remote.
  sched_->submit(make_set(1, 1.0, {{0}}));
  sim_->run_until([&] { return done_.size() >= 1; });
  ASSERT_GE(done_.size(), 1u);
  const auto& m = done_[0].second;
  EXPECT_FALSE(m.node_local);
  EXPECT_NE(m.server, 0);
  EXPECT_NEAR(m.launch_time, 3.0, 1e-6);  // waited out the locality delay
}

TEST_F(TaskSchedulerTest, LocalSlotTakenBeforeWaitExpires) {
  reset({.mcf = false, .locality_wait = 3.0});
  // Server 0 busy for 1s only.
  sched_->submit(make_set(2, 1.0, {{0}, {0}}));
  sched_->submit(make_set(1, 1.0, {{0}}));
  sim_->run();
  // The third task launched locally at t=1 (before the 3s wait expired).
  const auto& m = done_.back().second;
  EXPECT_TRUE(m.node_local);
  EXPECT_EQ(m.server, 0);
  EXPECT_NEAR(m.launch_time, 1.0, 1e-6);
}

TEST_F(TaskSchedulerTest, NoPreferencesLaunchImmediatelyAnywhere) {
  reset({.mcf = false, .locality_wait = 3.0});
  sched_->submit(make_set(4, 1.0));
  sim_->run();
  EXPECT_NEAR(sim_->now(), 1.0, 1e-9);  // no artificial locality wait
}

TEST_F(TaskSchedulerTest, DriverDispatchSerializesLaunches) {
  reset({});
  cost_.driver_dispatch_per_task = 0.1;
  sched_ = std::make_unique<TaskScheduler>(
      *sim_, *cluster_, cost_, TaskScheduler::Options{},
      [](DatasetId) { return std::string{}; });
  auto ts = make_set(4, 0.0);
  sched_->submit(ts);
  sim_->run();
  // Launch times are spaced by the dispatch cost: 0.1, 0.2, 0.3, 0.4.
  std::vector<double> launches;
  for (const auto& [t, m] : done_) launches.push_back(m.launch_time);
  std::sort(launches.begin(), launches.end());
  for (std::size_t i = 0; i < launches.size(); ++i) {
    EXPECT_NEAR(launches[i], 0.1 * static_cast<double>(i + 1), 1e-9);
  }
}

TEST_F(TaskSchedulerTest, McfPrefersLeastContendedServer) {
  reset({.mcf = true, .locality_wait = 0.0});
  // Server 1 caches blocks of three different collection partitions;
  // server 3 caches one. Everyone else: zero.
  for (int p = 0; p < 3; ++p) {
    sched_->on_block_event(1, BlockId{100, p}, true);
  }
  sched_->on_block_event(3, BlockId{100, 7}, true);
  EXPECT_EQ(sched_->unique_collection_partitions(1), 3);
  EXPECT_EQ(sched_->unique_collection_partitions(3), 1);
  // A single remote task should land on a zero-contention server (0 or 2).
  sched_->submit(make_set(1, 1.0));
  sim_->run();
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_TRUE(done_[0].second.server == 0 || done_[0].second.server == 2);
}

TEST_F(TaskSchedulerTest, ContentionRefcountsBlockReplicas) {
  sched_->on_block_event(0, BlockId{5, 1}, true);
  sched_->on_block_event(0, BlockId{5, 1}, true);
  sched_->on_block_event(0, BlockId{5, 1}, false);
  EXPECT_EQ(sched_->unique_collection_partitions(0), 1);
  sched_->on_block_event(0, BlockId{5, 1}, false);
  EXPECT_EQ(sched_->unique_collection_partitions(0), 0);
}

TEST_F(TaskSchedulerTest, BlocksCachedOnCompletion) {
  auto ts = make_set(1, 1.0);
  ts->plan = [](const TaskSpec&, ServerId) {
    TaskPlan p;
    p.cpu = 1.0;
    p.blocks_to_cache.push_back({BlockId{42, 0}, 100.0, false});
    return p;
  };
  sched_->submit(ts);
  sim_->run();
  EXPECT_TRUE(cluster_->cached_anywhere({42, 0}));
}

TEST_F(TaskSchedulerTest, ServerFailureRequeuesRunningTasks) {
  reset({.mcf = false, .locality_wait = 0.0}, /*servers=*/2, /*cores=*/1);
  sched_->submit(make_set(2, 10.0));
  sim_->run(1.0);  // both running
  EXPECT_EQ(sched_->running_tasks(), 2u);
  // Find which server runs task 0 and kill it.
  cluster_->kill_server(0);
  sched_->handle_server_failure(0);
  sim_->run();
  // All tasks still completed (requeued onto server 1).
  EXPECT_EQ(done_.size(), 2u);
  for (const auto& [t, m] : done_) EXPECT_EQ(m.server, 1);
  EXPECT_EQ(sets_done_, 1);
}

TEST_F(TaskSchedulerTest, MetricsBreakdownRecorded) {
  auto ts = make_set(1, 0.0);
  ts->plan = [](const TaskSpec&, ServerId) {
    TaskPlan p;
    p.cpu = 1.0;
    p.gc = 0.5;
    p.shuffle_read = 0.25;
    p.disk = 0.125;
    p.bytes_net = 1000.0;
    return p;
  };
  sched_->submit(ts);
  sim_->run();
  const auto& m = done_[0].second;
  EXPECT_DOUBLE_EQ(m.cpu, 1.0);
  EXPECT_DOUBLE_EQ(m.gc, 0.5);
  EXPECT_DOUBLE_EQ(m.shuffle_read, 0.25);
  EXPECT_DOUBLE_EQ(m.disk, 0.125);
  EXPECT_DOUBLE_EQ(m.bytes_from_net, 1000.0);
  EXPECT_NEAR(m.duration(), 1.875, 1e-9);
}

TEST_F(TaskSchedulerTest, EmptyTaskSetRejected) {
  auto ts = std::make_shared<TaskScheduler::TaskSet>();
  EXPECT_THROW(sched_->submit(ts), std::invalid_argument);
  EXPECT_THROW(sched_->submit(nullptr), std::invalid_argument);
}

TEST_F(TaskSchedulerTest, TaskFailedOnEveryLiveExecutorAbortsItsSet) {
  reset({}, /*servers=*/2, /*cores=*/1);
  // Every run crashes. excludeOnFailure bars the task from each executor
  // it failed on, so after one failure per executor nothing can run it,
  // well inside the max_task_failures budget: the set aborts instead of
  // waiting forever.
  sched_->set_flaky_task_probability(1.0);
  auto ts = make_set(1, 1.0);
  std::vector<std::string> reasons;
  ts->on_abort = [&](const std::string& reason) { reasons.push_back(reason); };
  sched_->submit(ts);
  sim_->run();
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0],
            "task 0 cannot be scheduled on any live executor "
            "(excludeOnFailure)");
  EXPECT_EQ(sched_->failure_stats().task_failures, 2);
  EXPECT_EQ(sched_->pending_task_sets(), 0u);
  EXPECT_EQ(sched_->running_tasks(), 0u);
  EXPECT_EQ(sets_done_, 0);
  EXPECT_TRUE(done_.empty());
}

TEST_F(TaskSchedulerTest, FifoBetweenTaskSets) {
  reset({}, /*servers=*/1, /*cores=*/1);
  sched_->submit(make_set(2, 1.0));
  sched_->submit(make_set(1, 1.0));
  sim_->run();
  ASSERT_EQ(done_.size(), 3u);
  // The single-core server serves the first set's two tasks first.
  EXPECT_NEAR(done_[2].second.finish_time, 3.0, 1e-9);
}

}  // namespace
}  // namespace stark
