// Run ids come from a slot pool: a finished run's slot is reused by the
// next launch, yet ids must still order runs by launch. The executor-lost
// path fails runs, and cancel_job discards them, in that order; both
// orders feed floating-point accounting, so a slot-ordered walk would
// change simulated results.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "sched/task_scheduler.h"

namespace stark {
namespace {

// 2^53: above it doubles are spaced 2 apart, so the order in which running
// working sets are subtracted from a server's total shows in the residue.
const double kHuge = std::ldexp(1.0, 53);

class RunSlotTest : public ::testing::Test {
 protected:
  RunSlotTest() {
    ClusterConfig cc;
    cc.num_servers = 2;
    cc.server.cores = 2;
    cluster_ = std::make_unique<Cluster>(cc);
    cost_.driver_dispatch_per_task = 0.0;
    cost_.task_launch_overhead = 0.0;
    sched_ = std::make_unique<TaskScheduler>(
        sim_, *cluster_, cost_, TaskScheduler::Options{.locality_wait = 0.0},
        [](DatasetId) { return std::string{}; });
  }

  // One task per entry of `working_sets`, each running `work` seconds.
  TaskScheduler::TaskSetPtr make_set(JobId job, double work,
                                     std::vector<Bytes> working_sets) {
    auto ts = std::make_shared<TaskScheduler::TaskSet>();
    ts->job = job;
    for (std::size_t i = 0; i < working_sets.size(); ++i) {
      TaskSpec spec;
      spec.job = job;
      spec.index = static_cast<int>(i);
      ts->tasks.push_back(spec);
    }
    ts->plan = [work, working_sets](const TaskSpec& t, ServerId) {
      TaskPlan p;
      p.cpu = work;
      p.working_set = working_sets[static_cast<std::size_t>(t.index)];
      return p;
    };
    ts->task_done = [this](const TaskSpec& t, const TaskMetrics&) {
      finished_.emplace_back(t.job, t.index);
    };
    ts->task_failed = [this](const TaskSpec& t, const TaskFailure& f) {
      EXPECT_EQ(f.kind, TaskFailureKind::kExecutorLost);
      failed_.emplace_back(t.job, t.index);
      return TaskFailureAction::kRetry;
    };
    return ts;
  }

  sim::Simulation sim_;
  std::unique_ptr<Cluster> cluster_;
  CostModel cost_;
  std::unique_ptr<TaskScheduler> sched_;
  std::vector<std::pair<JobId, int>> finished_;
  std::vector<std::pair<JobId, int>> failed_;
};

TEST_F(RunSlotTest, FailureAndCancelFollowLaunchOrderAcrossSlotReuse) {
  // Server 1 starts partitioned, so everything lands on server 0.
  cluster_->set_server_reachable(1, false);
  sched_->submit(make_set(/*job=*/0, 1.0, {0.0}));        // run A, slot a
  sched_->submit(make_set(/*job=*/1, 100.0, {kHuge, 3.0}));  // B; C waits
  EXPECT_EQ(sched_->running_tasks(), 2u);

  // A finishes and C takes its core and its slot: C launched after B but
  // holds the older slot.
  sim_.run(1.5);
  ASSERT_EQ(finished_.size(), 1u);
  EXPECT_EQ(sched_->running_tasks(), 2u);
  EXPECT_EQ(cluster_->server(0).free_cores(), 0);

  // Server 1 heals; server 0 dies. Both runs fail in launch order (B, C),
  // and each retry relaunches on server 1 at once into the slot its failed
  // run just freed, so the retried C again holds the older slot.
  cluster_->set_server_reachable(1, true);
  cluster_->kill_server(0);
  sched_->handle_server_failure(0);
  const std::vector<std::pair<JobId, int>> launch_order = {{1, 0}, {1, 1}};
  EXPECT_EQ(failed_, launch_order);
  EXPECT_EQ(sched_->running_tasks(), 2u);
  EXPECT_EQ(cluster_->server(1).free_cores(), 0);
  // kHuge + 3 rounds to kHuge + 4.
  EXPECT_EQ(cluster_->server(1).active_working_set(), kHuge + 4.0);

  // Cancelling the job discards B then C: (kHuge + 4 - kHuge) - 3 == 1.
  // C first would leave (kHuge + 4 - 3 -> kHuge) - kHuge == 0.
  sched_->cancel_job(1);
  EXPECT_EQ(sched_->running_tasks(), 0u);
  EXPECT_EQ(cluster_->server(1).free_cores(), 2);
  EXPECT_EQ(cluster_->server(1).active_working_set(), 1.0);

  // The freed slots serve a later job normally.
  sched_->submit(make_set(/*job=*/2, 1.0, {0.0, 0.0}));
  EXPECT_EQ(sched_->running_tasks(), 2u);
  sim_.run();
  EXPECT_EQ(sched_->running_tasks(), 0u);
  EXPECT_EQ(finished_.size(), 3u);
}

}  // namespace
}  // namespace stark
