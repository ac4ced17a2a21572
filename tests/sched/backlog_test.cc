// Regression tests for the de-quadratized scheduler hot paths: unpark(),
// which filters its job's live sets by stage instead of scanning every
// set, and the deep-backlog bail-out that stops a scheduling pass from
// scanning every blocked set per event.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sched/task_scheduler.h"

namespace stark {
namespace {

class BacklogTest : public ::testing::Test {
 protected:
  BacklogTest() { reset({}); }

  void reset(TaskScheduler::Options opts, int servers = 4, int cores = 2) {
    ClusterConfig cc;
    cc.num_servers = servers;
    cc.server.cores = cores;
    cluster_ = std::make_unique<Cluster>(cc);
    sim_ = std::make_unique<sim::Simulation>();
    cost_ = CostModel{};
    cost_.driver_dispatch_per_task = 0.0;  // keep timing simple here
    cost_.task_launch_overhead = 0.0;
    done_.clear();
    sets_done_ = 0;
    sched_ = std::make_unique<TaskScheduler>(
        *sim_, *cluster_, cost_, opts,
        [](DatasetId) { return std::string{}; });
  }

  TaskScheduler::TaskSetPtr make_set(JobId job, int n, double work) {
    auto ts = std::make_shared<TaskScheduler::TaskSet>();
    ts->job = job;
    ts->stage = 0;
    for (int i = 0; i < n; ++i) {
      TaskSpec spec;
      spec.job = job;
      spec.stage = 0;
      spec.index = i;
      spec.unit_id = i;
      spec.lo = i;
      spec.hi = i + 1;
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

// After a fetch failure parks a stage's tasks, unpark() must requeue
// exactly the parked indices, in sorted index order, so re-offers are
// deterministic.
TEST_F(BacklogTest, UnparkRequeuesParkedIndicesInSortedOrder) {
  auto ts = std::make_shared<TaskScheduler::TaskSet>();
  ts->job = 7;
  ts->stage = 3;
  for (int i = 0; i < 6; ++i) {
    TaskSpec spec;
    spec.job = 7;
    spec.stage = 3;
    spec.index = i;
    spec.unit_id = i;
    spec.lo = i;
    spec.hi = i + 1;
    ts->tasks.push_back(std::move(spec));
  }
  std::vector<int> attempts(6, 0);
  std::vector<int> relaunch_order;
  ts->plan = [&](const TaskSpec& t, ServerId) {
    TaskPlan p;
    const int idx = t.index;
    ++attempts[static_cast<std::size_t>(idx)];
    if (attempts[static_cast<std::size_t>(idx)] > 1) {
      relaunch_order.push_back(idx);
    }
    // Odd indices fetch-fail on their first attempt (their map output is
    // "lost"); the DagScheduler-side policy parks them for resubmission.
    if (idx % 2 == 1 && attempts[static_cast<std::size_t>(idx)] == 1) {
      p.fetch_failure = TaskPlan::FetchFailure{ShuffleKey{1, 0}, 0};
      return p;
    }
    p.cpu = 1.0;
    return p;
  };
  ts->task_done = [this](const TaskSpec& t, const TaskMetrics& m) {
    done_.push_back({t, m});
  };
  ts->all_done = [this] { ++sets_done_; };
  ts->task_failed = [](const TaskSpec&, const TaskFailure&) {
    return TaskFailureAction::kPark;
  };

  sched_->submit(ts);
  // All 6 tasks launch at t=0 (8 cores); 1, 3, 5 raise FetchFailed and
  // park. "Resubmitted map stage" completes at t=2: unpark.
  sim_->at(2.0, [&] { sched_->unpark(7, 3); });
  sim_->run();

  EXPECT_EQ(relaunch_order, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(done_.size(), 6u);
  EXPECT_EQ(sets_done_, 1);
}

// unpark() for one (job, stage) must not disturb other parked stages.
TEST_F(BacklogTest, UnparkTouchesOnlyItsOwnJobStage) {
  auto parked_plan = [](int* attempt) {
    return [attempt](const TaskSpec&, ServerId) {
      TaskPlan p;
      if (++*attempt == 1) {
        p.fetch_failure = TaskPlan::FetchFailure{ShuffleKey{1, 0}, 0};
        return p;
      }
      p.cpu = 1.0;
      return p;
    };
  };
  static int attempt_a = 0;
  static int attempt_b = 0;
  attempt_a = attempt_b = 0;
  auto a = make_set(1, 1, 1.0);
  a->plan = parked_plan(&attempt_a);
  a->task_failed = [](const TaskSpec&, const TaskFailure&) {
    return TaskFailureAction::kPark;
  };
  auto b = make_set(2, 1, 1.0);
  b->plan = parked_plan(&attempt_b);
  b->task_failed = [](const TaskSpec&, const TaskFailure&) {
    return TaskFailureAction::kPark;
  };
  sched_->submit(a);
  sched_->submit(b);
  sim_->at(2.0, [&] { sched_->unpark(1, 0); });
  sim_->run();
  // Only job 1 was unparked; job 2's task stays parked forever.
  EXPECT_EQ(sets_done_, 1);
  EXPECT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].first.job, 1);
  EXPECT_EQ(sched_->pending_task_sets(), 1u);
}

// unpark() for one stage of a job must not disturb the job's other parked
// stages.
TEST_F(BacklogTest, UnparkTouchesOnlyItsOwnStageOfTheJob) {
  int attempt_a = 0;
  int attempt_b = 0;
  const auto parked_set = [this](StageId stage, int* attempt) {
    auto ts = make_set(1, 1, 1.0);
    ts->stage = stage;
    ts->tasks[0].stage = stage;
    ts->plan = [attempt](const TaskSpec&, ServerId) {
      TaskPlan p;
      if (++*attempt == 1) {
        p.fetch_failure = TaskPlan::FetchFailure{ShuffleKey{1, 0}, 0};
        return p;
      }
      p.cpu = 1.0;
      return p;
    };
    ts->task_failed = [](const TaskSpec&, const TaskFailure&) {
      return TaskFailureAction::kPark;
    };
    return ts;
  };
  sched_->submit(parked_set(0, &attempt_a));
  sched_->submit(parked_set(1, &attempt_b));
  sim_->at(2.0, [&] { sched_->unpark(1, 1); });
  sim_->run();
  // Only stage 1 was unparked; stage 0's task stays parked forever.
  EXPECT_EQ(sets_done_, 1);
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].first.stage, 1);
  EXPECT_EQ(sched_->pending_task_sets(), 1u);
}

// Deep-backlog bail-out must not lose a wakeup: when a core frees before
// the revisit timer fires, the completion re-runs the scheduling pass
// immediately, so the next task starts with no idle gap. With one core and
// 1-second tasks, any lost wakeup would push the makespan past 10s by some
// multiple of the revisit interval.
TEST_F(BacklogTest, DeepBacklogBailOutLosesNoWakeup) {
  TaskScheduler::Options opts;
  opts.deep_backlog_threshold = 4;  // force the deep-backlog regime early
  opts.backlog_fruitless_limit = 2;
  opts.backlog_revisit_interval = 0.2;
  reset(opts, /*servers=*/1, /*cores=*/1);
  for (JobId j = 0; j < 10; ++j) sched_->submit(make_set(j, 1, 1.0));
  sim_->run();
  EXPECT_EQ(done_.size(), 10u);
  EXPECT_EQ(sets_done_, 10);
  EXPECT_NEAR(sim_->now(), 10.0, 1e-9);
}

// Pin the schedule under a 300-set backlog (past the default
// deep_backlog_threshold of 256): completions drain in submission order at
// full core utilization, and the revisit interval — a named option as of
// this change — is only a backstop whose exact value does not perturb the
// schedule.
TEST_F(BacklogTest, ScheduleUnder300SetBacklogIsPinned) {
  const auto run_with_interval = [this](double interval) {
    TaskScheduler::Options opts;
    opts.backlog_revisit_interval = interval;
    reset(opts, /*servers=*/2, /*cores=*/2);
    for (JobId j = 0; j < 300; ++j) sched_->submit(make_set(j, 1, 1.0));
    sim_->run();
    EXPECT_EQ(done_.size(), 300u);
    EXPECT_EQ(sets_done_, 300);
    // 300 one-second tasks over 4 cores, no gaps.
    EXPECT_NEAR(sim_->now(), 75.0, 1e-9);
    std::vector<JobId> order;
    order.reserve(done_.size());
    for (const auto& [spec, metrics] : done_) order.push_back(spec.job);
    return order;
  };
  const std::vector<JobId> baseline = run_with_interval(0.2);
  // FIFO within the backlog: sets complete in submission order.
  for (std::size_t k = 0; k < baseline.size(); ++k) {
    EXPECT_EQ(baseline[k], static_cast<JobId>(k)) << "at position " << k;
  }
  // The backstop timer's exact value is schedule-neutral.
  EXPECT_EQ(run_with_interval(0.05), baseline);
}

}  // namespace
}  // namespace stark
