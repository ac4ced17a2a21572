// Failure machinery end to end: task retries with bounded attempts, clean
// job aborts, fetch-failure stage resubmission, executor exclusion and
// re-admission, and deferred result delivery across partitions.
#include <gtest/gtest.h>

#include <optional>

#include "api/context.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram hist(Bytes total = 64 * kMiB) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(total, 0.9);
}

ContextOptions opts() {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  return o;
}

TEST(FaultTolerance, FlakyTasksRetryUntilTheJobCompletes) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.dag().tasks().set_flaky_task_probability(0.2);
  const auto r = ctx.count(ds);
  ctx.dag().tasks().set_flaky_task_probability(0.0);
  EXPECT_TRUE(r.completed);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GT(s.task_failures, 0);
  EXPECT_GT(s.task_retries, 0);
  EXPECT_EQ(s.jobs_aborted, 0);
}

TEST(FaultTolerance, ExhaustedRetriesAbortCleanlyInsteadOfHanging) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  // Every launched task crashes: retries, exclusion and finally a clean
  // abort with a reason — run_job must return, not throw on a drained
  // queue, and the scheduler must not strand any state.
  ctx.dag().tasks().set_flaky_task_probability(1.0);
  const auto r = ctx.count(ds);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.failure_reason.empty());
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.task_failures, ctx.options().faults.max_task_failures);
  EXPECT_EQ(s.jobs_aborted, 1);
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
  // The cluster is fully usable again afterwards.
  ctx.dag().tasks().set_flaky_task_probability(0.0);
  ctx.sim().run();  // let exclusion timers drain
  EXPECT_TRUE(ctx.count(ds).completed);
}

TEST(FaultTolerance, ExecutorLossMidJobRetriesOnSurvivors) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  // Large enough that the first task wave is still in flight at +0.05s.
  auto ds = ctx.ingest("d", hist(512 * kMiB), part, "logs");
  // Kill a server holding cached blocks a beat after the query starts —
  // before its first wave finishes — so running tasks are lost mid-flight.
  ServerId victim = kInvalidId;
  for (int p = 0; p < 8 && victim == kInvalidId; ++p) {
    const auto locs = ctx.cluster().cache_locations({ds->id(), p});
    if (!locs.empty()) victim = locs[0];
  }
  ASSERT_NE(victim, kInvalidId);
  ctx.sim().after(0.01, [&] { ctx.kill_server(victim); });
  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed) << r.failure_reason;
  EXPECT_GT(r.delay, 0.01) << "job too short to be disturbed";
  for (const auto& t : r.tasks) EXPECT_NE(t.server, victim);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.heartbeat_detections, 1);
  EXPECT_GE(s.task_retries, 1);
  EXPECT_GE(s.mean_detection_latency(), 0.0);
}

TEST(FaultTolerance, FetchFailureResubmitsTheMapStage) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest("d" + std::to_string(i), hist(), part, "logs"));
  }
  // The ingests built shuffle outputs on every server; losing one forces
  // the cogroup's reduce tasks into FetchFailed -> map-stage resubmission.
  ctx.kill_server(1);
  const auto r = ctx.count(Dataset::cogroup(inputs, part));
  EXPECT_TRUE(r.completed);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.fetch_failures, 1);
  EXPECT_GE(s.stage_resubmissions, 1);
  // Stages report in id order. The rebuilt map stage is minted after the
  // reduce stage that hit the FetchFailed, so it reports last.
  ASSERT_GE(r.stages.size(), 2u);
  for (std::size_t i = 1; i < r.stages.size(); ++i) {
    EXPECT_LT(r.stages[i - 1].stage, r.stages[i].stage);
  }
  EXPECT_TRUE(r.stages.back().shuffle_map);
}

TEST(FaultTolerance, FailedLaunchRpcRevealsADeadExecutorEarly) {
  ContextOptions o = opts();
  o.cluster.server.cores = 1;
  Context ctx(o);
  auto part = ctx.collection_partitioner(16, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  // 16 tasks on 4 single-core executors: most of them queue. Server 2 dies
  // while tasks that prefer it are still pending, so the next NODE_LOCAL
  // pass aims a launch RPC at it. The RPC fails and the driver declares the
  // loss on the spot instead of waiting out the heartbeat timeout.
  std::optional<JobResult> result;
  ctx.dag().submit(ds, ActionType::kCount, {},
                   [&](const JobResult& r) { result = r; });
  ctx.sim().after(1e-6, [&] { ctx.kill_server(2); });
  ctx.sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->completed) << result->failure_reason;
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_EQ(s.heartbeat_detections, 1);
  EXPECT_LT(s.mean_detection_latency(), o.faults.heartbeat_timeout);
}

TEST(FaultTolerance, PartitionHealedBeforeTimeoutDeliversResultsLate) {
  Context ctx(opts());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  // Partition a server right as tasks land on it, heal well before the
  // heartbeat deadline: the driver never notices; the finished results
  // just arrive late.
  const SimTime now = ctx.sim().now();
  ctx.sim().at(now + 0.05, [&] { ctx.partition_server(2); });
  ctx.sim().at(now + 2.0, [&] { ctx.heal_server(2); });
  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(ctx.dag().failure_stats().heartbeat_detections, 0);
}

TEST(FaultTolerance, RepeatedFailuresExcludeThenReadmitExecutors) {
  ContextOptions o = opts();
  o.faults.exclude_timeout = 2.0;  // quick re-admission for the test
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.dag().tasks().set_flaky_task_probability(1.0);
  EXPECT_FALSE(ctx.count(ds).completed);
  ctx.dag().tasks().set_flaky_task_probability(0.0);
  const FailureStats& s = ctx.dag().failure_stats();
  EXPECT_GE(s.executor_exclusions, 1);
  // Timed exclusions lapse and the executors rejoin; the next job sees a
  // full cluster again.
  ctx.sim().run();
  EXPECT_TRUE(ctx.count(ds).completed);
  EXPECT_GE(s.executor_readmissions, 1);
}

}  // namespace
}  // namespace stark
