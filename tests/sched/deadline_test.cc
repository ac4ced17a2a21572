// Whole-job deadlines: cancellation of running, recovering and stalled
// jobs in simulated time, with no leaked scheduler state and lineage
// refcounts released exactly as on any other abort.
#include <gtest/gtest.h>

#include "api/context.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram hist(Bytes total = 64 * kMiB) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(total, 0.9);
}

ContextOptions opts(double deadline) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.overload.deadline_seconds = deadline;
  return o;
}

// App-level quarantine of an executor (two integrity charges reach the
// default max_failures_per_executor = 2): tasks stop being offered to it
// until exclude_timeout lapses.
void quarantine(Context& ctx, ServerId s) {
  ctx.dag().tasks().record_integrity_failure(s);
  ctx.dag().tasks().record_integrity_failure(s);
}

void quarantine_all(Context& ctx) {
  for (ServerId s = 0; s < ctx.cluster().size(); ++s) quarantine(ctx, s);
}

TEST(JobStatus, Names) {
  EXPECT_STREQ(job_status_name(JobStatus::kCompleted), "completed");
  EXPECT_STREQ(job_status_name(JobStatus::kFailed), "failed");
  EXPECT_STREQ(job_status_name(JobStatus::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(job_status_name(JobStatus::kRejected), "rejected");
  EXPECT_STREQ(job_status_name(JobStatus::kShed), "shed");
}

TEST(Deadline, CancelsARunningJobAndCleansUp) {
  Context ctx(opts(0.05));
  auto part = ctx.collection_partitioner(8, 256);
  // Lazy ingest: the count pays the full source load, far beyond 50 ms.
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  const SimTime t0 = ctx.sim().now();
  const auto r = ctx.count(ds);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_NEAR(r.finish_time - t0, 0.05, 1e-9);
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
  EXPECT_EQ(ctx.dag().tasks().pending_task_sets(), 0u);
  EXPECT_EQ(ctx.dag().overload_stats().deadline_exceeded, 1);
  EXPECT_EQ(ctx.dag().failure_stats().jobs_aborted, 1);
  ctx.sim().run();
  EXPECT_EQ(ctx.dag().tasks().running_tasks(), 0u);
}

TEST(Deadline, CompletionCancelsThePendingDeadlineEvent) {
  Context ctx(opts(30.0));
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.status, JobStatus::kCompleted);
  ctx.sim().run();
  // A leaked deadline event would hold the clock until t = 30.
  EXPECT_LT(ctx.sim().now(), 30.0);
  EXPECT_EQ(ctx.dag().overload_stats().deadline_exceeded, 0);
}

TEST(Deadline, FiresMidFetchFailureResubmissionWithoutLeaks) {
  ContextOptions o = opts(2.0);
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest("d" + std::to_string(i), hist(), part, "logs"));
  }
  // Losing a map-output host sends the cogroup's reduce tasks into
  // FetchFailed -> map-stage resubmission.
  ctx.kill_server(1);
  JobResult result;
  bool done = false;
  ctx.dag().submit(Dataset::cogroup(inputs, part), ActionType::kCount, {},
                   [&](const JobResult& r) {
                     result = r;
                     done = true;
                   });
  const FailureStats& s = ctx.dag().failure_stats();
  // Let the first fetch failure surface, then freeze the cluster so the
  // resubmitted map stage can never run: the deadline must fire while the
  // recovery is genuinely in flight.
  ctx.sim().run_until([&] { return s.fetch_failures >= 1 || done; });
  ASSERT_GE(s.fetch_failures, 1);
  ASSERT_FALSE(done);
  quarantine_all(ctx);
  ctx.sim().run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_GE(s.stage_resubmissions, 1);
  // Nothing leaked: no live jobs, no task sets parked on the dead shuffle.
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
  EXPECT_EQ(ctx.dag().tasks().pending_task_sets(), 0u);
  EXPECT_EQ(ctx.dag().tasks().running_tasks(), 0u);
}

TEST(Deadline, FiresWhileEveryExecutorIsQuarantined) {
  Context ctx(opts(30.0));
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  // Quarantine the whole cluster first: the job's tasks have nowhere to
  // go and simply wait, so only the deadline can end it (the exclusions
  // outlast it — they lapse at t = 60).
  quarantine_all(ctx);
  const SimTime t0 = ctx.sim().now();
  const auto r = ctx.count(ds);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_NEAR(r.finish_time - t0, 30.0, 1e-9);
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
  EXPECT_EQ(ctx.dag().tasks().pending_task_sets(), 0u);
  // Step past exclude_timeout: the quarantine lapses and the cluster
  // serves again, comfortably inside a fresh 30 s deadline.
  ctx.sim().after(61.0, [] {});
  ctx.sim().run();
  EXPECT_TRUE(ctx.count(ds).completed);
}

TEST(Deadline, AbortedBuilderReHomesTheSharedMapStage) {
  Context ctx(opts(0.0));
  auto part = ctx.collection_partitioner(8, 256);
  // Lazy ingest: the first job to read the dataset builds its shuffle.
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  JobResult a;
  JobResult b;
  // Job a builds the shared map stage and dies at its 50 ms deadline, long
  // before the source load ends; job b waits on that map stage, which the
  // abort must hand over to it.
  ctx.dag().submit(ds->filter({.selectivity = 0.5}), ActionType::kCount,
                   {.deadline_seconds = 0.05},
                   [&](const JobResult& r) { a = r; });
  ctx.dag().submit(ds->filter({.selectivity = 0.25}), ActionType::kCount, {},
                   [&](const JobResult& r) { b = r; });
  ctx.sim().run();
  EXPECT_EQ(a.status, JobStatus::kDeadlineExceeded);
  EXPECT_TRUE(b.completed);
  EXPECT_GE(ctx.dag().failure_stats().stage_resubmissions, 1);
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
}

TEST(Deadline, AbortReleasesLineageRefcounts) {
  Context ctx(opts(1.0));
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(16 * kMiB), part, "logs");
  const int rc0 = ctx.cluster().lineage_refcount(ds->id());
  quarantine_all(ctx);
  const auto r = ctx.count(ds);
  ASSERT_EQ(r.status, JobStatus::kDeadlineExceeded);
  // The aborted job's stages charged lineage refcounts at build time; the
  // abort path must hand every one of them back.
  EXPECT_EQ(ctx.cluster().lineage_refcount(ds->id()), rc0);
}

TEST(Deadline, AbortOfTheSlotHolderDispatchesTheQueueInOrder) {
  ContextOptions o = opts(0.5);
  o.overload.admission_enabled = true;
  o.overload.max_in_flight_jobs = 1;
  o.overload.max_pending_jobs = 4;
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  quarantine_all(ctx);
  std::vector<std::pair<JobId, JobStatus>> outcomes;
  auto cb = [&](const JobResult& r) {
    outcomes.emplace_back(r.id, r.status);
  };
  const JobId a = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  JobId b = kInvalidId;
  ctx.sim().after(0.1, [&] {
    b = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  });
  ctx.sim().run();
  // a stalls and dies at its deadline (t=0.5); that close frees the slot
  // and dispatches b, which stalls in turn and dies at its own deadline
  // (t=0.6), anchored at b's submission.
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].first, a);
  EXPECT_EQ(outcomes[0].second, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(outcomes[1].first, b);
  EXPECT_EQ(outcomes[1].second, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(ctx.dag().overload_stats().deadline_exceeded, 2);
  EXPECT_EQ(ctx.dag().admission().in_flight({}), 0);
  EXPECT_EQ(ctx.dag().admission().total_pending(), 0);
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
}

}  // namespace
}  // namespace stark
