// Admission control: per-(tenant, lane) bounded priority queues,
// reject/shed/block policies, FIFO dispatch as slots free up, and
// pressure-scaled intake with speculative-launch suspension under Red.
#include <gtest/gtest.h>

#include "api/context.h"
#include "sched/admission.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram hist(Bytes total = 16 * kMiB) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(total, 0.9);
}

OverloadOptions overload(AdmissionPolicy policy, int in_flight = 1,
                         int pending = 1) {
  OverloadOptions o;
  o.admission_enabled = true;
  o.policy = policy;
  o.max_in_flight_jobs = in_flight;
  o.max_pending_jobs = pending;
  return o;
}

const AdmissionKey kLaneA{0, "a"};
const AdmissionKey kLaneB{0, "b"};

TEST(AdmissionController, RejectNewWhenQueueIsFull) {
  AdmissionController ac(overload(AdmissionPolicy::kRejectNew));
  EXPECT_EQ(ac.admit(kLaneA, 1, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kAdmit);
  EXPECT_EQ(ac.admit(kLaneA, 2, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kQueue);
  EXPECT_EQ(ac.admit(kLaneA, 3, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kReject);
  EXPECT_EQ(ac.in_flight(kLaneA), 1);
  EXPECT_EQ(ac.pending(kLaneA), 1);
  // Releasing the slot lets the queued job dispatch, FIFO.
  ac.release(kLaneA);
  AdmissionKey key;
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), 2);
  EXPECT_EQ(key, kLaneA);
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), kInvalidId);
}

TEST(AdmissionController, ShedOldestDropsTheStalestQueuedJob) {
  AdmissionController ac(overload(AdmissionPolicy::kShedOldest));
  ac.admit(kLaneA, 1, 0, PressureBand::kGreen);
  ac.admit(kLaneA, 2, 0, PressureBand::kGreen);
  const auto d = ac.admit(kLaneA, 3, 0, PressureBand::kGreen);
  EXPECT_EQ(d.verdict, AdmissionVerdict::kShed);
  EXPECT_EQ(d.shed, 2);  // oldest queued job paid; the arrival is queued
  EXPECT_EQ(ac.pending(kLaneA), 1);
  ac.release(kLaneA);
  AdmissionKey key;
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), 3);
}

TEST(AdmissionController, BlockPolicyNeverRefuses) {
  AdmissionController ac(overload(AdmissionPolicy::kBlock));
  ac.admit(kLaneA, 1, 0, PressureBand::kGreen);
  for (JobId id = 2; id < 12; ++id) {
    EXPECT_EQ(ac.admit(kLaneA, id, 0, PressureBand::kGreen).verdict,
              AdmissionVerdict::kQueue);
  }
  EXPECT_EQ(ac.pending(kLaneA), 10);  // far past max_pending_jobs = 1
}

TEST(AdmissionController, PressureTightensTheEffectiveLimit) {
  OverloadOptions o = overload(AdmissionPolicy::kRejectNew, /*in_flight=*/4);
  o.yellow_intake_factor = 0.5;
  o.red_intake_factor = 0.25;
  AdmissionController ac(o);
  EXPECT_EQ(ac.effective_limit(PressureBand::kGreen), 4);
  EXPECT_EQ(ac.effective_limit(PressureBand::kYellow), 2);
  EXPECT_EQ(ac.effective_limit(PressureBand::kRed), 1);
  // The limit never drops to zero, or intake would deadlock.
  o.red_intake_factor = 0.01;
  EXPECT_EQ(AdmissionController(o).effective_limit(PressureBand::kRed), 1);
}

TEST(AdmissionController, DispatchIsFifoAcrossLanes) {
  AdmissionController ac(overload(AdmissionPolicy::kBlock));
  ac.admit(kLaneA, 1, 0, PressureBand::kGreen);  // admit (a at capacity)
  ac.admit(kLaneB, 2, 0, PressureBand::kGreen);  // admit (b at capacity)
  ac.admit(kLaneA, 3, 0, PressureBand::kGreen);  // queue
  ac.admit(kLaneB, 4, 0, PressureBand::kGreen);  // queue
  // Only b released: a's older queued job must not jump the capacity check.
  ac.release(kLaneB);
  AdmissionKey key;
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), 4);
  EXPECT_EQ(key, kLaneB);
  ac.release(kLaneA);
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), 3);
  EXPECT_EQ(key, kLaneA);
}

TEST(AdmissionController, RemovePendingDropsOnlyQueuedJobs) {
  AdmissionController ac(overload(AdmissionPolicy::kRejectNew));
  ac.admit(kLaneA, 1, 0, PressureBand::kGreen);  // dispatched
  ac.admit(kLaneA, 2, 0, PressureBand::kGreen);  // queued
  EXPECT_FALSE(ac.remove_pending(kLaneA, 1));  // in flight, not queued
  EXPECT_TRUE(ac.remove_pending(kLaneA, 2));
  EXPECT_FALSE(ac.remove_pending(kLaneA, 2));  // already removed
  EXPECT_EQ(ac.pending(kLaneA), 0);
  EXPECT_EQ(ac.in_flight(kLaneA), 1);
}

TEST(AdmissionController, LanesQueueIndependently) {
  AdmissionController ac(overload(AdmissionPolicy::kRejectNew));
  ac.admit(kLaneA, 1, 0, PressureBand::kGreen);
  ac.admit(kLaneA, 2, 0, PressureBand::kGreen);  // a's queue now full
  EXPECT_EQ(ac.admit(kLaneA, 3, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kReject);
  // Lane b is untouched by a's overload.
  EXPECT_EQ(ac.admit(kLaneB, 4, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kAdmit);
  EXPECT_EQ(ac.total_pending(), 1);
}

TEST(AdmissionController, HigherPriorityDispatchesFirstWithinALane) {
  AdmissionController ac(overload(AdmissionPolicy::kBlock));
  ac.admit(kLaneA, 1, 0, PressureBand::kGreen);   // holds the slot
  ac.admit(kLaneA, 2, 0, PressureBand::kGreen);   // queued, prio 0
  ac.admit(kLaneA, 3, 5, PressureBand::kGreen);   // queued, prio 5: jumps
  ac.admit(kLaneA, 4, 5, PressureBand::kGreen);   // prio 5: FIFO after 3
  ac.release(kLaneA);
  AdmissionKey key;
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), 3);
  ac.release(kLaneA);
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), 4);
  ac.release(kLaneA);
  EXPECT_EQ(ac.next_dispatchable(PressureBand::kGreen, &key), 2);
}

TEST(AdmissionController, ShedVictimIsTheOldestLowestPriorityJob) {
  OverloadOptions o = overload(AdmissionPolicy::kShedOldest,
                               /*in_flight=*/1, /*pending=*/2);
  AdmissionController ac(o);
  ac.admit(kLaneA, 1, 0, PressureBand::kGreen);  // in flight
  ac.admit(kLaneA, 2, 5, PressureBand::kGreen);  // queued, high prio
  ac.admit(kLaneA, 3, 0, PressureBand::kGreen);  // queued, low prio
  const auto d = ac.admit(kLaneA, 4, 0, PressureBand::kGreen);
  EXPECT_EQ(d.verdict, AdmissionVerdict::kShed);
  EXPECT_EQ(d.shed, 3);  // lowest priority class, oldest within it
}

TEST(AdmissionController, PerTenantLimitsOverrideTheGlobals) {
  OverloadOptions o = overload(AdmissionPolicy::kRejectNew,
                               /*in_flight=*/1, /*pending=*/1);
  AdmissionController ac(o);
  ac.set_tenant_limits(/*tenant=*/2, /*max_in_flight=*/2, /*max_pending=*/3);
  const AdmissionKey t2{2, ""};
  EXPECT_EQ(ac.effective_limit(PressureBand::kGreen, 2), 2);
  EXPECT_EQ(ac.effective_limit(PressureBand::kGreen, 1), 1);
  EXPECT_EQ(ac.admit(t2, 1, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kAdmit);
  EXPECT_EQ(ac.admit(t2, 2, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kAdmit);  // second slot from the override
  EXPECT_EQ(ac.admit(t2, 3, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kQueue);
  EXPECT_EQ(ac.admit(t2, 4, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kQueue);
  EXPECT_EQ(ac.admit(t2, 5, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kQueue);  // pending override = 3
  EXPECT_EQ(ac.admit(t2, 6, 0, PressureBand::kGreen).verdict,
            AdmissionVerdict::kReject);
}

// --- end-to-end through the DagScheduler ----------------------------------

ContextOptions ctx_opts(OverloadOptions ov) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.overload = ov;
  return o;
}

struct Outcome {
  JobId id;
  JobStatus status;
};

// The five job counters live only in the per-tenant slots: overload_stats()
// is their sum, plus the pressure counters, which no tenant slot carries.
void expect_overload_is_tenant_sum(const DagScheduler& dag) {
  OverloadStats sum;
  for (const OverloadStats& t : dag.tenant_overload_stats()) {
    sum.jobs_admitted += t.jobs_admitted;
    sum.jobs_queued += t.jobs_queued;
    sum.jobs_rejected += t.jobs_rejected;
    sum.jobs_shed += t.jobs_shed;
    sum.deadline_exceeded += t.deadline_exceeded;
    EXPECT_EQ(t.pressure_transitions, 0);
    EXPECT_EQ(t.red_entries, 0);
  }
  const OverloadStats s = dag.overload_stats();
  EXPECT_EQ(s.jobs_admitted, sum.jobs_admitted);
  EXPECT_EQ(s.jobs_queued, sum.jobs_queued);
  EXPECT_EQ(s.jobs_rejected, sum.jobs_rejected);
  EXPECT_EQ(s.jobs_shed, sum.jobs_shed);
  EXPECT_EQ(s.deadline_exceeded, sum.deadline_exceeded);
}

TEST(AdmissionEndToEnd, RejectNewRefusesSynchronouslyAndDrainsFifo) {
  Context ctx(ctx_opts(overload(AdmissionPolicy::kRejectNew)));
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  std::vector<Outcome> outcomes;
  auto cb = [&](const JobResult& r) {
    outcomes.push_back({r.id, r.status});
  };
  const JobId a = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  const JobId b = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  const JobId c = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  // The third arrival found one in flight and a full queue: its callback
  // already fired, inside submit.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].id, c);
  EXPECT_EQ(outcomes[0].status, JobStatus::kRejected);
  ctx.sim().run();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1].id, a);  // admitted first, finished first
  EXPECT_EQ(outcomes[1].status, JobStatus::kCompleted);
  EXPECT_EQ(outcomes[2].id, b);  // dispatched from the queue after a
  EXPECT_EQ(outcomes[2].status, JobStatus::kCompleted);
  const OverloadStats s = ctx.dag().overload_stats();
  EXPECT_EQ(s.jobs_admitted, 1);
  EXPECT_EQ(s.jobs_queued, 1);
  EXPECT_EQ(s.jobs_rejected, 1);
  EXPECT_EQ(s.jobs_shed, 0);
  expect_overload_is_tenant_sum(ctx.dag());
  EXPECT_EQ(ctx.dag().active_jobs(), 0);
}

TEST(AdmissionEndToEnd, ShedOldestTradesStaleForFresh) {
  Context ctx(ctx_opts(overload(AdmissionPolicy::kShedOldest)));
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  std::vector<Outcome> outcomes;
  auto cb = [&](const JobResult& r) {
    outcomes.push_back({r.id, r.status});
  };
  const JobId a = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  const JobId b = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  const JobId c = ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  // b was the oldest queued job; c's arrival displaced it.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].id, b);
  EXPECT_EQ(outcomes[0].status, JobStatus::kShed);
  ctx.sim().run();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1].id, a);
  EXPECT_EQ(outcomes[2].id, c);
  EXPECT_EQ(outcomes[2].status, JobStatus::kCompleted);
  EXPECT_EQ(ctx.dag().overload_stats().jobs_shed, 1);
  expect_overload_is_tenant_sum(ctx.dag());
}

TEST(AdmissionEndToEnd, BlockPolicyThrottlesWithoutLoss) {
  Context ctx(ctx_opts(overload(AdmissionPolicy::kBlock)));
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    ctx.dag().submit(ds, ActionType::kCount, {}, [&](const JobResult& r) {
      if (r.completed) ++completed;
    });
  }
  ctx.sim().run();
  EXPECT_EQ(completed, 4);
  const OverloadStats s = ctx.dag().overload_stats();
  EXPECT_EQ(s.jobs_rejected, 0);
  EXPECT_EQ(s.jobs_shed, 0);
  EXPECT_EQ(s.jobs_queued, 3);
}

TEST(AdmissionEndToEnd, RedPressureTightensIntakeAndSuspendsSpeculation) {
  OverloadOptions ov = overload(AdmissionPolicy::kBlock, /*in_flight=*/2);
  ov.red_intake_factor = 0.5;  // effective limit 1 under Red
  ContextOptions o = ctx_opts(ov);
  o.speculation = true;
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  PressureBand band = PressureBand::kRed;
  ctx.dag().set_pressure_fn([&band] { return band; });
  int completed = 0;
  auto cb = [&](const JobResult& r) {
    if (r.completed) ++completed;
  };
  ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  ctx.dag().submit(ds, ActionType::kCount, {}, cb);
  // Red halved the in-flight limit, so the second arrival queued; degrade
  // mode also suspended speculative copies.
  EXPECT_EQ(ctx.dag().pressure_band(), PressureBand::kRed);
  EXPECT_EQ(ctx.dag().admission().in_flight({}), 1);
  EXPECT_EQ(ctx.dag().admission().pending({}), 1);
  EXPECT_TRUE(ctx.dag().tasks().speculation_suspended());
  OverloadStats s = ctx.dag().overload_stats();
  EXPECT_EQ(s.pressure_transitions, 1);
  EXPECT_EQ(s.red_entries, 1);
  // Pressure clears: the next poll (on job completion) lifts degrade mode
  // and the queued job dispatches.
  band = PressureBand::kGreen;
  ctx.sim().run();
  EXPECT_EQ(completed, 2);
  EXPECT_FALSE(ctx.dag().tasks().speculation_suspended());
  s = ctx.dag().overload_stats();  // a value: re-read after the run
  EXPECT_EQ(s.pressure_transitions, 2);
  EXPECT_EQ(s.red_entries, 1);
  expect_overload_is_tenant_sum(ctx.dag());
}

TEST(AdmissionEndToEnd, DisabledAdmissionNeverConsultsTheController) {
  Context ctx(ctx_opts(OverloadOptions{}));  // everything off
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  for (int i = 0; i < 8; ++i) ctx.dag().submit(ds, ActionType::kCount);
  ctx.sim().run();
  const OverloadStats s = ctx.dag().overload_stats();
  EXPECT_EQ(s.jobs_admitted, 0);
  EXPECT_EQ(s.jobs_queued, 0);
  EXPECT_EQ(s.jobs_rejected, 0);
  EXPECT_EQ(ctx.dag().jobs_completed(), 8);
}

}  // namespace
}  // namespace stark
