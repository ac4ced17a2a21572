#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "api/stark.h"
#include "obs/ring_sink.h"
#include "trace/wiki.h"

namespace stark::obs {
namespace {

TraceEvent event(TraceKind kind, SimTime t = 1.0) {
  TraceEvent e;
  e.kind = kind;
  e.t0 = e.t1 = t;
  return e;
}

// A sink that counts what reaches it.
class CountingSink final : public TraceSink {
 public:
  void on_event(const TraceEvent&) override { ++events; }
  void flush() override { ++flushes; }
  int events = 0;
  int flushes = 0;
};

TEST(Tracer, ActiveGuard) {
  EXPECT_FALSE(Tracer::active(nullptr));
  Tracer t;
  EXPECT_FALSE(Tracer::active(&t));  // constructed disabled
  t.set_enabled(true);
  EXPECT_TRUE(Tracer::active(&t));
  t.set_enabled(false);
  EXPECT_FALSE(Tracer::active(&t));
}

TEST(Tracer, RejectsNullSink) {
  Tracer t;
  EXPECT_THROW(t.add_sink(nullptr), std::invalid_argument);
}

TEST(Tracer, EmitFansOutOnlyWhenEnabled) {
  Tracer t;
  auto a = std::make_shared<CountingSink>();
  auto b = std::make_shared<CountingSink>();
  t.add_sink(a);
  t.add_sink(b);
  t.emit(event(TraceKind::kJobSubmit));  // disabled: dropped
  EXPECT_EQ(a->events, 0);
  t.set_enabled(true);
  t.emit(event(TraceKind::kJobSubmit));
  EXPECT_EQ(a->events, 1);
  EXPECT_EQ(b->events, 1);
  EXPECT_EQ(t.events_emitted(), 1u);
  t.flush();
  EXPECT_EQ(a->flushes, 1);
}

TEST(Tracer, TypedSinkLookup) {
  Tracer t;
  t.add_sink(std::make_shared<CountingSink>());
  t.add_sink(std::make_shared<RingBufferSink>(16));
  EXPECT_NE(t.sink<RingBufferSink>(), nullptr);
  EXPECT_NE(t.sink<CountingSink>(), nullptr);
  EXPECT_EQ(t.sink<ChromeTraceSink>(), nullptr);
}

TEST(TraceKindName, CoversEveryKind) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kJobSubmit), "job-submit");
  EXPECT_STREQ(trace_kind_name(TraceKind::kTaskFinish), "task-finish");
  EXPECT_STREQ(trace_kind_name(TraceKind::kExecutorLost), "executor-lost");
}

TEST(RingBufferSink, RejectsZeroCapacity) {
  EXPECT_THROW(RingBufferSink(0), std::invalid_argument);
}

TEST(RingBufferSink, WrapsKeepingNewestOldestFirst) {
  RingBufferSink ring(4);
  for (int i = 0; i < 7; ++i) ring.on_event(event(TraceKind::kTaskLaunch, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 7u);
  EXPECT_EQ(ring.dropped(), 3u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].t0, 3.0 + static_cast<double>(i));
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(RingBufferSink, FiltersByKind) {
  RingBufferSink ring(8);
  ring.on_event(event(TraceKind::kTaskLaunch));
  ring.on_event(event(TraceKind::kTaskFinish));
  ring.on_event(event(TraceKind::kTaskFinish));
  EXPECT_EQ(ring.count(TraceKind::kTaskFinish), 2u);
  EXPECT_EQ(ring.events(TraceKind::kTaskLaunch).size(), 1u);
  EXPECT_EQ(ring.count(TraceKind::kJobFinish), 0u);
}

// --- Context-level wiring ---------------------------------------------------

KeyHistogram hist() {
  trace::WikiTraceGen::Config c;
  c.num_urls = 512;
  return trace::WikiTraceGen(c).histogram(64 * kMiB, 0.9);
}

ContextOptions traced_opts() {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.trace.enabled = true;
  return o;
}

TEST(ContextTracing, DisabledByDefaultWithNoSinks) {
  ContextOptions o = traced_opts();
  o.trace = {};
  Context ctx(o);
  EXPECT_FALSE(ctx.tracer().enabled());
  EXPECT_EQ(ctx.tracer().num_sinks(), 0u);
}

TEST(ContextTracing, LifecycleEventsCoverTheRun) {
  Context ctx(traced_opts());
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  const auto r = ctx.count(ds);
  ASSERT_TRUE(r.completed);

  auto* ring = ctx.tracer().sink<RingBufferSink>();
  ASSERT_NE(ring, nullptr);
  // Two jobs ran: the ingest materialization and the count.
  EXPECT_EQ(ring->count(TraceKind::kJobSubmit), 2u);
  EXPECT_EQ(ring->count(TraceKind::kJobFinish), 2u);
  EXPECT_GE(ring->count(TraceKind::kStageSubmit), 2u);
  EXPECT_EQ(ring->count(TraceKind::kStageComplete),
            ring->count(TraceKind::kStageSubmit));
  // One launch and one finish span per executed task.
  const std::size_t launches = ring->count(TraceKind::kTaskLaunch);
  EXPECT_EQ(ring->count(TraceKind::kTaskFinish), launches);
  // The ingest caches its partitions: insert events fired.
  EXPECT_GE(ring->count(TraceKind::kBlockInsert), 8u);
  // The count read them back from RAM: hits, no misses of cached data.
  EXPECT_GE(ring->count(TraceKind::kBlockHit), 8u);

  // Every finish span carries a sane phase breakdown.
  for (const TraceEvent& e : ring->events(TraceKind::kTaskFinish)) {
    EXPECT_TRUE(e.is_span());
    EXPECT_GE(e.phases.sched_delay, 0.0);
    EXPECT_GE(e.phases.compute, 0.0);
    EXPECT_LE(e.phases.busy(), e.duration() + 1e-9);
    EXPECT_NE(e.server, kInvalidId);
  }
}

TEST(ContextTracing, ExecutorLossEmitsDetectionSpan) {
  Context ctx(traced_opts());
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.kill_server(1);
  const auto r = ctx.count(ds);
  ASSERT_TRUE(r.completed);
  ctx.sim().run();  // let the heartbeat grid detect the death
  auto* ring = ctx.tracer().sink<RingBufferSink>();
  const auto lost = ring->events(TraceKind::kExecutorLost);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost.front().server, 1);
  // Span duration is the heartbeat detection latency: strictly positive.
  EXPECT_GT(lost.front().duration(), 0.0);
}

TEST(ContextTracing, TracingDoesNotPerturbSimulatedTime) {
  double delay_off = 0.0, delay_on = 0.0;
  {
    ContextOptions o = traced_opts();
    o.trace = {};
    Context ctx(o);
    auto part = ctx.collection_partitioner(8, 512);
    auto ds = ctx.ingest("d", hist(), part, "logs");
    delay_off = ctx.count(ds).delay;
  }
  {
    Context ctx(traced_opts());
    auto part = ctx.collection_partitioner(8, 512);
    auto ds = ctx.ingest("d", hist(), part, "logs");
    delay_on = ctx.count(ds).delay;
  }
  EXPECT_EQ(delay_off, delay_on);  // bit-identical, not merely close
}

// Every way a job can close (abort mid-run, deadline while queued,
// rejection, completion) traces exactly one kJobFinish span.
TEST(ContextTracing, OneJobFinishPerClosePath) {
  ContextOptions o = traced_opts();
  o.overload.admission_enabled = true;
  o.overload.policy = AdmissionPolicy::kRejectNew;
  o.overload.max_in_flight_jobs = 1;
  o.overload.max_pending_jobs = 1;
  Context ctx(o);
  auto part = ctx.collection_partitioner(8, 512);
  auto lazy = ctx.ingest("lazy", hist(), part, "logs", {.materialize = false});
  auto warm = ctx.ingest("warm", hist(), part, "logs");
  std::vector<JobResult> results;
  const auto keep = [&](const JobResult& r) { results.push_back(r); };
  // The first job holds the one in-flight slot and dies mid-run at 50 ms;
  // the second queues behind it and its 20 ms deadline fires while it is
  // still queued; the third finds the pending queue full.
  ctx.dag().submit(lazy, ActionType::kCount, {.deadline_seconds = 0.05}, keep);
  ctx.dag().submit(lazy, ActionType::kCount, {.deadline_seconds = 0.02}, keep);
  ctx.dag().submit(warm, ActionType::kCount, {}, keep);
  // The fourth queues once the queue is empty again and completes after
  // the abort frees the slot.
  ctx.sim().after(0.03, [&] {
    ctx.dag().submit(warm, ActionType::kCount, {}, keep);
  });
  ctx.sim().run();

  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, JobStatus::kRejected);
  EXPECT_EQ(results[1].status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(results[1].num_stages, 0);  // closed while queued
  EXPECT_EQ(results[2].status, JobStatus::kDeadlineExceeded);
  EXPECT_GT(results[2].num_stages, 0);  // aborted mid-run
  EXPECT_EQ(results[3].status, JobStatus::kCompleted);
  const auto finishes =
      ctx.tracer().sink<RingBufferSink>()->events(TraceKind::kJobFinish);
  for (const JobResult& r : results) {
    SCOPED_TRACE(job_status_name(r.status));
    int spans = 0;
    for (const TraceEvent& e : finishes) {
      if (e.job != r.id) continue;
      ++spans;
      EXPECT_EQ(e.t0, r.submit_time);
      EXPECT_EQ(e.t1, r.finish_time);
      EXPECT_EQ((e.flags & kFlagCompleted) != 0, r.completed);
      EXPECT_EQ(e.task_index, r.num_stages > 0 ? r.num_tasks : -1);
    }
    EXPECT_EQ(spans, 1);
  }
}

}  // namespace
}  // namespace stark::obs
