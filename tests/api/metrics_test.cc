#include "api/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/chaos.h"
#include "api/context.h"
#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram hist(Bytes total = 64 * kMiB) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 256;
  return trace::WikiTraceGen(c).histogram(total, 0.9);
}

// The summary line that starts with `prefix` (empty if none does).
std::string line_of(const std::string& summary, const std::string& prefix) {
  std::istringstream in(summary);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return {};
}

TEST(Metrics, AggregatesJobResults) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  for (int q = 0; q < 3; ++q) {
    metrics.observe_job(ctx.count(ds));
  }
  EXPECT_EQ(metrics.jobs(), 3);
  EXPECT_EQ(metrics.tasks(), 24);
  EXPECT_EQ(metrics.node_local_fraction(), 1.0);
  EXPECT_GT(metrics.bytes_from_cache(), 0.0);
  EXPECT_EQ(metrics.bytes_from_net(), 0.0);
  EXPECT_NEAR(metrics.cache_hit_ratio(), 1.0, 1e-9);
  EXPECT_EQ(static_cast<int>(metrics.job_delays().count()), 3);
}

TEST(Metrics, CountsCacheEvents) {
  ClusterConfig cc;
  cc.num_servers = 1;
  cc.server.ram = 1000.0;
  cc.server.storage_fraction = 0.5;
  Cluster cluster(cc);
  MetricsCollector metrics(cluster);
  cluster.insert_block(0, {1, 0}, 300.0);
  cluster.insert_block(0, {2, 0}, 300.0);  // evicts {1,0}
  EXPECT_EQ(metrics.cache_insertions(), 2);
  EXPECT_EQ(metrics.cache_evictions(), 1);
}

TEST(Metrics, EmptyCollectorIsZero) {
  ContextOptions o;
  o.cluster.num_servers = 1;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  EXPECT_EQ(metrics.jobs(), 0);
  EXPECT_EQ(metrics.node_local_fraction(), 0.0);
  EXPECT_EQ(metrics.cache_hit_ratio(), 0.0);
  EXPECT_EQ(metrics.gc_fraction(), 0.0);
  EXPECT_FALSE(metrics.summary(ctx.dag()).empty());
}

TEST(Metrics, SummaryMentionsKeyNumbers) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  metrics.observe_job(ctx.count(ds));
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_NE(s.find("jobs: 1"), std::string::npos);
  EXPECT_NE(s.find("node-local: 100%"), std::string::npos);
  EXPECT_NE(s.find("cache hit 100%"), std::string::npos);
}

TEST(Metrics, ClusterUtilizationTracksBusyTime) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  EXPECT_DOUBLE_EQ(
      MetricsCollector::cluster_utilization(ctx.cluster(), ctx.sim().now()),
      0.0);
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.count(ds);
  const double u =
      MetricsCollector::cluster_utilization(ctx.cluster(), ctx.sim().now());
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST(Metrics, SurfacesFailureCounters) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.kill_server(1);
  metrics.observe_job(ctx.count(ds));
  ctx.sim().run();  // let the heartbeat grid detection fire
  const FailureStats& f = ctx.dag().failure_stats();
  EXPECT_GE(f.heartbeat_detections, 1);
  EXPECT_GE(f.mean_detection_latency(), 0.0);
  // The server died before the job: its loss is a detection, and the job
  // rebuilt the lost cached partitions without a task or fetch failing.
  EXPECT_EQ(f.task_failures + f.fetch_failures + f.stage_resubmissions, 0);
  EXPECT_EQ(metrics.aborted_jobs(), 0);
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_NE(s.find("detections: 1"), std::string::npos);
  EXPECT_NE(s.find("failures: 0 (retries 0, fetch 0)"), std::string::npos);
}

TEST(Metrics, CountsAbortedJobs) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.dag().tasks().set_flaky_task_probability(1.0);
  metrics.observe_job(ctx.count(ds));
  EXPECT_EQ(metrics.aborted_jobs(), 1);
  EXPECT_GT(ctx.dag().failure_stats().task_failures, 0);
  EXPECT_NE(metrics.summary(ctx.dag()).find("(1 aborted)"),
            std::string::npos);
}

TEST(Metrics, UtilizationAndSummaryUnderChaos) {
  // A stream of cogroup jobs while servers die, slow down and come back:
  // the collector must keep its invariants (bounded utilization, every
  // issued job observed, a coherent summary) under real failure churn.
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 6;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 2; ++i) {
    inputs.push_back(
        ctx.ingest("d" + std::to_string(i), hist(), part, "logs"));
  }
  ChaosInjector chaos(ctx, {.failures_per_hour = 600.0,
                            .mean_repair_seconds = 5.0,
                            .min_alive = 2,
                            .slow_nodes_per_hour = 600.0,
                            .seed = 23});
  const SimTime t0 = ctx.sim().now();
  chaos.start(t0, t0 + 60.0);
  int observed = 0;
  for (int q = 0; q < 12; ++q) {
    ctx.sim().at(t0 + 5.0 * q, [&] {
      ctx.dag().submit(Dataset::cogroup(inputs, part), ActionType::kCount, {},
                       [&](const JobResult& r) {
                         metrics.observe_job(r);
                         ++observed;
                       });
    });
  }
  ctx.sim().run();
  const FailureStats& f = ctx.dag().failure_stats();

  EXPECT_EQ(observed, 12);
  EXPECT_EQ(metrics.jobs(), 12);
  // Busy time never exceeds (alive) capacity, and the run did real work.
  const double u =
      MetricsCollector::cluster_utilization(ctx.cluster(), ctx.sim().now());
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0);
  // The chaos window produced observable failure machinery activity.
  EXPECT_GE(chaos.kills(), 1);
  EXPECT_GE(f.heartbeat_detections + f.task_retries + f.fetch_failures, 1);
  // summary() reflects the same counters it prints.
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_NE(s.find("jobs: 12"), std::string::npos);
  EXPECT_NE(s.find("detections: " + std::to_string(f.heartbeat_detections)),
            std::string::npos);
  EXPECT_NE(s.find("retries " + std::to_string(f.task_retries)),
            std::string::npos);
}

TEST(Metrics, ResetClearsFailureSnapshotToo) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.kill_server(1);
  metrics.observe_job(ctx.count(ds));
  ctx.sim().run();  // let the heartbeat grid detection fire
  const FailureStats& f = ctx.dag().failure_stats();
  ASSERT_GE(f.heartbeat_detections, 1);
  const FailureStats before = f;
  // The collector's own failure figure is its aborted-job count, and
  // reset() zeroes it with every other aggregate. The scheduler's failure
  // counters are not the collector's: reset() leaves them alone, and
  // summary(dag) still prints them.
  metrics.reset();
  EXPECT_EQ(metrics.jobs(), 0);
  EXPECT_EQ(metrics.aborted_jobs(), 0);
  EXPECT_EQ(metrics.cache_insertions(), 0);
  EXPECT_EQ(f.heartbeat_detections, before.heartbeat_detections);
  EXPECT_EQ(f.task_failures, before.task_failures);
  EXPECT_EQ(f.task_retries, before.task_retries);
  EXPECT_EQ(f.fetch_failures, before.fetch_failures);
  EXPECT_EQ(f.stage_resubmissions, before.stage_resubmissions);
  EXPECT_EQ(f.executor_exclusions, before.executor_exclusions);
  EXPECT_EQ(f.executor_readmissions, before.executor_readmissions);
  EXPECT_EQ(f.mean_detection_latency(), before.mean_detection_latency());
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_NE(s.find("jobs: 0 (0 aborted)"), std::string::npos);
  EXPECT_NE(s.find("detections: " + std::to_string(f.heartbeat_detections)),
            std::string::npos);
}

TEST(Metrics, SurfacesOverloadCounters) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.overload.admission_enabled = true;
  o.overload.max_in_flight_jobs = 1;
  o.overload.max_pending_jobs = 1;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  // Three synchronous submits against a 1-slot / 1-pending app: the third
  // is rejected at the door.
  for (int i = 0; i < 3; ++i) {
    ctx.dag().submit(ds, ActionType::kCount, {}, [](const JobResult&) {});
  }
  ctx.sim().run();
  const OverloadStats ov = ctx.dag().overload_stats();
  EXPECT_EQ(ov.jobs_admitted, 1);
  EXPECT_EQ(ov.jobs_queued, 1);
  EXPECT_EQ(ov.jobs_rejected, 1);
  EXPECT_EQ(ov.jobs_shed, 0);
  EXPECT_NE(metrics.summary(ctx.dag()).find("rejected 1"), std::string::npos);
  // The counters live in the scheduler, so the collector's reset() does
  // not clear them.
  metrics.reset();
  EXPECT_EQ(ctx.dag().overload_stats().jobs_admitted, 1);
  EXPECT_EQ(ctx.dag().overload_stats().jobs_rejected, 1);
}

TEST(Metrics, PerTenantRollupsAndDelaySpread) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  auto run_as = [&](const std::string& tenant, int jobs) {
    for (int q = 0; q < jobs; ++q) {
      ctx.dag().submit(ds, ActionType::kCount,
                       SubmitOptions{.tenant = tenant},
                       [&](const JobResult& r) { metrics.observe_job(r); });
    }
    ctx.sim().run();
  };
  run_as("a", 2);
  run_as("b", 3);

  const auto& tenants = metrics.per_tenant();
  ASSERT_EQ(tenants.size(), 2u);  // first-observed order
  EXPECT_EQ(tenants[0].tenant, "a");
  EXPECT_EQ(tenants[0].tenant_id, ctx.dag().tenants().find("a"));
  EXPECT_EQ(tenants[0].jobs, 2);
  EXPECT_EQ(tenants[1].tenant, "b");
  EXPECT_EQ(tenants[1].tenant_id, ctx.dag().tenants().find("b"));
  EXPECT_EQ(tenants[1].jobs, 3);
  EXPECT_EQ(tenants[0].aborted, 0);
  EXPECT_GT(tenants[0].delays.mean(), 0.0);
  // Identical jobs on an idle cluster: the per-tenant means are close, so
  // the spread sits near 1 (and is always >= 1 by construction).
  EXPECT_GE(metrics.tenant_delay_spread(), 1.0);
  EXPECT_LT(metrics.tenant_delay_spread(), 1.5);
  // Multi-tenant runs surface the per-tenant block in the summary.
  EXPECT_NE(metrics.summary(ctx.dag()).find("tenants: 2"),
            std::string::npos);

  metrics.reset();
  EXPECT_TRUE(metrics.per_tenant().empty());
  EXPECT_DOUBLE_EQ(metrics.tenant_delay_spread(), 1.0);
}

TEST(Metrics, PerTenantOverloadSnapshots) {
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 4;
  o.overload.admission_enabled = true;
  o.overload.max_in_flight_jobs = 1;
  o.overload.max_pending_jobs = 1;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(8, 256);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  // Tenant "hot" over-submits against its 1-slot / 1-pending queue while
  // "cold" stays within limits; the per-tenant snapshots keep them apart.
  for (int i = 0; i < 3; ++i) {
    ctx.dag().submit(ds, ActionType::kCount, SubmitOptions{.tenant = "hot"},
                     [&](const JobResult& r) { metrics.observe_job(r); });
  }
  ctx.dag().submit(ds, ActionType::kCount, SubmitOptions{.tenant = "cold"},
                   [&](const JobResult& r) { metrics.observe_job(r); });
  ctx.sim().run();

  // Each rollup records its TenantId, which indexes the scheduler's
  // per-tenant counters.
  const auto& per_tenant = ctx.dag().tenant_overload_stats();
  const MetricsCollector::TenantSummary* hot = nullptr;
  const MetricsCollector::TenantSummary* cold = nullptr;
  for (const auto& t : metrics.per_tenant()) {
    if (t.tenant == "hot") hot = &t;
    if (t.tenant == "cold") cold = &t;
  }
  ASSERT_NE(hot, nullptr);
  ASSERT_NE(cold, nullptr);
  ASSERT_LT(static_cast<std::size_t>(hot->tenant_id), per_tenant.size());
  ASSERT_LT(static_cast<std::size_t>(cold->tenant_id), per_tenant.size());
  const OverloadStats& hot_ov = per_tenant[hot->tenant_id];
  const OverloadStats& cold_ov = per_tenant[cold->tenant_id];
  EXPECT_EQ(hot_ov.jobs_rejected, 1);  // third submit bounced
  EXPECT_EQ(cold_ov.jobs_rejected, 0);
  EXPECT_EQ(cold_ov.jobs_admitted, 1);
  // The global view is the per-tenant sum.
  const OverloadStats ov = ctx.dag().overload_stats();
  EXPECT_EQ(ov.jobs_admitted, hot_ov.jobs_admitted + cold_ov.jobs_admitted);
  EXPECT_EQ(ov.jobs_rejected, hot_ov.jobs_rejected + cold_ov.jobs_rejected);
  // The summary's per-tenant block prints the same slots.
  EXPECT_NE(metrics.summary(ctx.dag()).find("shed 0  rejected 1  deadline 0"),
            std::string::npos);
}

TEST(Metrics, SummaryReadsEveryLiveCounterStruct) {
  // One small run with the remote tier, the full cache advisor, slowness
  // scorecards with hedging, verified reads and admission all on. Each
  // summary line must print the struct it reads, as it stands when
  // summary() is called.
  ContextOptions o;
  o.config = ConfigKind::kStarkH;
  o.cluster.num_servers = 2;
  o.cluster.server.ram = 24 * kMiB;  // tiny cache: the second dataset evicts
  o.cluster.remote_memory.enabled = true;
  o.cluster.remote_memory.capacity = 256 * kMiB;
  o.auto_cache.mode = AutoCacheMode::kFull;
  o.faults.slowness.enabled = true;
  o.faults.slowness.hedging = true;
  o.faults.verify_reads = true;
  o.overload.admission_enabled = true;
  Context ctx(o);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(4, 256);
  const auto ingest = [&](const std::string& name) {
    auto ds = ctx.ingest(name, hist(40 * kMiB), part, "logs",
                         {.materialize = false});
    ds->cache(Dataset::StorageLevel::kMemoryAndDisk);
    metrics.observe_job(ctx.count(ds));
    return ds;
  };
  const DatasetPtr a = ingest("a");
  const DatasetPtr b = ingest("b");  // demotes a's blocks into the pool
  // One injected corruption on a pool copy of `a`; a verified read
  // catches it.
  BlockId victim{kInvalidId, -1};
  for (const BlockId& id : ctx.cluster().remote_blocks()) {
    if (id.dataset == a->id()) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim.dataset, kInvalidId);
  ASSERT_TRUE(ctx.corrupt_block(MemoryTier::kRemote, kInvalidId, victim));
  for (int q = 0; q < 2; ++q) {
    metrics.observe_job(ctx.count(a));
    metrics.observe_job(ctx.count(b));
  }
  ctx.sim().run();

  const CacheStats& c = ctx.dag().cache_stats();
  const RemoteMemoryStats& rm = ctx.cluster().remote_stats();
  const FailureStats& f = ctx.dag().failure_stats();
  const OverloadStats ov = ctx.dag().overload_stats();
  const SlownessStats& sl = ctx.dag().slowness_stats();
  const AutoCacheStats& ac = ctx.dag().auto_cache_stats();
  EXPECT_GT(c.hits, 0);
  EXPECT_GT(c.misses, 0);
  EXPECT_GT(rm.demotions_in, 0);
  EXPECT_EQ(f.corruptions_injected, 1);
  EXPECT_GE(f.corruptions_detected, 1);
  EXPECT_EQ(ov.jobs_admitted, 6);

  const auto n = [](auto v) { return std::to_string(v); };
  const std::string s = metrics.summary(ctx.dag());
  EXPECT_EQ(line_of(s, "policy:"),
            "policy: lru  probes: " + n(c.hits) + " hit / " + n(c.misses) +
                " miss  recomputed: " + n(c.recomputes) + " (" +
                format_bytes(c.bytes_recomputed) + ")  avoided: " + n(c.hits));
  EXPECT_EQ(line_of(s, "remote tier:"),
            "remote tier: hits " + n(c.remote_hits) + "  fault-backs " +
                n(c.fault_backs) + "  demotions " + n(rm.demotions_in) +
                " (" + format_bytes(rm.bytes_demoted_in) +
                ")  evicted-to-disk " + n(rm.evictions_to_disk) +
                "  dropped-dead-origin " + n(rm.dropped_dead_origin));
  EXPECT_EQ(line_of(s, "integrity:"),
            "integrity: injected " + n(f.corruptions_injected) +
                "  detected " + n(f.corruptions_detected) + "  repaired " +
                n(f.corruptions_repaired) + "  undetected reads " +
                n(f.corrupt_reads_undetected) + "  reverified " +
                format_bytes(f.bytes_reverified));
  EXPECT_EQ(line_of(s, "overload:"),
            "overload: admitted " + n(ov.jobs_admitted) + "  queued " +
                n(ov.jobs_queued) + "  rejected " + n(ov.jobs_rejected) +
                "  shed " + n(ov.jobs_shed) + "  deadline " +
                n(ov.deadline_exceeded) + "  pressure transitions " +
                n(ov.pressure_transitions) + " (red " + n(ov.red_entries) +
                ")");
  EXPECT_EQ(line_of(s, "slowness:"),
            "slowness: peers " + n(sl.suspect_peers) + " suspect / " +
                n(sl.degraded_peers) + " degraded (recoveries " +
                n(sl.recoveries) + ")  hedges " + n(sl.hedges_issued) + " (" +
                n(sl.hedges_won) + " won, " + n(sl.hedges_budget_denied) +
                " denied)  hedge bytes " +
                format_bytes(sl.hedge_bytes_issued) + " (" +
                format_bytes(sl.hedge_bytes_wasted) +
                " wasted)  timeout adaptations " +
                n(sl.timeout_adaptations) + "  probes " +
                n(sl.placement_probes));
  EXPECT_EQ(line_of(s, "advisor:"),
            "advisor: auto-caches " + n(ac.auto_caches) + " (" +
                format_bytes(ac.bytes_promoted) + ")  auto-frees " +
                n(ac.auto_frees) + " (" + format_bytes(ac.bytes_freed) +
                ")  deferred " + n(ac.frees_deferred) + "  protected " +
                n(ac.frees_protected) + "  reads sampled " +
                n(ac.reads_sampled));
}

}  // namespace
}  // namespace stark
