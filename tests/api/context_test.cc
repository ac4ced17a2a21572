#include "api/stark.h"

#include <gtest/gtest.h>

#include <memory>

#include "trace/wiki.h"

namespace stark {
namespace {

KeyHistogram hist(Bytes total = 64 * kMiB) {
  trace::WikiTraceGen::Config c;
  c.num_urls = 512;
  return trace::WikiTraceGen(c).histogram(total, 0.9);
}

ContextOptions opts(ConfigKind kind) {
  ContextOptions o;
  o.config = kind;
  o.cluster.num_servers = 4;
  return o;
}

TEST(RunConfigs, FlagsMatchPaperTable) {
  const auto spark_r = run_config(ConfigKind::kSparkR);
  EXPECT_EQ(spark_r.partitioner_mode, PartitionerMode::kPerRddRange);
  EXPECT_FALSE(spark_r.colocate);
  EXPECT_FALSE(spark_r.grouped);

  const auto spark_h = run_config(ConfigKind::kSparkH);
  EXPECT_EQ(spark_h.partitioner_mode, PartitionerMode::kSharedHash);
  EXPECT_FALSE(spark_h.colocate);

  const auto stark_h = run_config(ConfigKind::kStarkH);
  EXPECT_EQ(stark_h.partitioner_mode, PartitionerMode::kSharedHash);
  EXPECT_TRUE(stark_h.colocate);
  EXPECT_FALSE(stark_h.grouped);

  const auto stark_s = run_config(ConfigKind::kStarkS);
  EXPECT_EQ(stark_s.partitioner_mode, PartitionerMode::kSharedStaticRange);
  EXPECT_TRUE(stark_s.colocate);
  EXPECT_TRUE(stark_s.grouped);
  EXPECT_FALSE(stark_s.extendable);

  const auto stark_e = run_config(ConfigKind::kStarkE);
  EXPECT_TRUE(stark_e.colocate);
  EXPECT_TRUE(stark_e.grouped);
  EXPECT_TRUE(stark_e.extendable);
  EXPECT_TRUE(stark_e.mcf);
}

TEST(RunConfigs, Names) {
  EXPECT_STREQ(config_name(ConfigKind::kSparkR), "Spark-R");
  EXPECT_STREQ(config_name(ConfigKind::kStarkE), "Stark-E");
}

TEST(Context, SharedPartitionerIsStable) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto p1 = ctx.collection_partitioner(8, 512);
  auto p2 = ctx.collection_partitioner(8, 512);
  EXPECT_EQ(p1, p2);  // same object, not merely equal
}

TEST(Context, SparkRHasNoSharedPartitioner) {
  Context ctx(opts(ConfigKind::kSparkR));
  EXPECT_THROW(ctx.collection_partitioner(8, 512), std::logic_error);
}

TEST(Context, PartitionerForSparkRNeverEqual) {
  Context ctx(opts(ConfigKind::kSparkR));
  const auto h = hist();
  auto p1 = ctx.partitioner_for(h, 8, 512);
  auto p2 = ctx.partitioner_for(h, 8, 512);
  // Randomized sampling: even identical data gives different bounds.
  EXPECT_FALSE(p1->equals(*p2));
}

TEST(Context, PartitionerForSharedModesReturnsShared) {
  Context ctx(opts(ConfigKind::kStarkS));
  const auto h = hist();
  auto p1 = ctx.partitioner_for(h, 8, 512);
  auto p2 = ctx.partitioner_for(h, 8, 512);
  EXPECT_TRUE(p1->equals(*p2));
}

TEST(Context, IngestMaterializesAndCaches) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  EXPECT_TRUE(ds->cache_requested());
  EXPECT_EQ(ds->ns(), "logs");
  for (int p = 0; p < 8; ++p) {
    EXPECT_TRUE(ctx.cluster().cached_anywhere({ds->id(), p}));
  }
  EXPECT_GT(ctx.sim().now(), 0.0);  // the ingestion job consumed time
}

TEST(Context, IngestLazyDoesNotRunJob) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
  EXPECT_FALSE(ctx.cluster().cached_anywhere({ds->id(), 0}));
  EXPECT_DOUBLE_EQ(ctx.sim().now(), 0.0);
}

TEST(Context, ShuffledDatasetDiesWithItsLastHandle) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  std::weak_ptr<Dataset> weak;
  {
    // A lazy ingest is a shuffle (partition_by over the raw source); the
    // count builds and completes its map stage.
    auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
    weak = ds;
    ASSERT_TRUE(ctx.count(ds).completed);
  }
  // No scheduler state outlives the jobs that read the shuffle.
  EXPECT_TRUE(weak.expired());
}

TEST(Context, IngestRejectsBadSourceSplits) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  EXPECT_THROW(ctx.ingest("d", hist(), part, "logs", {.source_splits = 0}),
               std::invalid_argument);
}

TEST(Context, IngestUnderStockSparkDropsNamespace) {
  Context ctx(opts(ConfigKind::kSparkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  EXPECT_TRUE(ds->ns().empty());  // no locality management in stock Spark
  EXPECT_FALSE(ctx.locality().has("logs"));
}

TEST(Context, StarkERegistersExtendableNamespace) {
  ContextOptions o = opts(ConfigKind::kStarkE);
  o.groups.initial_groups = 4;
  Context ctx(o);
  auto part = ctx.collection_partitioner(16, 512);
  ctx.ingest("d", hist(), part, "logs");
  EXPECT_TRUE(ctx.groups().extendable("logs"));
  ASSERT_NE(ctx.groups().tree("logs"), nullptr);
}

TEST(Context, StarkSRegistersStaticGroups) {
  ContextOptions o = opts(ConfigKind::kStarkS);
  o.groups.initial_groups = 4;
  Context ctx(o);
  auto part = ctx.collection_partitioner(16, 512);
  ctx.ingest("d", hist(), part, "logs");
  EXPECT_FALSE(ctx.groups().extendable("logs"));
  ASSERT_NE(ctx.groups().tree("logs"), nullptr);  // grouped, just static
  EXPECT_EQ(ctx.groups().tree("logs")->num_groups(), 4);
}

TEST(Context, KillServerKeepsClusterUsable) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  ctx.kill_server(1);
  EXPECT_FALSE(ctx.cluster().server(1).alive());
  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed);
}

TEST(Context, CheckpointOptimizerFactoryWiresRegistry) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  auto opt = ctx.make_checkpoint_optimizer(100.0);
  auto child = ds->map({});
  EXPECT_GT(opt.longest_uncheckpointed_delay(child), 0.0);
  ctx.dag().checkpoint_now(child);
  EXPECT_DOUBLE_EQ(opt.longest_uncheckpointed_delay(child), 0.0);
}

TEST(Context, CountReturnsDelayAndMetrics) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  const auto r = ctx.count(ds);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.delay, 0.0);
  EXPECT_EQ(r.num_tasks, 8);
  // All from cache: the ingest already materialized the partitions.
  EXPECT_GT(r.bytes_from_cache, 0.0);
}

TEST(Context, ResultCarriesStageBreakdown) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs");
  const auto r = ctx.count(ds);
  ASSERT_EQ(r.stages.size(), 1u);  // cached scan: one result stage
  const StageBreakdown& s = r.stages.front();
  EXPECT_FALSE(s.shuffle_map);
  EXPECT_EQ(s.num_tasks, 8);
  EXPECT_GT(s.compute, 0.0);
  EXPECT_GE(s.sched_delay, 0.0);
  EXPECT_GT(s.bytes_from_cache, 0.0);
  EXPECT_GT(s.last_finish, s.first_launch);
  EXPECT_GE(s.max_task_duration, 0.0);
  // Phase totals are consistent with the job-level aggregates.
  EXPECT_NEAR(s.compute + s.deserialize, r.total_cpu, 1e-9);
}

TEST(Context, MultiStageJobReportsEveryStage) {
  Context ctx(opts(ConfigKind::kStarkH));
  auto part = ctx.collection_partitioner(8, 512);
  auto ds = ctx.ingest("d", hist(), part, "logs",
                       IngestOptions{.materialize = false});
  // A different partitioner forces a shuffle: map stage + result stage.
  auto reduced = ds->reduce_by_key(std::make_shared<HashPartitioner>(4));
  const auto r = ctx.count(reduced);
  ASSERT_TRUE(r.completed);
  // The lazy ingest repartitions the source into the collection layout, so
  // the job runs source-scan map -> collection map -> result: every stage
  // must be reported, ordered by stage id.
  ASSERT_EQ(r.stages.size(), static_cast<std::size_t>(r.num_stages));
  ASSERT_GE(r.stages.size(), 2u);
  for (std::size_t i = 0; i + 1 < r.stages.size(); ++i) {
    EXPECT_LT(r.stages[i].stage, r.stages[i + 1].stage);  // sorted, unique
  }
  // Exactly one result stage; it read its input over the shuffle.
  int result_stages = 0;
  for (const auto& s : r.stages) {
    if (!s.shuffle_map) {
      ++result_stages;
      EXPECT_GT(s.shuffle_read, 0.0);
    }
  }
  EXPECT_EQ(result_stages, 1);
  int total = 0;
  for (const auto& s : r.stages) total += s.num_tasks;
  EXPECT_EQ(total, r.num_tasks);
}

// --- ContextOptions::validate ----------------------------------------------

ContextOptions valid() { return opts(ConfigKind::kStarkH); }

TEST(ContextOptionsValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(valid().validate());
}

TEST(ContextOptionsValidate, RejectsEmptyCluster) {
  ContextOptions o = valid();
  o.cluster.num_servers = 0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsZeroCores) {
  ContextOptions o = valid();
  o.cluster.server.cores = 0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsNegativeRam) {
  ContextOptions o = valid();
  o.cluster.server.ram = -1.0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsStorageFractionOutOfRange) {
  ContextOptions o = valid();
  o.cluster.server.storage_fraction = 1.5;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsNegativeLocalityWait) {
  ContextOptions o = valid();
  o.locality_wait = -0.5;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsInvertedHeartbeatTimes) {
  ContextOptions o = valid();
  o.faults.heartbeat_interval = 5.0;
  o.faults.heartbeat_timeout = 1.0;  // would never detect on the grid
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsZeroTaskFailureBudget) {
  ContextOptions o = valid();
  o.faults.max_task_failures = 0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsInvertedBackoffBounds) {
  ContextOptions o = valid();
  o.faults.retry_backoff = 4.0;
  o.faults.retry_backoff_max = 1.0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsBadExclusionKnobsOnlyWhenEnabled) {
  ContextOptions o = valid();
  o.faults.max_failures_per_executor = 0;
  o.faults.exclude_on_failure = true;
  EXPECT_THROW(Context{o}, std::invalid_argument);
  o.faults.exclude_on_failure = false;  // knob is dormant: accepted
  EXPECT_NO_THROW(o.validate());
}

TEST(ContextOptionsValidate, RejectsNegativeDeadline) {
  ContextOptions o = valid();
  o.overload.deadline_seconds = -1.0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsBadAdmissionBoundsOnlyWhenEnabled) {
  ContextOptions o = valid();
  o.overload.max_in_flight_jobs = 0;
  o.overload.admission_enabled = true;
  EXPECT_THROW(Context{o}, std::invalid_argument);
  o.overload.admission_enabled = false;  // knob is dormant: accepted
  EXPECT_NO_THROW(o.validate());
}

TEST(ContextOptionsValidate, RejectsZeroPendingQueueUnlessBlocking) {
  ContextOptions o = valid();
  o.overload.admission_enabled = true;
  o.overload.max_pending_jobs = 0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
  // kBlock ignores the pending bound; 0 is then harmless.
  o.overload.policy = AdmissionPolicy::kBlock;
  EXPECT_NO_THROW(o.validate());
}

TEST(ContextOptionsValidate, RejectsIntakeFactorsOutsideUnitInterval) {
  ContextOptions o = valid();
  o.overload.admission_enabled = true;
  o.overload.yellow_intake_factor = 0.0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
  o.overload.yellow_intake_factor = 1.0;
  o.overload.red_intake_factor = 1.5;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsUnorderedPressureThresholds) {
  ContextOptions o = valid();
  o.overload.pressure.enabled = true;
  o.overload.pressure.yellow_utilization = 0.9;
  o.overload.pressure.red_utilization = 0.8;  // yellow must be below red
  EXPECT_THROW(Context{o}, std::invalid_argument);
  o.overload.pressure.yellow_utilization = 0.7;
  o.overload.pressure.red_utilization = 1.2;  // red must be <= 1
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, RejectsBadPressureWindowAndHysteresis) {
  ContextOptions o = valid();
  o.overload.pressure.enabled = true;
  o.overload.pressure.hysteresis = 0.8;  // >= yellow: bands could not clear
  EXPECT_THROW(Context{o}, std::invalid_argument);
  o = valid();
  o.overload.pressure.enabled = true;
  o.overload.pressure.eviction_window = 0.0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
  o = valid();
  o.overload.pressure.enabled = true;
  o.overload.pressure.red_evictions_per_second = 0.0;
  EXPECT_THROW(Context{o}, std::invalid_argument);
  // Dormant pressure knobs are accepted, PR2-style.
  o.overload.pressure.enabled = false;
  EXPECT_NO_THROW(o.validate());
}

TEST(ContextOptionsValidate, RejectsTracingWithNoSink) {
  ContextOptions o = valid();
  o.trace.enabled = true;
  o.trace.ring_capacity = 0;
  o.trace.aggregate = false;
  EXPECT_THROW(Context{o}, std::invalid_argument);
}

TEST(ContextOptionsValidate, MessageNamesTheField) {
  ContextOptions o = valid();
  o.locality_wait = -1.0;
  try {
    o.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("locality_wait"), std::string::npos);
  }
}

// --- ChaosInjector::Config validation --------------------------------------

TEST(ChaosConfigValidate, RejectsMinAliveAboveClusterSize) {
  Context ctx(opts(ConfigKind::kStarkH));  // 4 servers
  EXPECT_THROW(ChaosInjector(ctx, {.min_alive = 5}), std::invalid_argument);
  EXPECT_NO_THROW(ChaosInjector(ctx, {.min_alive = 4}));
}

TEST(ChaosConfigValidate, RejectsBadRatesAndProbabilities) {
  Context ctx(opts(ConfigKind::kStarkH));
  EXPECT_THROW(ChaosInjector(ctx, {.failures_per_hour = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(ChaosInjector(ctx, {.flaky_task_probability = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(ChaosInjector(ctx, {.mean_repair_seconds = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(ChaosInjector(ctx, {.slow_cpu_factor = 0.5}),
               std::invalid_argument);
}

TEST(ChaosConfigValidate, RejectsBadOverloadBurstConfig) {
  Context ctx(opts(ConfigKind::kStarkH));
  EXPECT_THROW(ChaosInjector(ctx, {.overload_bursts_per_hour = -1.0}),
               std::invalid_argument);
  // A positive burst rate needs a job factory to generate load with.
  EXPECT_THROW(ChaosInjector(ctx, {.overload_bursts_per_hour = 1.0}),
               std::invalid_argument);
  auto part = ctx.collection_partitioner(4, 64);
  auto ds = ctx.ingest("d", hist(4 * kMiB), part, "logs");
  EXPECT_THROW(ChaosInjector(ctx, {.overload_bursts_per_hour = 1.0,
                                   .overload_burst_jobs = 0,
                                   .overload_job_factory = [ds] { return ds; }}),
               std::invalid_argument);
  EXPECT_NO_THROW(
      ChaosInjector(ctx, {.overload_bursts_per_hour = 1.0,
                          .overload_job_factory = [ds] { return ds; }}));
}

}  // namespace
}  // namespace stark
