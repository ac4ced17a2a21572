// stark::Context — the umbrella entry point of the library.
//
// Owns the simulation clock, the cluster, the Stark managers, the DAG
// scheduler and the tracing subsystem, pre-wired for one of the paper's
// five evaluation configurations. Typical use (see examples/quickstart.cpp):
//
//   stark::ContextOptions opts;
//   opts.config = stark::ConfigKind::kStarkH;
//   stark::Context ctx(opts);
//   auto part = ctx.collection_partitioner(8, /*domain=*/4096);
//   auto a = ctx.ingest("hour0", gen.hourly_histogram(0), part, "logs");
//   auto b = ctx.ingest("hour1", gen.hourly_histogram(1), part, "logs");
//   auto cg = stark::Dataset::cogroup({a, b}, part);
//   auto r = ctx.count(cg);   // r.delay is the simulated job makespan
#pragma once

#include <memory>
#include <string>

#include "api/configs.h"
#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "cluster/failure_detector.h"
#include "obs/tracer.h"
#include "sched/dag_scheduler.h"
#include "sim/simulation.h"
#include "stark/checkpoint_optimizer.h"
#include "stark/group_manager.h"
#include "stark/locality_manager.h"

namespace stark {

// Everything a Context is built from. Defaults reproduce the paper's
// Stark-H configuration on an 8-server cluster; validate() is the single
// gate for consistency (the constructor refuses inconsistent options).
struct ContextOptions {
  // Which of the paper's five evaluation configurations to run; selects
  // partitioner policy, co-locality, grouping, MCF and recompute
  // replication in one knob (see api/configs.h).
  ConfigKind config = ConfigKind::kStarkH;
  // Cluster topology and per-server resources. cluster.cache selects the
  // block stores' eviction policy (LRU / LRC / cost-size) and pinning —
  // see cluster/eviction_policy.h; the DAG scheduler's planner reads the
  // same settings from the Cluster, so lineage refcounts and recompute-cost
  // estimates flow to the stores that need them.
  ClusterConfig cluster;
  // Calibrated cpu/net/disk/GC timing model (docs/COST_MODEL.md).
  CostModel cost;
  // Seconds a task waits for a node-local slot before accepting a remote
  // one (spark.locality.wait).
  double locality_wait = 3.0;
  bool speculation = false;  // straggler task copies (spark.speculation)
  GroupConfig groups;  // bounds/window for extendable namespaces
  // Keep per-task TaskMetrics in every JobResult. Stage-level breakdowns
  // are always on; turn this off for giant sweeps to save memory.
  bool detail_task_metrics = true;
  // Heartbeat detection, task retries, stage resubmission and exclusion
  // knobs (see sched/task.h and docs/FAULT_MODEL.md).
  FaultOptions faults;
  // Overload protection: driver-side admission control, whole-job
  // deadlines and the memory-pressure feedback loop (sched/admission.h,
  // cluster/memory_pressure.h, docs/FAULT_MODEL.md). Everything defaults
  // off; simulated timelines are then byte-identical to a build without
  // the overload layer.
  OverloadOptions overload;
  // Multi-tenant cluster sharing: named tenants with fair-share weights,
  // cache quotas and per-tenant admission limits (sched/tenant.h,
  // docs/MULTITENANCY.md). Empty (the default) = single anonymous tenant;
  // timelines are then byte-identical to a build without the tenant layer.
  // Tenants with cache_quota > 0 are mirrored into
  // cluster.cache.tenant_quota_fractions at construction.
  MultiTenantOptions tenants;
  // Automatic lifetime-based cache management (sched/cache_advisor.h,
  // docs/CACHING.md): the scheduler auto-frees dead cached datasets after
  // their last consuming stage and, under AutoCacheMode::kFull, auto-caches
  // reuse-ranked intermediates under a RAM budget. Defaults to kManual
  // (no advisor constructed); timelines are then byte-identical to a build
  // without the advisor.
  AutoCacheOptions auto_cache;
  // Structured tracing (see obs/tracer.h and docs/OBSERVABILITY.md).
  // Disabled by default: the engine pays one pointer test per choke point
  // and simulated timelines are bit-identical either way.
  obs::TraceOptions trace;
  // Master seed for every engine-internal random draw. Same options + same
  // seed => byte-identical simulated timelines (scripts/bit_identity.sh).
  std::uint64_t seed = 7;

  // Rejects inconsistent options (negative waits, empty clusters, fault
  // knobs that could never fire) with std::invalid_argument. Context's
  // constructor calls this before touching any subsystem.
  void validate() const;
};

// Named knobs for Context::ingest (replaces the old trailing
// `int source_splits, bool materialize` positional flags).
struct IngestOptions {
  // Splits of the raw source the ingestion reads from.
  int source_splits = 4;
  // Run the ingestion job now so the partitions are materialized in RAM;
  // false builds the lineage lazily (first action pays the load).
  bool materialize = true;
};

class Context {
 public:
  // Validates the options (throws std::invalid_argument) and wires every
  // subsystem: cluster, managers, scheduler, tracer, failure detector.
  explicit Context(ContextOptions options);
  // Owns live subsystems with back-references; neither copyable nor
  // movable.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // Direct access to the wired subsystems, for tests, benches and advanced
  // callers (e.g. StreamContext takes dag() + groups()). The Context stays
  // the owner; never keep these past its lifetime.
  sim::Simulation& sim() noexcept { return sim_; }
  Cluster& cluster() noexcept { return cluster_; }
  LocalityManager& locality() noexcept { return locality_; }
  GroupManager& groups() noexcept { return groups_; }
  DagScheduler& dag() noexcept { return *dag_; }
  // The resolved per-configuration switches (derived from options().config).
  const RunConfig& run_config() const noexcept { return run_config_; }
  // The validated options this context was built from.
  const ContextOptions& options() const noexcept { return options_; }

  // The tracing front end. Always constructed; enabled per
  // ContextOptions::trace (or set_enabled at runtime). Sinks configured
  // from TraceOptions are reachable via tracer().sink<T>().
  obs::Tracer& tracer() noexcept { return *tracer_; }
  const obs::Tracer& tracer() const noexcept { return *tracer_; }

  // The partitioner shared across the dataset collection (hash or static
  // range depending on the configuration). For Spark-R this returns a fresh
  // per-call RangePartitioner instead — pass the dataset's histogram.
  PartitionerPtr collection_partitioner(int num_partitions, Key domain_size);
  // Like collection_partitioner, but range-based modes sample `hist` to
  // place their bounds (Spark-R draws a fresh RangePartitioner per call).
  PartitionerPtr partitioner_for(const KeyHistogram& hist, int num_partitions,
                                 Key domain_size);

  // Loads one dataset of a collection: source -> localityPartitionBy(ns) ->
  // cache, registers the namespace with the configured grouping, reports
  // the RDD to the GroupManager, and (by default) runs the ingestion job so
  // the partitions are materialized in RAM.
  DatasetPtr ingest(const std::string& name, KeyHistogram hist,
                    const PartitionerPtr& part, const std::string& ns,
                    IngestOptions opts = {});

  // Runs an action synchronously: submits the job, advances the simulation
  // until it finishes, and returns the result (JobResult::completed is
  // false if the failure machinery exhausted its retries). count(ds) is
  // run_action(ds, ActionType::kCount). For asynchronous submission use
  // dag().submit with a JobCallback.
  JobResult count(const DatasetPtr& ds);
  JobResult run_action(const DatasetPtr& ds, ActionType action);

  // --- failure injection ---------------------------------------------------
  // All four calls are idempotent (repeating one is a no-op, returning
  // false) and go through the heartbeat FailureDetector: the driver reacts
  // only once the loss is *detected*, not at the instant of the physical
  // event. The return value says whether the cluster state changed.
  //
  // Crash-stop: the server dies, its cache and map outputs are gone.
  bool kill_server(ServerId s);
  // Brings a dead server back as a fresh incarnation (empty cache, full
  // cores). The registration declares the old incarnation lost immediately
  // if the heartbeat timeout had not already.
  bool restart_server(ServerId s);
  // Network partition: the server keeps computing but can't exchange
  // heartbeats, results or shuffle data; its blocks survive.
  bool partition_server(ServerId s);
  // Heals a partition. If it heals before the heartbeat timeout, the driver
  // never noticed; task results that finished behind the partition are
  // delivered now.
  bool heal_server(ServerId s);

  // --- integrity-fault injection -------------------------------------------
  // Flip the checksum tag on one stored copy: a block copy in one tier (a
  // cached replica on `s`, the cluster-wide remote-pool copy — `s` is then
  // ignored — or a MEMORY_AND_DISK copy spilled on `s`), or a shuffle
  // map-output unit. Returns false if no live copy exists. With
  // ContextOptions::faults.verify_reads the next verified read detects the
  // mismatch and recovers (drop + lineage recompute, or FetchFailed +
  // map-stage resubmission); without it the corrupt copy is served
  // silently and counted in FailureStats::corrupt_reads_undetected.
  bool corrupt_block(MemoryTier tier, ServerId s, const BlockId& id);
  bool corrupt_shuffle_output(const ShuffleKey& key, int unit);

  // The heartbeat failure detector mediating every injected fault above.
  FailureDetector& detector() noexcept { return *detector_; }

  // The memory-pressure monitor feeding admission backpressure; null
  // unless ContextOptions::overload.pressure.enabled.
  MemoryPressureMonitor* pressure_monitor() noexcept {
    return pressure_.get();
  }

  // A checkpoint optimizer wired to this context's cost model and
  // checkpoint registry.
  CheckpointOptimizer make_checkpoint_optimizer(double recovery_bound,
                                                double relax_factor = 1.0);
  EdgeCheckpointer make_edge_checkpointer(double recovery_bound);

 private:
  ContextOptions options_;
  RunConfig run_config_;
  sim::Simulation sim_;
  Cluster cluster_;
  LocalityManager locality_;
  GroupManager groups_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<DagScheduler> dag_;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<MemoryPressureMonitor> pressure_;
  PartitionerPtr shared_partitioner_;
  std::uint64_t sample_counter_ = 0;
};

}  // namespace stark
