// DagScheduler: jobs -> stages -> task sets, with Spark's recompute
// semantics.
//
// Key fidelity points (paper §II-B):
//  * Stages are cut at shuffle boundaries; shuffle map outputs persist and
//    are reused by later jobs, so a reused shuffle needs no new map stage.
//  * When a task runs on an executor that lacks its cached parent
//    partitions, it does NOT fetch remote cached blocks — it recomputes the
//    whole narrow chain from the stage origin (shuffle fetch / source read /
//    checkpoint read). This is the co-locality penalty Stark removes.
//  * Datasets marked cache() materialize on whichever executor computed
//    them, which is how delay scheduling grows replicas of hot collection
//    partitions.
//
// Failure semantics (MapOutputTracker + DAGScheduler resubmission):
//  * Map-output locations are tracked per shuffle. Losing an executor
//    invalidates the map outputs it hosted; reduce tasks that try to fetch
//    them raise FetchFailed, the reduce task parks, and the map stage is
//    resubmitted for just the lost units (bounded by max_stage_attempts).
//  * Exhausted task retries or stage attempts abort the job cleanly:
//    JobResult.completed=false with a failure_reason, callbacks still fire,
//    and any map stage another job was waiting on is re-homed so the other
//    job does not hang.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "obs/tracer.h"
#include "sched/admission.h"
#include "sched/cache_advisor.h"
#include "sched/stage.h"
#include "sched/task.h"
#include "sched/tenant.h"
#include "sched/task_scheduler.h"
#include "sim/simulation.h"
#include "stark/group_manager.h"
#include "stark/locality_manager.h"

namespace stark {

struct DagOptions {
  // Consult LocalityManager homes as preferred locations (Stark configs).
  bool use_locality_homes = false;
  bool mcf = false;
  double locality_wait = 3.0;
  // Straggler mitigation via task copies (spark.speculation).
  bool speculation = false;
  // Whether ancestor partitions recomputed along a task's narrow chain are
  // registered as lasting cached replicas. Stark tracks them (its
  // LocalityManager bookkeeping turns hotspot recomputes into replicas,
  // §III-B/C3). Stock Spark, per the paper's §II-B premise, avoids "the
  // complexity and overhead of keeping track of all cached and evicted
  // data across the entire cluster" — recomputes stay transient, so the
  // co-locality penalty recurs on every job (Fig 2/3, Fig 11).
  bool replicate_on_recompute = true;
  // Keep per-task metrics inside JobResult (disable for huge sweeps).
  bool detail_task_metrics = true;
  // Retry / exclusion / resubmission knobs, shared with the TaskScheduler.
  FaultOptions faults;
  // Overload protection: admission control, job deadlines and
  // pressure-scaled intake (sched/admission.h). Mirrored from
  // ContextOptions::overload by api::Context; all defaults off.
  OverloadOptions overload;
  // Multi-tenant configuration: fair-share scheduling, per-tenant weights,
  // cache quotas and admission overrides (sched/tenant.h). Mirrored from
  // ContextOptions::tenants by api::Context; the default (no tenants,
  // fair_share off) is byte-identical to a single-tenant build.
  MultiTenantOptions tenants;
  // Automatic lifetime-based cache management (sched/cache_advisor.h):
  // last-use auto-free and reuse-ranked auto-cache promotion. Mirrored
  // from ContextOptions::auto_cache by api::Context; the default kManual
  // constructs no advisor and is byte-identical.
  AutoCacheOptions auto_cache;
};

// Cache-policy effectiveness counters, accumulated by the task planner's
// cache probes. Only cache-requested datasets count — uncached
// intermediates are expected to recompute. `hits` are recomputes avoided;
// under memory pressure the `bytes_recomputed` delta between eviction
// policies is the headline ablation number (bench_ablation_cache_policy).
struct CacheStats {
  long long hits = 0;       // probes served from executor RAM
  long long misses = 0;     // probes that found no usable replica
  long long recomputes = 0; // misses that fell through to lineage recompute
  // Remote-memory tier (cluster/remote_memory.h); all zero with it off.
  long long remote_hits = 0;  // RAM misses served from the remote pool
  long long fault_backs = 0;  // lower-tier hits promoted back into RAM
  Bytes bytes_from_cache = 0.0;  // logical bytes served by hits
  Bytes bytes_from_remote = 0.0;  // stored bytes served by remote hits
  Bytes bytes_recomputed = 0.0;  // logical bytes rebuilt via lineage
  // All-dataset recompute accounting (the auto-cache advisor's headline):
  // unlike `recomputes`/`bytes_recomputed` above, these also count
  // intermediates nobody asked to cache — exactly the work auto-caching
  // can remove. Source reads are loads, not recomputes, and are excluded.
  long long recomputes_all = 0;
  Bytes bytes_recomputed_all = 0.0;
};

class DagScheduler {
 public:
  DagScheduler(sim::Simulation& sim, Cluster& cluster, const CostModel& cost,
               LocalityManager& locality, GroupManager& groups,
               DagOptions options);

  // Asynchronous submission; cb fires when the job completes — including
  // jobs the overload layer refuses (JobStatus::kRejected / kShed, whose
  // callbacks fire synchronously inside submit) and jobs cancelled by
  // their deadline (kDeadlineExceeded). `opts` selects the tenant the job
  // runs as, its admission lane/priority and a per-job deadline; the
  // default SubmitOptions reproduce the historical bare submit exactly.
  JobId submit(DatasetPtr final, ActionType action, SubmitOptions opts = {},
               JobCallback cb = {});

  // Submit and run the simulation until this job completes.
  JobResult run_job(DatasetPtr final, ActionType action = ActionType::kCount);

  bool job_done(JobId id) const;
  const JobResult& result(JobId id) const;
  int jobs_completed() const noexcept { return jobs_completed_; }
  // Jobs submitted but not yet finished or aborted (0 once a run drains).
  int active_jobs() const noexcept { return static_cast<int>(jobs_.size()); }

  // --- checkpointing -------------------------------------------------------
  // Persists the dataset now (forceCheckpoint, paper §III-E): records the
  // serialized size and anchors future recovery at this dataset.
  void checkpoint_now(const DatasetPtr& ds);
  bool is_checkpointed(DatasetId id) const noexcept;
  Bytes total_checkpoint_bytes() const noexcept { return checkpoint_bytes_; }
  // c(v): what checkpointing would write for this dataset.
  Bytes checkpoint_cost(const Dataset& ds) const;
  // d(v): recovery delay of recomputing this one dataset (max across
  // partitions), inputs assumed available.
  double recompute_delay(const Dataset& ds) const;

  // Estimated failure-recovery delay for a dataset: longest recompute chain
  // from checkpoint/shuffle/source anchors (used by tests and benches).
  double estimate_recovery_delay(const DatasetPtr& ds) const;

  // Total bytes written as shuffle map outputs so far.
  Bytes total_shuffle_bytes_written() const noexcept { return shuffle_bytes_; }

  // Failure oracle used by tests: kill the server physically AND tell the
  // driver immediately (zero detection latency). The production path goes
  // through the FailureDetector, which calls on_executor_lost() only after
  // the heartbeat timeout.
  void handle_server_failure(ServerId s);

  // The driver declared this executor lost (heartbeat timeout, or a new
  // incarnation registered). Requeues its tasks, drops its locality homes
  // and invalidates the shuffle map outputs it hosted.
  void on_executor_lost(ServerId s, double detection_latency);

  // Cumulative failure-machinery counters, held by the TaskScheduler (it
  // counts the task-side events, this class the driver-side ones).
  const FailureStats& failure_stats() const noexcept { return stats_; }

  // Cumulative cache-probe counters (read by MetricsCollector::summary and
  // the cache-policy ablation bench).
  const CacheStats& cache_stats() const noexcept { return cache_stats_; }

  // --- overload protection --------------------------------------------------
  // Cumulative admission/deadline/pressure counters: the per-tenant job
  // counters summed in TenantId order, plus the global pressure counters.
  OverloadStats overload_stats() const noexcept;
  // Memory-pressure source, polled on every submit and job completion.
  // Null (the default) reads as permanently Green. api::Context wires it
  // to a MemoryPressureMonitor when overload.pressure.enabled.
  void set_pressure_fn(std::function<PressureBand()> fn) {
    pressure_fn_ = std::move(fn);
  }
  // Band as of the last poll (Green before the first).
  PressureBand pressure_band() const noexcept { return last_band_; }
  // Admission introspection for tests and benches.
  const AdmissionController& admission() const noexcept { return admission_; }

  // --- multi-tenancy --------------------------------------------------------
  // Name <-> id mapping and per-tenant options (configured + auto-registered).
  const TenantRegistry& tenants() const noexcept { return tenants_; }
  // Per-tenant overload counters, indexed by TenantId (entries appear as
  // tenants submit; index 0 is the default tenant). These slots are the
  // only home of the five job counters; their pressure fields stay zero.
  const std::vector<OverloadStats>& tenant_overload_stats() const noexcept {
    return tenant_overload_;
  }

  // --- fail-slow fault domain ----------------------------------------------
  // Scorecards + hedge counters; a zero struct while
  // faults.slowness.enabled is off (no tracker is constructed then).
  const SlownessStats& slowness_stats() const noexcept {
    static const SlownessStats kEmpty{};
    return slowness_ ? slowness_->stats() : kEmpty;
  }
  // Believed band for a server (kHealthy when the feature is off). Benches
  // compare this against ground-truth degradation to count undetected
  // slow peers.
  SlowBand slowness_band(ServerId s) const noexcept {
    return slowness_ ? slowness_->band(s) : SlowBand::kHealthy;
  }

  // --- automatic cache management -------------------------------------------
  // Advisor counters; a zero struct while auto_cache.mode == kManual (no
  // advisor is constructed then).
  const AutoCacheStats& auto_cache_stats() const noexcept {
    static const AutoCacheStats kEmpty{};
    return advisor_ ? advisor_->stats() : kEmpty;
  }
  CacheAdvisor* cache_advisor() noexcept { return advisor_.get(); }
  // Retire a dataset now: uncache() plus drop every replica in every tier
  // (RAM, remote pool, local spill), and veto re-insertion by lineage
  // recomputes still in flight — without the veto a recomputed partition
  // lands back in the dead dataset's cache and leaks until evicted. The
  // veto lifts automatically if a later job references the dataset again,
  // and is forgotten once the dataset's last handle is gone.
  // Returns the stored bytes dropped. The advisor's auto-free path shares
  // this veto; pass a manually-freed dataset here instead of calling
  // Dataset::uncache() directly when tasks may be running.
  Bytes retire_dataset(const DatasetPtr& ds);
  bool dataset_retired(DatasetId id) const {
    return retired_.contains(id);
  }
  // Datasets the re-insertion veto currently holds.
  std::size_t retired_datasets() const noexcept { return retired_.size(); }

  // --- silent-data-corruption faults ---------------------------------------
  // Flip the checksum tag on one stored copy: a block copy in one tier (see
  // Cluster::find_copy; the remote tier ignores `s`, and its detection
  // charge lands on the copy's origin server) or a shuffle map-output unit.
  // Returns false when no live copy exists. Detection happens later, on a
  // verified read (faults.verify_reads); with verification off the corrupt
  // copy is served silently and counted in
  // FailureStats::corrupt_reads_undetected.
  bool corrupt_block(MemoryTier tier, ServerId s, const BlockId& id);
  bool corrupt_shuffle_output(const ShuffleKey& key, int unit);

  // Healthy, not-yet-corrupted shuffle map-output units, sorted by
  // (child, dep_index, unit) so fault injectors enumerating them stay
  // deterministic across runs.
  struct ShuffleOutputRef {
    ShuffleKey key;
    int unit = -1;
    ServerId host = kInvalidId;
  };
  std::vector<ShuffleOutputRef> live_shuffle_outputs() const;

  TaskScheduler& tasks() noexcept { return task_scheduler_; }
  sim::Simulation& sim() noexcept { return *sim_; }
  Cluster& cluster() noexcept { return *cluster_; }
  const Cluster& cluster() const noexcept { return *cluster_; }
  const CostModel& cost_model() const noexcept { return cost_; }

  // Structured tracing (stage submit/complete/resubmit, job lifecycle,
  // cache hit/miss from the task planner). Propagates to the TaskScheduler.
  // Null or disabled costs one pointer test per choke point.
  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    task_scheduler_.set_tracer(tracer);
  }

 private:
  struct Job;
  struct StageRun {
    StageId id = kInvalidId;
    Job* job = nullptr;
    DatasetPtr boundary;
    StageChain chain;
    std::optional<ShuffleEdge> output;  // set for shuffle-map stages
    int waiting_parents = 0;
    bool launched = false;
    // Consecutive attempts (spark.stage.maxConsecutiveAttempts): bumped on
    // fetch-failure rounds (reduce side) and on relaunches for lost map
    // outputs (map side).
    int attempts = 0;
    // Task index in the current task set -> unit position in the shuffle's
    // map-output vector (partial resubmissions launch a subset of units).
    std::vector<int> task_unit_pos;
    // Per-stage phase totals, accumulated as tasks finish and copied into
    // JobResult::stages when the job ends.
    StageBreakdown breakdown;
    // Cached datasets this stage's chain holds a lineage refcount on (kLrc
    // feed); charged at build, released exactly once at true completion or
    // job abort (relaunches for lost map outputs keep the charge).
    std::vector<DatasetId> lineage_charged;
    // Every chain dataset's advisor live-stage charge (last-use analysis);
    // same charge/release discipline as lineage_charged, but covering
    // uncached datasets too. Empty unless the advisor is constructed.
    std::vector<DatasetId> advisor_charged;
  };
  struct Job {
    JobId id = kInvalidId;
    ActionType action = ActionType::kCount;
    DatasetPtr final;
    JobCallback cb;
    JobResult result;
    std::vector<std::unique_ptr<StageRun>> stages;
    int stages_remaining = 0;
    bool done = false;
    // Overload bookkeeping: the tenant/lane the job was submitted under
    // (together the admission key), its queue priority and per-job
    // deadline, whether it currently sits in a pending queue, and whether
    // it was dispatched (and so holds an in-flight slot to release).
    TenantId tenant = 0;
    std::string lane;
    int priority = 0;
    double deadline_seconds = 0.0;
    // The armed deadline event; close_job cancels it. EventQueue ids are
    // generation-tagged, so cancelling one that already fired is a no-op.
    std::optional<sim::EventId> deadline_event;
    bool queued = false;
    bool dispatched = false;

    AdmissionKey admission_key() const { return AdmissionKey{tenant, lane}; }
  };
  // One map unit's registered output: its host (kInvalidId = lost / never
  // built) and whether the stored copy carries a bad checksum tag.
  struct MapOutput {
    ServerId host = kInvalidId;
    bool corrupt = false;
  };
  // Scheduler-side state for one shuffle (MapOutputTracker entry). Records
  // are never erased, so references survive inserts made by nested
  // build_stage / maybe_launch calls.
  struct Shuffle {
    // Per map unit, sized at map-stage launch.
    std::vector<MapOutput> outputs;
    bool done = false;      // every output registered on a healthy host
    bool building = false;  // a map stage (possibly another job's) is live
    // Stages whose launch waits on this shuffle.
    std::vector<StageRun*> waiters;
    // Launched reduce stages parked on a FetchFailed; unparked when the
    // resubmitted map stage completes.
    std::vector<StageRun*> parked;
    // Units whose corruption was detected and that await a clean rewrite
    // (counted as corruptions_repaired when re-registered). Positions, not
    // a per-output flag: they outlive a Stark-E regroup re-sizing outputs.
    std::unordered_set<int> repair;
  };

  // Dispatch a job past admission: build its stages and launch what is
  // ready (the pre-overload submit() body).
  void start_job(Job& job);
  // Close a job that never dispatched (rejected, shed, or deadline-expired
  // while queued): zero stages, finish_time == submit_time == now of close.
  void close_undispatched(Job& job, JobStatus status, std::string reason);
  // The close path every job takes once: stamps the result, collects stage
  // breakdowns, cancels the deadline, releases the admission slot and
  // traces kJobFinish.
  void close_job(Job& job, JobStatus status, std::string reason);
  // Records the closed job's result, fires its callback and erases it.
  void deliver_result(Job& job);
  // Deadline machinery: arm_deadline stores the event in the Job, and
  // on_deadline closes a job that is still open when it fires.
  void arm_deadline(Job& job);
  void on_deadline(JobId id);
  // Poll the pressure signal; on a band change, count the transition, trace
  // it, and toggle the task scheduler's degrade mode.
  PressureBand sample_pressure();
  // Release the job's admission slot (if it held one); called on every
  // close path before the callback fires.
  void release_admission_slot(Job& job);
  // Dispatch queued jobs while capacity allows (called after closes).
  void drain_admission_queue();
  void emit_admission_verdict(const Job& job, AdmissionVerdict verdict);
  // The per-tenant counter slot, grown on demand.
  OverloadStats& tenant_stats(TenantId tenant);

  StageRun* build_stage(Job& job, const DatasetPtr& boundary,
                        std::optional<ShuffleEdge> output);
  void maybe_launch(StageRun& stage);
  void on_stage_complete(StageRun& stage);
  void collect_stage_breakdowns(Job& job);
  void finish_job(Job& job);
  // Terminates the job with completed=false; cancels its task sets, purges
  // its waiter registrations, and re-homes any map stage other jobs were
  // waiting on. `status` records why (kFailed, or kDeadlineExceeded when
  // the whole-job deadline drove the cancel).
  void abort_job(Job& job, const std::string& reason,
                 JobStatus status = JobStatus::kFailed);
  TaskFailureAction on_task_failed(StageRun& stage, const TaskSpec& task,
                                   const TaskFailure& failure);
  // Builds (or rebuilds) the map stage for `edge` under `owner` and
  // launches whatever became ready.
  void rebuild_shuffle(const ShuffleEdge& edge, Job& owner);
  // The map-output host is usable for fetches right now.
  bool output_host_healthy(ServerId s) const;
  // Every registered output of the shuffle sits on a live, reachable host.
  bool shuffle_healthy(const Shuffle& shuffle) const;
  std::vector<ServerId> preferred_servers(const StageRun& stage, int unit_id,
                                          int lo, int hi);
  TaskPlan plan_task(const StageRun& stage, const TaskSpec& task,
                     ServerId server);
  void plan_chain(const DatasetPtr& ds, int partition, ServerId server,
                  DatasetId boundary_id, TaskPlan& plan);
  // Promote a lower-tier hit (remote pool / local spill) back into the
  // executor's RAM cache when this plan's task lands. No-op unless the
  // remote tier is enabled, so the default engine stays byte-identical.
  void fault_back(const DatasetPtr& ds, int partition, ServerId server,
                  DatasetId boundary_id, Bytes stored, MemoryTier found_in,
                  TaskPlan& plan);
  // d(v) for one partition (recompute_delay is the max across partitions);
  // also the kCostSize policy's per-block recompute-cost estimate.
  double recompute_delay_partition(const Dataset& ds, std::size_t p) const;
  // Decrements the lineage refcounts build_stage charged; idempotent.
  // Also releases the advisor's live-stage charges (last-use analysis).
  void release_lineage_refcounts(StageRun& stage);
  // Lazily hands the TaskScheduler the retired-dataset veto; until the
  // first retirement the filter stays null and the completion path is
  // untouched (byte-identity).
  void install_insert_filter();
  // Add `ds` to the re-insertion veto, first dropping (in amortized
  // batches) vetoes whose datasets no handle reaches any more.
  void veto_reinsertion(const DatasetPtr& ds);
  double recovery_chain_delay(const DatasetPtr& ds, int partition) const;
  // Detection bookkeeping shared by the cache probe, spill read and fetch
  // paths: counter, quarantine charge, trace event.
  void note_corruption_detected(ServerId host, DatasetId dataset,
                                int partition, Bytes bytes, bool shuffle);
  void emit_corruption_event(obs::TraceKind kind, ServerId host,
                             DatasetId dataset, int partition, Bytes bytes,
                             bool shuffle);
  // Fail-slow fetch modeling (only when slowness_ is constructed): stretch
  // the plan's fetch phase by the slowest map-output source host, decide
  // whether to hedge the lagging slice under the tenant's byte budget, and
  // record the per-source ratios the completion path feeds the scorecards.
  void apply_source_slowness(const StageRun& stage, const TaskSpec& task,
                             double net_factor, TaskPlan& plan);
  // Per-tenant hedge budget slot, grown on demand (tenant ids are dense).
  struct HedgeBudget {
    Bytes fetched = 0.0;  // cumulative bytes the tenant fetched
    Bytes hedged = 0.0;   // cumulative duplicated bytes issued
  };
  HedgeBudget& hedge_budget(TenantId tenant);

  sim::Simulation* sim_;
  Cluster* cluster_;
  CostModel cost_;
  LocalityManager* locality_;
  GroupManager* groups_;
  DagOptions options_;
  TaskScheduler task_scheduler_;
  obs::Tracer* tracer_ = nullptr;

  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
  std::unordered_map<JobId, JobResult> results_;
  // Every shuffle any stage chain has referenced. Holds no dataset: a
  // shuffle's producer edge lives in the stage chains that read it.
  std::unordered_map<ShuffleKey, Shuffle, ShuffleKeyHash> shuffles_;
  // Detected-corrupt blocks awaiting a clean rewrite; a later insert counts
  // as corruptions_repaired.
  std::unordered_set<BlockId, BlockIdHash> pending_block_repair_;
  // The TaskScheduler's counters, written here for driver-side events.
  FailureStats& stats_;
  CacheStats cache_stats_;
  // Fail-slow scorecards; constructed only when faults.slowness.enabled
  // (the tracker also feeds the TaskScheduler's placement and timeouts).
  std::unique_ptr<SlownessTracker> slowness_;
  // Automatic cache management; constructed only when auto_cache.enabled().
  std::unique_ptr<CacheAdvisor> advisor_;
  // Datasets freed while tasks may still be recomputing their partitions:
  // the TaskScheduler's insert filter vetoes re-insertion (the
  // uncache-during-recompute race). Entries leave when a new job's
  // build_stage references the dataset again, or once the dataset's last
  // handle is gone: stage chains own their datasets, so an expired handle
  // means no stage references it and no task can materialize it.
  std::unordered_map<DatasetId, std::weak_ptr<Dataset>> retired_;
  // veto_reinsertion prunes once retired_ reaches this size.
  static constexpr std::size_t kMinRetiredPruneAt = 64;
  std::size_t retired_prune_at_ = kMinRetiredPruneAt;
  bool insert_filter_installed_ = false;
  std::vector<HedgeBudget> hedge_budget_;
  std::vector<ServerId> hedge_hosts_scratch_;  // distinct source hosts
  // Overload protection (all inert while DagOptions::overload defaults).
  AdmissionController admission_;
  TenantRegistry tenants_;
  // Per-tenant overload counters; grown lazily by tenant_stats().
  std::vector<OverloadStats> tenant_overload_;
  int pressure_transitions_ = 0;
  int red_entries_ = 0;
  std::function<PressureBand()> pressure_fn_;
  PressureBand last_band_ = PressureBand::kGreen;
  bool draining_admission_ = false;
  std::unordered_map<DatasetId, Bytes> checkpointed_;
  Bytes checkpoint_bytes_ = 0.0;
  Bytes shuffle_bytes_ = 0.0;
  JobId next_job_id_ = 0;
  StageId next_stage_id_ = 0;
  int jobs_completed_ = 0;
};

}  // namespace stark
