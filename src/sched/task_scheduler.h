// TaskScheduler: delay scheduling with Stark's Minimum-Contention-First
// remote placement (paper Algorithm 1), plus Spark-faithful failure
// machinery.
//
// Task sets are served FIFO. Each set first tries NODE_LOCAL placement on
// its tasks' preferred executors; once `locality_wait` elapses without a
// local launch the set escalates to ANY and takes remote slots. Under MCF
// the remote offers are sorted ascending by the number of unique collection
// partitions the executor caches, so tasks spill onto the least-contended
// executors — Stark's contention-aware replication signal.
//
// Failure semantics (mirroring Spark's TaskSetManager / HealthTracker):
//  * A failed task retries with exponential backoff up to
//    `max_task_failures` times (spark.task.maxFailures); exhausting the
//    budget aborts the whole set, which the DagScheduler turns into a clean
//    job abort — never a hang.
//  * Fetch failures do not count against the task's retry budget; they are
//    reported to the DagScheduler, which parks the task until the lost map
//    outputs are regenerated (stage resubmission).
//  * excludeOnFailure: a task never retries on an executor it already
//    failed on; an executor accumulating failures within one stage is
//    excluded for that stage; an executor accumulating failures across the
//    app is excluded cluster-wide for `exclude_timeout` seconds, then
//    re-admitted.
//  * Results arriving from a dead or restarted incarnation are dropped as
//    zombies; results from a partitioned (unreachable) executor are
//    deferred until the partition heals. Cleanup of a lost executor's runs
//    happens when the driver *detects* the loss (handle_server_failure),
//    not when the server physically dies.
//
// The driver dispatches tasks serially (`driver_dispatch_per_task`), which
// is what makes very high partition counts and very high job rates
// driver-bound, as in the paper's Fig 7 / Fig 19.
//
// Bookkeeping: one TaskState record per task of each live set; sets are
// indexed by job and, while they have pending work, by the ready queue;
// liveness comes from the FailureDetector set_failure_detector() links.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/rng.h"
#include "obs/tracer.h"
#include "sched/stage.h"
#include "sched/task.h"
#include "sim/simulation.h"

namespace stark {

class FailureDetector;

// What executing one task on one server will cost; produced by the
// DagScheduler's planner at launch time from current cache state.
struct TaskPlan {
  double cpu = 0.0;
  // Informational split of `cpu`: time spent parsing serialized bytes
  // (cache reads of serialized blocks, spill reads, checkpoint and source
  // reads). Already included in cpu — never added on top.
  double deserialize = 0.0;
  double gc = 0.0;
  double shuffle_read = 0.0;
  double disk = 0.0;
  // Remote-memory tier reads (one-sided fetches from the disaggregated
  // pool; see cluster/remote_memory.h). Exactly 0.0 with the tier off.
  double remote = 0.0;
  int fetch_waves = 0;  // remote fetch rounds (each pays an RTT)
  int remote_reads = 0;  // remote-pool faults (each pays the setup latency)
  Bytes bytes_cache = 0.0;
  Bytes bytes_net = 0.0;
  Bytes bytes_disk = 0.0;
  Bytes bytes_remote = 0.0;
  Bytes bytes_written = 0.0;
  // Deserialized heap footprint while the task runs (drives GC pressure
  // for concurrently scheduled tasks).
  Bytes working_set = 0.0;
  // Widest cogroup/join the task materializes (scales object overhead).
  int cogroup_width = 0;
  // Blocks materialized on the executor when the task finishes.
  struct CachedBlock {
    BlockId id;
    Bytes bytes = 0.0;         // in-memory footprint (post-serialization)
    bool spill_on_evict = false;  // MEMORY_AND_DISK blocks spill, not drop
    // Planner's estimate (seconds) of rebuilding this block from lineage;
    // 0 = not computed. Feeds the kCostSize eviction policy at insert.
    double recompute_cost = 0.0;
  };
  std::vector<CachedBlock> blocks_to_cache;

  // Cached blocks this plan reads on the chosen executor. Filled only when
  // block pinning is enabled (CachePolicyOptions::pin_running_blocks): the
  // scheduler pins them for the run's lifetime so the eviction policy
  // cannot victimize a block a running task depends on. May hold
  // duplicates (a block read via two lineage paths pins twice; pins nest).
  std::vector<BlockId> blocks_referenced;

  // Set by the planner when a shuffle fetch cannot succeed (map output
  // missing, or its host dead/partitioned): the task occupies its slot for
  // `fetch_fail_seconds`, then fails with kFetchFailed instead of
  // completing.
  struct FetchFailure {
    ShuffleKey shuffle;
    ServerId source = kInvalidId;  // kInvalidId: output not registered
  };
  std::optional<FetchFailure> fetch_failure;

  // Fail-slow scorecard feedback, filled by the planner only when
  // FaultOptions::slowness.enabled: the observed/expected latency ratios
  // the driver can measure once this run completes. The completion path
  // feeds them to the SlownessTracker (winning copies only, so a
  // cancelled speculative sibling does not double-report).
  struct SlownessObs {
    float cpu_ratio = 1.0f;   // executor compute stretch
    float disk_ratio = 1.0f;  // executor spindle stretch
    double fetch_seconds = 0.0;  // effective fetch-phase duration
    // Per map-output source host: observed per-slice net stretch.
    std::vector<std::pair<ServerId, float>> source_net;
  };
  std::optional<SlownessObs> slowness;

  double work_seconds() const noexcept {
    return cpu + gc + shuffle_read + disk + remote;
  }
};

// Details handed to the DagScheduler when a task run fails.
struct TaskFailure {
  TaskFailureKind kind = TaskFailureKind::kTaskError;
  ServerId server = kInvalidId;     // where the run was placed
  ShuffleKey shuffle;               // kFetchFailed: which shuffle
  ServerId fetch_source = kInvalidId;  // kFetchFailed: failing host
  int attempts = 0;                 // failures of this task so far
};

// How the DagScheduler wants a failed task handled.
enum class TaskFailureAction {
  kRetry,  // requeue with backoff (bounded by max_task_failures)
  kPark,   // hold until unpark() — used while a map stage is resubmitted
};

class TaskScheduler {
 public:
  struct Options {
    bool mcf = false;
    double locality_wait = 3.0;
    // Speculative execution (spark.speculation): once
    // `speculation_quantile` of a set's tasks have finished, any still-
    // running task expected to exceed `speculation_multiplier` x the median
    // finished duration gets a second copy on another executor; the first
    // copy to finish wins and the loser is cancelled.
    bool speculation = false;
    double speculation_multiplier = 1.5;
    double speculation_quantile = 0.75;
    // Seed for stock Spark's random remote placement (ignored under MCF,
    // which orders offers by contention instead).
    std::uint64_t seed = 0x5041524bULL;
    // Deep-backlog guard: once more than `deep_backlog_threshold` task sets
    // have pending work, a scheduling pass stops after
    // `backlog_fruitless_limit` consecutive sets that launched nothing and
    // arms a revisit timer `backlog_revisit_interval` seconds out. The
    // timer is a backstop only — any completion that frees a core re-runs
    // the pass immediately, so no wakeup is lost to the interval.
    std::size_t deep_backlog_threshold = 256;
    int backlog_fruitless_limit = 128;
    double backlog_revisit_interval = 0.2;
    // Weighted fair-share across tenants: each scheduling step offers the
    // oldest ready set of the tenant with the lowest weighted running-core
    // share (tenant weights via set_tenant_weight). Off: every set shares
    // one ready bucket, the FIFO scan of a build without tenants.
    bool fair_share = false;
    // Retry / exclusion knobs (see FaultOptions in sched/task.h).
    FaultOptions faults;
  };

  using PlanFn = std::function<TaskPlan(const TaskSpec&, ServerId)>;
  using TaskDoneFn = std::function<void(const TaskSpec&, const TaskMetrics&)>;
  using AllDoneFn = std::function<void()>;
  using TaskFailedFn =
      std::function<TaskFailureAction(const TaskSpec&, const TaskFailure&)>;
  using AbortFn = std::function<void(const std::string& reason)>;
  // Resolves a dataset to its locality namespace ('' if none).
  using NsOfDatasetFn = std::function<std::string(DatasetId)>;

  struct TaskSet {
    JobId job = kInvalidId;
    StageId stage = kInvalidId;
    // Tenant the owning job runs as (0 = default); drives fair-share
    // ordering and cache-quota ownership of the blocks the tasks cache.
    TenantId tenant = 0;
    std::vector<TaskSpec> tasks;
    PlanFn plan;
    TaskDoneFn task_done;
    AllDoneFn all_done;
    TaskFailedFn task_failed;  // optional; default action is kRetry
    AbortFn on_abort;          // optional; fired when retries are exhausted
  };
  using TaskSetPtr = std::shared_ptr<TaskSet>;

  TaskScheduler(sim::Simulation& sim, Cluster& cluster, const CostModel& cost,
                Options options, NsOfDatasetFn ns_of_dataset);

  void submit(TaskSetPtr ts);

  // Re-runs the matching loop; invoked internally on every event that can
  // free or demand resources.
  void schedule();

  // MCF contention metric: unique collection partitions cached on a server.
  int unique_collection_partitions(ServerId s) const;

  // Wire this to Cluster::add_block_observer (done by the api::Context).
  void on_block_event(ServerId s, const BlockId& id, bool inserted);

  // Driver-side executor-lost handling: fails (and normally requeues) every
  // task the driver believes is running on s. Called when the loss is
  // *detected* (heartbeat timeout / re-registration), or directly by tests
  // that keep the old oracle semantics.
  void handle_server_failure(ServerId s);

  // A partitioned executor came back without restarting: task results that
  // finished during the partition are delivered now.
  void on_server_healed(ServerId s);

  // Moves every parked task of the (job, stage) set back to pending (the
  // shuffle outputs it was waiting for are available again).
  void unpark(JobId job, StageId stage);

  // Discards every task set of the job (pending, parked and running runs).
  // Used by job aborts; no further callbacks fire for those sets.
  void cancel_job(JobId job);

  // The driver's view of executor liveness (wired by api::Context): offers
  // go only to executors the detector believes alive, the offer cache lives
  // until its belief epoch moves, and a launch RPC aimed at a dead executor
  // it still believes alive reports the failure, revealing the loss before
  // the heartbeat timeout. Null (the default) trusts Server::alive().
  void set_failure_detector(FailureDetector* detector) noexcept {
    detector_ = detector;
    offer_cache_valid_ = false;
  }

  // Gray-failure injection: every launched run fails partway through with
  // this probability (deterministic, seeded stream). 0 disables.
  void set_flaky_task_probability(double p) { flaky_probability_ = p; }
  double flaky_task_probability() const noexcept { return flaky_probability_; }

  // Cluster-wide failure counters. The TaskScheduler owns them and counts
  // task failures, retries, exclusions and readmissions; the DagScheduler
  // writes the driver-side counters through the mutable reference.
  const FailureStats& failure_stats() const noexcept { return stats_; }
  FailureStats& failure_stats() noexcept { return stats_; }

  // Fail-slow scorecards (optional; owned by the DagScheduler and set only
  // when FaultOptions::slowness.enabled). With a tracker wired: completed
  // runs feed their SlownessObs ratios, the fetch-failure discovery time
  // adapts to the observed fetch distribution, and believed-Degraded peers
  // are deprioritized for remote placement (with timed probes) — a track
  // deliberately separate from the fail-stop exclusion machinery.
  void set_slowness_tracker(SlownessTracker* tracker) noexcept {
    slowness_ = tracker;
  }

  // Structured tracing of task launch/finish/retry/fail (see obs/tracer.h).
  // Null or disabled costs one pointer test per choke point.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  // Veto on blocks_to_cache insertions at task completion. Plans are
  // priced at launch; a dataset freed while its lineage recompute is in
  // flight (the advisor's auto-free, or DagScheduler::retire_dataset)
  // must not have the recomputed partition re-inserted into its dead
  // cache. Null (the default) inserts everything, as before.
  void set_block_insert_filter(std::function<bool(const BlockId&)> filter) {
    block_insert_filter_ = std::move(filter);
  }

  // Degrade mode under memory pressure (Red band): speculative copies are
  // temporarily not launched even with Options::speculation on. Flipped by
  // the DagScheduler on pressure-band transitions; already-running
  // speculative copies keep racing.
  void set_speculation_suspended(bool suspended) noexcept {
    speculation_suspended_ = suspended;
  }
  bool speculation_suspended() const noexcept {
    return speculation_suspended_;
  }

  // Fair-share weight for a tenant (> 0; unset tenants weigh 1.0). Wired
  // from TenantOptions by the DagScheduler constructor.
  void set_tenant_weight(TenantId tenant, double weight);
  // Cores currently running tasks of this tenant (maintained regardless of
  // fair_share, so benches/tests can measure shares in either mode).
  int tenant_running_cores(TenantId tenant) const noexcept;

  std::size_t running_tasks() const noexcept { return live_runs_; }
  // Task sets submitted and not yet finished or aborted.
  std::size_t pending_task_sets() const noexcept { return live_sets_; }
  // Logical tasks completed (winning copies only), across all sets ever run.
  std::uint64_t tasks_completed() const noexcept { return tasks_completed_; }
  int speculative_launches() const noexcept { return speculative_launches_; }
  int speculative_wins() const noexcept { return speculative_wins_; }

  // Quarantine entry point for detected storage corruptions: charges the
  // hosting executor's app-level exclusion budget (no per-task/per-stage
  // charge — no task actually failed). Gated on exclude_on_failure and
  // quarantine_on_corruption.
  void record_integrity_failure(ServerId server);

  // Congestion signals: running tasks currently using the network (shuffle
  // fetches) / the disks. The planner divides per-flow bandwidth by the
  // average flows-per-server to approximate shared NICs and spindles.
  int active_net_flows() const noexcept { return active_net_flows_; }
  int active_disk_flows() const noexcept { return active_disk_flows_; }

 private:
  // Run ids of the copies of one task still in flight, in launch order. At
  // most two run at once (the original and one speculative sibling), so
  // the ids live inline and a launch allocates nothing.
  class TaskRuns {
   public:
    std::size_t size() const noexcept { return n_; }
    bool empty() const noexcept { return n_ == 0; }
    std::uint64_t front() const noexcept { return ids_[0]; }
    const std::uint64_t* begin() const noexcept { return ids_.data(); }
    const std::uint64_t* end() const noexcept { return ids_.data() + n_; }
    void push_back(std::uint64_t id);  // throws on a third copy
    void erase(std::uint64_t id) noexcept;
    void clear() noexcept { n_ = 0; }

   private:
    std::array<std::uint64_t, 2> ids_{};
    std::uint8_t n_ = 0;
  };
  // Everything the scheduler tracks about one task of a set.
  struct TaskState {
    TaskRuns runs;  // copies in flight; non-empty only while one runs
    int attempts = 0;  // failed runs (fetch failures do not count)
    bool done = false;  // a copy finished (the winner)
    bool speculated = false;  // a speculative copy launched this attempt
    bool parked = false;  // waiting on stage resubmission
    // excludeOnFailure: task-error failures per executor, as (server,
    // count) pairs; empty until the task fails somewhere.
    std::vector<std::pair<ServerId, int>> failed_on;
  };
  struct ActiveSet {
    TaskSetPtr ts;
    std::vector<TaskState> state;  // per task index, sized at submit
    std::deque<int> pending;
    int parked = 0;  // tasks whose TaskState::parked is set
    int running = 0;
    int finished = 0;
    int backoff_pending = 0;  // failed tasks waiting out their backoff
    bool aborted = false;
    SimTime locality_anchor = 0.0;  // max(submit time, last local launch)
    bool has_preferences = false;
    // Per-stage exclusion bookkeeping.
    std::unordered_map<ServerId, int> stage_failures;
    std::unordered_set<ServerId> stage_excluded;
    std::vector<double> finished_durations;  // speculation's median input
    // Scheduling-index bookkeeping (owned by the TaskScheduler): FIFO
    // position and ready-queue membership.
    std::uint64_t seq = 0;
    bool in_ready = false;
    bool detached = false;
  };
  static constexpr std::uint64_t kNoRun = ~std::uint64_t{0};
  static constexpr int kSlotBits = 24;  // up to 16 M concurrent runs
  // One task run, launch to completion. Runs live in the slot pool runs_;
  // a run id is (launch sequence << kSlotBits) | slot, so ids sort in
  // launch order and name their slot without a lookup table.
  struct RunningTask {
    std::uint64_t id = kNoRun;  // kNoRun while the slot is free
    std::shared_ptr<ActiveSet> set;
    int index = -1;
    ServerId server = kInvalidId;
    int server_generation = 0;
    sim::EventId event;
    TaskMetrics metrics;
    TaskPlan plan;
    bool speculative = false;
    std::optional<TaskPlan::FetchFailure> fetch_failure;
    bool flaky_failure = false;
  };

  void launch(const std::shared_ptr<ActiveSet>& set, int index, ServerId s,
              bool node_local, bool speculative = false);
  void complete(std::uint64_t run_id);
  void fail(std::uint64_t run_id, TaskFailureKind kind);
  void finish_set_if_done(const std::shared_ptr<ActiveSet>& set);
  void requeue_with_backoff(const std::shared_ptr<ActiveSet>& set, int index);
  // Marks the set aborted, detaches it, discards its in-flight runs in
  // launch order and drops its pending tasks. No callback fires.
  void teardown(const std::shared_ptr<ActiveSet>& set);
  // teardown() plus the abort log line and the set's on_abort callback.
  void abort_set(const std::shared_ptr<ActiveSet>& set,
                 const std::string& reason);
  void record_task_error(ActiveSet& set, int index, ServerId server);
  void charge_app_failure(ServerId server);
  void emit_retry(const ActiveSet& set, int index);
  void maybe_speculate(const std::shared_ptr<ActiveSet>& set);
  void discard_run(std::uint64_t run_id);  // cancel + release resources
  // Run-slot pool. new_run_id() reserves a slot (a freed one first) and
  // names it with the next launch sequence number; the caller moves the
  // run into runs_[slot_of(id)]. find_run() is null once the run ended.
  // take_run() moves a live run out, frees its slot and drops it from its
  // server's list.
  static std::size_t slot_of(std::uint64_t run_id) noexcept {
    return static_cast<std::size_t>(run_id &
                                    ((std::uint64_t{1} << kSlotBits) - 1));
  }
  std::uint64_t new_run_id();
  RunningTask* find_run(std::uint64_t run_id) noexcept {
    const std::size_t slot = slot_of(run_id);
    return slot < runs_.size() && runs_[slot].id == run_id ? &runs_[slot]
                                                           : nullptr;
  }
  RunningTask take_run(RunningTask& run);
  // Releases the run's driver-side accounting and, when the incarnation it
  // ran on is still alive, its physical core/working set.
  void release_run_resources(const RunningTask& run);
  // Drops expired app-level exclusions (re-admission).
  void expire_exclusions();
  void arm_timer(SimTime at);
  // Recomputes offer_servers_ / offer_base_ / probe_launch_failure_. Must
  // run before offerable() / pick_remote_server(): once per scheduling
  // sweep and on entry to maybe_speculate(). The inputs (liveness,
  // reachability, the detector's beliefs) only change between sweeps —
  // failure-detection callbacks are deferred past the sweep — so one
  // evaluation per server replaces one per (task, server) offer; the
  // cluster topology epoch and the detector's belief epoch let the cache
  // survive whole sweeps untouched until something actually changes.
  // App-level exclusion is NOT cached (a verified read can quarantine an
  // executor mid-sweep); offerable() checks it live.
  void rebuild_offer_cache();
  // Rebuilds sweep_candidates_: offerable servers that still had a free
  // core when the current sweep started. Free cores only decrease within
  // a sweep (completions are events; launch-failure reports are
  // deferred), so servers skipped here could never accept a task anyway —
  // pick_remote_server() iterates this list instead of every offerable
  // server. Refresh alongside rebuild_offer_cache().
  void refresh_sweep_candidates();
  // Ready-queue maintenance: a set is "ready" while it has pending task
  // indices to offer. mark_ready is idempotent; call it wherever pending
  // goes empty -> non-empty (submit, backoff expiry, executor-lost requeue,
  // unpark).
  void mark_ready(const std::shared_ptr<ActiveSet>& set);
  void unready(ActiveSet& set);
  // Removes the set from the ready queue and the job index and drops it
  // from the live-set count. Used when a set finishes or aborts.
  void detach_set(const std::shared_ptr<ActiveSet>& set);
  // One NODE_LOCAL + ANY offer round for a single set (the body of the
  // historical ready-scan loop). Returns true when at least one task
  // launched; the set may have drained its pending queue either way.
  bool offer_to_set(const std::shared_ptr<ActiveSet>& set, int& free_cores,
                    std::set<ServerId>& launch_failures);
  // Fair-share pick metric: running cores / weight for the tenant.
  double weighted_share(TenantId tenant) const noexcept;
  // Ready-queue bucket of a set: its tenant under fair_share, else 0 (FIFO
  // is fair-share with a single bucket).
  std::size_t ready_bucket(const ActiveSet& set) const noexcept {
    if (!options_.fair_share || set.ts->tenant < 0) return 0;
    return static_cast<std::size_t>(set.ts->tenant);
  }
  // Driver is willing to offer this server's slots to this task. Reads the
  // per-sweep offer cache for the set-independent half of the predicate;
  // callers must be downstream of rebuild_offer_cache().
  bool offerable(ServerId s, const ActiveSet& set, int index) const;
  // excludeOnFailure's per-stage and per-task half: the set excluded s, or
  // the task used up its attempts on s.
  bool excluded_for_task(ServerId s, const ActiveSet& set, int index) const;
  ServerId pick_remote_server(const ActiveSet& set, int index,
                              ServerId exclude = kInvalidId);
  std::uint64_t collection_key(const BlockId& id) const;

  sim::Simulation* sim_;
  Cluster* cluster_;
  CostModel cost_;
  Options options_;
  NsOfDatasetFn ns_of_dataset_;
  FailureDetector* detector_ = nullptr;
  FailureStats stats_;
  obs::Tracer* tracer_ = nullptr;
  SlownessTracker* slowness_ = nullptr;
  std::function<bool(const BlockId&)> block_insert_filter_;

  std::size_t live_sets_ = 0;  // submitted, not yet detached
  // The ready queue: sets with pending work, bucketed by ready_bucket and
  // keyed by submission sequence so each bucket iterates in FIFO order
  // while skipping the (usually numerous) drained-but-running sets.
  using ReadySets = std::map<std::uint64_t, std::shared_ptr<ActiveSet>>;
  std::vector<ReadySets> ready_by_tenant_;
  std::size_t ready_count_ = 0;  // sets across all buckets
  // Per-bucket scan cursors; member scratch so a pass allocates nothing.
  std::vector<ReadySets::iterator> ready_its_;
  // Fair-share pick inputs. The core counters are kept in both modes (pure
  // accounting next to set->running updates).
  std::vector<double> tenant_weight_;      // index = TenantId; empty slot = 1
  std::vector<int> tenant_running_cores_;  // index = TenantId
  // Live sets per job, in submission order, so unpark / cancel_job touch
  // only their own job's sets instead of scanning every live one.
  std::unordered_map<JobId, std::vector<std::shared_ptr<ActiveSet>>> by_job_;
  std::uint64_t next_set_seq_ = 0;
  // The run-slot pool (see RunningTask): ended runs' slots are reused, so
  // launches stop allocating once it has grown to the peak concurrency.
  std::vector<RunningTask> runs_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_runs_ = 0;
  std::uint64_t launch_seq_ = 0;
  // Live run ids per server (index = ServerId), in no particular order.
  std::vector<std::vector<std::uint64_t>> by_server_;
  // Results that finished on an unreachable (partitioned) executor, per
  // server (index = ServerId); they are delivered when the partition heals,
  // unless the loss is detected first.
  std::vector<std::vector<std::uint64_t>> deferred_;
  // App-level exclusion (spark.excludeOnFailure.application.*).
  std::unordered_map<ServerId, int> app_failures_;
  std::unordered_map<ServerId, SimTime> app_excluded_until_;
  // By-id mirror of app_excluded_until_'s keys: offerable() consults the
  // exclusion on every offer (it cannot be folded into the offer cache —
  // a verified read can quarantine mid-sweep), and a flat byte beats a
  // hash probe on that path. Sized lazily on first exclusion; empty means
  // no server was ever excluded.
  std::vector<char> app_excluded_mask_;
  // MCF contention per server (index = ServerId): cached-block count per
  // collection partition; its size is unique_collection_partitions().
  std::vector<std::unordered_map<std::uint64_t, int>> contention_;
  // Per-sweep offer cache (see rebuild_offer_cache): servers passing the
  // set-independent checks in ascending-id order, a by-id bitmap of the
  // same, a by-id bitmap of dead-but-believed-alive servers the
  // NODE_LOCAL pass reports as failed launch RPCs, and a scratch buffer
  // for stock-Spark random placement (avoids a per-offer allocation).
  std::vector<ServerId> offer_servers_;
  std::vector<char> offer_base_;
  std::vector<char> probe_launch_failure_;
  std::vector<ServerId> pick_scratch_;
  std::vector<ServerId> sweep_candidates_;
  std::uint64_t offer_cache_key_ = 0;
  bool offer_cache_valid_ = false;
  Rng placement_rng_;
  Rng flaky_rng_;
  double flaky_probability_ = 0.0;
  int active_net_flows_ = 0;
  int active_disk_flows_ = 0;
  int speculative_launches_ = 0;
  int speculative_wins_ = 0;
  bool speculation_suspended_ = false;
  std::uint64_t tasks_completed_ = 0;
  SimTime driver_idle_at_ = 0.0;
  bool timer_armed_ = false;
  SimTime timer_at_ = 0.0;
  bool in_schedule_ = false;
};

}  // namespace stark
