// Scheduler-internal task records and fault-tolerance knobs.
//
// The user-facing half of the job contract (ActionType, TaskMetrics,
// StageBreakdown, JobResult, JobCallback) lives in api/job.h.
#pragma once

#include <string>
#include <vector>

#include "api/job.h"
#include "cluster/slowness.h"
#include "common/types.h"

namespace stark {

// How a task's placement related to its preferred executors.
enum class LocalityLevel { kNodeLocal, kAny };

// Why a task run did not produce a result.
enum class TaskFailureKind {
  kExecutorLost,  // the executor died / was declared lost mid-run
  kTaskError,     // the task itself crashed (flaky task, OOM, bad record)
  kFetchFailed,   // a shuffle fetch from a map-output host failed
};

// Fault-tolerance knobs shared by the failure detector and both schedulers.
// Defaults mirror Spark's (spark.task.maxFailures=4, excludeOnFailure
// thresholds, stage.maxConsecutiveAttempts=4), with heartbeat times scaled
// to the simulator's sub-second task durations.
struct FaultOptions {
  // Heartbeat-based failure detection (spark.executor.heartbeatInterval /
  // spark.network.timeout). The driver only learns of a crash or partition
  // once the timeout expires on its check grid.
  double heartbeat_interval = 1.0;
  double heartbeat_timeout = 5.0;
  // Task-level retries with exponential backoff; exhausting them aborts the
  // job cleanly instead of hanging.
  int max_task_failures = 4;
  double retry_backoff = 0.25;     // base delay; doubles per prior failure
  double retry_backoff_max = 8.0;  // cap on the backoff delay
  // Fetch-failure handling: a reduce task burns this long discovering that
  // a map-output host is gone (connection retries), then raises FetchFailed
  // and the map stage is resubmitted, at most max_stage_attempts times.
  int max_stage_attempts = 4;
  double fetch_fail_seconds = 0.5;
  // Executor exclusion (spark.excludeOnFailure.*): per-task, per-stage and
  // application-wide failure counters with timed re-admission.
  bool exclude_on_failure = true;
  int max_task_attempts_per_executor = 1;
  int max_failures_per_executor_stage = 2;
  int max_failures_per_executor = 2;
  double exclude_timeout = 60.0;
  // Integrity verification (spark.shuffle.checksum.enabled generalized to
  // every stored copy). When on, the cache probe, the spill read and the
  // reduce-side fetch re-verify block checksums, paying
  // CostModel::checksum_bw per byte; a mismatch becomes a cache miss
  // (lineage recompute) or a FetchFailed (map-stage resubmission) instead
  // of a silent wrong result. Off by default: verification must be
  // zero-cost and bit-identical to a build without it.
  bool verify_reads = false;
  // Charge detected corruptions to the hosting executor's app-level
  // excludeOnFailure budget, so a bad-disk server is quarantined rather
  // than re-poisoning every retry. Only meaningful with exclude_on_failure.
  bool quarantine_on_corruption = true;
  // Fail-slow fault domain (cluster/slowness.h): latency scorecards that
  // classify peers Healthy/Suspect/Degraded, adaptive fetch timeouts
  // replacing fetch_fail_seconds, hedged fetches under a per-tenant byte
  // budget, and Degraded-peer placement deprioritization. This is a
  // separate track from the fail-stop exclusion knobs above: a slow peer
  // is never charged task failures. Off by default (byte-identical).
  SlownessOptions slowness;
};

// Cluster-wide failure machinery counters. The TaskScheduler owns them;
// read them via DagScheduler::failure_stats().
struct FailureStats {
  int heartbeat_detections = 0;      // executor losses declared by timeout
  double detection_latency_sum = 0;  // actual death -> driver declaration
  int task_failures = 0;             // failed task runs, all causes
  int task_retries = 0;              // failed tasks requeued for another try
  int fetch_failures = 0;            // FetchFailed raised by reduce tasks
  int stage_resubmissions = 0;       // map stages resubmitted for lost output
  int executor_exclusions = 0;       // app-level timed exclusions
  int executor_readmissions = 0;     // exclusions expired
  int jobs_aborted = 0;              // jobs finished with completed=false
  // Silent-data-corruption fault domain.
  int corruptions_injected = 0;      // checksum tags flipped by injection
  int corruptions_detected = 0;      // verified reads that caught a bad tag
  int corruptions_repaired = 0;      // detected blocks later rewritten clean
  // Omniscient-simulator view: reads that consumed a corrupt copy without
  // noticing (only possible with verify_reads off). Nonzero means silent
  // wrong results downstream.
  long long corrupt_reads_undetected = 0;
  Bytes bytes_reverified = 0.0;      // data volume checksummed on read

  double mean_detection_latency() const noexcept {
    return heartbeat_detections > 0
               ? detection_latency_sum / heartbeat_detections
               : 0.0;
  }
};

struct TaskSpec {
  JobId job = kInvalidId;
  StageId stage = kInvalidId;
  int index = -1;    // position within the task set
  int unit_id = -1;  // partition index, or group id under Stark-E
  int lo = 0;        // first partition (inclusive)
  int hi = 0;        // last partition (exclusive)
  std::vector<ServerId> preferred;  // NODE_LOCAL candidates
};

}  // namespace stark
