// Driver-side admission control for overload protection.
//
// Every job submitted to the DagScheduler first passes through an
// AdmissionController: at most `max_in_flight_jobs` jobs (scaled down under
// memory pressure, overridable per tenant) are dispatched per
// (tenant, lane) at once; arrivals beyond that wait in a bounded per-lane
// priority queue (FIFO within equal priority — all-zero priorities are
// exactly the historical FIFO). When the queue is also full the configured
// policy decides who pays:
//
//   * kRejectNew  — the arriving job is refused (JobStatus::kRejected).
//   * kShedOldest — the lowest-priority oldest *queued* job of the lane is
//                   dropped (JobStatus::kShed) and the arrival takes its
//                   place; freshest work wins, matching interactive
//                   sessions where a stale queued query is worthless by the
//                   time it runs.
//   * kBlock      — the queue is unbounded; nothing is refused, intake is
//                   only throttled. Latency grows instead of loss.
//
// Rejected and shed jobs complete *synchronously* with completed=false and
// the corresponding JobStatus, so callers always get their callback —
// nothing ever vanishes. All knobs default off: with
// `admission_enabled=false` the controller is never consulted and the
// engine is byte-identical to a build without it.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/memory_pressure.h"
#include "common/types.h"

namespace stark {

enum class AdmissionPolicy { kRejectNew, kShedOldest, kBlock };

// Stable lower-case name ("reject-new", "shed-oldest", "block").
const char* admission_policy_name(AdmissionPolicy policy) noexcept;

// What the controller decided for one arrival. Numeric values appear as
// the `code` of kAdmissionVerdict trace instants.
enum class AdmissionVerdict { kAdmit = 0, kQueue = 1, kReject = 2, kShed = 3 };

const char* admission_verdict_name(AdmissionVerdict verdict) noexcept;

// Overload-protection knobs, wired through ContextOptions::overload and
// mirrored into DagOptions::overload by api::Context. Defaults keep every
// mechanism off and the engine byte-identical to a build without them.
struct OverloadOptions {
  // Master switch for admission control. Off: submit() dispatches
  // unconditionally, exactly as before.
  bool admission_enabled = false;
  AdmissionPolicy policy = AdmissionPolicy::kRejectNew;
  // Dispatched-but-unfinished jobs allowed per (tenant, lane) before
  // arrivals queue. Tenants may override via TenantOptions.
  int max_in_flight_jobs = 64;
  // Bound on the per-(tenant, lane) pending queue (ignored by kBlock).
  // Must be > 0 when admission is enabled and the policy is not kBlock.
  // Tenants may override via TenantOptions.
  int max_pending_jobs = 256;
  // Whole-job timeout in simulated seconds, measured from submission
  // (queueing time counts). 0 disables deadlines. Works independently of
  // admission_enabled.
  double deadline_seconds = 0.0;
  // Intake scaling under memory pressure: the effective in-flight limit is
  // floor(max_in_flight_jobs * factor), at least 1. Must be in (0, 1].
  double yellow_intake_factor = 1.0;
  double red_intake_factor = 0.5;
  MemoryPressureOptions pressure;
};

// Per-run overload counters. The DagScheduler counts the five job counters
// per tenant (tenant_overload_stats()) and the two pressure counters once,
// globally; overload_stats() returns the sum over tenants plus those two.
struct OverloadStats {
  int jobs_admitted = 0;       // dispatched immediately on arrival
  int jobs_queued = 0;         // parked in a pending queue at least once
  int jobs_rejected = 0;       // refused under kRejectNew
  int jobs_shed = 0;           // dropped from a queue under kShedOldest
  int deadline_exceeded = 0;   // jobs cancelled by their deadline
  int pressure_transitions = 0;  // band changes observed by the scheduler
  int red_entries = 0;           // transitions into Red
};

// What admission state is keyed by: a (tenant, lane) pair. Each key owns
// its own in-flight count and pending queue; limits come from the tenant's
// overrides (or the global OverloadOptions when unset) and apply per key,
// so a tenant's "followup" lane cannot be starved or shed by its fresh
// arrivals.
struct AdmissionKey {
  TenantId tenant = 0;
  std::string lane;
  bool operator==(const AdmissionKey&) const = default;
};

struct AdmissionKeyHash {
  std::size_t operator()(const AdmissionKey& k) const noexcept {
    return std::hash<std::string>{}(k.lane) * 1315423911u +
           static_cast<std::size_t>(k.tenant);
  }
};

// Pure bookkeeping: per-(tenant, lane) in-flight counts and pending
// queues. The DagScheduler owns one, consults it on submit, and releases
// slots as jobs finish. Job payloads stay in the scheduler; the controller
// only tracks ids and priorities, so deadline-driven removals are
// O(queue).
class AdmissionController {
 public:
  explicit AdmissionController(const OverloadOptions& options)
      : options_(options) {}

  struct Decision {
    AdmissionVerdict verdict = AdmissionVerdict::kAdmit;
    // Under kShed: the queued job that was dropped to make room (already
    // removed from its queue); the caller must close it as kShed.
    JobId shed = kInvalidId;
  };

  // Decide for a new arrival and update state accordingly (kAdmit bumps
  // the in-flight count, kQueue/kShed enqueue the id at its priority
  // position: after all entries of >= priority, before lower ones).
  Decision admit(const AdmissionKey& key, JobId id, int priority,
                 PressureBand band);

  // A dispatched job finished (completed, failed, aborted, or timed out).
  void release(const AdmissionKey& key);

  // Remove a still-queued job (its deadline fired while waiting). Returns
  // false if the id was not queued (already dispatched or closed).
  bool remove_pending(const AdmissionKey& key, JobId id);

  // Pop the next job allowed to dispatch now (smallest queue-front job id
  // among keys with capacity — oldest arrival first at equal priority) and
  // charge its slot. kInvalidId when nothing may dispatch. The caller
  // receives the key via `key_out` and must start the job.
  JobId next_dispatchable(PressureBand band, AdmissionKey* key_out);

  // Effective in-flight limit under `band` (floor(max * factor), >= 1),
  // using the tenant's max_in_flight_jobs override when configured.
  int effective_limit(PressureBand band, TenantId tenant = 0) const noexcept;

  // Per-tenant admission overrides (0 = use the global OverloadOptions
  // value). Wired from TenantOptions by the DagScheduler constructor.
  void set_tenant_limits(TenantId tenant, int max_in_flight, int max_pending);

  int in_flight(const AdmissionKey& key) const noexcept;
  int pending(const AdmissionKey& key) const noexcept;
  int total_pending() const noexcept;

 private:
  struct QueuedJob {
    JobId id = kInvalidId;
    int priority = 0;
  };
  struct LaneState {
    int in_flight = 0;
    // Sorted by descending priority, FIFO within equal priority; front =
    // next to dispatch. With all-zero priorities this is a plain FIFO.
    std::deque<QueuedJob> queue;
  };

  // The pending-queue bound for `tenant` (tenant override or global).
  int max_pending(TenantId tenant) const noexcept;

  OverloadOptions options_;
  std::unordered_map<AdmissionKey, LaneState, AdmissionKeyHash> lanes_;
  std::vector<AdmissionKey> key_order_;  // first-seen order, for determinism
  // Indexed by TenantId; 0 entries (or ids past the end) mean "use global".
  std::vector<int> tenant_max_in_flight_;
  std::vector<int> tenant_max_pending_;
};

}  // namespace stark
