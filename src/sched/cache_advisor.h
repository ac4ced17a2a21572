// CacheAdvisor: automatic lifetime-based cache management.
//
// The scheduler already knows everything a human placing cache()/uncache()
// calls reasons from — the submitted DAG, lineage refcounts, recompute-cost
// estimates — so the advisor closes the loop (ROADMAP "automatic
// lifetime-based cache management"; Lu et al., lifetime-based memory
// management; Yang et al., intermediate-data caching):
//
//  * Last-use analysis (kAutoFreeOnly and up). Every dataset referenced by
//    a stage chain carries a live-stage count, charged at stage build and
//    released when the stage truly completes (or its job aborts) — the same
//    once-per-stage discipline as the kLrc lineage refcounts. When the
//    count hits zero the dataset is dead in the submitted DAG; once it has
//    stayed dead for a grace period (so back-to-back session jobs do not
//    thrash) its cached footprint is dropped from every tier: RAM replicas,
//    the remote-memory pool and local spill copies.
//
//  * Cross-job reuse scoring. A decaying (DAMON-style, half-life
//    `decay_half_life`) score accumulates evidence that a dataset is reused
//    across jobs: +1 whenever a *different* job references it again, plus a
//    fractional bump per sampled cache read. Datasets whose total decayed
//    evidence sits above `protect_threshold` are never auto-freed — this is
//    what keeps ingested base collections cached while one-shot session
//    intermediates are reclaimed.
//
//  * Auto-cache selection (kFull). At job submit, uncached non-source
//    intermediates are ranked by expected_reuse x recompute_cost / size —
//    expected_reuse from this job's stage out-degree plus the cross-job
//    score, recompute_cost from the planner's lineage estimate — and the
//    top candidates are promoted (MEMORY_ONLY_SER) under a RAM-fraction
//    budget. Promoted blocks enter the cache through the ordinary task
//    completion path, so per-tenant quotas and the RAM->remote->disk
//    demotion chain apply unchanged.
//
// The advisor is pull-based: it acts inside submit / stage-release / job
// finish hooks and schedules no standing simulation events, so an idle
// simulation still drains (the MemoryPressureMonitor pattern). It is
// constructed only when AutoCacheOptions::enabled(); the default kManual
// build has no advisor and stays byte-identical.
//
// Every hook costs O(the job's own chain datasets + live advisor state),
// never O(datasets ever referenced): promotion visits only the datasets the
// submitting job just referenced, the sweep walks the pending-free queue in
// id order, and entries of datasets whose handles are gone (and that hold
// nothing left to free) are forgotten in amortized batches.
#pragma once

#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "rdd/dataset.h"

namespace stark {

enum class AutoCacheMode {
  kManual,        // advisor off: cache()/uncache() calls are the whole story
  kAutoFreeOnly,  // reclaim dead cached datasets; never promote
  kFull,          // auto-free + auto-cache promotion under the RAM budget
};

const char* auto_cache_mode_name(AutoCacheMode mode);

struct AutoCacheOptions {
  AutoCacheMode mode = AutoCacheMode::kManual;
  // Fraction of aggregate cluster cache capacity auto-promoted datasets may
  // occupy (estimated at promotion time from dataset logical size).
  double ram_budget_fraction = 0.5;
  // At most this many datasets auto-cached at once.
  int max_auto_datasets = 64;
  // Promotion threshold on expected_reuse * recompute_cost / size
  // (seconds per byte, scaled by reuse). 0 admits every candidate with
  // reuse evidence that fits the budget.
  double min_score = 0.0;
  // Half-life (simulated seconds) of the decaying cross-job reuse score.
  double decay_half_life = 600.0;
  // Total decayed reuse evidence (cross-job score + sampled-read score) at
  // or above which a dead dataset is protected from auto-free. A one-shot
  // session intermediate peaks at ~2 (one cross-job reference + one full
  // read by the follow-up), so the default keeps anything referenced by at
  // least two independent consumers while session leftovers stay
  // reclaimable.
  double protect_threshold = 2.5;
  // A dataset must stay dead (no live stage references) this long before
  // its storage is reclaimed; re-references during the grace period cancel
  // the free. Bounds the cost of mispredicting a session's last job.
  double free_grace_seconds = 30.0;

  bool enabled() const noexcept { return mode != AutoCacheMode::kManual; }
  void validate() const;
};

// Advisor effectiveness counters (DagScheduler::auto_cache_stats(); all
// zero while the advisor is off).
struct AutoCacheStats {
  long long auto_caches = 0;       // datasets promoted into the cache
  long long auto_frees = 0;        // dead datasets reclaimed
  long long frees_deferred = 0;    // free attempts skipped on a pinned block
  long long frees_protected = 0;   // datasets kept by the reuse score
  long long reads_sampled = 0;     // cache reads folded into the sampler
  Bytes bytes_promoted = 0.0;      // estimated footprint of promotions
  Bytes bytes_freed = 0.0;         // stored bytes dropped across all tiers
};

class CacheAdvisor {
 public:
  // Recompute-cost estimate for a dataset (the DagScheduler's
  // lineage-based recompute_delay), used by the promotion ranking.
  using RecomputeCostFn = std::function<double(const Dataset&)>;
  // Fired on every promotion (promoted=true) and free (promoted=false)
  // with the dataset and the bytes involved; `ds` is null when the
  // application already dropped its last handle. The DagScheduler uses it
  // for kAutoCache/kAutoFree trace instants and the re-insertion veto.
  using EventFn = std::function<void(DatasetId id, const DatasetPtr& ds,
                                     Bytes bytes, bool promoted)>;

  CacheAdvisor(Cluster& cluster, AutoCacheOptions options,
               RecomputeCostFn recompute_cost);

  void set_event_fn(EventFn fn) { event_fn_ = std::move(fn); }

  // A freshly built stage's chain references this dataset: bump its
  // live-stage count and fold cross-job reuse evidence when `job` differs
  // from the last referencing job. Called once per (stage, dataset).
  void on_stage_reference(const DatasetPtr& ds, JobId job, SimTime now);
  // The matching release, called exactly once per charged (stage, dataset)
  // when the stage truly completes or its job aborts. A count reaching
  // zero marks the dataset dead and queues it for the grace-period sweep.
  void on_stage_release(DatasetId id, SimTime now);
  // Access sampler feed: a task plan served this dataset's partition from
  // executor RAM (recency/frequency evidence against auto-freeing it).
  void on_block_read(const Dataset& ds, SimTime now);
  // Reclaim datasets dead past the grace period. Piggybacks on job submit
  // and job completion; never scheduled as a standing event.
  void sweep(SimTime now);
  // kFull only: rank this job's uncached intermediates and promote the top
  // candidates under the RAM budget. Call it right after the job's stages
  // are built: the candidates are the datasets those stages referenced.
  // Returns the promoted datasets so the caller can retro-charge lineage
  // refcounts for already-built stages.
  std::vector<DatasetPtr> select_promotions(JobId job, SimTime now);

  const AutoCacheStats& stats() const noexcept { return stats_; }

  // Introspection for tests and benches.
  int live_stages(DatasetId id) const;
  // Decayed cross-job reuse score as of `now` (0 for unknown datasets,
  // including forgotten ones whose handles are gone).
  double reuse_score(DatasetId id, SimTime now) const;
  // Datasets the advisor currently keeps an entry for.
  std::size_t tracked_datasets() const noexcept { return entries_.size(); }
  Bytes promotion_budget() const noexcept { return budget_; }
  Bytes promoted_bytes_live() const noexcept { return promoted_live_; }

 private:
  struct Entry {
    std::weak_ptr<Dataset> ds;
    int live_stages = 0;
    // Stage references charged by the current job (out-degree feed for the
    // promotion ranking; reset when a new job starts referencing).
    int refs_in_job = 0;
    JobId refs_job = kInvalidId;
    JobId last_job = kInvalidId;
    double score = 0.0;       // decayed cross-job reuse evidence
    double read_score = 0.0;  // decayed sampled-read evidence
    SimTime score_at = 0.0;   // last decay fold
    SimTime dead_since = 0.0;
    int num_partitions = 0;
    Bytes total_bytes = 0.0;
    bool auto_cached = false;
    Bytes promoted_bytes = 0.0;
    // frees_protected counts transitions, not sweeps: set when a sweep
    // first protects the dead dataset, cleared when it comes alive again.
    bool protect_counted = false;
  };

  void fold_decay(Entry& e, SimTime now) const;
  // Free the dead dataset's storage across all tiers unless it is
  // protected (reuse score) or deferred (pinned replica). Returns true
  // when the dataset was actually freed.
  bool try_free(DatasetId id, Entry& e, SimTime now);
  // Erase entries no hook can reach again: handle expired, no live stage,
  // nothing queued to free. Dataset ids are never reused.
  void prune();

  Cluster* cluster_;
  AutoCacheOptions options_;
  RecomputeCostFn recompute_cost_;
  EventFn event_fn_;
  std::unordered_map<DatasetId, Entry> entries_;
  // prune() runs once entries_ reaches this size (doubling amortization).
  static constexpr std::size_t kMinPruneAt = 1024;
  std::size_t prune_at_ = kMinPruneAt;
  // Datasets whose refs_job flipped to candidates_job_: the promotion
  // candidates of that job (each id once, since a flip back needs another
  // job's flip in between, which resets the list).
  std::vector<DatasetId> candidates_;
  JobId candidates_job_ = kInvalidId;
  // Dead cache-requested datasets awaiting their grace period; ordered so
  // the sweep frees in dataset-id order.
  std::set<DatasetId> pending_free_;
  AutoCacheStats stats_;
  Bytes budget_ = 0.0;         // ram_budget_fraction * aggregate capacity
  Bytes promoted_live_ = 0.0;  // footprint of currently auto-cached datasets
  int auto_cached_count_ = 0;
};

}  // namespace stark
