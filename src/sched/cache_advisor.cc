#include "sched/cache_advisor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace stark {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("AutoCacheOptions: " + what);
}

}  // namespace

const char* auto_cache_mode_name(AutoCacheMode mode) {
  switch (mode) {
    case AutoCacheMode::kManual: return "manual";
    case AutoCacheMode::kAutoFreeOnly: return "auto-free-only";
    case AutoCacheMode::kFull: return "full";
  }
  return "unknown";
}

void AutoCacheOptions::validate() const {
  if (ram_budget_fraction < 0.0 || ram_budget_fraction > 1.0) {
    reject("ram_budget_fraction must be in [0, 1] (got " +
           std::to_string(ram_budget_fraction) + ")");
  }
  if (max_auto_datasets < 0) {
    reject("max_auto_datasets must be >= 0 (got " +
           std::to_string(max_auto_datasets) + ")");
  }
  if (min_score < 0.0) {
    reject("min_score must be >= 0 (got " + std::to_string(min_score) + ")");
  }
  if (decay_half_life <= 0.0) {
    reject("decay_half_life must be positive (got " +
           std::to_string(decay_half_life) + ")");
  }
  if (protect_threshold < 0.0) {
    reject("protect_threshold must be >= 0 (got " +
           std::to_string(protect_threshold) + ")");
  }
  if (free_grace_seconds < 0.0) {
    reject("free_grace_seconds must be >= 0 (got " +
           std::to_string(free_grace_seconds) + ")");
  }
}

CacheAdvisor::CacheAdvisor(Cluster& cluster, AutoCacheOptions options,
                           RecomputeCostFn recompute_cost)
    : cluster_(&cluster),
      options_(options),
      recompute_cost_(std::move(recompute_cost)) {
  options_.validate();
  // The promotion budget is a fraction of the aggregate RAM cache across
  // all executors, snapshotted at construction (server capacity is fixed
  // for a run).
  Bytes capacity = 0.0;
  for (int s = 0; s < cluster_->size(); ++s) {
    capacity += cluster_->server(s).storage().capacity();
  }
  budget_ = capacity * options_.ram_budget_fraction;
}

void CacheAdvisor::fold_decay(Entry& e, SimTime now) const {
  if (now <= e.score_at) return;
  const double f = std::exp2(-(now - e.score_at) / options_.decay_half_life);
  e.score *= f;
  e.read_score *= f;
  e.score_at = now;
}

void CacheAdvisor::on_stage_reference(const DatasetPtr& ds, JobId job,
                                      SimTime now) {
  if (entries_.size() >= prune_at_) prune();
  Entry& e = entries_[ds->id()];
  if (e.num_partitions == 0) {
    e.num_partitions = ds->num_partitions();
    e.total_bytes = ds->total_bytes();
    e.score_at = now;
  }
  e.ds = ds;
  if (job != e.refs_job) {
    fold_decay(e, now);
    // Cross-job reuse evidence: a *different* job coming back for this
    // dataset is the signal that freeing it would cost a recompute soon.
    if (e.last_job != kInvalidId && job != e.last_job) e.score += 1.0;
    e.last_job = job;
    e.refs_job = job;
    e.refs_in_job = 0;
    if (job != candidates_job_) {
      candidates_.clear();
      candidates_job_ = job;
    }
    candidates_.push_back(ds->id());
  }
  ++e.live_stages;
  ++e.refs_in_job;
  // Alive again: cancel any queued free and reset the protection tally.
  pending_free_.erase(ds->id());
  e.protect_counted = false;
}

void CacheAdvisor::on_stage_release(DatasetId id, SimTime now) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.live_stages <= 0) return;
  if (--e.live_stages > 0) return;
  // Last consuming stage completed: the dataset is dead in the submitted
  // DAG. Queue cached footprints for the grace-period sweep (an expired
  // weak_ptr means the application dropped its handle — any blocks it left
  // behind are unreachable and equally reclaimable).
  e.dead_since = now;
  const DatasetPtr ds = e.ds.lock();
  if (ds == nullptr || ds->cache_requested()) pending_free_.insert(id);
}

void CacheAdvisor::on_block_read(const Dataset& ds, SimTime now) {
  const auto it = entries_.find(ds.id());
  if (it == entries_.end()) return;
  Entry& e = it->second;
  fold_decay(e, now);
  // One full scan of the dataset contributes ~1 to the read score.
  e.read_score += 1.0 / static_cast<double>(std::max(1, e.num_partitions));
  ++stats_.reads_sampled;
}

void CacheAdvisor::sweep(SimTime now) {
  // Dataset-id order keeps the free sequence deterministic. Every queued id
  // has an entry with no live stage: a reference dequeues it, and prune()
  // keeps queued entries.
  for (auto it = pending_free_.begin(); it != pending_free_.end();) {
    const DatasetId id = *it++;  // try_free erases only `id`
    Entry& e = entries_.at(id);
    if (now - e.dead_since >= options_.free_grace_seconds) try_free(id, e, now);
  }
}

void CacheAdvisor::prune() {
  // An expired handle means no stage chain holds the dataset and no job can
  // reference it again, so no hook reaches the entry once its queued free
  // (if any) is done.
  std::erase_if(entries_, [this](const auto& kv) {
    const Entry& e = kv.second;
    return e.ds.expired() && e.live_stages == 0 &&
           !pending_free_.contains(kv.first);
  });
  prune_at_ = std::max(kMinPruneAt, 2 * entries_.size());
}

bool CacheAdvisor::try_free(DatasetId id, Entry& e, SimTime now) {
  fold_decay(e, now);
  if (e.score + e.read_score >= options_.protect_threshold) {
    // Hot by the reuse sampler: keep it cached. The entry stays queued —
    // if the evidence decays without fresh references, a later sweep
    // reclaims it.
    if (!e.protect_counted) {
      ++stats_.frees_protected;
      e.protect_counted = true;
    }
    return false;
  }
  // Never drop a block a running task pinned (speculative duplicates and
  // parked resubmissions hold pins until their run resources release);
  // stay queued and retry on a later sweep.
  for (int p = 0; p < e.num_partitions; ++p) {
    const BlockId bid{id, p};
    for (const ServerId s : cluster_->cache_locations(bid)) {
      if (cluster_->server(s).storage().pin_count(bid) > 0) {
        ++stats_.frees_deferred;
        return false;
      }
    }
  }
  Bytes dropped = 0.0;
  for (int p = 0; p < e.num_partitions; ++p) {
    // Drops RAM replicas, spilled copies and the remote-pool copy alike.
    dropped = cluster_->drop_everywhere({id, p}, dropped);
  }
  const DatasetPtr ds = e.ds.lock();
  if (ds != nullptr) ds->uncache();
  if (e.auto_cached) {
    promoted_live_ -= e.promoted_bytes;
    --auto_cached_count_;
    e.auto_cached = false;
    e.promoted_bytes = 0.0;
  }
  ++stats_.auto_frees;
  stats_.bytes_freed += dropped;
  pending_free_.erase(id);
  if (event_fn_) event_fn_(id, ds, dropped, /*promoted=*/false);
  return true;
}

std::vector<DatasetPtr> CacheAdvisor::select_promotions(JobId job,
                                                        SimTime now) {
  struct Candidate {
    double score = 0.0;
    DatasetId id = kInvalidId;
    DatasetPtr ds;
  };
  // Only datasets whose refs_job flipped to `job` can rank; the final sort
  // makes the ranking independent of visiting order.
  if (job != candidates_job_) return {};
  std::vector<Candidate> ranked;
  for (const DatasetId id : candidates_) {
    Entry& e = entries_.at(id);  // held by the job's stages: never pruned
    DatasetPtr ds = e.ds.lock();
    // Sources re-read from their natural home (disk); caching them buys
    // less than caching the transforms derived from them.
    if (ds == nullptr || ds->cache_requested() || ds->op() == Op::kSource) {
      continue;
    }
    fold_decay(e, now);
    // Out-degree within this job (a dataset two stages read is computed
    // once and reused) plus decayed cross-job reuse.
    const double reuse =
        static_cast<double>(e.refs_in_job - 1) + e.score + e.read_score;
    if (reuse < 1.0) continue;
    const double cost = recompute_cost_ ? recompute_cost_(*ds) : 0.0;
    const double score = reuse * cost / std::max(1.0, e.total_bytes);
    if (score <= 0.0 || score < options_.min_score) continue;
    ranked.push_back({score, id, std::move(ds)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;  // deterministic tie-break
            });
  std::vector<DatasetPtr> promoted;
  for (Candidate& c : ranked) {
    if (auto_cached_count_ >= options_.max_auto_datasets) break;
    Entry& e = entries_.at(c.id);
    const Bytes footprint = e.total_bytes;
    // Skip over budget rather than stop: a smaller candidate further down
    // the ranking may still fit.
    if (promoted_live_ + footprint > budget_) continue;
    // Serialized by default: promotions trade deserialization CPU for the
    // smallest RAM footprint, like the session caches they replace.
    c.ds->cache(Dataset::StorageLevel::kMemorySerialized);
    e.auto_cached = true;
    e.promoted_bytes = footprint;
    promoted_live_ += footprint;
    ++auto_cached_count_;
    ++stats_.auto_caches;
    stats_.bytes_promoted += footprint;
    if (event_fn_) event_fn_(c.id, c.ds, footprint, /*promoted=*/true);
    promoted.push_back(std::move(c.ds));
  }
  return promoted;
}

int CacheAdvisor::live_stages(DatasetId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.live_stages;
}

double CacheAdvisor::reuse_score(DatasetId id, SimTime now) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return 0.0;
  Entry e = it->second;  // fold on a copy; the query must not mutate
  fold_decay(e, now);
  return e.score + e.read_score;
}

}  // namespace stark
