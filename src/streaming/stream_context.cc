#include "streaming/stream_context.h"

#include <stdexcept>

namespace stark {

StreamContext::StreamContext(DagScheduler& dag, GroupManager& groups,
                             StreamConfig config, BatchHistFn batch_fn,
                             PartitionerFn partitioner_fn)
    : dag_(&dag),
      groups_(&groups),
      config_(std::move(config)),
      batch_fn_(std::move(batch_fn)),
      partitioner_fn_(std::move(partitioner_fn)) {
  if (!batch_fn_ || !partitioner_fn_) {
    throw std::invalid_argument("StreamContext: missing callbacks");
  }
}

void StreamContext::start(int num_steps) {
  auto& sim = dag_->sim();
  for (int step = 0; step < num_steps; ++step) {
    sim.after(config_.batch_interval * static_cast<double>(step),
              [this, step] { create_timestep(step); });
  }
}

void StreamContext::create_timestep(int step) {
  const SimTime now = dag_->sim().now();
  auto hist = std::make_shared<const KeyHistogram>(batch_fn_(step, now));
  PartitionerPtr part = partitioner_fn_(*hist, step);

  auto raw = Dataset::source("step" + std::to_string(step) + ".raw", hist,
                             config_.receiver_splits);
  auto data = raw->partition_by(part, config_.ns,
                                "step" + std::to_string(step) + ".data");
  if (config_.cache_timesteps) data->cache(config_.storage_level);
  if (config_.report_to_group_manager) groups_->report_dataset(*data);

  window_.push_back({step, now, data});
  ++steps_created_;
  evict_expired();

  if (config_.materialize_eagerly) {
    // The ingestion job: computes and caches this timestep's partitions.
    dag_->submit(data, ActionType::kCount);
  }
}

void StreamContext::evict_expired() {
  const SimTime now = dag_->sim().now();
  while (!window_.empty() &&
         window_.front().created_at + config_.retention < now) {
    // Evicted from the collection: drop its cached partitions cluster-wide.
    DatasetPtr old = window_.front().data;
    old->uncache();
    for (int p = 0; p < old->num_partitions(); ++p) {
      dag_->cluster().drop_everywhere({old->id(), p});
    }
    window_.pop_front();
  }
}

std::vector<DatasetPtr> StreamContext::timesteps_between(SimTime t0,
                                                         SimTime t1) const {
  std::vector<DatasetPtr> out;
  for (const auto& ts : window_) {
    if (ts.created_at >= t0 && ts.created_at <= t1) out.push_back(ts.data);
  }
  return out;
}

std::vector<DatasetPtr> StreamContext::latest_timesteps(int n) const {
  std::vector<DatasetPtr> out;
  const int start =
      std::max(0, static_cast<int>(window_.size()) - std::max(0, n));
  for (std::size_t i = static_cast<std::size_t>(start); i < window_.size();
       ++i) {
    out.push_back(window_[i].data);
  }
  return out;
}

}  // namespace stark
