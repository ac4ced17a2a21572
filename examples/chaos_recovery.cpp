// Chaos recovery: bounded failure recovery under server churn.
//
// Runs the runningReduce (updateStateByKey) pattern over a stream of
// Wikipedia timesteps while a chaos injector kills and repairs servers.
// The CheckpointOptimizer keeps the state lineage's recovery delay under a
// bound, so queries keep completing — and the metrics collector shows what
// the churn cost.
#include <cstdio>

#include "api/stark.h"
#include "streaming/running_reduce.h"
#include "trace/wiki.h"

using namespace stark;

int main() {
  std::printf("Running-reduce under chaos, with bounded recovery\n\n");

  ContextOptions opts;
  opts.config = ConfigKind::kStarkH;
  opts.cluster.num_servers = 8;
  opts.detail_task_metrics = false;
  Context ctx(opts);
  MetricsCollector metrics(ctx.cluster());
  auto part = ctx.collection_partitioner(16, 4096);
  ctx.groups().register_namespace("state", part, {});

  const double recovery_bound = 1.5;
  RunningReduce state(ctx.dag(), {.partitioner = part,
                                  .ns = "state",
                                  .decay_bytes_factor = 0.8,
                                  .reduce_bytes_factor = 0.5});
  state.set_checkpoint_optimizer(
      ctx.make_checkpoint_optimizer(recovery_bound, /*f=*/3.0));

  ChaosInjector chaos(ctx, {.failures_per_hour = 240.0,
                            .mean_repair_seconds = 20.0,
                            .min_alive = 3,
                            .seed = 5});
  chaos.start(ctx.sim().now(), ctx.sim().now() + 1800.0);

  trace::WikiTraceGen wiki({});
  for (int step = 0; step < 24; ++step) {
    // One timestep every ~75 simulated seconds.
    ctx.sim().run(ctx.sim().now() + 75.0);
    auto hist = std::make_shared<const KeyHistogram>(
        wiki.histogram(150 * kMiB, 0.9));
    auto data = Dataset::source("step" + std::to_string(step), hist, 4)
                    ->partition_by(part, "state");
    auto new_state = state.update(data);
    metrics.observe_job(ctx.count(new_state->filter({.selectivity = 0.02})));
    std::printf(
        "step %2d @t=%5.0fs | alive servers %zu | uncheckpointed path %.2fs "
        "(bound %.1f) | ckpts %d\n",
        step, ctx.sim().now(), ctx.cluster().alive_servers().size(),
        ctx.make_checkpoint_optimizer(recovery_bound)
            .longest_uncheckpointed_delay(new_state),
        recovery_bound, state.checkpoints_taken());
  }
  ctx.sim().run();

  std::printf("\nChaos: %d kills, %d repairs. All %d query jobs completed.\n",
              chaos.kills(), chaos.restarts(), metrics.jobs());
  std::printf("Recovery estimate for the final state: %.2f s (24 steps of "
              "lineage behind it)\n\n",
              ctx.dag().estimate_recovery_delay(state.state()));
  std::printf("%s", metrics.summary(ctx.dag()).c_str());
  return 0;
}
