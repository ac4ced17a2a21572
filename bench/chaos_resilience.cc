// Chaos resilience: makespan degradation under gray failure for Spark-H vs
// Stark-H.
//
// A fixed batch of cogroup-filter-count queries over cached collections is
// run twice per configuration: once on a healthy cluster and once under a
// seeded chaos schedule (crashes with repair, a flaky-task window, slow
// nodes). The interesting output is the degradation ratio — how much of the
// healthy makespan each scheduler gives back when executors die mid-wave —
// plus the failure counters behind it. Emits a single JSON object so the
// results are machine-comparable across commits.
//
// With `--corruption`, an extra scenario runs Stark-H under corruption-only
// chaos twice — verification off vs on — and appends a "corruption" section
// (silent poisoned reads vs detected-and-recovered, plus the makespan
// overhead of verifying every read). The default invocation emits exactly
// the same bytes as before the flag existed.
//
// With `--soak`, Stark-H alone runs 160 overlapping jobs, 0.4 s apart, under
// the same chaos schedule, so parked sets, retries, exclusions and
// executor-loss cleanup fire while the scheduler is busy. It prints only
// simulated counters, for the golden digest in scripts/bit_identity.sh.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "api/chaos.h"
#include "bench_util.h"

using namespace stark;

namespace {

constexpr int kServers = 12;
constexpr int kPartitions = 24;
constexpr int kJobs = 20;
constexpr double kJobSpacing = 1.5;
constexpr int kSoakJobs = 160;
constexpr double kSoakSpacing = 0.4;

struct RunResult {
  double makespan = 0.0;
  double sim_seconds = 0.0;  // from the first submission until drained
  std::uint64_t events = 0;
  std::uint64_t tasks = 0;
  int completed = 0;
  int aborted = 0;
  FailureStats stats;
  int kills = 0;
  int slow_episodes = 0;
};

constexpr double kCorruptionsPerHour = 1800.0;  // one flip / 2 s

RunResult run(ConfigKind kind, bool with_chaos, bool verify_reads = false,
              double corruptions_per_hour = 0.0, int jobs = kJobs,
              double spacing = kJobSpacing) {
  ContextOptions o = bench::paper_cluster(kind, kServers);
  o.detail_task_metrics = false;
  o.faults.verify_reads = verify_reads;
  Context ctx(o);
  auto part = ctx.collection_partitioner(kPartitions, 4096);
  std::vector<DatasetPtr> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(ctx.ingest("logs" + std::to_string(i),
                                bench::wiki_hourly(i, 200 * kMiB), part,
                                "logs"));
  }

  const SimTime t0 = ctx.sim().now();
  ChaosInjector::Config cc;
  if (corruptions_per_hour > 0.0) {
    // Corruption-only chaos: isolate the integrity fault domain so the
    // verify-on/off comparison is not confounded by kills or slow nodes.
    cc = {.failures_per_hour = 0.0,
          .min_alive = kServers / 2,
          .corruptions_per_hour = corruptions_per_hour,
          .seed = 97};
  } else {
    cc = {.failures_per_hour = 360.0,  // one kill / 10 s
          .mean_repair_seconds = 5.0,
          .min_alive = kServers / 2,
          .flaky_task_probability = 0.05,
          .slow_nodes_per_hour = 120.0,
          .mean_slow_seconds = 8.0,
          .seed = 97};
  }
  ChaosInjector chaos(ctx, cc);
  if (with_chaos) chaos.start(t0, t0 + jobs * spacing + 30.0);

  RunResult res;
  SimTime last_finish = t0;
  for (int q = 0; q < jobs; ++q) {
    ctx.sim().at(t0 + spacing * q, [&] {
      auto cg = Dataset::cogroup(inputs, part, "bench.cogroup");
      auto filtered = cg->filter({.selectivity = 0.1}, "bench.region");
      ctx.dag().submit(filtered, ActionType::kCount, {},
                       [&](const JobResult& r) {
        if (r.completed) {
          ++res.completed;
        } else {
          ++res.aborted;
        }
        if (r.finish_time > last_finish) last_finish = r.finish_time;
      });
    });
  }
  ctx.sim().run();

  res.makespan = last_finish - t0;
  res.sim_seconds = ctx.sim().now() - t0;
  res.events = ctx.sim().executed_events();
  res.tasks = ctx.dag().tasks().tasks_completed();
  res.stats = ctx.dag().failure_stats();
  res.kills = chaos.kills();
  res.slow_episodes = chaos.slow_episodes();
  return res;
}

void emit_config(bench::JsonEmitter& json, const char* name,
                 const RunResult& healthy, const RunResult& chaotic) {
  json.begin_object();
  json.field("config", name);
  json.field("no_chaos_makespan_s", healthy.makespan);
  json.field("chaos_makespan_s", chaotic.makespan);
  json.field("degradation",
             healthy.makespan > 0.0 ? chaotic.makespan / healthy.makespan : 0.0,
             "%.4f");
  json.field("jobs_completed", chaotic.completed);
  json.field("jobs_aborted", chaotic.aborted);
  json.begin_object("chaos");
  json.field("kills", chaotic.kills);
  json.field("slow_episodes", chaotic.slow_episodes);
  json.field("heartbeat_detections", chaotic.stats.heartbeat_detections);
  json.field("mean_detection_latency_s", chaotic.stats.mean_detection_latency());
  json.field("task_failures", chaotic.stats.task_failures);
  json.field("task_retries", chaotic.stats.task_retries);
  json.field("fetch_failures", chaotic.stats.fetch_failures);
  json.field("stage_resubmissions", chaotic.stats.stage_resubmissions);
  json.field("executor_exclusions", chaotic.stats.executor_exclusions);
  json.end_object();
  json.end_object();
}

void emit_corruption_run(bench::JsonEmitter& json, const char* name,
                         const RunResult& r) {
  json.begin_object(name);
  json.field("makespan_s", r.makespan);
  json.field("jobs_completed", r.completed);
  json.field("jobs_aborted", r.aborted);
  json.field("corruptions_injected", r.stats.corruptions_injected);
  json.field("corruptions_detected", r.stats.corruptions_detected);
  json.field("corruptions_repaired", r.stats.corruptions_repaired);
  json.field("corrupt_reads_undetected", r.stats.corrupt_reads_undetected);
  json.field("bytes_reverified", r.stats.bytes_reverified, "%.0f");
  json.field("fetch_failures", r.stats.fetch_failures);
  json.field("stage_resubmissions", r.stats.stage_resubmissions);
  json.field("executor_exclusions", r.stats.executor_exclusions);
  json.end_object();
}

int run_soak() {
  const RunResult r = run(ConfigKind::kStarkH, /*with_chaos=*/true,
                          /*verify_reads=*/false, /*corruptions_per_hour=*/0.0,
                          kSoakJobs, kSoakSpacing);
  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "chaos_resilience");
  json.field("mode", "soak");
  json.field("sim_seconds", r.sim_seconds);
  json.field("events_executed", static_cast<unsigned long long>(r.events));
  json.field("tasks_completed", static_cast<unsigned long long>(r.tasks));
  json.field("jobs_completed", r.completed);
  json.field("jobs_aborted", r.aborted);
  json.end_object();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool corruption = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--soak") == 0) return run_soak();
    if (std::strcmp(argv[i], "--corruption") == 0) corruption = true;
  }
  std::fprintf(stderr,
               "[chaos_resilience] %d jobs on %d servers, healthy vs seeded "
               "chaos, Spark-H and Stark-H...\n",
               kJobs, kServers);
  bench::JsonEmitter json;
  json.begin_object();
  json.field("bench", "chaos_resilience");
  json.field("servers", kServers);
  json.field("jobs", kJobs);
  json.begin_array("configs");
  const ConfigKind kinds[] = {ConfigKind::kSparkH, ConfigKind::kStarkH};
  for (std::size_t i = 0; i < 2; ++i) {
    const RunResult healthy = run(kinds[i], /*with_chaos=*/false);
    const RunResult chaotic = run(kinds[i], /*with_chaos=*/true);
    emit_config(json, config_name(kinds[i]), healthy, chaotic);
  }
  json.end_array();
  if (corruption) {
    std::fprintf(stderr,
                 "[chaos_resilience] corruption scenario: Stark-H, "
                 "verification off vs on...\n");
    const RunResult off = run(ConfigKind::kStarkH, /*with_chaos=*/true,
                              /*verify_reads=*/false, kCorruptionsPerHour);
    const RunResult on = run(ConfigKind::kStarkH, /*with_chaos=*/true,
                             /*verify_reads=*/true, kCorruptionsPerHour);
    json.begin_object("corruption");
    json.field("config", config_name(ConfigKind::kStarkH));
    json.field("corruptions_per_hour", kCorruptionsPerHour, "%.0f");
    json.field("verify_overhead",
               off.makespan > 0.0 ? on.makespan / off.makespan : 0.0, "%.4f");
    json.begin_object("runs");
    emit_corruption_run(json, "unverified", off);
    emit_corruption_run(json, "verified", on);
    json.end_object();
    json.end_object();
  }
  json.end_object();
  return 0;
}
