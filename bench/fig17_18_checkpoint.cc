// Figures 16, 17, 18: the trend-tracking application and checkpointing.
//
// Builds the paper's Fig 16 lineage for ten streaming steps over Wikipedia
// data: per step, raw -> partitionBy -> (reduceByKey count, reduceByKey
// content), cogroup with the previous step's decayed count / result,
// filter popular keys, join, produce (res, dec) for the next step.
//
// Fig 17: cached RDD size vs checkpoint size per RDD of one step.
// Fig 18: cumulative checkpointed GB over steps for Stark-1 (exact min
// cut), Stark-3 (relaxed, f=3) and the revised Tachyon Edge baseline.
#include <cstdio>

#include "bench_util.h"

using namespace stark;

namespace {

constexpr Bytes kStepBytes = 700 * kMiB;
constexpr int kPartitions = 32;
constexpr Key kDomain = 4096;

struct StepRdds {
  DatasetPtr kv, cnt, ctt, ccnt, acnt, cctt, jall, dec, res;
};

// One step of the Fig 16 application.
StepRdds build_step(Context& ctx, int step, const PartitionerPtr& part,
                    const DatasetPtr& prev_dec, const DatasetPtr& prev_res) {
  const std::string s = "s" + std::to_string(step) + ".";
  auto hist = std::make_shared<const KeyHistogram>(
      bench::wiki_hourly(step, kStepBytes));
  auto raw = Dataset::source(s + "raw", hist, 8);
  StepRdds out;
  out.kv = raw->partition_by(part, "trend", s + "kv");
  out.cnt = out.kv->reduce_by_key(0.10, s + "cnt");
  out.ctt = out.kv->reduce_by_key(0.85, s + "ctt");
  if (prev_dec != nullptr) {
    out.ccnt = Dataset::cogroup({out.cnt, prev_dec}, part, s + "ccnt");
    out.cctt = Dataset::cogroup({out.ctt, prev_res}, part, s + "cctt");
  } else {
    out.ccnt = out.cnt->map({}, s + "ccnt");
    out.cctt = out.ctt->map({}, s + "cctt");
  }
  out.acnt = out.ccnt->filter({.selectivity = 0.08}, s + "acnt");
  out.jall = Dataset::join(out.cctt, out.acnt, part, 0.35, s + "jall");
  out.dec = out.ccnt->map({.bytes_factor = 0.55}, s + "dec");
  out.res = out.jall->map({.bytes_factor = 0.8}, s + "res");
  ctx.count(out.res);  // materialize the step
  return out;
}

enum class Policy { kStark1, kStark3, kEdge };

Bytes run_policy(Policy policy, double bound, std::vector<Bytes>* per_step) {
  ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, 8);
  opts.detail_task_metrics = false;
  Context ctx(opts);
  auto part = ctx.collection_partitioner(kPartitions, kDomain);
  ctx.groups().register_namespace("trend", part, {});
  auto opt = ctx.make_checkpoint_optimizer(
      bound, policy == Policy::kStark3 ? 3.0 : 1.0);
  auto edge = ctx.make_edge_checkpointer(bound);

  // Current leaves of the ever-growing lineage, maintained as RDDs
  // materialize — what the Edge policy persists on every violation.
  std::vector<DatasetPtr> leaves;
  const auto materialize = [&](const DatasetPtr& ds) {
    for (const auto& dep : ds->deps()) {
      std::erase_if(leaves, [&](const DatasetPtr& l) {
        return l->id() == dep.parent->id();
      });
    }
    leaves.push_back(ds);
    if (policy == Policy::kEdge) {
      for (const auto& target : edge.plan(ds, leaves)) {
        ctx.dag().checkpoint_now(target);
      }
    } else if (opt.violated(ds)) {
      for (const auto& target : opt.plan(ds).to_checkpoint) {
        ctx.dag().checkpoint_now(target);
      }
    }
  };

  DatasetPtr prev_dec, prev_res;
  for (int step = 0; step < 10; ++step) {
    const auto rdds = build_step(ctx, step, part, prev_dec, prev_res);
    prev_dec = rdds.dec;
    prev_res = rdds.res;
    // Checkpoint checks fire per materialized RDD, in creation order
    // (paper: "after calculating cctt ... after generating jall ...").
    for (const auto& ds : {rdds.kv, rdds.cnt, rdds.ctt, rdds.ccnt, rdds.cctt,
                           rdds.acnt, rdds.jall, rdds.dec, rdds.res}) {
      materialize(ds);
    }
    if (per_step != nullptr) {
      per_step->push_back(ctx.dag().total_checkpoint_bytes());
    }
  }
  return ctx.dag().total_checkpoint_bytes();
}

}  // namespace

int main() {
  bench::print_header(
      "Fig 17 — Estimating Checkpoint Size",
      "Cached RDD size vs checkpoint (serialized) size per RDD of one step\n"
      "of the Fig 16 trend-tracking app. The ratio is constant (paper: a\n"
      "constant relationship holds; the constant depends on the serializer).");
  {
    ContextOptions opts = bench::paper_cluster(ConfigKind::kStarkH, 8);
    opts.detail_task_metrics = false;
    Context ctx(opts);
    auto part = ctx.collection_partitioner(kPartitions, kDomain);
    ctx.groups().register_namespace("trend", part, {});
    auto s0 = build_step(ctx, 0, part, nullptr, nullptr);
    auto s1 = build_step(ctx, 1, part, s0.dec, s0.res);
    Table t({"RDD", "cached size", "checkpoint size", "ratio"});
    const std::pair<const char*, DatasetPtr> rows[] = {
        {"kv", s1.kv},     {"cnt", s1.cnt},   {"ctt", s1.ctt},
        {"ccnt", s1.ccnt}, {"acnt", s1.acnt}, {"cctt", s1.cctt},
        {"jall", s1.jall}, {"dec", s1.dec},   {"res", s1.res},
    };
    for (const auto& [name, ds] : rows) {
      const Bytes cached = ds->total_bytes();
      const Bytes ckpt = ctx.dag().checkpoint_cost(*ds);
      t.add_row({name, format_bytes(cached), format_bytes(ckpt),
                 Table::num(ckpt / cached, 2)});
    }
    t.print();
  }

  bench::print_header(
      "Fig 18 — Total Checkpoint Size over Steps",
      "Cumulative bytes written to persistent storage while running the\n"
      "Fig 16 app for 10 steps with recovery bound r. Paper: Stark writes\n"
      "far less than Tachyon-Edge; Stark-1 wins early, Stark-3 wins as the\n"
      "lineage grows (exact cuts sit too far from the tip and re-trigger).");
  const double bound = 3.0;
  std::vector<Bytes> s1_steps, s3_steps, edge_steps;
  run_policy(Policy::kStark1, bound, &s1_steps);
  run_policy(Policy::kStark3, bound, &s3_steps);
  run_policy(Policy::kEdge, bound, &edge_steps);
  Table t({"step", "Stark-1 (GB)", "Stark-3 (GB)", "Tachyon-Edge (GB)"});
  for (std::size_t i = 0; i < s1_steps.size(); ++i) {
    t.add_row({std::to_string(i + 1), Table::num(s1_steps[i] / kGiB, 2),
               Table::num(s3_steps[i] / kGiB, 2),
               Table::num(edge_steps[i] / kGiB, 2)});
  }
  t.print();

  const bool stark_cheaper = s1_steps.back() < edge_steps.back() &&
                             s3_steps.back() < edge_steps.back();
  const bool relax_helps_late = s3_steps.back() <= s1_steps.back() * 1.05;
  std::printf(
      "\nShape checks: both Stark policies write less than Edge (%s); "
      "relaxed Stark-3 is competitive at step 10 (%s)\n",
      stark_cheaper ? "OK" : "MISMATCH", relax_helps_late ? "OK" : "MISMATCH");
  return stark_cheaper && relax_helps_late ? 0 : 1;
}
