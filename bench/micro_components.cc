// Micro-benchmarks of Stark's component algorithms (wall-clock, via
// google-benchmark): Dinic min-cut, GroupTree rebalance, Z-curve codec,
// Zipf sampling, MCF offer sorting, histogram merging, LRU block store,
// event-queue churn.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/block_manager.h"
#include "common/key_histogram.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "flow/dinic.h"
#include "sim/event_queue.h"
#include "stark/group_tree.h"
#include "trace/wiki.h"
#include "trace/zcurve.h"

namespace {

using namespace stark;

void BM_DinicLayeredDag(benchmark::State& state) {
  const int layers = static_cast<int>(state.range(0));
  const int width = 8;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    flow::Dinic d(2 + layers * width);
    const auto node = [&](int l, int i) { return 2 + l * width + i; };
    for (int i = 0; i < width; ++i) {
      d.add_edge(0, node(0, i), rng.uniform(1, 10));
      d.add_edge(node(layers - 1, i), 1, rng.uniform(1, 10));
    }
    for (int l = 0; l + 1 < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        for (int j = 0; j < width; ++j) {
          d.add_edge(node(l, i), node(l + 1, j), rng.uniform(1, 10));
        }
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(d.max_flow(0, 1));
  }
}
BENCHMARK(BM_DinicLayeredDag)->Arg(4)->Arg(16)->Arg(64);

void BM_GroupTreeRebalance(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  std::vector<double> sizes(static_cast<std::size_t>(parts));
  Rng rng(3);
  for (auto& s : sizes) s = rng.uniform(0.0, 100.0);
  sizes[0] = 1e6;  // force splits in the first group
  for (auto _ : state) {
    GroupTree t(parts, parts / 8);
    benchmark::DoNotOptimize(t.rebalance(sizes, 50.0, 500.0));
  }
}
BENCHMARK(BM_GroupTreeRebalance)->Arg(64)->Arg(512)->Arg(4096);

void BM_ZEncodeDecode(benchmark::State& state) {
  Rng rng(5);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const auto x = static_cast<std::uint32_t>(rng.next_u64());
    const auto y = static_cast<std::uint32_t>(rng.next_u64());
    const auto [dx, dy] = trace::z_decode(trace::z_encode(x, y));
    acc += dx + dy;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ZEncodeDecode);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler z(static_cast<std::uint64_t>(state.range(0)), 0.9);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(65536);

void BM_McfOfferSort(benchmark::State& state) {
  // Algorithm 1's dominant cost: sorting resource offers by contention.
  const int n = static_cast<int>(state.range(0));
  Rng rng(13);
  std::vector<std::pair<int, int>> offers(static_cast<std::size_t>(n));
  for (auto& [contention, id] : offers) {
    contention = static_cast<int>(rng.next_below(64));
    id = static_cast<int>(rng.next_below(1000));
  }
  for (auto _ : state) {
    auto copy = offers;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_McfOfferSort)->Arg(40)->Arg(400);

void BM_HistogramMerge(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  trace::WikiTraceGen::Config c;
  c.num_urls = 4096;
  trace::WikiTraceGen wiki(c);
  std::vector<KeyHistogram> hists;
  for (int i = 0; i < k; ++i) {
    hists.push_back(wiki.histogram(100 * kMiB, 0.9));
  }
  std::vector<const KeyHistogram*> ptrs;
  for (const auto& h : hists) ptrs.push_back(&h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyHistogram::merge(ptrs));
  }
}
BENCHMARK(BM_HistogramMerge)->Arg(2)->Arg(8)->Arg(36);

void BM_BlockManagerChurn(benchmark::State& state) {
  BlockManager bm(1000.0 * 100.0);
  Rng rng(17);
  int next = 0;
  for (auto _ : state) {
    bm.insert({next % 500, next / 500}, rng.uniform(50.0, 150.0));
    ++next;
    bm.touch({static_cast<int>(rng.next_below(500)), 0});
  }
  benchmark::DoNotOptimize(bm.used());
}
BENCHMARK(BM_BlockManagerChurn);

// One pop and one push per iteration over a 10 k-event live set; every 7th
// push also cancels a mid-age event and replaces it, like a rearmed timer.
// A cancel that finds its event already fired still pushes the replacement,
// so the live set creeps upward as the run goes on.
void BM_EventQueueChurn(benchmark::State& state) {
  constexpr int kLive = 10000;
  sim::EventQueue q;
  Rng rng(0xE7E7ULL);
  std::vector<sim::EventId> recent;
  recent.reserve(kLive);
  for (int i = 0; i < kLive; ++i) {
    recent.push_back(q.push(rng.next_double(), [] {}));
  }
  std::uint64_t pushed = kLive;
  for (auto _ : state) {
    const SimTime now = q.pop().time;
    q.push(now + rng.next_double(), [] {});
    if (++pushed % 7 == 0) {
      const std::size_t victim = pushed % recent.size();
      benchmark::DoNotOptimize(q.cancel(recent[victim]));
      recent[victim] = q.push(now + rng.next_double(), [] {});
      ++pushed;
    }
  }
  benchmark::DoNotOptimize(q.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn);

}  // namespace

BENCHMARK_MAIN();
