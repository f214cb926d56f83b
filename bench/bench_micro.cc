// Hot-path micro-benchmarks (google-benchmark): event application, delta
// diff/apply/serde, key-value store operations, LZ compression, bitmap
// membership, and GraphPool overlay.

#include <benchmark/benchmark.h>

#include "common/dynamic_bitset.h"
#include "graph/delta.h"
#include "graphpool/graph_pool.h"
#include "kvstore/compression.h"
#include "kvstore/kv_store.h"
#include "deltagraph/delta_graph.h"
#include "workload/generators.h"
#include "workload/trace_world.h"

namespace hgdb {
namespace {

const GeneratedTrace& SharedTrace() {
  static GeneratedTrace* trace = [] {
    RandomTraceOptions opts;
    opts.num_events = 20000;
    opts.seed = 1;
    return new GeneratedTrace(GenerateRandomTrace(opts));
  }();
  return *trace;
}

void BM_EventApplyForward(benchmark::State& state) {
  const auto& events = SharedTrace().events;
  for (auto _ : state) {
    Snapshot g;
    for (const auto& e : events) {
      benchmark::DoNotOptimize(g.Apply(e, true));
    }
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_EventApplyForward);

void BM_DeltaBetween(benchmark::State& state) {
  const auto& events = SharedTrace().events;
  const Timestamp t_end = events.back().time;
  Snapshot g1 = ReplayAt(events, t_end / 2);
  Snapshot g2 = ReplayAt(events, t_end);
  for (auto _ : state) {
    Delta d = Delta::Between(g2, g1);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DeltaBetween);

void BM_DeltaApply(benchmark::State& state) {
  const auto& events = SharedTrace().events;
  const Timestamp t_end = events.back().time;
  Snapshot g1 = ReplayAt(events, t_end / 2);
  Snapshot g2 = ReplayAt(events, t_end);
  Delta d = Delta::Between(g2, g1);
  for (auto _ : state) {
    Snapshot g = g1;
    benchmark::DoNotOptimize(d.ApplyTo(&g, true));
  }
  state.SetItemsProcessed(state.iterations() * d.ElementCount());
}
BENCHMARK(BM_DeltaApply);

void BM_DeltaEncodeDecode(benchmark::State& state) {
  const auto& events = SharedTrace().events;
  const Timestamp t_end = events.back().time;
  Snapshot g1 = ReplayAt(events, t_end / 2);
  Snapshot g2 = ReplayAt(events, t_end);
  Delta d = Delta::Between(g2, g1);
  std::string blob;
  for (auto _ : state) {
    d.EncodeComponent(kCompStruct, &blob);
    Delta back;
    benchmark::DoNotOptimize(back.DecodeComponent(kCompStruct, blob));
  }
  state.SetBytesProcessed(state.iterations() * blob.size());
}
BENCHMARK(BM_DeltaEncodeDecode);

void BM_KVStorePutGet(benchmark::State& state) {
  auto store = NewMemKVStore();
  Rng rng(3);
  std::string value = rng.String(512);
  size_t i = 0;
  std::string out;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i % 1024);
    benchmark::DoNotOptimize(store->Put(key, value));
    benchmark::DoNotOptimize(store->Get(key, &out));
    ++i;
  }
}
BENCHMARK(BM_KVStorePutGet);

void BM_LzCompress(benchmark::State& state) {
  std::string data;
  for (int i = 0; i < 2000; ++i) data += "node:" + std::to_string(i % 97) + ";";
  std::string out;
  for (auto _ : state) {
    CompressValue(data, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzCompress);

void BM_LzDecompress(benchmark::State& state) {
  std::string data;
  for (int i = 0; i < 2000; ++i) data += "node:" + std::to_string(i % 97) + ";";
  std::string compressed, out;
  CompressValue(data, &compressed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecompressValue(compressed, &out));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzDecompress);

void BM_BitsetMembership(benchmark::State& state) {
  DynamicBitset bm;
  for (size_t i = 0; i < 128; i += 3) bm.Set(i);
  size_t i = 0, hits = 0;
  for (auto _ : state) {
    hits += bm.Test(i % 128);
    ++i;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_BitsetMembership);

void BM_PoolOverlayHistorical(benchmark::State& state) {
  const auto& events = SharedTrace().events;
  const Timestamp t_end = events.back().time;
  Snapshot full = ReplayAt(events, t_end);
  Snapshot half = ReplayAt(events, t_end / 2);
  for (auto _ : state) {
    state.PauseTiming();
    GraphPool pool;
    pool.InitCurrent(full);
    state.ResumeTiming();
    benchmark::DoNotOptimize(pool.OverlayHistorical(half));
  }
  state.SetItemsProcessed(state.iterations() * half.ElementCount());
}
BENCHMARK(BM_PoolOverlayHistorical);

void BM_PoolDependentOverlay(benchmark::State& state) {
  const auto& events = SharedTrace().events;
  const Timestamp t_end = events.back().time;
  Snapshot full = ReplayAt(events, t_end);
  Snapshot near = ReplayAt(events, t_end - 50);
  Delta diff = Delta::Between(near, full);
  for (auto _ : state) {
    state.PauseTiming();
    GraphPool pool;
    pool.InitCurrent(full);
    state.ResumeTiming();
    benchmark::DoNotOptimize(pool.OverlayDependent(kCurrentGraph, diff));
  }
}
BENCHMARK(BM_PoolDependentOverlay);

void BM_PlanSinglepointUncached(benchmark::State& state) {
  const auto& events = SharedTrace().events;
  auto store = NewMemKVStore();
  DeltaGraphOptions opts;
  opts.leaf_size = 500;
  opts.arity = 2;
  opts.use_plan_cache = false;
  auto dg = DeltaGraph::Create(store.get(), opts).value();
  (void)dg->AppendAll(events);
  (void)dg->Finalize();
  const Timestamp mid = events.back().time / 2;
  const FrontierPtr frontier = dg->PinFrontier();
  for (auto _ : state) {
    auto plan = dg->PlanForAt(frontier, {mid});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanSinglepointUncached);

void BM_PlanSinglepointCached(benchmark::State& state) {
  // The paper's "incrementally maintaining single source shortest paths"
  // future-work item: repeated singlepoint planning reuses one SSSP.
  const auto& events = SharedTrace().events;
  auto store = NewMemKVStore();
  DeltaGraphOptions opts;
  opts.leaf_size = 500;
  opts.arity = 2;
  auto dg = DeltaGraph::Create(store.get(), opts).value();
  (void)dg->AppendAll(events);
  (void)dg->Finalize();
  Planner planner(PlannerContext{.skeleton = &dg->skeleton()});
  SsspCache cache;
  const Timestamp mid = events.back().time / 2;
  for (auto _ : state) {
    auto plan = planner.PlanSinglepointCached(mid, kCompAll, &cache);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanSinglepointCached);

}  // namespace
}  // namespace hgdb

BENCHMARK_MAIN();
