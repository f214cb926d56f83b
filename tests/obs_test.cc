// Coverage for the observability layer (src/obs/): concurrent exactness of
// sharded counters and histograms (this binary runs under TSan in CI),
// histogram quantile accuracy against a sorted oracle, the metrics-off
// zero-allocation contract (operator-new override proof), registry
// snapshot/delta JSON, and trace completeness over real retrievals — every
// KVStore read a query performs lands in exactly one trace span, and a fully
// prefetched pinned plan reports prefetch coverage 1.0.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "deltagraph/delta_graph.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "exec/fetch_cache.h"
#include "exec/io_pool.h"
#include "exec/parallel_executor.h"
#include "exec/prefetcher.h"
#include "exec/retrieval_session.h"
#include "exec/task_pool.h"
#include "kvstore/kv_store.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "workload/generators.h"

// ---------------------------------------------------------------------------
// Global allocation counter (this test binary only): prove that metric
// recording performs no allocation — neither when the gate is off (the
// near-zero-cost contract) nor on the hot path when it is on.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const size_t a =
      static_cast<size_t>(align) < sizeof(void*) ? sizeof(void*)
                                                 : static_cast<size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a, size) == 0) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace hgdb {
namespace {

/// Saves and restores the process-wide metrics/trace gates so tests can flip
/// them without leaking state into the rest of the suite.
class ObsGateGuard {
 public:
  ObsGateGuard()
      : metrics_(obs::MetricsEnabled()), trace_(obs::TraceEnabled()) {}
  ~ObsGateGuard() {
    obs::SetMetricsEnabled(metrics_);
    obs::SetTraceEnabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterConcurrentExactness) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add();
      counter.Add(5);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Value(),
            uint64_t(kThreads) * kAddsPerThread + uint64_t(kThreads) * 5);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(MetricsTest, CounterIgnoredWhenDisabled) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(false);
  obs::Counter counter;
  counter.Add(100);
  EXPECT_EQ(counter.Value(), 0u);
  obs::SetMetricsEnabled(true);
  counter.Add(3);
  EXPECT_EQ(counter.Value(), 3u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  obs::Gauge g;
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.Value(), -8);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundsConsistent) {
  // Every value maps into a bucket whose [lower, next-lower) range contains
  // it, and bucket lower bounds are strictly increasing.
  const uint64_t samples[] = {0,   1,    31,   32,   33,    63,     64,
                              100, 1000, 4095, 4096, 65537, 1 << 20,
                              (uint64_t(1) << 39) - 1};
  for (uint64_t v : samples) {
    const int b = obs::Histogram::BucketIndex(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, obs::Histogram::kNumBuckets);
    EXPECT_LE(obs::Histogram::BucketLowerBound(b), v) << "value " << v;
    if (b + 1 < obs::Histogram::kNumBuckets) {
      EXPECT_GT(obs::Histogram::BucketLowerBound(b + 1), v) << "value " << v;
    }
  }
  for (int b = 1; b < obs::Histogram::kNumBuckets; ++b) {
    EXPECT_GT(obs::Histogram::BucketLowerBound(b),
              obs::Histogram::BucketLowerBound(b - 1));
  }
  // Values beyond the top octave clamp into the last bucket instead of
  // indexing out of range.
  EXPECT_LT(obs::Histogram::BucketIndex(~uint64_t(0)),
            obs::Histogram::kNumBuckets);
}

TEST(MetricsTest, HistogramQuantilesMatchSortedOracle) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  test::SeededRng rng(12021);
  obs::Histogram hist;
  std::vector<uint64_t> values;
  // Log-uniform-ish spread, the shape latencies take: microseconds from
  // sub-bucket-exact single digits up to ~1e6.
  for (int i = 0; i < 20000; ++i) {
    const int octave = static_cast<int>(rng.Uniform(20));
    const uint64_t v = (uint64_t(1) << octave) + rng.Uniform(1u << octave);
    values.push_back(v);
    hist.Record(v);
  }
  EXPECT_EQ(hist.Count(), values.size());
  uint64_t sum = 0;
  for (uint64_t v : values) sum += v;
  EXPECT_EQ(hist.Sum(), sum);

  std::sort(values.begin(), values.end());
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    // Same nearest-rank convention as Histogram::QuantileOf.
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(q * static_cast<double>(values.size()) + 0.5));
    const double oracle = static_cast<double>(values[rank - 1]);
    const double got = hist.Quantile(q);
    // One sub-bucket (1/16 of an octave) bounds the error; allow 8% plus a
    // unit of slack for the exact small-value buckets.
    EXPECT_NEAR(got, oracle, std::max(1.0, oracle * 0.08))
        << "q=" << q << " (" << rng.Desc() << ")";
  }
}

TEST(MetricsTest, HistogramConcurrentRecordsAllCounted) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  obs::Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t * 31 + i % 997));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.Count(), uint64_t(kThreads) * kPerThread);
  uint64_t expect_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) expect_sum += t * 31 + i % 997;
  }
  EXPECT_EQ(hist.Sum(), expect_sum);
  hist.Reset();
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Sum(), 0u);
}

// ---------------------------------------------------------------------------
// The near-zero-cost contract
// ---------------------------------------------------------------------------

TEST(MetricsTest, RecordingNeverAllocates) {
  ObsGateGuard guard;
  auto* counter = obs::MetricsRegistry::Global().GetCounter("obs_test.zeroalloc");
  auto* gauge = obs::MetricsRegistry::Global().GetGauge("obs_test.zeroalloc_g");
  auto* hist =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.zeroalloc_h");
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(gauge, nullptr);
  ASSERT_NE(hist, nullptr);
  // Warm the thread's sticky shard slot outside the measured window.
  obs::SetMetricsEnabled(true);
  counter->Add();
  hist->Record(1);

  for (bool enabled : {false, true}) {
    obs::SetMetricsEnabled(enabled);
    const size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
      counter->Add();
      gauge->Set(i);
      hist->Record(static_cast<uint64_t>(i));
    }
    const size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "enabled=" << enabled;
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, RegistryReturnsStablePointersAndRejectsKindClash) {
  auto& reg = obs::MetricsRegistry::Global();
  auto* c1 = reg.GetCounter("obs_test.stable");
  auto* c2 = reg.GetCounter("obs_test.stable");
  EXPECT_EQ(c1, c2);
  // Same name, different kind: a naming bug, reported as nullptr.
  EXPECT_EQ(reg.GetHistogram("obs_test.stable"), nullptr);
  EXPECT_EQ(reg.GetGauge("obs_test.stable"), nullptr);
}

TEST(MetricsTest, SnapshotDeltaJSON) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  auto& reg = obs::MetricsRegistry::Global();
  auto* counter = reg.GetCounter("obs_test.delta_counter");
  auto* hist = reg.GetHistogram("obs_test.delta_hist");
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(hist, nullptr);

  const obs::MetricsSnapshot before = reg.Snapshot();
  counter->Add(7);
  for (int i = 0; i < 100; ++i) hist->Record(50);
  const obs::MetricsSnapshot after = reg.Snapshot();

  std::string err;
  const obs::JsonValue delta = obs::JsonValue::Parse(
      obs::MetricsRegistry::DeltaJSON(before, after), &err);
  ASSERT_TRUE(delta.is_object()) << err;
  EXPECT_EQ(delta["counters"]["obs_test.delta_counter"].AsInt(), 7);
  const obs::JsonValue& h = delta["histograms"]["obs_test.delta_hist"];
  EXPECT_EQ(h["count"].AsInt(), 100);
  // All 100 values were 50, so every windowed quantile sits in 50's bucket.
  EXPECT_NEAR(h["p99"].AsDouble(), 50.0, 50.0 * 0.08);

  const obs::JsonValue full = obs::JsonValue::Parse(reg.ToJSON(), &err);
  ASSERT_TRUE(full.is_object()) << err;
  EXPECT_TRUE(full["counters"].Has("obs_test.delta_counter"));
}

TEST(MetricsTest, ExportProvidersAppearInJSON) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.RegisterProvider("obs_test.provider",
                       [] { return std::string("{\"answer\":42}"); });
  std::string err;
  const obs::JsonValue parsed = obs::JsonValue::Parse(reg.ToJSON(), &err);
  ASSERT_TRUE(parsed.is_object()) << err;
  EXPECT_EQ(parsed["exports"]["obs_test.provider"]["answer"].AsInt(), 42);
  reg.UnregisterProvider("obs_test.provider");
  const obs::JsonValue gone = obs::JsonValue::Parse(reg.ToJSON(), &err);
  EXPECT_FALSE(gone["exports"].Has("obs_test.provider"));
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceTest, SpanTreeAttrsAndJSON) {
  obs::QueryTrace trace;
  trace.set_query_label("unit");
  const obs::SpanId root = trace.BeginSpan("root", obs::kNoSpan);
  const obs::SpanId child = trace.BeginSpan("child", root);
  trace.SetAttr(child, "n", int64_t{3});
  trace.SetAttr(child, "ratio", 0.5);
  trace.SetAttr(child, "kind", std::string("demo"));
  trace.EndSpan(child);
  trace.EndSpan(child);  // Idempotent.
  trace.EndSpan(root);
  trace.fetches_total.fetch_add(4);
  trace.fetches_prefetched.fetch_add(3);
  trace.Finish();

  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_GE(spans[1].end_ns, spans[1].start_ns);
  EXPECT_NEAR(trace.PrefetchCoverage(), 0.75, 1e-9);

  std::string err;
  const obs::JsonValue parsed = obs::JsonValue::Parse(trace.ToJSON(), &err);
  ASSERT_TRUE(parsed.is_object()) << err;
  EXPECT_EQ(parsed["query"].AsString(), "unit");
  EXPECT_EQ(parsed["spans"].Items().size(), 2u);
  const obs::JsonValue& c = parsed["spans"].Items()[1];
  EXPECT_EQ(c["name"].AsString(), "child");
  EXPECT_EQ(c["n"].AsInt(), 3);
  EXPECT_EQ(c["kind"].AsString(), "demo");
  EXPECT_EQ(parsed["summary"]["fetches_total"].AsInt(), 4);
}

TEST(TraceTest, ScopedSpanIsNoOpWithoutTrace) {
  obs::ScopedSpan span(obs::TraceCtx{}, "nothing");
  span.SetAttr("k", int64_t{1});  // Must not crash.
  EXPECT_FALSE(static_cast<bool>(span.ctx()));
}

// ---------------------------------------------------------------------------
// Trace completeness over real retrievals
// ---------------------------------------------------------------------------

/// Forwards to a wrapped store, counting the keys every read touches. The
/// completeness test compares this ground truth against the trace's span
/// attributes: if instrumentation missed a read path, the span sum falls
/// short; if a read were double-attributed, it would overshoot.
class CountingKVStore : public KVStore {
 public:
  explicit CountingKVStore(std::unique_ptr<KVStore> base)
      : base_(std::move(base)) {}

  Status Put(const Slice& key, const Slice& value) override {
    return base_->Put(key, value);
  }
  Status Get(const Slice& key, std::string* value) const override {
    keys_read_.fetch_add(1, std::memory_order_relaxed);
    return base_->Get(key, value);
  }
  Status Delete(const Slice& key) override { return base_->Delete(key); }
  Status Write(const WriteBatch& batch) override { return base_->Write(batch); }
  void MultiGet(const std::vector<Slice>& keys, std::vector<std::string>* values,
                std::vector<Status>* statuses) const override {
    keys_read_.fetch_add(keys.size(), std::memory_order_relaxed);
    base_->MultiGet(keys, values, statuses);
  }
  bool Contains(const Slice& key) const override { return base_->Contains(key); }
  void ForEachKey(const Slice& prefix,
                  const std::function<void(const Slice&)>& fn) const override {
    base_->ForEachKey(prefix, fn);
  }
  size_t KeyCount() const override { return base_->KeyCount(); }
  size_t ValueBytes() const override { return base_->ValueBytes(); }
  Status Sync() override { return base_->Sync(); }

  uint64_t keys_read() const {
    return keys_read_.load(std::memory_order_relaxed);
  }
  void ResetCount() { keys_read_.store(0, std::memory_order_relaxed); }

 private:
  std::unique_ptr<KVStore> base_;
  mutable std::atomic<uint64_t> keys_read_{0};
};

std::vector<Event> SmallTrace(uint64_t seed, size_t num_events = 4000) {
  RandomTraceOptions opts;
  opts.num_events = num_events;
  opts.seed = seed;
  return GenerateRandomTrace(opts).events;
}

std::unique_ptr<DeltaGraph> BuildSmallIndex(KVStore* store,
                                            const std::vector<Event>& events) {
  DeltaGraphOptions opts;
  opts.leaf_size = 60;  // Many leaves: plans fetch several deltas/eventlists.
  opts.arity = 3;
  auto dg = DeltaGraph::Create(store, opts);
  EXPECT_TRUE(dg.ok());
  auto index = std::move(dg).value();
  EXPECT_TRUE(index->AppendAll(events).ok());
  EXPECT_TRUE(index->Finalize().ok());
  return index;
}

/// Sums the `kv_keys` attribute over every span, checking each carrying span
/// is one of the two storage-read span kinds.
uint64_t SumSpanKvKeys(const obs::QueryTrace& trace) {
  uint64_t sum = 0;
  for (const auto& span : trace.Spans()) {
    for (const auto& [key, value] : span.attrs) {
      if (key != "kv_keys") continue;
      EXPECT_TRUE(span.name == "fetch.demand" || span.name == "io.drain")
          << "kv_keys attr on unexpected span " << span.name;
      sum += static_cast<uint64_t>(std::get<int64_t>(value));
    }
  }
  return sum;
}

TEST(TraceTest, EveryKvReadLandsInExactlyOneSpan) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  auto store = std::make_unique<CountingKVStore>(NewMemKVStore());
  CountingKVStore* counting = store.get();
  const std::vector<Event> events = SmallTrace(8101);
  auto dg = BuildSmallIndex(store.get(), events);

  const Timestamp lo = events.front().time;
  const Timestamp hi = events.back().time;
  const std::vector<Timestamp> times = {lo + (hi - lo) / 4, lo + (hi - lo) / 2,
                                        hi - (hi - lo) / 4};

  counting->ResetCount();
  obs::QueryTrace trace;
  auto result = dg->GetSnapshotsAt(dg->PinFrontier(), times, kCompAll,
                                   obs::TraceCtx{&trace, obs::kNoSpan});
  ASSERT_TRUE(result.ok());
  trace.Finish();

  const uint64_t ground_truth = counting->keys_read();
  ASSERT_GT(ground_truth, 0u) << "query never touched storage; test is vacuous";
  // Span attribution, the query-wide tally, and the store's own count must
  // all agree: every key read during the query is in exactly one span.
  EXPECT_EQ(SumSpanKvKeys(trace), ground_truth);
  EXPECT_EQ(trace.kv_reads.load(), ground_truth);
  EXPECT_GT(trace.bytes_read.load(), 0u);
  EXPECT_EQ(trace.fetches_total.load(),
            trace.fetches_prefetched.load() + trace.fetches_demand.load());

  // A second identical query is served by the decoded LRU: no storage reads,
  // and the trace says so too.
  counting->ResetCount();
  obs::QueryTrace warm;
  ASSERT_TRUE(dg->GetSnapshotsAt(dg->PinFrontier(), times, kCompAll,
                                 obs::TraceCtx{&warm, obs::kNoSpan})
                  .ok());
  warm.Finish();
  EXPECT_EQ(counting->keys_read(), 0u);
  EXPECT_EQ(SumSpanKvKeys(warm), 0u);
  EXPECT_EQ(warm.kv_reads.load(), 0u);
  EXPECT_GT(warm.lru_hits.load(), 0u);
}

TEST(TraceTest, PrefetchCoverageIsFullOnPrefetchedPinnedPlan) {
  ObsGateGuard guard;
  auto store = NewMemKVStore();
  const std::vector<Event> events = SmallTrace(4242);
  auto dg = BuildSmallIndex(store.get(), events);

  const Timestamp lo = events.front().time;
  const Timestamp hi = events.back().time;
  const std::vector<Timestamp> times = {lo + (hi - lo) / 3, hi - (hi - lo) / 5};
  auto plan = dg->PlanFor(times, kCompAll);
  ASSERT_TRUE(plan.ok());
  const std::vector<PlanFetch> fetches = CollectPlanFetches(plan.value());
  ASSERT_GE(fetches.size(), 2u) << "plan too small to exercise prefetch";

  IoPool io(2);
  obs::QueryTrace trace;
  const obs::TraceCtx tc{&trace, obs::kNoSpan};
  {
    // Prefetch the whole plan and wait for it to land before executing: every
    // fetch the executor performs is then served by the prefetched pin, so
    // coverage is exactly 1.0 (no scheduling race to tolerate).
    ExecFetchCache cache;
    cache.SetTrace(tc);
    StartCollectedPrefetch(*dg, dg->skeleton(), fetches, kCompAll, &cache, &io);
    cache.WaitPrefetchesIdle();
    ParallelPlanExecutor executor(dg.get(), dg->PinFrontier(), kCompAll,
                                  &TaskPool::Serial(), &cache, /*io_pool=*/nullptr);
    executor.SetTrace(tc);
    auto results = executor.Run(plan.value());
    ASSERT_TRUE(results.ok());
  }
  trace.Finish();

  EXPECT_EQ(trace.fetches_total.load(), fetches.size());
  EXPECT_EQ(trace.fetches_demand.load(), 0u);
  EXPECT_EQ(trace.fetches_prefetched.load(), fetches.size());
  EXPECT_DOUBLE_EQ(trace.PrefetchCoverage(), 1.0);
  EXPECT_EQ(trace.prefetch_issued.load(), fetches.size());
}

TEST(TraceTest, SessionLastTraceCarriesRequestSpans) {
  ObsGateGuard guard;
  obs::SetTraceEnabled(true);
  auto store = NewMemKVStore();
  const std::vector<Event> events = SmallTrace(97, 3000);
  auto dg = BuildSmallIndex(store.get(), events);

  const Timestamp lo = events.front().time;
  const Timestamp hi = events.back().time;
  RetrievalSession session(dg.get());
  auto* a = session.Submit({lo + (hi - lo) / 2});
  auto* b = session.Submit({lo + (hi - lo) / 3, hi - (hi - lo) / 3});
  ASSERT_TRUE(session.Wait().ok());
  ASSERT_TRUE(a->result.ok());
  ASSERT_TRUE(b->result.ok());

  const obs::QueryTrace* trace = session.LastTrace();
  ASSERT_NE(trace, nullptr);
  size_t request_spans = 0;
  bool saw_execute = false;
  for (const auto& span : trace->Spans()) {
    if (span.name == "request") {
      ++request_spans;
      EXPECT_GE(span.end_ns, span.start_ns) << "request span left open";
    }
    if (span.name == "execute") saw_execute = true;
  }
  EXPECT_EQ(request_spans, 2u);
  EXPECT_TRUE(saw_execute);

  std::string err;
  EXPECT_TRUE(obs::JsonValue::Parse(trace->ToJSON(), &err).is_object()) << err;
}

TEST(TraceTest, DisabledTraceMeansNullLastTrace) {
  ObsGateGuard guard;
  obs::SetTraceEnabled(false);
  auto store = NewMemKVStore();
  const std::vector<Event> events = SmallTrace(55, 2000);
  auto dg = BuildSmallIndex(store.get(), events);
  RetrievalSession session(dg.get());
  session.Submit({events.back().time});
  ASSERT_TRUE(session.Wait().ok());
  EXPECT_EQ(session.LastTrace(), nullptr);
}

// ---------------------------------------------------------------------------
// Metric folding in the index layers
// ---------------------------------------------------------------------------

TEST(ObsIntegrationTest, FetchFrequencyTracksHotDeltas) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  auto store = NewMemKVStore();
  const std::vector<Event> events = SmallTrace(31337);
  auto dg = BuildSmallIndex(store.get(), events);

  const Timestamp lo = events.front().time;
  const Timestamp hi = events.back().time;
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(dg->GetSnapshot(lo + (hi - lo) * i / 5, kCompAll).ok());
  }
  const FetchFrequency& freq = dg->delta_store().fetch_frequency();
  uint64_t total = 0;
  for (size_t id = 0; id < freq.size(); ++id) total += freq.Count(id);
  EXPECT_GT(total, 0u);

  std::string err;
  const obs::JsonValue top = obs::JsonValue::Parse(freq.TopKJSON(8), &err);
  ASSERT_TRUE(top.is_array()) << err;
  ASSERT_FALSE(top.Items().empty());
  // Sorted by count descending, counts match the table.
  int64_t prev = top.Items()[0]["fetches"].AsInt();
  for (const obs::JsonValue& entry : top.Items()) {
    const int64_t count = entry["fetches"].AsInt();
    EXPECT_LE(count, prev);
    prev = count;
    EXPECT_EQ(static_cast<uint32_t>(count),
              freq.Count(static_cast<DeltaId>(entry["id"].AsInt())));
  }
}

TEST(ObsIntegrationTest, DeltaGraphMetricsExportRegistersAndUnregisters) {
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  std::string err;
  {
    auto store = NewMemKVStore();
    const std::vector<Event> events = SmallTrace(777, 2000);
    auto dg = BuildSmallIndex(store.get(), events);
    dg->RegisterMetricsExports("obs_test_index");
    ASSERT_TRUE(dg->GetSnapshot(events.back().time, kCompAll).ok());

    const obs::JsonValue parsed =
        obs::JsonValue::Parse(obs::MetricsRegistry::Global().ToJSON(), &err);
    ASSERT_TRUE(parsed.is_object()) << err;
    const obs::JsonValue& exp = parsed["exports"]["deltagraph.obs_test_index"];
    ASSERT_TRUE(exp.is_object());
    EXPECT_EQ(exp["stats"]["leaf_count"].AsInt(),
              static_cast<int64_t>(dg->Stats().leaf_count));
    EXPECT_TRUE(exp["fetch_freq_top"].is_array());
  }
  // The index's destructor unregistered its provider.
  const obs::JsonValue after =
      obs::JsonValue::Parse(obs::MetricsRegistry::Global().ToJSON(), &err);
  EXPECT_FALSE(after["exports"].Has("deltagraph.obs_test_index"));
}

TEST(ObsIntegrationTest, PartitionedStatsAggregateAcrossShards) {
  auto base = NewMemKVStore();
  auto pdg = PartitionedDeltaGraph::Create(base.get(), 3, [] {
    DeltaGraphOptions opts;
    opts.leaf_size = 50;
    opts.arity = 3;
    return opts;
  }());
  ASSERT_TRUE(pdg.ok());
  auto& index = *pdg.value();
  const std::vector<Event> events = SmallTrace(2026, 3000);
  ASSERT_TRUE(index.AppendAll(events).ok());
  ASSERT_TRUE(index.Finalize().ok());

  const DeltaGraphStats agg = index.Stats();
  DeltaGraphStats manual;
  for (size_t i = 0; i < index.partition_count(); ++i) {
    const DeltaGraphStats s = index.partition(i)->Stats();
    manual.leaf_count += s.leaf_count;
    manual.node_count += s.node_count;
    manual.edge_count += s.edge_count;
    manual.delta_bytes += s.delta_bytes;
    manual.eventlist_bytes += s.eventlist_bytes;
    manual.store_bytes += s.store_bytes;
    manual.materialized_bytes += s.materialized_bytes;
    manual.materialized_nodes += s.materialized_nodes;
    manual.height = std::max(manual.height, s.height);
  }
  EXPECT_EQ(agg.leaf_count, manual.leaf_count);
  EXPECT_EQ(agg.node_count, manual.node_count);
  EXPECT_EQ(agg.edge_count, manual.edge_count);
  EXPECT_EQ(agg.delta_bytes, manual.delta_bytes);
  EXPECT_EQ(agg.eventlist_bytes, manual.eventlist_bytes);
  EXPECT_EQ(agg.height, manual.height);
  EXPECT_GT(agg.leaf_count, 0u);
}

// ---------------------------------------------------------------------------
// Histogram edge cases: the exact/log-linear seam and the overflow clamp
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramExactLogLinearSeamAndOverflow) {
  // Values below 32 map to identity buckets with exact bounds.
  for (uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(obs::Histogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(obs::Histogram::BucketLowerBound(static_cast<int>(v)), v);
  }
  // 32 is the first log-linear bucket; its lower bound is exactly 32, so the
  // seam has no gap and no overlap with exact bucket 31.
  EXPECT_EQ(obs::Histogram::BucketIndex(32), 32);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(32), 32u);

  // Every octave starts a fresh run of 16 sub-buckets whose first lower
  // bound is exactly the octave's power of two.
  for (int octave = obs::Histogram::kMinOctave;
       octave <= obs::Histogram::kMaxOctave; ++octave) {
    const uint64_t base = uint64_t(1) << octave;
    const int idx = obs::Histogram::BucketIndex(base);
    EXPECT_EQ(idx, 32 + (octave - obs::Histogram::kMinOctave) *
                            obs::Histogram::kSubBuckets)
        << "octave " << octave;
    EXPECT_EQ(obs::Histogram::BucketLowerBound(idx), base);
    // The last value of the previous octave stays in the previous octave.
    EXPECT_EQ(obs::Histogram::BucketIndex(base - 1), idx - 1);
  }

  // Values at/above 2^40 clamp into the top bucket instead of indexing out
  // of range, and a histogram of such values reports a top-bucket quantile.
  const int top = obs::Histogram::kNumBuckets - 1;
  EXPECT_EQ(obs::Histogram::BucketIndex(uint64_t(1) << 40), top);
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t(0)), top);

  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  obs::Histogram hist;
  hist.Record(~uint64_t(0));
  hist.Record(uint64_t(1) << 45);
  EXPECT_EQ(hist.Count(), 2u);
  EXPECT_GE(hist.Quantile(0.99), double(uint64_t(1) << 39));
}

TEST(MetricsTest, DeltaJSONGaugeReportsAfterLevel) {
  // Gauges are levels, not rates: a snapshot delta pins the *after* level
  // verbatim rather than reporting after - before (a lag gauge that went
  // from 500us down to 20us must show 20, not -480).
  ObsGateGuard guard;
  obs::SetMetricsEnabled(true);
  auto& reg = obs::MetricsRegistry::Global();
  auto* gauge = reg.GetGauge("obs_test.delta_gauge");
  ASSERT_NE(gauge, nullptr);
  gauge->Set(500);
  const obs::MetricsSnapshot before = reg.Snapshot();
  gauge->Set(20);
  const obs::MetricsSnapshot after = reg.Snapshot();
  std::string err;
  const obs::JsonValue delta =
      obs::JsonValue::Parse(obs::MetricsRegistry::DeltaJSON(before, after), &err);
  ASSERT_TRUE(delta.is_object()) << err;
  EXPECT_EQ(delta["gauges"]["obs_test.delta_gauge"].AsInt(), 20);
}

// ---------------------------------------------------------------------------
// Trace sampler: deterministic 1-in-N plus tail arming
// ---------------------------------------------------------------------------

TEST(SamplerTest, OneInNIsDeterministicOffSharedCounter) {
  obs::TraceSampler sampler;
  sampler.Configure(/*every_n=*/4, /*arm_threshold_us=*/0);
  int yes = 0;
  std::vector<bool> decisions;
  for (int i = 0; i < 16; ++i) {
    decisions.push_back(sampler.Sample());
    if (decisions.back()) ++yes;
  }
  EXPECT_EQ(yes, 4);  // Exactly 1 in 4, not probabilistically.
  EXPECT_TRUE(decisions[0]);  // Counter starts at 0 → first query sampled.
  EXPECT_EQ(sampler.sampled(), 4u);

  sampler.Configure(/*every_n=*/1, /*arm_threshold_us=*/0);
  EXPECT_TRUE(sampler.Sample());  // N = 1 traces everything.
}

TEST(SamplerTest, DisabledSamplerNeitherSamplesNorAdvances) {
  obs::TraceSampler sampler;
  sampler.Configure(/*every_n=*/2, /*arm_threshold_us=*/0);
  EXPECT_TRUE(sampler.Sample());  // Counter 0 → sampled.
  sampler.Configure(/*every_n=*/0, /*arm_threshold_us=*/0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(sampler.Sample());
  // N = 0 short-circuits before touching the counter, so re-enabling
  // continues the old cadence: counter is at 1, so the next yes is one
  // query away.
  sampler.Configure(/*every_n=*/2, /*arm_threshold_us=*/0);
  EXPECT_FALSE(sampler.Sample());
  EXPECT_TRUE(sampler.Sample());
  EXPECT_EQ(sampler.sampled(), 2u);
}

TEST(SamplerTest, TailArmingForcesNextBudgetQueries) {
  obs::TraceSampler sampler;
  sampler.Configure(/*every_n=*/0, /*arm_threshold_us=*/100, /*arm_budget=*/3);
  EXPECT_FALSE(sampler.Sample());  // Sampling off, nothing armed.

  sampler.Observe(99);  // Below threshold: no arming.
  EXPECT_EQ(sampler.slow_observed(), 0u);
  EXPECT_FALSE(sampler.Sample());

  sampler.Observe(100);  // At threshold: arms the next 3 queries.
  EXPECT_EQ(sampler.slow_observed(), 1u);
  EXPECT_EQ(sampler.armed_remaining(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(sampler.Sample()) << "armed query " << i;
  }
  EXPECT_FALSE(sampler.Sample());  // Budget spent.
  EXPECT_EQ(sampler.armed_remaining(), 0u);
  EXPECT_EQ(sampler.sampled(), 3u);

  // A fresh slow observation re-arms the full budget.
  sampler.Observe(5000);
  EXPECT_EQ(sampler.armed_remaining(), 3u);

  sampler.ResetCounters();
  EXPECT_EQ(sampler.sampled(), 0u);
  EXPECT_EQ(sampler.slow_observed(), 0u);
  EXPECT_EQ(sampler.armed_remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Flight recorder: retention, slow routing, and the batched span-attr write
// ---------------------------------------------------------------------------

TEST(TraceTest, SetAttrsAppendsWholeBatchUnderOneLock) {
  obs::QueryTrace trace;
  const obs::SpanId span = trace.BeginSpan("fetch.demand", obs::kNoSpan);
  trace.SetAttrs(span, {{"edge", int64_t{7}},
                        {"kind", std::string("delta")},
                        {"bytes", int64_t{512}},
                        {"ratio", 0.25}});
  trace.SetAttrs(obs::SpanId{99}, {{"ignored", int64_t{1}}});  // Bad id: no-op.
  trace.EndSpan(span);
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 4u);
  EXPECT_EQ(spans[0].attrs[0].first, "edge");
  EXPECT_EQ(std::get<int64_t>(spans[0].attrs[0].second), 7);
  EXPECT_EQ(std::get<std::string>(spans[0].attrs[1].second), "delta");
  EXPECT_EQ(std::get<double>(spans[0].attrs[3].second), 0.25);

  obs::ScopedSpan no_trace(obs::TraceCtx{}, "nothing");
  no_trace.SetAttrs({{"k", int64_t{1}}});  // Must not crash.
}

TEST(FlightRecorderTest, RecentRingTrimsAndSlowLogRetains) {
  obs::FlightRecorder recorder;
  recorder.Configure(/*recent_capacity=*/4, /*slow_capacity=*/2,
                     /*slow_threshold_us=*/0);
  // Six fast traces cycle the recent ring; only the last four survive.
  for (int i = 0; i < 6; ++i) {
    obs::QueryTrace trace;
    trace.set_query_label("q" + std::to_string(i));
    trace.Finish();
    recorder.Record(trace);
  }
  auto recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().label, "q2");
  EXPECT_EQ(recent.back().label, "q5");
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.slow_recorded(), 0u);
  EXPECT_TRUE(recorder.Slow().empty());

  // Event-carrying traces route to the slow log regardless of latency; the
  // slow log keeps its own capacity and survives recent-ring churn.
  for (int i = 0; i < 3; ++i) {
    obs::QueryTrace trace;
    trace.set_query_label("slow" + std::to_string(i));
    trace.set_event("deadline");
    trace.Finish();
    recorder.Record(trace);
  }
  for (int i = 0; i < 8; ++i) {  // Churn the recent ring past the slow ones.
    obs::QueryTrace trace;
    trace.set_query_label("churn");
    trace.Finish();
    recorder.Record(trace);
  }
  auto slow = recorder.Slow();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].label, "slow1");
  EXPECT_EQ(slow[1].label, "slow2");
  EXPECT_EQ(slow[0].event, "deadline");
  EXPECT_EQ(recorder.slow_recorded(), 3u);

  // Sequence numbers are process-order monotone across both logs.
  recent = recorder.Recent();
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_GT(recent[i].seq, recent[i - 1].seq);
  }

  recorder.Clear();
  EXPECT_TRUE(recorder.Recent().empty());
  EXPECT_TRUE(recorder.Slow().empty());
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(FlightRecorderTest, RecordPreservesIdentityAndSpanTree) {
  obs::FlightRecorder recorder;
  recorder.Configure(8, 8, /*slow_threshold_us=*/0);

  obs::QueryTrace trace;
  trace.set_query_label("tail_query");
  trace.set_epoch(42);
  trace.set_event_count(31337);
  trace.set_shard_skew(1.75);
  trace.set_event("slow");
  const obs::SpanId root = trace.BeginSpan("query", obs::kNoSpan);
  const obs::SpanId child = trace.BeginSpan("fetch.demand", root);
  trace.SetAttrs(child, {{"kv_keys", int64_t{3}}});
  trace.fetches_total.fetch_add(4);
  trace.fetches_prefetched.fetch_add(2);
  trace.kv_reads.fetch_add(3);
  trace.bytes_read.fetch_add(2048);
  trace.EndSpan(child);
  trace.EndSpan(root);
  trace.Finish();
  recorder.Record(trace);

  auto slow = recorder.Slow();
  ASSERT_EQ(slow.size(), 1u);  // The "slow" event routed it.
  const obs::FlightEntry& e = slow[0];
  EXPECT_EQ(e.label, "tail_query");
  EXPECT_EQ(e.epoch, 42u);
  EXPECT_EQ(e.event_count, 31337u);
  EXPECT_DOUBLE_EQ(e.shard_skew, 1.75);
  EXPECT_DOUBLE_EQ(e.prefetch_coverage, 0.5);
  EXPECT_EQ(e.fetches_total, 4u);
  EXPECT_EQ(e.kv_reads, 3u);
  EXPECT_EQ(e.bytes_read, 2048u);
  EXPECT_TRUE(e.has_trace);
  ASSERT_EQ(e.spans.size(), 2u);
  EXPECT_EQ(e.spans[1].name, "fetch.demand");

  // The lazily rendered JSON carries the span tree and identity fields.
  std::string err;
  const obs::JsonValue parsed = obs::JsonValue::Parse(e.ToJSON(), &err);
  ASSERT_TRUE(parsed.is_object()) << err;
  EXPECT_EQ(parsed["epoch"].AsInt(), 42);
  EXPECT_EQ(parsed["event_count"].AsInt(), 31337);
  EXPECT_EQ(parsed["event"].AsString(), "slow");
  EXPECT_EQ(parsed["spans"].Items().size(), 2u);
  const obs::JsonValue whole = obs::JsonValue::Parse(recorder.ToJSON(), &err);
  ASSERT_TRUE(whole.is_object()) << err;
  EXPECT_EQ(whole["slow"].Items().size(), 1u);
  EXPECT_EQ(whole["recent"].Items().size(), 1u);
}

TEST(FlightRecorderTest, ConcurrentRecordsAllCounted) {
  // Run under TSan in CI: 8 threads push traced and event entries through
  // the one push mutex; counters stay exact and capacities hold.
  obs::FlightRecorder recorder;
  recorder.Configure(/*recent_capacity=*/64, /*slow_capacity=*/16,
                     /*slow_threshold_us=*/0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 4 == 0) {
          recorder.RecordEvent("evt", "deadline", 1000.0, /*epoch=*/t,
                               /*event_count=*/i);
        } else {
          obs::QueryTrace trace;
          const obs::SpanId s = trace.BeginSpan("query", obs::kNoSpan);
          trace.EndSpan(s);
          trace.Finish();
          recorder.Record(trace);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recorder.recorded(), uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(recorder.slow_recorded(), uint64_t(kThreads) * kPerThread / 4);
  EXPECT_EQ(recorder.Recent().size(), 64u);
  EXPECT_EQ(recorder.Slow().size(), 16u);
  // Within each log every retained seq is unique (a slow entry carries the
  // same seq in both logs — it is one record, retained twice).
  for (const auto& entries : {recorder.Recent(), recorder.Slow()}) {
    std::vector<uint64_t> seqs;
    for (const auto& e : entries) seqs.push_back(e.seq);
    std::sort(seqs.begin(), seqs.end());
    EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end());
  }
}

// ---------------------------------------------------------------------------
// Concurrent trace dumping: whole lines, never interleaved
// ---------------------------------------------------------------------------

TEST(TraceTest, ConcurrentDumpsEmitWholeJSONLines) {
  // HISTGRAPH_TRACE_OUT emission is serialized under a process-wide mutex;
  // with 8 sessions finishing at once every line in the file must still
  // parse as one complete JSON object.
  ObsGateGuard guard;
  const std::string path = ::testing::TempDir() + "/hgdb_trace_dump_test.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("HISTGRAPH_TRACE", "1", 1), 0);
  ASSERT_EQ(setenv("HISTGRAPH_TRACE_OUT", path.c_str(), 1), 0);

  constexpr int kThreads = 8;
  constexpr int kTracesPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kTracesPerThread; ++i) {
        obs::QueryTrace trace;
        trace.set_query_label("dump_t" + std::to_string(t));
        // A multi-KB line: enough spans that an unserialized write would
        // visibly interleave.
        obs::SpanId parent = obs::kNoSpan;
        for (int s = 0; s < 40; ++s) {
          const obs::SpanId id = trace.BeginSpan("span" + std::to_string(s),
                                                 parent);
          trace.SetAttrs(id, {{"i", int64_t{i}}, {"s", int64_t{s}}});
          parent = id;
        }
        obs::FinishAndMaybeDump(&trace);
      }
    });
  }
  for (auto& th : threads) th.join();
  unsetenv("HISTGRAPH_TRACE");
  unsetenv("HISTGRAPH_TRACE_OUT");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string err;
    const obs::JsonValue parsed = obs::JsonValue::Parse(line, &err);
    ASSERT_TRUE(parsed.is_object())
        << "line " << lines << " is not whole JSON: " << err;
    EXPECT_EQ(parsed["spans"].Items().size(), 40u);
    ++lines;
  }
  EXPECT_EQ(lines, kThreads * kTracesPerThread);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hgdb
