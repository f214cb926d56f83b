// Tests for the plan-execution subsystem (src/exec/): TaskPool semantics,
// executor determinism against naive replay across seeds and thread counts
// (parallelism 1 included), batched RetrievalSessions, and concurrent-retrieval
// stress (the latter two double as the ThreadSanitizer workload in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_set>

#include "deltagraph/delta_graph.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "exec/io_pool.h"
#include "exec/parallel_executor.h"
#include "exec/prefetcher.h"
#include "exec/retrieval_session.h"
#include "exec/task_pool.h"
#include "tests/test_oracle.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/trace_world.h"

namespace hgdb {
namespace {

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

TEST(TaskPoolTest, RunsAllSpawnedTasks) {
  TaskPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 200; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 200);
}

TEST(TaskPoolTest, NestedSpawnsAreAwaited) {
  TaskPool pool(3);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Spawn([&] {
      ran.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 4; ++j) {
        group.Spawn([&] {
          ran.fetch_add(1, std::memory_order_relaxed);
          group.Spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
        });
      }
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 8 + 8 * 4 + 8 * 4);
}

TEST(TaskPoolTest, SerialPoolRunsInline) {
  TaskPool pool(1);  // No workers: Submit executes before returning.
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);
  TaskGroup group(&pool);
  int order_probe = 0;
  group.Spawn([&order_probe] { order_probe = 42; });
  EXPECT_EQ(order_probe, 42);  // Already done, not merely queued.
  group.Wait();
}

TEST(TaskPoolTest, WaitIsReusable) {
  TaskPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Spawn([&] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 1);
  group.Spawn([&] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 2);
}

// ---------------------------------------------------------------------------
// Executor determinism: every pool size == replay, element for element
// ---------------------------------------------------------------------------

struct BuiltIndex {
  std::unique_ptr<KVStore> store;
  std::unique_ptr<DeltaGraph> dg;
  std::vector<Event> events;
};

BuiltIndex BuildRandomIndex(uint64_t seed, size_t num_events,
                            size_t post_finalize_events = 0,
                            const KVStoreOptions& kv_opts = {}) {
  RandomTraceOptions topts;
  topts.num_events = num_events + post_finalize_events;
  topts.seed = seed;
  GeneratedTrace trace = GenerateRandomTrace(topts);

  BuiltIndex built;
  built.store = NewMemKVStore(kv_opts);
  DeltaGraphOptions opts;
  opts.leaf_size = std::max<size_t>(50, num_events / 24);  // Many leaves.
  opts.arity = 2;
  opts.functions = {"intersection"};
  auto dg = DeltaGraph::Create(built.store.get(), opts);
  EXPECT_TRUE(dg.ok());
  built.dg = std::move(dg).value();
  std::vector<Event> indexed(trace.events.begin(),
                             trace.events.begin() + num_events);
  EXPECT_TRUE(built.dg->AppendAll(indexed).ok());
  EXPECT_TRUE(built.dg->Finalize().ok());
  // Trailing un-finalized events exercise the kApplyRecentEvents step —
  // including events whose timestamp equals the last indexed event's, which
  // Finalize's boundary holdback keeps strictly inside the recent interval.
  for (size_t i = num_events; i < trace.events.size(); ++i) {
    EXPECT_TRUE(built.dg->Append(trace.events[i]).ok());
  }
  built.events = std::move(trace.events);
  return built;
}

size_t CountSteps(const PlanNode& node, PlanStep::Kind kind) {
  size_t n = 0;
  for (const auto& [step, child] : node.children) {
    n += (step.kind == kind ? 1 : 0) + CountSteps(*child, kind);
  }
  return n;
}

// Expects `got` to equal naive replay of `events` at each of `times`.
void ExpectMatchesReplay(const std::vector<Snapshot>& got,
                         const std::vector<Event>& events,
                         const std::vector<Timestamp>& times, unsigned components,
                         const std::string& context) {
  ASSERT_EQ(got.size(), times.size()) << context;
  for (size_t i = 0; i < times.size(); ++i) {
    const Snapshot expected = ReplayAt(events, times[i], components);
    EXPECT_TRUE(got[i].Equals(expected))
        << context << " t=" << times[i] << "\n" << got[i].DiffString(expected);
  }
}

TEST(ParallelExecutorTest, MatchesReplayAcrossSeedsAndThreadCounts) {
  TaskPool pool1(1), pool2(2), pool8(8);
  for (uint64_t seed : {11u, 1234u, 990017u}) {
    BuiltIndex built = BuildRandomIndex(seed, 3000, /*post_finalize_events=*/150);
    test::SeededRng rng(seed * 31 + 7);
    for (unsigned components : {unsigned{kCompAll}, unsigned{kCompStruct}}) {
      for (int k : {2, 5, 9}) {
        const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, k);
        // nullptr = forced serial (TaskPool::Serial()); pool1 is a private
        // parallelism-1 pool, where every spawn runs inline.
        for (TaskPool* pool :
             {static_cast<TaskPool*>(nullptr), &pool1, &pool2, &pool8}) {
          built.dg->SetTaskPool(pool);
          auto got = built.dg->GetSnapshots(times, components);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectMatchesReplay(got.value(), built.events, times, components,
                              "seed=" + std::to_string(seed) + " threads=" +
                                  std::to_string(pool ? pool->parallelism() : 0) +
                                  " components=" + std::to_string(components));
        }
      }
    }
    built.dg->SetTaskPool(nullptr);
  }
}

TEST(ParallelExecutorTest, MaterializedStartsMatchReplay) {
  BuiltIndex built = BuildRandomIndex(77, 2500);
  ASSERT_TRUE(built.dg->MaterializeDepth(1).ok());
  test::SeededRng rng(99);
  const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, 7);

  TaskPool pool4(4);
  for (TaskPool* pool : {static_cast<TaskPool*>(nullptr), &pool4}) {
    built.dg->SetTaskPool(pool);
    auto got = built.dg->GetSnapshots(times, kCompAll);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectMatchesReplay(got.value(), built.events, times, kCompAll,
                        pool ? "pool4" : "serial");
  }
}

// Branchy plans on a parallelism-1 pool: the fork walk runs every sibling
// subtree inline, one after another, on the caller's thread. Covers the
// materialization plan itself (MaterializeDepth on a forced-serial index
// runs a branchy PlanNodes plan) and multipoint plans that start from the
// materialized nodes, the current graph and the recent tail.
TEST(ParallelExecutorTest, BranchyPlansOnSerialPoolMatchReplay) {
  BuiltIndex built = BuildRandomIndex(4711, 2600, /*post_finalize_events=*/90);
  built.dg->SetTaskPool(nullptr);  // Forced serial: TaskPool::Serial().
  auto mat = built.dg->MaterializeDepth(2);
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  ASSERT_GE(mat.value(), 2u);
  test::SeededRng rng(8);
  TaskPool pool1(1);
  size_t materialized_starts = 0;
  for (TaskPool* pool : {static_cast<TaskPool*>(nullptr), &pool1}) {
    built.dg->SetTaskPool(pool);
    for (int k : {3, 6, 10}) {
      std::vector<Timestamp> times = test::RandomTimes(rng, built.events, k);
      times.push_back(built.events.back().time);  // Served by the current graph.
      auto plan = built.dg->PlanFor(times);
      ASSERT_TRUE(plan.ok());
      ASSERT_TRUE(PlanHasBranches(plan.value())) << "k=" << k;
      materialized_starts += CountSteps(*plan.value().root,
                                        PlanStep::Kind::kLoadMaterialized);
      auto got = built.dg->GetSnapshots(times, kCompAll);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectMatchesReplay(got.value(), built.events, times, kCompAll,
                          "k=" + std::to_string(k));
    }
  }
  EXPECT_GT(materialized_starts, 0u) << "no plan started from a materialized node";
  built.dg->SetTaskPool(nullptr);
}

TEST(ParallelExecutorTest, PlanHasBranchesDetectsLinearChains) {
  BuiltIndex built = BuildRandomIndex(5, 1500);
  auto single = built.dg->PlanFor({built.events.back().time / 2});
  ASSERT_TRUE(single.ok());
  EXPECT_FALSE(PlanHasBranches(single.value()));  // Singlepoint = linear.
}

// ---------------------------------------------------------------------------
// Prefetch pipeline
// ---------------------------------------------------------------------------

TEST(PrefetchTest, PlanPreScanDedupesAndSkipsInMemorySteps) {
  BuiltIndex built = BuildRandomIndex(31, 2000, /*post_finalize_events=*/60);
  test::SeededRng rng(3);
  auto plan = built.dg->PlanFor(test::RandomTimes(rng, built.events, 6));
  ASSERT_TRUE(plan.ok());
  const std::vector<PlanFetch> fetches = CollectPlanFetches(plan.value());
  ASSERT_FALSE(fetches.empty());
  std::unordered_set<int32_t> seen;
  for (const PlanFetch& f : fetches) {
    EXPECT_TRUE(seen.insert(f.edge).second) << "duplicate edge " << f.edge;
    EXPECT_EQ(built.dg->skeleton().edge(f.edge).is_eventlist, f.is_eventlist);
  }
}

// The acceptance property of the async fetch layer: prefetch on/off,
// serial/parallel, and fetch latency 0/100us must all produce
// element-identical snapshots (prefetch only warms the cache; it never
// changes apply order).
TEST(PrefetchTest, PrefetchOnOffSerialParallelLatencyAllAgree) {
  for (uint32_t latency_us : {0u, 100u}) {
    KVStoreOptions kv;
    kv.read_latency_us = latency_us;
    BuiltIndex built =
        BuildRandomIndex(4242 + latency_us, 2200, /*post_finalize_events=*/120, kv);
    built.dg->SetDecodedCacheCapacity(0);  // Every run pays real fetches.
    test::SeededRng rng(17);
    const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, 6);

    built.dg->SetTaskPool(nullptr);
    built.dg->SetIoPool(nullptr);  // Blocking-fetch serial baseline.
    auto baseline = built.dg->GetSnapshots(times, kCompAll);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_TRUE(baseline.value()[i].Equals(ReplayAt(built.events, times[i])))
          << "baseline diverges from replay at t=" << times[i];
    }

    TaskPool pool4(4);
    IoPool io3(3);
    for (TaskPool* pool : std::vector<TaskPool*>{nullptr, &pool4}) {
      for (IoPool* io : std::vector<IoPool*>{nullptr, &io3}) {
        built.dg->SetTaskPool(pool);
        built.dg->SetIoPool(io);
        auto got = built.dg->GetSnapshots(times, kCompAll);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        for (size_t i = 0; i < times.size(); ++i) {
          EXPECT_TRUE(got.value()[i].Equals(baseline.value()[i]))
              << "latency=" << latency_us << "us pool=" << (pool ? 4 : 1)
              << " prefetch=" << (io != nullptr) << " t=" << times[i] << "\n"
              << got.value()[i].DiffString(baseline.value()[i]);
        }
      }
    }
  }
}

// Sessions share one prefetched fetch pin across requests; results must match
// per-request direct retrieval with prefetching disabled.
TEST(PrefetchTest, SessionWithPrefetchMatchesBlockingRetrieval) {
  KVStoreOptions kv;
  kv.read_latency_us = 50;
  BuiltIndex built = BuildRandomIndex(777, 2000, /*post_finalize_events=*/80, kv);
  built.dg->SetDecodedCacheCapacity(0);
  test::SeededRng rng(23);
  std::vector<std::vector<Timestamp>> batches;
  for (int i = 0; i < 4; ++i) batches.push_back(test::RandomTimes(rng, built.events, 4));

  TaskPool pool(4);
  IoPool io(2);
  built.dg->SetIoPool(&io);
  RetrievalSession session(built.dg.get(), &pool);
  std::vector<RetrievalSession::Request*> tickets;
  for (const auto& b : batches) tickets.push_back(session.Submit(b));
  ASSERT_TRUE(session.Wait().ok());

  built.dg->SetTaskPool(nullptr);
  built.dg->SetIoPool(nullptr);
  for (size_t i = 0; i < batches.size(); ++i) {
    auto expect = built.dg->GetSnapshots(batches[i], kCompAll);
    ASSERT_TRUE(expect.ok());
    for (size_t j = 0; j < batches[i].size(); ++j) {
      EXPECT_TRUE(tickets[i]->result.value()[j].Equals(expect.value()[j]))
          << "request " << i << " time index " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// RetrievalSession: one suite over both index shapes
// ---------------------------------------------------------------------------

// One point of the session matrix: shard count (0 = a plain DeltaGraph),
// compute pool parallelism (1 = TaskPool::Serial()), I/O threads (0 = none).
struct SessionShape {
  size_t shards;
  int threads;
  int io_threads;
};

std::string SessionShapeName(const testing::TestParamInfo<SessionShape>& info) {
  const SessionShape& s = info.param;
  return (s.shards == 0 ? std::string("Plain") : "P" + std::to_string(s.shards)) +
         (s.threads == 1 ? "_Serial" : "_Pool" + std::to_string(s.threads)) +
         (s.io_threads == 0 ? "_NoIo" : "_Io" + std::to_string(s.io_threads));
}

class RetrievalSessionTest : public testing::TestWithParam<SessionShape> {
 protected:
  void SetUp() override {
    const SessionShape& s = GetParam();
    if (s.threads > 1) own_pool_ = std::make_unique<TaskPool>(s.threads);
    if (s.io_threads > 0) io_ = std::make_unique<IoPool>(s.io_threads);
    topts_.num_events = 1200;
    topts_.seed = 4000 + s.shards;
    log_ = GenerateRandomTrace(topts_).events;
  }

  TaskPool* pool() { return own_pool_ ? own_pool_.get() : &TaskPool::Serial(); }

  // Indexes the first `indexed` events of the log (cutting leaves of
  // `leaf_size` and finalizing when `finalize`), then appends the rest
  // un-finalized, so plans also replay the recent tail.
  void Build(size_t indexed, size_t leaf_size, bool finalize) {
    store_ = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = leaf_size;
    opts.arity = 2;
    const std::vector<Event> head(log_.begin(), log_.begin() + indexed);
    const std::vector<Event> tail(log_.begin() + indexed, log_.end());
    if (GetParam().shards == 0) {
      auto dg = DeltaGraph::Create(store_.get(), opts);
      ASSERT_TRUE(dg.ok());
      dg_ = std::move(dg).value();
      dg_->SetTaskPool(pool());
      dg_->SetIoPool(io_.get());
      ASSERT_TRUE(dg_->AppendAll(head).ok());
      if (finalize) ASSERT_TRUE(dg_->Finalize().ok());
      ASSERT_TRUE(dg_->AppendAll(tail).ok());
    } else {
      auto pdg = PartitionedDeltaGraph::Create(store_.get(), GetParam().shards, opts);
      ASSERT_TRUE(pdg.ok());
      pdg_ = std::move(pdg).value();
      pdg_->SetTaskPool(pool());
      pdg_->SetIoPool(io_.get());
      ASSERT_TRUE(pdg_->AppendAll(head).ok());
      if (finalize) ASSERT_TRUE(pdg_->Finalize().ok());
      ASSERT_TRUE(pdg_->AppendAll(tail).ok());
    }
  }

  std::unique_ptr<RetrievalSession> NewSession() {
    return dg_ != nullptr ? std::make_unique<RetrievalSession>(dg_.get(), pool())
                          : std::make_unique<RetrievalSession>(pdg_.get(), pool());
  }

  // Expects `req` to equal naive replay of the log at each of its times.
  void ExpectReplay(const RetrievalSession::Request& req) {
    ASSERT_TRUE(req.result.ok()) << req.result.status().ToString();
    ASSERT_EQ(req.result.value().size(), req.times.size());
    for (size_t i = 0; i < req.times.size(); ++i) {
      const auto oracle =
          test::NaiveReplayOracle::At(log_, req.times[i], req.components);
      EXPECT_TRUE(oracle.Matches(req.result.value()[i]))
          << "t=" << req.times[i] << " components=" << req.components;
    }
  }

  RandomTraceOptions topts_;
  std::vector<Event> log_;
  std::unique_ptr<TaskPool> own_pool_;
  std::unique_ptr<IoPool> io_;
  std::unique_ptr<KVStore> store_;
  std::unique_ptr<DeltaGraph> dg_;
  std::unique_ptr<PartitionedDeltaGraph> pdg_;
};

TEST_P(RetrievalSessionTest, MixedComponentMasksMatchReplay) {
  Build(log_.size() - 60, 40, /*finalize=*/true);
  test::SeededRng rng(17);
  const unsigned masks[] = {kCompAll, kCompStruct, kCompStruct | kCompNodeAttr,
                            kCompStruct | kCompEdgeAttr, kCompAll};
  auto session = NewSession();
  std::vector<RetrievalSession::Request*> requests;
  for (unsigned mask : masks) {
    requests.push_back(session->Submit(test::RandomTimes(rng, log_, 3), mask));
  }
  ASSERT_TRUE(session->Wait().ok());
  for (const auto* req : requests) ExpectReplay(*req);
}

TEST_P(RetrievalSessionTest, EmptyRequestAndRepeatedTimes) {
  Build(log_.size() - 60, 40, /*finalize=*/true);
  const Timestamp mid = log_[log_.size() / 2].time;
  const Timestamp late = log_[log_.size() - 20].time;
  auto session = NewSession();
  auto* empty = session->Submit({});
  auto* repeated = session->Submit({mid, late, mid, mid});
  ASSERT_TRUE(session->Wait().ok());
  ASSERT_TRUE(empty->result.ok());
  EXPECT_TRUE(empty->result.value().empty());
  ExpectReplay(*repeated);
}

TEST_P(RetrievalSessionTest, WaitTwiceKeepsResults) {
  Build(log_.size() - 60, 40, /*finalize=*/true);
  test::SeededRng rng(29);
  auto session = NewSession();
  auto* a = session->Submit(test::RandomTimes(rng, log_, 4));
  auto* b = session->Submit(test::RandomTimes(rng, log_, 2), kCompStruct);
  ASSERT_TRUE(session->Wait().ok());
  ASSERT_TRUE(session->Wait().ok());
  ExpectReplay(*a);
  ExpectReplay(*b);
}

// The first append cuts leaf 0, so only an index without events has cut no
// leaf: every shard then replays its (empty) pinned recent view.
TEST_P(RetrievalSessionTest, IndexWithNoLeafFallsBackOnEveryShard) {
  test::SeededRng rng(41);
  const std::vector<Timestamp> times = test::RandomTimes(rng, log_, 4);
  log_.clear();
  Build(0, 40, /*finalize=*/false);
  auto session = NewSession();
  auto* req = session->Submit(times);
  ASSERT_TRUE(session->Wait().ok());
  ExpectReplay(*req);
  const size_t shards = std::max<size_t>(1, GetParam().shards);
  ASSERT_EQ(req->plans.size(), shards);
  for (const Plan& plan : req->plans) EXPECT_EQ(plan.root, nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RetrievalSessionTest,
    testing::ValuesIn([] {
      std::vector<SessionShape> shapes;
      for (size_t shards : {0, 2, 4}) {
        for (int threads : {1, 4}) {
          for (int io_threads : {0, 2}) shapes.push_back({shards, threads, io_threads});
        }
      }
      return shapes;
    }()),
    SessionShapeName);

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan workload)
// ---------------------------------------------------------------------------

TEST(ExecStressTest, ConcurrentSessionsOverOneIndex) {
  BuiltIndex built = BuildRandomIndex(2024, 2500, 120);
  built.dg->SetDecodedCacheCapacity(4);  // Force LRU churn + eviction races.
  TaskPool pool(4);
  built.dg->SetTaskPool(&pool);

  constexpr int kDrivers = 4;
  constexpr int kRoundsPerDriver = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      test::SeededRng rng(9000 + d);
      for (int round = 0; round < kRoundsPerDriver; ++round) {
        RetrievalSession session(built.dg.get(), &pool);
        std::vector<std::vector<Timestamp>> batches;
        std::vector<RetrievalSession::Request*> tickets;
        for (int r = 0; r < 3; ++r) {
          batches.push_back(test::RandomTimes(rng, built.events, 3 + r));
          tickets.push_back(session.Submit(batches.back()));
        }
        if (!session.Wait().ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < tickets.size(); ++r) {
          for (size_t j = 0; j < batches[r].size(); ++j) {
            Snapshot expected = ReplayAt(built.events, batches[r][j]);
            if (!tickets[r]->result.value()[j].Equals(expected)) {
              failures.fetch_add(1);
              ADD_FAILURE() << "driver " << d << " round " << round << " req " << r
                            << " t=" << batches[r][j] << "\n"
                            << tickets[r]->result.value()[j].DiffString(expected);
            }
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ExecStressTest, ConcurrentDirectGetSnapshots) {
  BuiltIndex built = BuildRandomIndex(555, 2000, 80);
  TaskPool pool(3);
  built.dg->SetTaskPool(&pool);

  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&, d] {
      test::SeededRng rng(70 + d);
      for (int round = 0; round < 4; ++round) {
        // Mix multipoint with singlepoint (the latter contends on the
        // SSSP plan cache).
        const int k = (round % 2 == 0) ? 4 : 1;
        const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, k);
        auto snaps = built.dg->GetSnapshots(times, kCompAll);
        if (!snaps.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < times.size(); ++i) {
          if (!snaps.value()[i].Equals(ReplayAt(built.events, times[i]))) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace hgdb
