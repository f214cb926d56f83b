// Randomized replay-oracle harness: ~50 seeded random workloads (interleaved
// appends and finalizes, equal-time runs, attribute churn, deletes, random
// leaf sizes / arities / differential functions, optional materialized
// starts) are indexed into a DeltaGraph, and every retrieval path — the plan
// executor forced serial and at 2 and 8 threads, each with prefetching on and
// off, across component subsets — is checked element-for-element against a
// NaiveReplayOracle that rebuilds each requested snapshot by replaying the
// full event log into plain std containers (tests/test_oracle.h). This is
// the safety net for the chunked-overlay COW stores: aliasing bugs between
// snapshots that share chunks show up here as concrete element diffs.
//
// Any failure prints the workload seed; HISTGRAPH_TEST_SEED=<seed> reruns
// exactly that workload (see tests/README.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deltagraph/delta_graph.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "exec/io_pool.h"
#include "exec/retrieval_session.h"
#include "exec/task_pool.h"
#include "kvstore/kv_store.h"
#include "tests/test_oracle.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

struct OracleWorkload {
  std::unique_ptr<KVStore> store;
  std::unique_ptr<DeltaGraph> dg;
  std::vector<Event> log;  // Full append-order event log (the ground truth).
};

// Builds a randomized index: trace shape, index geometry, the differential
// function, the number of append/finalize rounds, materialization, and cache
// capacity all derive from the seed.
OracleWorkload BuildWorkload(test::SeededRng& rng) {
  RandomTraceOptions topts;
  topts.num_events = 400 + rng.Uniform(800);
  topts.seed = rng.seed() * 977 + 13;
  topts.p_same_time = 0.10 + rng.NextDouble() * 0.35;  // Equal-time runs.
  topts.p_del_edge = 0.06 + rng.NextDouble() * 0.14;   // Deletes.
  topts.p_del_node = rng.NextDouble() * 0.05;
  topts.p_node_attr = 0.10 + rng.NextDouble() * 0.20;  // Attribute churn.
  topts.p_edge_attr = 0.05 + rng.NextDouble() * 0.15;
  GeneratedTrace trace = GenerateRandomTrace(topts);

  OracleWorkload w;
  w.store = NewMemKVStore();
  DeltaGraphOptions opts;
  opts.leaf_size = 40 + rng.Uniform(120);
  opts.arity = 2 + static_cast<int>(rng.Uniform(3));
  const char* kFunctions[] = {"intersection", "union", "balanced"};
  opts.functions = {kFunctions[rng.Uniform(3)]};
  auto dg = DeltaGraph::Create(w.store.get(), opts);
  EXPECT_TRUE(dg.ok());
  w.dg = std::move(dg).value();

  // Interleave appends with 1..4 finalizes; a final partial segment is
  // sometimes left unfinalized so the recent-eventlist path is exercised.
  const size_t rounds = 1 + rng.Uniform(4);
  std::vector<size_t> cuts;
  for (size_t i = 0; i + 1 < rounds; ++i) {
    cuts.push_back(1 + rng.Uniform(trace.events.size() - 1));
  }
  cuts.push_back(trace.events.size());
  std::sort(cuts.begin(), cuts.end());
  size_t next = 0;
  for (size_t i = 0; i < cuts.size(); ++i) {
    for (; next < cuts[i]; ++next) {
      EXPECT_TRUE(w.dg->Append(trace.events[next]).ok())
          << trace.events[next].ToString();
    }
    const bool last_segment = i + 1 == cuts.size();
    if (!last_segment || rng.Chance(0.75)) {
      EXPECT_TRUE(w.dg->Finalize().ok());
    }
  }
  if (rng.Chance(0.4)) {
    EXPECT_TRUE(w.dg->MaterializeDepth(rng.Uniform(2) == 0 ? 0 : 1).ok());
  }
  if (rng.Chance(0.3)) w.dg->SetDecodedCacheCapacity(0);  // Real fetches only.
  w.log = std::move(trace.events);
  return w;
}

TEST(ReplayOracleTest, AllRetrievalPathsMatchNaiveReplay) {
  TaskPool pool2(2), pool8(8);
  IoPool io(2);
  TaskPool* const pools[] = {nullptr, &pool2, &pool8};
  IoPool* const ios[] = {nullptr, &io};
  const unsigned component_sets[] = {kCompAll, kCompStruct,
                                     kCompNodeAttr | kCompEdgeAttr};

  for (uint64_t seed : test::PropertySeeds(50, 5000)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());
    OracleWorkload w = BuildWorkload(rng);

    // Query times: random over (and slightly beyond) the span, plus exact
    // event timestamps (boundary-equal retrievals), plus a duplicate.
    std::vector<Timestamp> times = test::RandomTimes(rng, w.log, 5);
    times.push_back(w.log[rng.Uniform(w.log.size())].time);
    times.push_back(w.log.back().time);

    for (unsigned components : component_sets) {
      // One oracle per distinct requested time.
      std::map<Timestamp, test::NaiveReplayOracle> oracles;
      for (Timestamp t : times) {
        if (oracles.count(t) == 0) {
          oracles.emplace(t, test::NaiveReplayOracle::At(w.log, t, components));
        }
      }

      for (TaskPool* pool : pools) {
        for (IoPool* iop : ios) {
          w.dg->SetTaskPool(pool);
          w.dg->SetIoPool(iop);
          SCOPED_TRACE("threads=" + std::to_string(pool ? pool->parallelism() : 1) +
                       " prefetch=" + std::to_string(iop != nullptr) +
                       " components=" + std::to_string(components));
          auto got = w.dg->GetSnapshots(times, components);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got.value().size(), times.size());
          for (size_t i = 0; i < times.size(); ++i) {
            EXPECT_TRUE(oracles.at(times[i]).Matches(got.value()[i]))
                << "t=" << times[i];
          }
        }
      }

      // Singlepoint retrieval (linear plan + SSSP plan cache) on the serial
      // configuration.
      w.dg->SetTaskPool(nullptr);
      w.dg->SetIoPool(nullptr);
      for (size_t i = 0; i < 2 && i < times.size(); ++i) {
        auto got = w.dg->GetSnapshot(times[i], components);
        ASSERT_TRUE(got.ok()) << got.status().ToString() << " singlepoint t="
                              << times[i] << " components=" << components;
        EXPECT_TRUE(oracles.at(times[i]).Matches(got.value()))
            << "singlepoint t=" << times[i] << " components=" << components;
      }
    }
  }
}

// The sharded index under the same harness: the identical randomized
// workloads are split across shard counts {1, 2, 4} by chunk-aligned hash
// routing, ingested in parallel, and every retrieval mode — serial and
// parallel shard execution, prefetch on and off — must be element-identical
// to the single-log naive replay. Partitioning must be invisible in the
// result.
TEST(ReplayOracleTest, PartitionedRetrievalMatchesNaiveReplay) {
  TaskPool pool(4);
  IoPool io(2);
  TaskPool* const pools[] = {nullptr, &pool};
  IoPool* const ios[] = {nullptr, &io};

  for (uint64_t seed : test::PropertySeeds(12, 6200)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());

    RandomTraceOptions topts;
    topts.num_events = 400 + rng.Uniform(800);
    topts.seed = rng.seed() * 977 + 13;
    topts.p_same_time = 0.10 + rng.NextDouble() * 0.35;
    topts.p_del_edge = 0.06 + rng.NextDouble() * 0.14;
    topts.p_del_node = rng.NextDouble() * 0.05;
    topts.p_node_attr = 0.10 + rng.NextDouble() * 0.20;
    topts.p_edge_attr = 0.05 + rng.NextDouble() * 0.15;
    GeneratedTrace trace = GenerateRandomTrace(topts);

    std::vector<Timestamp> times = test::RandomTimes(rng, trace.events, 5);
    times.push_back(trace.events[rng.Uniform(trace.events.size())].time);
    std::map<Timestamp, test::NaiveReplayOracle> oracles;
    for (Timestamp t : times) {
      if (oracles.count(t) == 0) {
        oracles.emplace(t,
                        test::NaiveReplayOracle::At(trace.events, t, kCompAll));
      }
    }

    for (size_t shards : {1, 2, 4}) {
      std::vector<std::unique_ptr<KVStore>> stores;
      std::vector<KVStore*> ptrs;
      for (size_t i = 0; i < shards; ++i) {
        stores.push_back(NewMemKVStore());
        ptrs.push_back(stores.back().get());
      }
      DeltaGraphOptions opts;
      opts.leaf_size = 40 + rng.Uniform(120);
      opts.arity = 2 + static_cast<int>(rng.Uniform(3));
      const char* kFunctions[] = {"intersection", "union", "balanced"};
      opts.functions = {kFunctions[rng.Uniform(3)]};
      auto pdg = PartitionedDeltaGraph::Create(ptrs, opts);
      ASSERT_TRUE(pdg.ok());
      pdg.value()->SetTaskPool(&pool);  // Parallel per-shard ingest.
      ASSERT_TRUE(pdg.value()->AppendAll(trace.events).ok());
      if (rng.Chance(0.8)) {  // Sometimes answer from recent eventlists only.
        ASSERT_TRUE(pdg.value()->Finalize().ok());
      }
      if (rng.Chance(0.3)) pdg.value()->SetDecodedCacheCapacity(0);

      for (TaskPool* p : pools) {
        for (IoPool* iop : ios) {
          pdg.value()->SetTaskPool(p);
          pdg.value()->SetIoPool(iop);
          SCOPED_TRACE("shards=" + std::to_string(shards) +
                       " parallel=" + std::to_string(p != nullptr) +
                       " prefetch=" + std::to_string(iop != nullptr));
          auto got = pdg.value()->GetSnapshots(times);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got.value().size(), times.size());
          for (size_t i = 0; i < times.size(); ++i) {
            EXPECT_TRUE(oracles.at(times[i]).Matches(got.value()[i]))
                << "t=" << times[i];
          }
        }
      }
    }
  }
}

// A focused variant: append more events *after* the last finalize, at
// timestamps that collide with the final boundary (the PR 3 holdback fix),
// then check retrieval at exactly those times against the oracle.
TEST(ReplayOracleTest, PostFinalizeAppendsVisibleAtBoundaryTimes) {
  for (uint64_t seed : test::PropertySeeds(8, 9100)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());

    RandomTraceOptions topts;
    topts.num_events = 300;
    topts.seed = seed * 31 + 5;
    topts.p_same_time = 0.45;
    GeneratedTrace trace = GenerateRandomTrace(topts);
    const size_t split = 200 + rng.Uniform(60);

    auto store = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = 30 + rng.Uniform(40);
    auto dg = DeltaGraph::Create(store.get(), opts);
    ASSERT_TRUE(dg.ok());
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(dg.value()->Append(trace.events[i]).ok());
    }
    ASSERT_TRUE(dg.value()->Finalize().ok());
    for (size_t i = split; i < trace.events.size(); ++i) {
      ASSERT_TRUE(dg.value()->Append(trace.events[i]).ok());
    }

    const Timestamp boundary = trace.events[split - 1].time;
    for (Timestamp t : {boundary, trace.events[split].time,
                        trace.events.back().time}) {
      auto oracle = test::NaiveReplayOracle::At(trace.events, t, kCompAll);
      auto got = dg.value()->GetSnapshot(t, kCompAll);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(oracle.Matches(got.value())) << "t=" << t;
    }
  }
}

// Single-point queries near the head, where the cached planner starts from
// the current graph and undoes the recent tail (Section 4.5): every leaf
// boundary of the newest four leaves and points inside their eventlists,
// through GetSnapshot and through a RetrievalSession (which plans through
// PlanForAt). Checked right after Finalize — the tail then holds only the
// held-back equal-time run — and again after further appends have grown the
// tail and cut new leaves.
TEST(ReplayOracleTest, SinglepointNearHeadMatchesNaiveReplay) {
  for (uint64_t seed : test::PropertySeeds(10, 9400)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());

    RandomTraceOptions topts;
    topts.num_events = 900 + rng.Uniform(600);
    topts.seed = seed * 53 + 7;
    topts.p_same_time = 0.10 + rng.NextDouble() * 0.30;
    topts.p_node_attr = 0.10 + rng.NextDouble() * 0.20;
    topts.p_edge_attr = 0.05 + rng.NextDouble() * 0.15;
    GeneratedTrace trace = GenerateRandomTrace(topts);
    const size_t split = trace.events.size() * 3 / 4;

    auto store = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = 40 + rng.Uniform(60);
    opts.arity = 2 + static_cast<int>(rng.Uniform(2));
    auto created = DeltaGraph::Create(store.get(), opts);
    ASSERT_TRUE(created.ok());
    DeltaGraph& dg = *created.value();

    auto check = [&](const std::vector<Event>& log, const std::string& phase) {
      SCOPED_TRACE(phase);
      const Skeleton& skel = dg.skeleton();
      const auto& leaves = skel.leaves();
      std::vector<Timestamp> times;
      const size_t first = leaves.size() >= 4 ? leaves.size() - 4 : 0;
      for (size_t i = first; i < leaves.size(); ++i) {
        const Timestamp b = skel.node(leaves[i]).boundary_time;
        times.push_back(b);
        if (i + 1 < leaves.size()) {
          const Timestamp next = skel.node(leaves[i + 1]).boundary_time;
          times.push_back(b + 1);
          times.push_back(b + (next - b) / 2);
          times.push_back(next - 1);
        }
      }
      std::sort(times.begin(), times.end());
      times.erase(std::unique(times.begin(), times.end()), times.end());

      RetrievalSession session(&dg);
      std::vector<RetrievalSession::Request*> requests;
      for (Timestamp t : times) requests.push_back(session.Submit({t}));
      ASSERT_TRUE(session.Wait().ok());
      size_t from_current = 0;
      for (const auto* req : requests) {
        const auto& root_steps = req->plans[0].root->children;
        from_current += !root_steps.empty() &&
                        root_steps[0].first.kind == PlanStep::Kind::kLoadCurrent;
      }
      EXPECT_GT(from_current, 0u) << "no plan started from the current graph";
      for (size_t i = 0; i < times.size(); ++i) {
        const Timestamp t = times[i];
        const auto oracle = test::NaiveReplayOracle::At(log, t, kCompAll);
        auto got = dg.GetSnapshot(t);
        ASSERT_TRUE(got.ok()) << got.status().ToString() << " t=" << t;
        EXPECT_TRUE(oracle.Matches(got.value())) << "GetSnapshot t=" << t;
        const auto& via_session = requests[i]->result;
        ASSERT_TRUE(via_session.ok()) << via_session.status().ToString() << " t=" << t;
        EXPECT_TRUE(oracle.Matches(via_session.value()[0])) << "session t=" << t;
      }
    };

    const std::vector<Event> head(trace.events.begin(), trace.events.begin() + split);
    ASSERT_TRUE(dg.AppendAll(head).ok());
    ASSERT_TRUE(dg.Finalize().ok());
    check(head, "after Finalize");

    const std::vector<Event> more(trace.events.begin() + split, trace.events.end());
    ASSERT_TRUE(dg.AppendAll(more).ok());
    check(trace.events, "after further appends");
  }
}

// The one index shape whose recent tail is empty after Finalize: an initial
// snapshot with nothing appended. Its single-point plan starts from the
// current graph with nothing to undo.
TEST(ReplayOracleTest, SinglepointFromInitialSnapshotWithEmptyTail) {
  RandomTraceOptions topts;
  topts.num_events = 600;
  topts.seed = 77;
  GeneratedTrace bootstrap = GenerateRandomTrace(topts);
  const Timestamp t0 = bootstrap.events.back().time;
  Snapshot g0;
  for (const Event& e : bootstrap.events) ASSERT_TRUE(g0.Apply(e, true).ok());

  auto store = NewMemKVStore();
  auto created = DeltaGraph::Create(store.get(), DeltaGraphOptions{});
  ASSERT_TRUE(created.ok());
  DeltaGraph& dg = *created.value();
  ASSERT_TRUE(dg.SetInitialSnapshot(g0, t0).ok());
  ASSERT_TRUE(dg.Finalize().ok());
  const FrontierPtr frontier = dg.PinFrontier();
  ASSERT_TRUE(frontier->recent.empty());

  auto plan = dg.PlanForAt(frontier, {t0});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan.value().root->children.empty());
  EXPECT_EQ(plan.value().root->children[0].first.kind, PlanStep::Kind::kLoadCurrent);
  auto got = dg.GetSnapshot(t0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const auto oracle = test::NaiveReplayOracle::At(bootstrap.events, t0, kCompAll);
  EXPECT_TRUE(oracle.Matches(got.value()));
}

// -- Incremental Finalize ----------------------------------------------------
// One hierarchy grows across Finalize calls, which cap it only when the events
// since the last cap reach |G| (src/deltagraph/README.md, "When Finalize
// caps"). Leaves cut between caps are reached through the eventlist chain and
// the current graph, so every leaf boundary and boundary+1 is probed.

constexpr size_t kLiveBatch = 50;

// Appends log[begin, end) in batches of kLiveBatch events, with a Finalize
// after every `every`-th batch.
void AppendInBatches(const std::vector<Event>& log, size_t begin, size_t end,
                     size_t every, const std::function<Status(const std::vector<Event>&)>& append,
                     const std::function<Status()>& finalize) {
  size_t batches = 0;
  for (size_t i = begin; i < end; i += kLiveBatch) {
    const std::vector<Event> batch(log.begin() + i,
                                   log.begin() + std::min(end, i + kLiveBatch));
    const Status s = append(batch);
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (++batches % every == 0) {
      ASSERT_TRUE(finalize().ok());
    }
  }
}

size_t CapCount(const Skeleton& skel) {
  return skel.incident_edges(skel.super_root()).size();
}

// Whether `node` lies under a cap: reachable from the super-root through
// parent-to-child delta edges.
bool IsCapped(const Skeleton& skel, int32_t node) {
  std::vector<bool> seen(skel.node_count(), false);
  std::vector<int32_t> stack = {skel.super_root()};
  seen[skel.super_root()] = true;
  while (!stack.empty()) {
    const int32_t u = stack.back();
    stack.pop_back();
    if (u == node) return true;
    for (int32_t eid : skel.incident_edges(u)) {
      const SkeletonEdge& e = skel.edge(eid);
      if (e.is_eventlist || e.from != u || seen[e.to]) continue;
      seen[e.to] = true;
      stack.push_back(e.to);
    }
  }
  return false;
}

// Every leaf boundary b of `skels` and b+1, sorted and unique.
std::vector<Timestamp> BoundaryTimes(const std::vector<const Skeleton*>& skels) {
  std::vector<Timestamp> times;
  for (const Skeleton* skel : skels) {
    for (int32_t leaf : skel->leaves()) {
      times.push_back(skel->node(leaf).boundary_time);
      times.push_back(skel->node(leaf).boundary_time + 1);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

// Single-point retrieval at every one of `times` (sorted), plus one
// multipoint pass over every third, against naive replay of `log`.
template <typename Index>
void ExpectMatchesReplay(Index& index, const std::vector<Event>& log,
                         const std::vector<Timestamp>& times) {
  std::vector<test::NaiveReplayOracle> oracles;
  test::NaiveReplayOracle running;
  size_t next = 0;
  for (Timestamp t : times) {
    for (; next < log.size() && log[next].time <= t; ++next) {
      running.Apply(log[next], kCompAll);
    }
    oracles.push_back(running);
  }
  std::vector<Timestamp> multi;
  for (size_t i = 0; i < times.size(); ++i) {
    auto got = index.GetSnapshot(times[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " t=" << times[i];
    EXPECT_TRUE(oracles[i].Matches(got.value())) << "t=" << times[i];
    if (i % 3 == 0) multi.push_back(times[i]);
  }
  auto got = index.GetSnapshots(multi);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < multi.size(); ++i) {
    EXPECT_TRUE(oracles[3 * i].Matches(got.value()[i])) << "multipoint t=" << multi[i];
  }
}

// A churny trace (many deletes keep |G| small) long enough for several caps.
GeneratedTrace IncrementalFinalizeTrace() {
  RandomTraceOptions topts;
  topts.num_events = 4000;
  topts.seed = 1811;
  topts.p_del_edge = 0.25;
  return GenerateRandomTrace(topts);
}

// Finalize every 1, 5 and 32 batches, with and without the current graph;
// then two batches too short for a cap, so the newest leaves are uncapped
// when the index is reopened; then the reopened index (a new hierarchy)
// takes the last two batches when it maintains the current graph.
TEST(ReplayOracleTest, LeafBoundariesMatchReplayAcrossIncrementalFinalizes) {
  const std::vector<Event> log = IncrementalFinalizeTrace().events;
  const size_t reopen_at = log.size() - 2 * kLiveBatch;
  const size_t uncapped_from = reopen_at - 2 * kLiveBatch;
  const std::vector<Event> before_reopen(log.begin(), log.begin() + reopen_at);

  for (size_t every : {1, 5, 32}) {
    for (bool maintain_current : {true, false}) {
      SCOPED_TRACE("finalize every " + std::to_string(every) +
                   " batches, maintain_current=" + std::to_string(maintain_current));
      auto store = NewMemKVStore();
      DeltaGraphOptions opts;
      opts.leaf_size = 50;
      opts.maintain_current = maintain_current;
      auto created = DeltaGraph::Create(store.get(), opts);
      ASSERT_TRUE(created.ok());
      std::unique_ptr<DeltaGraph> dg = std::move(created).value();
      auto append = [&](const std::vector<Event>& b) { return dg->AppendAll(b); };
      auto finalize = [&] { return dg->Finalize(); };

      AppendInBatches(log, 0, uncapped_from, every, append, finalize);
      ASSERT_TRUE(dg->Finalize().ok());
      if (every == 1) {
        EXPECT_GE(CapCount(dg->skeleton()), 3u);
      }
      const size_t caps = CapCount(dg->skeleton());
      AppendInBatches(log, uncapped_from, reopen_at, 2, append, finalize);
      ASSERT_EQ(CapCount(dg->skeleton()), caps);
      ASSERT_FALSE(IsCapped(dg->skeleton(), dg->skeleton().leaves().back()));
      {
        SCOPED_TRACE("live");
        ExpectMatchesReplay(*dg, before_reopen, BoundaryTimes({&dg->skeleton()}));
      }

      dg.reset();
      auto reopened = DeltaGraph::Open(store.get());
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      dg = std::move(reopened).value();
      {
        SCOPED_TRACE("reopened");
        ExpectMatchesReplay(*dg, before_reopen, BoundaryTimes({&dg->skeleton()}));
      }
      AppendInBatches(log, reopen_at, log.size(), 2, append, finalize);
      SCOPED_TRACE("appended after reopen");
      ExpectMatchesReplay(*dg, log, BoundaryTimes({&dg->skeleton()}));
    }
  }
}

// The same stream through a three-shard index in one store: a Finalize every
// 5 batches, then a reopen.
TEST(ReplayOracleTest, PartitionedLeafBoundariesMatchReplayAcrossIncrementalFinalizes) {
  const std::vector<Event> log = IncrementalFinalizeTrace().events;
  auto store = NewMemKVStore();
  DeltaGraphOptions opts;
  opts.leaf_size = 30;
  opts.arity = 3;
  auto created = PartitionedDeltaGraph::Create(store.get(), 3, opts);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<PartitionedDeltaGraph> pdg = std::move(created).value();
  AppendInBatches(
      log, 0, log.size(), 5,
      [&](const std::vector<Event>& b) { return pdg->AppendAll(b); },
      [&] { return pdg->Finalize(); });
  ASSERT_TRUE(pdg->Finalize().ok());

  auto shard_skeletons = [&] {
    std::vector<const Skeleton*> skels;
    for (size_t i = 0; i < pdg->partition_count(); ++i) {
      skels.push_back(&pdg->partition(i)->skeleton());
    }
    return skels;
  };
  size_t caps = 0;
  for (const Skeleton* skel : shard_skeletons()) caps += CapCount(*skel);
  EXPECT_GT(caps, pdg->partition_count());
  {
    SCOPED_TRACE("live");
    ExpectMatchesReplay(*pdg, log, BoundaryTimes(shard_skeletons()));
  }
  pdg.reset();
  auto reopened = PartitionedDeltaGraph::Open(store.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  pdg = std::move(reopened).value();
  SCOPED_TRACE("reopened");
  ExpectMatchesReplay(*pdg, log, BoundaryTimes(shard_skeletons()));
}

}  // namespace
}  // namespace hgdb
