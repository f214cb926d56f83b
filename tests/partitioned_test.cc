// Sharded-index coverage: chunk-aligned routing invariants, the single-store
// prefix-namespace layout (Create/Open round trip), parallel per-shard ingest,
// parts-vs-merged consistency of GetSnapshotParts, and
// GraphPool::OverlayHistoricalParts (sessions over a sharded index are in
// exec_test's RetrievalSessionTest). Every
// retrieval result is checked against the NaiveReplayOracle (tests/
// test_oracle.h), which shares no code with the sharding machinery.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deltagraph/partitioned_delta_graph.h"
#include "exec/io_pool.h"
#include "exec/task_pool.h"
#include "graphpool/graph_pool.h"
#include "kvstore/kv_store.h"
#include "tests/test_oracle.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

struct PartitionedWorkload {
  std::vector<std::unique_ptr<KVStore>> stores;
  std::unique_ptr<PartitionedDeltaGraph> pdg;
  std::vector<Event> log;
};

// A small randomized sharded index: ingest happens in 1..3 AppendAll/Finalize
// rounds; the last round is sometimes left unfinalized so some shards answer
// from their recent eventlist (replay fallback) while others use their index.
PartitionedWorkload BuildPartitioned(test::SeededRng& rng, size_t shards,
                                     TaskPool* pool) {
  RandomTraceOptions topts;
  topts.num_events = 400 + rng.Uniform(600);
  topts.seed = rng.seed() * 733 + 29;
  topts.p_same_time = 0.15 + rng.NextDouble() * 0.25;
  topts.p_del_edge = 0.08 + rng.NextDouble() * 0.10;
  topts.p_node_attr = 0.12 + rng.NextDouble() * 0.15;
  topts.p_edge_attr = 0.06 + rng.NextDouble() * 0.10;
  GeneratedTrace trace = GenerateRandomTrace(topts);

  PartitionedWorkload w;
  std::vector<KVStore*> ptrs;
  for (size_t i = 0; i < shards; ++i) {
    w.stores.push_back(NewMemKVStore());
    ptrs.push_back(w.stores.back().get());
  }
  DeltaGraphOptions opts;
  opts.leaf_size = 30 + rng.Uniform(80);
  opts.arity = 2 + static_cast<int>(rng.Uniform(3));
  auto pdg = PartitionedDeltaGraph::Create(ptrs, opts);
  EXPECT_TRUE(pdg.ok());
  w.pdg = std::move(pdg).value();
  w.pdg->SetTaskPool(pool);

  const size_t rounds = 1 + rng.Uniform(3);
  size_t next = 0;
  for (size_t r = 0; r < rounds; ++r) {
    const size_t end = (r + 1 == rounds)
                           ? trace.events.size()
                           : next + (trace.events.size() - next) / 2;
    std::vector<Event> batch(trace.events.begin() + next,
                             trace.events.begin() + end);
    next = end;
    EXPECT_TRUE(w.pdg->AppendAll(batch).ok());
    const bool last = r + 1 == rounds;
    if (!last || rng.Chance(0.7)) {
      EXPECT_TRUE(w.pdg->Finalize().ok());
    }
  }
  w.log = std::move(trace.events);
  return w;
}

TEST(PartitionedTest, ChunkAlignedRouting) {
  auto store = NewMemKVStore();
  auto pdg = PartitionedDeltaGraph::Create(store.get(), 4, DeltaGraphOptions());
  ASSERT_TRUE(pdg.ok());
  auto& p = *pdg.value();

  // Every id inside one 256-id block routes to the block's shard — the
  // invariant that makes every Snapshot chunk (256-id node sets, 128-id edge
  // and attribute maps) partition-pure, which AbsorbDisjoint turns into O(1)
  // chunk adoption.
  for (uint64_t block : {0ull, 1ull, 7ull, 1000ull, (1ull << 40)}) {
    const PartitionId node_home = p.PartitionOfNode(block << 8);
    const PartitionId edge_home = p.PartitionOfEdge(block << 8);
    for (uint64_t off : {0ull, 1ull, 127ull, 128ull, 255ull}) {
      EXPECT_EQ(p.PartitionOfNode((block << 8) | off), node_home) << block;
      EXPECT_EQ(p.PartitionOfEdge((block << 8) | off), edge_home) << block;
    }
  }

  // An edge's whole history — add, attribute updates, delete — routes to one
  // shard, regardless of endpoints.
  const EdgeId e = 777;
  const PartitionId home = p.PartitionOfEdge(e);
  EXPECT_EQ(p.PartitionOf(Event::AddEdge(1, e, 5, 9999999, true)), home);
  EXPECT_EQ(p.PartitionOf(Event::SetEdgeAttr(2, e, "w", std::nullopt, "1")), home);
  EXPECT_EQ(p.PartitionOf(Event::DeleteEdge(3, e, 5, 9999999, true)), home);
  // Node events route by node id.
  EXPECT_EQ(p.PartitionOf(Event::AddNode(1, 300)), p.PartitionOfNode(300));
}

TEST(PartitionedTest, SingleStoreNamespacingAndOpenRoundTrip) {
  test::SeededRng rng(4242);
  RandomTraceOptions topts;
  topts.num_events = 500;
  topts.seed = 4242;
  GeneratedTrace trace = GenerateRandomTrace(topts);

  auto base = NewMemKVStore();
  {
    DeltaGraphOptions opts;
    opts.leaf_size = 60;
    auto pdg = PartitionedDeltaGraph::Create(base.get(), 4, opts);
    ASSERT_TRUE(pdg.ok());
    ASSERT_TRUE(pdg.value()->AppendAll(trace.events).ok());
    ASSERT_TRUE(pdg.value()->Finalize().ok());
  }

  // Layout: every key lives in a shard namespace "s<i>/" or the partition
  // metadata namespace "pm/".
  size_t checked = 0;
  base->ForEachKey("", [&](const Slice& key) {
    const std::string k(key.data(), key.size());
    const bool shard_key = k.size() > 2 && k[0] == 's' && k.find('/') != std::string::npos &&
                           k.find('/') <= 6;
    EXPECT_TRUE(shard_key || k.rfind("pm/", 0) == 0) << "stray key: " << k;
    ++checked;
  });
  EXPECT_GT(checked, 0u);

  // A second Create over the same (now non-empty) base must refuse.
  EXPECT_FALSE(PartitionedDeltaGraph::Create(base.get(), 2, DeltaGraphOptions()).ok());
  // Open of a store that was never a partitioned index must refuse.
  auto fresh = NewMemKVStore();
  EXPECT_FALSE(PartitionedDeltaGraph::Open(fresh.get()).ok());

  // Reopen and retrieve: element-identical to full replay.
  auto reopened = PartitionedDeltaGraph::Open(base.get());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->partition_count(), 4u);
  std::vector<Timestamp> times = test::RandomTimes(rng, trace.events, 4);
  times.push_back(trace.events.back().time);
  auto got = reopened.value()->GetSnapshots(times);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < times.size(); ++i) {
    auto oracle = test::NaiveReplayOracle::At(trace.events, times[i], kCompAll);
    EXPECT_TRUE(oracle.Matches(got.value()[i])) << "t=" << times[i];
  }
}

// The oracle sweep: shard counts x {serial, parallel} x prefetch on/off, all
// element-identical to naive replay. This is the sharded acceptance bar —
// partitioning must be invisible in the result.
TEST(PartitionedTest, RetrievalMatchesOracleAcrossShardCountsAndModes) {
  TaskPool pool4(4);
  IoPool io(3);  // Deliberately not a multiple of any shard count.
  TaskPool* const pools[] = {nullptr, &pool4};
  IoPool* const ios[] = {nullptr, &io};

  for (uint64_t seed : test::PropertySeeds(6, 7200)) {
    for (size_t shards : {1, 2, 4}) {
      test::SeededRng rng(seed + shards * 1000003);
      SCOPED_TRACE(rng.Desc() + " shards=" + std::to_string(shards));
      PartitionedWorkload w = BuildPartitioned(rng, shards, &pool4);

      std::vector<Timestamp> times = test::RandomTimes(rng, w.log, 5);
      times.push_back(w.log[rng.Uniform(w.log.size())].time);
      std::map<Timestamp, test::NaiveReplayOracle> oracles;
      for (Timestamp t : times) {
        if (oracles.count(t) == 0) {
          oracles.emplace(t, test::NaiveReplayOracle::At(w.log, t, kCompAll));
        }
      }

      for (TaskPool* pool : pools) {
        for (IoPool* iop : ios) {
          w.pdg->SetTaskPool(pool);
          w.pdg->SetIoPool(iop);
          SCOPED_TRACE("parallel=" + std::to_string(pool != nullptr) +
                       " prefetch=" + std::to_string(iop != nullptr));
          auto got = w.pdg->GetSnapshots(times);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          for (size_t i = 0; i < times.size(); ++i) {
            EXPECT_TRUE(oracles.at(times[i]).Matches(got.value()[i]))
                << "t=" << times[i];
          }
        }
      }

      // Singlepoint path.
      w.pdg->SetTaskPool(&pool4);
      w.pdg->SetIoPool(nullptr);
      auto one = w.pdg->GetSnapshot(times[0]);
      ASSERT_TRUE(one.ok());
      EXPECT_TRUE(oracles.at(times[0]).Matches(one.value()));
    }
  }
}

// Parts are element-disjoint and merge to exactly the whole: summed element
// counts equal the merged counts (no element lost, none duplicated), and the
// manual AbsorbDisjoint merge equals the replay oracle.
TEST(PartitionedTest, PartsAreDisjointAndMergeToWhole) {
  TaskPool pool(3);
  for (uint64_t seed : test::PropertySeeds(4, 8300)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());
    PartitionedWorkload w = BuildPartitioned(rng, 4, &pool);

    for (Timestamp t : test::RandomTimes(rng, w.log, 4)) {
      auto parts = w.pdg->GetSnapshotParts(t);
      ASSERT_TRUE(parts.ok()) << parts.status().ToString();
      ASSERT_EQ(parts.value().size(), 4u);
      size_t node_sum = 0, edge_sum = 0;
      Snapshot merged;
      for (Snapshot& part : parts.value()) {
        node_sum += part.NodeCount();
        edge_sum += part.EdgeCount();
        merged.AbsorbDisjoint(std::move(part));
      }
      EXPECT_EQ(merged.NodeCount(), node_sum) << "t=" << t;
      EXPECT_EQ(merged.EdgeCount(), edge_sum) << "t=" << t;
      auto oracle = test::NaiveReplayOracle::At(w.log, t, kCompAll);
      EXPECT_TRUE(oracle.Matches(merged)) << "t=" << t;
    }
  }
}

// OverlayHistoricalParts(parts) must equal OverlayHistorical(merged): same
// membership, same attribute values, one pool id either way.
TEST(GraphPoolPartsTest, OverlayPartsEquivalentToOverlayMerged) {
  TaskPool pool(2);
  test::SeededRng rng(11500);
  PartitionedWorkload w = BuildPartitioned(rng, 4, &pool);
  const Timestamp t = w.log[w.log.size() / 2].time;

  auto parts = w.pdg->GetSnapshotParts(t);
  ASSERT_TRUE(parts.ok());
  Snapshot merged;
  for (Snapshot& p : parts.value()) {
    Snapshot copy = p;  // Keep parts usable for the parts overlay below.
    merged.AbsorbDisjoint(std::move(copy));
  }

  GraphPool pool_a, pool_b;
  auto id_a = pool_a.OverlayHistoricalParts(parts.value());
  auto id_b = pool_b.OverlayHistorical(merged);
  ASSERT_TRUE(id_a.ok());
  ASSERT_TRUE(id_b.ok());

  Snapshot got_a = pool_a.ExtractSnapshot(id_a.value());
  Snapshot got_b = pool_b.ExtractSnapshot(id_b.value());
  EXPECT_EQ(got_a.NodeCount(), got_b.NodeCount());
  EXPECT_EQ(got_a.EdgeCount(), got_b.EdgeCount());
  auto oracle = test::NaiveReplayOracle::At(w.log, t, kCompAll);
  EXPECT_TRUE(oracle.Matches(got_a));
  EXPECT_TRUE(oracle.Matches(got_b));
}

}  // namespace
}  // namespace hgdb
