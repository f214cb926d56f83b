#include <gtest/gtest.h>

#include "graph/delta.h"
#include "graph/snapshot.h"
#include "workload/generators.h"
#include "workload/trace_world.h"

namespace hgdb {
namespace {

TEST(SnapshotTest, NodeAndEdgeBasics) {
  Snapshot g;
  EXPECT_TRUE(g.AddNode(1));
  EXPECT_FALSE(g.AddNode(1));
  EXPECT_TRUE(g.HasNode(1));
  EXPECT_TRUE(g.AddEdge(10, EdgeRecord{1, 2, false}));
  EXPECT_FALSE(g.AddEdge(10, EdgeRecord{1, 2, false}));
  ASSERT_NE(g.FindEdge(10), nullptr);
  EXPECT_EQ(g.FindEdge(10)->src, 1u);
  EXPECT_TRUE(g.RemoveEdge(10));
  EXPECT_FALSE(g.RemoveEdge(10));
  EXPECT_TRUE(g.RemoveNode(1));
  EXPECT_FALSE(g.HasNode(1));
}

TEST(SnapshotTest, AttributeLifecycle) {
  Snapshot g;
  g.AddNode(1);
  g.SetNodeAttr(1, "name", "alice");
  ASSERT_NE(g.GetNodeAttr(1, "name"), nullptr);
  EXPECT_EQ(*g.GetNodeAttr(1, "name"), "alice");
  g.SetNodeAttr(1, "name", "bob");
  EXPECT_EQ(*g.GetNodeAttr(1, "name"), "bob");
  g.RemoveNodeAttr(1, "name");
  EXPECT_EQ(g.GetNodeAttr(1, "name"), nullptr);
  EXPECT_EQ(g.GetNodeAttrs(1), nullptr);  // Empty maps are dropped.
}

TEST(SnapshotTest, ElementCounts) {
  Snapshot g;
  g.AddNode(1);
  g.AddNode(2);
  g.AddEdge(5, EdgeRecord{1, 2, false});
  g.SetNodeAttr(1, "a", "x");
  g.SetNodeAttr(1, "b", "y");
  g.SetEdgeAttr(5, "w", "3");
  EXPECT_EQ(g.NodeCount(), 2u);
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_EQ(g.NodeAttrCount(), 2u);
  EXPECT_EQ(g.EdgeAttrCount(), 1u);
  EXPECT_EQ(g.ElementCount(), 6u);
}

TEST(SnapshotTest, ApplyEventForwardBackwardInverse) {
  Snapshot g;
  std::vector<Event> events = {
      Event::AddNode(1, 1),
      Event::AddNode(1, 2),
      Event::SetNodeAttr(2, 1, "k", std::nullopt, "v1"),
      Event::AddEdge(3, 7, 1, 2, false),
      Event::SetEdgeAttr(4, 7, "w", std::nullopt, "9"),
      Event::SetNodeAttr(5, 1, "k", "v1", "v2"),
  };
  for (const auto& e : events) ASSERT_TRUE(g.Apply(e, true).ok()) << e.ToString();
  Snapshot after = g;
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    ASSERT_TRUE(g.Apply(*it, false).ok()) << it->ToString();
  }
  EXPECT_TRUE(g.Empty());
  // And forward again reproduces the same state.
  for (const auto& e : events) ASSERT_TRUE(g.Apply(e, true).ok());
  EXPECT_TRUE(g.Equals(after));
}

TEST(SnapshotTest, StrictApplyCatchesInconsistencies) {
  Snapshot g;
  ASSERT_TRUE(g.Apply(Event::AddNode(1, 1), true).ok());
  EXPECT_FALSE(g.Apply(Event::AddNode(2, 1), true).ok());  // Duplicate.
  EXPECT_FALSE(g.Apply(Event::DeleteNode(3, 99), true).ok());  // Absent.
  ASSERT_TRUE(
      g.Apply(Event::SetNodeAttr(4, 1, "k", std::nullopt, "v"), true).ok());
  // Old value mismatch.
  EXPECT_FALSE(
      g.Apply(Event::SetNodeAttr(5, 1, "k", "wrong", "w"), true).ok());
  // Deleting a node that still has attributes is a protocol violation.
  EXPECT_FALSE(g.Apply(Event::DeleteNode(6, 1), true).ok());
}

TEST(SnapshotTest, TransientEventsAreIgnored) {
  Snapshot g;
  ASSERT_TRUE(g.Apply(Event::TransientEdge(1, 1, 2, "m"), true).ok());
  EXPECT_TRUE(g.Empty());
}

TEST(SnapshotTest, ComponentFilteredApply) {
  Snapshot g;
  ASSERT_TRUE(g.Apply(Event::AddNode(1, 1), true, kCompStruct).ok());
  ASSERT_TRUE(
      g.Apply(Event::SetNodeAttr(2, 1, "k", std::nullopt, "v"), true, kCompStruct)
          .ok());
  EXPECT_EQ(g.NodeAttrCount(), 0u);  // Attr event gated out.
  EXPECT_EQ(g.NodeCount(), 1u);
}

TEST(SnapshotTest, CopyFiltered) {
  Snapshot g;
  g.AddNode(1);
  g.AddEdge(5, EdgeRecord{1, 1, false});
  g.SetNodeAttr(1, "a", "x");
  g.SetEdgeAttr(5, "w", "1");
  Snapshot s = g.CopyFiltered(kCompStruct);
  EXPECT_EQ(s.NodeCount(), 1u);
  EXPECT_EQ(s.EdgeCount(), 1u);
  EXPECT_EQ(s.NodeAttrCount(), 0u);
  EXPECT_EQ(s.EdgeAttrCount(), 0u);
  Snapshot n = g.CopyFiltered(kCompNodeAttr);
  EXPECT_EQ(n.NodeCount(), 0u);
  EXPECT_EQ(n.NodeAttrCount(), 1u);
}

TEST(SnapshotTest, AbsorbDisjoint) {
  Snapshot a, b;
  a.AddNode(1);
  a.SetNodeAttr(1, "k", "v");
  b.AddNode(2);
  b.AddEdge(9, EdgeRecord{2, 1, false});
  a.AbsorbDisjoint(std::move(b));
  EXPECT_TRUE(a.HasNode(1));
  EXPECT_TRUE(a.HasNode(2));
  EXPECT_TRUE(a.HasEdge(9));
  EXPECT_EQ(a.ElementCount(), 4u);
}

TEST(SnapshotTest, EqualsAndDiff) {
  Snapshot a, b;
  a.AddNode(1);
  b.AddNode(1);
  EXPECT_TRUE(a.Equals(b));
  b.SetNodeAttr(1, "k", "v");
  EXPECT_FALSE(a.Equals(b));
  EXPECT_NE(a.DiffString(b).find("only in rhs"), std::string::npos);
}

// --- Delta ------------------------------------------------------------------

TEST(DeltaTest, BetweenAndApply) {
  Snapshot source, target;
  source.AddNode(1);
  source.AddNode(2);
  source.AddEdge(10, EdgeRecord{1, 2, false});
  source.SetNodeAttr(1, "k", "old");

  target.AddNode(1);
  target.AddNode(3);
  target.AddEdge(11, EdgeRecord{1, 3, true});
  target.SetNodeAttr(1, "k", "new");
  target.SetEdgeAttr(11, "w", "5");

  Delta d = Delta::Between(target, source);
  Snapshot g = source;
  ASSERT_TRUE(d.ApplyTo(&g, true).ok());
  EXPECT_TRUE(g.Equals(target)) << g.DiffString(target);
  // Backward returns to the source exactly.
  ASSERT_TRUE(d.ApplyTo(&g, false).ok());
  EXPECT_TRUE(g.Equals(source)) << g.DiffString(source);
}

TEST(DeltaTest, EmptyDelta) {
  Snapshot a;
  a.AddNode(1);
  Delta d = Delta::Between(a, a);
  EXPECT_TRUE(d.IsEmpty());
  EXPECT_EQ(d.ElementCount(), 0u);
}

TEST(DeltaTest, ElementCountPerComponent) {
  Snapshot source, target;
  target.AddNode(1);
  target.SetNodeAttr(1, "a", "1");
  target.SetNodeAttr(1, "b", "2");
  target.AddEdge(5, EdgeRecord{1, 1, false});
  target.SetEdgeAttr(5, "w", "x");
  Delta d = Delta::Between(target, source);
  EXPECT_EQ(d.ElementCount(kCompStruct), 2u);
  EXPECT_EQ(d.ElementCount(kCompNodeAttr), 2u);
  EXPECT_EQ(d.ElementCount(kCompEdgeAttr), 1u);
  EXPECT_EQ(d.ElementCount(), 5u);
}

TEST(DeltaTest, SerializationRoundTripPerComponent) {
  Snapshot source, target;
  for (NodeId n = 1; n <= 50; ++n) {
    target.AddNode(n);
    if (n % 3 == 0) target.SetNodeAttr(n, "x", std::to_string(n));
  }
  for (EdgeId e = 1; e <= 30; ++e) {
    target.AddEdge(e, EdgeRecord{e % 50 + 1, (e * 7) % 50 + 1, e % 2 == 0});
    if (e % 5 == 0) target.SetEdgeAttr(e, "w", std::to_string(e));
  }
  source.AddNode(1);
  source.AddNode(999);
  source.SetNodeAttr(999, "gone", "soon");
  Delta d = Delta::Between(target, source);

  Delta decoded;
  for (ComponentMask c : {kCompStruct, kCompNodeAttr, kCompEdgeAttr}) {
    std::string blob;
    d.EncodeComponent(c, &blob);
    ASSERT_TRUE(decoded.DecodeComponent(c, blob).ok());
  }
  EXPECT_TRUE(decoded == d);
  Snapshot g = source;
  ASSERT_TRUE(decoded.ApplyTo(&g, true).ok());
  EXPECT_TRUE(g.Equals(target)) << g.DiffString(target);
}

TEST(DeltaTest, DecodeRejectsCorruption) {
  Snapshot a, b;
  b.AddNode(1);
  Delta d = Delta::Between(b, a);
  std::string blob;
  d.EncodeComponent(kCompStruct, &blob);
  Delta decoded;
  std::string trailing = blob + "x";
  EXPECT_FALSE(decoded.DecodeComponent(kCompStruct, trailing).ok());
  std::string truncated = blob.substr(0, blob.size() - 1);
  EXPECT_FALSE(decoded.DecodeComponent(kCompStruct, truncated).ok());
}

TEST(DeltaTest, StrictApplyRejectsMismatchedBase) {
  Snapshot a, b;
  b.AddNode(1);
  Delta d = Delta::Between(b, a);  // add node 1
  Snapshot wrong;
  wrong.AddNode(1);  // Node already there: delta does not apply cleanly.
  EXPECT_FALSE(d.ApplyTo(&wrong, true).ok());
}

// Property test: for random traces, Delta::Between(replay(t2), replay(t1))
// applied to replay(t1) equals replay(t2), in both directions, and
// component-filtered application matches filtered replay.
class DeltaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaPropertyTest, RoundTripOnRandomTraces) {
  RandomTraceOptions opts;
  opts.num_events = 4000;
  opts.seed = GetParam();
  GeneratedTrace trace = GenerateRandomTrace(opts);
  const Timestamp t_end = trace.events.back().time;
  const Timestamp t1 = t_end / 3, t2 = 2 * t_end / 3;

  Snapshot g1 = ReplayAt(trace.events, t1);
  Snapshot g2 = ReplayAt(trace.events, t2);
  Delta d = Delta::Between(g2, g1);

  Snapshot fwd = g1;
  ASSERT_TRUE(d.ApplyTo(&fwd, true).ok());
  EXPECT_TRUE(fwd.Equals(g2)) << fwd.DiffString(g2);

  Snapshot bwd = g2;
  ASSERT_TRUE(d.ApplyTo(&bwd, false).ok());
  EXPECT_TRUE(bwd.Equals(g1)) << bwd.DiffString(g1);

  // Component-filtered: struct-only delta application on struct-only base.
  Snapshot s1 = ReplayAt(trace.events, t1, kCompStruct);
  Snapshot s2 = ReplayAt(trace.events, t2, kCompStruct);
  ASSERT_TRUE(d.ApplyTo(&s1, true, kCompStruct).ok());
  EXPECT_TRUE(s1.Equals(s2)) << s1.DiffString(s2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 1234));

// Events applied forward then backward must return exactly to the start,
// from any intermediate point of a random trace.
class EventInversionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventInversionTest, ForwardBackwardIsIdentity) {
  RandomTraceOptions opts;
  opts.num_events = 3000;
  opts.seed = GetParam();
  GeneratedTrace trace = GenerateRandomTrace(opts);

  Snapshot g;
  ASSERT_TRUE(g.ApplyAll(trace.events, true).ok());
  Snapshot end_state = g;
  ASSERT_TRUE(g.ApplyAll(trace.events, false).ok());
  EXPECT_TRUE(g.Empty()) << g.DiffString(Snapshot());
  ASSERT_TRUE(g.ApplyAll(trace.events, true).ok());
  EXPECT_TRUE(g.Equals(end_state));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventInversionTest, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace hgdb
