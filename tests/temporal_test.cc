#include <gtest/gtest.h>

#include "temporal/event.h"
#include "temporal/event_list.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

TEST(EventTest, FactoriesPopulateFields) {
  Event e = Event::AddEdge(10, 5, 1, 2, true);
  EXPECT_EQ(e.type, EventType::kAddEdge);
  EXPECT_EQ(e.time, 10);
  EXPECT_EQ(e.edge, 5u);
  EXPECT_EQ(e.src, 1u);
  EXPECT_EQ(e.dst, 2u);
  EXPECT_TRUE(e.directed);

  Event a = Event::SetNodeAttr(7, 3, "job", std::nullopt, "analyst");
  EXPECT_EQ(a.type, EventType::kNodeAttr);
  EXPECT_FALSE(a.old_value.has_value());
  EXPECT_EQ(*a.new_value, "analyst");
}

TEST(EventTest, ComponentClassification) {
  EXPECT_EQ(Event::AddNode(1, 1).component(), kCompStruct);
  EXPECT_EQ(Event::DeleteEdge(1, 1, 1, 2, false).component(), kCompStruct);
  EXPECT_EQ(Event::SetNodeAttr(1, 1, "k", std::nullopt, "v").component(),
            kCompNodeAttr);
  EXPECT_EQ(Event::SetEdgeAttr(1, 1, "k", std::nullopt, "v").component(),
            kCompEdgeAttr);
  EXPECT_EQ(Event::TransientEdge(1, 1, 2, "m").component(), kCompTransient);
  EXPECT_TRUE(Event::TransientEdge(1, 1, 2, "m").is_transient());
  EXPECT_TRUE(Event::TransientNode(1, 1, "m").is_transient());
  EXPECT_FALSE(Event::AddNode(1, 1).is_transient());
}

TEST(EventTest, ToStringMatchesPaperStyle) {
  Event e = Event::AddEdge(100, 9, 23, 4590, false);
  EXPECT_EQ(e.ToString(), "{NE, E:9, N:23, N:4590, directed:no, t=100}");
}

TEST(EventListTest, ChronologyCheck) {
  EventList el;
  el.Append(Event::AddNode(1, 1));
  el.Append(Event::AddNode(1, 2));
  el.Append(Event::AddNode(5, 3));
  EXPECT_TRUE(el.IsChronological());
  el.Append(Event::AddNode(2, 4));
  EXPECT_FALSE(el.IsChronological());
}

TEST(EventListTest, StartEndTimes) {
  EventList el;
  EXPECT_EQ(el.StartTime(), kMinTimestamp);
  EXPECT_EQ(el.EndTime(), kMaxTimestamp);
  el.Append(Event::AddNode(3, 1));
  el.Append(Event::AddNode(9, 2));
  EXPECT_EQ(el.StartTime(), 3);
  EXPECT_EQ(el.EndTime(), 9);
}

TEST(EventListTest, ComponentCounts) {
  EventList el;
  el.Append(Event::AddNode(1, 1));
  el.Append(Event::SetNodeAttr(1, 1, "k", std::nullopt, "v"));
  el.Append(Event::SetEdgeAttr(2, 9, "k", std::nullopt, "v"));
  el.Append(Event::TransientEdge(3, 1, 2, "m"));
  el.Append(Event::AddNode(4, 2));
  EXPECT_EQ(el.CountComponent(kCompStruct), 2u);
  EXPECT_EQ(el.CountComponent(kCompNodeAttr), 1u);
  EXPECT_EQ(el.CountComponent(kCompEdgeAttr), 1u);
  EXPECT_EQ(el.CountComponent(kCompTransient), 1u);
}

// Columnar round trip: decode any subset of components and get the right
// events in the right order.
class EventListColumnarTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EventListColumnarTest, SubsetRoundTripPreservesOrder) {
  RandomTraceOptions opts;
  opts.num_events = 2000;
  opts.seed = 99;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  EventList el(trace.events);

  const unsigned components = GetParam();
  EventList decoded;
  for (unsigned c : {kCompStruct, kCompNodeAttr, kCompEdgeAttr, kCompTransient}) {
    if ((components & c) == 0) continue;
    std::string blob;
    el.EncodeComponent(static_cast<ComponentMask>(c), &blob);
    ASSERT_TRUE(decoded.DecodeAndMergeComponent(blob).ok());
  }
  decoded.FinalizeMerge();

  std::vector<Event> expected;
  for (const auto& e : el.events()) {
    if (e.component() & components) expected.push_back(e);
  }
  ASSERT_EQ(decoded.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoded[i], expected[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ComponentSubsets, EventListColumnarTest,
    ::testing::Values(kCompStruct, kCompNodeAttr, kCompEdgeAttr, kCompTransient,
                      kCompStruct | kCompNodeAttr, kCompStruct | kCompEdgeAttr,
                      kCompAll, kCompAllWithTransient));

TEST(EventListTest, CorruptComponentBlobRejected) {
  EventList el;
  el.Append(Event::AddNode(1, 1));
  std::string blob;
  el.EncodeComponent(kCompStruct, &blob);
  blob += "trailing garbage";
  EventList decoded;
  EXPECT_FALSE(decoded.DecodeAndMergeComponent(blob).ok());
}

}  // namespace
}  // namespace hgdb
