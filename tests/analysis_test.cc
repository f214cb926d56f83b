#include <gtest/gtest.h>

#include <cmath>

#include "analysis/models.h"
#include "deltagraph/delta_graph.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

TEST(ModelsTest, CurrentGraphSizeLinearInEvents) {
  GraphDynamics dyn{.delta_star = 0.6, .rho_star = 0.2, .initial_size = 100,
                    .num_events = 1000};
  EXPECT_DOUBLE_EQ(CurrentGraphSize(dyn), 100 + 1000 * 0.4);
}

TEST(ModelsTest, BalancedLevelCostIsLevelIndependent) {
  GraphDynamics dyn{.delta_star = 0.5, .rho_star = 0.5, .initial_size = 0,
                    .num_events = 100000};
  const size_t L = 1000;
  const int k = 2;
  // Per-delta size grows by k each level, but the number of edges shrinks by
  // k: level totals are equal. Verify via the per-delta formula.
  const double level2 = BalancedDeltaElements(dyn, L, k, 2);
  const double level3 = BalancedDeltaElements(dyn, L, k, 3);
  EXPECT_DOUBLE_EQ(level3, level2 * k);
  const double edges_level2 = dyn.num_events / static_cast<double>(L);
  const double edges_level3 = edges_level2 / k;
  EXPECT_NEAR(level2 * edges_level2, level3 * edges_level3, 1e-6);
  EXPECT_NEAR(level2 * edges_level2, BalancedLevelElements(dyn, k), 1e-6);
}

TEST(ModelsTest, IntersectionRootSpecialCases) {
  // Growing-only: root = G0.
  GraphDynamics growing{.delta_star = 1.0, .rho_star = 0.0, .initial_size = 500,
                        .num_events = 10000};
  EXPECT_DOUBLE_EQ(IntersectionRootSize(growing), 500.0);

  // Constant size (delta = rho): |G0| e^{-|E|delta/|G0|}.
  GraphDynamics constant{.delta_star = 0.5, .rho_star = 0.5, .initial_size = 1000,
                         .num_events = 2000};
  EXPECT_NEAR(IntersectionRootSize(constant), 1000 * std::exp(-2000 * 0.5 / 1000),
              1e-9);

  // delta = 2 rho: |G0|^2 / (|G0| + rho |E|).
  GraphDynamics doubling{.delta_star = 0.5, .rho_star = 0.25, .initial_size = 1000,
                         .num_events = 4000};
  EXPECT_NEAR(IntersectionRootSize(doubling), 1000.0 * 1000.0 / (1000 + 0.25 * 4000),
              1e-6);
}

TEST(ModelsTest, SegmentTreeCostsMoreThanIntervalTree) {
  GraphDynamics dyn{.delta_star = 0.5, .rho_star = 0.3, .initial_size = 0,
                    .num_events = 50000};
  EXPECT_GT(SegmentTreeElements(dyn), IntervalTreeElements(dyn));
}

TEST(EventDensityTest, LinearAndSuperLinearGrowth) {
  // Uniform buckets: g(t) ~ t -> exponent ~1, not super-linear.
  std::vector<size_t> uniform(20, 100);
  EventDensity lin = FitEventDensity(uniform);
  EXPECT_NEAR(lin.growth_exponent, 1.0, 0.15);
  EXPECT_FALSE(lin.IsSuperLinear());
  EXPECT_NEAR(RecommendedMixedRatio(lin), 0.5, 0.05);

  // Quadratically growing buckets: g(t) ~ t^2.
  std::vector<size_t> quad;
  for (size_t i = 1; i <= 20; ++i) quad.push_back(i * i);
  EventDensity sup = FitEventDensity(quad);
  EXPECT_GT(sup.growth_exponent, 1.5);
  EXPECT_TRUE(sup.IsSuperLinear());
  EXPECT_GT(RecommendedMixedRatio(sup), 0.55);
}

TEST(EventDensityTest, DblpLikeTraceIsSuperLinear) {
  // The Dataset-1 stand-in must show the super-linear g(t) the paper expects
  // of real networks (Section 5.1).
  DblpLikeOptions opts;
  opts.target_edges = 8000;
  opts.years = 40;
  opts.attrs_per_node = 0;
  GeneratedTrace trace = GenerateDblpLikeTrace(opts);
  const Timestamp t0 = trace.events.front().time;
  const Timestamp t1 = trace.events.back().time;
  std::vector<size_t> buckets(24, 0);
  for (const auto& e : trace.events) {
    const size_t b = std::min<size_t>(
        buckets.size() - 1,
        static_cast<size_t>((e.time - t0) * buckets.size() / (t1 - t0 + 1)));
    ++buckets[b];
  }
  EventDensity density = FitEventDensity(buckets);
  EXPECT_TRUE(density.IsSuperLinear()) << density.growth_exponent;
  EXPECT_GT(RecommendedMixedRatio(density), 0.5);
}

TEST(EventDensityTest, DegenerateInputs) {
  EXPECT_EQ(FitEventDensity({}).growth_exponent, 1.0);
  EXPECT_EQ(FitEventDensity({0, 0, 0}).growth_exponent, 1.0);
}

// --- Model vs measurement -------------------------------------------------------

// Build a constant-rate churn trace and check the analytical predictions
// against the real index within tolerance. This validates Section 5.3
// empirically, which the paper itself does not show — our EXPERIMENTS.md
// records it as an extension.
class ModelValidationTest : public ::testing::Test {
 protected:
  void Build(const std::string& function, size_t L, int k) {
    // Constant-size graph under churn, seeded by an explicit G0 (the way
    // Datasets 2 and 3 start from a snapshot): the constant-rate model of
    // Section 5.1 then applies to the whole indexed trace.
    GeneratedTrace seed_trace;
    seed_trace.world = std::make_unique<TraceWorld>(99);
    TraceWorld& w = *seed_trace.world;
    std::vector<Event> bootstrap;
    Timestamp t = 1;
    for (int i = 0; i < 400; ++i) w.AddNode(t, 0, &bootstrap);
    for (int i = 0; i < 2000; ++i) {
      t += 1;
      w.AddRandomEdge(t, false, &bootstrap);
    }
    const Snapshot g0 = w.graph();
    const size_t initial_elements = g0.ElementCount();

    std::vector<Event> churn_events;
    ChurnOptions churn;
    churn.num_events = 20000;
    churn.add_fraction = 0.5;
    churn.seed = 7;
    AppendChurnPhase(&w, t + 1, churn, &churn_events);

    size_t inserts = 0, deletes = 0;
    for (const auto& e : churn_events) {
      if (e.type == EventType::kAddEdge) ++inserts;
      if (e.type == EventType::kDeleteEdge) ++deletes;
    }
    churn_events_ = churn_events.size();
    dyn_ = EstimateDynamics(inserts, deletes, churn_events_,
                            static_cast<double>(initial_elements));

    store_ = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = L;
    opts.arity = k;
    opts.functions = {function};
    auto dg = DeltaGraph::Create(store_.get(), opts);
    ASSERT_TRUE(dg.ok());
    dg_ = std::move(dg).value();
    ASSERT_TRUE(dg_->SetInitialSnapshot(g0, t).ok());
    ASSERT_TRUE(dg_->AppendAll(churn_events).ok());
    ASSERT_TRUE(dg_->Finalize().ok());
  }

  GraphDynamics dyn_;
  size_t churn_events_ = 0;
  std::unique_ptr<KVStore> store_;
  std::unique_ptr<DeltaGraph> dg_;
};

TEST_F(ModelValidationTest, BalancedDeltaSizesTrackModel) {
  Build("balanced", 1000, 2);
  // Measure average level-2 delta element counts (parents of leaves).
  const auto& skel = dg_->skeleton();
  double measured = 0;
  size_t count = 0;
  for (size_t i = 0; i < skel.edge_count(); ++i) {
    const auto& e = skel.edge(static_cast<int32_t>(i));
    if (e.is_eventlist) continue;
    const auto& from = skel.node(e.from);
    const auto& to = skel.node(e.to);
    if (from.level == 2 && to.is_leaf && !from.is_super_root) {
      measured += static_cast<double>(e.sizes.TotalElements(kCompAll));
      ++count;
    }
  }
  ASSERT_GT(count, 4u);
  measured /= static_cast<double>(count);
  GraphDynamics dyn = dyn_;
  dyn.num_events = static_cast<double>(churn_events_);
  const double predicted = BalancedDeltaElements(dyn, 1000, 2, 2);
  // Constant-rate trace: the measurement should track the model closely.
  EXPECT_GT(measured, predicted * 0.5);
  EXPECT_LT(measured, predicted * 2.0);
}

TEST_F(ModelValidationTest, IntersectionRootTracksSurvivalModel) {
  Build("intersection", 1000, 2);
  // Measured root size: element count of the super-root edge's delta.
  const auto& skel = dg_->skeleton();
  uint64_t root_elements = 0;
  for (int32_t eid : skel.incident_edges(skel.super_root())) {
    root_elements += skel.edge(eid).sizes.TotalElements(kCompAll);
  }
  // The churn deletes *edges* only, so the survival model applies to the
  // edge population; G0's nodes are never deleted and survive wholesale.
  GraphDynamics edge_dyn = dyn_;
  edge_dyn.num_events = static_cast<double>(churn_events_);
  edge_dyn.initial_size = 2000;  // |G0| edges.
  const double surviving_edges = IntersectionRootSize(edge_dyn);
  const double predicted = 400 /* G0 nodes */ + surviving_edges;
  EXPECT_LT(static_cast<double>(root_elements), dyn_.initial_size);
  EXPECT_GT(static_cast<double>(root_elements), predicted * 0.7);
  EXPECT_LT(static_cast<double>(root_elements), predicted * 1.4);
}

}  // namespace
}  // namespace hgdb
