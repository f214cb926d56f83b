// Section 5 analytical models vs measurements: delta sizes, root sizes, and
// total index space for the Balanced and Intersection functions on a
// constant-rate trace. The paper derives these closed forms but reports no
// validation table; we produce one.

#include "analysis/models.h"
#include "bench/bench_common.h"
#include "workload/trace_world.h"

int main() {
  using namespace hgdb;
  using namespace hgdb::bench;
  PrintHeader("Section 5: analytical models vs measured index statistics");

  // Constant-rate world: bootstrap G0, then 50/50 add/delete churn.
  const double scale = WorkloadScale();
  TraceWorld world(42);
  std::vector<Event> bootstrap;
  Timestamp t = 1;
  const size_t n0 = static_cast<size_t>(1500 * scale);
  for (size_t i = 0; i < n0; ++i) world.AddNode(t, 0, &bootstrap);
  for (size_t i = 0; i < 4 * n0; ++i) {
    t += 1;
    world.AddRandomEdge(t, false, &bootstrap);
  }
  const Snapshot g0 = world.graph();
  std::vector<Event> churn;
  ChurnOptions copts;
  copts.num_events = static_cast<size_t>(60000 * scale);
  copts.add_fraction = 0.5;
  copts.seed = 3;
  AppendChurnPhase(&world, t + 1, copts, &churn);

  size_t inserts = 0, deletes = 0;
  for (const auto& e : churn) {
    if (e.type == EventType::kAddEdge) ++inserts;
    if (e.type == EventType::kDeleteEdge) ++deletes;
  }
  GraphDynamics dyn = EstimateDynamics(inserts, deletes, churn.size(),
                                       static_cast<double>(g0.ElementCount()));
  std::printf("G0: %zu elements; churn: %zu events, delta*=%.3f rho*=%.3f\n\n",
              g0.ElementCount(), churn.size(), dyn.delta_star, dyn.rho_star);

  const size_t L = 2000;
  const int k = 2;
  auto build = [&](const char* fn) {
    auto store = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = L;
    opts.arity = k;
    opts.functions = {fn};
    opts.maintain_current = false;
    auto dg_result = DeltaGraph::Create(store.get(), opts);
    if (!dg_result.ok()) std::abort();
    auto dg = std::move(dg_result).value();
    if (!dg->SetInitialSnapshot(g0, t).ok()) std::abort();
    if (!dg->AppendAll(churn).ok()) std::abort();
    if (!dg->Finalize().ok()) std::abort();
    return std::make_pair(std::move(dg), std::move(store));
  };

  {
    auto [dg, store] = build("balanced");
    // Measured level-2 average delta elements.
    const auto& skel = dg->skeleton();
    double measured = 0;
    size_t count = 0;
    for (size_t i = 0; i < skel.edge_count(); ++i) {
      const auto& e = skel.edge(static_cast<int32_t>(i));
      if (e.is_eventlist) continue;
      if (skel.node(e.from).level == 2 && skel.node(e.to).is_leaf) {
        measured += static_cast<double>(e.sizes.TotalElements(kCompAll));
        ++count;
      }
    }
    measured /= std::max<size_t>(1, count);
    GraphDynamics churn_dyn = dyn;
    churn_dyn.num_events = static_cast<double>(churn.size());
    std::printf("Balanced function (L=%zu, k=%d)\n", L, k);
    PrintRow({"quantity", "model", "measured"}, 26);
    PrintRow({"level-2 delta elements",
              std::to_string(static_cast<uint64_t>(
                  BalancedDeltaElements(churn_dyn, L, k, 2))),
              std::to_string(static_cast<uint64_t>(measured))},
             26);
    PrintRow({"root-to-leaf path elems",
              std::to_string(
                  static_cast<uint64_t>(BalancedPathElements(churn_dyn))),
              "(see fig11 latencies)"},
             26);
  }

  {
    auto [dg, store] = build("intersection");
    const auto& skel = dg->skeleton();
    uint64_t root_elements = 0;
    for (int32_t eid : skel.incident_edges(skel.super_root())) {
      root_elements += skel.edge(eid).sizes.TotalElements(kCompAll);
    }
    // Deletions hit edges only: survival model over the edge population plus
    // the never-deleted node population.
    GraphDynamics edge_dyn = dyn;
    edge_dyn.num_events = static_cast<double>(churn.size());
    edge_dyn.initial_size = static_cast<double>(g0.EdgeCount());
    const double predicted =
        static_cast<double>(g0.NodeCount()) + IntersectionRootSize(edge_dyn);
    std::printf("\nIntersection function\n");
    PrintRow({"quantity", "model", "measured"}, 26);
    PrintRow({"root elements", std::to_string(static_cast<uint64_t>(predicted)),
              std::to_string(root_elements)},
             26);
  }

  {
    GraphDynamics space_dyn = dyn;
    space_dyn.num_events = static_cast<double>(churn.size());
    std::printf("\nSpace comparisons (Section 5.4, in elements)\n");
    PrintRow({"structure", "model elements"}, 26);
    PrintRow({"balanced deltas",
              std::to_string(static_cast<uint64_t>(
                  BalancedTotalDeltaElements(space_dyn, L, k)))},
             26);
    PrintRow({"interval tree",
              std::to_string(
                  static_cast<uint64_t>(IntervalTreeElements(space_dyn)))},
             26);
    PrintRow({"segment tree",
              std::to_string(
                  static_cast<uint64_t>(SegmentTreeElements(space_dyn)))},
             26);
  }
  return 0;
}
