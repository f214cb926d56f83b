#include "adaptive/materialization_advisor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/models.h"
#include "common/env_util.h"
#include "deltagraph/delta_graph.h"
#include "obs/metrics.h"

namespace hgdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}
double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Shortest build-from-scratch cost per skeleton node under planner weights
/// (per-fetch overhead + payload bytes for the requested components),
/// deliberately ignoring materialized shortcuts: this is what a query
/// through the node pays when no copy is resident — the bytes a resident
/// copy saves. Free sources: the super-root (the empty graph) and, when the
/// current graph is maintained, the newest leaf at the current graph's copy
/// cost (the planner's "rightmost leaf is materialized" rule).
std::vector<double> BuildCostFromScratch(const Skeleton& skel, unsigned components,
                                         const PlannerCosts& costs,
                                         bool has_current, double current_elements) {
  std::vector<double> dist(skel.node_count(), kInf);
  using Item = std::pair<double, int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  auto seed = [&](int32_t id, double d) {
    if (id >= 0 && d < dist[id]) {
      dist[id] = d;
      pq.emplace(d, id);
    }
  };
  seed(skel.super_root(), 0.0);
  if (has_current && !skel.leaves().empty()) {
    seed(skel.leaves().back(),
         costs.memory_cost_factor * costs.bytes_per_element * current_elements);
  }
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (int32_t eid : skel.incident_edges(u)) {
      const SkeletonEdge& e = skel.edge(eid);
      if (e.deleted) continue;
      const double w =
          costs.per_edge_overhead + static_cast<double>(e.sizes.TotalBytes(components));
      const int32_t v = e.from == u ? e.to : e.from;
      if (dist[u] + w < dist[v]) {
        dist[v] = dist[u] + w;
        pq.emplace(dist[v], v);
      }
    }
  }
  return dist;
}

}  // namespace

MaterializationAdvisor::MaterializationAdvisor(MaterializationAdvisorOptions options)
    : options_(options) {
  options_.budget_bytes = ResolveBudgetBytes(options_.budget_bytes);
}

MaterializationAdvisor::~MaterializationAdvisor() {
  if (!metrics_export_name_.empty()) {
    obs::MetricsRegistry::Global().UnregisterProvider(metrics_export_name_);
  }
}

uint64_t MaterializationAdvisor::ResolveBudgetBytes(uint64_t configured) {
  const int64_t env = GetEnvInt("HISTGRAPH_MAT_BUDGET", -1);
  if (env >= 0) return static_cast<uint64_t>(env);
  return configured;
}

void MaterializationAdvisor::Attach(DeltaGraph* dg) {
  if (options_.budget_bytes == 0) return;  // Disabled: leave counters gated.
  dg->node_touches().SetAlwaysOn(true);
  dg->delta_store().fetch_frequency().SetAlwaysOn(true);
}

Result<MaterializationAdvisor::TickResult> MaterializationAdvisor::Tick(
    DeltaGraph* dg) {
  TickResult out;
  const Skeleton& skel = dg->skeleton();

  auto scan_resident = [&](const std::vector<int32_t>& ids) {
    out.resident_nodes = 0;
    out.resident_bytes = 0;
    for (int32_t id : ids) {
      const Snapshot* snap = dg->materialized_snapshot(id);
      if (snap == nullptr) continue;
      ++out.resident_nodes;
      out.resident_bytes += snap->MemoryBytes();
    }
  };
  auto resident_ids = [&] {
    std::vector<int32_t> ids;
    for (size_t i = 0; i < skel.node_count(); ++i) {
      if (skel.node(static_cast<int32_t>(i)).materialized) {
        ids.push_back(static_cast<int32_t>(i));
      }
    }
    return ids;
  };
  auto publish = [&] {
    resident_bytes_.store(out.resident_bytes, std::memory_order_relaxed);
    resident_nodes_.store(out.resident_nodes, std::memory_order_relaxed);
    model_path_bytes_bits_.store(DoubleBits(out.model_path_bytes),
                                 std::memory_order_relaxed);
  };

  if (options_.budget_bytes == 0 || skel.leaves().empty()) {
    scan_resident(resident_ids());
    publish();
    return out;
  }
  const uint64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;

  // Analytical estimate of one query's path cost (Section 5.3's balanced
  // path weight, in planner byte units): the benefit stand-in for nodes the
  // skeleton cannot price yet (unreachable before roots attach).
  const GraphDynamics dyn =
      EstimateDynamics(dg->insert_events(), dg->delete_events(), dg->event_count(),
                       dg->initial_elements());
  const double model_path_bytes =
      BalancedPathElements(dyn) * options_.costs.bytes_per_element;
  out.model_path_bytes = model_path_bytes;

  const std::vector<double> base_cost = BuildCostFromScratch(
      skel, options_.components, options_.costs, dg->options().maintain_current,
      static_cast<double>(dg->PinFrontier()->current_elements));

  // Score every non-super-root node: observed traffic × bytes saved per
  // resident byte. Traffic is the plan touch count plus the fetch counts of
  // the node's incident edges (repeated fetch work next to the node is
  // exactly the cost a resident copy removes; decoded-LRU hits count — a
  // hit is still traffic on that skeleton edge).
  FetchFrequency& touches = dg->node_touches();
  FetchFrequency& fetches = dg->delta_store().fetch_frequency();
  struct Candidate {
    int32_t id = -1;
    double score = 0;
    double est_bytes = 0;  ///< Actual bytes when resident, estimate otherwise.
    uint64_t traffic = 0;
    bool resident = false;
  };
  std::vector<Candidate> cands;
  cands.reserve(skel.node_count());
  for (size_t i = 0; i < skel.node_count(); ++i) {
    const SkeletonNode& n = skel.node(static_cast<int32_t>(i));
    if (n.is_super_root) continue;
    Candidate c;
    c.id = n.id;
    const Snapshot* snap = n.materialized ? dg->materialized_snapshot(n.id) : nullptr;
    c.resident = snap != nullptr;
    c.traffic = touches.Count(static_cast<DeltaId>(n.id));
    for (int32_t eid : skel.incident_edges(n.id)) {
      const SkeletonEdge& e = skel.edge(eid);
      if (!e.deleted) c.traffic += fetches.Count(e.delta_id);
    }
    c.est_bytes =
        c.resident ? static_cast<double>(snap->MemoryBytes())
                   : std::max(1.0, options_.costs.bytes_per_element *
                                       static_cast<double>(n.element_count));
    const double load_cost = options_.costs.memory_cost_factor *
                             options_.costs.bytes_per_element *
                             static_cast<double>(n.element_count);
    const double base =
        base_cost[n.id] < kInf ? base_cost[n.id] : model_path_bytes;
    const double saved = std::max(0.0, base - load_cost);
    c.score = static_cast<double>(c.traffic) * saved / c.est_bytes;
    if (c.resident) c.score *= options_.hysteresis;
    cands.push_back(c);
  }
  out.candidates = cands.size();
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;  // Deterministic across runs.
  });

  // Greedy knapsack under the byte budget. Incumbents compete with their
  // hysteresis-boosted score; one that no longer makes the cut is evicted.
  std::unordered_set<int32_t> desired;
  std::unordered_map<int32_t, double> score_of;
  uint64_t planned = 0;
  for (const Candidate& c : cands) {
    score_of[c.id] = c.score;
    if (c.score <= 0) continue;
    if (!c.resident && c.traffic < options_.min_touches) continue;
    const auto need = static_cast<uint64_t>(c.est_bytes);
    if (planned + need > options_.budget_bytes) continue;
    desired.insert(c.id);
    planned += need;
  }

  // Apply: evictions first (free the budget), then materializations in score
  // order, capped so one tick cannot stall the ingest strand for long.
  for (const Candidate& c : cands) {
    if (c.resident && desired.find(c.id) == desired.end()) {
      HG_RETURN_NOT_OK(dg->UnmaterializeNode(c.id));
      ++out.evicted;
    }
  }
  int budget_actions = options_.max_materialize_per_tick;
  for (const Candidate& c : cands) {
    if (c.resident || desired.find(c.id) == desired.end()) continue;
    if (budget_actions-- <= 0) break;
    // A failed materialization is skipped, not fatal: mid-ingest the skeleton
    // can transiently leave a scored node unreachable to the planner
    // ("terminal unreachable" before its hierarchy attaches). The candidate
    // keeps its traffic and is retried on a later tick; meanwhile queries are
    // unaffected — a missing copy only costs latency.
    if (!dg->MaterializeNode(c.id, options_.components).ok()) continue;
    ++out.materialized;
  }

  // Enforce the budget on *actual* resident bytes: the knapsack ran on
  // estimates, and a fresh copy's real footprint can exceed them. Evict the
  // lowest-scored residents until the total fits (their next-tick estimate
  // is the actual size, so repeat offenders stop being selected).
  std::vector<int32_t> resident = resident_ids();
  scan_resident(resident);
  while (out.resident_bytes > options_.budget_bytes && !resident.empty()) {
    std::sort(resident.begin(), resident.end(), [&](int32_t a, int32_t b) {
      const double sa = score_of.count(a) ? score_of[a] : 0;
      const double sb = score_of.count(b) ? score_of[b] : 0;
      if (sa != sb) return sa < sb;
      return a < b;
    });
    HG_RETURN_NOT_OK(dg->UnmaterializeNode(resident.front()));
    ++out.evicted;
    resident.erase(resident.begin());
    scan_resident(resident);
  }

  if (options_.decay_every_ticks > 0 &&
      tick % static_cast<uint64_t>(options_.decay_every_ticks) == 0) {
    touches.Decay();
    fetches.Decay();
  }

  total_materialized_.fetch_add(out.materialized, std::memory_order_relaxed);
  total_evicted_.fetch_add(out.evicted, std::memory_order_relaxed);
  publish();
  return out;
}

void MaterializationAdvisor::RegisterMetricsExports(const std::string& name) {
  auto& registry = obs::MetricsRegistry::Global();
  if (!metrics_export_name_.empty()) {
    registry.UnregisterProvider(metrics_export_name_);
  }
  metrics_export_name_ = "adaptive." + name;
  registry.RegisterProvider(metrics_export_name_, [this]() {
    std::ostringstream outs;
    outs << "{\"budget_bytes\":" << options_.budget_bytes
         << ",\"resident_bytes\":" << resident_bytes_.load(std::memory_order_relaxed)
         << ",\"resident_nodes\":" << resident_nodes_.load(std::memory_order_relaxed)
         << ",\"ticks\":" << ticks_.load(std::memory_order_relaxed)
         << ",\"materialized_total\":"
         << total_materialized_.load(std::memory_order_relaxed)
         << ",\"evicted_total\":" << total_evicted_.load(std::memory_order_relaxed)
         << ",\"model_path_bytes\":"
         << BitsDouble(model_path_bytes_bits_.load(std::memory_order_relaxed)) << "}";
    return outs.str();
  });
}

}  // namespace hgdb
