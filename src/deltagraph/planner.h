#ifndef HISTGRAPH_DELTAGRAPH_PLANNER_H_
#define HISTGRAPH_DELTAGRAPH_PLANNER_H_

#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "deltagraph/plan.h"
#include "deltagraph/skeleton.h"

namespace hgdb {

/// Planner-visible description of the index state beyond the skeleton: the
/// in-memory recent eventlist and the current graph (Section 4.5: the
/// "rightmost leaf" — really the current graph — counts as materialized).
struct PlannerContext {
  const Skeleton* skeleton = nullptr;
  size_t recent_count = 0;                 ///< Events not yet folded into the index.
  Timestamp recent_end = kMinTimestamp;    ///< Time of the newest recent event.
  bool has_current = false;                ///< Current graph is loadable.
  uint64_t current_elements = 0;           ///< |current| (copy-cost estimate).
  double avg_event_bytes = 32.0;           ///< Recent-eventlist size estimate.
  /// Auxiliary-index retrieval cannot start from materialized graph
  /// snapshots or the current graph; these gates disable those shortcuts.
  bool allow_materialized = true;
  bool allow_current = true;
};

/// Cost-model constants. All costs are in "bytes fetched from the store";
/// in-memory work is discounted by kMemoryCostFactor.
struct PlannerCosts {
  double per_edge_overhead = 64.0;     ///< Per-fetch latency stand-in.
  double memory_cost_factor = 0.05;    ///< In-memory apply vs disk fetch.
  double bytes_per_element = 24.0;     ///< Copy cost of materialized graphs.
};

/// \brief Cached single-source shortest paths over the base skeleton, the
/// incremental-planning optimization the paper lists as ongoing work
/// ("incrementally maintaining single source shortest paths to handle very
/// large DeltaGraph skeletons", Section 4.3).
///
/// Every path from the plan origin starts either with a super-root edge or
/// with the current-graph load, and the current graph connects only to the
/// newest leaf (Section 4.5). So two trees answer every singlepoint query:
/// one rooted at the super-root and one rooted at the newest leaf. Both
/// depend only on the skeleton (including materialization flags) and the
/// requested components, not on the query time point or the recent tail, so
/// consecutive singlepoint queries reuse one pair of Dijkstra runs. The
/// skeleton's version counter invalidates the cache on any change.
struct SsspCache {
  /// One shortest-path tree. `parent_edge[v]` is the skeleton edge id
  /// toward the source, `-2 - node` for a materialized load off the
  /// super-root, or -1 at the source and at unreached nodes.
  struct Tree {
    std::vector<double> dist;  ///< Per skeleton node.
    std::vector<int32_t> parent_edge;
  };

  uint64_t skeleton_version = ~0ull;  ///< Version this cache was built at.
  unsigned components = 0;
  Tree from_root;  ///< Source: the super-root.
  Tree from_last;  ///< Source: the newest leaf, where the current graph attaches.

  bool ValidFor(const Skeleton& skel, unsigned comps) const {
    return skeleton_version == skel.version() && components == comps &&
           from_root.dist.size() == skel.node_count();
  }
};

/// \brief Translates snapshot queries into retrieval plans over the skeleton.
///
/// Singlepoint queries are planned with Dijkstra's shortest path from the
/// super-root to the query's virtual node (Section 4.3). Multipoint queries
/// are planned as a Steiner tree connecting the super-root and all virtual
/// nodes, via the standard metric-closure MST 2-approximation (Section 4.4);
/// the DeltaGraph's invertible deltas make every skeleton edge traversable in
/// both directions, which is what makes the undirected approximation valid
/// here.
class Planner {
 public:
  Planner(PlannerContext ctx, PlannerCosts costs = {})
      : ctx_(ctx), costs_(costs) {}

  /// Plans one snapshot retrieval using (and refreshing) the cached
  /// super-root and newest-leaf trees. The current-graph start is priced per
  /// query with the same weights PlanSnapshots gives it, so the plan cost
  /// equals PlanSnapshots({t})'s. Falls back to the uncached path for times
  /// beyond the last leaf boundary (those split the volatile recent
  /// eventlist). `cache` may be empty/mismatched; it is rebuilt.
  Result<Plan> PlanSinglepointCached(Timestamp t, unsigned components,
                                     SsspCache* cache) const;

  /// Plans retrieval of snapshots as of each time in `times` (duplicates
  /// allowed), fetching only `components`. Requires a non-empty skeleton.
  Result<Plan> PlanSnapshots(const std::vector<Timestamp>& times,
                             unsigned components) const;

  /// Plans retrieval of the graphs of specific skeleton nodes (used to
  /// materialize interior nodes, Section 4.5).
  Result<Plan> PlanNodes(const std::vector<int32_t>& node_ids,
                         unsigned components) const;

  struct AugGraph;  // The augmented search graph; defined in planner.cc.

 private:
  /// Fills `g` with the skeleton's nodes and edges plus the
  /// materialized-node loads off the super-root; sets the origin.
  void AddBaseGraph(AugGraph* g, unsigned components) const;
  /// Weight of the super-root -> current graph load.
  double CurrentLoadWeight() const;
  /// Weight of replaying the recent events in (lo, hi]: the tail's in-memory
  /// replay cost, prorated by time over (last_boundary, recent_end].
  double RecentWeight(Timestamp lo, Timestamp hi, Timestamp last_boundary) const;
  Result<Plan> SolveSteiner(AugGraph& g, const std::vector<int32_t>& terminals) const;

  PlannerContext ctx_;
  PlannerCosts costs_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_DELTAGRAPH_PLANNER_H_
