#ifndef HISTGRAPH_CORE_GRAPH_MANAGER_H_
#define HISTGRAPH_CORE_GRAPH_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/attr_options.h"
#include "core/time_expression.h"
#include "deltagraph/delta_graph.h"
#include "exec/io_pool.h"
#include "exec/retrieval_session.h"
#include "graphpool/graph_pool.h"

namespace hgdb {

/// \brief A retrieved historical graph: a filtered view over the GraphPool
/// (the paper's HistGraph, Section 3.2.1).
///
/// Obtained from GraphManager::GetHistGraph*, traversed through the view
/// accessors, and returned to the pool with GraphManager::Release when the
/// analysis is done.
class HistGraph {
 public:
  HistGraph() = default;

  const HistGraphView& view() const { return view_; }
  Timestamp time() const { return time_; }
  PoolGraphId pool_id() const { return id_; }
  bool valid() const { return id_ >= 0; }

  // Convenience passthroughs mirroring the paper's programmatic API.
  std::vector<NodeId> GetNodes() const { return view_.GetNodes(); }
  std::vector<NodeId> GetNeighbors(NodeId n) const { return view_.GetNeighbors(n); }
  bool HasNode(NodeId n) const { return view_.HasNode(n); }
  bool HasEdge(EdgeId e) const { return view_.HasEdge(e); }
  const std::string* GetNodeAttr(NodeId n, const std::string& key) const {
    return view_.GetNodeAttr(n, key);
  }
  const std::string* GetEdgeAttr(EdgeId e, const std::string& key) const {
    return view_.GetEdgeAttr(e, key);
  }

 private:
  friend class GraphManager;
  HistGraphView view_;
  Timestamp time_ = 0;
  PoolGraphId id_ = -1;
};

/// Configuration of the full system facade.
struct GraphManagerOptions {
  DeltaGraphOptions index;
  /// Overlay a retrieved snapshot as *dependent* on the current graph when
  /// its diff is below this fraction of the snapshot's size (Section 6's
  /// query-time dependence decision). 0 disables dependent overlays. Only
  /// full-attribute retrievals use dependence (a partial retrieval must not
  /// inherit attributes the caller did not ask for).
  double dependent_overlay_threshold = 0.25;
  /// Parallelism of multipoint plan execution. 0 = the process-wide default
  /// (HISTGRAPH_THREADS, falling back to the hardware concurrency); 1 forces
  /// serial execution; N >= 2 runs this manager's retrievals on a private
  /// pool of N threads. Negative values are treated as 1 (forced serial).
  int exec_parallelism = 0;
  /// Parallelism of the asynchronous fetch prefetcher. 0 = the process-wide
  /// default (IoPool::Shared, sized by HISTGRAPH_IO_THREADS, default 8);
  /// N >= 1 runs this manager's prefetches on a private I/O pool of N
  /// threads; negative disables prefetching (every fetch blocks its worker).
  int io_parallelism = 0;
  /// Memory budget for traffic-adaptive materialization, in bytes of
  /// resident materialized snapshots (src/adaptive/). 0 disables the
  /// advisor. The HISTGRAPH_MAT_BUDGET environment variable overrides when
  /// set. Consumed by HistGraphServer, which runs the advisor's decision
  /// ticks on its ingest strand; a bare GraphManager does not tick on its
  /// own (construct a MaterializationAdvisor directly to drive one).
  uint64_t materialization_budget_bytes = 0;
};

/// \brief The system facade tying together the DeltaGraph (HistoryManager
/// role: query planning and disk I/O) and the GraphPool (GraphManager role:
/// overlaying and cleanup) — the components below the dashed line of
/// Figure 2.
class GraphManager {
 public:
  /// Creates a fresh historical graph database over `store`.
  static Result<std::unique_ptr<GraphManager>> Create(KVStore* store,
                                                      GraphManagerOptions options);

  /// Reopens a previously finalized database.
  static Result<std::unique_ptr<GraphManager>> Open(KVStore* store,
                                                    GraphManagerOptions options = {});

  // -- Updates -----------------------------------------------------------------
  /// Seeds the database with a non-empty starting graph as of `t0` (must
  /// precede all events).
  Status SetInitialSnapshot(const Snapshot& g0, Timestamp t0);

  /// Applies one event to the database: the DeltaGraph absorbs it (cutting
  /// leaves as needed) and the pool's current graph is updated in place.
  Status ApplyEvent(const Event& e);
  Status ApplyEvents(const std::vector<Event>& events);

  /// Flushes trailing events and persists the index (DeltaGraph::Finalize).
  Status FinalizeIndex();

  // -- Snapshot queries (Section 3.2.1) ------------------------------------------
  /// GetHistGraph(Time t, String attr_options).
  Result<HistGraph> GetHistGraph(Timestamp t, const std::string& attr_options = "");

  /// GetHistGraphs(List<Time>, String attr_options): multipoint retrieval
  /// through the Steiner-tree planner; snapshots share storage in the pool.
  Result<std::vector<HistGraph>> GetHistGraphs(const std::vector<Timestamp>& times,
                                               const std::string& attr_options = "");

  /// GetHistGraph(TimeExpression, String attr_options): the hypothetical
  /// graph of elements satisfying a Boolean expression over time points.
  Result<HistGraph> GetHistGraph(const TimeExpression& expr,
                                 const std::string& attr_options = "");

  /// GetHistGraphInterval(ts, te, attr_options): all elements *added* during
  /// [ts, te), including transient events (which no snapshot query returns).
  Result<HistGraph> GetHistGraphInterval(Timestamp ts, Timestamp te,
                                         const std::string& attr_options = "");

  /// Raw event window access (backs interval analytics).
  Result<EventList> GetEvents(Timestamp ts, Timestamp te,
                              bool include_transient = true);

  /// Opens a batched-retrieval session over the index: queue several
  /// GetSnapshot(s)-shaped requests, then run them concurrently on the
  /// manager's task pool with one shared fetch cache (see RetrievalSession).
  /// The session must not outlive the manager, and index updates must not
  /// run while it has requests in flight.
  std::unique_ptr<RetrievalSession> NewRetrievalSession();

  // -- Materialization ------------------------------------------------------------
  /// Materializes every index node at `depth` below the super-root (0 =
  /// roots) and overlays the materialized graphs into the pool, where they
  /// get single bits and can serve as dependency bases for later historical
  /// overlays (Figure 5(c): "historical snapshot 35 is dependent on
  /// materialized graph 4"). Returns how many nodes were materialized.
  Result<size_t> MaterializeDepth(int depth);

  // -- Lifecycle ----------------------------------------------------------------
  /// Returns a retrieved graph to the pool (cleanup happens lazily).
  Status Release(HistGraph* g);

  /// Runs the lazy cleaner; returns the number of evicted elements.
  size_t RunCleaner();

  // -- Components ----------------------------------------------------------------
  DeltaGraph& index() { return *dg_; }
  const DeltaGraph& index() const { return *dg_; }
  GraphPool& pool() { return pool_; }
  const GraphPool& pool() const { return pool_; }

 private:
  GraphManager(std::unique_ptr<DeltaGraph> dg, GraphManagerOptions options)
      : options_(std::move(options)), dg_(std::move(dg)) {}

  /// Overlays a reconstructed snapshot into the pool, choosing dependent vs
  /// independent overlay, and wraps it in a HistGraph.
  Result<HistGraph> OverlaySnapshot(Snapshot&& snap, Timestamp t, unsigned components);

  /// Applies options_.exec_parallelism to the index's task pool.
  void WireExecPool();

  static void FilterAttrs(Snapshot* snap, const AttrOptions& opts);

  GraphManagerOptions options_;
  std::unique_ptr<DeltaGraph> dg_;
  std::unique_ptr<TaskPool> owned_exec_pool_;  ///< When exec_parallelism >= 2.
  std::unique_ptr<IoPool> owned_io_pool_;      ///< When io_parallelism >= 1.
  GraphPool pool_;
  size_t leaves_seen_ = 0;
  EdgeId next_transient_edge_id_ = (EdgeId{1} << 62);

  /// Materialized index nodes overlaid in the pool; candidate dependency
  /// bases for historical overlays. The Snapshot pointers live in the
  /// DeltaGraph's materialization map.
  struct MaterializedBase {
    PoolGraphId pool_id;
    int32_t node_id;
    const Snapshot* snapshot;
  };
  std::vector<MaterializedBase> materialized_bases_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_CORE_GRAPH_MANAGER_H_
