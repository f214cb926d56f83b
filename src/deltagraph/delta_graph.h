#ifndef HISTGRAPH_DELTAGRAPH_DELTA_GRAPH_H_
#define HISTGRAPH_DELTAGRAPH_DELTA_GRAPH_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "deltagraph/aux_hook.h"
#include "deltagraph/delta_store.h"
#include "deltagraph/differential.h"
#include "deltagraph/frontier.h"
#include "deltagraph/plan.h"
#include "deltagraph/planner.h"
#include "deltagraph/skeleton.h"
#include "graph/delta.h"
#include "graph/snapshot.h"
#include "kvstore/kv_store.h"
#include "obs/trace.h"
#include "temporal/event.h"
#include "temporal/event_list.h"

namespace hgdb {

class TaskPool;        // src/exec/task_pool.h
class IoPool;          // src/exec/io_pool.h

/// Construction parameters of a DeltaGraph (Section 4.6): the leaf-eventlist
/// size L, the arity k, and the differential function(s). Multiple functions
/// build multiple hierarchies over the same leaves (Figure 3(b)), trading
/// disk space for query latitude.
struct DeltaGraphOptions {
  size_t leaf_size = 1000;  ///< L: events per leaf-eventlist.
  int arity = 2;            ///< k: children per interior node.
  /// Differential function specs (see MakeDifferentialFunction); one
  /// hierarchy is built per entry.
  std::vector<std::string> functions = {"intersection"};
  /// Keep the current graph in memory and treat it as materialized
  /// (Section 4.5: "the rightmost leaf should also be considered
  /// materialized"). Needed for updates; may be disabled for read-only
  /// replay experiments.
  bool maintain_current = true;
  /// Reuse cached shortest-path trees (from the super-root and from the
  /// newest leaf, where the current graph attaches) across singlepoint
  /// queries (the incremental-planning optimization of Section 4.3's
  /// discussion); invalidated automatically whenever the skeleton changes.
  bool use_plan_cache = true;

  Status Validate() const;
  std::string Encode() const;
  static Status Decode(const std::string& blob, DeltaGraphOptions* out);
};

/// Index statistics for the experiments (space columns of Figures 7, 9, 10).
struct DeltaGraphStats {
  size_t leaf_count = 0;
  size_t node_count = 0;        ///< Skeleton nodes (incl. super-root).
  size_t edge_count = 0;        ///< Skeleton edges.
  int height = 0;               ///< Levels incl. leaves, excl. super-root.
  uint64_t delta_bytes = 0;     ///< Serialized delta bytes (interior + root).
  uint64_t eventlist_bytes = 0; ///< Serialized leaf-eventlist bytes.
  uint64_t store_bytes = 0;     ///< Actual (compressed) bytes in the KV store.
  uint64_t materialized_bytes = 0;  ///< Approx. memory held by materialization.
  size_t materialized_nodes = 0;
};

/// Applies the events with lo < time <= hi to `g`: forward applies them
/// oldest-first, backward applies the same range newest-first, inverted.
/// Takes a span so both owned eventlists and pinned recent-tail views apply
/// through one path.
Status ApplyEventRange(std::span<const Event> events, Snapshot* g, bool forward,
                       Timestamp lo, Timestamp hi, unsigned components);

/// \brief The DeltaGraph: a hierarchical delta-based index over the history
/// of a graph (Section 4), storing its payloads in a key-value store and its
/// skeleton in memory.
///
/// Usage:
///   auto dg = DeltaGraph::Create(store, options).value();
///   dg->AppendAll(events);      // chronological
///   dg->Finalize();             // cut the last leaf, cap, persist skeleton
///   Snapshot g = dg->GetSnapshot(t, kCompStruct | kCompNodeAttr).value();
///
/// The index remains updatable after Finalize: further Append calls extend
/// the recent eventlist, cut new leaves every L events, and cascade interior
/// node creation (Section 6, "Updates to the Current graph").
class DeltaGraph {
 public:
  /// Creates a fresh index backed by `store` (which must be empty of
  /// DeltaGraph keys). The store must outlive the DeltaGraph.
  static Result<std::unique_ptr<DeltaGraph>> Create(KVStore* store,
                                                    DeltaGraphOptions options);

  /// Reopens an index previously persisted to `store` by Finalize.
  static Result<std::unique_ptr<DeltaGraph>> Open(KVStore* store);

  // -- Building and updating --------------------------------------------------
  /// Installs a non-empty initial graph G0 as of time `t0` (the state of
  /// leaf 0). Must be called before any Append. This is how Datasets 2 and 3
  /// of the paper start "with Dataset 1 / a patent network as the starting
  /// snapshot"; with Intersection it also makes the root approximate the
  /// surviving part of G0 (Section 5.3).
  Status SetInitialSnapshot(const Snapshot& g0, Timestamp t0);

  /// Appends one event (must be chronologically >= all prior events). Applies
  /// it to the current graph and cuts a leaf when the recent eventlist
  /// reaches L (leaves are cut at time boundaries so that equal-time events
  /// never straddle two eventlists).
  Status Append(const Event& e);
  Status AppendAll(const std::vector<Event>& events);

  /// Flushes the trailing partial eventlist as a final (short) leaf, persists
  /// the skeleton, and publishes. When a cap is due (the super-root has no
  /// edge yet, or the events since the last cap reach |G|), it first caps
  /// the hierarchy: parents over the pending nodes up to one root per
  /// hierarchy, attached to the super-root. The pending nodes stay pending,
  /// so one hierarchy keeps growing across calls (see "When Finalize caps"
  /// in src/deltagraph/README.md). Idempotent; callable again after further
  /// appends.
  Status Finalize();

  // -- Snapshot retrieval -----------------------------------------------------
  /// Retrieves the snapshot as of time `t` (all events with time <= t
  /// applied), fetching only the requested components.
  Result<Snapshot> GetSnapshot(Timestamp t, unsigned components = kCompAll);

  /// Multipoint retrieval (Section 4.4): one Steiner-planned pass fetching
  /// each shared delta once. Returns snapshots in the order of `times`.
  /// Independent plan subtrees execute concurrently on the attached task
  /// pool when it has parallelism >= 2 (see SetTaskPool); results do not
  /// depend on the pool.
  Result<std::vector<Snapshot>> GetSnapshots(const std::vector<Timestamp>& times,
                                             unsigned components = kCompAll);

  // -- Epoch-based visibility (see src/deltagraph/frontier.h) -----------------
  /// Pins the latest published frontier: an immutable view of the index the
  /// caller may plan and execute against while the writer keeps appending.
  /// Never null (a fresh index publishes its empty state at construction).
  /// The pin is one mutex-guarded shared_ptr copy — not std::atomic<
  /// shared_ptr>, whose libstdc++ implementation unlocks its embedded
  /// spinlock with a relaxed store on the load path, which leaves the
  /// reader's pointer read formally unordered against the writer's next
  /// swap (TSan reports it). One uncontended lock per *query* is noise.
  FrontierPtr PinFrontier() const {
    std::lock_guard<std::mutex> lock(frontier_mu_);
    return frontier_;
  }
  /// Epoch of the latest published frontier.
  uint64_t frontier_epoch() const { return PinFrontier()->epoch; }

  /// GetSnapshots against an explicitly pinned frontier. All state — plan,
  /// skeleton edges, current graph, materialized graphs, recent tail — is
  /// resolved from `frontier`, so the result equals a replay of exactly
  /// `frontier->event_count` events no matter what the writer does
  /// concurrently. `frontier` must come from this graph's PinFrontier().
  Result<std::vector<Snapshot>> GetSnapshotsAt(const FrontierPtr& frontier,
                                               const std::vector<Timestamp>& times,
                                               unsigned components = kCompAll,
                                               obs::TraceCtx tc = {}) const;

  /// The plan the index executes for `times` at a pinned frontier: every
  /// retrieval path plans here (GetSnapshotsAt and RetrievalSession, over one
  /// shard or many), so EXPLAIN shows the plan that runs. A single time
  /// uses the cached plan trees when options.use_plan_cache is set.
  Result<Plan> PlanForAt(const FrontierPtr& frontier,
                         const std::vector<Timestamp>& times,
                         unsigned components = kCompAll) const;

  /// Snapshots produced by one plan execution, keyed by emit target.
  struct SnapshotPlanResults {
    std::map<Timestamp, Snapshot> by_time;
    std::map<int32_t, Snapshot> by_node;

    /// Moves the by_time entries out in the order of `times` (duplicate
    /// times are copied for all but their last use). Internal error if a
    /// requested time was never emitted.
    Result<std::vector<Snapshot>> TakeInOrder(const std::vector<Timestamp>& times);
  };

  /// Collects all events with ts <= time < te, including transient events if
  /// requested (backs GetHistGraphInterval).
  Status CollectEvents(Timestamp ts, Timestamp te, unsigned components,
                       EventList* out) const;

  // -- Materialization (Section 4.5) -------------------------------------------
  /// Materializes the graph of a skeleton node in memory; subsequent plans
  /// may start from it at near-zero cost.
  Status MaterializeNode(int32_t node_id, unsigned components = kCompAll);
  Status UnmaterializeNode(int32_t node_id);
  /// Nodes at `depth` edges below the super-root (0 = roots, 1 = their
  /// children, ...).
  std::vector<int32_t> NodesAtDepth(int depth) const;
  /// Materializes every node at the given depth; returns how many.
  Result<size_t> MaterializeDepth(int depth, unsigned components = kCompAll);
  /// Total materialization: every leaf in memory (reduces the index to
  /// Copy+Log with overlaid in-memory copies).
  Status MaterializeAllLeaves(unsigned components = kCompAll);

  // -- Introspection ------------------------------------------------------------
  const Skeleton& skeleton() const { return skeleton_; }
  const DeltaGraphOptions& options() const { return options_; }
  const Snapshot& current() const { return current_; }
  Timestamp min_time() const { return min_time_; }
  Timestamp max_time() const { return max_time_; }
  size_t event_count() const { return event_count_; }
  /// Insert/delete event tallies — feed `EstimateDynamics` (src/analysis/
  /// models.h) so the paper's cost model can run online, next to real plans.
  size_t insert_events() const { return insert_events_; }
  size_t delete_events() const { return delete_events_; }
  /// |G0| in elements (0 without an initial snapshot).
  double initial_elements() const { return initial_elements_; }
  DeltaGraphStats Stats() const;

  /// Registers this graph's index-shape stats and per-delta fetch-frequency
  /// top-k under `"deltagraph.<name>"` in the metrics registry's "exports"
  /// block (MetricsRegistry::ToJSON). Re-registering under a new name moves
  /// the export; the registration is removed when the graph dies. The graph
  /// must outlive any concurrent ToJSON call.
  void RegisterMetricsExports(const std::string& name);

  ~DeltaGraph();  ///< Unregisters any metrics export.
  const Snapshot* materialized_snapshot(int32_t node_id) const;

  /// The decoded-payload store (read-only access for the execution layer;
  /// its Get* paths are thread-safe).
  const DeltaStore& delta_store() const { return store_; }
  /// Per-skeleton-node touch counters: every retrieval plan records the
  /// nodes its traversal passes through (see exec/plan_touches.h). Together
  /// with the store's per-edge fetch frequency this is the traffic signal
  /// the adaptive materialization advisor scores candidates with. Gated like
  /// FetchFrequency: off unless metrics are on or SetAlwaysOn was called.
  FetchFrequency& node_touches() const { return node_touches_; }
  /// Events newer than the last cut leaf (read-only; the parallel executor
  /// applies them without going through the store).
  const EventList& recent_events() const { return recent_; }

  /// Attaches the task pool that multipoint plan execution runs on. nullptr
  /// forces serial execution. When never called, the default is
  /// TaskPool::Shared(), which is itself serial unless HISTGRAPH_THREADS (or
  /// the hardware) allows >= 2 threads. Retrieval is safe to run concurrently
  /// from several threads, but this setter itself must not race with
  /// in-flight queries.
  void SetTaskPool(TaskPool* pool) {
    exec_pool_ = pool;
    exec_pool_set_ = true;
  }
  /// The pool plans run on: the attached one, TaskPool::Serial() when forced
  /// serial, or TaskPool::Shared() when never configured. Never null. The
  /// shared pool is constructed on first resolution, so callers resolve only
  /// when they have work to fork (retrieval resolves for branchy plans
  /// only), and serial-only processes never spawn its threads.
  TaskPool* ResolveTaskPool() const;

  /// Attaches the I/O pool that plan-driven prefetch runs on. nullptr
  /// disables prefetching (every fetch blocks its worker, the pre-PR 3
  /// behavior). When never called, the default is IoPool::Shared() — sized
  /// by HISTGRAPH_IO_THREADS, itself null (prefetch off) at 0. Same
  /// concurrency contract as SetTaskPool: must not race in-flight queries.
  void SetIoPool(IoPool* pool) {
    io_pool_ = pool;
    io_pool_set_ = true;
  }
  /// The pool prefetch actually uses: the attached one, or the shared
  /// default when never configured (nullptr = prefetch disabled).
  IoPool* ResolveIoPool() const;

  /// Pins every prefetch this graph issues to one IoPool lane
  /// (lane % io->parallelism()) instead of sharding by delta id. A
  /// partitioned index gives each shard its own lane so the shards' fetch
  /// pipelines drain on distinct I/O threads and overlap in flight.
  /// Negative (the default) restores delta-id sharding.
  void SetIoLane(int lane) { io_lane_ = lane; }
  int io_lane() const { return io_lane_; }

  /// Sizes the decoded delta/eventlist LRU that sits above the KVStore
  /// (0 disables and drops all entries). For ablations and for tests that
  /// damage the underlying store out-of-band.
  void SetDecodedCacheCapacity(size_t entries) {
    store_.SetDecodedCacheCapacity(entries);
  }

  // -- Extensibility (Section 4.7) ----------------------------------------------
  /// Registers an auxiliary index hook. Must be called before events are
  /// appended; the hook must outlive the DeltaGraph.
  void RegisterAuxHook(AuxIndexHook* hook) { aux_hooks_.push_back(hook); }

  /// Reconstructs the auxiliary state of `hook` as of time `t` by replaying
  /// the retrieval plan through the hook.
  Result<std::unique_ptr<AuxState>> GetAuxState(const AuxIndexHook& hook,
                                                Timestamp t) const;

 private:
  DeltaGraph(KVStore* store, DeltaGraphOptions options);

  /// A node pending aggregation into a parent, with its in-memory graph.
  struct Pending {
    int32_t node_id;
    std::shared_ptr<Snapshot> graph;
  };

  Result<SnapshotPlanResults> ExecuteSnapshotPlan(const Plan& plan,
                                                  unsigned components,
                                                  const FrontierPtr& frontier,
                                                  obs::TraceCtx tc = {}) const;
  /// Counts `plan`'s node touches into node_touches(). Called once per
  /// query, from PlanForAt, which every retrieval path plans through.
  /// Materialization's own PlanNodes work is deliberately not counted: the
  /// advisor must not see its own actions as traffic.
  void RecordPlanTouches(const Plan& plan, const Skeleton& skel) const;

  /// Flushes the first `prefix` recent events as a leaf + eventlist edge,
  /// leaving the remainder in the recent eventlist. Callers must never place
  /// the boundary inside an equal-time run: every event left behind must be
  /// strictly newer than the cut's boundary time, or it becomes invisible to
  /// the (lo, hi] interval semantics (see src/deltagraph/README.md).
  Status CutLeaf(size_t prefix);
  Status BuildParent(size_t hierarchy, size_t level_index);
  Status CascadeMerges(bool force_partial);
  /// Finalize's cap: merges a copy of pending_ up to one root per hierarchy
  /// and attaches the roots to the super-root, then restores pending_.
  Status BuildCap();
  Status AttachSuperRoot(const Pending& pending_root);
  /// Tells the aux hooks which nodes still await a parent, so they keep the
  /// build state of exactly those nodes.
  void SyncAuxPending();
  PlannerContext MakePlannerContext() const;
  PlannerContext MakePlannerContext(const FrontierState& frontier) const;
  Status PersistMeta();

  /// The single-event body of Append, without publication (AppendAll batches
  /// publication so a multi-event call lands as one epoch).
  Status AppendOne(const Event& e);
  /// Mirrors the event into the append-once recent tail (see RecentTail).
  void PushRecentTail(const Event& e);
  /// Starts a fresh tail holding the current recent_ events (leaf cut, Open).
  void ResetRecentTail();
  /// Builds and atomically publishes a new FrontierState from writer state.
  /// Called by the single writer after every mutation batch; readers that
  /// pinned earlier frontiers are unaffected.
  void PublishFrontier();

  KVStore* kv_;
  DeltaStore store_;
  DeltaGraphOptions options_;
  std::vector<std::unique_ptr<DifferentialFunction>> functions_;
  Skeleton skeleton_;

  Snapshot current_;          ///< The current graph (state after all events).
  uint64_t current_elements_ = 0;  ///< current_.ElementCount(), kept per event.
  EventList recent_;          ///< Events newer than the last leaf.
  Timestamp min_time_ = kMaxTimestamp;
  Timestamp max_time_ = kMinTimestamp;
  size_t event_count_ = 0;
  size_t cap_event_count_ = 0;  ///< event_count_ at the last cap (or Open).
  size_t insert_events_ = 0;   ///< kAddNode/kAddEdge appended so far.
  size_t delete_events_ = 0;   ///< kDeleteNode/kDeleteEdge appended so far.
  double initial_elements_ = 0;  ///< |G0| at SetInitialSnapshot.
  bool has_initial_leaf_ = false;

  /// pending_[h][l] = nodes at level l+1 awaiting a parent in hierarchy h.
  /// Kept across Finalize: a cap builds its parents over a copy.
  std::vector<std::vector<std::vector<Pending>>> pending_;

  std::map<int32_t, std::shared_ptr<Snapshot>> materialized_;
  /// Per-skeleton-node touch counters (see node_touches()). Mutable: queries
  /// are const but still traffic.
  mutable FetchFrequency node_touches_;

  // -- Epoch publication state (single writer; see frontier.h) ---------------
  /// The latest published frontier; readers pin it under frontier_mu_ (held
  /// only for the shared_ptr copy/swap — never while building a frontier or
  /// executing a query).
  mutable std::mutex frontier_mu_;
  FrontierPtr frontier_ = std::make_shared<FrontierState>();
  uint64_t epoch_ = 0;  ///< Last published epoch.
  /// Append-once mirror of recent_ the published RecentViews point into.
  std::shared_ptr<RecentTail> recent_tail_;
  size_t recent_tail_count_ = 0;
  /// Cached immutable skeleton copy; refreshed only when version() moved.
  std::shared_ptr<const Skeleton> published_skeleton_;
  uint64_t published_skeleton_version_ = ~uint64_t{0};
  /// Cached immutable materialized-map copy; refreshed when dirty.
  std::shared_ptr<const std::map<int32_t, std::shared_ptr<Snapshot>>>
      published_materialized_;
  bool materialized_dirty_ = true;
  mutable SsspCache sssp_cache_;  ///< Singlepoint planning cache.
  mutable std::mutex sssp_mu_;    ///< Guards sssp_cache_ across concurrent queries.
  TaskPool* exec_pool_ = nullptr;  ///< Plan-execution pool (see SetTaskPool).
  bool exec_pool_set_ = false;     ///< False = default to the lazy shared pool.
  IoPool* io_pool_ = nullptr;      ///< Prefetch I/O pool (see SetIoPool).
  bool io_pool_set_ = false;       ///< False = default to IoPool::Shared().
  int io_lane_ = -1;               ///< Fixed prefetch lane (see SetIoLane).

  std::vector<AuxIndexHook*> aux_hooks_;

  std::string metrics_export_name_;  ///< Non-empty after RegisterMetricsExports.
};

}  // namespace hgdb

#endif  // HISTGRAPH_DELTAGRAPH_DELTA_GRAPH_H_
