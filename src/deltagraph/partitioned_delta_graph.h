#ifndef HISTGRAPH_DELTAGRAPH_PARTITIONED_DELTA_GRAPH_H_
#define HISTGRAPH_DELTAGRAPH_PARTITIONED_DELTA_GRAPH_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "deltagraph/delta_graph.h"

namespace hgdb {

class TaskPool;  // src/exec/task_pool.h
class IoPool;    // src/exec/io_pool.h

/// \brief Horizontally partitioned DeltaGraph (Sections 4.2 / 4.6).
///
/// The node-id space is hash-partitioned; every event, edge, node, and
/// attribute is assigned to the partition of its primary node id ("based on
/// the node id of the concerned node(s)"). Each shard is a *full engine*: an
/// independent DeltaGraph over its own key namespace, with its own decoded
/// cache, its own plan, and its own IoPool lane — the paper's one Kyoto
/// Cabinet instance per machine, with one I/O lane per shard standing in for
/// a machine's disk. Snapshot retrieval on each shard is independent and
/// requires no cross-shard communication; results are merged in memory (the
/// Figure 8(b) multicore experiment and the Dataset-3 deployment exercise
/// this path).
///
/// Routing is chunk-aligned: PartitionOfNode hashes `node_id >> 8` and
/// PartitionOfEdge hashes `edge_id >> 8`, so every 256-id block of either id
/// space lands on one shard. Snapshot stores elements in chunks of at most
/// 256 ids (node sets) / 128 ids (edges and attributes), and a 256-id block
/// covers exactly two 128-id chunks, so *every* chunk of a merged snapshot
/// comes from exactly one shard and Snapshot::AbsorbDisjoint adopts it as an
/// O(1) pointer move rather than an element-by-element merge. An edge's
/// attributes route with the edge, so they are always co-located with it (see
/// src/deltagraph/README.md for the merge invariants). Edges are *not*
/// co-located with their endpoints — nothing in the element-wise delta
/// machinery needs them to be.
///
/// Retrieval goes through RetrievalSession (src/exec/retrieval_session.h),
/// the one cross-shard pipeline: it plans one Steiner tree per shard, issues
/// every shard's prefetch batch up front (each on the shard's own I/O lane,
/// so the per-shard fetch pipelines overlap in flight), then executes all
/// shard plans as sibling task trees on one shared work-stealing TaskPool.
class PartitionedDeltaGraph {
 public:
  /// One store per partition; all partitions share the same options. Stores
  /// must outlive the index. This is the multi-store deployment shape (one
  /// physical store per shard, e.g. one disk or one machine each).
  static Result<std::unique_ptr<PartitionedDeltaGraph>> Create(
      std::vector<KVStore*> stores, DeltaGraphOptions options);

  /// Single-store deployment shape: carves `shards` private key namespaces
  /// ("s0/", "s1/", ...) out of `base` with prefix wrappers and records the
  /// shard count under "pm/shards" so Open can rebuild the same layout.
  /// `base` must be empty and must outlive the index.
  static Result<std::unique_ptr<PartitionedDeltaGraph>> Create(
      KVStore* base, size_t shards, DeltaGraphOptions options);

  /// Reopens a single-store index previously created by Create(base, n) and
  /// persisted by Finalize.
  static Result<std::unique_ptr<PartitionedDeltaGraph>> Open(KVStore* base);

  /// The partition an event is routed to: node events and node attributes by
  /// node id, edge events (including edge attributes and transient edges) by
  /// edge id.
  PartitionId PartitionOf(const Event& e) const;
  /// Chunk-aligned node routing: all ids in one 256-id block share a shard.
  PartitionId PartitionOfNode(NodeId n) const;
  /// Chunk-aligned edge routing: all ids in one 256-id block share a shard.
  PartitionId PartitionOfEdge(EdgeId e) const;

  /// Splits a non-empty initial graph across partitions (nodes and node
  /// attributes by node id, edges and edge attributes by edge id).
  Status SetInitialSnapshot(const Snapshot& g0, Timestamp t0);

  Status Append(const Event& e);
  /// Buckets `events` per shard and appends each bucket on its own task
  /// (shards ingest independently; per-shard event order is preserved).
  Status AppendAll(const std::vector<Event>& events);
  /// Finalizes every shard, in parallel on the attached pool.
  Status Finalize();

  /// Retrieves the merged snapshot as of `t`.
  Result<Snapshot> GetSnapshot(Timestamp t, unsigned components = kCompAll);

  /// Per-partition retrieval without merging (a distributed compute engine
  /// keeps partitions separate; see the compute module): `result[s]` is shard
  /// s's piece of the snapshot at `t`, each shard read through its own
  /// DeltaGraph::GetSnapshotsAt at one PinFrontiers() vector.
  Result<std::vector<Snapshot>> GetSnapshotParts(Timestamp t,
                                                 unsigned components = kCompAll);

  /// Multipoint retrieval: one request through a RetrievalSession, which
  /// plans one Steiner tree per shard, runs the shards concurrently and
  /// merges their pieces per time point. Snapshots are returned in the order
  /// of `times`.
  Result<std::vector<Snapshot>> GetSnapshots(const std::vector<Timestamp>& times,
                                             unsigned components = kCompAll);

  /// Index-shape statistics aggregated across every shard: counts and byte
  /// totals are summed; `height` is the tallest shard's (retrieval cost is
  /// bounded by the deepest traversal, not the sum).
  DeltaGraphStats Stats() const;

  /// Attaches the pool shard plans (and parallel ingest) run on, and forwards
  /// it to every shard. Same contract as DeltaGraph::SetTaskPool: nullptr
  /// forces serial, never calling it defaults to TaskPool::Shared().
  void SetTaskPool(TaskPool* pool);
  /// The pool retrieval and ingest run on; never null. Same resolution as
  /// DeltaGraph::ResolveTaskPool: the attached pool, TaskPool::Serial() when
  /// forced serial, TaskPool::Shared() when never configured.
  TaskPool* ResolveTaskPool() const;

  /// Forwards to every shard. Each shard keeps its distinct I/O lane
  /// (shard index % io->parallelism()), so shard fetch pipelines drain on
  /// distinct I/O threads.
  void SetIoPool(IoPool* pool);

  /// Forwards to every shard's decoded-payload LRU.
  void SetDecodedCacheCapacity(size_t entries);

  size_t partition_count() const { return partitions_.size(); }
  DeltaGraph* partition(size_t i) { return partitions_[i].get(); }
  const DeltaGraph* partition(size_t i) const { return partitions_[i].get(); }

  /// Pins one cross-shard frontier: every shard's published state, read in
  /// one sweep. Shards publish independently, so the vector is the sharded
  /// analogue of one DeltaGraph::PinFrontier() — a query that resolves all
  /// its shard reads against this vector sees a consistent, immutable view
  /// even while the writer keeps appending.
  std::vector<FrontierPtr> PinFrontiers() const {
    std::vector<FrontierPtr> out;
    out.reserve(partitions_.size());
    for (const auto& p : partitions_) out.push_back(p->PinFrontier());
    return out;
  }

 private:
  PartitionedDeltaGraph(std::vector<std::unique_ptr<DeltaGraph>> parts,
                        std::vector<std::unique_ptr<KVStore>> owned_stores);

  /// Runs `fn(shard)` for every shard — concurrently when the resolved pool
  /// has parallelism, serially otherwise. Returns the first error.
  Status ForEachShard(const std::function<Status(size_t)>& fn);

  // Prefix wrappers created by the single-store Create/Open (empty for the
  // multi-store form). Declared before partitions_ so shards die first.
  std::vector<std::unique_ptr<KVStore>> owned_stores_;
  std::vector<std::unique_ptr<DeltaGraph>> partitions_;
  TaskPool* exec_pool_ = nullptr;  ///< See SetTaskPool.
  bool exec_pool_set_ = false;     ///< False = default to the lazy shared pool.
};

}  // namespace hgdb

#endif  // HISTGRAPH_DELTAGRAPH_PARTITIONED_DELTA_GRAPH_H_
