#ifndef HISTGRAPH_EXEC_RETRIEVAL_SESSION_H_
#define HISTGRAPH_EXEC_RETRIEVAL_SESSION_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "deltagraph/delta_graph.h"
#include "exec/fetch_cache.h"
#include "exec/parallel_executor.h"
#include "exec/task_pool.h"
#include "graph/snapshot.h"

namespace hgdb {

class PartitionedDeltaGraph;

/// \brief Batches several in-flight snapshot retrievals over one index — a
/// DeltaGraph (one shard) or a PartitionedDeltaGraph (P shards) — onto a
/// shared TaskPool. This is the one cross-shard retrieval pipeline.
///
/// Each Submit runs four phases, in this order:
///   1. pin one frontier per shard;
///   2. plan every shard (a shard with no leaves replays its pinned recent
///      view instead, synchronously);
///   3. queue every shard's prefetch into the shard's session-wide fetch
///      cache, on the shard's own I/O lane;
///   4. only then start the shard executors, as sibling task trees in one
///      group (on a serial pool each runs inline while the I/O lanes keep
///      fetching the other shards' payloads).
/// Wait stitches each request's per-shard pieces per time point with
/// Snapshot::AbsorbDisjoint; for one shard that is an O(1) store steal.
///
/// The fetch caches live as long as the session, so two requests traversing
/// the same skeleton edge of the same shard fetch and decode it once, and
/// every request's subtrees share the pool.
///
/// Usage:
///   RetrievalSession session(&dg);           // or (&pdg)
///   auto* a = session.Submit({t1, t2});
///   auto* b = session.Submit({t3}, kCompStruct);
///   HG_RETURN_NOT_OK(session.Wait());       // runs everything, helping
///   use(a->result.value());                  // in the order of a's times
///
/// A session is single-owner: Submit/Wait are driven by one thread (that
/// serializes the planning step, which shares each shard's SSSP cache),
/// while execution fans out on the pool. Sessions from *different* threads
/// over the same index are safe — the underlying stores and caches are
/// thread-safe. Each Submit pins the published frontiers and the whole
/// request reads only that immutable state, so the single ingest writer may
/// Append/Finalize concurrently with in-flight sessions (see
/// src/server/README.md for the visibility contract).
class RetrievalSession {
 public:
  /// One queued retrieval and, after Wait, its outcome.
  struct Request {
    std::vector<Timestamp> times;
    unsigned components = kCompAll;
    /// Snapshots in the order of `times`; set by Wait.
    Result<std::vector<Snapshot>> result = Status::Internal("session not waited");

    /// frontiers[s] is shard s's published state, pinned at Submit. Shards
    /// publish independently; the whole request reads this one vector, so
    /// concurrent appends/finalizes never skew the result.
    std::vector<FrontierPtr> frontiers;
    /// plans[s] is shard s's plan (owned here: executors reference it until
    /// Wait returns); its root is null when the shard replayed instead.
    std::vector<Plan> plans;
    /// executors[s] is null when shard s replayed; its piece then sits in
    /// replayed[s]. Both are cleared once Wait has stitched the request.
    std::vector<std::unique_ptr<ParallelPlanExecutor>> executors;
    std::vector<Result<std::vector<Snapshot>>> replayed;
    obs::SpanId span = obs::kNoSpan;  ///< "request" span; closed by Wait.
  };

  /// `pool` defaults to the index's ResolveTaskPool(). Prefetch runs on each
  /// shard's resolved I/O pool (SetIoPool / HISTGRAPH_IO_THREADS).
  explicit RetrievalSession(DeltaGraph* dg, TaskPool* pool = nullptr);
  explicit RetrievalSession(PartitionedDeltaGraph* pdg, TaskPool* pool = nullptr);
  ~RetrievalSession();

  RetrievalSession(const RetrievalSession&) = delete;
  RetrievalSession& operator=(const RetrievalSession&) = delete;

  /// Queues a multipoint retrieval and starts every shard's plan on the pool.
  /// The returned pointer stays valid for the session's lifetime; its
  /// `result` is meaningful only after Wait.
  Request* Submit(std::vector<Timestamp> times, unsigned components = kCompAll);

  /// Blocks (helping the pool) until every submitted request finishes, then
  /// stitches each request's pieces into its `result`. Returns the first
  /// error, if any (per-request statuses are also available on the
  /// requests). Idempotent.
  Status Wait();

  size_t request_count() const { return requests_.size(); }

  /// The session's query trace, or nullptr when tracing is off
  /// (HISTGRAPH_TRACE unset and obs::SetTraceEnabled never called). Spans —
  /// per-request "request" spans with per-shard busy-time skew attributes,
  /// session-wide per-shard "shard" spans carrying every fetch through that
  /// shard's cache, and per-request "merge" spans — are complete after Wait;
  /// the pointer stays valid for the session's lifetime.
  const obs::QueryTrace* LastTrace() const { return trace_.get(); }

 private:
  RetrievalSession(std::vector<DeltaGraph*> shards, TaskPool* pool);

  /// Collects every shard piece of `req` and merges them per time point.
  void Stitch(Request* req);

  const std::vector<DeltaGraph*> shards_;
  TaskPool* pool_;
  /// Declared before caches_ so in-flight prefetch drains (waited out by the
  /// caches' destructors) never outlive the trace they attribute to.
  std::unique_ptr<obs::QueryTrace> trace_;
  bool trace_dumped_ = false;
  /// Session-lifetime span per shard; the shard's cache attributes its
  /// drains and demand fetches here. Closed by the first Wait that dumps.
  std::vector<obs::SpanId> shard_spans_;
  /// One fetch cache per shard, shared across all requests in the session.
  std::vector<std::unique_ptr<ExecFetchCache>> caches_;
  std::vector<std::unique_ptr<Request>> requests_;
  // Declared last (destroyed first): in-flight tasks reference the plans and
  // executors above; the destructor also waits explicitly.
  TaskGroup group_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_RETRIEVAL_SESSION_H_
