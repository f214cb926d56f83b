#ifndef HISTGRAPH_EXEC_PARTITIONED_SESSION_H_
#define HISTGRAPH_EXEC_PARTITIONED_SESSION_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "exec/fetch_cache.h"
#include "exec/parallel_executor.h"
#include "exec/task_pool.h"
#include "graph/snapshot.h"

namespace hgdb {

/// \brief Batches several in-flight snapshot retrievals over a
/// PartitionedDeltaGraph onto one shared TaskPool.
///
/// The sharded counterpart of RetrievalSession: each submitted request plans
/// one Steiner tree *per shard* and starts every shard plan immediately, so
/// all requests' shard subtrees coexist as sibling tasks in one group. The
/// session keeps one fetch pin per shard, shared across requests — two
/// requests traversing the same skeleton edge of the same shard fetch and
/// decode it once — and each shard's prefetch drains on the shard's own
/// IoPool lane, so the per-shard fetch pipelines of every request overlap in
/// flight.
///
/// Usage:
///   PartitionedRetrievalSession session(&pdg);
///   auto* a = session.Submit({t1, t2});
///   auto* b = session.Submit({t3}, kCompStruct);
///   HG_RETURN_NOT_OK(session.Wait());
///   use(a->result.value());   // merged snapshots, in the order of a's times
///
/// Same ownership contract as RetrievalSession: one thread drives
/// Submit/Wait and execution fans out on the pool. Each Submit pins one
/// cross-shard frontier (every shard's published epoch, read in one sweep),
/// so the single ingest writer may keep appending while requests are in
/// flight — a request merges shard states that were all published when it
/// was submitted.
class PartitionedRetrievalSession {
 public:
  /// One queued retrieval and, after Wait, its merged outcome.
  struct Request {
    std::vector<Timestamp> times;
    unsigned components = kCompAll;
    /// Merged snapshots in the order of `times`; set by Wait.
    Result<std::vector<Snapshot>> result = Status::Internal("session not waited");

    /// One cross-shard frontier, pinned at Submit: frontiers[s] is shard s's
    /// published state as of the pin. Each shard publishes independently, but
    /// the whole request reads this one consistent vector.
    std::vector<FrontierPtr> frontiers;

    // Per-shard machinery (owned here: executors reference the plans until
    // Wait returns). executors[s] is null when shard s took the synchronous
    // replay fallback, whose result then sits in fallbacks[s].
    std::vector<Plan> plans;
    std::vector<std::unique_ptr<ParallelPlanExecutor>> executors;
    std::vector<std::optional<Result<std::vector<Snapshot>>>> fallbacks;
    obs::SpanId span = obs::kNoSpan;  ///< "request" span; closed by Wait.
  };

  /// `pool` defaults to PartitionedDeltaGraph::ResolveTaskPool().
  explicit PartitionedRetrievalSession(PartitionedDeltaGraph* pdg,
                                       TaskPool* pool = nullptr);
  ~PartitionedRetrievalSession();

  PartitionedRetrievalSession(const PartitionedRetrievalSession&) = delete;
  PartitionedRetrievalSession& operator=(const PartitionedRetrievalSession&) = delete;

  /// Queues a multipoint retrieval and starts every shard's plan on the pool.
  /// The returned pointer stays valid for the session's lifetime; its
  /// `result` is meaningful only after Wait.
  Request* Submit(std::vector<Timestamp> times, unsigned components = kCompAll);

  /// Blocks (helping the pool) until every shard plan of every request has
  /// finished, then merges each request's per-shard pieces per time point.
  /// Returns the first error. Idempotent.
  Status Wait();

  size_t request_count() const { return requests_.size(); }

  /// The session's query trace, or nullptr when tracing is off. Spans —
  /// per-request "request" spans with per-shard busy-time skew attributes,
  /// session-wide per-shard "shard" spans carrying every fetch through that
  /// shard's pin, and per-request "merge" spans — are complete after Wait.
  const obs::QueryTrace* LastTrace() const { return trace_.get(); }

 private:
  PartitionedDeltaGraph* pdg_;
  TaskPool* pool_;
  /// Declared before caches_ so in-flight prefetch drains (waited out by the
  /// caches' destructors) never outlive the trace they attribute to.
  std::unique_ptr<obs::QueryTrace> trace_;
  bool trace_dumped_ = false;
  /// Session-lifetime span per shard; the shard's fetch pin attributes its
  /// drains and demand fetches here. Closed by the final Wait.
  std::vector<obs::SpanId> shard_spans_;
  /// One fetch pin per shard, shared across all requests in the session.
  std::vector<std::unique_ptr<ExecFetchCache>> caches_;
  std::vector<std::unique_ptr<Request>> requests_;
  // Declared last (destroyed first): in-flight tasks reference the plans and
  // executors above; the destructor also waits explicitly.
  TaskGroup group_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_PARTITIONED_SESSION_H_
