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

/// \brief Batches several in-flight snapshot retrievals over one DeltaGraph
/// onto a shared TaskPool.
///
/// Where GetSnapshots runs one query to completion, a session lets a caller
/// queue k independent GetSnapshot(s)-shaped requests, execute all of their
/// plans concurrently, and share one fetch pin across them — two requests
/// traversing the same skeleton edge fetch and decode it once (the "batch
/// their DeltaStore fetches" half of serving concurrent traffic; the other
/// half is the per-plan subtree parallelism, which sessions get for free
/// because every request's subtrees land in the same pool).
///
/// Usage:
///   RetrievalSession session(&dg);
///   auto* a = session.Submit({t1, t2});
///   auto* b = session.Submit({t3}, kCompStruct);
///   HG_RETURN_NOT_OK(session.Wait());       // runs everything, helping
///   use(a->result.value());                  // in the order of a's times
///
/// A session is single-owner: Submit/Wait are driven by one thread (that
/// serializes the planning step, which shares the index's SSSP cache), while
/// execution fans out on the pool. Sessions from *different* threads over the
/// same DeltaGraph are safe — the underlying stores and caches are
/// thread-safe. Each Submit pins the index's published frontier (epoch) and
/// the whole request — planning, prefetch, execution — reads only that
/// immutable state, so the single ingest writer may Append/Finalize
/// concurrently with in-flight sessions (see src/server/README.md for the
/// visibility contract).
class RetrievalSession {
 public:
  /// One queued retrieval and, after Wait, its outcome.
  struct Request {
    std::vector<Timestamp> times;
    unsigned components = kCompAll;
    /// Snapshots in the order of `times`; set by Wait.
    Result<std::vector<Snapshot>> result = Status::Internal("session not waited");

    /// The epoch this request pinned at Submit. Everything the request reads
    /// — skeleton, current graph, recent tail — resolves against this
    /// frontier, so concurrent appends/finalizes never skew the result.
    FrontierPtr frontier;

    Plan plan;  // Owned here: executors reference it until Wait returns.
    std::unique_ptr<ParallelPlanExecutor> executor;
    obs::SpanId span = obs::kNoSpan;  ///< "request" span; closed by Wait.

    /// Epoch of the pinned frontier (0 before Submit resolved it).
    uint64_t pinned_epoch() const {
      return frontier == nullptr ? 0 : frontier->epoch;
    }
  };

  /// `pool` defaults to DeltaGraph::ResolveTaskPool(). Prefetch runs on the DeltaGraph's
  /// resolved I/O pool (SetIoPool / HISTGRAPH_IO_THREADS); each Submit
  /// queues its plan's fetches before execution starts, so requests share
  /// both the fetch pin and the prefetch pipeline.
  explicit RetrievalSession(DeltaGraph* dg, TaskPool* pool = nullptr);
  ~RetrievalSession();

  RetrievalSession(const RetrievalSession&) = delete;
  RetrievalSession& operator=(const RetrievalSession&) = delete;

  /// Queues a multipoint retrieval and starts it on the pool. The returned
  /// pointer stays valid for the session's lifetime; its `result` is
  /// meaningful only after Wait.
  Request* Submit(std::vector<Timestamp> times, unsigned components = kCompAll);

  /// Blocks (helping the pool) until every submitted request finishes and
  /// fills each request's `result`. Returns the first error, if any (per-
  /// request statuses are also available on the requests). Idempotent.
  Status Wait();

  size_t request_count() const { return requests_.size(); }

  /// The session's query trace, or nullptr when tracing is off
  /// (HISTGRAPH_TRACE unset and obs::SetTraceEnabled never called). Spans are
  /// complete after Wait; the pointer stays valid for the session's lifetime.
  const obs::QueryTrace* LastTrace() const { return trace_.get(); }

 private:
  DeltaGraph* dg_;
  TaskPool* pool_;
  /// Declared before fetches_ so in-flight prefetch drains (waited out by the
  /// cache's destructor) never outlive the trace they attribute to.
  std::unique_ptr<obs::QueryTrace> trace_;
  bool trace_dumped_ = false;
  ExecFetchCache fetches_;  ///< Shared across all requests in the session.
  std::vector<std::unique_ptr<Request>> requests_;
  // Declared last (destroyed first): in-flight tasks reference the plans and
  // executors above; the destructor also waits explicitly.
  TaskGroup group_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_RETRIEVAL_SESSION_H_
