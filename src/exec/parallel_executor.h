#ifndef HISTGRAPH_EXEC_PARALLEL_EXECUTOR_H_
#define HISTGRAPH_EXEC_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <mutex>

#include "common/result.h"
#include "common/status.h"
#include "deltagraph/delta_graph.h"
#include "deltagraph/plan.h"
#include "exec/fetch_cache.h"
#include "exec/task_pool.h"

namespace hgdb {

class IoPool;

/// True if the plan contains at least one node with two or more children —
/// i.e. independent subtrees a parallel executor could overlap. Linear chains
/// (every singlepoint plan) have nothing to parallelize.
bool PlanHasBranches(const Plan& plan);

/// \brief Executes a retrieval plan — the one snapshot-plan executor; every
/// plan (singlepoint, multipoint, materialization, per-shard, session) runs
/// here.
///
/// The executor walks the plan depth-first and *forks* instead of
/// backtracking: at a branch node it copies the working snapshot — an O(1)
/// copy-on-write share — applies each child's step to its own fork, and
/// schedules the sibling subtrees as tasks, descending into the last child
/// itself. No undo steps are ever applied. On a pool of parallelism 1
/// (TaskPool::Serial()) a spawn runs inline, so the same walk is a plain
/// serial depth-first traversal with no thread hop. Emits go through a
/// mutex-guarded sink keyed by emit target (time / node id), so the assembled
/// results are deterministic regardless of task completion order.
///
/// One executor instance serves one plan execution, pinned to one frontier:
/// every piece of mutable graph state (skeleton, current graph, materialized
/// graphs, recent tail) is resolved against the immutable FrontierState the
/// plan was built from, so concurrent appends/finalizes cannot skew an
/// in-flight execution. Concurrent *retrievals* are fine (see
/// src/exec/README.md for the full concurrency contract).
class ParallelPlanExecutor {
 public:
  /// `frontier` is the pinned epoch this execution reads at; the plan must
  /// have been built from the same frontier. `shared_cache` (optional) lets a
  /// RetrievalSession share decoded fetches across several concurrent plans;
  /// by default the executor uses a private cache pinned for this plan only.
  /// Both must outlive the execution. `io_pool` (optional) enables
  /// asynchronous prefetch: Start pre-scans the plan and queues every fetch
  /// on the I/O pool before the first worker task runs, so fetch latency
  /// overlaps apply work (see src/exec/prefetcher.h); plans with fewer than
  /// two fetches skip it.
  ParallelPlanExecutor(const DeltaGraph* dg, FrontierPtr frontier,
                       unsigned components, TaskPool* pool,
                       ExecFetchCache* shared_cache = nullptr,
                       IoPool* io_pool = nullptr);

  /// Runs the plan to completion, helping the pool from the calling thread.
  Result<DeltaGraph::SnapshotPlanResults> Run(const Plan& plan);

  /// Asynchronous form for sessions: schedules the plan's root into `group`
  /// (the caller later waits on the group, then collects TakeStatus /
  /// TakeResults). `plan` and the executor must outlive the group's Wait.
  void Start(const Plan& plan, TaskGroup* group);

  Status TakeStatus();
  DeltaGraph::SnapshotPlanResults TakeResults() { return std::move(results_); }

  /// Attributes this execution to `tc`: Start opens an "execute" span
  /// (closed by TakeStatus), worker tasks accumulate busy time, and — when
  /// the executor owns its cache — prefetch drains and demand fetches nest
  /// under the span. Call before Start; with a shared cache the cache's
  /// owner attaches its own trace. No-op for a null trace.
  void SetTrace(obs::TraceCtx tc) { tc_ = tc; }

  /// Total nanoseconds worker tasks of this execution spent running
  /// (accumulated only when a trace is attached). Sessions compare this
  /// across shards to report execution skew.
  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }

 private:
  /// Walks `node` with `working` as the working snapshot, spawning sibling
  /// subtrees into `group` and descending into the last child iteratively.
  void RunNode(const PlanNode* node, Snapshot working, TaskGroup* group);

  Status ApplyStepTo(const PlanStep& step, Snapshot* snap);
  void RecordError(Status status);

  void EmitTime(Timestamp t, Snapshot snap);
  void EmitNode(int32_t node, Snapshot snap);

  const DeltaGraph* dg_;
  const FrontierPtr frontier_;  ///< Pinned epoch; all graph state reads go here.
  const unsigned components_;
  TaskPool* pool_;
  IoPool* io_pool_;
  ExecFetchCache* fetches_;
  ExecFetchCache own_cache_;

  // Ordered sink: emits land keyed by target, so assembly order never
  // depends on scheduling.
  std::mutex sink_mu_;
  DeltaGraph::SnapshotPlanResults results_;

  std::atomic<bool> failed_{false};
  std::mutex err_mu_;
  Status first_error_;

  // Trace attribution (see SetTrace). The span is opened by Start and closed
  // by TakeStatus, which both run on the submitting thread; workers only
  // bump the (relaxed) tallies.
  obs::TraceCtx tc_;
  obs::SpanId exec_span_ = obs::kNoSpan;
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint32_t> task_count_{0};

  // Stage-attribution window (server.stage_execute_us): set by Start, read by
  // TakeStatus — both on the submitting thread, like the span above.
  std::chrono::steady_clock::time_point exec_started_{};
  bool exec_timed_ = false;
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_PARALLEL_EXECUTOR_H_
