#include "exec/parallel_executor.h"

#include <chrono>
#include <utility>
#include <vector>

#include "exec/prefetcher.h"
#include "obs/stages.h"

namespace hgdb {

bool PlanHasBranches(const Plan& plan) {
  if (!plan.root) return false;
  std::vector<const PlanNode*> stack = {plan.root.get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    if (n->children.size() >= 2) return true;
    for (const auto& [step, child] : n->children) stack.push_back(child.get());
  }
  return false;
}

ParallelPlanExecutor::ParallelPlanExecutor(const DeltaGraph* dg, FrontierPtr frontier,
                                           unsigned components, TaskPool* pool,
                                           ExecFetchCache* shared_cache,
                                           IoPool* io_pool)
    : dg_(dg),
      frontier_(frontier != nullptr ? std::move(frontier) : dg->PinFrontier()),
      components_(components),
      pool_(pool),
      io_pool_(io_pool),
      fetches_(shared_cache != nullptr ? shared_cache : &own_cache_) {
  // Our own cache can offload blob decode to the compute pool (a shared
  // cache's owner decides for itself); pointless without real parallelism.
  if (shared_cache == nullptr && pool_ != nullptr && pool_->parallelism() >= 2) {
    own_cache_.SetDecodePool(pool_);
  }
}

Result<DeltaGraph::SnapshotPlanResults> ParallelPlanExecutor::Run(const Plan& plan) {
  TaskGroup group(pool_);
  Start(plan, &group);
  group.Wait();
  HG_RETURN_NOT_OK(TakeStatus());
  return TakeResults();
}

void ParallelPlanExecutor::Start(const Plan& plan, TaskGroup* group) {
  if (!plan.root) {
    RecordError(Status::InvalidArgument("plan has no root"));
    return;
  }
  if (obs::MetricsEnabled()) {
    // Stage attribution: Start -> the first status collection brackets this
    // execution (workers run in between); recorded by TakeStatus.
    exec_started_ = std::chrono::steady_clock::now();
    exec_timed_ = true;
  }
  if (tc_) {
    exec_span_ = tc_.trace->BeginSpan("execute", tc_.span);
    // Nest this execution's fetches under its span — but only through a cache
    // we own; a shared cache already carries its owner's attachment.
    if (fetches_ == &own_cache_) {
      own_cache_.SetTrace(obs::TraceCtx{tc_.trace, exec_span_});
    }
  }
  // Queue every fetch the plan will perform before the first worker runs;
  // workers then overlap apply work with the I/O pool's fetches and block
  // only if they outrun it. The fetch cache outlives any still-queued job
  // (its destructor drains), so early errors cannot strand a prefetch. A
  // private cache serves this plan alone, so a plan with fewer than two
  // fetches has nothing to overlap — the walk blocks on its one fetch either
  // way — and skips the I/O pool (e.g. a singlepoint query served from a
  // materialized node). A RetrievalSession queues its shared caches'
  // prefetches itself and hands the executor no I/O pool.
  if (io_pool_ != nullptr) {
    const std::vector<PlanFetch> plan_fetches = CollectPlanFetches(plan);
    if (plan_fetches.size() >= 2) {
      StartCollectedPrefetch(*dg_, *frontier_->skeleton, plan_fetches, components_,
                             fetches_, io_pool_);
    }
  }
  const PlanNode* root = plan.root.get();
  group->Spawn([this, root, group] { RunNode(root, Snapshot(), group); });
}

Status ParallelPlanExecutor::TakeStatus() {
  if (exec_timed_) {
    exec_timed_ = false;
    obs::StageExecuteHist().Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - exec_started_)
            .count()));
  }
  if (tc_ && exec_span_ != obs::kNoSpan) {
    tc_.trace->SetAttr(exec_span_, "tasks",
                       static_cast<int64_t>(task_count_.load(std::memory_order_relaxed)));
    tc_.trace->SetAttr(exec_span_, "busy_us",
                       static_cast<int64_t>(busy_ns() / 1000));
    tc_.trace->EndSpan(exec_span_);
    exec_span_ = obs::kNoSpan;
  }
  std::lock_guard<std::mutex> lock(err_mu_);
  return failed_.load(std::memory_order_acquire) ? first_error_ : Status::OK();
}

void ParallelPlanExecutor::RecordError(Status status) {
  std::lock_guard<std::mutex> lock(err_mu_);
  if (!failed_.load(std::memory_order_acquire)) {
    first_error_ = std::move(status);
    failed_.store(true, std::memory_order_release);
  }
}

void ParallelPlanExecutor::EmitTime(Timestamp t, Snapshot snap) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  results_.by_time[t] = std::move(snap);
}

void ParallelPlanExecutor::EmitNode(int32_t node, Snapshot snap) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  results_.by_node[node] = std::move(snap);
}

Status ParallelPlanExecutor::ApplyStepTo(const PlanStep& step, Snapshot* snap) {
  switch (step.kind) {
    case PlanStep::Kind::kLoadMaterialized: {
      const Snapshot* mat = frontier_->materialized_snapshot(step.node);
      if (mat == nullptr) {
        return Status::Internal("plan: node not materialized: " +
                                std::to_string(step.node));
      }
      const unsigned have =
          frontier_->skeleton->node(step.node).materialized_components;
      *snap = (have == components_) ? *mat : mat->CopyFiltered(components_);
      return Status::OK();
    }
    case PlanStep::Kind::kLoadCurrent:
      if (frontier_->current == nullptr) {
        return Status::Internal("plan: current graph not maintained");
      }
      *snap = frontier_->current->CopyFiltered(components_);
      return Status::OK();
    case PlanStep::Kind::kApplyDelta: {
      auto d = fetches_->GetDelta(*dg_, frontier_->skeleton->edge(step.edge),
                                  components_);
      if (!d.ok()) return d.status();
      return d.value()->ApplyTo(snap, step.forward, components_);
    }
    case PlanStep::Kind::kApplyEvents: {
      auto el = fetches_->GetEventList(*dg_, frontier_->skeleton->edge(step.edge),
                                       components_);
      if (!el.ok()) return el.status();
      return ApplyEventRange(el.value()->events(), snap, step.forward, step.lo,
                             step.hi, components_);
    }
    case PlanStep::Kind::kApplyRecentEvents:
      return ApplyEventRange(frontier_->recent.events(), snap, step.forward,
                             step.lo, step.hi, components_);
  }
  return Status::Internal("plan: unknown step kind");
}

void ParallelPlanExecutor::RunNode(const PlanNode* node, Snapshot working,
                                   TaskGroup* group) {
  // Busy-time accounting (trace only): one interval per task invocation,
  // including time blocked on fetch futures — that is wall time this subtree
  // occupied a worker, which is what shard-skew comparisons want.
  struct BusyTimer {
    explicit BusyTimer(ParallelPlanExecutor* e) : exec(e), on(bool(e->tc_)) {
      if (on) {
        exec->task_count_.fetch_add(1, std::memory_order_relaxed);
        start = std::chrono::steady_clock::now();
      }
    }
    ~BusyTimer() {
      if (on) {
        exec->busy_ns_.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            std::memory_order_relaxed);
      }
    }
    ParallelPlanExecutor* exec;
    bool on;
    std::chrono::steady_clock::time_point start;
  } busy_timer(this);

  // Iterative tail descent: this task handles `node`'s emits, forks siblings
  // off as tasks, and follows the last child itself.
  while (!failed_.load(std::memory_order_acquire)) {
    const bool leaf_task = node->children.empty();
    for (size_t i = 0; i < node->emit_times.size(); ++i) {
      // The last emit of a childless node owns the working fork outright.
      const bool last_emit =
          leaf_task && node->emit_nodes.empty() && i + 1 == node->emit_times.size();
      EmitTime(node->emit_times[i], last_emit ? std::move(working) : working);
    }
    for (size_t i = 0; i < node->emit_nodes.size(); ++i) {
      const bool last_emit = leaf_task && i + 1 == node->emit_nodes.size();
      EmitNode(node->emit_nodes[i], last_emit ? std::move(working) : working);
    }
    if (leaf_task) return;

    // Fork a COW copy of the working snapshot per sibling subtree. The copy
    // is O(1); each subtree's mutations clone only the stores they touch.
    for (size_t i = 0; i + 1 < node->children.size(); ++i) {
      const auto& [step, child] = node->children[i];
      Snapshot fork = working;
      const Status s = ApplyStepTo(step, &fork);
      if (!s.ok()) {
        RecordError(s);
        return;
      }
      const PlanNode* child_ptr = child.get();
      group->Spawn([this, child_ptr, fork = std::move(fork), group]() mutable {
        RunNode(child_ptr, std::move(fork), group);
      });
    }
    const auto& [last_step, last_child] = node->children.back();
    const Status s = ApplyStepTo(last_step, &working);
    if (!s.ok()) {
      RecordError(s);
      return;
    }
    node = last_child.get();
  }
}

}  // namespace hgdb
