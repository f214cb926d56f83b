#include <chrono>

#include "analysis/models.h"
#include "deltagraph/delta_graph.h"
#include "exec/io_pool.h"
#include "exec/parallel_executor.h"
#include "exec/plan_touches.h"
#include "exec/task_pool.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/stages.h"

namespace hgdb {

namespace {

/// Times one GetSnapshotsAt call into the registry (when metrics are on).
class QueryMeter {
 public:
  QueryMeter() : on_(obs::MetricsEnabled()) {
    if (on_) start_ = std::chrono::steady_clock::now();
  }
  ~QueryMeter() {
    if (!on_) return;
    static obs::Histogram* us =
        obs::MetricsRegistry::Global().GetHistogram("deltagraph.query_us");
    static obs::Counter* queries =
        obs::MetricsRegistry::Global().GetCounter("deltagraph.queries");
    const auto elapsed_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    us->Record(elapsed_us);
    queries->Add();
  }

 private:
  bool on_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Status ApplyEventRange(std::span<const Event> events, Snapshot* g, bool forward,
                       Timestamp lo, Timestamp hi, unsigned components) {
  if (forward) {
    for (const auto& e : events) {
      if (e.time <= lo) continue;
      if (e.time > hi) break;
      HG_RETURN_NOT_OK(g->Apply(e, true, components));
    }
  } else {
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      if (it->time > hi) continue;
      if (it->time <= lo) break;
      HG_RETURN_NOT_OK(g->Apply(*it, false, components));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Snapshot plan execution
// ---------------------------------------------------------------------------

IoPool* DeltaGraph::ResolveIoPool() const {
  if (io_pool_ != nullptr) return io_pool_;
  return io_pool_set_ ? nullptr : IoPool::Shared();
}

TaskPool* DeltaGraph::ResolveTaskPool() const {
  if (exec_pool_ != nullptr) return exec_pool_;
  return exec_pool_set_ ? &TaskPool::Serial() : &TaskPool::Shared();
}

Result<DeltaGraph::SnapshotPlanResults> DeltaGraph::ExecuteSnapshotPlan(
    const Plan& plan, unsigned components, const FrontierPtr& frontier,
    obs::TraceCtx tc) const {
  // One executor for every plan. Branchy plans fork their subtrees onto the
  // resolved pool; linear plans (every singlepoint query) have nothing to
  // fork, so they run inline on the serial pool with no thread hop. Resolving
  // only for branchy plans keeps the shared pool lazy: processes that never
  // execute one never spawn its threads.
  TaskPool* pool = PlanHasBranches(plan) ? ResolveTaskPool() : &TaskPool::Serial();
  ParallelPlanExecutor executor(this, frontier, components, pool,
                                /*shared_cache=*/nullptr, ResolveIoPool());
  executor.SetTrace(tc);
  return executor.Run(plan);
}

Result<std::vector<Snapshot>> DeltaGraph::SnapshotPlanResults::TakeInOrder(
    const std::vector<Timestamp>& times) {
  std::vector<Snapshot> out;
  out.reserve(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    auto it = by_time.find(times[i]);
    if (it == by_time.end()) {
      return Status::Internal("plan did not produce snapshot for requested time");
    }
    // The same time may be requested twice; copy all but the last use.
    bool last_use = true;
    for (size_t j = i + 1; j < times.size(); ++j) {
      if (times[j] == times[i]) {
        last_use = false;
        break;
      }
    }
    if (last_use) {
      out.push_back(std::move(it->second));
    } else {
      out.push_back(it->second);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Public retrieval API
// ---------------------------------------------------------------------------

Result<Plan> DeltaGraph::PlanFor(const std::vector<Timestamp>& times,
                                 unsigned components) const {
  Planner planner(MakePlannerContext());
  return planner.PlanSnapshots(times, components);
}

Result<Plan> DeltaGraph::PlanForAt(const FrontierPtr& frontier,
                                   const std::vector<Timestamp>& times,
                                   unsigned components) const {
  Planner planner(MakePlannerContext(*frontier));
  Result<Plan> plan = [&]() -> Result<Plan> {
    if (times.size() == 1 && options_.use_plan_cache) {
      // The plan cache is shared mutable state; concurrent retrievals
      // serialize the (cheap) planning step, never the execution. The cache
      // keys on the skeleton version, so queries pinned at different epochs
      // rebuild it rather than reading a mismatched tree.
      std::lock_guard<std::mutex> lock(sssp_mu_);
      return planner.PlanSinglepointCached(times[0], components, &sssp_cache_);
    }
    return planner.PlanSnapshots(times, components);
  }();
  if (plan.ok()) RecordPlanTouches(plan.value(), *frontier->skeleton);
  return plan;
}

void DeltaGraph::RecordPlanTouches(const Plan& plan, const Skeleton& skel) const {
  node_touches_.EnsureSize(skel.node_count());
  for (int32_t n : CollectPlanNodeTouches(plan, skel)) {
    node_touches_.Record(static_cast<DeltaId>(n));
  }
}

Result<Snapshot> DeltaGraph::GetSnapshot(Timestamp t, unsigned components) {
  auto snaps = GetSnapshots({t}, components);
  if (!snaps.ok()) return snaps.status();
  return std::move(snaps.value()[0]);
}

Result<std::vector<Snapshot>> DeltaGraph::GetSnapshots(
    const std::vector<Timestamp>& times, unsigned components) {
  const auto start = std::chrono::steady_clock::now();
  // Pin once so the trace-enabled check and the query see one epoch.
  FrontierPtr frontier = PinFrontier();
  // When tracing is on — globally, or this query won the sampler's draw — a
  // standalone call owns its own trace and dumps it on completion; callers
  // that want programmatic access go through a session
  // (RetrievalSession::LastTrace) or GetSnapshotsAt with a TraceCtx.
  auto out = [&] {
    if ((obs::TraceEnabled() || obs::TraceSampler::Global().Sample()) &&
        !times.empty() && !frontier->skeleton->leaves().empty()) {
      obs::QueryTrace trace;
      trace.set_query_label(times.size() == 1 ? "singlepoint" : "multipoint");
      trace.set_epoch(frontier->epoch);
      trace.set_event_count(frontier->event_count);
      auto r = GetSnapshotsAt(frontier, times, components,
                              obs::TraceCtx{&trace, obs::kNoSpan});
      obs::FinishAndMaybeDump(&trace);
      return r;
    }
    return GetSnapshotsAt(frontier, times, components, obs::TraceCtx{});
  }();
  // The entry point that consults the sampler feeds it back, so an
  // over-threshold query arms tail tracing for its successors. Each query is
  // observed once: HistGraphServer::Retrieve, which calls GetSnapshotsAt
  // directly, observes its own end-to-end latency instead.
  obs::TraceSampler::Global().Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return out;
}

Result<std::vector<Snapshot>> DeltaGraph::GetSnapshotsAt(
    const FrontierPtr& frontier, const std::vector<Timestamp>& times,
    unsigned components, obs::TraceCtx tc) const {
  if (times.empty()) return std::vector<Snapshot>();
  QueryMeter meter;

  // Index still empty at the pinned epoch: replay the recent tail directly.
  if (frontier->skeleton->leaves().empty()) {
    std::vector<Snapshot> out;
    out.reserve(times.size());
    for (Timestamp t : times) {
      Snapshot g;
      for (const auto& e : frontier->recent.events()) {
        if (e.time > t) break;
        HG_RETURN_NOT_OK(g.Apply(e, true, components));
      }
      out.push_back(std::move(g));
    }
    return out;
  }

  Result<Plan> plan = [&]() -> Result<Plan> {
    obs::StageTimer stage(obs::StagePlanHist());
    obs::ScopedSpan span(tc, "plan");
    auto r = PlanForAt(frontier, times, components);
    if (tc && r.ok()) {
      // Predicted cost next to actuals: the planner's byte estimate for this
      // plan, and the analytical model's balanced-path element count from the
      // graph's observed dynamics (Section 6 of the paper).
      span.SetAttr("steps", static_cast<int64_t>(r.value().StepCount()));
      span.SetAttr("est_cost_bytes", r.value().estimated_cost);
      const GraphDynamics dyn =
          EstimateDynamics(frontier->insert_events, frontier->delete_events,
                           frontier->event_count, frontier->initial_elements);
      span.SetAttr("model_path_elements", BalancedPathElements(dyn));
      span.SetAttr("times", static_cast<int64_t>(times.size()));
    }
    return r;
  }();
  if (!plan.ok()) return plan.status();
  auto exec = ExecuteSnapshotPlan(plan.value(), components, frontier, tc);
  if (!exec.ok()) return exec.status();
  obs::StageTimer merge_stage(obs::StageMergeHist());
  return exec.value().TakeInOrder(times);
}

Status DeltaGraph::CollectEvents(Timestamp ts, Timestamp te, unsigned components,
                                 EventList* out) const {
  if (ts >= te) return Status::InvalidArgument("CollectEvents requires ts < te");
  // Pin once: the scan sees one consistent epoch of eventlists + recent tail.
  const FrontierPtr frontier = PinFrontier();
  const Skeleton& skel = *frontier->skeleton;
  *out = EventList();
  for (int32_t eid : skel.EventlistEdgesInOrder()) {
    const SkeletonEdge& e = skel.edge(eid);
    const Timestamp b_lo = skel.node(e.from).boundary_time;
    const Timestamp b_hi = skel.node(e.to).boundary_time;
    if (b_hi < ts || b_lo >= te) continue;  // Eventlist covers (b_lo, b_hi].
    auto el = store_.GetEventListShared(e.delta_id, components, e.sizes);
    if (!el.ok()) return el.status();
    for (const auto& ev : el.value()->events()) {
      if (ev.time >= ts && ev.time < te) out->Append(ev);
    }
  }
  for (const auto& ev : frontier->recent.events()) {
    if (ev.time >= ts && ev.time < te &&
        (ev.component() & components) != 0) {
      out->Append(ev);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Auxiliary-index retrieval (Section 4.7)
// ---------------------------------------------------------------------------

Result<std::unique_ptr<AuxState>> DeltaGraph::GetAuxState(const AuxIndexHook& hook,
                                                          Timestamp t) const {
  PlannerContext ctx = MakePlannerContext();
  ctx.allow_materialized = false;
  ctx.allow_current = false;
  Planner planner(ctx);
  auto plan = planner.PlanSnapshots({t}, kCompStruct);
  if (!plan.ok()) return plan.status();
  // A singlepoint plan without materialized or current starts is one chain
  // from the super-root to the emit: replay its steps through the hook.
  std::unique_ptr<AuxState> state = hook.NewState();
  for (const PlanNode* node = plan.value().root.get(); node != nullptr;) {
    if (!node->emit_times.empty()) return state;
    if (node->children.size() != 1) {
      return Status::Internal(node->children.empty() ? "aux plan emitted no state"
                                                     : "aux plan branches");
    }
    const auto& [step, child] = node->children.front();
    switch (step.kind) {
      case PlanStep::Kind::kApplyDelta:
        HG_RETURN_NOT_OK(hook.ApplyDeltaEdge(state.get(), step.edge, step.forward));
        break;
      case PlanStep::Kind::kApplyEvents:
        HG_RETURN_NOT_OK(hook.ApplyEventRange(state.get(), step.edge, step.forward,
                                              step.lo, step.hi));
        break;
      case PlanStep::Kind::kApplyRecentEvents:
        HG_RETURN_NOT_OK(
            hook.ApplyRecentRange(state.get(), step.forward, step.lo, step.hi));
        break;
      case PlanStep::Kind::kLoadMaterialized:
      case PlanStep::Kind::kLoadCurrent:
        return Status::Internal("aux plan must start from the super-root");
    }
    node = child.get();
  }
  return Status::InvalidArgument("plan has no root");
}

}  // namespace hgdb
