#include <chrono>
#include <unordered_map>

#include "analysis/models.h"
#include "deltagraph/delta_graph.h"
#include "exec/fetch_cache.h"
#include "exec/io_pool.h"
#include "exec/parallel_executor.h"
#include "exec/plan_touches.h"
#include "exec/prefetcher.h"
#include "exec/task_pool.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/stages.h"

namespace hgdb {

namespace {

/// Times one GetSnapshots call into the registry (when metrics are on), and
/// feeds the latency to the trace sampler so an over-threshold query arms
/// tail tracing for its successors.
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
    obs::TraceSampler::Global().Observe(elapsed_us);
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

/// The PlanVisitor that actually reconstructs snapshots: fetches deltas and
/// eventlists from the store, applies them to a working snapshot, and copies
/// the working snapshot out at every emit point — an O(1) copy-on-write
/// share since the Snapshot rework; the clone cost is paid lazily, only for
/// stores the plan actually mutates after the emit. Decoded deltas and
/// eventlists are pinned (shared_ptr) for the duration of one plan so the
/// backtracking (inverse) application never refetches; across plans they
/// come from the DeltaStore's decoded-object LRU.
///
/// When a `prefetched` cache is supplied, misses in the local pin resolve
/// through it instead of fetching synchronously: the plan pre-scan has
/// already queued every edge on the I/O pool, so the visitor blocks only if
/// it outruns the prefetcher.
class SnapshotPlanVisitor final : public PlanVisitor {
 public:
  /// Every piece of writer-mutable state — skeleton edges, the current graph,
  /// materialized snapshots, the recent tail — is resolved from `frontier`,
  /// so the visitor is immune to concurrent appends. `tc` attributes the
  /// visitor's *direct* store fetches (the no-prefetch path) to the trace;
  /// fetches through `prefetched` are attributed by the cache itself (its
  /// owner set its trace).
  SnapshotPlanVisitor(const DeltaGraph* dg, FrontierPtr frontier,
                      unsigned components, ExecFetchCache* prefetched = nullptr,
                      obs::TraceCtx tc = {})
      : dg_(dg),
        frontier_(std::move(frontier)),
        components_(components),
        prefetched_(prefetched),
        tc_(tc) {}

  Status LoadMaterialized(int32_t node) override {
    const Snapshot* snap = frontier_->materialized_snapshot(node);
    if (snap == nullptr) {
      return Status::Internal("plan: node not materialized: " + std::to_string(node));
    }
    const unsigned have = frontier_->skeleton->node(node).materialized_components;
    g_ = (have == components_) ? *snap : snap->CopyFiltered(components_);
    return Status::OK();
  }

  Status LoadCurrent() override {
    if (frontier_->current == nullptr) {
      return Status::Internal("plan: no current graph at pinned frontier");
    }
    g_ = frontier_->current->CopyFiltered(components_);
    return Status::OK();
  }

  Status Unload() override {
    g_.Clear();
    return Status::OK();
  }

  Status ApplyDelta(int32_t edge, bool forward) override {
    const Delta* d = nullptr;
    HG_RETURN_NOT_OK(FetchDelta(edge, &d));
    return d->ApplyTo(&g_, forward, components_);
  }

  Status ApplyEvents(int32_t edge, bool forward, Timestamp lo, Timestamp hi) override {
    const EventList* el = nullptr;
    HG_RETURN_NOT_OK(FetchEventList(edge, &el));
    return ApplyRange(el->events(), forward, lo, hi);
  }

  Status ApplyRecentEvents(bool forward, Timestamp lo, Timestamp hi) override {
    return ApplyRange(frontier_->recent.events(), forward, lo, hi);
  }

  Status EmitTime(Timestamp t, bool is_final) override {
    // The last emit of the plan owns the working snapshot outright; skipping
    // the copy matters for large snapshots (singlepoint queries especially).
    results_.by_time[t] = is_final ? std::move(g_) : g_;
    return Status::OK();
  }

  Status EmitNode(int32_t node, bool is_final) override {
    results_.by_node[node] = is_final ? std::move(g_) : g_;
    return Status::OK();
  }

  DeltaGraph::SnapshotPlanResults TakeResults() { return std::move(results_); }

 private:
  Status FetchDelta(int32_t edge, const Delta** out) {
    auto it = delta_cache_.find(edge);
    if (it == delta_cache_.end()) {
      // Resolve the edge's payload key from the *pinned* skeleton; payloads
      // are written before their edge is published and never deleted, so the
      // fetch always succeeds regardless of concurrent ingest.
      const SkeletonEdge& e = frontier_->skeleton->edge(edge);
      Result<std::shared_ptr<const Delta>> d = [&] {
        if (prefetched_ != nullptr) return prefetched_->GetDelta(*dg_, e, components_);
        obs::StageTimer stage(obs::StageFetchHist());
        obs::ScopedSpan span(tc_, "fetch.demand");
        DeltaStore::ReadStats rs;
        auto r = dg_->store_.GetDeltaShared(e.delta_id, components_, e.sizes,
                                            tc_ ? &rs : nullptr);
        RecordDirectFetch(span, edge, "delta", rs);
        return r;
      }();
      if (!d.ok()) return d.status();
      it = delta_cache_.emplace(edge, std::move(d).value()).first;
    }
    *out = it->second.get();
    return Status::OK();
  }

  Status FetchEventList(int32_t edge, const EventList** out) {
    auto it = el_cache_.find(edge);
    if (it == el_cache_.end()) {
      const SkeletonEdge& e = frontier_->skeleton->edge(edge);
      Result<std::shared_ptr<const EventList>> el = [&] {
        if (prefetched_ != nullptr) {
          return prefetched_->GetEventList(*dg_, e, components_);
        }
        obs::StageTimer stage(obs::StageFetchHist());
        obs::ScopedSpan span(tc_, "fetch.demand");
        DeltaStore::ReadStats rs;
        auto r = dg_->store_.GetEventListShared(e.delta_id, components_, e.sizes,
                                                tc_ ? &rs : nullptr);
        RecordDirectFetch(span, edge, "eventlist", rs);
        return r;
      }();
      if (!el.ok()) return el.status();
      it = el_cache_.emplace(edge, std::move(el).value()).first;
    }
    *out = it->second.get();
    return Status::OK();
  }

  /// Books one direct (no fetch cache) store read onto the trace.
  void RecordDirectFetch(obs::ScopedSpan& span, int32_t edge, const char* kind,
                         const DeltaStore::ReadStats& rs) {
    if (!tc_) return;
    span.SetAttrs({{"edge", static_cast<int64_t>(edge)},
                   {"kind", std::string(kind)},
                   {"lru_hit", static_cast<int64_t>(rs.cache_hit ? 1 : 0)},
                   {"kv_keys", static_cast<int64_t>(rs.kv_keys)},
                   {"bytes", static_cast<int64_t>(rs.bytes)}});
    tc_.trace->fetches_total.fetch_add(1, std::memory_order_relaxed);
    tc_.trace->fetches_demand.fetch_add(1, std::memory_order_relaxed);
    if (rs.cache_hit) {
      tc_.trace->lru_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      tc_.trace->lru_misses.fetch_add(1, std::memory_order_relaxed);
      tc_.trace->kv_reads.fetch_add(rs.kv_keys, std::memory_order_relaxed);
      tc_.trace->bytes_read.fetch_add(rs.bytes, std::memory_order_relaxed);
      tc_.trace->bytes_decoded.fetch_add(rs.bytes, std::memory_order_relaxed);
    }
  }

  Status ApplyRange(std::span<const Event> events, bool forward, Timestamp lo,
                    Timestamp hi) {
    return ApplyEventRange(events, &g_, forward, lo, hi, components_);
  }

  const DeltaGraph* dg_;
  FrontierPtr frontier_;  ///< Pinned visibility epoch for all mutable state.
  unsigned components_;
  ExecFetchCache* prefetched_;  ///< Optional; filled ahead by the I/O pool.
  obs::TraceCtx tc_;            ///< Attribution for direct store fetches.
  Snapshot g_;
  DeltaGraph::SnapshotPlanResults results_;
  std::unordered_map<int32_t, std::shared_ptr<const Delta>> delta_cache_;
  std::unordered_map<int32_t, std::shared_ptr<const EventList>> el_cache_;
};

Status DeltaGraph::ApplyPlanStep(const PlanStep& step, PlanVisitor* visitor,
                                 bool undo) const {
  switch (step.kind) {
    case PlanStep::Kind::kLoadMaterialized:
      return undo ? visitor->Unload() : visitor->LoadMaterialized(step.node);
    case PlanStep::Kind::kLoadCurrent:
      return undo ? visitor->Unload() : visitor->LoadCurrent();
    case PlanStep::Kind::kApplyDelta:
      return visitor->ApplyDelta(step.edge, undo ? !step.forward : step.forward);
    case PlanStep::Kind::kApplyEvents:
      return visitor->ApplyEvents(step.edge, undo ? !step.forward : step.forward,
                                  step.lo, step.hi);
    case PlanStep::Kind::kApplyRecentEvents:
      return visitor->ApplyRecentEvents(undo ? !step.forward : step.forward, step.lo,
                                        step.hi);
  }
  return Status::Internal("plan: unknown step kind");
}

Status DeltaGraph::WalkPlanNode(const PlanNode& node, PlanVisitor* visitor,
                                bool is_tail) const {
  // The very last emit of the whole plan happens at a tail node with no
  // children; that emit may consume the working state.
  const bool final_here = is_tail && node.children.empty();
  for (size_t i = 0; i < node.emit_times.size(); ++i) {
    const bool is_final =
        final_here && node.emit_nodes.empty() && i + 1 == node.emit_times.size();
    HG_RETURN_NOT_OK(visitor->EmitTime(node.emit_times[i], is_final));
  }
  for (size_t i = 0; i < node.emit_nodes.size(); ++i) {
    const bool is_final = final_here && i + 1 == node.emit_nodes.size();
    HG_RETURN_NOT_OK(visitor->EmitNode(node.emit_nodes[i], is_final));
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    const auto& [step, child] = node.children[i];
    // The deepest-rightmost path never needs undoing: nothing follows it.
    const bool child_tail = is_tail && (i + 1 == node.children.size());
    HG_RETURN_NOT_OK(ApplyPlanStep(step, visitor, /*undo=*/false));
    HG_RETURN_NOT_OK(WalkPlanNode(*child, visitor, child_tail));
    if (!child_tail) HG_RETURN_NOT_OK(ApplyPlanStep(step, visitor, /*undo=*/true));
  }
  return Status::OK();
}

Status DeltaGraph::ExecutePlan(const Plan& plan, PlanVisitor* visitor) const {
  if (!plan.root) return Status::InvalidArgument("plan has no root");
  return WalkPlanNode(*plan.root, visitor, /*is_tail=*/true);
}

Result<DeltaGraph::SnapshotPlanResults> DeltaGraph::ExecutePlanPinned(
    const Plan& plan, unsigned components, ExecFetchCache* pinned,
    obs::TraceCtx tc, FrontierPtr frontier) const {
  if (frontier == nullptr) frontier = PinFrontier();
  obs::StageTimer stage(obs::StageExecuteHist());
  obs::ScopedSpan span(tc, "execute.serial");
  SnapshotPlanVisitor visitor(this, std::move(frontier), components, pinned,
                              span.ctx());
  HG_RETURN_NOT_OK(ExecutePlan(plan, &visitor));
  return visitor.TakeResults();
}

IoPool* DeltaGraph::ResolveIoPool() const {
  if (io_pool_ != nullptr) return io_pool_;
  return io_pool_set_ ? nullptr : IoPool::Shared();
}

Result<DeltaGraph::SnapshotPlanResults> DeltaGraph::ExecuteSnapshotPlan(
    const Plan& plan, unsigned components, const FrontierPtr& frontier,
    obs::TraceCtx tc) const {
  // Branchy plans run on the attached pool when it offers real parallelism;
  // linear plans (every singlepoint query) and serial configurations keep
  // the backtracking visitor, whose single-thread profile matches PR 1
  // exactly. The shared default pool is resolved lazily so processes that
  // never execute a branchy plan never spawn its threads. Either executor
  // runs behind the plan prefetcher when an I/O pool is available.
  const bool branchy = PlanHasBranches(plan);
  TaskPool* pool = exec_pool_;
  if (pool == nullptr && !exec_pool_set_ && branchy) pool = &TaskPool::Shared();
  IoPool* io = ResolveIoPool();
  if (branchy && pool != nullptr && pool->parallelism() >= 2) {
    ParallelPlanExecutor executor(this, frontier, components, pool,
                                  /*shared_cache=*/nullptr, io);
    executor.SetTrace(tc);
    return executor.Run(plan);
  }
  if (io != nullptr) {
    // Serial execution over a prefetched pin: the I/O pool fetches the
    // plan's edges in first-touch order while the visitor applies. The cache
    // destructor drains any prefetches the plan never consumed. Plans with
    // fewer than two fetches have nothing to overlap (the visitor blocks on
    // the first fetch either way), so they keep the zero-synchronization
    // direct path — e.g. singlepoint queries served from a materialized node.
    const std::vector<PlanFetch> fetches = CollectPlanFetches(plan);
    if (fetches.size() >= 2) {
      obs::StageTimer stage(obs::StageExecuteHist());
      obs::ScopedSpan span(tc, "execute.serial_prefetch");
      ExecFetchCache cache;
      cache.SetTrace(span.ctx());
      StartCollectedPrefetch(*this, *frontier->skeleton, fetches, components,
                             &cache, io);
      SnapshotPlanVisitor visitor(this, frontier, components, &cache, span.ctx());
      HG_RETURN_NOT_OK(ExecutePlan(plan, &visitor));
      return visitor.TakeResults();
    }
  }
  obs::StageTimer stage(obs::StageExecuteHist());
  obs::ScopedSpan span(tc, "execute.serial");
  SnapshotPlanVisitor visitor(this, frontier, components, /*prefetched=*/nullptr,
                              span.ctx());
  HG_RETURN_NOT_OK(ExecutePlan(plan, &visitor));
  return visitor.TakeResults();
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
  // Pin once so the trace-enabled check and the query see one epoch.
  FrontierPtr frontier = PinFrontier();
  // When tracing is on — globally, or this query won the sampler's draw — a
  // standalone call owns its own trace and dumps it on completion; callers
  // that want programmatic access go through a session
  // (RetrievalSession::LastTrace) or the traced overload below.
  if ((obs::TraceEnabled() || obs::TraceSampler::Global().Sample()) &&
      !times.empty() && !frontier->skeleton->leaves().empty()) {
    obs::QueryTrace trace;
    trace.set_query_label(times.size() == 1 ? "singlepoint" : "multipoint");
    trace.set_epoch(frontier->epoch);
    trace.set_event_count(frontier->event_count);
    auto out =
        GetSnapshotsAt(frontier, times, components, obs::TraceCtx{&trace, obs::kNoSpan});
    obs::FinishAndMaybeDump(&trace);
    return out;
  }
  return GetSnapshotsAt(frontier, times, components, obs::TraceCtx{});
}

Result<std::vector<Snapshot>> DeltaGraph::GetSnapshots(
    const std::vector<Timestamp>& times, unsigned components, obs::TraceCtx tc) {
  return GetSnapshotsAt(PinFrontier(), times, components, tc);
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

namespace {

/// Bridges plan execution onto an auxiliary index hook.
class AuxPlanVisitor final : public PlanVisitor {
 public:
  AuxPlanVisitor(const AuxIndexHook& hook) : hook_(hook), state_(hook.NewState()) {}

  Status LoadMaterialized(int32_t) override {
    return Status::Internal("aux plan must not use materialized shortcuts");
  }
  Status LoadCurrent() override {
    return Status::Internal("aux plan must not use the current graph");
  }
  Status Unload() override {
    state_ = hook_.NewState();
    return Status::OK();
  }
  Status ApplyDelta(int32_t edge, bool forward) override {
    return hook_.ApplyDeltaEdge(state_.get(), edge, forward);
  }
  Status ApplyEvents(int32_t edge, bool forward, Timestamp lo, Timestamp hi) override {
    return hook_.ApplyEventRange(state_.get(), edge, forward, lo, hi);
  }
  Status ApplyRecentEvents(bool forward, Timestamp lo, Timestamp hi) override {
    return hook_.ApplyRecentRange(state_.get(), forward, lo, hi);
  }
  Status EmitTime(Timestamp, bool) override {
    emitted_ = std::move(state_);
    state_ = hook_.NewState();
    return Status::OK();
  }
  Status EmitNode(int32_t, bool is_final) override { return EmitTime(0, is_final); }

  std::unique_ptr<AuxState> TakeEmitted() { return std::move(emitted_); }

 private:
  const AuxIndexHook& hook_;
  std::unique_ptr<AuxState> state_;
  std::unique_ptr<AuxState> emitted_;
};

}  // namespace

Result<std::unique_ptr<AuxState>> DeltaGraph::GetAuxState(const AuxIndexHook& hook,
                                                          Timestamp t) const {
  PlannerContext ctx = MakePlannerContext();
  ctx.allow_materialized = false;
  ctx.allow_current = false;
  Planner planner(ctx);
  auto plan = planner.PlanSnapshots({t}, kCompStruct);
  if (!plan.ok()) return plan.status();
  AuxPlanVisitor visitor(hook);
  HG_RETURN_NOT_OK(ExecutePlan(plan.value(), &visitor));
  auto emitted = visitor.TakeEmitted();
  if (emitted == nullptr) {
    return Status::Internal("aux plan emitted no state");
  }
  return emitted;
}

}  // namespace hgdb
