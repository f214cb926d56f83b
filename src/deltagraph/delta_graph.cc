#include "deltagraph/delta_graph.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "codec/format.h"
#include "common/coding.h"
#include "obs/metrics.h"

namespace hgdb {

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

Status DeltaGraphOptions::Validate() const {
  if (leaf_size < 1) return Status::InvalidArgument("leaf_size must be >= 1");
  if (arity < 2) return Status::InvalidArgument("arity must be >= 2");
  if (functions.empty()) {
    return Status::InvalidArgument("at least one differential function required");
  }
  for (const auto& spec : functions) {
    auto fn = MakeDifferentialFunction(spec);
    if (!fn.ok()) return fn.status();
  }
  return Status::OK();
}

std::string DeltaGraphOptions::Encode() const {
  std::string out;
  PutVarint64(&out, leaf_size);
  PutVarint32(&out, static_cast<uint32_t>(arity));
  out.push_back(maintain_current ? 1 : 0);
  out.push_back(use_plan_cache ? 1 : 0);
  PutVarint64(&out, functions.size());
  for (const auto& f : functions) PutLengthPrefixedSlice(&out, Slice(f));
  return out;
}

Status DeltaGraphOptions::Decode(const std::string& blob, DeltaGraphOptions* out) {
  Slice in(blob);
  uint64_t leaf_size = 0, fn_count = 0;
  uint32_t arity = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&in, &leaf_size, "options leaf_size"));
  if (!GetVarint32(&in, &arity)) return Status::Corruption("options arity");
  if (in.empty()) return Status::Corruption("options maintain_current");
  const bool maintain_current = in[0] != 0;
  in.RemovePrefix(1);
  if (in.empty()) return Status::Corruption("options use_plan_cache");
  const bool use_plan_cache = in[0] != 0;
  in.RemovePrefix(1);
  HG_RETURN_NOT_OK(ExpectVarint64(&in, &fn_count, "options function count"));
  out->functions.clear();
  for (uint64_t i = 0; i < fn_count; ++i) {
    std::string f;
    HG_RETURN_NOT_OK(ExpectLengthPrefixedString(&in, &f, "options function"));
    out->functions.push_back(std::move(f));
  }
  out->leaf_size = static_cast<size_t>(leaf_size);
  out->arity = static_cast<int>(arity);
  out->maintain_current = maintain_current;
  out->use_plan_cache = use_plan_cache;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

DeltaGraph::DeltaGraph(KVStore* store, DeltaGraphOptions options)
    : kv_(store), store_(store), options_(std::move(options)) {}

Result<std::unique_ptr<DeltaGraph>> DeltaGraph::Create(KVStore* store,
                                                       DeltaGraphOptions options) {
  HG_RETURN_NOT_OK(options.Validate());
  auto dg = std::unique_ptr<DeltaGraph>(new DeltaGraph(store, std::move(options)));
  for (const auto& spec : dg->options_.functions) {
    auto fn = MakeDifferentialFunction(spec);
    dg->functions_.push_back(std::move(fn).value());
  }
  dg->pending_.resize(dg->functions_.size());
  SkeletonNode super;
  super.level = 0;
  super.is_super_root = true;
  dg->skeleton_.SetSuperRoot(dg->skeleton_.AddNode(super));
  dg->PublishFrontier();
  return dg;
}

Result<std::unique_ptr<DeltaGraph>> DeltaGraph::Open(KVStore* store) {
  DeltaStore ds(store);
  std::string blob;
  // Index-level format gate: a missing "format" meta is a pre-codec (v0)
  // index, which still opens (every blob decoder auto-detects per blob); a
  // version newer than this build can decode is rejected up front instead of
  // failing blob-by-blob later.
  Status format_status = ds.GetMeta("format", &blob);
  if (format_status.ok()) {
    const unsigned version = static_cast<unsigned>(std::strtoul(blob.c_str(), nullptr, 10));
    if (version == 0 || version > codec::kMaxSupportedVersion) {
      return Status::InvalidArgument("index written by unsupported format version: " +
                                     blob);
    }
  } else if (!format_status.IsNotFound()) {
    return format_status;
  }
  HG_RETURN_NOT_OK(ds.GetMeta("options", &blob));
  DeltaGraphOptions options;
  HG_RETURN_NOT_OK(DeltaGraphOptions::Decode(blob, &options));
  auto result = Create(store, std::move(options));
  if (!result.ok()) return result.status();
  auto dg = std::move(result).value();

  Skeleton skel;
  HG_RETURN_NOT_OK(ds.GetSkeleton(&skel));
  dg->skeleton_ = std::move(skel);

  HG_RETURN_NOT_OK(ds.GetMeta("counters", &blob));
  Slice in(blob);
  uint64_t next_id = 0, event_count = 0;
  int64_t min_time = 0, max_time = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&in, &next_id, "meta next_id"));
  HG_RETURN_NOT_OK(ExpectVarint64(&in, &event_count, "meta event_count"));
  if (!GetVarsint64(&in, &min_time) || !GetVarsint64(&in, &max_time)) {
    return Status::Corruption("meta times");
  }
  dg->store_.SetNextId(next_id);
  dg->event_count_ = static_cast<size_t>(event_count);
  dg->cap_event_count_ = dg->event_count_;  // Open starts a new hierarchy.
  dg->min_time_ = min_time;
  dg->max_time_ = max_time;
  dg->has_initial_leaf_ = !dg->skeleton_.leaves().empty();

  // Restore the recent (unindexed) eventlist.
  Status s = ds.GetMeta("recent", &blob);
  if (s.ok()) {
    EventList recent;
    HG_RETURN_NOT_OK(recent.DecodeAndMergeComponent(blob));
    recent.FinalizeMerge();
    dg->recent_ = std::move(recent);
  } else if (!s.IsNotFound()) {
    return s;
  }

  // Publish the reopened state (sans current graph) so the rebuild below can
  // execute against a pinned frontier like any other query.
  dg->ResetRecentTail();
  dg->PublishFrontier();

  // Rebuild the current graph: last leaf snapshot + recent events. The writer
  // always needs it (Append applies every event to it and leaf cuts derive
  // from it); maintain_current only decides whether readers see it.
  if (!dg->skeleton_.leaves().empty()) {
    const Timestamp last_boundary =
        dg->skeleton_.node(dg->skeleton_.leaves().back()).boundary_time;
    // Plan without the current graph (it does not exist yet).
    Planner planner(PlannerContext{.skeleton = &dg->skeleton_,
                                   .recent_count = 0,
                                   .has_current = false});
    auto plan = planner.PlanSnapshots({last_boundary}, kCompAll);
    if (!plan.ok()) return plan.status();
    auto snaps = dg->ExecuteSnapshotPlan(plan.value(), kCompAll, dg->PinFrontier());
    if (!snaps.ok()) return snaps.status();
    auto it = snaps.value().by_time.find(last_boundary);
    if (it == snaps.value().by_time.end()) {
      return Status::Internal("open: failed to rebuild current graph");
    }
    dg->current_ = std::move(it->second);
    HG_RETURN_NOT_OK(dg->current_.ApplyAll(dg->recent_.events(), /*forward=*/true));
    dg->current_elements_ = dg->current_.ElementCount();
    dg->PublishFrontier();
  }
  return dg;
}

// ---------------------------------------------------------------------------
// Epoch publication (single writer; see src/deltagraph/frontier.h)
// ---------------------------------------------------------------------------

void DeltaGraph::PushRecentTail(const Event& e) {
  if (recent_tail_ == nullptr || recent_tail_count_ == recent_tail_->capacity()) {
    // Full (or first use): move to a larger append-once buffer. The old
    // buffer stays alive behind every frontier that references it.
    const size_t cap = std::max<size_t>(
        64, std::max(options_.leaf_size, 2 * recent_tail_count_));
    auto grown = std::make_shared<RecentTail>(cap);
    for (size_t i = 0; i < recent_tail_count_; ++i) {
      *grown->slot(i) = *recent_tail_->slot(i);
    }
    recent_tail_ = std::move(grown);
  }
  *recent_tail_->slot(recent_tail_count_++) = e;
}

void DeltaGraph::ResetRecentTail() {
  // A leaf cut (or reopen) leaves a *different* event sequence in recent_;
  // published views of the old tail must not change, so start a new buffer.
  const std::vector<Event>& ev = recent_.events();
  recent_tail_ =
      std::make_shared<RecentTail>(std::max<size_t>(64, std::max(options_.leaf_size, 2 * ev.size())));
  for (size_t i = 0; i < ev.size(); ++i) *recent_tail_->slot(i) = ev[i];
  recent_tail_count_ = ev.size();
}

void DeltaGraph::PublishFrontier() {
  auto f = std::make_shared<FrontierState>();
  f->epoch = ++epoch_;
  if (skeleton_.version() != published_skeleton_version_) {
    published_skeleton_ = std::make_shared<const Skeleton>(skeleton_);
    published_skeleton_version_ = skeleton_.version();
  }
  f->skeleton = published_skeleton_;
  if (options_.maintain_current) {
    // O(1) COW copy: shares every chunk with the writer's working graph; the
    // writer's next mutation clones the touched chunk (common/cow.h).
    f->current = std::make_shared<const Snapshot>(current_);
  }
  if (materialized_dirty_) {
    published_materialized_ = std::make_shared<
        const std::map<int32_t, std::shared_ptr<Snapshot>>>(materialized_);
    materialized_dirty_ = false;
  }
  f->materialized = published_materialized_;
  f->recent = RecentView{recent_tail_, recent_tail_count_};
  f->min_time = min_time_;
  f->max_time = max_time_;
  f->event_count = event_count_;
  f->current_elements = current_elements_;
  f->insert_events = insert_events_;
  f->delete_events = delete_events_;
  f->initial_elements = initial_elements_;
  // The swap is the release point: every slot write and COW clone above
  // happens-before any reader's pin (mutex release/acquire pairing). The
  // lock covers only the pointer swap; the old frontier (possibly the last
  // reference) is dropped after unlock.
  FrontierPtr old;
  {
    std::lock_guard<std::mutex> lock(frontier_mu_);
    old = std::exchange(frontier_, std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Building / updating
// ---------------------------------------------------------------------------

namespace {

/// The change in Snapshot::ElementCount from applying `e` forward to a graph
/// it applies to cleanly (Apply validated old values against the graph).
int64_t ElementCountDelta(const Event& e) {
  switch (e.type) {
    case EventType::kAddNode:
    case EventType::kAddEdge:
      return 1;
    case EventType::kDeleteNode:
    case EventType::kDeleteEdge:
      return -1;
    case EventType::kNodeAttr:
    case EventType::kEdgeAttr:
      return int64_t{e.new_value.has_value()} - int64_t{e.old_value.has_value()};
    case EventType::kTransientEdge:
    case EventType::kTransientNode:
      return 0;
  }
  return 0;
}

}  // namespace

Status DeltaGraph::SetInitialSnapshot(const Snapshot& g0, Timestamp t0) {
  if (has_initial_leaf_ || event_count_ > 0) {
    return Status::InvalidArgument(
        "SetInitialSnapshot must precede all appended events");
  }
  SkeletonNode leaf;
  leaf.level = 1;
  leaf.is_leaf = true;
  leaf.boundary_time = t0;
  leaf.element_count = g0.ElementCount();
  const int32_t leaf_id = skeleton_.AddNode(leaf);
  auto graph = std::make_shared<Snapshot>(g0);
  for (size_t h = 0; h < functions_.size(); ++h) {
    if (pending_[h].empty()) pending_[h].emplace_back();
    pending_[h][0].push_back(Pending{leaf_id, graph});
  }
  current_ = g0;
  current_elements_ = leaf.element_count;
  min_time_ = t0;
  max_time_ = t0;
  initial_elements_ = static_cast<double>(current_elements_);
  has_initial_leaf_ = true;
  for (auto* hook : aux_hooks_) {
    HG_RETURN_NOT_OK(hook->BuildOnInitialSnapshot(g0));
    HG_RETURN_NOT_OK(hook->BuildOnLeaf(leaf_id, t0, -1));
  }
  PublishFrontier();
  return Status::OK();
}

Status DeltaGraph::Append(const Event& e) {
  Status s = AppendOne(e);
  PublishFrontier();
  return s;
}

Status DeltaGraph::AppendOne(const Event& e) {
  if (e.time < max_time_) {
    return Status::InvalidArgument("events must be appended chronologically");
  }
  // An equal-time event may only extend a run that still lives in the recent
  // eventlist. If the state at max_time_ is already sealed by a leaf boundary
  // (an initial snapshot at t0 with nothing appended since), the event would
  // fall on the closed end of that leaf's (lo, hi] interval and be invisible
  // to retrieval, so reject it instead of silently losing it.
  if (recent_.empty() && !skeleton_.leaves().empty() &&
      e.time == skeleton_.node(skeleton_.leaves().back()).boundary_time) {
    return Status::InvalidArgument(
        "event time equals the sealed final leaf boundary; events must be "
        "strictly after an initial snapshot's time");
  }
  // Cut a leaf when the eventlist is full, but never split equal-time events
  // across two leaves (a snapshot boundary must fall between distinct times).
  if (recent_.size() >= options_.leaf_size && e.time > recent_.EndTime()) {
    HG_RETURN_NOT_OK(CutLeaf(recent_.size()));
  }
  if (!has_initial_leaf_) {
    // Leaf 0: the initial (empty) state just before the first event.
    SkeletonNode leaf;
    leaf.level = 1;
    leaf.is_leaf = true;
    leaf.boundary_time = e.time - 1;
    leaf.element_count = 0;
    const int32_t leaf_id = skeleton_.AddNode(leaf);
    auto graph = std::make_shared<Snapshot>();
    for (size_t h = 0; h < functions_.size(); ++h) {
      if (pending_[h].empty()) pending_[h].emplace_back();
      pending_[h][0].push_back(Pending{leaf_id, graph});
    }
    for (auto* hook : aux_hooks_) {
      HG_RETURN_NOT_OK(hook->BuildOnLeaf(leaf_id, leaf.boundary_time, -1));
    }
    has_initial_leaf_ = true;
  }
  HG_RETURN_NOT_OK(current_.Apply(e, /*forward=*/true));
  current_elements_ += ElementCountDelta(e);
  recent_.Append(e);
  PushRecentTail(e);
  min_time_ = std::min(min_time_, e.time);
  max_time_ = std::max(max_time_, e.time);
  ++event_count_;
  // Running (δ*, ρ*) inputs for the online cost model (see insert_events()).
  if (e.type == EventType::kAddNode || e.type == EventType::kAddEdge) {
    ++insert_events_;
  } else if (e.type == EventType::kDeleteNode || e.type == EventType::kDeleteEdge) {
    ++delete_events_;
  }
  for (auto* hook : aux_hooks_) {
    HG_RETURN_NOT_OK(hook->BuildOnEvent(e, current_));
  }
  return Status::OK();
}

Status DeltaGraph::AppendAll(const std::vector<Event>& events) {
  // One epoch per batch: readers never observe a torn AppendAll. (On error
  // the successfully applied prefix is still published — the frontier always
  // reflects the events actually applied.)
  Status s;
  for (const auto& e : events) {
    s = AppendOne(e);
    if (!s.ok()) break;
  }
  PublishFrontier();
  return s;
}

Status DeltaGraph::CutLeaf(size_t prefix) {
  if (recent_.empty() || prefix == 0) return Status::OK();
  const std::vector<Event>& ev = recent_.events();
  prefix = std::min(prefix, ev.size());
  const bool full = prefix == ev.size();
  const int32_t prev_leaf = skeleton_.leaves().back();

  // The leaf's graph is the state after the cut events only. Events held back
  // beyond `prefix` are rolled off the current graph; events are exactly
  // invertible, so the rollback is exact (transient events are no-ops).
  auto graph = std::make_shared<Snapshot>(current_);
  for (size_t i = ev.size(); i > prefix; --i) {
    HG_RETURN_NOT_OK(graph->Apply(ev[i - 1], /*forward=*/false));
  }

  SkeletonNode leaf;
  leaf.level = 1;
  leaf.is_leaf = true;
  leaf.boundary_time = ev[prefix - 1].time;
  leaf.element_count = graph->ElementCount();
  const int32_t leaf_id = skeleton_.AddNode(leaf);

  // Persist the eventlist and hook it between the leaves.
  SkeletonEdge edge;
  edge.from = prev_leaf;
  edge.to = leaf_id;
  edge.is_eventlist = true;
  edge.delta_id = store_.AllocateId();
  if (full) {
    HG_RETURN_NOT_OK(store_.PutEventList(edge.delta_id, recent_, &edge.sizes));
  } else {
    const EventList cut(std::vector<Event>(ev.begin(), ev.begin() + prefix));
    HG_RETURN_NOT_OK(store_.PutEventList(edge.delta_id, cut, &edge.sizes));
  }
  const int32_t edge_id = skeleton_.AddEdge(edge);

  for (size_t h = 0; h < functions_.size(); ++h) {
    if (pending_[h].empty()) pending_[h].emplace_back();
    pending_[h][0].push_back(Pending{leaf_id, graph});
  }
  for (auto* hook : aux_hooks_) {
    HG_RETURN_NOT_OK(hook->BuildOnLeaf(leaf_id, leaf.boundary_time, edge_id));
  }
  if (full) {
    recent_.Clear();
  } else {
    recent_ = EventList(std::vector<Event>(ev.begin() + prefix, ev.end()));
  }
  ResetRecentTail();
  HG_RETURN_NOT_OK(CascadeMerges(/*force_partial=*/false));
  SyncAuxPending();
  return Status::OK();
}

Status DeltaGraph::BuildParent(size_t hierarchy, size_t level_index) {
  auto& level = pending_[hierarchy][level_index];
  const size_t take =
      std::min(level.size(), static_cast<size_t>(options_.arity));
  // A parent over a single child would be a delta onto itself; finalization
  // promotes lone leftovers upward instead (see CascadeMerges).
  if (take < 2) return Status::OK();

  std::vector<Pending> children(level.begin(), level.begin() + take);
  level.erase(level.begin(), level.begin() + take);

  std::vector<const Snapshot*> child_graphs;
  child_graphs.reserve(children.size());
  for (const auto& c : children) child_graphs.push_back(c.graph.get());
  auto parent_graph =
      std::make_shared<Snapshot>(functions_[hierarchy]->Combine(child_graphs));

  SkeletonNode parent;
  parent.level = static_cast<int32_t>(level_index + 2);
  parent.hierarchy = static_cast<int32_t>(hierarchy);
  parent.element_count = parent_graph->ElementCount();
  // The covered time range is that of the children (diagnostics only).
  parent.boundary_time = skeleton_.node(children.back().node_id).boundary_time;
  const int32_t parent_id = skeleton_.AddNode(parent);

  std::vector<int32_t> child_ids, edge_ids;
  for (const auto& c : children) {
    Delta d = Delta::Between(*c.graph, *parent_graph);
    SkeletonEdge edge;
    edge.from = parent_id;
    edge.to = c.node_id;
    edge.delta_id = store_.AllocateId();
    HG_RETURN_NOT_OK(store_.PutDelta(edge.delta_id, d, &edge.sizes));
    const int32_t eid = skeleton_.AddEdge(edge);
    child_ids.push_back(c.node_id);
    edge_ids.push_back(eid);
  }
  for (auto* hook : aux_hooks_) {
    HG_RETURN_NOT_OK(hook->BuildOnParent(parent_id, child_ids, edge_ids));
  }

  if (pending_[hierarchy].size() <= level_index + 1) {
    pending_[hierarchy].emplace_back();
  }
  pending_[hierarchy][level_index + 1].push_back(Pending{parent_id, parent_graph});
  return Status::OK();
}

Status DeltaGraph::CascadeMerges(bool force_partial) {
  for (size_t h = 0; h < pending_.size(); ++h) {
    for (size_t l = 0; l < pending_[h].size(); ++l) {
      while (pending_[h][l].size() >= static_cast<size_t>(options_.arity)) {
        HG_RETURN_NOT_OK(BuildParent(h, l));
      }
      if (force_partial) {
        if (pending_[h][l].size() >= 2) {
          HG_RETURN_NOT_OK(BuildParent(h, l));
        }
        // A single leftover node is promoted upward so exactly one root
        // emerges per hierarchy.
        if (pending_[h][l].size() == 1 && l + 1 < pending_[h].size()) {
          pending_[h][l + 1].push_back(std::move(pending_[h][l].front()));
          pending_[h][l].clear();
        }
      }
    }
  }
  return Status::OK();
}

Status DeltaGraph::AttachSuperRoot(const Pending& pending_root) {
  // Skip if this node is already attached.
  for (int32_t eid : skeleton_.incident_edges(skeleton_.super_root())) {
    const SkeletonEdge& e = skeleton_.edge(eid);
    if (!e.deleted && e.to == pending_root.node_id) return Status::OK();
  }
  Snapshot empty;
  Delta d = Delta::Between(*pending_root.graph, empty);
  SkeletonEdge edge;
  edge.from = skeleton_.super_root();
  edge.to = pending_root.node_id;
  edge.delta_id = store_.AllocateId();
  HG_RETURN_NOT_OK(store_.PutDelta(edge.delta_id, d, &edge.sizes));
  const int32_t eid = skeleton_.AddEdge(edge);
  for (auto* hook : aux_hooks_) {
    HG_RETURN_NOT_OK(hook->BuildOnSuperRootEdge(eid, pending_root.node_id));
  }
  return Status::OK();
}

Status DeltaGraph::BuildCap() {
  // The cap's parents are built over the pending nodes but never become
  // pending themselves: restoring pending_ lets the next real merges take
  // the same nodes, which stay reachable from the super-root through the
  // cap. On failure pending_ is restored all the same.
  auto saved = pending_;
  const Status s = [&]() -> Status {
    HG_RETURN_NOT_OK(CascadeMerges(/*force_partial=*/true));
    for (const auto& hierarchy : pending_) {
      for (const auto& level : hierarchy) {
        for (const auto& p : level) HG_RETURN_NOT_OK(AttachSuperRoot(p));
      }
    }
    return Status::OK();
  }();
  pending_ = std::move(saved);
  SyncAuxPending();
  if (s.ok()) cap_event_count_ = event_count_;
  return s;
}

void DeltaGraph::SyncAuxPending() {
  if (aux_hooks_.empty()) return;
  std::vector<int32_t> ids;
  for (const auto& hierarchy : pending_) {
    for (const auto& level : hierarchy) {
      for (const auto& p : level) ids.push_back(p.node_id);
    }
  }
  for (auto* hook : aux_hooks_) hook->RetainPending(ids);
}

Status DeltaGraph::Finalize() {
  // Flush the trailing partial eventlist — but never cut a boundary inside an
  // equal-time run. A resumed index may keep appending events at max_time_,
  // and those must stay strictly inside the recent interval (boundary, +inf)
  // to remain visible under the (lo, hi] eventlist semantics. The events at
  // EndTime() are therefore held back in the recent eventlist (persisted by
  // PersistMeta, replayed by Open) until a strictly later event seals them.
  if (!recent_.empty()) {
    const std::vector<Event>& ev = recent_.events();
    size_t prefix = ev.size();
    while (prefix > 0 && ev[prefix - 1].time == recent_.EndTime()) --prefix;
    HG_RETURN_NOT_OK(CutLeaf(prefix));
  }
  // Cap when the super-root has no edge yet, or when the events since the
  // last cap reach |G|: a cap stores about |G| elements and the eventlists
  // it lets a plan skip about one per event, so caps cost O(1) per event
  // (src/deltagraph/README.md, "When Finalize caps").
  const size_t since_cap = event_count_ - cap_event_count_;
  if (skeleton_.incident_edges(skeleton_.super_root()).empty() ||
      (since_cap > 0 && since_cap >= current_elements_)) {
    HG_RETURN_NOT_OK(BuildCap());
  }
  Status s = PersistMeta();
  PublishFrontier();
  return s;
}

Status DeltaGraph::PersistMeta() {
  HG_RETURN_NOT_OK(store_.PutSkeleton(skeleton_));
  // Index-level format version (the blob-level version rides in each blob's
  // codec header; see src/codec/README.md). Absent on pre-codec indexes.
  // Written as the newest version this build emits, so older builds that
  // cannot decode it refuse the whole index up front.
  HG_RETURN_NOT_OK(store_.PutMeta(
      "format", std::to_string(static_cast<unsigned>(codec::kMaxSupportedVersion))));
  HG_RETURN_NOT_OK(store_.PutMeta("options", options_.Encode()));
  std::string counters;
  PutVarint64(&counters, store_.next_id());
  PutVarint64(&counters, event_count_);
  PutVarsint64(&counters, min_time_);
  PutVarsint64(&counters, max_time_);
  HG_RETURN_NOT_OK(store_.PutMeta("counters", counters));
  std::string recent_blob;
  recent_.EncodeComponent(
      static_cast<ComponentMask>(kCompAllWithTransient), &recent_blob);
  HG_RETURN_NOT_OK(store_.PutMeta("recent", recent_blob));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

std::vector<int32_t> DeltaGraph::NodesAtDepth(int depth) const {
  std::vector<int32_t> frontier;
  const int32_t sr = skeleton_.super_root();
  if (sr < 0) return frontier;
  for (int32_t eid : skeleton_.incident_edges(sr)) {
    const SkeletonEdge& e = skeleton_.edge(eid);
    if (!e.deleted && !e.is_eventlist && e.from == sr) frontier.push_back(e.to);
  }
  for (int d = 0; d < depth; ++d) {
    std::vector<int32_t> next;
    for (int32_t node : frontier) {
      bool has_children = false;
      for (int32_t eid : skeleton_.incident_edges(node)) {
        const SkeletonEdge& e = skeleton_.edge(eid);
        if (!e.deleted && !e.is_eventlist && e.from == node) {
          next.push_back(e.to);
          has_children = true;
        }
      }
      // Leaves stay in the frontier so "grandchildren of a shallow root"
      // remains meaningful on ragged trees.
      if (!has_children) next.push_back(node);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
  }
  return frontier;
}

Status DeltaGraph::MaterializeNode(int32_t node_id, unsigned components) {
  std::vector<int32_t> ids = {node_id};
  Planner planner(MakePlannerContext());
  auto plan = planner.PlanNodes(ids, components);
  if (!plan.ok()) return plan.status();
  auto exec = ExecuteSnapshotPlan(plan.value(), components, PinFrontier());
  if (!exec.ok()) return exec.status();
  auto it = exec.value().by_node.find(node_id);
  if (it == exec.value().by_node.end()) {
    return Status::Internal("materialize: node not emitted by plan");
  }
  materialized_[node_id] = std::make_shared<Snapshot>(std::move(it->second));
  skeleton_.mutable_node(node_id)->materialized = true;
  skeleton_.mutable_node(node_id)->materialized_components = components;
  skeleton_.mutable_node(node_id)->element_count =
      materialized_[node_id]->ElementCount();
  materialized_dirty_ = true;
  PublishFrontier();
  return Status::OK();
}

Status DeltaGraph::UnmaterializeNode(int32_t node_id) {
  materialized_.erase(node_id);
  skeleton_.mutable_node(node_id)->materialized = false;
  skeleton_.mutable_node(node_id)->materialized_components = 0;
  materialized_dirty_ = true;
  PublishFrontier();
  return Status::OK();
}

Result<size_t> DeltaGraph::MaterializeDepth(int depth, unsigned components) {
  const std::vector<int32_t> ids = NodesAtDepth(depth);
  if (ids.empty()) return Status::InvalidArgument("no nodes at requested depth");
  Planner planner(MakePlannerContext());
  auto plan = planner.PlanNodes(ids, components);
  if (!plan.ok()) return plan.status();
  auto exec = ExecuteSnapshotPlan(plan.value(), components, PinFrontier());
  if (!exec.ok()) return exec.status();
  size_t count = 0;
  for (auto& [id, snap] : exec.value().by_node) {
    materialized_[id] = std::make_shared<Snapshot>(std::move(snap));
    skeleton_.mutable_node(id)->materialized = true;
    skeleton_.mutable_node(id)->materialized_components = components;
    skeleton_.mutable_node(id)->element_count = materialized_[id]->ElementCount();
    ++count;
  }
  materialized_dirty_ = true;
  PublishFrontier();
  return count;
}

Status DeltaGraph::MaterializeAllLeaves(unsigned components) {
  std::vector<int32_t> ids = skeleton_.leaves();
  Planner planner(MakePlannerContext());
  auto plan = planner.PlanNodes(ids, components);
  if (!plan.ok()) return plan.status();
  auto exec = ExecuteSnapshotPlan(plan.value(), components, PinFrontier());
  if (!exec.ok()) return exec.status();
  for (auto& [id, snap] : exec.value().by_node) {
    materialized_[id] = std::make_shared<Snapshot>(std::move(snap));
    skeleton_.mutable_node(id)->materialized = true;
    skeleton_.mutable_node(id)->materialized_components = components;
    // Same skeleton state as MaterializeNode/MaterializeDepth: the planner
    // weights materialized starts by element_count, so a stale count here
    // would mis-cost every plan that could start from this leaf.
    skeleton_.mutable_node(id)->element_count = materialized_[id]->ElementCount();
  }
  materialized_dirty_ = true;
  PublishFrontier();
  return Status::OK();
}

const Snapshot* DeltaGraph::materialized_snapshot(int32_t node_id) const {
  auto it = materialized_.find(node_id);
  return it == materialized_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

PlannerContext DeltaGraph::MakePlannerContext() const {
  PlannerContext ctx;
  ctx.skeleton = &skeleton_;
  ctx.recent_count = recent_.size();
  ctx.recent_end = recent_.empty() ? kMinTimestamp : recent_.EndTime();
  ctx.has_current = options_.maintain_current;
  ctx.current_elements = current_elements_;
  return ctx;
}

PlannerContext DeltaGraph::MakePlannerContext(const FrontierState& frontier) const {
  PlannerContext ctx;
  ctx.skeleton = frontier.skeleton.get();
  ctx.recent_count = frontier.recent.size();
  ctx.recent_end =
      frontier.recent.empty() ? kMinTimestamp : frontier.recent.EndTime();
  ctx.has_current = options_.maintain_current && frontier.current != nullptr;
  ctx.current_elements = frontier.current_elements;
  return ctx;
}

DeltaGraphStats DeltaGraph::Stats() const {
  DeltaGraphStats stats;
  stats.leaf_count = skeleton_.leaves().size();
  stats.node_count = skeleton_.node_count();
  int max_level = 0;
  for (size_t i = 0; i < skeleton_.node_count(); ++i) {
    const auto& n = skeleton_.node(static_cast<int32_t>(i));
    if (!n.is_super_root) max_level = std::max(max_level, n.level);
  }
  stats.height = max_level;
  for (size_t i = 0; i < skeleton_.edge_count(); ++i) {
    const auto& e = skeleton_.edge(static_cast<int32_t>(i));
    if (e.deleted) continue;
    ++stats.edge_count;
    if (e.is_eventlist) {
      stats.eventlist_bytes += e.sizes.TotalBytes(kCompAllWithTransient);
    } else {
      stats.delta_bytes += e.sizes.TotalBytes(kCompAllWithTransient);
    }
  }
  stats.store_bytes = kv_->ValueBytes();
  stats.materialized_nodes = materialized_.size();
  for (const auto& [id, snap] : materialized_) {
    stats.materialized_bytes += snap->MemoryBytes();
  }
  return stats;
}

void DeltaGraph::RegisterMetricsExports(const std::string& name) {
  auto& registry = obs::MetricsRegistry::Global();
  if (!metrics_export_name_.empty()) {
    registry.UnregisterProvider(metrics_export_name_);
  }
  metrics_export_name_ = "deltagraph." + name;
  registry.RegisterProvider(metrics_export_name_, [this]() {
    const DeltaGraphStats s = Stats();
    std::ostringstream out;
    out << "{\"stats\":{"
        << "\"leaf_count\":" << s.leaf_count
        << ",\"node_count\":" << s.node_count
        << ",\"edge_count\":" << s.edge_count
        << ",\"height\":" << s.height
        << ",\"delta_bytes\":" << s.delta_bytes
        << ",\"eventlist_bytes\":" << s.eventlist_bytes
        << ",\"store_bytes\":" << s.store_bytes
        << ",\"materialized_bytes\":" << s.materialized_bytes
        << ",\"materialized_nodes\":" << s.materialized_nodes
        << "},\"fetch_freq_top\":" << store_.fetch_frequency().TopKJSON(16)
        << ",\"node_touch_top\":" << node_touches_.TopKJSON(16) << "}";
    return out.str();
  });
}

DeltaGraph::~DeltaGraph() {
  if (!metrics_export_name_.empty()) {
    obs::MetricsRegistry::Global().UnregisterProvider(metrics_export_name_);
  }
}

}  // namespace hgdb
