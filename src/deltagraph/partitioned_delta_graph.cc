#include "deltagraph/partitioned_delta_graph.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/coding.h"
#include "exec/fetch_cache.h"
#include "exec/io_pool.h"
#include "exec/parallel_executor.h"
#include "exec/prefetcher.h"
#include "exec/task_pool.h"

namespace hgdb {

namespace {

/// Meta key (in the base store, outside every shard namespace) recording the
/// shard count of a single-store partitioned index.
constexpr char kShardCountKey[] = "pm/shards";

std::string ShardPrefix(size_t i) { return "s" + std::to_string(i) + "/"; }

}  // namespace

PartitionedDeltaGraph::PartitionedDeltaGraph(
    std::vector<std::unique_ptr<DeltaGraph>> parts,
    std::vector<std::unique_ptr<KVStore>> owned_stores)
    : owned_stores_(std::move(owned_stores)), partitions_(std::move(parts)) {
  // One I/O lane per shard: the shard's whole fetch pipeline drains on one
  // IoPool thread, and distinct shards drain on distinct threads (mod the
  // pool size), which is what makes the per-shard pipelines overlap.
  for (size_t i = 0; i < partitions_.size(); ++i) {
    partitions_[i]->SetIoLane(static_cast<int>(i));
  }
}

Result<std::unique_ptr<PartitionedDeltaGraph>> PartitionedDeltaGraph::Create(
    std::vector<KVStore*> stores, DeltaGraphOptions options) {
  if (stores.empty()) {
    return Status::InvalidArgument("at least one partition store required");
  }
  std::vector<std::unique_ptr<DeltaGraph>> parts;
  parts.reserve(stores.size());
  for (KVStore* store : stores) {
    auto dg = DeltaGraph::Create(store, options);
    if (!dg.ok()) return dg.status();
    parts.push_back(std::move(dg).value());
  }
  return std::unique_ptr<PartitionedDeltaGraph>(
      new PartitionedDeltaGraph(std::move(parts), {}));
}

Result<std::unique_ptr<PartitionedDeltaGraph>> PartitionedDeltaGraph::Create(
    KVStore* base, size_t shards, DeltaGraphOptions options) {
  if (base == nullptr) return Status::InvalidArgument("null base store");
  if (shards == 0) return Status::InvalidArgument("at least one shard required");
  if (base->Contains(kShardCountKey)) {
    return Status::InvalidArgument("store already holds a partitioned index (use Open)");
  }
  std::vector<std::unique_ptr<KVStore>> owned;
  std::vector<std::unique_ptr<DeltaGraph>> parts;
  owned.reserve(shards);
  parts.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    owned.push_back(NewPrefixKVStore(base, ShardPrefix(i)));
    auto dg = DeltaGraph::Create(owned.back().get(), options);
    if (!dg.ok()) return dg.status();
    parts.push_back(std::move(dg).value());
  }
  HG_RETURN_NOT_OK(base->Put(kShardCountKey, std::to_string(shards)));
  return std::unique_ptr<PartitionedDeltaGraph>(
      new PartitionedDeltaGraph(std::move(parts), std::move(owned)));
}

Result<std::unique_ptr<PartitionedDeltaGraph>> PartitionedDeltaGraph::Open(
    KVStore* base) {
  if (base == nullptr) return Status::InvalidArgument("null base store");
  std::string count_str;
  Status s = base->Get(kShardCountKey, &count_str);
  if (!s.ok()) {
    return Status::InvalidArgument("store holds no partitioned index (missing " +
                                   std::string(kShardCountKey) + ")");
  }
  char* end = nullptr;
  const unsigned long shards = std::strtoul(count_str.c_str(), &end, 10);
  if (end == count_str.c_str() || *end != '\0' || shards == 0 || shards > 1u << 16) {
    return Status::Corruption("bad shard count: " + count_str);
  }
  std::vector<std::unique_ptr<KVStore>> owned;
  std::vector<std::unique_ptr<DeltaGraph>> parts;
  owned.reserve(shards);
  parts.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    owned.push_back(NewPrefixKVStore(base, ShardPrefix(i)));
    auto dg = DeltaGraph::Open(owned.back().get());
    if (!dg.ok()) return dg.status();
    parts.push_back(std::move(dg).value());
  }
  return std::unique_ptr<PartitionedDeltaGraph>(
      new PartitionedDeltaGraph(std::move(parts), std::move(owned)));
}

PartitionId PartitionedDeltaGraph::PartitionOfNode(NodeId n) const {
  // Chunk-aligned: Snapshot's node-keyed chunks span at most 256 consecutive
  // ids, so hashing the 256-id block number keeps every chunk on one shard
  // and lets AbsorbDisjoint adopt it wholesale at merge time.
  return static_cast<PartitionId>(Mix64(n >> 8) % partitions_.size());
}

PartitionId PartitionedDeltaGraph::PartitionOfEdge(EdgeId e) const {
  // Same block-hash rule as nodes, over the edge id space: edge records and
  // edge attributes live in 128-id chunks, and a 256-id block covers exactly
  // two of those, so every edge-keyed chunk is partition-pure too.
  return static_cast<PartitionId>(Mix64(e >> 8) % partitions_.size());
}

PartitionId PartitionedDeltaGraph::PartitionOf(const Event& e) const {
  switch (e.type) {
    case EventType::kAddNode:
    case EventType::kDeleteNode:
    case EventType::kNodeAttr:
    case EventType::kTransientNode:
      return PartitionOfNode(e.node);
    case EventType::kAddEdge:
    case EventType::kDeleteEdge:
    case EventType::kTransientEdge:
    case EventType::kEdgeAttr:
      // All events about one edge — structural and attribute — carry the edge
      // id, so routing by it keeps an edge's whole history on one shard.
      return PartitionOfEdge(e.edge);
  }
  return 0;
}

Status PartitionedDeltaGraph::SetInitialSnapshot(const Snapshot& g0, Timestamp t0) {
  std::vector<Snapshot> parts(partitions_.size());
  for (NodeId n : g0.nodes()) parts[PartitionOfNode(n)].AddNode(n);
  for (const auto& [id, rec] : g0.edges()) {
    parts[PartitionOfEdge(id)].AddEdge(id, rec);
  }
  for (const auto& [n, attrs] : g0.node_attrs()) {
    Snapshot& p = parts[PartitionOfNode(n)];
    for (const auto& [k, v] : attrs) p.SetNodeAttrId(n, k, v);
  }
  for (const auto& [id, attrs] : g0.edge_attrs()) {
    Snapshot& p = parts[PartitionOfEdge(id)];
    for (const auto& [k, v] : attrs) p.SetEdgeAttrId(id, k, v);
  }
  return ForEachShard([&](size_t i) {
    return partitions_[i]->SetInitialSnapshot(parts[i], t0);
  });
}

Status PartitionedDeltaGraph::Append(const Event& e) {
  return partitions_[PartitionOf(e)]->Append(e);
}

Status PartitionedDeltaGraph::AppendAll(const std::vector<Event>& events) {
  std::vector<std::vector<Event>> buckets(partitions_.size());
  for (const Event& e : events) buckets[PartitionOf(e)].push_back(e);
  return ForEachShard([&](size_t i) {
    return partitions_[i]->AppendAll(buckets[i]);
  });
}

Status PartitionedDeltaGraph::Finalize() {
  return ForEachShard([&](size_t i) { return partitions_[i]->Finalize(); });
}

void PartitionedDeltaGraph::SetTaskPool(TaskPool* pool) {
  exec_pool_ = pool;
  exec_pool_set_ = true;
  for (auto& p : partitions_) p->SetTaskPool(pool);
}

TaskPool* PartitionedDeltaGraph::ResolveTaskPool() const {
  if (exec_pool_ != nullptr) return exec_pool_;
  return exec_pool_set_ ? &TaskPool::Serial() : &TaskPool::Shared();
}

void PartitionedDeltaGraph::SetIoPool(IoPool* pool) {
  for (auto& p : partitions_) p->SetIoPool(pool);
}

void PartitionedDeltaGraph::SetDecodedCacheCapacity(size_t entries) {
  for (auto& p : partitions_) p->SetDecodedCacheCapacity(entries);
}

Status PartitionedDeltaGraph::ForEachShard(const std::function<Status(size_t)>& fn) {
  const size_t n = partitions_.size();
  TaskPool* pool = ResolveTaskPool();
  if (pool->parallelism() < 2 || n < 2) {
    for (size_t i = 0; i < n; ++i) HG_RETURN_NOT_OK(fn(i));
    return Status::OK();
  }
  std::vector<Status> statuses(n);
  {
    TaskGroup group(pool);
    for (size_t i = 0; i < n; ++i) {
      group.Spawn([&statuses, &fn, i] { statuses[i] = fn(i); });
    }
    group.Wait();
  }
  for (const Status& s : statuses) HG_RETURN_NOT_OK(s);
  return Status::OK();
}

Result<std::vector<std::vector<Snapshot>>> PartitionedDeltaGraph::RetrieveParts(
    const std::vector<Timestamp>& times, unsigned components) {
  // Standalone call with tracing on: own the trace and dump on completion.
  // GetSnapshots wraps this with its own trace, so only one of them owns it.
  if (obs::TraceEnabled() && !times.empty()) {
    obs::QueryTrace trace;
    trace.set_query_label("retrieve_parts");
    auto out = RetrieveParts(times, components, obs::TraceCtx{&trace, obs::kNoSpan});
    obs::FinishAndMaybeDump(&trace);
    return out;
  }
  return RetrieveParts(times, components, obs::TraceCtx{});
}

Result<std::vector<std::vector<Snapshot>>> PartitionedDeltaGraph::RetrieveParts(
    const std::vector<Timestamp>& times, unsigned components, obs::TraceCtx tc) {
  const size_t n = partitions_.size();
  std::vector<std::vector<Snapshot>> parts(n);
  if (times.empty()) return parts;

  obs::ScopedSpan retrieve_span(tc, "retrieve");
  tc = retrieve_span.ctx();
  std::vector<obs::SpanId> shard_spans(n, obs::kNoSpan);

  TaskPool* pool = ResolveTaskPool();

  // Pin one cross-shard frontier up front: planning, prefetch, execution,
  // and the replay fallbacks below all resolve against this vector, so a
  // concurrent writer cannot skew any shard mid-query.
  const std::vector<FrontierPtr> frontiers = PinFrontiers();

  // Plan every shard before touching storage. A shard with no skeleton (never
  // finalized, or simply empty) has nothing to plan over; it takes the
  // in-memory replay fallback below.
  std::vector<Plan> plans(n);
  std::vector<char> fallback(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (frontiers[i]->skeleton->leaves().empty()) {
      fallback[i] = 1;
      continue;
    }
    auto plan = partitions_[i]->PlanForAt(frontiers[i], times, components);
    if (!plan.ok()) return plan.status();
    plans[i] = std::move(plan).value();
  }

  // Issue every shard's prefetch before any shard executes. Each shard's
  // batch lands on its own I/O lane (SetIoLane in the constructor), so all
  // the per-shard fetch pipelines are in flight together and their storage
  // stalls overlap instead of queueing behind one another.
  std::vector<std::unique_ptr<ExecFetchCache>> caches(n);
  for (size_t i = 0; i < n; ++i) {
    if (fallback[i]) continue;
    caches[i] = std::make_unique<ExecFetchCache>();
    if (pool->parallelism() >= 2) caches[i]->SetDecodePool(pool);
    if (tc) {
      shard_spans[i] = tc.trace->BeginSpan("shard", tc.span);
      tc.trace->SetAttr(shard_spans[i], "shard", static_cast<int64_t>(i));
      tc.trace->SetAttr(shard_spans[i], "steps",
                        static_cast<int64_t>(plans[i].StepCount()));
      tc.trace->SetAttr(shard_spans[i], "est_cost_bytes", plans[i].estimated_cost);
      caches[i]->SetTrace(obs::TraceCtx{tc.trace, shard_spans[i]});
    }
    IoPool* io = partitions_[i]->ResolveIoPool();
    if (io != nullptr) {
      StartCollectedPrefetch(*partitions_[i], *frontiers[i]->skeleton,
                             CollectPlanFetches(plans[i]), components,
                             caches[i].get(), io);
    }
  }

  Status first_error;
  auto record = [&first_error](const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  };

  // Every shard's plan tree goes into ONE group on the pool: shard subtrees
  // are sibling tasks, stolen freely across workers, so a shard that finishes
  // early lends its cycles to the others (on a serial pool each Start runs
  // its shard inline while the I/O lanes keep fetching the other shards'
  // payloads). Executors get a null IoPool — their prefetch already ran above
  // into the shard cache — so Start does not queue the same fetches twice.
  std::vector<std::unique_ptr<ParallelPlanExecutor>> executors(n);
  {
    TaskGroup group(pool);
    for (size_t i = 0; i < n; ++i) {
      if (fallback[i]) continue;
      executors[i] = std::make_unique<ParallelPlanExecutor>(
          partitions_[i].get(), frontiers[i], components, pool, caches[i].get(),
          /*io_pool=*/nullptr);
      executors[i]->SetTrace(obs::TraceCtx{tc.trace, shard_spans[i]});
      executors[i]->Start(plans[i], &group);
    }
    group.Wait();
  }
  uint64_t busy_sum_ns = 0, busy_max_ns = 0;
  size_t busy_shards = 0;
  for (size_t i = 0; i < n; ++i) {
    if (executors[i] == nullptr) continue;
    const Status s = executors[i]->TakeStatus();
    if (tc) {
      const uint64_t busy = executors[i]->busy_ns();
      busy_sum_ns += busy;
      busy_max_ns = std::max(busy_max_ns, busy);
      ++busy_shards;
      tc.trace->EndSpan(shard_spans[i]);
    }
    if (!s.ok()) {
      record(s);
      continue;
    }
    auto in_order = executors[i]->TakeResults().TakeInOrder(times);
    record(in_order.status());
    if (in_order.ok()) parts[i] = std::move(in_order).value();
  }
  if (tc && busy_shards > 0) {
    // Execution skew: slowest shard's busy time over the per-shard mean;
    // 1.0 = perfectly balanced.
    tc.trace->SetAttr(tc.span, "busy_us_sum",
                      static_cast<int64_t>(busy_sum_ns / 1000));
    tc.trace->SetAttr(tc.span, "busy_us_max",
                      static_cast<int64_t>(busy_max_ns / 1000));
    if (busy_sum_ns > 0) {
      tc.trace->SetAttr(tc.span, "shard_skew",
                        static_cast<double>(busy_max_ns) * busy_shards /
                            static_cast<double>(busy_sum_ns));
    }
  }

  // Fallback shards replay their (entirely in-memory) pinned recent view.
  for (size_t i = 0; i < n; ++i) {
    if (!fallback[i]) continue;
    auto snaps = partitions_[i]->GetSnapshotsAt(frontiers[i], times, components, tc);
    record(snaps.status());
    if (snaps.ok()) parts[i] = std::move(snaps).value();
  }

  if (!first_error.ok()) return first_error;
  return parts;
}

Result<std::vector<Snapshot>> PartitionedDeltaGraph::GetSnapshots(
    const std::vector<Timestamp>& times, unsigned components) {
  // Own the trace here (rather than letting RetrieveParts own one) so the
  // cross-shard merge is on the same trace as the per-shard execution.
  obs::QueryTrace trace;
  obs::TraceCtx tc;
  if (obs::TraceEnabled() && !times.empty()) {
    trace.set_query_label(times.size() == 1 ? "partitioned_singlepoint"
                                            : "partitioned_multipoint");
    tc = obs::TraceCtx{&trace, obs::kNoSpan};
  }
  auto parts = RetrieveParts(times, components, tc);
  if (!parts.ok()) return parts.status();
  std::vector<Snapshot> merged(times.size());
  {
    obs::ScopedSpan merge_span(tc, "merge");
    for (size_t p = 0; p < partitions_.size(); ++p) {
      for (size_t i = 0; i < times.size(); ++i) {
        merged[i].AbsorbDisjoint(std::move(parts.value()[p][i]));
      }
    }
  }
  if (tc) obs::FinishAndMaybeDump(tc.trace);
  return merged;
}

Result<std::vector<Snapshot>> PartitionedDeltaGraph::GetSnapshotParts(
    Timestamp t, unsigned components) {
  auto parts = RetrieveParts({t}, components);
  if (!parts.ok()) return parts.status();
  std::vector<Snapshot> flat;
  flat.reserve(partitions_.size());
  for (auto& p : parts.value()) flat.push_back(std::move(p.front()));
  return flat;
}

DeltaGraphStats PartitionedDeltaGraph::Stats() const {
  DeltaGraphStats agg;
  for (const auto& shard : partitions_) {
    const DeltaGraphStats s = shard->Stats();
    agg.leaf_count += s.leaf_count;
    agg.node_count += s.node_count;
    agg.edge_count += s.edge_count;
    agg.height = std::max(agg.height, s.height);
    agg.delta_bytes += s.delta_bytes;
    agg.eventlist_bytes += s.eventlist_bytes;
    agg.store_bytes += s.store_bytes;
    agg.materialized_bytes += s.materialized_bytes;
    agg.materialized_nodes += s.materialized_nodes;
  }
  return agg;
}

Result<Snapshot> PartitionedDeltaGraph::GetSnapshot(Timestamp t, unsigned components) {
  auto parts = GetSnapshotParts(t, components);
  if (!parts.ok()) return parts.status();
  Snapshot merged;
  for (auto& p : parts.value()) merged.AbsorbDisjoint(std::move(p));
  return merged;
}

}  // namespace hgdb
