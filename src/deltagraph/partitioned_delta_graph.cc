#include "deltagraph/partitioned_delta_graph.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/coding.h"
#include "exec/retrieval_session.h"
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

Result<std::vector<Snapshot>> PartitionedDeltaGraph::GetSnapshots(
    const std::vector<Timestamp>& times, unsigned components) {
  RetrievalSession session(this);
  RetrievalSession::Request* req = session.Submit(times, components);
  HG_RETURN_NOT_OK(session.Wait());
  return std::move(req->result);
}

Result<Snapshot> PartitionedDeltaGraph::GetSnapshot(Timestamp t, unsigned components) {
  auto snaps = GetSnapshots({t}, components);
  if (!snaps.ok()) return snaps.status();
  return std::move(snaps.value()[0]);
}

Result<std::vector<Snapshot>> PartitionedDeltaGraph::GetSnapshotParts(
    Timestamp t, unsigned components) {
  const std::vector<FrontierPtr> frontiers = PinFrontiers();
  std::vector<Snapshot> parts;
  parts.reserve(partitions_.size());
  for (size_t i = 0; i < partitions_.size(); ++i) {
    auto snaps = partitions_[i]->GetSnapshotsAt(frontiers[i], {t}, components);
    if (!snaps.ok()) return snaps.status();
    parts.push_back(std::move(snaps.value()[0]));
  }
  return parts;
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

}  // namespace hgdb
