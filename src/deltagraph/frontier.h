#ifndef HISTGRAPH_DELTAGRAPH_FRONTIER_H_
#define HISTGRAPH_DELTAGRAPH_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "deltagraph/skeleton.h"
#include "graph/snapshot.h"
#include "temporal/event.h"

namespace hgdb {

/// \brief The epoch-based visibility seam between the single ingest writer
/// and concurrent readers.
///
/// Every mutation of a DeltaGraph lands under a monotonically increasing
/// epoch; after each batch of mutations the writer publishes an immutable
/// FrontierState through one `shared_ptr` swap (release store). A query pins
/// the frontier once (acquire load) and resolves *everything* — skeleton
/// edges, the current COW snapshot, materialized graphs, the recent event
/// tail — against that pinned state, so in-flight queries are immune to
/// concurrent appends, leaf cuts, finalizes, and materialization changes.
///
/// What a pinned reader may never observe:
///  - a torn batch (events of one Append/AppendAll call split across epochs),
///  - a skeleton edge whose payload is not yet durable in the KV store
///    (payloads are written before the edge is added, and edges/payloads are
///    never deleted, so pinned fetches always succeed),
///  - recent-tail slots beyond the pinned count (the slot array is
///    append-once; publication orders the writes before the swap).

/// Append-once buffer backing the recent (un-cut) event tail. The writer
/// fills slots left to right and never moves or reallocates them; a
/// published RecentView exposes a prefix. When the buffer fills, the writer
/// copies the live prefix into a larger buffer and publishes that instead —
/// superseded buffers stay alive for as long as some pinned frontier
/// references them (the same discipline as chunk sharing in common/cow.h,
/// at buffer granularity).
class RecentTail {
 public:
  explicit RecentTail(size_t capacity) : slots_(capacity) {}

  size_t capacity() const { return slots_.size(); }
  const Event* data() const { return slots_.data(); }
  /// Writer-side slot access; slot `i` must not be covered by any published
  /// RecentView yet.
  Event* slot(size_t i) { return &slots_[i]; }

 private:
  std::vector<Event> slots_;
};

/// An immutable view of the first `count` slots of a RecentTail.
struct RecentView {
  std::shared_ptr<const RecentTail> tail;
  size_t count = 0;

  std::span<const Event> events() const {
    return tail == nullptr ? std::span<const Event>()
                           : std::span<const Event>(tail->data(), count);
  }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  /// Timestamp of the newest event in view (EventList::EndTime semantics:
  /// kMaxTimestamp when empty).
  Timestamp EndTime() const {
    return count == 0 ? kMaxTimestamp : tail->data()[count - 1].time;
  }
};

/// One published, immutable frontier. Everything reachable from here is
/// frozen: the skeleton is a private copy (refreshed only when its version
/// counter moved — leaf cuts, finalize, materialization flags), `current` is
/// an O(1) COW copy sharing chunks with the writer's working graph, and the
/// materialized map is copied on materialization changes only.
struct FrontierState {
  /// Monotone publication counter (0 = empty pre-publication state).
  uint64_t epoch = 0;

  std::shared_ptr<const Skeleton> skeleton;
  /// COW copy of the current graph; null when the index does not maintain
  /// one (options.maintain_current = false).
  std::shared_ptr<const Snapshot> current;
  /// Materialized node graphs as of this frontier (never null; may be empty).
  std::shared_ptr<const std::map<int32_t, std::shared_ptr<Snapshot>>>
      materialized;
  /// Events newer than the last cut leaf, as of this frontier.
  RecentView recent;

  Timestamp min_time = kMaxTimestamp;
  Timestamp max_time = kMinTimestamp;
  /// Events applied so far — the oracle prefix: a reader pinned here sees
  /// exactly the replay of the first `event_count` log events.
  size_t event_count = 0;
  /// |current| in elements (Snapshot::ElementCount), which the writer
  /// maintains per event so the planner never walks the graph to price the
  /// current-graph start. Set whether or not `current` is kept.
  uint64_t current_elements = 0;
  size_t insert_events = 0;
  size_t delete_events = 0;
  double initial_elements = 0;

  const Snapshot* materialized_snapshot(int32_t node_id) const {
    if (materialized == nullptr) return nullptr;
    auto it = materialized->find(node_id);
    return it == materialized->end() ? nullptr : it->second.get();
  }
};

using FrontierPtr = std::shared_ptr<const FrontierState>;

}  // namespace hgdb

#endif  // HISTGRAPH_DELTAGRAPH_FRONTIER_H_
