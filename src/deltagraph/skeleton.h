#ifndef HISTGRAPH_DELTAGRAPH_SKELETON_H_
#define HISTGRAPH_DELTAGRAPH_SKELETON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "temporal/event.h"

namespace hgdb {

/// Per-component statistics of a stored delta or eventlist: serialized bytes
/// and element/event counts, indexed by component (struct, nodeattr,
/// edgeattr, transient). Bytes are the skeleton edge weights the planner uses
/// ("we approximate this cost by using the size of the delta retrieved").
struct ComponentSizes {
  uint64_t bytes[kNumComponents] = {0, 0, 0, 0};
  uint64_t elements[kNumComponents] = {0, 0, 0, 0};

  uint64_t TotalBytes(unsigned components) const {
    uint64_t total = 0;
    for (int c = 0; c < kNumComponents; ++c) {
      if (components & (1u << c)) total += bytes[c];
    }
    return total;
  }
  uint64_t TotalElements(unsigned components) const {
    uint64_t total = 0;
    for (int c = 0; c < kNumComponents; ++c) {
      if (components & (1u << c)) total += elements[c];
    }
    return total;
  }
};

/// A node of the DeltaGraph skeleton. Leaves correspond to (implicit)
/// historical snapshots at their boundary time; interior nodes are graphs
/// produced by a differential function; the super-root holds the empty graph.
struct SkeletonNode {
  int32_t id = -1;
  int32_t level = 1;          ///< 1 = leaves; super-root has the highest level.
  bool is_leaf = false;
  bool is_super_root = false;
  int32_t hierarchy = 0;      ///< Interior nodes: which hierarchy built them.
  Timestamp boundary_time = 0;  ///< Leaves: snapshot time (state after all
                                ///< events with time <= boundary_time).
  bool materialized = false;  ///< Kept in memory; planner treats as free start.
  unsigned materialized_components = 0;  ///< Components the materialized copy has.
  uint64_t element_count = 0;  ///< |S| for stats and dependent-graph decisions.
};

/// An edge of the skeleton. Delta edges point parent -> child and store
/// Delta(child, parent): applying the delta *forward* to the parent's graph
/// yields the child's. Eventlist edges connect adjacent leaves
/// (left -> right); applying the eventlist forward to the left leaf yields
/// the right leaf. Both kinds are exactly invertible, so the planner may
/// traverse any edge in either direction at equal cost.
struct SkeletonEdge {
  int32_t id = -1;
  int32_t from = -1;  ///< Parent (delta) or left leaf (eventlist).
  int32_t to = -1;    ///< Child (delta) or right leaf (eventlist).
  bool is_eventlist = false;
  DeltaId delta_id = 0;  ///< Key of the stored delta/eventlist blobs.
  ComponentSizes sizes;
};

/// \brief The DeltaGraph skeleton: the structure of the index without the
/// delta payloads (Section 3.2.2).
///
/// "The structure of the DeltaGraph itself ... is maintained as a weighted
/// graph in memory (it contains statistics about the deltas and eventlists,
/// but not the actual data). The skeleton is used during query planning."
class Skeleton {
 public:
  Skeleton() = default;

  // -- Construction ----------------------------------------------------------
  int32_t AddNode(SkeletonNode node);  ///< Assigns and returns the node id.
  int32_t AddEdge(SkeletonEdge edge);  ///< Assigns and returns the edge id.

  void SetSuperRoot(int32_t node_id) { super_root_ = node_id; }
  int32_t super_root() const { return super_root_; }

  void SetMaterialized(int32_t node_id, bool on) {
    ++version_;
    nodes_[node_id].materialized = on;
  }

  // -- Access ------------------------------------------------------------ ---
  const SkeletonNode& node(int32_t id) const { return nodes_[id]; }
  SkeletonNode* mutable_node(int32_t id) {
    ++version_;
    return &nodes_[id];
  }
  const SkeletonEdge& edge(int32_t id) const { return edges_[id]; }
  SkeletonEdge* mutable_edge(int32_t id) {
    ++version_;
    return &edges_[id];
  }

  /// Monotone change counter: bumped by any mutation (new nodes/edges,
  /// node/edge edits, materialization flags). Planner caches key on it so cached
  /// shortest-path trees are dropped exactly when the skeleton changes.
  uint64_t version() const { return version_; }
  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return edges_.size(); }

  /// Ids of the edges incident to `node_id` (both directions; the index is
  /// undirected for traversal purposes).
  const std::vector<int32_t>& incident_edges(int32_t node_id) const {
    return incident_[node_id];
  }

  /// Leaves in chronological order.
  const std::vector<int32_t>& leaves() const { return leaves_; }

  /// Finds the position of the leaf-eventlist interval containing time `t`:
  /// returns the index `i` into leaves() such that
  /// boundary(leaves[i]) < t <= boundary(leaves[i+1]); -1 when t <= first
  /// boundary (the first leaf itself answers the query exactly); leaves
  /// count-1 when t is beyond the last boundary.
  int FindLeafInterval(Timestamp t) const;

  /// The eventlist edge between adjacent leaves `left_leaf` and `right_leaf`
  /// (by node id), or -1.
  int32_t FindEventlistEdge(int32_t left_leaf, int32_t right_leaf) const;

  /// All eventlist edges in chronological order.
  std::vector<int32_t> EventlistEdgesInOrder() const;

  /// Sum of stored bytes across all edges (index disk footprint, modulo
  /// store-level compression).
  uint64_t TotalBytes(unsigned components = kCompAllWithTransient) const;

  /// Serialization for persistence in the key-value store.
  void EncodeTo(std::string* out) const;
  static Status DecodeFrom(const Slice& blob, Skeleton* out);

 private:
  std::vector<SkeletonNode> nodes_;
  std::vector<SkeletonEdge> edges_;
  std::vector<std::vector<int32_t>> incident_;
  std::vector<int32_t> leaves_;
  int32_t super_root_ = -1;
  uint64_t version_ = 0;
};

}  // namespace hgdb

#endif  // HISTGRAPH_DELTAGRAPH_SKELETON_H_
