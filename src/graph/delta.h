#ifndef HISTGRAPH_GRAPH_DELTA_H_
#define HISTGRAPH_GRAPH_DELTA_H_

#include <string>
#include <vector>

#include "common/interner.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/snapshot.h"
#include "temporal/event.h"

namespace hgdb {

/// One attribute element `(owner id, key, value)`. Keys and values are
/// interned AttrIds, so applying a delta writes ids straight into the
/// snapshot stores with no per-entry hash or string copy. Serialized bytes
/// stay independent of the process-local interning order because the codec
/// resolves ids through a per-blob string dictionary (src/codec/README.md);
/// id equality is string equality process-wide.
struct AttrEntry {
  uint64_t owner = 0;
  AttrId key = kInvalidAttrId;
  AttrId value = kInvalidAttrId;

  const std::string& key_str() const { return AttrStr(key); }
  const std::string& value_str() const { return AttrStr(value); }

  bool operator==(const AttrEntry& other) const {
    return owner == other.owner && key == other.key && value == other.value;
  }
};

/// \brief The difference between two snapshots (Section 4.2).
///
/// For an edge Sp -> Sc of the DeltaGraph, the stored delta is
/// `Delta(Sc, Sp)`: the elements to *add* to Sp (those in Sc - Sp) and the
/// elements to *delete* from Sp (those in Sp - Sc) to obtain Sc. A Delta is
/// exactly invertible — applying it backward turns Sc into Sp — which makes
/// every skeleton edge traversable in both directions and keeps the
/// Steiner-tree planner's undirected 2-approximation sound.
///
/// A delta is stored *columnar* as three blobs (struct, nodeattr, edgeattr),
/// each under its own key in the key-value store, so that structure-only
/// queries never fetch or decode attribute bytes (Figure 8(d)).
class Delta {
 public:
  // Structure component.
  std::vector<NodeId> add_nodes, del_nodes;
  std::vector<std::pair<EdgeId, EdgeRecord>> add_edges, del_edges;
  // Node-attribute component.
  std::vector<AttrEntry> add_node_attrs, del_node_attrs;
  // Edge-attribute component.
  std::vector<AttrEntry> add_edge_attrs, del_edge_attrs;

  /// Computes the delta that transforms `source` into `target`:
  /// `source + delta = target`.
  static Delta Between(const Snapshot& target, const Snapshot& source);

  /// Applies this delta to `g`. Forward means source -> target; backward
  /// undoes it exactly. Only the selected components are touched.
  Status ApplyTo(Snapshot* g, bool forward, unsigned components = kCompAll) const;

  bool IsEmpty() const;

  /// Number of elements in the given components (the "size of the delta" the
  /// paper uses as the skeleton edge weight approximation).
  size_t ElementCount(unsigned components = kCompAll) const;

  /// Serializes one component (`kCompStruct`, `kCompNodeAttr`, or
  /// `kCompEdgeAttr`) to a blob in the current on-disk format (delegates to
  /// src/codec/; the blob carries a magic + version header).
  void EncodeComponent(ComponentMask component, std::string* out) const;

  /// Decodes a component blob produced by EncodeComponent — any supported
  /// format version, including headerless legacy v0 blobs — into this delta.
  Status DecodeComponent(ComponentMask component, const Slice& blob);

  /// Sorts element vectors into canonical order (by id / owner + key string +
  /// value string — *string* order, so the encoding stays deterministic
  /// across processes with different interning orders). Between produces
  /// canonical deltas; hand-built deltas should call this before encoding.
  void Canonicalize();

  bool operator==(const Delta& other) const;
};

}  // namespace hgdb

#endif  // HISTGRAPH_GRAPH_DELTA_H_
