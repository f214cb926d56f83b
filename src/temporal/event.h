#ifndef HISTGRAPH_TEMPORAL_EVENT_H_
#define HISTGRAPH_TEMPORAL_EVENT_H_

#include <optional>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace hgdb {

/// \brief The kind of atomic activity an Event records (Section 3.1).
///
/// An event is atomic: it cannot be broken into smaller activities. The valid
/// time interval of an element is expressed by a pair of add/delete events.
/// Deleting a node (edge) with attributes is therefore *two or more* events:
/// attribute-removal events followed by the structural delete. This keeps
/// every event independently invertible, which the DeltaGraph needs to apply
/// eventlists in either direction of time (G_k = G_{k-1} + E, G_{k-1} = G_k - E).
enum class EventType : unsigned char {
  kAddNode = 0,
  kDeleteNode = 1,
  kAddEdge = 2,
  kDeleteEdge = 3,
  kNodeAttr = 4,       ///< Set / change / remove a node attribute.
  kEdgeAttr = 5,       ///< Set / change / remove an edge attribute.
  kTransientEdge = 6,  ///< An edge valid only at this instant (e.g. a message).
  kTransientNode = 7,  ///< A node valid only at this instant.
};

/// \brief Which columnar component of a delta / eventlist an item belongs to.
///
/// The paper separates a delta into Delta_struct, Delta_nodeattr,
/// Delta_edgeattr, and (for leaf-eventlists) E_transient, stored under
/// separate keys so a query fetches only what it needs (Section 4.2).
enum ComponentMask : unsigned {
  kCompStruct = 1u << 0,
  kCompNodeAttr = 1u << 1,
  kCompEdgeAttr = 1u << 2,
  kCompTransient = 1u << 3,
  kCompAll = kCompStruct | kCompNodeAttr | kCompEdgeAttr,
  kCompAllWithTransient = kCompAll | kCompTransient,
};

/// Number of distinct components.
inline constexpr int kNumComponents = 4;

/// \brief One atomic change to the historical graph.
///
/// Events are bidirectional: applying an event forward performs the activity,
/// applying it backward undoes it exactly. Attribute events carry both the
/// old and the new value for this reason (mirroring the paper's UNA example,
/// which records old and new).
struct Event {
  EventType type = EventType::kAddNode;
  Timestamp time = 0;

  NodeId node = kInvalidNodeId;  ///< Node events and node-attribute owner.
  EdgeId edge = kInvalidEdgeId;  ///< Edge events and edge-attribute owner.
  NodeId src = kInvalidNodeId;   ///< Edge endpoints (add/delete/transient edge).
  NodeId dst = kInvalidNodeId;
  bool directed = false;

  std::string key;  ///< Attribute name; payload label for transient events.
  std::optional<std::string> old_value;  ///< nullopt = attribute was absent.
  std::optional<std::string> new_value;  ///< nullopt = attribute removed.

  // -- Factories ------------------------------------------------------------
  static Event AddNode(Timestamp t, NodeId n);
  static Event DeleteNode(Timestamp t, NodeId n);
  static Event AddEdge(Timestamp t, EdgeId e, NodeId src, NodeId dst, bool directed);
  static Event DeleteEdge(Timestamp t, EdgeId e, NodeId src, NodeId dst, bool directed);
  static Event SetNodeAttr(Timestamp t, NodeId n, std::string key,
                           std::optional<std::string> old_value,
                           std::optional<std::string> new_value);
  static Event SetEdgeAttr(Timestamp t, EdgeId e, std::string key,
                           std::optional<std::string> old_value,
                           std::optional<std::string> new_value);
  static Event TransientEdge(Timestamp t, NodeId src, NodeId dst, std::string payload);
  static Event TransientNode(Timestamp t, NodeId n, std::string payload);

  /// The columnar component this event belongs to.
  ComponentMask component() const;

  /// True for transient (single-instant) events, which by definition are not
  /// part of any snapshot and are only returned by interval queries.
  bool is_transient() const {
    return type == EventType::kTransientEdge || type == EventType::kTransientNode;
  }

  /// Debug rendering, e.g. "{NE, N:23, N:4590, directed:no, t=1234}".
  std::string ToString() const;

  bool operator==(const Event& other) const;
};

}  // namespace hgdb

#endif  // HISTGRAPH_TEMPORAL_EVENT_H_
