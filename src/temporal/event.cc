#include "temporal/event.h"

#include <sstream>

namespace hgdb {

Event Event::AddNode(Timestamp t, NodeId n) {
  Event e;
  e.type = EventType::kAddNode;
  e.time = t;
  e.node = n;
  return e;
}

Event Event::DeleteNode(Timestamp t, NodeId n) {
  Event e;
  e.type = EventType::kDeleteNode;
  e.time = t;
  e.node = n;
  return e;
}

Event Event::AddEdge(Timestamp t, EdgeId id, NodeId src, NodeId dst, bool directed) {
  Event e;
  e.type = EventType::kAddEdge;
  e.time = t;
  e.edge = id;
  e.src = src;
  e.dst = dst;
  e.directed = directed;
  return e;
}

Event Event::DeleteEdge(Timestamp t, EdgeId id, NodeId src, NodeId dst, bool directed) {
  Event e;
  e.type = EventType::kDeleteEdge;
  e.time = t;
  e.edge = id;
  e.src = src;
  e.dst = dst;
  e.directed = directed;
  return e;
}

Event Event::SetNodeAttr(Timestamp t, NodeId n, std::string key,
                         std::optional<std::string> old_value,
                         std::optional<std::string> new_value) {
  Event e;
  e.type = EventType::kNodeAttr;
  e.time = t;
  e.node = n;
  e.key = std::move(key);
  e.old_value = std::move(old_value);
  e.new_value = std::move(new_value);
  return e;
}

Event Event::SetEdgeAttr(Timestamp t, EdgeId id, std::string key,
                         std::optional<std::string> old_value,
                         std::optional<std::string> new_value) {
  Event e;
  e.type = EventType::kEdgeAttr;
  e.time = t;
  e.edge = id;
  e.key = std::move(key);
  e.old_value = std::move(old_value);
  e.new_value = std::move(new_value);
  return e;
}

Event Event::TransientEdge(Timestamp t, NodeId src, NodeId dst, std::string payload) {
  Event e;
  e.type = EventType::kTransientEdge;
  e.time = t;
  e.src = src;
  e.dst = dst;
  e.key = std::move(payload);
  return e;
}

Event Event::TransientNode(Timestamp t, NodeId n, std::string payload) {
  Event e;
  e.type = EventType::kTransientNode;
  e.time = t;
  e.node = n;
  e.key = std::move(payload);
  return e;
}

ComponentMask Event::component() const {
  switch (type) {
    case EventType::kAddNode:
    case EventType::kDeleteNode:
    case EventType::kAddEdge:
    case EventType::kDeleteEdge:
      return kCompStruct;
    case EventType::kNodeAttr:
      return kCompNodeAttr;
    case EventType::kEdgeAttr:
      return kCompEdgeAttr;
    case EventType::kTransientEdge:
    case EventType::kTransientNode:
      return kCompTransient;
  }
  return kCompStruct;
}

std::string Event::ToString() const {
  std::ostringstream os;
  switch (type) {
    case EventType::kAddNode:
      os << "{NN, N:" << node;
      break;
    case EventType::kDeleteNode:
      os << "{DN, N:" << node;
      break;
    case EventType::kAddEdge:
      os << "{NE, E:" << edge << ", N:" << src << ", N:" << dst
         << ", directed:" << (directed ? "yes" : "no");
      break;
    case EventType::kDeleteEdge:
      os << "{DE, E:" << edge << ", N:" << src << ", N:" << dst
         << ", directed:" << (directed ? "yes" : "no");
      break;
    case EventType::kNodeAttr:
      os << "{UNA, N:" << node << ", '" << key << "', old:"
         << (old_value ? "'" + *old_value + "'" : "-") << ", new:"
         << (new_value ? "'" + *new_value + "'" : "-");
      break;
    case EventType::kEdgeAttr:
      os << "{UEA, E:" << edge << ", '" << key << "', old:"
         << (old_value ? "'" + *old_value + "'" : "-") << ", new:"
         << (new_value ? "'" + *new_value + "'" : "-");
      break;
    case EventType::kTransientEdge:
      os << "{TE, N:" << src << ", N:" << dst << ", '" << key << "'";
      break;
    case EventType::kTransientNode:
      os << "{TN, N:" << node << ", '" << key << "'";
      break;
  }
  os << ", t=" << time << "}";
  return os.str();
}

bool Event::operator==(const Event& other) const {
  return type == other.type && time == other.time && node == other.node &&
         edge == other.edge && src == other.src && dst == other.dst &&
         directed == other.directed && key == other.key &&
         old_value == other.old_value && new_value == other.new_value;
}

}  // namespace hgdb
