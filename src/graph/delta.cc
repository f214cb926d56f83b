#include "graph/delta.h"

#include <algorithm>

#include "codec/delta_codec.h"
#include "common/coding.h"

namespace hgdb {

namespace {

AttrEntry MakeAttrEntry(uint64_t owner, AttrId key_id, AttrId value_id) {
  return AttrEntry{owner, key_id, value_id};
}

// Diff helper over attribute tables: emits (owner,key,value) adds for entries
// of `target` missing or different in `source`, and deletes for the opposite.
// Value comparison is id comparison (the interner guarantees id equality ==
// string equality process-wide). Iteration skips chunks the two tables share
// by pointer — those owners are element-identical and contribute nothing.
template <typename AttrTable>
void DiffAttrs(const AttrTable& target, const AttrTable& source,
               std::vector<AttrEntry>* add, std::vector<AttrEntry>* del) {
  target.ForEachDivergent(source, [&](uint64_t owner, const AttrMap& attrs) {
    const AttrMap* sattrs = source.FindValue(owner);
    for (const auto& [k, v] : attrs) {
      const AttrId sv = sattrs == nullptr ? kInvalidAttrId : sattrs->Get(k);
      if (sv != v) add->push_back(MakeAttrEntry(owner, k, v));
      if (sv != kInvalidAttrId && sv != v) del->push_back(MakeAttrEntry(owner, k, sv));
    }
  });
  source.ForEachDivergent(target, [&](uint64_t owner, const AttrMap& attrs) {
    const AttrMap* tattrs = target.FindValue(owner);
    for (const auto& [k, v] : attrs) {
      if (tattrs == nullptr || !tattrs->Contains(k)) {
        del->push_back(MakeAttrEntry(owner, k, v));
      }
    }
  });
}

// Canonical attr order compares the interned *strings* (not the ids), so two
// processes with different interning histories canonicalize — and therefore
// encode — identically.
void SortAttrEntries(std::vector<AttrEntry>* v) {
  std::sort(v->begin(), v->end(), [](const AttrEntry& a, const AttrEntry& b) {
    if (a.owner != b.owner) return a.owner < b.owner;
    if (a.key != b.key) return AttrStr(a.key) < AttrStr(b.key);
    if (a.value == b.value) return false;
    return AttrStr(a.value) < AttrStr(b.value);
  });
}

}  // namespace

Delta Delta::Between(const Snapshot& target, const Snapshot& source) {
  Delta d;
  // COW-shared stores are identical by construction (differential combines
  // and filtered copies share structure until mutated) — skip them outright;
  // within divergent stores, chunks still shared by pointer are skipped the
  // same way, so diffing two snapshots emitted close together costs the
  // divergent chunks, not the graph.
  if (!target.SharesNodeStoreWith(source)) {
    target.nodes().ForEachDivergent(source.nodes(), [&](NodeId n) {
      if (!source.HasNode(n)) d.add_nodes.push_back(n);
    });
    source.nodes().ForEachDivergent(target.nodes(), [&](NodeId n) {
      if (!target.HasNode(n)) d.del_nodes.push_back(n);
    });
  }
  if (!target.SharesEdgeStoreWith(source)) {
    target.edges().ForEachDivergent(
        source.edges(), [&](EdgeId id, const EdgeRecord& rec) {
          if (source.FindEdge(id) == nullptr) d.add_edges.emplace_back(id, rec);
          // Ids are unique and immutable, so a shared id implies an identical
          // record.
        });
    source.edges().ForEachDivergent(
        target.edges(), [&](EdgeId id, const EdgeRecord& rec) {
          if (!target.HasEdge(id)) d.del_edges.emplace_back(id, rec);
        });
  }
  if (!target.SharesNodeAttrStoreWith(source)) {
    DiffAttrs(target.node_attrs(), source.node_attrs(), &d.add_node_attrs,
              &d.del_node_attrs);
  }
  if (!target.SharesEdgeAttrStoreWith(source)) {
    DiffAttrs(target.edge_attrs(), source.edge_attrs(), &d.add_edge_attrs,
              &d.del_edge_attrs);
  }
  d.Canonicalize();
  return d;
}

Status Delta::ApplyTo(Snapshot* g, bool forward, unsigned components) const {
  const auto& plus_nodes = forward ? add_nodes : del_nodes;
  const auto& minus_nodes = forward ? del_nodes : add_nodes;
  const auto& plus_edges = forward ? add_edges : del_edges;
  const auto& minus_edges = forward ? del_edges : add_edges;
  const auto& plus_nattrs = forward ? add_node_attrs : del_node_attrs;
  const auto& minus_nattrs = forward ? del_node_attrs : add_node_attrs;
  const auto& plus_eattrs = forward ? add_edge_attrs : del_edge_attrs;
  const auto& minus_eattrs = forward ? del_edge_attrs : add_edge_attrs;

  // Deletions first (attributes, then structure), then additions (structure,
  // then attributes), so that intermediate states stay consistent.
  if (components & kCompStruct) {
    g->ReserveAdditional(plus_nodes.size(), plus_edges.size());
  }
  if (components & kCompNodeAttr) {
    for (const auto& a : minus_nattrs) g->RemoveNodeAttrId(a.owner, a.key);
  }
  if (components & kCompEdgeAttr) {
    for (const auto& a : minus_eattrs) g->RemoveEdgeAttrId(a.owner, a.key);
  }
  if (components & kCompStruct) {
    for (const auto& [id, rec] : minus_edges) {
      if (!g->RemoveEdge(id)) {
        return Status::InvalidArgument("delta: removing absent edge " +
                                       std::to_string(id));
      }
    }
    for (NodeId n : minus_nodes) {
      if (!g->RemoveNode(n)) {
        return Status::InvalidArgument("delta: removing absent node " +
                                       std::to_string(n));
      }
    }
    for (NodeId n : plus_nodes) {
      if (!g->AddNode(n)) {
        return Status::InvalidArgument("delta: adding duplicate node " +
                                       std::to_string(n));
      }
    }
    for (const auto& [id, rec] : plus_edges) {
      if (!g->AddEdge(id, rec)) {
        return Status::InvalidArgument("delta: adding duplicate edge " +
                                       std::to_string(id));
      }
    }
  }
  if (components & kCompNodeAttr) {
    for (const auto& a : plus_nattrs) {
      g->SetNodeAttrId(a.owner, a.key, a.value);
    }
  }
  if (components & kCompEdgeAttr) {
    for (const auto& a : plus_eattrs) {
      g->SetEdgeAttrId(a.owner, a.key, a.value);
    }
  }
  return Status::OK();
}

bool Delta::IsEmpty() const {
  return add_nodes.empty() && del_nodes.empty() && add_edges.empty() &&
         del_edges.empty() && add_node_attrs.empty() && del_node_attrs.empty() &&
         add_edge_attrs.empty() && del_edge_attrs.empty();
}

size_t Delta::ElementCount(unsigned components) const {
  size_t n = 0;
  if (components & kCompStruct) {
    n += add_nodes.size() + del_nodes.size() + add_edges.size() + del_edges.size();
  }
  if (components & kCompNodeAttr) {
    n += add_node_attrs.size() + del_node_attrs.size();
  }
  if (components & kCompEdgeAttr) {
    n += add_edge_attrs.size() + del_edge_attrs.size();
  }
  return n;
}

void Delta::Canonicalize() {
  std::sort(add_nodes.begin(), add_nodes.end());
  std::sort(del_nodes.begin(), del_nodes.end());
  auto by_id = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(add_edges.begin(), add_edges.end(), by_id);
  std::sort(del_edges.begin(), del_edges.end(), by_id);
  SortAttrEntries(&add_node_attrs);
  SortAttrEntries(&del_node_attrs);
  SortAttrEntries(&add_edge_attrs);
  SortAttrEntries(&del_edge_attrs);
}

void Delta::EncodeComponent(ComponentMask component, std::string* out) const {
  codec::EncodeDeltaComponent(*this, component, out);
}

Status Delta::DecodeComponent(ComponentMask component, const Slice& blob) {
  return codec::DecodeDeltaComponent(component, blob, this);
}

bool Delta::operator==(const Delta& other) const {
  return add_nodes == other.add_nodes && del_nodes == other.del_nodes &&
         add_edges == other.add_edges && del_edges == other.del_edges &&
         add_node_attrs == other.add_node_attrs &&
         del_node_attrs == other.del_node_attrs &&
         add_edge_attrs == other.add_edge_attrs &&
         del_edge_attrs == other.del_edge_attrs;
}

}  // namespace hgdb
