#include "codec/delta_codec.h"

#include <utility>
#include <vector>

#include "codec/format.h"
#include "common/coding.h"
#include "common/interner.h"
#include "graph/delta.h"

namespace hgdb {
namespace codec {

namespace {

void EncodeNodeColumn(const std::vector<NodeId>& ids, uint8_t tag, std::string* out) {
  if (ids.empty()) return;
  std::string payload;
  PutDeltaVarints(ids, &payload);
  AppendBlock(tag, payload, out);
}

Status DecodeNodeColumn(Slice payload, std::vector<NodeId>* ids) {
  HG_RETURN_NOT_OK(GetDeltaVarints(&payload, ids, "delta node column"));
  if (!payload.empty()) return Status::Corruption("delta node column: trailing bytes");
  return Status::OK();
}

void EncodeEdgeColumns(const std::vector<std::pair<EdgeId, EdgeRecord>>& edges,
                       uint8_t tag, std::string* out) {
  if (edges.empty()) return;
  std::string payload;
  PutVarint64(&payload, edges.size());
  EdgeId prev = 0;
  for (const auto& [id, rec] : edges) {  // id column (delta-encoded).
    PutVarint64(&payload, id - prev);
    prev = id;
  }
  for (const auto& [id, rec] : edges) PutVarint64(&payload, rec.src);
  for (const auto& [id, rec] : edges) PutVarint64(&payload, rec.dst);
  std::vector<bool> directed;
  directed.reserve(edges.size());
  for (const auto& [id, rec] : edges) directed.push_back(rec.directed);
  PutBitmap(directed, &payload);
  AppendBlock(tag, payload, out);
}

Status DecodeEdgeColumns(Slice payload,
                         std::vector<std::pair<EdgeId, EdgeRecord>>* edges) {
  uint64_t count = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&payload, &count, "delta edge count"));
  if (count > payload.size()) {
    return Status::Corruption("delta edge column: count exceeds payload");
  }
  edges->clear();
  edges->resize(static_cast<size_t>(count));
  EdgeId prev = 0;
  for (auto& [id, rec] : *edges) {
    uint64_t gap = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(&payload, &gap, "delta edge id"));
    prev += gap;
    id = prev;
  }
  for (auto& [id, rec] : *edges) {
    HG_RETURN_NOT_OK(ExpectVarint64(&payload, &rec.src, "delta edge src"));
  }
  for (auto& [id, rec] : *edges) {
    HG_RETURN_NOT_OK(ExpectVarint64(&payload, &rec.dst, "delta edge dst"));
  }
  std::vector<bool> directed;
  HG_RETURN_NOT_OK(GetBitmap(&payload, static_cast<size_t>(count), &directed,
                             "delta edge directed"));
  for (size_t i = 0; i < edges->size(); ++i) (*edges)[i].second.directed = directed[i];
  if (!payload.empty()) return Status::Corruption("delta edge column: trailing bytes");
  return Status::OK();
}

void EncodeAttrColumns(const std::vector<AttrEntry>& entries, uint8_t tag,
                       DictBuilder* dict, std::string* out) {
  if (entries.empty()) return;
  std::string payload;
  PutVarint64(&payload, entries.size());
  uint64_t prev = 0;
  for (const auto& a : entries) {  // Owner column (canonical order: ascending).
    PutVarint64(&payload, a.owner - prev);
    prev = a.owner;
  }
  for (const auto& a : entries) PutVarint64(&payload, dict->Index(AttrStr(a.key)));
  for (const auto& a : entries) PutVarint64(&payload, dict->Index(AttrStr(a.value)));
  AppendBlock(tag, payload, out);
}

Status DecodeAttrColumns(Slice payload, DictView* dict, std::vector<AttrEntry>* entries) {
  uint64_t count = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&payload, &count, "delta attr count"));
  if (count > payload.size()) {
    return Status::Corruption("delta attr column: count exceeds payload");
  }
  entries->clear();
  entries->resize(static_cast<size_t>(count));
  uint64_t prev = 0;
  for (auto& a : *entries) {
    uint64_t gap = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(&payload, &gap, "delta attr owner"));
    prev += gap;
    a.owner = prev;
  }
  for (auto& a : *entries) {
    uint64_t idx = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(&payload, &idx, "delta attr key"));
    HG_RETURN_NOT_OK(dict->InternAt(idx, &a.key));
  }
  for (auto& a : *entries) {
    uint64_t idx = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(&payload, &idx, "delta attr value"));
    HG_RETURN_NOT_OK(dict->InternAt(idx, &a.value));
  }
  if (!payload.empty()) return Status::Corruption("delta attr column: trailing bytes");
  return Status::OK();
}

}  // namespace

Status DecodeDeltaComponent(ComponentMask component, const Slice& blob, Delta* out) {
  if (component != kCompStruct && component != kCompNodeAttr &&
      component != kCompEdgeAttr) {
    return Status::InvalidArgument("delta: unknown component");
  }
  BlockReader reader;
  std::unordered_map<uint8_t, Slice> blocks;
  HG_RETURN_NOT_OK(ReadBlocks(blob, kDeltaVersion, &reader, &blocks));
  auto block = [&](uint8_t tag, Slice* payload) {
    auto it = blocks.find(tag);
    if (it == blocks.end()) return false;
    *payload = it->second;
    return true;
  };
  Slice payload;
  if (component == kCompStruct) {
    out->add_nodes.clear();
    out->del_nodes.clear();
    out->add_edges.clear();
    out->del_edges.clear();
    if (block(kBlockNodeAdds, &payload)) {
      HG_RETURN_NOT_OK(DecodeNodeColumn(payload, &out->add_nodes));
    }
    if (block(kBlockNodeDels, &payload)) {
      HG_RETURN_NOT_OK(DecodeNodeColumn(payload, &out->del_nodes));
    }
    if (block(kBlockEdgeAdds, &payload)) {
      HG_RETURN_NOT_OK(DecodeEdgeColumns(payload, &out->add_edges));
    }
    if (block(kBlockEdgeDels, &payload)) {
      HG_RETURN_NOT_OK(DecodeEdgeColumns(payload, &out->del_edges));
    }
    return Status::OK();
  }
  auto* adds = component == kCompNodeAttr ? &out->add_node_attrs : &out->add_edge_attrs;
  auto* dels = component == kCompNodeAttr ? &out->del_node_attrs : &out->del_edge_attrs;
  adds->clear();
  dels->clear();
  DictView dict;
  if (block(kBlockDict, &payload)) HG_RETURN_NOT_OK(dict.Parse(payload));
  if (block(kBlockAttrAdds, &payload)) {
    HG_RETURN_NOT_OK(DecodeAttrColumns(payload, &dict, adds));
  }
  if (block(kBlockAttrDels, &payload)) {
    HG_RETURN_NOT_OK(DecodeAttrColumns(payload, &dict, dels));
  }
  return Status::OK();
}

void EncodeDeltaComponent(const Delta& d, ComponentMask component, std::string* out) {
  out->clear();
  PutHeader(out, kDeltaVersion);
  switch (component) {
    case kCompStruct:
      EncodeNodeColumn(d.add_nodes, kBlockNodeAdds, out);
      EncodeNodeColumn(d.del_nodes, kBlockNodeDels, out);
      EncodeEdgeColumns(d.add_edges, kBlockEdgeAdds, out);
      EncodeEdgeColumns(d.del_edges, kBlockEdgeDels, out);
      break;
    case kCompNodeAttr:
    case kCompEdgeAttr: {
      const auto& adds = component == kCompNodeAttr ? d.add_node_attrs : d.add_edge_attrs;
      const auto& dels = component == kCompNodeAttr ? d.del_node_attrs : d.del_edge_attrs;
      DictBuilder dict;
      // Columns are built before the dictionary block is emitted (the dict is
      // populated while the attr columns are encoded) but the dict block is
      // written first so decoding is single-pass-friendly.
      std::string columns;
      EncodeAttrColumns(adds, kBlockAttrAdds, &dict, &columns);
      EncodeAttrColumns(dels, kBlockAttrDels, &dict, &columns);
      if (!dict.empty()) {
        std::string dict_payload;
        dict.EncodeTo(&dict_payload);
        AppendBlock(kBlockDict, dict_payload, out);
      }
      out->append(columns);
      break;
    }
    default:
      break;  // Deltas have no transient component.
  }
}

}  // namespace codec
}  // namespace hgdb
