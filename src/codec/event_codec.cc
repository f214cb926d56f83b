#include "codec/event_codec.h"

#include <limits>
#include <vector>

#include "codec/format.h"
#include "common/coding.h"
#include "common/types.h"

namespace hgdb {
namespace codec {

namespace {

// Which columns an event of a given kind draws from. One byte of op kind in
// the meta column fully determines the field layout, so the id/attr columns
// hold no per-event framing at all.
bool HasNodeField(EventType t) {
  return t == EventType::kAddNode || t == EventType::kDeleteNode ||
         t == EventType::kNodeAttr || t == EventType::kTransientNode;
}
bool HasEdgeField(EventType t) {
  return t == EventType::kAddEdge || t == EventType::kDeleteEdge ||
         t == EventType::kEdgeAttr;
}
bool HasEndpoints(EventType t) {
  return HasEdgeField(t) || t == EventType::kTransientEdge;
}
bool HasDirected(EventType t) {
  return t == EventType::kAddEdge || t == EventType::kDeleteEdge;
}
bool HasKey(EventType t) {
  return t == EventType::kNodeAttr || t == EventType::kEdgeAttr ||
         t == EventType::kTransientEdge || t == EventType::kTransientNode;
}
bool HasOptionals(EventType t) {
  return t == EventType::kNodeAttr || t == EventType::kEdgeAttr;
}

// Id columns. Node/edge/src/dst ids are written rebased
// against their column's minimum *valid* id, and the invalid-id sentinel
// (all-ones, shared by kInvalidNodeId and kInvalidEdgeId) maps to 0:
//
//   [varint base][per value: 0 for sentinel, else v - base + 1]
//
// Unknown-endpoint attribute events carry sentinel src/dst, which cost ten
// varint bytes absolute but one byte rebased; valid ids shrink too whenever
// a column's ids sit far from zero. A valid id is at most max-1, so
// v - base + 1 never collides with the sentinel's 0 and round-trips exactly.
constexpr uint64_t kSentinelId = std::numeric_limits<uint64_t>::max();
static_assert(kInvalidNodeId == kSentinelId && kInvalidEdgeId == kSentinelId,
              "rebased id columns assume the all-ones invalid-id sentinel");

void PutRebasedIds(const std::vector<uint64_t>& col, std::string* out) {
  uint64_t base = kSentinelId;
  for (uint64_t v : col) {
    if (v != kSentinelId && v < base) base = v;
  }
  if (base == kSentinelId) base = 0;  // Column holds no valid ids.
  PutVarint64(out, base);
  for (uint64_t v : col) PutVarint64(out, v == kSentinelId ? 0 : v - base + 1);
}

Status GetRebasedIds(Slice* in, std::vector<uint64_t>* col, const char* what) {
  uint64_t base = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(in, &base, what));
  for (uint64_t& v : *col) {
    uint64_t rel = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(in, &rel, what));
    // Unsigned wrap on corrupt (base, rel) pairs yields a garbage id, never
    // UB; corrupt blobs fail structural checks elsewhere.
    v = rel == 0 ? kSentinelId : base + rel - 1;
  }
  return Status::OK();
}

}  // namespace

Status DecodeEventListComponent(const Slice& blob, std::vector<SeqEvent>* out) {
  BlockReader reader;
  std::unordered_map<uint8_t, Slice> blocks;
  HG_RETURN_NOT_OK(ReadBlocks(blob, kEventListVersion, &reader, &blocks));
  auto block = [&](uint8_t tag, Slice* payload) {
    auto it = blocks.find(tag);
    if (it == blocks.end()) return false;
    *payload = it->second;
    return true;
  };

  Slice meta;
  if (!block(kBlockEventMeta, &meta)) return Status::OK();  // Empty blob.
  uint64_t n = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&meta, &n, "eventlist count"));
  if (n > meta.size()) return Status::Corruption("eventlist count exceeds payload");
  const size_t count = static_cast<size_t>(n);

  std::vector<uint64_t> seqs(count);
  uint64_t prev_seq = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t gap = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(&meta, &gap, "eventlist seq"));
    prev_seq += gap;
    seqs[i] = prev_seq;
  }
  std::vector<Timestamp> times(count);
  Timestamp prev_time = 0;
  for (size_t i = 0; i < count; ++i) {
    int64_t diff = 0;
    if (!GetVarsint64(&meta, &diff)) return Status::Corruption("eventlist time");
    prev_time += diff;
    times[i] = prev_time;
  }
  if (meta.size() < count) return Status::Corruption("eventlist: truncated op kinds");
  std::vector<EventType> types(count);
  size_t nodes = 0, edges = 0, endpoints = 0, directed_n = 0, keys = 0, optionals = 0;
  for (size_t i = 0; i < count; ++i) {
    const auto t = static_cast<EventType>(meta[i]);
    if (static_cast<unsigned>(t) > static_cast<unsigned>(EventType::kTransientNode)) {
      return Status::Corruption("eventlist: bad op kind");
    }
    types[i] = t;
    nodes += HasNodeField(t);
    edges += HasEdgeField(t);
    endpoints += HasEndpoints(t);
    directed_n += HasDirected(t);
    keys += HasKey(t);
    optionals += HasOptionals(t);
  }
  meta.RemovePrefix(count);
  if (!meta.empty()) return Status::Corruption("eventlist meta: trailing bytes");

  // Id columns.
  std::vector<uint64_t> node_col(nodes), edge_col(edges), src_col(endpoints),
      dst_col(endpoints);
  std::vector<bool> directed_col;
  Slice ids;
  const bool want_ids = nodes + endpoints > 0;
  if (want_ids && !block(kBlockEventIds, &ids)) {
    return Status::Corruption("eventlist: missing id columns");
  }
  if (want_ids) {
    HG_RETURN_NOT_OK(GetRebasedIds(&ids, &node_col, "event node"));
    HG_RETURN_NOT_OK(GetRebasedIds(&ids, &edge_col, "event edge"));
    HG_RETURN_NOT_OK(GetRebasedIds(&ids, &src_col, "event src"));
    HG_RETURN_NOT_OK(GetRebasedIds(&ids, &dst_col, "event dst"));
    HG_RETURN_NOT_OK(GetBitmap(&ids, directed_n, &directed_col, "event directed"));
    if (!ids.empty()) return Status::Corruption("eventlist ids: trailing bytes");
  }

  // Attribute columns (dictionary indexes).
  DictView dict;
  Slice payload;
  if (block(kBlockDict, &payload)) HG_RETURN_NOT_OK(dict.Parse(payload));
  std::vector<uint64_t> key_col(keys);
  std::vector<bool> old_present, new_present;
  std::vector<uint64_t> old_col, new_col;
  Slice attrs;
  if (keys > 0) {
    if (!block(kBlockEventAttrs, &attrs)) {
      return Status::Corruption("eventlist: missing attr columns");
    }
    for (auto& v : key_col) HG_RETURN_NOT_OK(ExpectVarint64(&attrs, &v, "event key"));
    HG_RETURN_NOT_OK(GetBitmap(&attrs, optionals, &old_present, "event old bitmap"));
    HG_RETURN_NOT_OK(GetBitmap(&attrs, optionals, &new_present, "event new bitmap"));
    for (bool present : old_present) {
      if (!present) continue;
      uint64_t v = 0;
      HG_RETURN_NOT_OK(ExpectVarint64(&attrs, &v, "event old value"));
      old_col.push_back(v);
    }
    for (bool present : new_present) {
      if (!present) continue;
      uint64_t v = 0;
      HG_RETURN_NOT_OK(ExpectVarint64(&attrs, &v, "event new value"));
      new_col.push_back(v);
    }
    if (!attrs.empty()) return Status::Corruption("eventlist attrs: trailing bytes");
  }

  // Assemble: one pass over the op-kind column with per-column cursors.
  size_t ni = 0, ei = 0, pi = 0, di = 0, ki = 0, oi = 0, oldi = 0, newi = 0;
  out->reserve(out->size() + count);
  for (size_t i = 0; i < count; ++i) {
    Event e;
    e.type = types[i];
    e.time = times[i];
    if (HasNodeField(e.type)) e.node = node_col[ni++];
    if (HasEdgeField(e.type)) e.edge = edge_col[ei++];
    if (HasEndpoints(e.type)) {
      e.src = src_col[pi];
      e.dst = dst_col[pi];
      ++pi;
    }
    if (HasDirected(e.type)) e.directed = directed_col[di++];
    if (HasKey(e.type)) {
      Slice s;
      HG_RETURN_NOT_OK(dict.At(key_col[ki++], &s));
      e.key.assign(s.data(), s.size());
    }
    if (HasOptionals(e.type)) {
      if (old_present[oi]) {
        Slice s;
        HG_RETURN_NOT_OK(dict.At(old_col[oldi++], &s));
        e.old_value.emplace(s.data(), s.size());
      }
      if (new_present[oi]) {
        Slice s;
        HG_RETURN_NOT_OK(dict.At(new_col[newi++], &s));
        e.new_value.emplace(s.data(), s.size());
      }
      ++oi;
    }
    out->push_back(SeqEvent{seqs[i], std::move(e)});
  }
  return Status::OK();
}

void EncodeEventListComponent(const std::vector<Event>& events, ComponentMask mask,
                              std::string* out) {
  out->clear();
  PutHeader(out, kEventListVersion);
  std::vector<uint32_t> selected;
  selected.reserve(events.size());
  for (uint32_t i = 0; i < events.size(); ++i) {
    if (events[i].component() & mask) selected.push_back(i);
  }
  if (selected.empty()) return;

  // Meta columns: count, sequence numbers (delta), timestamps (zigzag delta),
  // op kinds.
  std::string meta;
  PutVarint64(&meta, selected.size());
  uint64_t prev_seq = 0;
  for (uint32_t i : selected) {
    PutVarint64(&meta, i - prev_seq);
    prev_seq = i;
  }
  Timestamp prev_time = 0;
  for (uint32_t i : selected) {
    PutVarsint64(&meta, events[i].time - prev_time);
    prev_time = events[i].time;
  }
  for (uint32_t i : selected) meta.push_back(static_cast<char>(events[i].type));
  AppendBlock(kBlockEventMeta, meta, out);

  // Id columns: node, edge, endpoints (each rebased per column), directed
  // bitmap.
  std::vector<uint64_t> node_col, edge_col, src_col, dst_col;
  std::vector<bool> directed;
  for (uint32_t i : selected) {
    const Event& e = events[i];
    if (HasNodeField(e.type)) node_col.push_back(e.node);
    if (HasEdgeField(e.type)) edge_col.push_back(e.edge);
    if (HasEndpoints(e.type)) {
      src_col.push_back(e.src);
      dst_col.push_back(e.dst);
    }
    if (HasDirected(e.type)) directed.push_back(e.directed);
  }
  const bool any_ids = !node_col.empty() || !src_col.empty();
  if (any_ids) {
    std::string ids;
    PutRebasedIds(node_col, &ids);
    PutRebasedIds(edge_col, &ids);
    PutRebasedIds(src_col, &ids);
    PutRebasedIds(dst_col, &ids);
    PutBitmap(directed, &ids);
    AppendBlock(kBlockEventIds, ids, out);
  }

  // Attribute columns: key indexes, old/new presence bitmaps + indexes, all
  // through the per-blob dictionary.
  DictBuilder dict;
  std::string attrs;
  std::string old_idx, new_idx;
  std::vector<bool> old_present, new_present;
  bool any_attrs = false;
  for (uint32_t i : selected) {
    const Event& e = events[i];
    if (!HasKey(e.type)) continue;
    any_attrs = true;
    PutVarint64(&attrs, dict.Index(e.key));
    if (!HasOptionals(e.type)) continue;
    old_present.push_back(e.old_value.has_value());
    new_present.push_back(e.new_value.has_value());
    if (e.old_value) PutVarint64(&old_idx, dict.Index(*e.old_value));
    if (e.new_value) PutVarint64(&new_idx, dict.Index(*e.new_value));
  }
  if (any_attrs) {
    PutBitmap(old_present, &attrs);
    PutBitmap(new_present, &attrs);
    attrs.append(old_idx);
    attrs.append(new_idx);
    std::string dict_payload;
    dict.EncodeTo(&dict_payload);
    AppendBlock(kBlockDict, dict_payload, out);
    AppendBlock(kBlockEventAttrs, attrs, out);
  }
}

}  // namespace codec
}  // namespace hgdb
