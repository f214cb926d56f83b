#ifndef HISTGRAPH_CODEC_FORMAT_H_
#define HISTGRAPH_CODEC_FORMAT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/coding.h"
#include "common/interner.h"
#include "common/slice.h"
#include "common/status.h"

namespace hgdb {
namespace codec {

/// \brief Versioned columnar block format for delta / eventlist / skeleton
/// blobs.
///
/// Every blob starts with a 4-byte header (3 magic bytes + version), then a
/// sequence of framed column blocks:
///
///   [tag|flags : 1][varint stored_len][payload : stored_len]
///
/// The low 7 tag bits identify the column block; the high bit marks an
/// LZ-compressed payload (prefixed by a varint uncompressed length). Readers
/// skip blocks with unknown tags by their length, so a later build can add
/// columns without changing the version. Each blob kind has exactly one
/// version this build writes and reads; a blob without the magic, or with
/// another version byte, is rejected (see README.md for the full spec).

/// Magic prefix of every blob.
inline constexpr char kMagic[3] = {'\xd1', '\x47', '\xc5'};
/// Header version of delta component blobs.
inline constexpr uint8_t kDeltaVersion = 1;
/// Header version of eventlist component blobs. Version 2 rebased the id
/// block (kBlockEventIds) against per-column minima with invalid-id sentinels
/// mapped to 0, so a sentinel costs one varint byte instead of ten (see
/// event_codec.cc).
inline constexpr uint8_t kEventListVersion = 2;
/// Header version of skeleton blobs.
inline constexpr uint8_t kSkeletonVersion = 1;
/// Index-level format recorded under the `m/format` meta key. `Open`
/// accepts exactly this value.
inline constexpr unsigned kIndexFormat = 2;

/// Column block tags (low 7 bits of the frame's first byte).
enum BlockTag : uint8_t {
  kBlockDict = 1,       ///< Per-blob string dictionary.
  kBlockNodeAdds = 2,   ///< Delta: added node ids.
  kBlockNodeDels = 3,   ///< Delta: deleted node ids.
  kBlockEdgeAdds = 4,   ///< Delta: added edges (id/src/dst/directed columns).
  kBlockEdgeDels = 5,   ///< Delta: deleted edges.
  kBlockAttrAdds = 6,   ///< Delta: added attribute entries.
  kBlockAttrDels = 7,   ///< Delta: deleted attribute entries.
  kBlockEventMeta = 8,  ///< EventList: seq / time / op-kind columns.
  kBlockEventIds = 9,   ///< EventList: node / edge / src / dst / directed columns.
  kBlockEventAttrs = 10,  ///< EventList: key / old / new dictionary-id columns.
  kBlockSkelNodes = 11,   ///< Skeleton: level/flags/hierarchy/time/size columns.
  kBlockSkelEdges = 12,   ///< Skeleton: from/to/flags/delta-id/sizes columns.
  kBlockSkelMeta = 13,    ///< Skeleton: super-root pointer.
};
inline constexpr uint8_t kBlockTagMask = 0x7f;
inline constexpr uint8_t kBlockCompressedBit = 0x80;

/// Column payloads at least this large are attempted through the LZ codec
/// and stored compressed when that shrinks them. (The KV layer stores codec
/// blobs as-is — see CompressValue — so this is the only compression pass.)
inline constexpr size_t kCompressMinBytes = 64;

/// Appends the header (magic + version byte).
void PutHeader(std::string* out, uint8_t version);

/// Consumes the header. A missing magic is Corruption; a version byte other
/// than `version` is InvalidArgument.
Status ParseHeader(Slice* in, uint8_t version);

/// Appends one framed block, compressing the payload when profitable.
void AppendBlock(uint8_t tag, const Slice& payload, std::string* out);

/// \brief Iterates the framed blocks of a blob body (post-header).
///
/// Decompressed payloads are owned by the reader; returned slices stay valid
/// for the reader's lifetime. Unknown tags are returned to the caller, which
/// may skip them (forward compatibility).
class BlockReader {
 public:
  BlockReader() = default;
  explicit BlockReader(Slice body) : in_(body) {}

  /// Advances to the next block. Sets `*done` at a clean end of input;
  /// returns Corruption for a torn frame or an undecodable payload.
  Status Next(uint8_t* tag, Slice* payload, bool* done);

 private:
  Slice in_;
  // deque: growth never moves existing elements, so payload slices into
  // decompressed scratch buffers stay valid as more blocks are read.
  std::deque<std::string> scratch_;
};

/// Parses the header of `blob` against `version` (see ParseHeader) and reads
/// every block into a tag -> payload map. Duplicate tags are corruption. The
/// reader owning decompressed payloads is `*reader`, which must outlive any
/// use of the returned slices.
Status ReadBlocks(const Slice& blob, uint8_t version, BlockReader* reader,
                  std::unordered_map<uint8_t, Slice>* blocks);

// -- Per-blob string dictionary ----------------------------------------------
//
// Attribute keys/values (and transient payloads) repeat heavily within one
// blob; the dictionary stores each distinct string once, in first-appearance
// order, and the entry columns store small dictionary indexes. Decoding
// resolves (and interns) each distinct string once per blob instead of once
// per element. Because indexes are assigned by appearance order, the encoded
// bytes are independent of the process-local interning order.

class DictBuilder {
 public:
  /// Returns the dictionary index of `s`, adding it on first sight. The view
  /// must stay valid until EncodeTo (interner strings and event fields both
  /// outlive the encode call).
  uint32_t Index(std::string_view s) {
    auto [it, inserted] = map_.try_emplace(s, static_cast<uint32_t>(strings_.size()));
    if (inserted) strings_.push_back(s);
    return it->second;
  }

  bool empty() const { return strings_.empty(); }

  /// Serializes the dictionary payload: varint count + length-prefixed bytes.
  void EncodeTo(std::string* out) const;

 private:
  std::vector<std::string_view> strings_;
  std::unordered_map<std::string_view, uint32_t> map_;
};

class DictView {
 public:
  /// Parses a dictionary block payload; entries are slices into it.
  Status Parse(Slice payload);

  size_t size() const { return entries_.size(); }

  /// Bounds-checked entry access. Takes the full decoded varint so an index
  /// that only aliases a valid entry modulo 2^32 is rejected, not resolved.
  Status At(uint64_t idx, Slice* out) const {
    if (idx >= entries_.size()) return Status::Corruption("codec: dict index out of range");
    *out = entries_[static_cast<size_t>(idx)];
    return Status::OK();
  }

  /// Bounds-checked interned id of entry `idx` (cached: each distinct string
  /// is interned at most once per blob).
  Status InternAt(uint64_t idx, AttrId* out) {
    if (idx >= entries_.size()) return Status::Corruption("codec: dict index out of range");
    AttrId& id = ids_[static_cast<size_t>(idx)];
    if (id == kInvalidAttrId) id = InternAttr(entries_[static_cast<size_t>(idx)].ToView());
    *out = id;
    return Status::OK();
  }

 private:
  std::vector<Slice> entries_;
  std::vector<AttrId> ids_;  // kInvalidAttrId = not interned yet.
};

// -- Column primitives --------------------------------------------------------

/// Appends `ids` as varint count + ascending-delta varints (canonical order
/// makes consecutive ids close, so deltas stay short). Works for any
/// non-decreasing sequence; strictly unsorted inputs still round-trip because
/// deltas are encoded as unsigned wrapping differences.
void PutDeltaVarints(const std::vector<uint64_t>& ids, std::string* out);

/// Reads a PutDeltaVarints column. `what` names the column in errors.
Status GetDeltaVarints(Slice* in, std::vector<uint64_t>* ids, const char* what);

/// Appends a bitmap of `bits` (ceil(n/8) bytes, LSB-first).
void PutBitmap(const std::vector<bool>& bits, std::string* out);

/// Reads `count` bits appended by PutBitmap.
Status GetBitmap(Slice* in, size_t count, std::vector<bool>* bits, const char* what);

}  // namespace codec
}  // namespace hgdb

#endif  // HISTGRAPH_CODEC_FORMAT_H_
