#include "codec/format.h"

#include "kvstore/compression.h"

namespace hgdb {
namespace codec {

void PutHeader(std::string* out, uint8_t version) {
  out->append(kMagic, sizeof(kMagic));
  out->push_back(static_cast<char>(version));
}

Status ParseHeader(Slice* in, uint8_t version) {
  if (in->size() < sizeof(kMagic) + 1) return Status::Corruption("codec: truncated header");
  if (std::memcmp(in->data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("codec: bad magic");
  }
  const auto found = static_cast<uint8_t>((*in)[sizeof(kMagic)]);
  if (found != version) {
    return Status::InvalidArgument("codec: blob has format version " +
                                   std::to_string(found) + "; this build reads only " +
                                   std::to_string(version));
  }
  in->RemovePrefix(sizeof(kMagic) + 1);
  return Status::OK();
}

void AppendBlock(uint8_t tag, const Slice& payload, std::string* out) {
  if (payload.size() >= kCompressMinBytes) {
    std::string lz;
    LzCompress(payload, &lz);  // LzCompress clears its output first.
    std::string packed;
    PutVarint64(&packed, payload.size());
    packed.append(lz);
    if (packed.size() < payload.size()) {
      out->push_back(static_cast<char>(tag | kBlockCompressedBit));
      PutVarint64(out, packed.size());
      out->append(packed);
      return;
    }
  }
  out->push_back(static_cast<char>(tag));
  PutVarint64(out, payload.size());
  out->append(payload.data(), payload.size());
}

Status BlockReader::Next(uint8_t* tag, Slice* payload, bool* done) {
  if (in_.empty()) {
    *done = true;
    return Status::OK();
  }
  *done = false;
  const uint8_t frame = static_cast<uint8_t>(in_[0]);
  in_.RemovePrefix(1);
  uint64_t stored_len = 0;
  if (!GetVarint64(&in_, &stored_len) || stored_len > in_.size()) {
    return Status::Corruption("codec: torn block frame");
  }
  Slice stored(in_.data(), static_cast<size_t>(stored_len));
  in_.RemovePrefix(static_cast<size_t>(stored_len));
  *tag = frame & kBlockTagMask;
  if ((frame & kBlockCompressedBit) == 0) {
    *payload = stored;
    return Status::OK();
  }
  uint64_t raw_len = 0;
  if (!GetVarint64(&stored, &raw_len)) {
    return Status::Corruption("codec: torn compressed block");
  }
  // Bound the claimed size before reserving: the LZ token stream expands at
  // most kMaxMatch (< 512) bytes per token byte, so a corrupt length varint
  // must return Corruption here rather than attempt a multi-GB allocation.
  if (raw_len > stored.size() * 512 + 64) {
    return Status::Corruption("codec: compressed block claims absurd size");
  }
  scratch_.emplace_back();
  HG_RETURN_NOT_OK(LzDecompress(stored, static_cast<size_t>(raw_len), &scratch_.back()));
  *payload = Slice(scratch_.back());
  return Status::OK();
}

Status ReadBlocks(const Slice& blob, uint8_t version, BlockReader* reader,
                  std::unordered_map<uint8_t, Slice>* blocks) {
  Slice in = blob;
  HG_RETURN_NOT_OK(ParseHeader(&in, version));
  *reader = BlockReader(in);
  for (;;) {
    uint8_t tag = 0;
    Slice payload;
    bool done = false;
    HG_RETURN_NOT_OK(reader->Next(&tag, &payload, &done));
    if (done) return Status::OK();
    if (!blocks->emplace(tag, payload).second) {
      return Status::Corruption("codec: duplicate block tag");
    }
  }
}

// -- Dictionary ---------------------------------------------------------------

void DictBuilder::EncodeTo(std::string* out) const {
  PutVarint64(out, strings_.size());
  for (std::string_view s : strings_) {
    PutLengthPrefixedSlice(out, Slice(s));
  }
}

Status DictView::Parse(Slice payload) {
  uint64_t count = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&payload, &count, "codec dict count"));
  if (count > payload.size()) {  // Each entry costs at least its length byte.
    return Status::Corruption("codec: dict count exceeds payload");
  }
  entries_.clear();
  entries_.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Slice s;
    if (!GetLengthPrefixedSlice(&payload, &s)) {
      return Status::Corruption("codec: truncated dict entry");
    }
    entries_.push_back(s);
  }
  if (!payload.empty()) return Status::Corruption("codec: trailing dict bytes");
  ids_.assign(entries_.size(), kInvalidAttrId);
  return Status::OK();
}

// -- Column primitives --------------------------------------------------------

void PutDeltaVarints(const std::vector<uint64_t>& ids, std::string* out) {
  PutVarint64(out, ids.size());
  uint64_t prev = 0;
  for (uint64_t id : ids) {
    PutVarint64(out, id - prev);  // Wrapping difference; decode adds back.
    prev = id;
  }
}

Status GetDeltaVarints(Slice* in, std::vector<uint64_t>* ids, const char* what) {
  uint64_t count = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(in, &count, what));
  if (count > in->size()) {  // Each id costs at least one byte.
    return Status::Corruption(std::string("codec: count exceeds payload for ") + what);
  }
  ids->clear();
  ids->reserve(static_cast<size_t>(count));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gap = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(in, &gap, what));
    prev += gap;
    ids->push_back(prev);
  }
  return Status::OK();
}

void PutBitmap(const std::vector<bool>& bits, std::string* out) {
  uint8_t byte = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) byte |= static_cast<uint8_t>(1u << (i & 7));
    if ((i & 7) == 7) {
      out->push_back(static_cast<char>(byte));
      byte = 0;
    }
  }
  if (bits.size() % 8 != 0) out->push_back(static_cast<char>(byte));
}

Status GetBitmap(Slice* in, size_t count, std::vector<bool>* bits, const char* what) {
  const size_t bytes = (count + 7) / 8;
  if (in->size() < bytes) {
    return Status::Corruption(std::string("codec: truncated bitmap for ") + what);
  }
  bits->assign(count, false);
  for (size_t i = 0; i < count; ++i) {
    (*bits)[i] = ((*in)[i >> 3] >> (i & 7)) & 1;
  }
  in->RemovePrefix(bytes);
  return Status::OK();
}

}  // namespace codec
}  // namespace hgdb
