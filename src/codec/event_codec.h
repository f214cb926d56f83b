#ifndef HISTGRAPH_CODEC_EVENT_CODEC_H_
#define HISTGRAPH_CODEC_EVENT_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "temporal/event.h"

namespace hgdb {
namespace codec {

/// One decoded event together with its global sequence number within the
/// original (full) eventlist, so component blobs merge back in order.
struct SeqEvent {
  uint64_t seq = 0;
  Event event;
};

/// Serializes the events of `events` whose component intersects `mask` as a
/// columnar blob: header (kEventListVersion), then a per-blob string
/// dictionary and SoA columns — sequence numbers and timestamps delta-encoded, op kinds
/// one byte each, ids/endpoints as varint columns, attribute keys and values
/// as dictionary indexes.
void EncodeEventListComponent(const std::vector<Event>& events, ComponentMask mask,
                              std::string* out);

/// Decodes a component blob, appending (seq, event) pairs to `out`. A blob
/// without the magic header is Corruption; one with a version other than
/// kEventListVersion is InvalidArgument.
Status DecodeEventListComponent(const Slice& blob, std::vector<SeqEvent>* out);

}  // namespace codec
}  // namespace hgdb

#endif  // HISTGRAPH_CODEC_EVENT_CODEC_H_
