#ifndef HISTGRAPH_CODEC_DELTA_CODEC_H_
#define HISTGRAPH_CODEC_DELTA_CODEC_H_

#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "temporal/event.h"

namespace hgdb {

class Delta;

namespace codec {

/// Serializes one component of `d` as a columnar blob: header
/// (kDeltaVersion), then per-column blocks — ids varint-delta-encoded,
/// attribute key/value ids resolved through a per-blob string dictionary.
void EncodeDeltaComponent(const Delta& d, ComponentMask component, std::string* out);

/// Decodes a component blob into `out`, replacing that component's vectors.
/// A blob without the magic header is Corruption; one with a version other
/// than kDeltaVersion is InvalidArgument.
Status DecodeDeltaComponent(ComponentMask component, const Slice& blob, Delta* out);

}  // namespace codec
}  // namespace hgdb

#endif  // HISTGRAPH_CODEC_DELTA_CODEC_H_
