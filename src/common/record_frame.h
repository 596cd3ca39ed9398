#ifndef SPITZ_COMMON_RECORD_FRAME_H_
#define SPITZ_COMMON_RECORD_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/slice.h"
#include "common/status.h"

namespace spitz {

// The one record frame of every append-only log (journal.log, txn.log):
// lp(payload) ‖ masked crc32c(payload).
inline void AppendRecordFrame(const Slice& payload, std::string* out) {
  PutLengthPrefixedSlice(out, payload);
  PutFixed32(out, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
}

// Bytes AppendRecordFrame adds for a payload of `payload_bytes`.
inline uint64_t RecordFrameSize(uint64_t payload_bytes) {
  return VarintLength(payload_bytes) + payload_bytes + sizeof(uint32_t);
}

// Splits a log's `contents` into the payloads of its complete frames.
// Reading stops at a torn frame (a crash mid-append); *consumed is the
// end offset of the last complete one. A complete frame whose CRC does
// not match is bad bytes, not a crash: Corruption naming `path`.
inline Status ReadRecordFrames(const Slice& contents, const std::string& path,
                               std::vector<Slice>* payloads,
                               uint64_t* consumed) {
  Slice input = contents;
  while (!input.empty()) {
    Slice payload;
    Slice rest = input;
    if (!GetLengthPrefixedSlice(&rest, &payload).ok() ||
        rest.size() < sizeof(uint32_t)) {
      break;
    }
    if (crc32c::Unmask(DecodeFixed32(rest.data())) !=
        crc32c::Value(payload.data(), payload.size())) {
      return Status::Corruption(
          "record CRC mismatch at offset " +
          std::to_string(contents.size() - input.size()) + " in " + path);
    }
    rest.remove_prefix(sizeof(uint32_t));
    payloads->push_back(payload);
    input = rest;
  }
  *consumed = contents.size() - input.size();
  return Status::OK();
}

}  // namespace spitz

#endif  // SPITZ_COMMON_RECORD_FRAME_H_
