#include "net/frame.h"

#include <algorithm>
#include <cstring>

#include "common/codec.h"
#include "common/crc32c.h"

namespace spitz {

namespace {

// The crc of a frame body: everything after the crc field.
uint32_t BodyCrc(const char* body, size_t body_len) {
  return crc32c::Value(body + 4, body_len - 4);
}

}  // namespace

void SealFrame(uint32_t method, uint64_t request_id, uint32_t status,
               std::string* frame) {
  char* p = frame->data();
  const size_t body_len = frame->size() - 4;
  EncodeFixed32(p, static_cast<uint32_t>(body_len));
  EncodeFixed32(p + 8, method);
  EncodeFixed64(p + 12, request_id);
  EncodeFixed32(p + 20, status);
  EncodeFixed32(p + 4, crc32c::Mask(BodyCrc(p + 4, body_len)));
}

FrameDecoder::FrameDecoder(size_t max_frame_bytes)
    : max_body_(max_frame_bytes), staging_(kStagingBytes) {}

// While a frame's body is partly read, the staging area is empty: every
// staged byte went into the body when its length became known.
char* FrameDecoder::space() {
  if (Assembling()) return body_.get() + filled_;
  // Move a partial frame's first bytes to the front so the read can
  // complete them.
  if (staged_begin_ > 0) {
    std::memmove(staging_.data(), staging_.data() + staged_begin_,
                 staged_end_ - staged_begin_);
    staged_end_ -= staged_begin_;
    staged_begin_ = 0;
  }
  return staging_.data() + staged_end_;
}

size_t FrameDecoder::space_size() const {
  if (Assembling()) return body_size_ - filled_;
  return staging_.size() - (staged_end_ - staged_begin_);
}

void FrameDecoder::Commit(size_t n) {
  if (Assembling()) {
    filled_ += n;
  } else {
    staged_end_ += n;
  }
}

FrameDecoder::Result FrameDecoder::Fail(const char* reason,
                                       std::string* error) {
  poisoned_ = true;
  if (error != nullptr) *error = reason;
  return Result::kError;
}

FrameDecoder::Result FrameDecoder::Next(ReceivedFrame* out,
                                       std::string* error) {
  if (poisoned_) return Fail("decoder poisoned by earlier error", error);
  if (body_ == nullptr) {
    if (staged_end_ - staged_begin_ < 4) return Result::kNeedMore;
    const uint32_t body_len = DecodeFixed32(staging_.data() + staged_begin_);
    if (body_len < kFrameHeaderBytes) {
      return Fail("frame length below header size", error);
    }
    if (body_len > max_body_) {
      return Fail("frame exceeds max frame size", error);
    }
    staged_begin_ += 4;
    body_ = std::make_shared_for_overwrite<char[]>(body_len);
    body_size_ = body_len;
    filled_ = std::min<size_t>(body_len, staged_end_ - staged_begin_);
    std::memcpy(body_.get(), staging_.data() + staged_begin_, filled_);
    staged_begin_ += filled_;
  }
  if (filled_ < body_size_) return Result::kNeedMore;
  const char* body = body_.get();
  if (crc32c::Unmask(DecodeFixed32(body)) != BodyCrc(body, body_size_)) {
    return Fail("frame crc mismatch", error);
  }
  out->method = DecodeFixed32(body + 4);
  out->request_id = DecodeFixed64(body + 8);
  out->status = DecodeFixed32(body + 16);
  out->payload =
      Slice(body + kFrameHeaderBytes, body_size_ - kFrameHeaderBytes);
  out->buffer = std::move(body_);
  body_ = nullptr;
  filled_ = 0;
  return Result::kFrame;
}

void Handshake::EncodeTo(std::string* out) const {
  out->append(kHandshakeMagic, sizeof(kHandshakeMagic));
  PutFixed32(out, protocol_version);
  PutFixed64(out, features);
}

Status Handshake::DecodeFrom(Slice input, Handshake* out) {
  const Slice magic(kHandshakeMagic, sizeof(kHandshakeMagic));
  if (!input.starts_with(magic)) {
    return Status::InvalidArgument("peer is not a spitz endpoint (bad magic)");
  }
  input.remove_prefix(magic.size());
  Status s = GetFixed32(&input, &out->protocol_version);
  if (s.ok()) s = GetFixed64(&input, &out->features);
  if (s.ok()) s = CheckConsumed(input, "handshake");
  if (s.ok()) return s;
  return Status::InvalidArgument("bad handshake: " + s.message());
}

Status CheckHandshake(const Handshake& peer) {
  if (peer.protocol_version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: peer speaks v" +
        std::to_string(peer.protocol_version) + ", this build speaks v" +
        std::to_string(kProtocolVersion));
  }
  return Status::OK();
}

uint32_t WireStatusCode(const Status& status) {
  return static_cast<uint32_t>(status.code());
}

Status StatusFromWire(uint32_t code, const Slice& message) {
  if (code == static_cast<uint32_t>(Status::Code::kOk)) return Status::OK();
  if (code > static_cast<uint32_t>(Status::Code::kUnavailable)) {
    return Status::Corruption("unknown wire status code");
  }
  return Status::FromCode(static_cast<Status::Code>(code), message.ToString());
}

}  // namespace spitz
