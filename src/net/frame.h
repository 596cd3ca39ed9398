#ifndef SPITZ_NET_FRAME_H_
#define SPITZ_NET_FRAME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace spitz {

// ---------------------------------------------------------------------------
// The binary wire protocol of the network service layer (DESIGN.md
// section 10). Every message crossing a Spitz TCP connection — request
// or response — is one frame:
//
//   offset  size  field
//   0       4     body_len   fixed32, bytes following this field
//   4       4     crc        masked CRC32C over bytes [8, 4 + body_len)
//   8       4     method     method id (echoed back in the response)
//   12      8     request_id pairs a response with its request (pipelining)
//   20      4     status     Status::Code as u32; 0 (kOk) in requests
//   24      ...   payload    body_len - 20 bytes, method-specific
//
// This is the same framing discipline the durability layer proved out
// for on-disk logs (length prefix + masked CRC32C), applied to the
// socket: a peer can never make the server read past a frame, and a
// flipped bit anywhere in the header-after-crc or payload is detected
// before any byte is interpreted.
//
// Payload convention: responses with status kOk or kNotFound carry the
// method-specific payload (NotFound still carries proof-of-absence
// bytes for proof-bearing methods); every other status carries the
// error message as plain bytes.
// ---------------------------------------------------------------------------

// Frame body bytes before the payload: crc + method + request_id + status.
inline constexpr size_t kFrameHeaderBytes = 4 + 4 + 8 + 4;
// Body bytes covered by the crc: method + request_id + status.
inline constexpr size_t kFrameCrcCoverageOffset = 8;
// Encoded frame bytes before the payload: the length prefix + the header.
inline constexpr size_t kFramePrefixBytes = 4 + kFrameHeaderBytes;

// Completes a frame built in place: `frame` holds kFramePrefixBytes
// reserved bytes followed by the payload. Fills in the length prefix,
// method, request id and status, then the crc over all of them.
void SealFrame(uint32_t method, uint64_t request_id, uint32_t status,
               std::string* frame);

// A frame as it arrived: the payload is a view into `buffer`, the
// frame's own exactly sized buffer, which keeps it alive wherever the
// frame goes.
struct ReceivedFrame {
  uint32_t method = 0;
  uint64_t request_id = 0;
  uint32_t status = 0;  // Status::Code on the wire; 0 in requests
  Slice payload;
  std::shared_ptr<const void> buffer;
};

// Incremental frame parser for one connection's byte stream, which
// puts each frame into its own buffer of exactly its size. A socket
// reader reads into space() and reports the bytes with Commit(); Next()
// then yields complete frames until it reports kNeedMore (read more)
// or kError (the stream is garbage — bad CRC, undersized or oversized
// length prefix — and the connection must be closed; no
// resynchronization is attempted). Until a frame's length prefix has
// arrived, space() is a staging area that takes several small frames
// in one read; once the length is known and within the limit, space()
// is the rest of that frame's own buffer, so a large frame is read
// straight into the buffer it is delivered in.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes);

  FrameDecoder(const FrameDecoder&) = delete;
  FrameDecoder& operator=(const FrameDecoder&) = delete;

  // Where the next read writes, and how many bytes fit there. Call
  // Next() until it stops yielding frames before asking again.
  char* space();
  size_t space_size() const;
  void Commit(size_t n);

  enum class Result { kFrame, kNeedMore, kError };

  // On kFrame fills *out; on kError fills *error (when non-null) with
  // the reason. After kError the decoder is poisoned: every later call
  // reports kError again.
  Result Next(ReceivedFrame* out, std::string* error = nullptr);

  // Bytes read but not yet delivered in a frame (diagnostics/tests).
  size_t buffered_bytes() const {
    return staged_end_ - staged_begin_ + filled_;
  }

 private:
  static constexpr size_t kStagingBytes = 16 << 10;

  Result Fail(const char* reason, std::string* error);
  bool Assembling() const { return body_ != nullptr && filled_ < body_size_; }

  size_t max_body_;
  std::vector<char> staging_;
  size_t staged_begin_ = 0;
  size_t staged_end_ = 0;
  // The frame being assembled: its body (everything after the length
  // prefix), body_size_ bytes, of which filled_ have arrived.
  std::shared_ptr<char[]> body_;
  size_t body_size_ = 0;
  size_t filled_ = 0;
  bool poisoned_ = false;
};

// Status <-> wire code mapping. Every Status::Code value round-trips;
// unknown wire codes decode as Corruption (a peer speaking a newer
// protocol revision is indistinguishable from garbage).
uint32_t WireStatusCode(const Status& status);
Status StatusFromWire(uint32_t code, const Slice& message);

// ---------------------------------------------------------------------------
// Protocol handshake. The first frame each peer sends on a fresh
// connection carries method id 0 — reserved, never a real RPC — with
// this payload:
//
//   offset  size  field
//   0       4     magic    "SPTZ"
//   4       4     version  fixed32 protocol version
//   8       8     features fixed64 feature bitmask
//
// The client sends its handshake immediately after connecting and the
// server replies with its own before serving any RPC. A mismatched
// magic or version earns Status::InvalidArgument (and the connection is
// useless thereafter) instead of undefined decoding of frames whose
// method ids mean something else in the peer's revision. Feature bits
// are advisory: they let a compatible peer discover optional
// capabilities without a version bump.
// ---------------------------------------------------------------------------

// Reserved method id carrying handshakes (real RPC methods start at 1).
inline constexpr uint32_t kHandshakeMethod = 0;
// v1: the PR 5 single-node protocol (methods 1-8, implicit — no
// handshake frame existed). v2: handshake + cluster methods (2PC,
// pinned-root proofs, cluster digest). v3: primary-backup replication
// (kReplicate/kReplicaAck/kReplicaStatus). The cluster digest envelope
// is evidence a client makes, never a frame, so no version covers it.
// v4: a kWrite/kTxnPrepare batch may carry a read set,
// and every request must be consumed exactly (no trailing bytes). v5:
// the block bytes a kReplicate record ships store their entries in the
// compact form (shared key prefixes, delta timestamps).
inline constexpr uint32_t kProtocolVersion = 5;
inline constexpr char kHandshakeMagic[4] = {'S', 'P', 'T', 'Z'};

// Feature bits advertised in the handshake.
inline constexpr uint64_t kFeatureVerifiedKv = 1ull << 0;
inline constexpr uint64_t kFeatureTwoPhaseCommit = 1ull << 1;
inline constexpr uint64_t kFeatureClusterDigest = 1ull << 2;
// The peer serves the replication surface (a SpitzServer wired to a
// BackupReplica). A Replicator refuses to stream at a peer that does
// not advertise this bit.
inline constexpr uint64_t kFeatureReplication = 1ull << 3;
inline constexpr uint64_t kDefaultFeatures =
    kFeatureVerifiedKv | kFeatureTwoPhaseCommit | kFeatureClusterDigest;

struct Handshake {
  uint32_t protocol_version = kProtocolVersion;
  uint64_t features = kDefaultFeatures;

  void EncodeTo(std::string* out) const;
  // InvalidArgument on a wrong magic, a short payload or bytes after
  // it: the peer is not a Spitz endpoint (or predates the handshake)
  // and nothing else it sends can be trusted to decode.
  static Status DecodeFrom(Slice input, Handshake* out);
};

// Validates a decoded peer handshake against this build's protocol:
// InvalidArgument on a version mismatch, OK otherwise.
Status CheckHandshake(const Handshake& peer);

}  // namespace spitz

#endif  // SPITZ_NET_FRAME_H_
