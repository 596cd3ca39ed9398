// Tests for the network service layer (DESIGN.md section 10): the
// frame codec, the generic NetServer/NetClient transport, the typed
// SpitzServer/SpitzClient pair, and — in the style of siri_proof_test —
// wire-protocol fuzzing: truncated frames, garbage bytes, bad CRCs,
// oversized length prefixes and half-closed sockets must produce a
// protocol error or a clean close, never a crash, and the server must
// keep serving fresh connections afterwards.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "chunk/chunk_store.h"
#include "cluster/local_fleet.h"
#include "common/clock.h"
#include "common/codec.h"
#include "common/random.h"
#include "core/spitz_db.h"
#include "index/mbt.h"
#include "index/mpt.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"
#include "net/spitz_wire.h"
#include "replica/record.h"

namespace spitz {
namespace {

// --- Frame codec ------------------------------------------------------------

// The bytes of one frame, sealed in place.
std::string SealedFrame(uint32_t method, uint64_t id, uint32_t status,
                        const std::string& payload) {
  std::string frame(kFramePrefixBytes, '\0');
  frame.append(payload);
  SealFrame(method, id, status, &frame);
  return frame;
}

// Copies `bytes` into the decoder's read window as one socket read
// would; they must fit in it.
void ReadOnce(FrameDecoder* decoder, Slice bytes) {
  ASSERT_LE(bytes.size(), decoder->space_size());
  std::memcpy(decoder->space(), bytes.data(), bytes.size());
  decoder->Commit(bytes.size());
}

TEST(NetFrameTest, RoundTrips) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string(1000, 'p'),
        std::string("\x00\xff\x01", 3)}) {
    std::string wire = SealedFrame(7, 42, 3, payload);
    EXPECT_EQ(wire.size(), 4 + kFrameHeaderBytes + payload.size());

    FrameDecoder decoder(1 << 20);
    ReadOnce(&decoder, wire);
    ReceivedFrame out;
    ASSERT_EQ(decoder.Next(&out), FrameDecoder::Result::kFrame);
    EXPECT_EQ(out.method, 7u);
    EXPECT_EQ(out.request_id, 42u);
    EXPECT_EQ(out.status, 3u);
    EXPECT_EQ(out.payload.ToString(), payload);
    EXPECT_EQ(decoder.Next(&out), FrameDecoder::Result::kNeedMore);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(NetFrameTest, ByteAtATimeFeedAndBackToBackFrames) {
  std::string wire =
      SealedFrame(1, 1, 0, "first") + SealedFrame(2, 2, 0, "second");

  FrameDecoder decoder(1 << 20);
  std::vector<ReceivedFrame> got;
  for (char c : wire) {
    ReadOnce(&decoder, Slice(&c, 1));
    ReceivedFrame f;
    while (decoder.Next(&f) == FrameDecoder::Result::kFrame) {
      got.push_back(f);
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload.ToString(), "first");
  EXPECT_EQ(got[1].payload.ToString(), "second");
}

TEST(NetFrameTest, EverySingleByteTamperIsRejectedOrChangesNothing) {
  std::string wire = SealedFrame(3, 9, 0, "payload-bytes");
  for (size_t i = 0; i < wire.size(); i++) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    FrameDecoder decoder(1 << 20);
    ReadOnce(&decoder, bad);
    ReceivedFrame f;
    std::string error;
    FrameDecoder::Result r = decoder.Next(&f, &error);
    if (i < 4) {
      // A flipped length prefix either lies short (undersized /
      // CRC-mismatched now that the boundary moved) or lies long
      // (kNeedMore or oversized); it can never yield the original
      // frame.
      EXPECT_NE(r, FrameDecoder::Result::kFrame) << "byte " << i;
    } else {
      // Any flip under the CRC must be caught.
      EXPECT_EQ(r, FrameDecoder::Result::kError) << "byte " << i;
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(NetFrameTest, TruncationNeverYieldsAFrame) {
  std::string wire = SealedFrame(3, 9, 0, "payload-bytes");
  for (size_t len = 0; len < wire.size(); len++) {
    FrameDecoder decoder(1 << 20);
    ReadOnce(&decoder, Slice(wire.data(), len));
    ReceivedFrame f;
    EXPECT_EQ(decoder.Next(&f), FrameDecoder::Result::kNeedMore)
        << "prefix " << len;
  }
}

TEST(NetFrameTest, OversizedAndUndersizedLengthPrefixAreErrors) {
  // Oversized: length prefix beyond the decoder's limit.
  std::string wire;
  PutFixed32(&wire, 1 << 20);
  FrameDecoder small(4096);
  ReadOnce(&small, wire);
  ReceivedFrame f;
  std::string error;
  EXPECT_EQ(small.Next(&f, &error), FrameDecoder::Result::kError);
  EXPECT_FALSE(error.empty());

  // Undersized: body shorter than the fixed header.
  std::string tiny;
  PutFixed32(&tiny, kFrameHeaderBytes - 5);
  FrameDecoder decoder(4096);
  ReadOnce(&decoder, tiny);
  EXPECT_EQ(decoder.Next(&f), FrameDecoder::Result::kError);
}

TEST(NetFrameTest, PoisonedAfterError) {
  std::string bad;
  PutFixed32(&bad, 1);  // undersized body
  std::string good = SealedFrame(1, 1, 0, "ok");

  FrameDecoder decoder(4096);
  ReadOnce(&decoder, bad);
  ReceivedFrame f;
  ASSERT_EQ(decoder.Next(&f), FrameDecoder::Result::kError);
  ReadOnce(&decoder, good);
  EXPECT_EQ(decoder.Next(&f), FrameDecoder::Result::kError)
      << "decoder must not resynchronize after an error";
}

// Feeds `bytes` to a decoder through its read window, at most `chunk`
// bytes at a time as a socket read would, and collects every frame that
// completes.
void ReadInto(FrameDecoder* decoder, const std::string& bytes, size_t chunk,
              std::vector<ReceivedFrame>* frames) {
  for (size_t fed = 0; fed < bytes.size();) {
    const size_t step =
        std::min({chunk, bytes.size() - fed, decoder->space_size()});
    std::memcpy(decoder->space(), bytes.data() + fed, step);
    decoder->Commit(step);
    fed += step;
    ReceivedFrame f;
    while (decoder->Next(&f) == FrameDecoder::Result::kFrame) {
      frames->push_back(std::move(f));
    }
  }
}

// Each frame lands in its own buffer whatever the read sizes, small
// frames staged and large ones read in place, and the payloads stay
// valid after the decoder is gone.
TEST(NetFrameTest, EachFrameIsReadIntoItsOwnBuffer) {
  const std::vector<std::string> payloads = {
      "first", "", std::string(100 << 10, 'L'), "after-large",
      std::string(20 << 10, 'M')};
  std::string wire;
  for (size_t i = 0; i < payloads.size(); i++) {
    wire += SealedFrame(4, i + 1, 0, payloads[i]);
  }
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{4096}, size_t{1} << 20}) {
    SCOPED_TRACE(chunk);
    std::vector<ReceivedFrame> frames;
    {
      FrameDecoder decoder(1 << 20);
      ReadInto(&decoder, wire, chunk, &frames);
      EXPECT_EQ(decoder.buffered_bytes(), 0u);
    }
    ASSERT_EQ(frames.size(), payloads.size());
    for (size_t i = 0; i < frames.size(); i++) {
      EXPECT_EQ(frames[i].request_id, i + 1);
      EXPECT_EQ(frames[i].payload.ToString(), payloads[i]);
      EXPECT_EQ(frames[i].payload.data(),
                static_cast<const char*>(frames[i].buffer.get()) +
                    kFrameHeaderBytes);
    }
  }
}

TEST(NetFrameTest, StatusCodesRoundTripTheWire) {
  const Status statuses[] = {
      Status::OK(),           Status::NotFound("nf"),
      Status::Corruption("c"), Status::InvalidArgument("ia"),
      Status::IOError("io"),  Status::Aborted("a"),
      Status::Busy("b"),      Status::NotSupported("ns"),
      Status::VerificationFailed("vf"), Status::TimedOut("to"),
      Status::Unavailable("u")};
  for (const Status& s : statuses) {
    Status back = StatusFromWire(WireStatusCode(s), Slice("msg"));
    EXPECT_EQ(WireStatusCode(back), WireStatusCode(s)) << s.ToString();
  }
  // Unknown wire codes decode as corruption, not as silent OK.
  EXPECT_TRUE(StatusFromWire(0xdeadbeef, Slice("x")).IsCorruption());
}

// --- Shared payload fragments ----------------------------------------------

TEST(NetWireTest, DigestRoundTrips) {
  SpitzDb db;
  ASSERT_TRUE(db.Put("k", "v").ok());
  db.FlushBlock();
  SpitzDigest digest = db.Digest();

  std::string wire;
  digest.EncodeTo(&wire);
  SpitzDigest out;
  Slice input(wire);
  ASSERT_TRUE(SpitzDigest::DecodeFrom(&input, &out).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(out.index_root, digest.index_root);
  EXPECT_EQ(out.journal.block_count, digest.journal.block_count);
  EXPECT_EQ(out.journal.entry_count, digest.journal.entry_count);
  EXPECT_EQ(out.journal.tip_hash, digest.journal.tip_hash);
  EXPECT_EQ(out.journal.merkle_root, digest.journal.merkle_root);
  EXPECT_EQ(out.last_commit_ts, digest.last_commit_ts);
}

TEST(NetWireTest, RowsRoundTripAndRejectTruncation) {
  std::vector<PosEntry> rows = {{"a", "1"}, {"bb", "22"}, {"ccc", ""}};
  std::string wire;
  PutEntryList(&wire, rows);

  std::vector<PosEntry> out;
  Slice input(wire);
  ASSERT_TRUE(GetEntryList(&input, &out).ok());
  ASSERT_EQ(out.size(), rows.size());
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(out[i].key, rows[i].key);
    EXPECT_EQ(out[i].value, rows[i].value);
  }

  for (size_t len = 0; len < wire.size(); len++) {
    Slice truncated(wire.data(), len);
    std::vector<PosEntry> ignored;
    EXPECT_FALSE(GetEntryList(&truncated, &ignored).ok())
        << "prefix " << len;
  }
  // A huge claimed row count must fail cleanly, not allocate.
  std::string huge;
  PutVarint64(&huge, 1ull << 40);
  Slice huge_input(huge);
  std::vector<PosEntry> ignored;
  EXPECT_FALSE(GetEntryList(&huge_input, &ignored).ok());
}

// --- Generic transport: NetServer + NetClient -------------------------------

Status EchoHandler(uint32_t method, const std::string& request,
                   std::string* response) {
  if (method == 99) return Status::InvalidArgument("rejected: " + request);
  if (method == 98) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  response->append(request);
  return Status::OK();
}

std::unique_ptr<NetServer> StartEchoServer(NetServer::Options options = {}) {
  std::unique_ptr<NetServer> server;
  Status s = NetServer::Start(EchoHandler, options, &server);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return server;
}

std::unique_ptr<NetClient> ConnectTo(uint16_t port) {
  NetClient::Options options;
  options.port = port;
  std::unique_ptr<NetClient> client;
  Status s = NetClient::Connect(options, &client);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return client;
}

TEST(NetRpcTest, CallRoundTripsPayloadAndErrors) {
  auto server = StartEchoServer();
  auto client = ConnectTo(server->port());

  std::string response;
  ASSERT_TRUE(client->Call(1, "hello", &response).ok());
  EXPECT_EQ(response, "hello");

  // Error statuses come back with their message.
  Status s = client->Call(99, "badness", &response);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("badness"), std::string::npos);

  // The connection survives an application error.
  ASSERT_TRUE(client->Call(1, "still works", &response).ok());
  EXPECT_EQ(response, "still works");
  EXPECT_EQ(server->frames_served(), 3u);
}

TEST(NetRpcTest, PipelinedCallsFromManyThreads) {
  auto server = StartEchoServer();
  auto client = ConnectTo(server->port());

  constexpr size_t kThreads = 8, kCallsPerThread = 200;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kCallsPerThread; i++) {
        std::string request = std::to_string(t) + ":" + std::to_string(i);
        std::string response;
        if (!client->Call(1, request, &response).ok() ||
            response != request) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(server->frames_served(), kThreads * kCallsPerThread);
  MetricsSnapshot m = server->Metrics();
  // +1: the connect-time handshake frame rides the same transport but
  // is not an RPC, so it counts in the loop totals only.
  EXPECT_EQ(m.CounterValue("net.frames.rx"), kThreads * kCallsPerThread + 1);
  EXPECT_EQ(m.CounterValue("net.frames.tx"), kThreads * kCallsPerThread + 1);
  EXPECT_EQ(m.CounterValue("net.protocol_errors"), 0u);
}

TEST(NetRpcTest, DeadlineExpiresButSlotIsAbandonedCleanly) {
  auto server = StartEchoServer();
  auto client = ConnectTo(server->port());

  std::string response;
  Status s = client->Call(98, "slow", &response, /*deadline_ms=*/20);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  // The late response is dropped, and the connection keeps working.
  ASSERT_TRUE(client->Call(1, "after timeout", &response, 5000).ok());
  EXPECT_EQ(response, "after timeout");
}

TEST(NetRpcTest, MaxConnectionsRejectsTheOverflowConnection) {
  NetServer::Options options;
  options.loop.max_connections = 1;
  auto server = StartEchoServer(options);
  auto first = ConnectTo(server->port());

  std::string response;
  ASSERT_TRUE(first->Call(1, "one", &response).ok());

  // The second connection is accepted and immediately closed; its
  // calls fail instead of hanging.
  NetClient::Options copts;
  copts.port = server->port();
  copts.connect_attempts = 1;
  std::unique_ptr<NetClient> second;
  if (NetClient::Connect(copts, &second).ok()) {
    EXPECT_FALSE(second->Call(1, "two", &response).ok());
  }
  // The first connection is unaffected.
  ASSERT_TRUE(first->Call(1, "three", &response).ok());
  EXPECT_EQ(server->Metrics().CounterValue("net.server.accept_rejected"), 1u);
}

TEST(NetRpcTest, IdleConnectionsAreSwept) {
  NetServer::Options options;
  options.loop.idle_timeout_ms = 50;
  auto server = StartEchoServer(options);
  auto client = ConnectTo(server->port());

  std::string response;
  ASSERT_TRUE(client->Call(1, "warm", &response).ok());
  // Wait out the idle sweep, then observe the closed connection.
  for (int i = 0; i < 100; i++) {
    if (server->Metrics().CounterValue("net.server.idle_closed") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server->Metrics().CounterValue("net.server.idle_closed"), 1u);
  EXPECT_FALSE(client->Call(1, "too late", &response).ok());
}

TEST(NetRpcTest, ShutdownDrainsInFlightRequests) {
  auto server = StartEchoServer();
  auto client = ConnectTo(server->port());

  std::atomic<bool> ok{false};
  std::thread caller([&] {
    std::string response;
    Status s = client->Call(98, "inflight", &response, 5000);
    ok.store(s.ok() && response == "inflight");
  });
  // Let the request reach the server, then shut down underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Shutdown();
  caller.join();
  EXPECT_TRUE(ok.load()) << "in-flight request must drain through shutdown";

  std::string response;
  EXPECT_FALSE(client->Call(1, "after shutdown", &response).ok());
}

// --- Raw-socket protocol abuse ---------------------------------------------

int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads until EOF or receive timeout; returns everything read.
std::string RecvUntilClosed(int fd) {
  std::string out;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  return out;
}

// One end-to-end sanity probe: a fresh connection must still serve.
void ExpectServerStillServes(uint16_t port) {
  auto client = ConnectTo(port);
  std::string response;
  ASSERT_TRUE(client->Call(1, "probe", &response).ok());
  EXPECT_EQ(response, "probe");
}

TEST(NetFuzzTest, GarbageBytesAreAProtocolErrorAndTheServerSurvives) {
  NetServer::Options options;
  options.loop.max_frame_bytes = 4096;  // random length prefixes overflow
  auto server = StartEchoServer(options);

  Random rng(20260807);
  constexpr int kConnections = 32;
  for (int i = 0; i < kConnections; i++) {
    int fd = RawConnect(server->port());
    std::string garbage;
    size_t len = 1 + rng.Uniform(128);
    for (size_t b = 0; b < len; b++) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    SendAll(fd, garbage);
    ::shutdown(fd, SHUT_WR);
    RecvUntilClosed(fd);  // server must close, not hang or crash
    ::close(fd);
  }
  // Every connection either tripped a protocol error (bad length/CRC)
  // or was cut while the decoder still waited for bytes; no response
  // frame was ever produced from garbage, and the server still serves.
  ExpectServerStillServes(server->port());
  MetricsSnapshot m = server->Metrics();
  EXPECT_GT(m.CounterValue("net.protocol_errors"), 0u);
  EXPECT_EQ(server->frames_served(), 1u);  // only the sanity probe
}

TEST(NetFuzzTest, EverySingleByteTamperOnTheWireIsContained) {
  auto server = StartEchoServer();
  std::string wire = SealedFrame(1, 7, 0, "fuzz-me");

  for (size_t i = 0; i < wire.size(); i++) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    int fd = RawConnect(server->port());
    SendAll(fd, bad);
    ::shutdown(fd, SHUT_WR);
    // Either the server detected the tamper and closed with no
    // response, or the flip only grew the length prefix and the server
    // saw our FIN mid-frame and closed. It must never echo the
    // tampered payload back as a valid kOk frame for request 7.
    std::string response = RecvUntilClosed(fd);
    ::close(fd);
    if (!response.empty()) {
      FrameDecoder decoder(1 << 20);
      ReadOnce(&decoder, response);
      ReceivedFrame f;
      if (decoder.Next(&f) == FrameDecoder::Result::kFrame) {
        EXPECT_FALSE(f.status == 0 && f.request_id == 7 &&
                     f.payload == Slice("fuzz-me"))
            << "tampered byte " << i << " was served as if untouched";
      }
    }
  }
  ExpectServerStillServes(server->port());
}

TEST(NetFuzzTest, TruncatedFrameThenCloseIsHandled) {
  auto server = StartEchoServer();
  std::string wire = SealedFrame(1, 1, 0, "truncated");

  for (size_t len : {size_t(1), size_t(3), size_t(4), size_t(10),
                     wire.size() - 1}) {
    int fd = RawConnect(server->port());
    SendAll(fd, wire.substr(0, len));
    ::shutdown(fd, SHUT_WR);
    std::string response = RecvUntilClosed(fd);
    EXPECT_TRUE(response.empty()) << "prefix " << len;
    ::close(fd);
  }
  ExpectServerStillServes(server->port());
}

TEST(NetFuzzTest, OversizedLengthPrefixClosesImmediately) {
  NetServer::Options options;
  options.loop.max_frame_bytes = 4096;
  auto server = StartEchoServer(options);

  std::string wire;
  PutFixed32(&wire, 64 << 20);  // claims a 64 MiB body
  int fd = RawConnect(server->port());
  SendAll(fd, wire);
  std::string response = RecvUntilClosed(fd);  // closed without the body
  EXPECT_TRUE(response.empty());
  ::close(fd);

  EXPECT_GE(server->Metrics().CounterValue("net.protocol_errors"), 1u);
  ExpectServerStillServes(server->port());
}

TEST(NetFuzzTest, HalfClosedSocketStillReceivesItsResponses) {
  auto server = StartEchoServer();
  std::string wire = SealedFrame(1, 11, 0, "before-fin-1") +
                     SealedFrame(1, 12, 0, "before-fin-2");

  int fd = RawConnect(server->port());
  ASSERT_TRUE(SendAll(fd, wire));
  ::shutdown(fd, SHUT_WR);  // FIN: we will never send another byte

  std::string bytes = RecvUntilClosed(fd);
  ::close(fd);
  FrameDecoder decoder(1 << 20);
  ReadOnce(&decoder, bytes);
  ReceivedFrame f;
  std::vector<ReceivedFrame> responses;
  while (decoder.Next(&f) == FrameDecoder::Result::kFrame) {
    responses.push_back(f);
  }
  ASSERT_EQ(responses.size(), 2u)
      << "both pre-FIN requests must be answered before the close";
  for (const ReceivedFrame& r : responses) {
    EXPECT_EQ(r.status, 0u);
    EXPECT_TRUE(
        (r.request_id == 11 && r.payload == Slice("before-fin-1")) ||
        (r.request_id == 12 && r.payload == Slice("before-fin-2")));
  }
}

// A handler that holds every call until the test opens it.
class HeldHandler {
 public:
  Status Call(uint32_t method, const std::string& request,
              std::string* response) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_++;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    lock.unlock();
    return EchoHandler(method, request, response);
  }
  void AwaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

// With its one dispatcher held in the handler and its one queue slot
// taken, the server answers every further request Busy from the event
// loop, each reply carrying its own request's id and method, and it
// serves normally once the handler is released.
TEST(NetRpcTest, QueueFullRepliesBusyToEachPipelinedRequest) {
  HeldHandler held;
  NetServer::Options options;
  options.dispatcher_count = 1;
  options.queue_depth = 1;
  std::unique_ptr<NetServer> server;
  ASSERT_TRUE(NetServer::Start(
                  [&held](uint32_t method, const std::string& request,
                          std::string* response) {
                    return held.Call(method, request, response);
                  },
                  options, &server)
                  .ok());
  // Opens the handler on every way out, before the server shuts down.
  struct OpenOnExit {
    HeldHandler* held;
    ~OpenOnExit() { held->Open(); }
  } open_on_exit{&held};

  int fd = RawConnect(server->port());
  // Request 1 occupies the dispatcher ...
  ASSERT_TRUE(SendAll(fd, SealedFrame(1, 1, 0, "payload-1")));
  held.AwaitEntered(1);
  // ... request 2 takes the queue slot, and 3..kRequests find it full.
  constexpr uint64_t kRequests = 8;
  std::string pipelined;
  for (uint64_t id = 2; id <= kRequests; id++) {
    pipelined += SealedFrame(static_cast<uint32_t>(id), id, 0,
                             "payload-" + std::to_string(id));
  }
  ASSERT_TRUE(SendAll(fd, pipelined));

  FrameDecoder decoder(1 << 20);
  std::vector<ReceivedFrame> replies;
  bool opened = false;
  while (replies.size() < kRequests) {
    // Every Busy reply arrives while the handler is still held.
    if (!opened && replies.size() == kRequests - 2) {
      held.Open();
      opened = true;
    }
    ssize_t n = ::recv(fd, decoder.space(), decoder.space_size(), 0);
    ASSERT_GT(n, 0) << replies.size() << " replies so far";
    decoder.Commit(static_cast<size_t>(n));
    ReceivedFrame f;
    while (decoder.Next(&f) == FrameDecoder::Result::kFrame) {
      replies.push_back(std::move(f));
    }
  }
  ::close(fd);

  ASSERT_EQ(replies.size(), kRequests);
  std::vector<int> answered(kRequests + 1, 0);
  uint64_t busy = 0;
  for (const ReceivedFrame& r : replies) {
    ASSERT_GE(r.request_id, 1u);
    ASSERT_LE(r.request_id, kRequests);
    answered[r.request_id]++;
    EXPECT_EQ(r.method, r.request_id);
    if (r.status == WireStatusCode(Status::Busy())) {
      busy++;
      EXPECT_EQ(r.payload.ToString(), "server overloaded");
    } else {
      EXPECT_EQ(r.status, 0u) << r.request_id;
      EXPECT_EQ(r.payload.ToString(),
                "payload-" + std::to_string(r.request_id));
    }
  }
  for (uint64_t id = 1; id <= kRequests; id++) {
    EXPECT_EQ(answered[id], 1) << "request " << id;
  }
  EXPECT_EQ(busy, kRequests - 2);
  EXPECT_EQ(server->Metrics().CounterValue("net.server.overloaded"), busy);
  ExpectServerStillServes(server->port());
}

// --- The typed pair: SpitzServer + SpitzClient ------------------------------

// One served in-memory node.
struct SpitzFixture {
  std::unique_ptr<LocalFleet> fleet;

  SpitzFixture() {
    Status s = LocalFleet::Open(LocalFleet::Options(), &fleet);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  SpitzServer* server() const { return fleet->server(0); }

  std::unique_ptr<SpitzClient> Client() {
    std::unique_ptr<SpitzClient> client;
    Status s = SpitzClient::Open(fleet->ClientOptions(0), &client);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return client;
  }
};

// Pins the bytes the MPT and MBT backends hash and the rows a
// kScanProof reply leads with, so a codec change that moves any of
// them fails here. A fixed 1k-key dataset; the POS root is pinned by
// PersistenceTest.FormatPinBulkLoadJournalAndFrameMatchGolden.
TEST(FormatPinTest, MptMbtRootsBucketAndScanRowsMatchGolden) {
  const char kGoldenMptRoot[] =
      "944e9e2df720e42eada4be53ab2902fcf067888c286a0da4e10b64cb7e2fd28b";
  const char kGoldenMbtRoot[] =
      "7282e788b44078a6a9e27fe932e7cb543475621d52adf45f4494c2996ffb3e3a";
  const char kGoldenBucket[] =
      "050670696e3337310d7a7a7a7a7a7a7a7a7a7a7a7a7a0570696e34320c79797979"
      "79797979797979790670696e3436390a6a6a6a6a6a6a6a6a6a6a0670696e3636"
      "370a6a6a6a6a6a6a6a6a6a6a0670696e3732340c797979797979797979797979";
  // kScanProof over ["b", "d"): varint(2) lp("bb") lp("bb!")
  // lp("ccc") lp("ccc!"), then the proof and the digest.
  const std::string kGoldenScanRows("\x02\x02" "bb" "\x03" "bb!"
                                    "\x03" "ccc" "\x04" "ccc!");
  auto hex = [](const Slice& bytes) {
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (size_t i = 0; i < bytes.size(); i++) {
      const auto b = static_cast<uint8_t>(bytes[i]);
      out += kDigits[b >> 4];
      out += kDigits[b & 0xf];
    }
    return out;
  };
  ChunkStore store;
  MerklePatriciaTrie mpt(&store);
  MerkleBucketTree mbt(&store);
  Hash256 mpt_root = MerklePatriciaTrie::EmptyRoot();
  Hash256 mbt_root;
  for (int i = 0; i < 1000; i++) {
    const std::string key = "pin" + std::to_string(i * 7919 % 1000);
    const std::string value(1 + i % 13, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(mpt.Put(mpt_root, key, value, &mpt_root).ok());
    ASSERT_TRUE(mbt.Put(mbt_root, key, value, &mbt_root).ok());
  }
  EXPECT_EQ(mpt_root.ToHex(), kGoldenMptRoot);
  EXPECT_EQ(mbt_root.ToHex(), kGoldenMbtRoot);
  std::string value;
  MbtProof proof;
  ASSERT_TRUE(mbt.Get(mbt_root, "pin42", &value, &proof).ok());
  EXPECT_EQ(hex(proof.bucket.payload), kGoldenBucket);

  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(LocalFleet::Options(), &fleet).ok());
  for (const char* key : {"a", "bb", "ccc", "dddd"}) {
    ASSERT_TRUE(fleet->db(0)->Put(key, std::string(key) + "!").ok());
  }
  std::unique_ptr<NetClient> client;
  ASSERT_TRUE(NetClient::Connect(fleet->ClientOptions(0).net, &client).ok());
  std::string request, response;
  PutLengthPrefixedSlice(&request, "b");
  PutLengthPrefixedSlice(&request, "d");
  PutVarint64(&request, 0);
  ASSERT_TRUE(client->Call(wire::kScanProof, request, &response).ok());
  EXPECT_EQ(response.substr(0, kGoldenScanRows.size()), kGoldenScanRows);
}

TEST(NetSpitzTest, PutGetDeleteRoundTrip) {
  SpitzFixture fx;
  auto client = fx.Client();

  ASSERT_TRUE(client->Put("alpha", "1").ok());
  ASSERT_TRUE(client->Put("beta", "2").ok());
  std::string value;
  ASSERT_TRUE(client->Get("alpha", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(client->Delete("alpha").ok());
  EXPECT_TRUE(client->Get("alpha", &value).IsNotFound());
  ASSERT_TRUE(client->Get("beta", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST(NetSpitzTest, ProofsVerifyLocallyAgainstTheWireDigest) {
  SpitzFixture fx;
  auto client = fx.Client();
  for (int i = 0; i < 50; i++) {
    std::string k = "key" + std::to_string(i);
    ASSERT_TRUE(client->Put(k, "value" + std::to_string(i)).ok());
  }

  // VerifiedGet runs VerifyRead client-side before returning.
  std::string value;
  ASSERT_TRUE(client->VerifiedGet("key7", &value).ok());
  EXPECT_EQ(value, "value7");

  // The raw evidence verifies with the same static verifier a local
  // embedder would use.
  SpitzClient::ProofResult pr;
  ASSERT_TRUE(client->GetProof("key7", &pr).ok());
  ASSERT_TRUE(pr.value.has_value());
  EXPECT_EQ(*pr.value, "value7");
  EXPECT_TRUE(
      VerifyRead(pr.digest, "key7", *pr.value, pr.proof).ok());
  // ...and refuses a wrong binding.
  EXPECT_FALSE(
      VerifyRead(pr.digest, "key7", std::string("forged"), pr.proof)
          .ok());
}

TEST(NetSpitzTest, NotFoundCarriesAProofOfAbsence) {
  SpitzFixture fx;
  auto client = fx.Client();
  ASSERT_TRUE(client->Put("present", "here").ok());

  SpitzClient::ProofResult pr;
  Status s = client->GetProof("absent", &pr);
  ASSERT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_FALSE(pr.value.has_value());
  EXPECT_TRUE(
      VerifyRead(pr.digest, "absent", std::nullopt, pr.proof).ok());

  std::string value = "sentinel";
  EXPECT_TRUE(client->VerifiedGet("absent", &value).IsNotFound());
}

// A decoded proof views the frame buffer its reply arrived in and keeps
// that buffer alive: it still verifies once the call, its client and
// the whole fleet are gone. Under AddressSanitizer a view that outlived
// its bytes fails here.
TEST(NetSpitzTest, DecodedProofsOutliveTheCallAndTheConnection) {
  SpitzClient::ProofResult point;
  SpitzDigest digest;
  ReadProof pinned;
  std::optional<std::string> pinned_value;
  std::vector<PosEntry> rows;
  ScanProof range;
  {
    SpitzFixture fx;
    auto client = fx.Client();
    for (int i = 0; i < 300; i++) {
      char key[16];
      snprintf(key, sizeof(key), "k%03d", i);
      ASSERT_TRUE(client->Put(key, "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(client->GetProof("k042", &point).ok());
    ASSERT_TRUE(client->Digest(&digest).ok());
    ASSERT_TRUE(client
                    ->GetProofAt(digest.index_root, "k123", &pinned_value,
                                 &pinned)
                    .ok());
    ASSERT_TRUE(client
                    ->ScanProofAt(digest.index_root, "k100", "k200", 0,
                                  &rows, &range)
                    .ok());
  }
  ASSERT_TRUE(point.value.has_value());
  EXPECT_TRUE(
      VerifyRead(point.digest, "k042", point.value, point.proof)
          .ok());
  EXPECT_TRUE(
      VerifyRead(digest, "k123", pinned_value, pinned).ok());
  EXPECT_EQ(pinned_value, std::optional<std::string>("v123"));
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_TRUE(VerifyScan(digest, "k100", "k200", 0, rows, range).ok());
}

TEST(NetSpitzTest, VerifiedScanChecksTheRangeProof) {
  SpitzFixture fx;
  auto client = fx.Client();
  for (int i = 0; i < 40; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(client->Put(key, "v" + std::to_string(i)).ok());
  }

  std::vector<PosEntry> rows;
  ASSERT_TRUE(client->Scan("k010", "k020", 100, &rows).ok());
  EXPECT_EQ(rows.size(), 10u);

  rows.clear();
  ASSERT_TRUE(client->VerifiedScan("k010", "k020", 100, &rows).ok());
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().key, "k010");
  EXPECT_EQ(rows.front().value, "v10");
}

TEST(NetSpitzTest, EvidenceVerifiesAndEveryTamperIsRejected) {
  SpitzFixture fx;
  auto client = fx.Client();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        client->Put("ev-" + std::to_string(100 + i), "v" + std::to_string(i))
            .ok());
  }
  VerifiedKv::Evidence evidence;
  ASSERT_TRUE(client->GetProof("ev-107", &evidence).ok());
  ASSERT_TRUE(evidence.value.has_value());
  ASSERT_TRUE(VerifyGetEvidence("ev-107", evidence).ok());
  VerifiedKv::Evidence absent;
  ASSERT_TRUE(client->GetProof("ev-never", &absent).IsNotFound());
  EXPECT_TRUE(VerifyGetEvidence("ev-never", absent).ok());

  // A read's claim binds the value, the proof and the digest's index
  // root (its first Hash256::kSize bytes); the digest's journal fields
  // are checked by consistency proofs, not by read evidence. No flipped
  // byte of the claim may verify.
  std::string root_bytes = evidence.digest.substr(0, Hash256::kSize);
  auto flip_every_byte = [](std::string* field, const auto& verifies) {
    for (size_t i = 0; i < field->size(); i++) {
      const char original = (*field)[i];
      (*field)[i] = static_cast<char>(original ^ 0x2d);
      EXPECT_FALSE(verifies()) << "tampered byte " << i << " accepted";
      (*field)[i] = original;
    }
  };
  auto get_verifies = [&] {
    VerifiedKv::Evidence forged = evidence;
    forged.digest.replace(0, Hash256::kSize, root_bytes);
    return VerifyGetEvidence("ev-107", forged).ok();
  };
  flip_every_byte(&*evidence.value, get_verifies);
  flip_every_byte(&evidence.proof, get_verifies);
  flip_every_byte(&root_bytes, get_verifies);
  // The key is part of the claim, and absence cannot vouch for presence.
  EXPECT_FALSE(VerifyGetEvidence("ev-108", evidence).ok());
  absent.value = "v7";
  EXPECT_FALSE(VerifyGetEvidence("ev-never", absent).ok());

  VerifiedKv::ScanEvidence scan;
  ASSERT_TRUE(client->ScanProof("ev-", "ev-~", 0, &scan).ok());
  ASSERT_EQ(scan.rows.size(), 20u);
  ASSERT_TRUE(VerifyScanEvidence("ev-", "ev-~", 0, scan).ok());
  VerifiedKv::ScanEvidence dropped = scan;
  dropped.rows.erase(dropped.rows.begin() + 3);
  EXPECT_FALSE(VerifyScanEvidence("ev-", "ev-~", 0, dropped).ok());
  VerifiedKv::ScanEvidence rewritten = scan;
  rewritten.rows[0].value = "forged";
  EXPECT_FALSE(VerifyScanEvidence("ev-", "ev-~", 0, rewritten).ok());
  // A limit is part of the claim: the full range does not verify as a
  // 5-row answer.
  EXPECT_FALSE(VerifyScanEvidence("ev-", "ev-~", 5, scan).ok());
  root_bytes = scan.digest.substr(0, Hash256::kSize);
  auto scan_verifies = [&] {
    VerifiedKv::ScanEvidence forged = scan;
    forged.digest.replace(0, Hash256::kSize, root_bytes);
    return VerifyScanEvidence("ev-", "ev-~", 0, forged).ok();
  };
  flip_every_byte(&scan.proof, scan_verifies);
  flip_every_byte(&root_bytes, scan_verifies);
}

TEST(NetSpitzTest, DigestAndAuditOverTheWire) {
  SpitzFixture fx;
  auto client = fx.Client();
  // Enough writes to seal at least one block (default block_size 64);
  // the journal digest only covers sealed blocks.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client->Put("a" + std::to_string(i), "v").ok());
  }
  SpitzDigest digest;
  ASSERT_TRUE(client->Digest(&digest).ok());
  EXPECT_GT(digest.journal.entry_count, 0u);
  EXPECT_GT(digest.journal.block_count, 0u);

  ASSERT_TRUE(client->Audit("a3").ok());
  ASSERT_TRUE(client->AuditLastSealed().ok());
}

TEST(NetSpitzTest, EightConcurrentClientsStress) {
  SpitzFixture fx;
  constexpr size_t kClients = 8, kOpsPerClient = 100;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      auto client = fx.Client();
      if (!client) {
        failures.fetch_add(kOpsPerClient);
        return;
      }
      for (size_t i = 0; i < kOpsPerClient; i++) {
        std::string key =
            "c" + std::to_string(c) + "-k" + std::to_string(i);
        std::string value = "v" + std::to_string(i);
        if (!client->Put(key, value).ok()) failures.fetch_add(1);
        std::string got;
        if (!client->Get(key, &got).ok() || got != value) {
          failures.fetch_add(1);
        }
        if (!client->VerifiedGet(key, &got).ok() || got != value) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  MetricsSnapshot m = fx.server()->Metrics();
  EXPECT_EQ(m.CounterValue("net.protocol_errors"), 0u);
  EXPECT_GE(m.CounterValue("net.server.accepts"), kClients);
  EXPECT_EQ(m.CounterValue("net.server.frames_served"),
            3 * kClients * kOpsPerClient);
  EXPECT_GE(m.CounterValue("net.frames.rx"), 3 * kClients * kOpsPerClient);

  // The digest that verified those reads covers every write but the
  // open block: at most one block's worth is still unsealed.
  auto checker = fx.Client();
  SpitzDigest digest;
  ASSERT_TRUE(checker->Digest(&digest).ok());
  const uint64_t block_size = LocalFleet::Options().db.block_size;
  EXPECT_LE(digest.journal.entry_count, kClients * kOpsPerClient);
  EXPECT_GE(digest.journal.entry_count + block_size,
            kClients * kOpsPerClient);
}

// A durable server with sync_writes acknowledges each Put only once it
// is fsync'd; eight concurrent clients must share those fsyncs through
// group commit. Without sync_writes the same load is buffered.
TEST(NetSpitzTest, SyncWritesServerSharesFsyncsAcrossClients) {
  constexpr size_t kClients = 8, kOpsPerClient = 40;
  const std::string dir = ::testing::TempDir() + "/spitz_net_sync_writes";
  for (bool sync_writes : {true, false}) {
    SCOPED_TRACE(sync_writes ? "sync_writes" : "buffered");
    std::filesystem::remove_all(dir);
    LocalFleet::Options options;
    options.db.data_dir = dir;
    options.db.sync_writes = sync_writes;
    std::unique_ptr<LocalFleet> fleet;
    ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());

    std::atomic<uint64_t> errors{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; c++) {
      threads.emplace_back([&, c] {
        std::unique_ptr<SpitzClient> client;
        if (!SpitzClient::Open(fleet->ClientOptions(0), &client).ok()) {
          errors.fetch_add(kOpsPerClient);
          return;
        }
        for (size_t i = 0; i < kOpsPerClient; i++) {
          const std::string key =
              "w" + std::to_string(c) + "-key" + std::to_string(i);
          if (!client->Put(key, std::string(100, 'v')).ok()) {
            errors.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(errors.load(), 0u);
    if (sync_writes) {
      const uint64_t puts = kClients * kOpsPerClient;
      const uint64_t fsyncs =
          fleet->db(0)->Metrics().CounterValue("core.db.journal.fsyncs");
      EXPECT_GE(fsyncs, 1u);
      EXPECT_LT(fsyncs, puts) << "concurrent clients shared no fsync";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(NetSpitzTest, PerMethodLatencyHistogramsPopulate) {
  SpitzFixture fx;
  auto client = fx.Client();
  ASSERT_TRUE(client->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(client->Get("k", &value).ok());
  ASSERT_TRUE(client->VerifiedGet("k", &value).ok());

  MetricsSnapshot m = fx.server()->Metrics();
  auto count_of = [&](const char* name) {
    auto it = m.histograms.find(name);
    return it == m.histograms.end() ? uint64_t{0} : it->second.count;
  };
  EXPECT_EQ(count_of("net.server.method_latency_ns.put"), 1u);
  EXPECT_EQ(count_of("net.server.method_latency_ns.get"), 1u);
  EXPECT_EQ(count_of("net.server.method_latency_ns.get_proof"), 1u);
  // Every frame, the connect-time handshake included, waited in the
  // dispatch queue.
  EXPECT_EQ(count_of("net.server.queue_wait_ns"), 4u);
}

// --- Broken-connection semantics --------------------------------------------

// A hand-rolled peer that speaks just enough protocol to get past the
// connect handshake, then follows a script: read `consume_bytes` of
// whatever comes next and reset the connection (SO_LINGER 0 → RST, so
// the client's in-flight send fails mid-frame instead of draining).
class ResettingPeer {
 public:
  explicit ResettingPeer(size_t consume_bytes) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, consume_bytes] { Serve(consume_bytes); });
  }

  ~ResettingPeer() {
    thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void Serve(size_t consume_bytes) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    // Answer the handshake so Connect() succeeds.
    FrameDecoder decoder(1 << 20);
    ReceivedFrame frame;
    while (true) {
      ssize_t n = ::recv(fd, decoder.space(), decoder.space_size(), 0);
      ASSERT_GT(n, 0);
      decoder.Commit(static_cast<size_t>(n));
      if (decoder.Next(&frame) == FrameDecoder::Result::kFrame) break;
    }
    ASSERT_EQ(frame.method, kHandshakeMethod);
    std::string reply(kFramePrefixBytes, '\0');
    Handshake().EncodeTo(&reply);
    SealFrame(kHandshakeMethod, frame.request_id,
              WireStatusCode(Status::OK()), &reply);
    ASSERT_TRUE(SendAll(fd, reply));
    // Swallow a little of the next frame, then reset with data still
    // unread — the client is mid-send of a frame far larger than this.
    char buf[4096];
    size_t consumed = 0;
    while (consumed < consume_bytes) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      consumed += static_cast<size_t>(n);
    }
    linger hard{};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(NetClientTest, PartialSendFailurePoisonsTheConnection) {
  // Regression: a mid-frame send() failure used to return a one-off
  // IOError WITHOUT breaking the connection — the stream was desynced
  // (the peer had a frame prefix with no body), and the next call wrote
  // a fresh frame into the middle of the old one, surfacing as a
  // confusing server-side protocol error. Now the failed send poisons
  // the connection: this call and every later one fail with the sticky
  // status, immediately, without touching the wire.
  ResettingPeer peer(64 * 1024);
  NetClient::Options options;
  options.port = peer.port();
  options.connect_attempts = 1;
  options.deadline_ms = 60'000;  // a sticky failure must not wait this out
  std::unique_ptr<NetClient> client;
  ASSERT_TRUE(NetClient::Connect(options, &client).ok());

  // Far larger than the socket buffers, so send() blocks mid-frame
  // until the peer's reset fails it with the frame partially written.
  std::string huge(64u << 20, 'x');
  std::string response;
  EXPECT_FALSE(client->Call(1, huge, &response).ok());

  EXPECT_FALSE(client->connection_status().ok());
  uint64_t t0 = MonotonicNanos();
  Status s = client->Call(2, "ping", &response);
  uint64_t elapsed_ms = (MonotonicNanos() - t0) / 1'000'000;
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsTimedOut()) << s.ToString();
  // Sticky means instant: no deadline wait, no wire traffic.
  EXPECT_LT(elapsed_ms, 5'000u);
}

TEST(NetSpitzTest, ReconnectHealsAStickyBrokenConnection) {
  // The reconnect seam: a NetClient is sticky-broken forever by design,
  // so SpitzClient::Reconnect() dials a fresh connection with the saved
  // options and swaps it in — a bounced server heals instead of every
  // later call failing with the old connection's corpse.
  SpitzFixture fx;
  auto client = fx.Client();
  ASSERT_TRUE(client->Put("k", "v").ok());
  EXPECT_TRUE(client->ConnectionStatus().ok());

  fx.fleet->KillPrimary(0);
  std::string value;
  EXPECT_FALSE(client->Get("k", &value).ok());
  // The reader notices the close asynchronously; the sticky state must
  // settle promptly.
  for (int i = 0; i < 5'000 && client->ConnectionStatus().ok(); i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(client->ConnectionStatus().ok());
  // While the server is down, Reconnect itself fails cleanly and the
  // client stays broken.
  EXPECT_FALSE(client->Reconnect().ok() &&
               client->Get("k", &value).ok());

  // Same database, same port: the server comes back.
  Status restarted = fx.fleet->Bounce(0);
  ASSERT_TRUE(restarted.ok()) << restarted.ToString();

  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_TRUE(client->ConnectionStatus().ok());
  ASSERT_TRUE(client->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  // Reconnect on a healthy connection is a no-op OK.
  EXPECT_TRUE(client->Reconnect().ok());
}

TEST(NetSpitzTest, ReadOptionsDeadlineReachesTheTransport) {
  // ReadOptions::deadline_ms must override the transport default on
  // the Get path: against a server that never answers, a short
  // per-read deadline returns TimedOut long before the connection-level
  // default (60s here) would.
  ResettingPeer peer(1u << 20);  // answers the handshake, then swallows
  SpitzClient::Options options;
  options.net.port = peer.port();
  options.net.connect_attempts = 1;
  options.net.deadline_ms = 60'000;
  std::unique_ptr<SpitzClient> client;
  ASSERT_TRUE(SpitzClient::Open(options, &client).ok());

  ReadOptions read_options;
  read_options.deadline_ms = 100;
  std::string value;
  uint64_t t0 = MonotonicNanos();
  Status s = client->Get(read_options, "k", &value);
  uint64_t elapsed_ms = (MonotonicNanos() - t0) / 1'000'000;
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  EXPECT_LT(elapsed_ms, 10'000u);
}

// One valid request per method, in the layouts of spitz_wire.h.
std::vector<std::pair<uint32_t, std::string>> OneRequestPerMethod(
    const Hash256& root, const std::string& replication_record) {
  auto key = [](const std::string& k) {
    std::string out;
    PutLengthPrefixedSlice(&out, k);
    return out;
  };
  std::string range = key("") + key("");
  PutVarint64(&range, 0);
  WriteBatch write;
  write.Put("junk-write", "v");
  WriteBatch prepare;
  prepare.Put("junk-txn", "v");
  prepare.Expect("present", Slice("v"));
  std::string txn_id, unknown_txn_id;
  PutFixed64(&txn_id, 77);
  PutFixed64(&unknown_txn_id, 78);
  return {
      {wire::kPut, key("junk-put") + key("v")},
      {wire::kDelete, key("absent")},
      {wire::kGet, key("present")},
      {wire::kGetProof, key("present")},
      {wire::kScan, range},
      {wire::kScanProof, range},
      {wire::kDigest, ""},
      {wire::kAudit, key("present")},
      {wire::kWrite, std::string(1, '\0') + write.Encode()},
      {wire::kTxnPrepare, txn_id + prepare.Encode()},
      {wire::kTxnCommit, txn_id},
      {wire::kTxnAbort, unknown_txn_id},
      {wire::kTxnInDoubt, ""},
      {wire::kGetProofAt, root.ToBytes() + key("present")},
      {wire::kScanProofAt, root.ToBytes() + range},
      {wire::kReplicate, replication_record},
      {wire::kReplicaAck, ""},
      {wire::kReplicaStatus, std::string(1, wire::kReplicaStatusQuery)},
  };
}

TEST(NetSpitzTest, EveryMethodRejectsTrailingBytesAndChangesNothing) {
  LocalFleet::Options options;
  options.replicated = true;
  std::unique_ptr<LocalFleet> fleet;
  ASSERT_TRUE(LocalFleet::Open(options, &fleet).ok());
  SpitzDb* primary = fleet->db(0);
  ASSERT_TRUE(primary->Put("present", "v").ok());
  // Block 0 of another history: a record the empty backup would apply.
  SpitzOptions source_options;
  source_options.block_size = 1;
  SpitzDb source(source_options);
  ASSERT_TRUE(source.Put("replicated", "r").ok());
  std::string record;
  Block block;
  ASSERT_TRUE(EncodeReplicationRecord(source, 0, &record, &block).ok());

  std::unique_ptr<NetClient> to_primary, to_backup;
  ASSERT_TRUE(
      NetClient::Connect(fleet->ClientOptions(0).net, &to_primary).ok());
  ASSERT_TRUE(
      NetClient::Connect(fleet->BackupClientOptions(0).net, &to_backup).ok());
  auto channel = [&](uint32_t method) {
    return method >= wire::kReplicate ? to_backup.get() : to_primary.get();
  };
  std::unique_ptr<SpitzClient> backup;
  ASSERT_TRUE(SpitzClient::Open(fleet->BackupClientOptions(0), &backup).ok());
  auto state = [&] {
    std::vector<uint64_t> in_doubt;
    EXPECT_TRUE(primary->participant()->InDoubtTxns(&in_doubt).ok());
    SpitzDigest backup_digest;
    EXPECT_TRUE(backup->Digest(&backup_digest).ok());
    std::string bytes;
    primary->Digest().EncodeTo(&bytes);
    backup_digest.EncodeTo(&bytes);
    return bytes + std::to_string(in_doubt.size());
  };

  const auto requests =
      OneRequestPerMethod(primary->Digest().index_root, record);
  ASSERT_EQ(requests.size(), wire::kMethodCount);
  const std::string before = state();
  for (const auto& [method, request] : requests) {
    std::string response;
    Status s = channel(method)->Call(method, request + '\x07', &response);
    EXPECT_TRUE(s.IsInvalidArgument())
        << wire::MethodName(method) << ": " << s.ToString();
  }
  EXPECT_EQ(state(), before);
  std::string value;
  EXPECT_TRUE(primary->Get("junk-put", &value).IsNotFound());
  EXPECT_TRUE(primary->Get("junk-write", &value).IsNotFound());

  // Without the extra byte every request decodes and runs.
  for (const auto& [method, request] : requests) {
    std::string response;
    Status s = channel(method)->Call(method, request, &response);
    EXPECT_TRUE(s.ok() || s.IsNotFound())
        << wire::MethodName(method) << ": " << s.ToString();
  }
  EXPECT_TRUE(primary->Get("junk-write", &value).ok());
}

TEST(NetSpitzTest, GracefulShutdownThenConnectFails) {
  SpitzFixture fx;
  auto client = fx.Client();
  ASSERT_TRUE(client->Put("k", "v").ok());
  fx.fleet->KillPrimary(0);

  std::string value;
  EXPECT_FALSE(client->Get("k", &value).ok());
  NetClient::Options copts = fx.fleet->ClientOptions(0).net;
  copts.connect_attempts = 1;
  std::unique_ptr<NetClient> late;
  Status s = NetClient::Connect(copts, &late);
  if (s.ok()) {
    // The listener may linger a moment; the call itself must fail.
    EXPECT_FALSE(late->Call(wire::kGet, "x", &value).ok());
  }
}

}  // namespace
}  // namespace spitz
