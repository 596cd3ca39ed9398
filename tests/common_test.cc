#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "common/fork_join.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace spitz {
namespace {

// --- Status --------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::VerificationFailed("x").IsVerificationFailed());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
}

TEST(StatusTest, EmptyMessageToString) {
  EXPECT_EQ(Status::Corruption().ToString(), "Corruption");
}

TEST(StatusTest, CopyPreservesCodeAndMessage) {
  Status a = Status::Aborted("conflict");
  Status b = a;
  EXPECT_TRUE(b.IsAborted());
  EXPECT_EQ(b.message(), "conflict");
}

// --- Slice ---------------------------------------------------------------

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
}

TEST(SliceTest, EmptySlice) {
  Slice s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix ordering: shorter sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abc").compare(Slice("ab")), 0);
}

TEST(SliceTest, RemovePrefix) {
  Slice s("abcdef");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "cdef");
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("abcdef").starts_with("abc"));
  EXPECT_FALSE(Slice("abcdef").starts_with("abd"));
  EXPECT_TRUE(Slice("abc").starts_with(""));
  EXPECT_FALSE(Slice("ab").starts_with("abc"));
}

TEST(SliceTest, EqualityIncludesEmbeddedNul) {
  std::string a("a\0b", 3);
  std::string b("a\0c", 3);
  EXPECT_NE(Slice(a), Slice(b));
  EXPECT_EQ(Slice(a), Slice(std::string("a\0b", 3)));
}

// --- Codec ---------------------------------------------------------------

TEST(CodecTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
  Slice in(buf);
  uint32_t v = 0;
  ASSERT_TRUE(GetFixed32(&in, &v).ok());
  EXPECT_EQ(v, 0xdeadbeefu);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789abcdefull);
}

TEST(CodecTest, FixedTruncated) {
  std::string buf = "abc";
  Slice in(buf);
  uint32_t v;
  EXPECT_TRUE(GetFixed32(&in, &v).IsCorruption());
  uint64_t w;
  EXPECT_TRUE(GetFixed64(&in, &w).IsCorruption());
}

TEST(CodecTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            UINT64_MAX};
  for (uint64_t value : cases) {
    std::string buf;
    PutVarint64(&buf, value);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(value));
    Slice in(buf);
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&in, &out).ok()) << value;
    EXPECT_EQ(out, value);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodecTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 1ull << 33);
  Slice in(buf);
  uint32_t out;
  EXPECT_TRUE(GetVarint32(&in, &out).IsCorruption());
}

TEST(CodecTest, VarintTruncated) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t out;
  EXPECT_TRUE(GetVarint64(&in, &out).IsCorruption());
}

TEST(CodecTest, VarintRejectsBitsPast64) {
  // UINT64_MAX is nine 0xff bytes and a tenth byte of 0x01; a tenth byte
  // above that names bits past 64.
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  ASSERT_EQ(buf.size(), 10u);
  ASSERT_EQ(buf.back(), '\x01');
  for (char last : {'\x02', '\x7f'}) {
    buf.back() = last;
    Slice in(buf);
    uint64_t out = 0;
    EXPECT_TRUE(GetVarint64(&in, &out).IsCorruption()) << int(last);
  }
}

TEST(CodecTest, VarintRejectsNonMinimalEncoding) {
  // Each spells a value PutVarint64 writes shorter: 0, 1 and 127 with a
  // trailing zero group, and a tenth byte of zero.
  const std::string cases[] = {std::string("\x80\x00", 2),
                               std::string("\x81\x00", 2),
                               std::string("\xff\x80\x00", 3),
                               std::string(9, '\xff') + std::string(1, '\0')};
  for (const std::string& buf : cases) {
    Slice in(buf);
    uint64_t out = 0;
    EXPECT_TRUE(GetVarint64(&in, &out).IsCorruption()) << buf.size();
  }
  // A lone zero byte is the one encoding of 0.
  std::string zero(1, '\0');
  Slice in(zero);
  uint64_t out = 1;
  ASSERT_TRUE(GetVarint64(&in, &out).ok());
  EXPECT_EQ(out, 0u);
}

TEST(CodecTest, LengthPrefixedSliceRoundTrip) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "hello");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(1000, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a).ok());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b).ok());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c).ok());
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, LengthPrefixedSliceTruncated) {
  std::string buf;
  PutVarint64(&buf, 100);
  buf.append("short");
  Slice in(buf);
  Slice out;
  EXPECT_TRUE(GetLengthPrefixedSlice(&in, &out).IsCorruption());
}

// Property: any sequence of mixed puts decodes back identically.
TEST(CodecTest, MixedSequenceProperty) {
  Random rng(42);
  for (int trial = 0; trial < 50; trial++) {
    std::vector<uint64_t> ints;
    std::vector<std::string> strs;
    std::string buf;
    for (int i = 0; i < 20; i++) {
      uint64_t v = rng.Next() >> (rng.Uniform(64));
      ints.push_back(v);
      PutVarint64(&buf, v);
      std::string s = rng.Bytes(rng.Uniform(50));
      strs.push_back(s);
      PutLengthPrefixedSlice(&buf, s);
    }
    Slice in(buf);
    for (int i = 0; i < 20; i++) {
      uint64_t v;
      ASSERT_TRUE(GetVarint64(&in, &v).ok());
      EXPECT_EQ(v, ints[i]);
      Slice s;
      ASSERT_TRUE(GetLengthPrefixedSlice(&in, &s).ok());
      EXPECT_EQ(s.ToString(), strs[i]);
    }
    EXPECT_TRUE(in.empty());
  }
}

// --- Random ----------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformInRange) {
  Random r(99);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BytesHaveRequestedLength) {
  Random r(5);
  EXPECT_EQ(r.Bytes(0).size(), 0u);
  EXPECT_EQ(r.Bytes(17).size(), 17u);
}

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; i++) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 5; i++) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, TryPushFullQueueFails) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedQueue<int> q(10);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, ConcurrentProducersConsumers) {
  BoundedQueue<uint64_t> q(64);
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 2000;
  std::atomic<uint64_t> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; i++) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        count++;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; i++) {
        ASSERT_TRUE(q.Push(static_cast<uint64_t>(p * kItemsEach + i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  const uint64_t n = kProducers * kItemsEach;
  EXPECT_EQ(count.load(), static_cast<int>(n));
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- CRC32C -----------------------------------------------------------------

using Crc32cFn = uint32_t (*)(uint32_t, const char*, size_t);

// RFC 3720 (iSCSI) appendix B.4 vectors, plus the common "123456789"
// check value of CRC-32C.
void ExpectRfc3720Vectors(Crc32cFn extend) {
  std::string zeros(32, '\0');
  EXPECT_EQ(extend(0, zeros.data(), zeros.size()), 0x8a9136aau);
  std::string ones(32, '\xff');
  EXPECT_EQ(extend(0, ones.data(), ones.size()), 0x62a8ab43u);
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; i++) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(extend(0, ascending.data(), ascending.size()), 0x46dd794eu);
  std::string descending(32, '\0');
  for (int i = 0; i < 32; i++) descending[i] = static_cast<char>(31 - i);
  EXPECT_EQ(extend(0, descending.data(), descending.size()), 0x113fdb5cu);
  EXPECT_EQ(extend(0, "123456789", 9), 0xe3069283u);
  EXPECT_EQ(extend(0, "", 0), 0u);
}

#define SKIP_WITHOUT_SSE42()                                               \
  if (!crc32c::internal::HasSse42()) {                                     \
    GTEST_SKIP() << "this CPU lacks the SSE4.2 CRC32 instruction; the "    \
                    "table kernel is the one in use";                      \
  }

TEST(Crc32cTest, Rfc3720Vectors) {
  ExpectRfc3720Vectors(crc32c::Extend);
  ExpectRfc3720Vectors(crc32c::internal::ExtendTable);
}

TEST(Crc32cTest, Sse42Rfc3720Vectors) {
  SKIP_WITHOUT_SSE42();
  ExpectRfc3720Vectors(crc32c::internal::ExtendSse42);
}

TEST(Crc32cTest, ExtendChainsLikeOneShot) {
  Random rng(3720);
  for (int trial = 0; trial < 200; trial++) {
    std::string data = rng.Bytes(rng.Uniform(3000));
    const size_t cut = data.empty() ? 0 : rng.Uniform(data.size() + 1);
    const uint32_t head = crc32c::Value(data.data(), cut);
    EXPECT_EQ(crc32c::Extend(head, data.data() + cut, data.size() - cut),
              crc32c::Value(data.data(), data.size()))
        << "trial " << trial;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndChangesTheValue) {
  const uint32_t crc = crc32c::Value("123456789", 9);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

// Hardware vs table over random lengths, unaligned offsets and
// chaining seeds.
TEST(Crc32cTest, Sse42MatchesTableRandomized) {
  SKIP_WITHOUT_SSE42();
  Random rng(0x82f63b78);
  std::string buffer(16 * 1024 + 16, '\0');
  for (int trial = 0; trial < 3000; trial++) {
    for (char& c : buffer) c = static_cast<char>(rng.Next());
    const size_t n = rng.Uniform(trial % 10 == 0 ? 16 * 1024 : 300);
    const char* data = buffer.data() + rng.Uniform(16);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(crc32c::internal::ExtendSse42(seed, data, n),
              crc32c::internal::ExtendTable(seed, data, n))
        << "trial " << trial << ", " << n << " bytes";
  }
}

// --- ParallelFor ------------------------------------------------------------

// Every index runs exactly once, in pieces of at most `grain`, whether
// the range is empty, one piece (inline) or many (helper threads).
TEST(ForkJoinTest, EveryIndexRunsOnceInPiecesOfGrain) {
  for (size_t n : {0, 1, 7, 64, 10000}) {
    for (size_t grain : {0, 1, 8, 100000}) {
      std::vector<std::atomic<int>> runs(n);
      std::atomic<size_t> oversized{0};
      ParallelFor(n, grain, [&](size_t begin, size_t end) {
        if (end - begin > std::max<size_t>(grain, 1)) oversized++;
        for (size_t i = begin; i < end; i++) runs[i]++;
      });
      EXPECT_EQ(oversized.load(), 0u) << n << " / " << grain;
      for (size_t i = 0; i < n; i++) {
        ASSERT_EQ(runs[i].load(), 1) << n << " / " << grain << " at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace spitz
