#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/hash.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace spitz {
namespace {

std::string HexDigest(const Slice& data) {
  uint8_t out[Sha256::kDigestSize];
  Sha256::Digest(data, out);
  return Hash256::FromBytes(
             Slice(reinterpret_cast<const char*>(out), sizeof(out)))
      .ToHex();
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(
      HexDigest(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(
      HexDigest("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HexDigest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(
      HexDigest(a),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockSizeInput) {
  // 64-byte input exercises the padding-in-next-block path.
  std::string s(64, 'x');
  uint8_t a[32], b[32];
  Sha256::Digest(s, a);
  Sha256 h;
  h.Update(s.data(), 30);
  h.Update(s.data() + 30, 34);
  h.Final(b);
  EXPECT_EQ(0, memcmp(a, b, 32));
}

TEST(Sha256Test, StreamingMatchesOneShotProperty) {
  Random rng(123);
  for (int trial = 0; trial < 30; trial++) {
    std::string data = rng.Bytes(rng.Uniform(5000));
    uint8_t oneshot[32];
    Sha256::Digest(data, oneshot);

    Sha256 h;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t n = std::min<size_t>(rng.Uniform(97) + 1, data.size() - pos);
      h.Update(data.data() + pos, n);
      pos += n;
    }
    uint8_t streamed[32];
    h.Final(streamed);
    EXPECT_EQ(0, memcmp(oneshot, streamed, 32)) << "trial " << trial;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(Slice("garbage"));
  h.Reset();
  h.Update(Slice("abc"));
  uint8_t out[32];
  h.Final(out);
  EXPECT_EQ(
      Hash256::FromBytes(Slice(reinterpret_cast<char*>(out), 32)).ToHex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Messages of n 'a' bytes around every padding boundary: the 0x80 byte
// and the 8-byte length fit in the last block up to 55 bytes and spill
// into an extra block from 56. Expected values from Python's hashlib.
struct KnownAnswer {
  size_t length;
  const char* hex;
};
const KnownAnswer kRepeatedA[] = {
    {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {1, "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"},
    {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
    {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
    {57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"},
    {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
    {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
    {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
    {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
    {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
    {127, "c57e9278af78fa3cab38667bef4ce29d783787a2f731d4e12200270f0c32320a"},
    {128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
};

TEST(Sha256Test, PaddingBoundaries) {
  for (const KnownAnswer& ka : kRepeatedA) {
    EXPECT_EQ(HexDigest(std::string(ka.length, 'a')), ka.hex)
        << ka.length << " bytes";
  }
}

// --- SHA-256 compression kernels ---------------------------------------------

constexpr uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                       0xa54ff53a, 0x510e527f, 0x9b05688c,
                                       0x1f83d9ab, 0x5be0cd19};

// SHA-256 of data[0, n) through one kernel, padded here rather than by
// Sha256::Final, so the padding code is checked against a second copy.
std::string KernelHex(sha256_internal::BlockFn blocks, const uint8_t* data,
                      size_t n) {
  uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof(state));
  blocks(state, data, n / 64);
  std::vector<uint8_t> tail(data + n / 64 * 64, data + n);
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  for (int i = 7; i >= 0; i--) {
    tail.push_back(static_cast<uint8_t>((uint64_t{n} * 8) >> (8 * i)));
  }
  blocks(state, tail.data(), tail.size() / 64);
  uint8_t out[32];
  for (int i = 0; i < 8; i++) {
    for (int b = 0; b < 4; b++) {
      out[i * 4 + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return Hash256::FromBytes(
             Slice(reinterpret_cast<const char*>(out), sizeof(out)))
      .ToHex();
}

std::string KernelHex(sha256_internal::BlockFn blocks,
                      const std::string& data) {
  return KernelHex(blocks, reinterpret_cast<const uint8_t*>(data.data()),
                   data.size());
}

void ExpectKnownAnswers(sha256_internal::BlockFn blocks) {
  for (const KnownAnswer& ka : kRepeatedA) {
    EXPECT_EQ(KernelHex(blocks, std::string(ka.length, 'a')), ka.hex)
        << ka.length << " bytes";
  }
  EXPECT_EQ(KernelHex(blocks, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(KernelHex(blocks,
                      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                      "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(KernelHex(blocks, std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

#define SKIP_WITHOUT_SHA_NI()                                              \
  if (!sha256_internal::HasShaNi()) {                                     \
    GTEST_SKIP() << "this CPU lacks the x86 SHA extensions (sha_ni); the " \
                    "scalar kernel is the one in use";                    \
  }

TEST(Sha256KernelTest, ScalarKnownAnswers) {
  ExpectKnownAnswers(sha256_internal::ScalarBlocks);
}

TEST(Sha256KernelTest, ShaNiKnownAnswers) {
  SKIP_WITHOUT_SHA_NI();
  ExpectKnownAnswers(sha256_internal::ShaNiBlocks);
}

TEST(Sha256KernelTest, SelectedKernelFollowsTheCpu) {
  EXPECT_EQ(sha256_internal::SelectedBlocks(),
            sha256_internal::HasShaNi() ? sha256_internal::ShaNiBlocks
                                        : sha256_internal::ScalarBlocks);
}

// Hardware vs scalar over 0..4 KiB messages at unaligned offsets, and
// through Sha256's streaming path with random splits (whatever kernel
// this CPU selected) against the scalar reference.
TEST(Sha256KernelTest, ShaNiMatchesScalarRandomized) {
  SKIP_WITHOUT_SHA_NI();
  Random rng(0x5a256);
  std::vector<uint8_t> buffer(4096 + 64);
  for (int trial = 0; trial < 1500; trial++) {
    for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
    const size_t n = rng.Uniform(4097);
    const uint8_t* data = buffer.data() + rng.Uniform(64);
    const std::string expected =
        KernelHex(sha256_internal::ScalarBlocks, data, n);
    ASSERT_EQ(KernelHex(sha256_internal::ShaNiBlocks, data, n), expected)
        << "trial " << trial << ", " << n << " bytes";

    Sha256 h;
    for (size_t pos = 0; pos < n;) {
      size_t part = std::min<size_t>(rng.Uniform(200), n - pos);
      h.Update(data + pos, part);
      pos += part;
    }
    uint8_t streamed[32];
    h.Final(streamed);
    ASSERT_EQ(Hash256::FromBytes(Slice(reinterpret_cast<const char*>(streamed),
                                       sizeof(streamed)))
                  .ToHex(),
              expected)
        << "trial " << trial << ", " << n << " bytes streamed";
  }
}

// Both kernels advance an arbitrary chaining state identically across
// multi-block calls.
TEST(Sha256KernelTest, ShaNiMatchesScalarOnRandomStates) {
  SKIP_WITHOUT_SHA_NI();
  Random rng(0xc0ffee);
  std::vector<uint8_t> buffer(8 * 64 + 16);
  for (int trial = 0; trial < 500; trial++) {
    for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
    uint32_t scalar[8], hardware[8];
    for (uint32_t& word : scalar) word = static_cast<uint32_t>(rng.Next());
    std::memcpy(hardware, scalar, sizeof(scalar));
    const size_t blocks = 1 + rng.Uniform(8);
    const uint8_t* data = buffer.data() + rng.Uniform(16);
    sha256_internal::ScalarBlocks(scalar, data, blocks);
    sha256_internal::ShaNiBlocks(hardware, data, blocks);
    ASSERT_EQ(0, std::memcmp(scalar, hardware, sizeof(scalar)))
        << "trial " << trial;
  }
}

// --- Hash256 ----------------------------------------------------------------

TEST(Hash256Test, DefaultIsZero) {
  Hash256 h;
  EXPECT_TRUE(h.IsZero());
}

TEST(Hash256Test, OfIsNotZeroAndDeterministic) {
  Hash256 a = Hash256::Of("spitz");
  Hash256 b = Hash256::Of("spitz");
  EXPECT_FALSE(a.IsZero());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Hash256::Of("spatz"));
}

TEST(Hash256Test, HexRoundTrip) {
  Hash256 a = Hash256::Of("roundtrip");
  Hash256 b = Hash256::FromHex(a.ToHex());
  EXPECT_EQ(a, b);
}

TEST(Hash256Test, FromHexRejectsBadInput) {
  EXPECT_TRUE(Hash256::FromHex("zz").IsZero());
  EXPECT_TRUE(Hash256::FromHex(std::string(64, 'g')).IsZero());
}

TEST(Hash256Test, BytesRoundTrip) {
  Hash256 a = Hash256::Of("bytes");
  Hash256 b = Hash256::FromBytes(a.ToBytes());
  EXPECT_EQ(a, b);
}

TEST(Hash256Test, DomainSeparationLeafVsRaw) {
  // A leaf hash must differ from the raw hash of the same content.
  EXPECT_NE(Hash256::OfLeaf("data"), Hash256::Of("data"));
}

TEST(Hash256Test, PairHashOrderMatters) {
  Hash256 a = Hash256::Of("a"), b = Hash256::Of("b");
  EXPECT_NE(Hash256::OfPair(a, b), Hash256::OfPair(b, a));
}

TEST(Hash256Test, PairVsLeafDomainSeparation) {
  // OfPair(x, y) must not collide with OfLeaf(x || y).
  Hash256 a = Hash256::Of("a"), b = Hash256::Of("b");
  std::string concat = a.ToBytes() + b.ToBytes();
  EXPECT_NE(Hash256::OfPair(a, b), Hash256::OfLeaf(concat));
}

TEST(Hash256Test, OrderingIsTotal) {
  Hash256 a = Hash256::Of("1"), b = Hash256::Of("2");
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_FALSE(a < a);
}

}  // namespace
}  // namespace spitz
