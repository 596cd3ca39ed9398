// The formats a client checks, linked with spitz_proof alone: no tree,
// chunk store, node cache or journal. Golden proofs, captured once from
// the trees and the journal, verify against their digests, and every
// one-bit flip of a golden is refused.
//
// The SIRI goldens are ReadProof and ScanProof wire bytes (index root,
// then the backend-tagged envelope). They were captured from
// MakeSiriIndex over the 64 entries Entries() returns: a POS-tree with
// leaf and meta pattern bits of 2, a Merkle Patricia Trie, and a Merkle
// Bucket Tree of 4 buckets; the point proofs are of key21, the range
// proof of [key10, key20). The journal goldens were captured from a
// Journal of five blocks of three entries each: the proof of entry 1 of
// block 2 against the digest after five blocks, and the consistency
// proof from two blocks to five. A journal proof has no wire form of its
// own, so each is stored in the order its verifier reads the fields
// (JournalEntryProofFrom, CheckConsistencyProof).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "proof/block.h"
#include "proof/siri_proof.h"

namespace spitz {
namespace {

constexpr char kPosPointProof[] =
    "ab814c92368acf1e74e8f37738602074e1ebf1d2dac36fd843294c8973405249"
    "0006034f02056b6579333337927abea8ff3c7b4a8ceda335636e289b746d56b2"
    "4b8e882a3a0a8e1826028022056b65793633a1eefde680f029713d3fb4317079"
    "90691f25062cd38571d7989afcd8d3a260931e034f02056b6579303948721df0"
    "ef6dfb36e3c8d0735c6035bd1de68ee569dd1894f66317a7063975700a056b65"
    "793333064a4dabe08e69df7f8f685b3e355d57dc6418801436a2ecc85cfc9447"
    "5563e318034f02056b6579313658da6d215e1186f2f11958cea8db10d917ea8c"
    "0e6bef199d09208f405ab08a7e07056b657933335cca360f9d291c450a3078c7"
    "aa99d30f7e4e5312f4fe9dde9821827b5de3b7c811032801056b65793333c1ba"
    "9d330daf34a037d8612cd285e2b02a551490029107849f4fbda2a7fba4761103"
    "7603056b65793231600beee2edc3c0055c38e9efa0918320caac0f8b243763d4"
    "8e8c641d07ac8fca05056b657933307588365949c5fa51155566ec169b198204"
    "7f4d57cc1804bfcc55a07eac3b826a09056b65793333e7f5975bf3fd6cc9e85c"
    "0d1fa72ab800c2a8541fb107791004f7c0e3dfefa09303024c05056b65793137"
    "0876616c75652d3137056b657931380876616c75652d3138056b657931390876"
    "616c75652d3139056b657932300876616c75652d3230056b657932310876616c"
    "75652d3231";
constexpr char kPosRangeProof[] =
    "ab814c92368acf1e74e8f37738602074e1ebf1d2dac36fd843294c8973405249"
    "000c064a4dabe08e69df7f8f685b3e355d57dc6418801436a2ecc85cfc944755"
    "63e3034f02056b6579313658da6d215e1186f2f11958cea8db10d917ea8c0e6b"
    "ef199d09208f405ab08a7e07056b657933335cca360f9d291c450a3078c7aa99"
    "d30f7e4e5312f4fe9dde9821827b5de3b7c81137927abea8ff3c7b4a8ceda335"
    "636e289b746d56b24b8e882a3a0a8e18260280034f02056b6579303948721df0"
    "ef6dfb36e3c8d0735c6035bd1de68ee569dd1894f66317a7063975700a056b65"
    "793333064a4dabe08e69df7f8f685b3e355d57dc6418801436a2ecc85cfc9447"
    "5563e31858da6d215e1186f2f11958cea8db10d917ea8c0e6bef199d09208f40"
    "5ab08a7e034f02056b65793135a5c11b364fb901ff86073d9a6bc62362774034"
    "4377419b7960789639c8b6380406056b65793136a5b1f637d0714aefca87d581"
    "f0b8a3047117432f8b087d7cc8e5db96eb0d809e015cca360f9d291c450a3078"
    "c7aa99d30f7e4e5312f4fe9dde9821827b5de3b7c8032801056b65793333c1ba"
    "9d330daf34a037d8612cd285e2b02a551490029107849f4fbda2a7fba4761160"
    "0beee2edc3c0055c38e9efa0918320caac0f8b243763d48e8c641d07ac8fca02"
    "4c05056b657931370876616c75652d3137056b657931380876616c75652d3138"
    "056b657931390876616c75652d3139056b657932300876616c75652d3230056b"
    "657932310876616c75652d3231a5b1f637d0714aefca87d581f0b8a304711743"
    "2f8b087d7cc8e5db96eb0d809e032801056b65793136c6eed42f8fa7ba66c903"
    "6e29d37e77b4bf9e60ba1c4806372100bbfe9729a36501a5c11b364fb901ff86"
    "073d9a6bc623627740344377419b7960789639c8b63804034f02056b65793130"
    "b9dbfdbca14bdcdf20762625ca2999d6ba1eb8d39708714451f72399d312b006"
    "01056b65793135c24b07d7d50cd3874508f5fba766cda2600dc89899c14c4da0"
    "9b2b00f04aed4c05ab814c92368acf1e74e8f37738602074e1ebf1d2dac36fd8"
    "43294c8973405249034f02056b6579333337927abea8ff3c7b4a8ceda335636e"
    "289b746d56b24b8e882a3a0a8e1826028022056b65793633a1eefde680f02971"
    "3d3fb431707990691f25062cd38571d7989afcd8d3a260931eb9dbfdbca14bdc"
    "df20762625ca2999d6ba1eb8d39708714451f72399d312b006021001056b6579"
    "31300876616c75652d3130c1ba9d330daf34a037d8612cd285e2b02a55149002"
    "9107849f4fbda2a7fba476037603056b65793231600beee2edc3c0055c38e9ef"
    "a0918320caac0f8b243763d48e8c641d07ac8fca05056b657933307588365949"
    "c5fa51155566ec169b1982047f4d57cc1804bfcc55a07eac3b826a09056b6579"
    "3333e7f5975bf3fd6cc9e85c0d1fa72ab800c2a8541fb107791004f7c0e3dfef"
    "a09303c24b07d7d50cd3874508f5fba766cda2600dc89899c14c4da09b2b00f0"
    "4aed4c024c05056b657931310876616c75652d3131056b657931320876616c75"
    "652d3132056b657931330876616c75652d3133056b657931340876616c75652d"
    "3134056b657931350876616c75652d3135c6eed42f8fa7ba66c9036e29d37e77"
    "b4bf9e60ba1c4806372100bbfe9729a365021001056b657931360876616c7565"
    "2d3136";
constexpr char kMptPointProof[] =
    "0d38f79accc816555532affbc0c7986e62acc42903776b7005ad9c81c88b731d"
    "0105290107060b0605070903c9732adb4410c61681c95636fdadcf65f9083587"
    "3acdc0434fd6c446400061abe601027f00000031ac12d564807be124f9197c21"
    "eea299a77858cf1b3f2ee3c8b4fe68dc2d427827d3a9fa0f7ac52570fa9e7a31"
    "762b399b9fc5026a9579d85ade5d43ea507800612b8ea8cefb4321a7c855b841"
    "94bee13442351b6142d3f4217d06b84055d62e3fad5cab08eaeeae9e296222c8"
    "145c4a690df55a5b1a8474fd1066fa4b037183a388b3f023cba9d685529aaa06"
    "abe690038b2b270f850ef9e2ce912b3a272100b0675ac9d6ee2540860d26754d"
    "fecf3c5b8b717ed3fe8bfe688df7c5c59842611190fd9167a09a6bfed53e8196"
    "3767b08f3bd6cfd59ed16acc29d67e9728c6690023010103303908759579ea35"
    "6b38aae22ac0d9e524cbfe1e570042947c71cda98e69cec8c60202ff030000b7"
    "ac4eba71f859ca0577513fbae8bef624e768ba07f316869feab8891ef521b678"
    "bf7be5ff835f290e20fc7fc90b7d40541bfdef8aa5a2f647f6a95083865d7719"
    "680b4bb4642bfa19038741c544651a4042a639d62e3bbf5104b87b59332edb8d"
    "db5f9eb2f5a1273ebe2ebf5b27c2b3238d2ac8cb7d79da12255e7cce1534b1ea"
    "544241fe0c6a32837a469e795193adeb2e2f79bc9252ba4d033b445c1bc7cd4f"
    "608667a9bec53671b41a62d830c3584662955acbc962657a70e53d84bfd75a3f"
    "dcae2030a10c81c62d6b913ec9c963758ad8ab3eff0344024f0f3bb3d0138caf"
    "d3c79dcc822a75ad1936b91cf9b7f7cbd2c5cc9e4f10097fa78d86521b0f4638"
    "b610f23f83e81861a43b1f8c61395974274264a75e2f7705372daeaf04861ac0"
    "03ab1a5013b37a9fe7a367f59a8f9106ac8c9a3f4f6c2b29b6c863c97f5e0000"
    "0b00000876616c75652d3231";
constexpr char kMbtPointProof[] =
    "c667c2b4e45280036a13bed696443152f6c41fde7953182f2f80bf9254014a3b"
    "020180019c3439574880c89974004dda1623ab1da2301d80c1bc47268ca9b648"
    "e3d21d842ec6c7659c772dd5aa21dddafd4fb081f1faf231944c0cfdb8301ff8"
    "f9b7956a9ce21faaf107ccfc26a5393574d5f7d8b5e4bd4c70e4b6eebe5271b4"
    "7b54922b85a8dd60783841365c17dbca304328ccf75eb5f6f9671eb623e24590"
    "8bd7f10a9b0213056b657930310776616c75652d31056b657930320776616c75"
    "652d32056b657930350776616c75652d35056b657931320876616c75652d3132"
    "056b657931340876616c75652d3134056b657931350876616c75652d3135056b"
    "657931360876616c75652d3136056b657931370876616c75652d3137056b6579"
    "32310876616c75652d3231056b657932350876616c75652d3235056b65793237"
    "0876616c75652d3237056b657932390876616c75652d3239056b657933310876"
    "616c75652d3331056b657933340876616c75652d3334056b657933360876616c"
    "75652d3336056b657934390876616c75652d3439056b657935360876616c7565"
    "2d3536056b657935380876616c75652d3538056b657935390876616c75652d35"
    "39";
constexpr char kJournalEntryProof[] =
    "2a0000036b3231cb7978cf817f9e45b8d90149f1bd07e3d2b19ce16431c843ab"
    "10ecb493ac27209e03c7010206841a40e2836ef872c6c744c992aa277f3918c7"
    "508e0595e380e5807e8b6a183e7e6e0081e232f4420e968b4f3240a5edd25efc"
    "62b6646ec4ec92c0802932a62bea070103028bbc6a0cb8a75d33b65bbec84a06"
    "c12500d489c5ee4d6206323145e5851f0bbc8c2e0a84649626afc49063bae99b"
    "c3083a7c009d749cb7d5e0bd9485d07d8a20020503b7723f08062c977c53f346"
    "214aa7f70cbbf5777f3d438e7a8b81e2801241af962e1d6e8ed11eec4aba9261"
    "fe8b62b7b171f831f3ef0c31f9e6b45936a5d2b19b5a6099438a5963d64a8c1a"
    "ec755238eb919a91c532012c1e42a9fb059f55c8fc";
constexpr char kJournalConsistencyProof[] =
    "020502243f009385b76ddaba0c63e5e37485e6d29ac37630fe15009bec559b3c"
    "3c9e515a6099438a5963d64a8c1aec755238eb919a91c532012c1e42a9fb059f"
    "55c8fc";

// Roots and digests the goldens prove against (the client's trusted
// state).
constexpr char kPosRoot[] =
    "ab814c92368acf1e74e8f37738602074e1ebf1d2dac36fd843294c8973405249";
constexpr char kMptRoot[] =
    "0d38f79accc816555532affbc0c7986e62acc42903776b7005ad9c81c88b731d";
constexpr char kMbtRoot[] =
    "c667c2b4e45280036a13bed696443152f6c41fde7953182f2f80bf9254014a3b";
constexpr char kJournalRootAtTwo[] =
    "2e1d6e8ed11eec4aba9261fe8b62b7b171f831f3ef0c31f9e6b45936a5d2b19b";
constexpr char kJournalRootAtFive[] =
    "5b0bb9f9e6e26c5ea7bded7195f59db2ac7212afdb648f880e7b027cd0927bb3";

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Hash256 HashOf(const char* hex) { return Hash256::FromBytes(Unhex(hex)); }

// key00 -> value-0 ... key63 -> value-63.
std::vector<PosEntry> Entries() {
  std::vector<PosEntry> entries;
  for (int i = 0; i < 64; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%02d", i);
    entries.push_back(PosEntry{key, "value-" + std::to_string(i)});
  }
  return entries;
}

JournalDigest DigestOf(uint64_t block_count, const char* merkle_root) {
  JournalDigest digest;
  digest.block_count = block_count;
  digest.merkle_root = HashOf(merkle_root);
  return digest;
}

// A ReadProof of `key` -> `value` that is exactly `bytes`, against
// `root`, as a client's VerifyRead checks it.
Status CheckReadProof(const std::string& bytes, const Hash256& root,
                      const std::string& key, const std::string& value) {
  Slice input(bytes);
  ReadProof proof;
  Status s = ReadProof::DecodeFrom(&input, &proof);
  if (s.ok()) s = CheckConsumed(input, "read proof");
  if (!s.ok()) return s;
  if (proof.index_root != root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  return proof.index_proof.Verify(root, key, value);
}

// A ScanProof of [key10, key20) that is exactly `bytes`, against the
// POS root.
Status CheckScanProof(const std::string& bytes) {
  Slice input(bytes);
  ScanProof proof;
  Status s = ScanProof::DecodeFrom(&input, &proof);
  if (s.ok()) s = CheckConsumed(input, "scan proof");
  if (!s.ok()) return s;
  const Hash256 root = HashOf(kPosRoot);
  if (proof.index_root != root) {
    return Status::VerificationFailed("proof is for a different version");
  }
  const std::vector<PosEntry> all = Entries();
  const std::vector<PosEntry> rows(all.begin() + 10, all.begin() + 20);
  return proof.index_proof.Verify(root, "key10", "key20", 0, rows);
}

// varint leaf_index, varint tree_size, varint n, then n hashes.
Status GetInclusionPath(Slice* input, MerkleInclusionProof* path) {
  uint64_t n = 0;
  Status s = GetVarint64(input, &path->leaf_index);
  if (s.ok()) s = GetVarint64(input, &path->tree_size);
  if (s.ok()) s = GetCount(input, Hash256::kSize, &n);
  path->path.resize(s.ok() ? n : 0);
  for (Hash256& hash : path->path) {
    if (s.ok()) s = GetHash256(input, &hash);
  }
  return s;
}

// lp(the entry's stored form against a default entry), varint
// block_height, varint first_seq, prev_hash, index_root, varint
// block_timestamp, the entry path, the block path. No check reads
// entry_index; it is the entry path's leaf index.
Status JournalEntryProofFrom(const std::string& bytes, LedgerEntry* entry,
                             JournalEntryProof* proof) {
  Slice input(bytes), stored;
  Status s = GetLengthPrefixedSlice(&input, &stored);
  if (s.ok()) s = LedgerEntry::DecodeFrom(&stored, LedgerEntry(), entry);
  if (s.ok()) s = CheckConsumed(stored, "ledger entry");
  if (s.ok()) s = GetVarint64(&input, &proof->block_height);
  if (s.ok()) s = GetVarint64(&input, &proof->first_seq);
  if (s.ok()) s = GetHash256(&input, &proof->prev_hash);
  if (s.ok()) s = GetHash256(&input, &proof->index_root);
  if (s.ok()) s = GetVarint64(&input, &proof->block_timestamp);
  if (s.ok()) s = GetInclusionPath(&input, &proof->entry_path);
  if (s.ok()) s = GetInclusionPath(&input, &proof->block_path);
  if (s.ok()) s = CheckConsumed(input, "journal entry proof");
  proof->entry_index = proof->entry_path.leaf_index;
  return s;
}

Status CheckJournalEntryProof(const std::string& bytes) {
  LedgerEntry entry;
  JournalEntryProof proof;
  Status s = JournalEntryProofFrom(bytes, &entry, &proof);
  if (!s.ok()) return s;
  return VerifyJournalEntry(entry, proof, DigestOf(5, kJournalRootAtFive));
}

// varint old_size, varint new_size, varint n, then n hashes.
Status CheckConsistencyProof(const std::string& bytes) {
  Slice input(bytes);
  MerkleConsistencyProof proof;
  uint64_t n = 0;
  Status s = GetVarint64(&input, &proof.old_size);
  if (s.ok()) s = GetVarint64(&input, &proof.new_size);
  if (s.ok()) s = GetCount(&input, Hash256::kSize, &n);
  proof.path.resize(s.ok() ? n : 0);
  for (Hash256& hash : proof.path) {
    if (s.ok()) s = GetHash256(&input, &hash);
  }
  if (s.ok()) s = CheckConsumed(input, "consistency proof");
  if (!s.ok()) return s;
  if (!VerifyJournalConsistency(proof, DigestOf(2, kJournalRootAtTwo),
                                DigestOf(5, kJournalRootAtFive))) {
    return Status::VerificationFailed("journal consistency");
  }
  return Status::OK();
}

// The golden verifies; each of its bytes with any one bit flipped does
// not.
void ExpectGoldenVerifiesAndEveryFlipIsRefused(
    const char* golden_hex,
    const std::function<Status(const std::string&)>& check) {
  const std::string golden = Unhex(golden_hex);
  const Status honest = check(golden);
  ASSERT_TRUE(honest.ok()) << honest.ToString();
  for (size_t i = 0; i < golden.size(); i++) {
    for (int bit = 0; bit < 8; bit++) {
      std::string flipped = golden;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(check(flipped).ok()) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(ProofFormatTest, PosPointProof) {
  ExpectGoldenVerifiesAndEveryFlipIsRefused(
      kPosPointProof, [](const std::string& bytes) {
        return CheckReadProof(bytes, HashOf(kPosRoot), "key21", "value-21");
      });
}

TEST(ProofFormatTest, PosRangeProof) {
  ExpectGoldenVerifiesAndEveryFlipIsRefused(kPosRangeProof, CheckScanProof);
}

TEST(ProofFormatTest, MptPointProof) {
  ExpectGoldenVerifiesAndEveryFlipIsRefused(
      kMptPointProof, [](const std::string& bytes) {
        return CheckReadProof(bytes, HashOf(kMptRoot), "key21", "value-21");
      });
}

TEST(ProofFormatTest, MbtPointProof) {
  ExpectGoldenVerifiesAndEveryFlipIsRefused(
      kMbtPointProof, [](const std::string& bytes) {
        return CheckReadProof(bytes, HashOf(kMbtRoot), "key21", "value-21");
      });
}

TEST(ProofFormatTest, JournalEntryProof) {
  ExpectGoldenVerifiesAndEveryFlipIsRefused(kJournalEntryProof,
                                            CheckJournalEntryProof);
}

TEST(ProofFormatTest, JournalConsistencyProof) {
  ExpectGoldenVerifiesAndEveryFlipIsRefused(kJournalConsistencyProof,
                                            CheckConsistencyProof);
}

}  // namespace
}  // namespace spitz
