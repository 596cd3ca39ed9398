#include "index/mpt.h"

#include <algorithm>

#include "common/codec.h"

namespace spitz {

namespace {

size_t CommonPrefix(const std::vector<uint8_t>& a, size_t a_pos,
                    const std::vector<uint8_t>& b, size_t b_pos) {
  size_t n = std::min(a.size() - a_pos, b.size() - b_pos);
  size_t i = 0;
  while (i < n && a[a_pos + i] == b[b_pos + i]) i++;
  return i;
}

}  // namespace

std::vector<uint8_t> MerklePatriciaTrie::ToNibbles(const Slice& key) {
  std::vector<uint8_t> nibbles;
  nibbles.reserve(key.size() * 2);
  for (size_t i = 0; i < key.size(); i++) {
    uint8_t b = static_cast<uint8_t>(key[i]);
    nibbles.push_back(b >> 4);
    nibbles.push_back(b & 0x0f);
  }
  return nibbles;
}

std::string MerklePatriciaTrie::EncodeNode(const Node& node) {
  std::string out;
  out.push_back(static_cast<char>(node.kind));
  const Slice path(reinterpret_cast<const char*>(node.path.data()),
                   node.path.size());
  switch (node.kind) {
    case NodeKind::kLeaf:
      PutLengthPrefixedSlice(&out, path);
      PutLengthPrefixedSlice(&out, node.value);
      break;
    case NodeKind::kExtension:
      PutLengthPrefixedSlice(&out, path);
      out.append(node.child.ToBytes());
      break;
    case NodeKind::kBranch: {
      uint16_t mask = 0;
      for (int i = 0; i < 16; i++) {
        if (!node.children[i].IsZero()) mask |= (1u << i);
      }
      PutFixed32(&out, mask);
      for (int i = 0; i < 16; i++) {
        if (!node.children[i].IsZero()) out.append(node.children[i].ToBytes());
      }
      out.push_back(node.has_value ? 1 : 0);
      if (node.has_value) PutLengthPrefixedSlice(&out, node.value);
      break;
    }
  }
  return out;
}

Status MerklePatriciaTrie::DecodeNode(const Slice& payload, Node* node) {
  Slice input = payload;
  uint8_t kind = 0;
  Slice path, value;
  Status s = GetByte(&input, &kind);
  if (!s.ok()) return s;
  node->kind = static_cast<NodeKind>(kind);
  switch (node->kind) {
    case NodeKind::kLeaf:
      s = GetLengthPrefixedSlice(&input, &path);
      if (s.ok()) s = GetLengthPrefixedSlice(&input, &value);
      break;
    case NodeKind::kExtension:
      s = GetLengthPrefixedSlice(&input, &path);
      if (s.ok()) s = GetHash256(&input, &node->child);
      break;
    case NodeKind::kBranch: {
      uint32_t mask = 0;
      s = GetFixed32(&input, &mask);
      if (s.ok() && mask > 0xffff) s = Status::Corruption("bad branch mask");
      // EncodeNode sets a mask bit for each non-zero child, and only then.
      for (int i = 0; s.ok() && i < 16; i++) {
        node->children[i] = Hash256();
        if ((mask & (1u << i)) == 0) continue;
        s = GetHash256(&input, &node->children[i]);
        if (s.ok() && node->children[i].IsZero()) {
          s = Status::Corruption("zero branch child");
        }
      }
      if (s.ok()) s = GetBool(&input, &node->has_value);
      if (s.ok() && node->has_value) s = GetLengthPrefixedSlice(&input, &value);
      break;
    }
    default:
      return Status::Corruption("unknown trie node kind");
  }
  if (s.ok()) s = CheckConsumed(input, "trie node");
  if (!s.ok()) return s;
  node->path.assign(path.data(), path.data() + path.size());
  node->value = value.ToString();
  return Status::OK();
}

Status MerklePatriciaTrie::LoadNode(const Hash256& id, Node* node) const {
  std::shared_ptr<const Chunk> chunk;
  Status s = store_->Get(id, &chunk);
  if (!s.ok()) return s;
  if (chunk->type() != ChunkType::kTrieNode) {
    return Status::Corruption("not a trie node");
  }
  return DecodeNode(chunk->data(), node);
}

Hash256 MerklePatriciaTrie::StoreNode(const Node& node) const {
  return store_->Put(Chunk(ChunkType::kTrieNode, EncodeNode(node)));
}

Status MerklePatriciaTrie::Get(const Hash256& root, const Slice& key,
                               std::string* value, Proof* proof) const {
  if (proof != nullptr) proof->nodes.clear();
  if (root.IsZero()) return Status::NotFound("empty trie");
  std::vector<uint8_t> nibbles = ToNibbles(key);
  Hash256 id = root;
  size_t pos = 0;
  while (true) {
    std::shared_ptr<const Chunk> chunk;
    Status s = store_->Get(id, &chunk);
    if (!s.ok()) return s;
    Node node;
    s = DecodeNode(chunk->data(), &node);
    if (!s.ok()) return s;
    if (proof != nullptr) {
      const uint8_t type = static_cast<uint8_t>(chunk->type());
      const Slice payload = chunk->data();
      proof->nodes.push_back(ProofNode{type, payload, std::move(chunk)});
    }
    switch (node.kind) {
      case NodeKind::kLeaf: {
        if (nibbles.size() - pos == node.path.size() &&
            std::equal(node.path.begin(), node.path.end(),
                       nibbles.begin() + pos)) {
          *value = node.value;
          return Status::OK();
        }
        return Status::NotFound("key absent");
      }
      case NodeKind::kExtension: {
        if (nibbles.size() - pos < node.path.size() ||
            !std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + pos)) {
          return Status::NotFound("key absent");
        }
        pos += node.path.size();
        id = node.child;
        break;
      }
      case NodeKind::kBranch: {
        if (pos == nibbles.size()) {
          if (node.has_value) {
            *value = node.value;
            return Status::OK();
          }
          return Status::NotFound("key absent");
        }
        uint8_t nib = nibbles[pos];
        if (node.children[nib].IsZero()) {
          return Status::NotFound("key absent");
        }
        pos++;
        id = node.children[nib];
        break;
      }
    }
  }
}

Status MerklePatriciaTrie::InsertAt(const Hash256& id,
                                    const std::vector<uint8_t>& nibbles,
                                    size_t pos, const Slice& value,
                                    Hash256* out) const {
  if (id.IsZero()) {
    Node leaf;
    leaf.kind = NodeKind::kLeaf;
    leaf.path.assign(nibbles.begin() + pos, nibbles.end());
    leaf.value = value.ToString();
    *out = StoreNode(leaf);
    return Status::OK();
  }
  Node node;
  Status s = LoadNode(id, &node);
  if (!s.ok()) return s;

  switch (node.kind) {
    case NodeKind::kLeaf: {
      size_t common = CommonPrefix(nibbles, pos, node.path, 0);
      if (common == node.path.size() && pos + common == nibbles.size()) {
        // Same key: overwrite.
        Node leaf = node;
        leaf.value = value.ToString();
        *out = StoreNode(leaf);
        return Status::OK();
      }
      // Split into branch (possibly under an extension for the common
      // prefix).
      Node branch;
      branch.kind = NodeKind::kBranch;
      // Existing leaf's continuation.
      if (common == node.path.size()) {
        branch.has_value = true;
        branch.value = node.value;
      } else {
        Node old_leaf;
        old_leaf.kind = NodeKind::kLeaf;
        old_leaf.path.assign(node.path.begin() + common + 1, node.path.end());
        old_leaf.value = node.value;
        branch.children[node.path[common]] = StoreNode(old_leaf);
      }
      // New key's continuation.
      if (pos + common == nibbles.size()) {
        branch.has_value = true;
        branch.value = value.ToString();
      } else {
        Node new_leaf;
        new_leaf.kind = NodeKind::kLeaf;
        new_leaf.path.assign(nibbles.begin() + pos + common + 1,
                             nibbles.end());
        new_leaf.value = value.ToString();
        branch.children[nibbles[pos + common]] = StoreNode(new_leaf);
      }
      Hash256 branch_id = StoreNode(branch);
      if (common > 0) {
        Node ext;
        ext.kind = NodeKind::kExtension;
        ext.path.assign(node.path.begin(), node.path.begin() + common);
        ext.child = branch_id;
        *out = StoreNode(ext);
      } else {
        *out = branch_id;
      }
      return Status::OK();
    }
    case NodeKind::kExtension: {
      size_t common = CommonPrefix(nibbles, pos, node.path, 0);
      if (common == node.path.size()) {
        Hash256 new_child;
        s = InsertAt(node.child, nibbles, pos + common, value, &new_child);
        if (!s.ok()) return s;
        Node ext = node;
        ext.child = new_child;
        *out = StoreNode(ext);
        return Status::OK();
      }
      // Split the extension.
      Node branch;
      branch.kind = NodeKind::kBranch;
      // The existing extension's remainder.
      uint8_t old_nib = node.path[common];
      if (common + 1 == node.path.size()) {
        branch.children[old_nib] = node.child;
      } else {
        Node tail;
        tail.kind = NodeKind::kExtension;
        tail.path.assign(node.path.begin() + common + 1, node.path.end());
        tail.child = node.child;
        branch.children[old_nib] = StoreNode(tail);
      }
      // The new key's remainder.
      if (pos + common == nibbles.size()) {
        branch.has_value = true;
        branch.value = value.ToString();
      } else {
        Node leaf;
        leaf.kind = NodeKind::kLeaf;
        leaf.path.assign(nibbles.begin() + pos + common + 1, nibbles.end());
        leaf.value = value.ToString();
        branch.children[nibbles[pos + common]] = StoreNode(leaf);
      }
      Hash256 branch_id = StoreNode(branch);
      if (common > 0) {
        Node ext;
        ext.kind = NodeKind::kExtension;
        ext.path.assign(node.path.begin(), node.path.begin() + common);
        ext.child = branch_id;
        *out = StoreNode(ext);
      } else {
        *out = branch_id;
      }
      return Status::OK();
    }
    case NodeKind::kBranch: {
      Node branch = node;
      if (pos == nibbles.size()) {
        branch.has_value = true;
        branch.value = value.ToString();
      } else {
        uint8_t nib = nibbles[pos];
        Hash256 new_child;
        s = InsertAt(node.children[nib], nibbles, pos + 1, value, &new_child);
        if (!s.ok()) return s;
        branch.children[nib] = new_child;
      }
      *out = StoreNode(branch);
      return Status::OK();
    }
  }
  return Status::Corruption("unknown trie node kind");
}

Status MerklePatriciaTrie::Put(const Hash256& root, const Slice& key,
                               const Slice& value, Hash256* new_root) const {
  std::vector<uint8_t> nibbles = ToNibbles(key);
  return InsertAt(root, nibbles, 0, value, new_root);
}

Status MerklePatriciaTrie::Normalize(const Node& node, Hash256* out) const {
  // Count branch children.
  int child_count = 0;
  int only_child = -1;
  for (int i = 0; i < 16; i++) {
    if (!node.children[i].IsZero()) {
      child_count++;
      only_child = i;
    }
  }
  if (child_count == 0 && !node.has_value) {
    *out = Hash256();  // empty
    return Status::OK();
  }
  if (child_count == 0 && node.has_value) {
    Node leaf;
    leaf.kind = NodeKind::kLeaf;
    leaf.value = node.value;
    *out = StoreNode(leaf);
    return Status::OK();
  }
  if (child_count == 1 && !node.has_value) {
    // Merge with the single child: prepend its nibble to the child.
    Node child;
    Status s = LoadNode(node.children[only_child], &child);
    if (!s.ok()) return s;
    uint8_t nib = static_cast<uint8_t>(only_child);
    switch (child.kind) {
      case NodeKind::kLeaf: {
        Node leaf = child;
        leaf.path.insert(leaf.path.begin(), nib);
        *out = StoreNode(leaf);
        return Status::OK();
      }
      case NodeKind::kExtension: {
        Node ext = child;
        ext.path.insert(ext.path.begin(), nib);
        *out = StoreNode(ext);
        return Status::OK();
      }
      case NodeKind::kBranch: {
        Node ext;
        ext.kind = NodeKind::kExtension;
        ext.path.push_back(nib);
        ext.child = node.children[only_child];
        *out = StoreNode(ext);
        return Status::OK();
      }
    }
    return Status::Corruption("unknown trie node kind");
  }
  *out = StoreNode(node);
  return Status::OK();
}

Status MerklePatriciaTrie::DeleteAt(const Hash256& id,
                                    const std::vector<uint8_t>& nibbles,
                                    size_t pos, Hash256* out) const {
  if (id.IsZero()) return Status::NotFound("key absent");
  Node node;
  Status s = LoadNode(id, &node);
  if (!s.ok()) return s;

  switch (node.kind) {
    case NodeKind::kLeaf: {
      if (nibbles.size() - pos == node.path.size() &&
          std::equal(node.path.begin(), node.path.end(),
                     nibbles.begin() + pos)) {
        *out = Hash256();
        return Status::OK();
      }
      return Status::NotFound("key absent");
    }
    case NodeKind::kExtension: {
      if (nibbles.size() - pos < node.path.size() ||
          !std::equal(node.path.begin(), node.path.end(),
                      nibbles.begin() + pos)) {
        return Status::NotFound("key absent");
      }
      Hash256 new_child;
      s = DeleteAt(node.child, nibbles, pos + node.path.size(), &new_child);
      if (!s.ok()) return s;
      if (new_child.IsZero()) {
        *out = Hash256();
        return Status::OK();
      }
      // The child may have collapsed into a leaf/extension: merge paths
      // to keep the trie canonical.
      Node child;
      s = LoadNode(new_child, &child);
      if (!s.ok()) return s;
      if (child.kind == NodeKind::kBranch) {
        Node ext = node;
        ext.child = new_child;
        *out = StoreNode(ext);
      } else {
        Node merged = child;
        merged.path.insert(merged.path.begin(), node.path.begin(),
                           node.path.end());
        *out = StoreNode(merged);
      }
      return Status::OK();
    }
    case NodeKind::kBranch: {
      Node branch = node;
      if (pos == nibbles.size()) {
        if (!node.has_value) return Status::NotFound("key absent");
        branch.has_value = false;
        branch.value.clear();
      } else {
        uint8_t nib = nibbles[pos];
        if (node.children[nib].IsZero()) {
          return Status::NotFound("key absent");
        }
        Hash256 new_child;
        s = DeleteAt(node.children[nib], nibbles, pos + 1, &new_child);
        if (!s.ok()) return s;
        branch.children[nib] = new_child;
      }
      return Normalize(branch, out);
    }
  }
  return Status::Corruption("unknown trie node kind");
}

Status MerklePatriciaTrie::Delete(const Hash256& root, const Slice& key,
                                  Hash256* new_root) const {
  std::vector<uint8_t> nibbles = ToNibbles(key);
  return DeleteAt(root, nibbles, 0, new_root);
}

Status MerklePatriciaTrie::VerifyProof(
    const Hash256& root, const Slice& key,
    const std::optional<std::string>& expected_value, const Proof& proof) {
  if (proof.nodes.empty()) {
    return Status::VerificationFailed("empty proof");
  }
  if (Chunk::IdOf(ChunkType::kTrieNode, proof.nodes[0].payload) != root) {
    return Status::VerificationFailed("proof root mismatch");
  }
  std::vector<uint8_t> nibbles = ToNibbles(key);
  size_t pos = 0;
  for (size_t i = 0; i < proof.nodes.size(); i++) {
    Node node;
    Status s = DecodeNode(proof.nodes[i].payload, &node);
    if (!s.ok()) return Status::VerificationFailed("bad proof node");
    bool last = (i + 1 == proof.nodes.size());
    switch (node.kind) {
      case NodeKind::kLeaf: {
        if (!last) return Status::VerificationFailed("leaf before proof end");
        bool match = nibbles.size() - pos == node.path.size() &&
                     std::equal(node.path.begin(), node.path.end(),
                                nibbles.begin() + pos);
        if (expected_value.has_value()) {
          if (!match || node.value != *expected_value) {
            return Status::VerificationFailed("value mismatch");
          }
        } else if (match) {
          return Status::VerificationFailed("proof shows key present");
        }
        return Status::OK();
      }
      case NodeKind::kExtension: {
        bool match = nibbles.size() - pos >= node.path.size() &&
                     std::equal(node.path.begin(), node.path.end(),
                                nibbles.begin() + pos);
        if (!match) {
          if (last && !expected_value.has_value()) return Status::OK();
          return Status::VerificationFailed("extension diverges");
        }
        pos += node.path.size();
        if (last) {
          if (!expected_value.has_value()) {
            return Status::VerificationFailed("proof truncated");
          }
          return Status::VerificationFailed("proof truncated");
        }
        Hash256 next =
            Chunk::IdOf(ChunkType::kTrieNode, proof.nodes[i + 1].payload);
        if (node.child != next) {
          return Status::VerificationFailed("broken hash link");
        }
        break;
      }
      case NodeKind::kBranch: {
        if (pos == nibbles.size()) {
          if (!last) {
            return Status::VerificationFailed("proof continues past key");
          }
          if (expected_value.has_value()) {
            if (!node.has_value || node.value != *expected_value) {
              return Status::VerificationFailed("value mismatch");
            }
          } else if (node.has_value) {
            return Status::VerificationFailed("proof shows key present");
          }
          return Status::OK();
        }
        uint8_t nib = nibbles[pos];
        if (node.children[nib].IsZero()) {
          if (last && !expected_value.has_value()) return Status::OK();
          return Status::VerificationFailed("branch has no such child");
        }
        if (last) {
          return Status::VerificationFailed("proof truncated");
        }
        Hash256 next =
            Chunk::IdOf(ChunkType::kTrieNode, proof.nodes[i + 1].payload);
        if (node.children[nib] != next) {
          return Status::VerificationFailed("broken hash link");
        }
        pos++;
        break;
      }
    }
  }
  return Status::VerificationFailed("malformed proof");
}

Status MerklePatriciaTrie::Count(const Hash256& root, uint64_t* count) const {
  *count = 0;
  if (root.IsZero()) return Status::OK();
  Node node;
  Status s = LoadNode(root, &node);
  if (!s.ok()) return s;
  switch (node.kind) {
    case NodeKind::kLeaf:
      *count = 1;
      return Status::OK();
    case NodeKind::kExtension:
      return Count(node.child, count);
    case NodeKind::kBranch: {
      uint64_t total = node.has_value ? 1 : 0;
      for (int i = 0; i < 16; i++) {
        if (!node.children[i].IsZero()) {
          uint64_t sub = 0;
          s = Count(node.children[i], &sub);
          if (!s.ok()) return s;
          total += sub;
        }
      }
      *count = total;
      return Status::OK();
    }
  }
  return Status::Corruption("unknown trie node kind");
}

Status MerklePatriciaTrie::CollectChunks(
    const Hash256& root,
    std::unordered_set<Hash256, Hash256Hasher>* live) const {
  if (root.IsZero()) return Status::OK();
  if (!live->insert(root).second) return Status::OK();  // shared subtree
  Node node;
  Status s = LoadNode(root, &node);
  if (!s.ok()) return s;
  switch (node.kind) {
    case NodeKind::kLeaf:
      return Status::OK();
    case NodeKind::kExtension:
      return CollectChunks(node.child, live);
    case NodeKind::kBranch: {
      for (int i = 0; i < 16; i++) {
        if (!node.children[i].IsZero()) {
          s = CollectChunks(node.children[i], live);
          if (!s.ok()) return s;
        }
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown trie node kind");
}

}  // namespace spitz
