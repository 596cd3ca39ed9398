#include "index/mpt.h"

#include <algorithm>

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

Status MerklePatriciaTrie::LoadNode(const Hash256& id, MptNode* node) const {
  std::shared_ptr<const Chunk> chunk;
  Status s = store_->Get(id, &chunk);
  if (!s.ok()) return s;
  if (chunk->type() != ChunkType::kTrieNode) {
    return Status::Corruption("not a trie node");
  }
  return DecodeMptNode(chunk->data(), node);
}

Hash256 MerklePatriciaTrie::StoreNode(const MptNode& node) const {
  return store_->Put(Chunk(ChunkType::kTrieNode, EncodeMptNode(node)));
}

Status MerklePatriciaTrie::Get(const Hash256& root, const Slice& key,
                               std::string* value, MptProof* proof) const {
  if (proof != nullptr) proof->nodes.clear();
  if (root.IsZero()) return Status::NotFound("empty trie");
  std::vector<uint8_t> nibbles = MptNibbles(key);
  Hash256 id = root;
  size_t pos = 0;
  while (true) {
    std::shared_ptr<const Chunk> chunk;
    Status s = store_->Get(id, &chunk);
    if (!s.ok()) return s;
    MptNode node;
    s = DecodeMptNode(chunk->data(), &node);
    if (!s.ok()) return s;
    if (proof != nullptr) {
      const uint8_t type = static_cast<uint8_t>(chunk->type());
      const Slice payload = chunk->data();
      proof->nodes.push_back(ProofNode{type, payload, std::move(chunk)});
    }
    switch (node.kind) {
      case MptNodeKind::kLeaf: {
        if (nibbles.size() - pos == node.path.size() &&
            std::equal(node.path.begin(), node.path.end(),
                       nibbles.begin() + pos)) {
          *value = node.value;
          return Status::OK();
        }
        return Status::NotFound("key absent");
      }
      case MptNodeKind::kExtension: {
        if (nibbles.size() - pos < node.path.size() ||
            !std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + pos)) {
          return Status::NotFound("key absent");
        }
        pos += node.path.size();
        id = node.child;
        break;
      }
      case MptNodeKind::kBranch: {
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
    MptNode leaf;
    leaf.kind = MptNodeKind::kLeaf;
    leaf.path.assign(nibbles.begin() + pos, nibbles.end());
    leaf.value = value.ToString();
    *out = StoreNode(leaf);
    return Status::OK();
  }
  MptNode node;
  Status s = LoadNode(id, &node);
  if (!s.ok()) return WritePathStatus(s);

  switch (node.kind) {
    case MptNodeKind::kLeaf: {
      size_t common = CommonPrefix(nibbles, pos, node.path, 0);
      if (common == node.path.size() && pos + common == nibbles.size()) {
        // Same key: overwrite.
        MptNode leaf = node;
        leaf.value = value.ToString();
        *out = StoreNode(leaf);
        return Status::OK();
      }
      // Split into branch (possibly under an extension for the common
      // prefix).
      MptNode branch;
      branch.kind = MptNodeKind::kBranch;
      // Existing leaf's continuation.
      if (common == node.path.size()) {
        branch.has_value = true;
        branch.value = node.value;
      } else {
        MptNode old_leaf;
        old_leaf.kind = MptNodeKind::kLeaf;
        old_leaf.path.assign(node.path.begin() + common + 1, node.path.end());
        old_leaf.value = node.value;
        branch.children[node.path[common]] = StoreNode(old_leaf);
      }
      // New key's continuation.
      if (pos + common == nibbles.size()) {
        branch.has_value = true;
        branch.value = value.ToString();
      } else {
        MptNode new_leaf;
        new_leaf.kind = MptNodeKind::kLeaf;
        new_leaf.path.assign(nibbles.begin() + pos + common + 1,
                             nibbles.end());
        new_leaf.value = value.ToString();
        branch.children[nibbles[pos + common]] = StoreNode(new_leaf);
      }
      Hash256 branch_id = StoreNode(branch);
      if (common > 0) {
        MptNode ext;
        ext.kind = MptNodeKind::kExtension;
        ext.path.assign(node.path.begin(), node.path.begin() + common);
        ext.child = branch_id;
        *out = StoreNode(ext);
      } else {
        *out = branch_id;
      }
      return Status::OK();
    }
    case MptNodeKind::kExtension: {
      size_t common = CommonPrefix(nibbles, pos, node.path, 0);
      if (common == node.path.size()) {
        Hash256 new_child;
        s = InsertAt(node.child, nibbles, pos + common, value, &new_child);
        if (!s.ok()) return s;
        MptNode ext = node;
        ext.child = new_child;
        *out = StoreNode(ext);
        return Status::OK();
      }
      // Split the extension.
      MptNode branch;
      branch.kind = MptNodeKind::kBranch;
      // The existing extension's remainder.
      uint8_t old_nib = node.path[common];
      if (common + 1 == node.path.size()) {
        branch.children[old_nib] = node.child;
      } else {
        MptNode tail;
        tail.kind = MptNodeKind::kExtension;
        tail.path.assign(node.path.begin() + common + 1, node.path.end());
        tail.child = node.child;
        branch.children[old_nib] = StoreNode(tail);
      }
      // The new key's remainder.
      if (pos + common == nibbles.size()) {
        branch.has_value = true;
        branch.value = value.ToString();
      } else {
        MptNode leaf;
        leaf.kind = MptNodeKind::kLeaf;
        leaf.path.assign(nibbles.begin() + pos + common + 1, nibbles.end());
        leaf.value = value.ToString();
        branch.children[nibbles[pos + common]] = StoreNode(leaf);
      }
      Hash256 branch_id = StoreNode(branch);
      if (common > 0) {
        MptNode ext;
        ext.kind = MptNodeKind::kExtension;
        ext.path.assign(node.path.begin(), node.path.begin() + common);
        ext.child = branch_id;
        *out = StoreNode(ext);
      } else {
        *out = branch_id;
      }
      return Status::OK();
    }
    case MptNodeKind::kBranch: {
      MptNode branch = node;
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
  std::vector<uint8_t> nibbles = MptNibbles(key);
  return InsertAt(root, nibbles, 0, value, new_root);
}

Status MerklePatriciaTrie::Normalize(const MptNode& node, Hash256* out) const {
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
    MptNode leaf;
    leaf.kind = MptNodeKind::kLeaf;
    leaf.value = node.value;
    *out = StoreNode(leaf);
    return Status::OK();
  }
  if (child_count == 1 && !node.has_value) {
    // Merge with the single child: prepend its nibble to the child.
    MptNode child;
    Status s = LoadNode(node.children[only_child], &child);
    if (!s.ok()) return WritePathStatus(s);
    uint8_t nib = static_cast<uint8_t>(only_child);
    switch (child.kind) {
      case MptNodeKind::kLeaf: {
        MptNode leaf = child;
        leaf.path.insert(leaf.path.begin(), nib);
        *out = StoreNode(leaf);
        return Status::OK();
      }
      case MptNodeKind::kExtension: {
        MptNode ext = child;
        ext.path.insert(ext.path.begin(), nib);
        *out = StoreNode(ext);
        return Status::OK();
      }
      case MptNodeKind::kBranch: {
        MptNode ext;
        ext.kind = MptNodeKind::kExtension;
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
  MptNode node;
  Status s = LoadNode(id, &node);
  if (!s.ok()) return WritePathStatus(s);

  switch (node.kind) {
    case MptNodeKind::kLeaf: {
      if (nibbles.size() - pos == node.path.size() &&
          std::equal(node.path.begin(), node.path.end(),
                     nibbles.begin() + pos)) {
        *out = Hash256();
        return Status::OK();
      }
      return Status::NotFound("key absent");
    }
    case MptNodeKind::kExtension: {
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
      MptNode child;
      s = LoadNode(new_child, &child);
      if (!s.ok()) return WritePathStatus(s);
      if (child.kind == MptNodeKind::kBranch) {
        MptNode ext = node;
        ext.child = new_child;
        *out = StoreNode(ext);
      } else {
        MptNode merged = child;
        merged.path.insert(merged.path.begin(), node.path.begin(),
                           node.path.end());
        *out = StoreNode(merged);
      }
      return Status::OK();
    }
    case MptNodeKind::kBranch: {
      MptNode branch = node;
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
  std::vector<uint8_t> nibbles = MptNibbles(key);
  return DeleteAt(root, nibbles, 0, new_root);
}

Status MerklePatriciaTrie::Count(const Hash256& root, uint64_t* count) const {
  *count = 0;
  if (root.IsZero()) return Status::OK();
  MptNode node;
  Status s = LoadNode(root, &node);
  if (!s.ok()) return s;
  switch (node.kind) {
    case MptNodeKind::kLeaf:
      *count = 1;
      return Status::OK();
    case MptNodeKind::kExtension:
      return Count(node.child, count);
    case MptNodeKind::kBranch: {
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
  MptNode node;
  Status s = LoadNode(root, &node);
  if (!s.ok()) return s;
  switch (node.kind) {
    case MptNodeKind::kLeaf:
      return Status::OK();
    case MptNodeKind::kExtension:
      return CollectChunks(node.child, live);
    case MptNodeKind::kBranch: {
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
