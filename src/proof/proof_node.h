#ifndef SPITZ_PROOF_PROOF_NODE_H_
#define SPITZ_PROOF_PROOF_NODE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace spitz {

// One node a SIRI proof cites, for every backend: its chunk type and a
// view of its payload bytes, which `owner` keeps alive. A proof holds
// what it cites instead of copying it: on a server the owner is the
// cached node (or chunk) the traversal visited, on a client the frame
// buffer the reply arrived in, or the proof's own copy of bytes it was
// decoded from. A null owner means the bytes outlive the proof by other
// means (the caller's buffer).
struct ProofNode {
  uint8_t type = 0;
  Slice payload;
  std::shared_ptr<const void> owner;
};

// A node over its own copy of `bytes` (a hand-built or altered proof).
inline ProofNode OwnedProofNode(uint8_t type, std::string bytes) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  const Slice payload(*owned);
  return ProofNode{type, payload, std::move(owned)};
}

// Decodes a proof from the front of *input into bytes the proof owns:
// parses views over the input to find the proof's extent, copies
// exactly those bytes once, and decodes views over the copy. `Proof`
// provides DecodeFrom(Slice*, std::shared_ptr<const void>, Proof*).
template <typename Proof>
Status DecodeOwnedCopy(Slice* input, Proof* out) {
  Slice probe = *input;
  Status s = Proof::DecodeFrom(&probe, nullptr, out);
  if (!s.ok()) return s;
  auto bytes = std::make_shared<const std::string>(
      input->data(), input->size() - probe.size());
  input->remove_prefix(bytes->size());
  Slice owned(*bytes);
  return Proof::DecodeFrom(&owned, std::move(bytes), out);
}

}  // namespace spitz

#endif  // SPITZ_PROOF_PROOF_NODE_H_
