#ifndef SPITZ_COMMON_POS_ENTRY_H_
#define SPITZ_COMMON_POS_ENTRY_H_

#include <string>

namespace spitz {

// A key-value pair: an entry of a POS-tree leaf (index/pos_tree.h), and
// a record of a bulk load, which the ledger reads as well as the index.
struct PosEntry {
  std::string key;
  std::string value;

  bool operator==(const PosEntry& other) const {
    return key == other.key && value == other.value;
  }
};

}  // namespace spitz

#endif  // SPITZ_COMMON_POS_ENTRY_H_
