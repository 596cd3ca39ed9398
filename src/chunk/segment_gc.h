#ifndef SPITZ_CHUNK_SEGMENT_GC_H_
#define SPITZ_CHUNK_SEGMENT_GC_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace spitz {

// What one GC pass of FileChunkStore collects (DESIGN.md section 12),
// decided from one snapshot of its location index (a GcRow a record):
// no disk, no locks. The store takes the snapshot and carries it out.
struct GcRow {
  uint32_t ref = 0;      // the store's reference to the record's slot
  uint32_t segment = 0;  // UINT32_MAX: held in memory only
  uint32_t offset = 0;
  uint32_t base = 0;  // a delta's base, as a reference
  uint8_t depth = 0;  // delta records down to a full one
  bool dead = false;  // in a sealed segment, inserted before the mark
                      // and reachable from no retained root
};

struct GcPlan {
  // The segments the pass deletes: every one holding a dead record,
  // and the condemned ones below the active segment (sealed).
  std::set<uint32_t> victims;
  // The rows to rewrite in full, in (segment, offset) order: the live
  // records of the victims, and every delta outside them on a dead
  // base ("flattened"), so no delta on disk outlives its base.
  std::vector<size_t> rewrites;
  // The segments of the flattened deltas. Once rewritten, no entry
  // points at the old copy, which condemns its segment.
  std::set<uint32_t> condemned;
  // The dead rows, deepest first: a base goes after every delta on it.
  std::vector<size_t> dead;
};

// Plans a pass over `rows`, which are in ascending `ref` order, given
// the condemned segments and the segment that was active when the pass
// began: it and every later one wait for a later pass.
GcPlan PlanSegmentGc(const std::vector<GcRow>& rows,
                     const std::set<uint32_t>& condemned,
                     uint32_t active_segment);

// The row of `ref` in `rows` (in ascending `ref` order), or null.
const GcRow* FindGcRow(const std::vector<GcRow>& rows, uint32_t ref);

}  // namespace spitz

#endif  // SPITZ_CHUNK_SEGMENT_GC_H_
