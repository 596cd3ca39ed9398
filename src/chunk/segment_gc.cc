#include "chunk/segment_gc.h"

#include <algorithm>
#include <tuple>

namespace spitz {

GcPlan PlanSegmentGc(const std::vector<GcRow>& rows,
                     const std::set<uint32_t>& condemned,
                     uint32_t active_segment) {
  GcPlan plan;
  plan.victims = {condemned.begin(), condemned.lower_bound(active_segment)};
  for (size_t i = 0; i < rows.size(); i++) {
    if (!rows[i].dead) continue;
    plan.victims.insert(rows[i].segment);
    plan.dead.push_back(i);
  }
  for (size_t i = 0; i < rows.size(); i++) {
    const GcRow& row = rows[i];
    if (row.dead) continue;
    if (plan.victims.count(row.segment) != 0) {
      plan.rewrites.push_back(i);
    } else if (row.depth != 0) {
      const GcRow* base = FindGcRow(rows, row.base);
      if (base == nullptr || !base->dead) continue;
      plan.rewrites.push_back(i);
      if (row.segment != UINT32_MAX) plan.condemned.insert(row.segment);
    }
  }
  std::sort(plan.rewrites.begin(), plan.rewrites.end(),
            [&rows](size_t a, size_t b) {
              return std::tie(rows[a].segment, rows[a].offset, a) <
                     std::tie(rows[b].segment, rows[b].offset, b);
            });
  std::stable_sort(plan.dead.begin(), plan.dead.end(),
                   [&rows](size_t a, size_t b) {
                     return rows[a].depth > rows[b].depth;
                   });
  return plan;
}

const GcRow* FindGcRow(const std::vector<GcRow>& rows, uint32_t ref) {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), ref,
      [](const GcRow& row, uint32_t r) { return row.ref < r; });
  return it != rows.end() && it->ref == ref ? &*it : nullptr;
}

}  // namespace spitz
