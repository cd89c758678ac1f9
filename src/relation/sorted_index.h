#ifndef OCDD_RELATION_SORTED_INDEX_H_
#define OCDD_RELATION_SORTED_INDEX_H_

#include <cstdint>
#include <vector>

#include "relation/coded_relation.h"

namespace ocdd::rel {

/// Lexicographic three-way comparison of two rows over an attribute list
/// (paper Definition 2.1, the `⪯` operator). Returns <0, 0, >0.
int CompareRowsOnList(const CodedRelation& relation,
                      const std::vector<ColumnId>& attrs, std::uint32_t row_a,
                      std::uint32_t row_b);

/// Returns a permutation of row ids sorted lexicographically by `attrs`
/// (ascending, NULLS FIRST by construction of the codes). This is the
/// `generateIndex()` primitive of Algorithm 2.
std::vector<std::uint32_t> SortRowsByList(const CodedRelation& relation,
                                          const std::vector<ColumnId>& attrs);

/// `SortRowsByList` into a caller-owned buffer (resized to the row count),
/// so repeated checks can reuse one allocation. Single-attribute lists take
/// a fast path that compares the raw `int32` codes directly instead of
/// walking the id list per comparison; longer lists hoist the per-column
/// code pointers out of the comparator.
void SortRowsByListInto(const CodedRelation& relation,
                        const std::vector<ColumnId>& attrs,
                        std::vector<std::uint32_t>* index);

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_SORTED_INDEX_H_
