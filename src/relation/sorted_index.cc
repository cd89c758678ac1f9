#include "relation/sorted_index.h"

#include <algorithm>
#include <numeric>

#include "common/prof.h"

namespace ocdd::rel {

namespace {

/// One stable counting-sort pass: permutes `in` into `out` ordered by the
/// column's codes, preserving the incoming order within equal codes.
template <typename C>
void CountingPass(const C* codes, std::size_t domain, const std::uint32_t* in,
                  std::uint32_t* out, std::size_t m,
                  std::vector<std::uint32_t>* counts) {
  counts->assign(domain + 1, 0);
  std::uint32_t* c = counts->data();
  for (std::size_t i = 0; i < m; ++i) {
    ++c[static_cast<std::size_t>(codes[in[i]]) + 1];
  }
  for (std::size_t d = 1; d <= domain; ++d) c[d] += c[d - 1];
  for (std::size_t i = 0; i < m; ++i) {
    out[c[static_cast<std::size_t>(codes[in[i]])]++] = in[i];
  }
}

/// Dispatches one counting pass over the column's narrowest code mirror.
void CountingPassForColumn(const CodedColumn& column, const std::uint32_t* in,
                           std::uint32_t* out, std::size_t m,
                           std::vector<std::uint32_t>* counts) {
  std::size_t domain = static_cast<std::size_t>(column.num_distinct);
  if (!column.codes8.empty()) {
    CountingPass(column.codes8.data(), domain, in, out, m, counts);
  } else if (!column.codes16.empty()) {
    CountingPass(column.codes16.data(), domain, in, out, m, counts);
  } else {
    CountingPass(column.codes.data(), domain, in, out, m, counts);
  }
}

}  // namespace

int CompareRowsOnList(const CodedRelation& relation,
                      const std::vector<ColumnId>& attrs, std::uint32_t row_a,
                      std::uint32_t row_b) {
  for (ColumnId col : attrs) {
    std::int32_t a = relation.code(row_a, col);
    std::int32_t b = relation.code(row_b, col);
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

void SortRowsByListInto(const CodedRelation& relation,
                        const std::vector<ColumnId>& attrs,
                        std::vector<std::uint32_t>* index) {
  prof::ScopedTimer timer(prof::Phase::kSortIndex);
  const std::size_t m = relation.num_rows();
  index->resize(m);
  std::iota(index->begin(), index->end(), 0);
  if (m < 2 || attrs.empty()) return;

  // LSD radix over the dense codes, last attribute first: each stable
  // counting pass is O(m + dᵢ), so the whole sort is comparison-free
  // whenever every column's domain is within the row count. Equal-key tie
  // order differs from the std::sort fallback below, but every consumer
  // (the sort-based checker walks, HoldsOcd) depends only on code values
  // at adjacent positions, never on which row id carries them.
  bool radix = true;
  for (ColumnId col : attrs) {
    if (static_cast<std::size_t>(relation.column(col).num_distinct) > m) {
      radix = false;
      break;
    }
  }
  if (radix) {
    thread_local std::vector<std::uint32_t> tmp;
    thread_local std::vector<std::uint32_t> counts;
    tmp.resize(m);
    prof::AddBytes(prof::Phase::kSortIndex,
                   static_cast<std::uint64_t>(attrs.size()) * m * 2 *
                       sizeof(std::uint32_t));
    std::uint32_t* src = index->data();
    std::uint32_t* dst = tmp.data();
    for (std::size_t p = attrs.size(); p-- > 0;) {
      CountingPassForColumn(relation.column(attrs[p]), src, dst, m, &counts);
      std::swap(src, dst);
    }
    if (src != index->data()) {
      std::copy(src, src + m, index->data());
    }
    return;
  }

  if (attrs.size() == 1) {
    // Single-attribute fast path: one code array, no per-comparison loop.
    const std::int32_t* codes = relation.column(attrs[0]).codes.data();
    std::sort(index->begin(), index->end(),
              [codes](std::uint32_t a, std::uint32_t b) {
                return codes[a] < codes[b];
              });
    return;
  }
  // Hoist the code pointers so the comparator does not chase
  // relation -> column -> vector per column per comparison.
  std::vector<const std::int32_t*> cols;
  cols.reserve(attrs.size());
  for (ColumnId col : attrs) {
    cols.push_back(relation.column(col).codes.data());
  }
  std::sort(index->begin(), index->end(),
            [&cols](std::uint32_t a, std::uint32_t b) {
              for (const std::int32_t* codes : cols) {
                if (codes[a] != codes[b]) return codes[a] < codes[b];
              }
              return false;
            });
}

std::vector<std::uint32_t> SortRowsByList(const CodedRelation& relation,
                                          const std::vector<ColumnId>& attrs) {
  std::vector<std::uint32_t> index;
  SortRowsByListInto(relation, attrs, &index);
  return index;
}

}  // namespace ocdd::rel
