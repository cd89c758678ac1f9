#include "core/checker.h"

#include <vector>

#include "common/prof.h"
#include "relation/sorted_index.h"

namespace ocdd::core {

namespace {

/// Per-thread reusable buffers for the sort-based checks: the row index
/// being sorted, the concatenated sort key, and the hoisted code pointers.
/// Thread-local (not per-checker) because the parallel OCDDISCOVER driver
/// runs one checker from many pool workers; the buffers live for the
/// thread's lifetime and stop the kernels from allocating per check.
struct CheckScratch {
  std::vector<std::uint32_t> index;
  std::vector<rel::ColumnId> key;
  std::vector<const std::int32_t*> cols;
};

CheckScratch& TlsCheckScratch() {
  thread_local CheckScratch scratch;
  return scratch;
}

/// Loads the code-array pointers of `attrs` into `out`.
void HoistColumns(const rel::CodedRelation& relation,
                  const std::vector<rel::ColumnId>& attrs,
                  std::vector<const std::int32_t*>* out) {
  out->clear();
  for (rel::ColumnId col : attrs) {
    out->push_back(relation.column(col).codes.data());
  }
}

/// First position in [0, cols.size()) where the two rows differ, or
/// cols.size() when they are equal on every column. The discriminator the
/// lexicographic sort already evaluated; re-deriving it on adjacent rows is
/// how CheckOd finds group boundaries without a second full-list walk.
std::size_t FirstDiff(const std::vector<const std::int32_t*>& cols,
                      std::uint32_t row_a, std::uint32_t row_b) {
  std::size_t p = 0;
  for (; p < cols.size(); ++p) {
    if (cols[p][row_a] != cols[p][row_b]) break;
  }
  return p;
}

/// Three-way comparison over hoisted columns [begin, end).
int CompareOnCols(const std::vector<const std::int32_t*>& cols,
                  std::size_t begin, std::size_t end, std::uint32_t row_a,
                  std::uint32_t row_b) {
  for (std::size_t p = begin; p < end; ++p) {
    std::int32_t a = cols[p][row_a];
    std::int32_t b = cols[p][row_b];
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

}  // namespace

bool OrderChecker::HoldsOcd(const AttributeList& x,
                            const AttributeList& y) const {
  stats_.ocd_checks.fetch_add(1, std::memory_order_relaxed);

  // Theorem 4.1: X ~ Y iff XY → YX. Sorting by the concatenation XY makes
  // the Y projection the only possible source of violations: for adjacent
  // rows a ⪯_XY b, YX(a) ≻ YX(b) iff Y(a) ≻ Y(b) (see DESIGN.md §5).
  CheckScratch& scratch = TlsCheckScratch();
  scratch.key.assign(x.ids().begin(), x.ids().end());
  scratch.key.insert(scratch.key.end(), y.ids().begin(), y.ids().end());
  rel::SortRowsByListInto(relation_, scratch.key, &scratch.index);
  HoistColumns(relation_, y.ids(), &scratch.cols);
  const std::vector<std::uint32_t>& index = scratch.index;
  prof::ScopedTimer timer(prof::Phase::kSortCheck);
  for (std::size_t i = 0; i + 1 < index.size(); ++i) {
    if (CompareOnCols(scratch.cols, 0, scratch.cols.size(), index[i],
                      index[i + 1]) > 0) {
      return false;
    }
  }
  return true;
}

OdCheckOutcome OrderChecker::CheckOd(const AttributeList& lhs,
                                     const AttributeList& rhs,
                                     bool early_exit) const {
  stats_.od_checks.fetch_add(1, std::memory_order_relaxed);

  OdCheckOutcome outcome;
  std::size_t m = relation_.num_rows();
  if (m < 2) return outcome;

  // Sort by lhs, tie-broken by rhs: within an lhs-group rows are
  // rhs-ascending, so the group's rhs-minimum is its first row and its
  // rhs-maximum is its last row.
  CheckScratch& scratch = TlsCheckScratch();
  scratch.key.assign(lhs.ids().begin(), lhs.ids().end());
  scratch.key.insert(scratch.key.end(), rhs.ids().begin(), rhs.ids().end());
  rel::SortRowsByListInto(relation_, scratch.key, &scratch.index);
  HoistColumns(relation_, scratch.key, &scratch.cols);
  const std::vector<std::uint32_t>& index = scratch.index;
  const std::vector<const std::int32_t*>& cols = scratch.cols;
  const std::size_t lhs_len = lhs.size();
  const std::size_t key_len = cols.size();

  // One walk over adjacent pairs. The first differing key position tells
  // both stories at once: a difference inside the lhs prefix closes the
  // current lhs-group; a difference in the rhs suffix means two rows of one
  // group differ on rhs — a split (the group's extremes differ, since the
  // tie-break keeps rhs ascending within a group).
  bool have_prev = false;
  std::uint32_t prev_groups_max = 0;  // row with max rhs among earlier groups
  std::size_t group_begin = 0;
  auto close_group = [&](std::size_t group_end) {
    // Swap: some earlier group's rhs-max exceeds this group's rhs-min.
    if (have_prev &&
        CompareOnCols(cols, lhs_len, key_len, prev_groups_max,
                      index[group_begin]) > 0) {
      outcome.has_swap = true;
    }
    if (!have_prev || CompareOnCols(cols, lhs_len, key_len, prev_groups_max,
                                    index[group_end - 1]) < 0) {
      prev_groups_max = index[group_end - 1];
    }
    have_prev = true;
  };
  prof::ScopedTimer timer(prof::Phase::kSortCheck);
  for (std::size_t k = 0; k + 1 < m; ++k) {
    std::size_t pos = FirstDiff(cols, index[k], index[k + 1]);
    if (pos < lhs_len) {
      close_group(k + 1);
      if (early_exit && outcome.has_swap) return outcome;
      group_begin = k + 1;
    } else if (pos < key_len) {
      outcome.has_split = true;
      if (early_exit) return outcome;
    }
  }
  close_group(m);
  return outcome;
}

bool OrderChecker::HoldsOd(const AttributeList& lhs,
                           const AttributeList& rhs) const {
  return CheckOd(lhs, rhs, /*early_exit=*/true).valid();
}

}  // namespace ocdd::core
