#include "core/list_partition.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/prof.h"

namespace ocdd::core {

namespace {

/// Calls `f` with the partition's typed storage pointer (u8/u16/i32).
template <typename F>
decltype(auto) WithCodes(const ListPartition& p, F&& f) {
  switch (p.width()) {
    case rel::CodeWidth::k8:
      return f(p.data8());
    case rel::CodeWidth::k16:
      return f(p.data16());
    case rel::CodeWidth::k32:
      break;
  }
  return f(p.data32());
}

/// Calls `f` with the column's narrowest code array (u8/u16/i32).
template <typename F>
decltype(auto) WithColumnCodes(const rel::CodedColumn& c, F&& f) {
  if (!c.codes8.empty()) return f(c.codes8.data());
  if (!c.codes16.empty()) return f(c.codes16.data());
  return f(c.codes.data());
}

std::size_t WidthBytes(rel::CodeWidth width) {
  switch (width) {
    case rel::CodeWidth::k8:
      return 1;
    case rel::CodeWidth::k16:
      return 2;
    case rel::CodeWidth::k32:
      break;
  }
  return 4;
}

/// Final avalanche of a 64-bit state (the murmur3 finalizer).
std::uint64_t Mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

/// Source of `ListPartition::id()`: ids are never reused within a process.
std::atomic<std::uint64_t> g_next_id{1};

std::uint64_t NextId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void ListPartition::Allocate(std::size_t m, std::int32_t groups) {
  num_rows_ = m;
  num_groups_ = groups;
  view_ = nullptr;
  id_ = NextId();
  c8_.clear();
  c16_.clear();
  c32_.clear();
  switch (rel::WidthForDistinct(groups)) {
    case rel::CodeWidth::k8:
      c8_.resize(m);
      break;
    case rel::CodeWidth::k16:
      c16_.resize(m);
      break;
    case rel::CodeWidth::k32:
      c32_.resize(m);
      break;
  }
}

const void* ListPartition::data() const {
  if (view_ != nullptr) return view_;
  switch (width()) {
    case rel::CodeWidth::k8:
      return c8_.data();
    case rel::CodeWidth::k16:
      return c16_.data();
    case rel::CodeWidth::k32:
      break;
  }
  return c32_.data();
}

std::vector<std::int32_t> ListPartition::codes() const {
  std::vector<std::int32_t> out(num_rows_);
  rel::CodeView v = view();
  for (std::size_t i = 0; i < num_rows_; ++i) out[i] = v.At(i);
  return out;
}

std::uint64_t ListPartition::ContentHash() const {
  const std::size_t n = num_rows_ * WidthBytes(width());
  if (n == 0) return Mix(static_cast<std::uint64_t>(width()));
  const unsigned char* bytes = static_cast<const unsigned char*>(data());
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (n * 0xff51afd7ed558ccdULL) ^
                    static_cast<std::uint64_t>(width());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes + i, 8);
    h = Mix(h ^ w);
  }
  if (i == n) return h;
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes + i, n - i);
  return Mix(h ^ tail);
}

bool ListPartition::SameRanks(const ListPartition& other) const {
  if (num_rows_ != other.num_rows_ || num_groups_ != other.num_groups_) {
    return false;
  }
  return num_rows_ == 0 || std::memcmp(data(), other.data(),
                                       num_rows_ * WidthBytes(width())) == 0;
}

ListPartition ListPartition::ForColumn(const rel::CodedRelation& relation,
                                       rel::ColumnId column) {
  const rel::CodedColumn& c = relation.column(column);
  ListPartition out;
  const std::size_t m = c.codes.size();
  const rel::CodeWidth width = rel::WidthForDistinct(c.num_distinct);
  if (width == rel::CodeWidth::k8 && c.codes8.empty()) {
    // No narrow mirror (a hand-built column that bypassed the
    // CodedRelation factories): narrowing copy of the canonical codes.
    out.Allocate(m, c.num_distinct);
    for (std::size_t r = 0; r < m; ++r) {
      out.c8_[r] = static_cast<std::uint8_t>(c.codes[r]);
    }
    return out;
  }
  if (width == rel::CodeWidth::k16 && c.codes16.empty()) {
    out.Allocate(m, c.num_distinct);
    for (std::size_t r = 0; r < m; ++r) {
      out.c16_[r] = static_cast<std::uint16_t>(c.codes[r]);
    }
    return out;
  }
  out.num_rows_ = m;
  out.num_groups_ = c.num_distinct;
  out.id_ = NextId();
  out.view_ = rel::NarrowView(c).data;
  return out;
}

ListPartition ListPartition::ForList(const rel::CodedRelation& relation,
                                     const od::AttributeList& list) {
  ListPartition out = ForColumn(relation, list[0]);
  ListPartition next;
  RefineScratch scratch;
  for (std::size_t i = 1; i < list.size(); ++i) {
    out.RefineInto(relation, list[i], &scratch, &next);
    std::swap(out, next);
  }
  return out;
}

ListPartition ListPartition::Refine(const rel::CodedRelation& relation,
                                    rel::ColumnId column) const {
  RefineScratch scratch;
  return Refine(relation, column, &scratch);
}

ListPartition ListPartition::Refine(const rel::CodedRelation& relation,
                                    rel::ColumnId column,
                                    RefineScratch* scratch,
                                    RefinePath path) const {
  ListPartition out;
  RefineInto(relation, column, scratch, &out, path);
  return out;
}

void ListPartition::RefineInto(const rel::CodedRelation& relation,
                               rel::ColumnId column, RefineScratch* scratch,
                               ListPartition* out, RefinePath path) const {
  const rel::CodedColumn& coded = relation.column(column);
  const std::size_t domain = static_cast<std::size_t>(coded.num_distinct);
  WithCodes(*this, [&](const auto* parent) {
    WithColumnCodes(coded, [&](const auto* col) {
      RefineTyped(parent, col, domain, scratch, path, out);
    });
  });
}

template <typename P, typename C>
void ListPartition::RefineTyped(const P* parent, const C* col,
                                std::size_t domain, RefineScratch* scratch,
                                RefinePath path, ListPartition* out) const {
  const std::size_t m = num_rows_;
  const std::size_t groups = static_cast<std::size_t>(num_groups_);
  const std::uint64_t buckets = static_cast<std::uint64_t>(groups) * domain;

  prof::ScopedTimer timer(prof::Phase::kRefine);
  prof::AddBytes(prof::Phase::kRefine,
                 static_cast<std::uint64_t>(m) * (sizeof(P) + sizeof(C)));

  if (path == RefinePath::kAuto) {
    // The histogram path is two row passes plus a sequential bucket scan —
    // cheapest by far while g·d stays within a few multiples of m. Beyond
    // that, counting sort costs ~4 linear passes regardless of group
    // structure and comparison sort costs the bucket pass plus m·log(group
    // size): small domains mean large groups — the counting path's
    // territory; near-key columns (tiny groups) sort almost for free.
    if (buckets <= 8 * static_cast<std::uint64_t>(m)) {
      path = RefinePath::kHistogram;
    } else {
      path = domain * 4 <= m ? RefinePath::kCounting : RefinePath::kComparison;
    }
  }

  if (path == RefinePath::kHistogram) {
    // Bucket key = parent rank · d + code preserves (parent rank, code)
    // lexicographic order, so densely renumbering the occupied buckets in
    // key order yields exactly the refined ranks. The group count is known
    // before any rank is written, so the output is allocated at its final
    // width and filled directly.
    std::vector<std::uint32_t>& occupied = scratch->tmp;
    occupied.assign(static_cast<std::size_t>(buckets), 0);
    for (std::size_t row = 0; row < m; ++row) {
      occupied[static_cast<std::size_t>(parent[row]) * domain +
               static_cast<std::size_t>(col[row])] = 1;
    }
    std::uint32_t next = 0;
    for (std::uint32_t& slot : occupied) {
      if (slot != 0) slot = next++;
    }
    out->Allocate(m, static_cast<std::int32_t>(next));
    auto fill = [&](auto* dst) {
      using D = std::remove_reference_t<decltype(dst[0])>;
      for (std::size_t row = 0; row < m; ++row) {
        dst[row] = static_cast<D>(
            occupied[static_cast<std::size_t>(parent[row]) * domain +
                     static_cast<std::size_t>(col[row])]);
      }
    };
    switch (out->width()) {
      case rel::CodeWidth::k8:
        fill(out->c8_.data());
        break;
      case rel::CodeWidth::k16:
        fill(out->c16_.data());
        break;
      case rel::CodeWidth::k32:
        fill(out->c32_.data());
        break;
    }
    return;
  }

  // Parent-rank histogram: reused across consecutive refinements of the
  // same parent (the pipeline groups sibling lists by parent).
  std::vector<std::uint32_t>& offsets = scratch->rank_offsets;
  if (scratch->parent_id != id_) {
    offsets.assign(groups + 1, 0);
    for (std::size_t row = 0; row < m; ++row) {
      ++offsets[static_cast<std::size_t>(parent[row]) + 1];
    }
    for (std::size_t g = 1; g < offsets.size(); ++g) {
      offsets[g] += offsets[g - 1];
    }
    scratch->parent_id = id_;
  }

  std::vector<std::uint32_t>& rows = scratch->rows;
  rows.resize(m);

  if (path == RefinePath::kCounting) {
    // Stable two-pass counting sort: first order rows by the new column's
    // code, then stably by parent rank — `rows` ends up sorted by
    // (parent rank, code) with no comparisons.
    std::vector<std::uint32_t>& code_offsets = scratch->code_offsets;
    code_offsets.assign(domain + 1, 0);
    for (std::size_t row = 0; row < m; ++row) {
      ++code_offsets[static_cast<std::size_t>(col[row]) + 1];
    }
    for (std::size_t d = 1; d < code_offsets.size(); ++d) {
      code_offsets[d] += code_offsets[d - 1];
    }
    std::vector<std::uint32_t>& tmp = scratch->tmp;
    tmp.resize(m);
    {
      std::vector<std::uint32_t>& cursor = scratch->cursor;
      cursor.assign(code_offsets.begin(), code_offsets.end() - 1);
      for (std::uint32_t row = 0; row < m; ++row) {
        tmp[cursor[static_cast<std::size_t>(col[row])]++] = row;
      }
    }
    {
      std::vector<std::uint32_t>& cursor = scratch->cursor;
      cursor.assign(offsets.begin(), offsets.end() - 1);
      for (std::size_t i = 0; i < m; ++i) {
        std::uint32_t row = tmp[i];
        rows[cursor[static_cast<std::size_t>(parent[row])]++] = row;
      }
    }
  } else {
    // Bucket rows by parent rank, then order each bucket by the new
    // column's codes.
    {
      std::vector<std::uint32_t>& cursor = scratch->cursor;
      cursor.assign(offsets.begin(), offsets.end() - 1);
      for (std::uint32_t row = 0; row < m; ++row) {
        rows[cursor[static_cast<std::size_t>(parent[row])]++] = row;
      }
    }
    for (std::size_t g = 0; g < groups; ++g) {
      std::uint32_t begin = offsets[g];
      std::uint32_t end = offsets[g + 1];
      std::sort(rows.begin() + begin, rows.begin() + end,
                [col](std::uint32_t a, std::uint32_t b) {
                  return col[a] < col[b];
                });
    }
  }

  // `rows` is ordered by (parent rank, code): assign dense new ranks,
  // bumping at every parent-group boundary or code change within a group.
  // Ranks are staged per position so the output vector can be allocated at
  // its final width (known only once the group count is), then scattered.
  std::vector<std::uint32_t>& ranks = scratch->ranks;
  ranks.resize(m);
  std::int32_t next_rank = -1;
  std::int32_t prev_parent = -1;
  std::int32_t prev_code = 0;
  for (std::size_t i = 0; i < m; ++i) {
    std::uint32_t row = rows[i];
    std::int32_t p = static_cast<std::int32_t>(parent[row]);
    std::int32_t code = static_cast<std::int32_t>(col[row]);
    if (p != prev_parent || code != prev_code) {
      ++next_rank;
      prev_parent = p;
      prev_code = code;
    }
    ranks[i] = static_cast<std::uint32_t>(next_rank);
  }

  out->Allocate(m, next_rank + 1);
  auto scatter = [&](auto* dst) {
    using D = std::remove_reference_t<decltype(dst[0])>;
    for (std::size_t i = 0; i < m; ++i) {
      dst[rows[i]] = static_cast<D>(ranks[i]);
    }
  };
  switch (out->width()) {
    case rel::CodeWidth::k8:
      scatter(out->c8_.data());
      break;
    case rel::CodeWidth::k16:
      scatter(out->c16_.data());
      break;
    case rel::CodeWidth::k32:
      scatter(out->c32_.data());
      break;
  }
}

namespace {

/// Per-lhs-group min/max of the rhs ranks, indexed by lhs rank. Min and max
/// are adjacent in memory so the per-row random update touches one cache
/// line, not two. Thread-local so the O(groups) arrays are reused across
/// checks instead of allocated per call — the parallel check phase runs one
/// instance per pool worker.
struct MinMax {
  std::int32_t lo;
  std::int32_t hi;
};

constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();

/// Extremes fill: one pass over the rows, scatter-updating the per-group
/// min/max. The width templating is where the traffic win lives: u8 codes
/// stream 4x fewer bytes than i32.
template <typename L, typename R>
void FillExtremes(const L* lc, const R* rc, std::size_t m, MinMax* ext) {
  for (std::size_t row = 0; row < m; ++row) {
    MinMax& e = ext[static_cast<std::size_t>(lc[row])];
    std::int32_t r = static_cast<std::int32_t>(rc[row]);
    e.lo = std::min(e.lo, r);
    e.hi = std::max(e.hi, r);
  }
}

/// Dual-direction fill: the same single pass also scatter-updates the
/// reverse direction's extremes, so checking X→Y and Y→X streams the two
/// rank vectors once instead of twice.
template <typename L, typename R>
void FillExtremesBoth(const L* lc, const R* rc, std::size_t m, MinMax* fwd,
                      MinMax* rev) {
  for (std::size_t row = 0; row < m; ++row) {
    std::int32_t l = static_cast<std::int32_t>(lc[row]);
    std::int32_t r = static_cast<std::int32_t>(rc[row]);
    MinMax& f = fwd[static_cast<std::size_t>(l)];
    f.lo = std::min(f.lo, r);
    f.hi = std::max(f.hi, r);
    MinMax& b = rev[static_cast<std::size_t>(r)];
    b.lo = std::min(b.lo, l);
    b.hi = std::max(b.hi, l);
  }
}

struct ScanResult {
  bool has_split = false;
  bool has_swap = false;
};

/// Group scan over the packed extremes: split iff some group's rhs ranks
/// are not all equal (lo != hi), swap iff some group's lo is undercut by
/// the running max of all previous groups' hi.
ScanResult ScanExtremes(const MinMax* ext, std::size_t groups) {
  prof::ScopedTimer timer(prof::Phase::kCheckScan);
  prof::AddBytes(prof::Phase::kCheckScan,
                 static_cast<std::uint64_t>(groups) * sizeof(MinMax));
  ScanResult res;
  std::int32_t running_max = kI32Min;
  for (std::size_t g = 0; g < groups; ++g) {
    const MinMax& e = ext[g];
    res.has_split |= e.lo != e.hi;
    res.has_swap |= running_max > e.lo;
    running_max = std::max(running_max, e.hi);
  }
  return res;
}

/// Probe scan for the blocked fill's early exit. Same predicates as
/// ScanExtremes, but groups a partial fill has not touched yet (lo
/// still the init sentinel — real ranks are < 2^31-1, so the sentinel is
/// unambiguous) are skipped: under the sentinel they would read as
/// lo != hi and fake a split. Both predicates are monotone in the set of
/// rows filled — a subset's extremes are achieved by real rows, more rows
/// only widen [lo, hi] — so any split or swap the probe sees is final.
ScanResult ProbeExtremes(const MinMax* ext, std::size_t groups) {
  ScanResult res;
  std::int32_t running_max = kI32Min;
  for (std::size_t g = 0; g < groups; ++g) {
    const MinMax& e = ext[g];
    if (e.lo == kI32Max) continue;
    res.has_split |= e.lo != e.hi;
    res.has_swap |= running_max > e.lo;
    running_max = std::max(running_max, e.hi);
  }
  return res;
}

/// Blocked fill with monotone early exit: fill a chunk of rows, probe, and
/// stop as soon as every flag the caller consumes is already true — the
/// probe's flags are then exactly the final answer, so results never depend
/// on where the exit lands. Callers that ignore `has_split` (CheckOcd)
/// pass need_split = false and may get an understated has_split back on an
/// early exit. The chunk size is clamped below by the group count so the
/// O(groups) probe can never outweigh the fill it gates. On most levels a
/// candidate that fails does so within the first few chunks, which turns
/// the fill from O(rows per check) into O(rows to first witness).
template <typename L, typename R>
ScanResult FillScanOne(const L* lc, const R* rc, std::size_t m, MinMax* ext,
                       std::size_t groups, bool need_split) {
  const std::size_t chunk = std::max<std::size_t>(std::size_t{4096}, groups);
  std::size_t row = 0;
  for (;;) {
    const std::size_t end = std::min(m, row + chunk);
    {
      prof::ScopedTimer timer(prof::Phase::kCheckFill);
      prof::AddBytes(prof::Phase::kCheckFill,
                     static_cast<std::uint64_t>(end - row) *
                         (sizeof(lc[0]) + sizeof(rc[0])));
      FillExtremes(lc + row, rc + row, end - row, ext);
    }
    row = end;
    if (row >= m) return ScanExtremes(ext, groups);
    ScanResult probe = ProbeExtremes(ext, groups);
    if (probe.has_swap && (probe.has_split || !need_split)) return probe;
  }
}

ScanResult FillAndScan(const ListPartition& lhs, const ListPartition& rhs,
                       bool need_split) {
  thread_local std::vector<MinMax> out;
  std::size_t groups = static_cast<std::size_t>(lhs.num_groups());
  out.assign(groups, MinMax{kI32Max, kI32Min});
  MinMax* ext = out.data();
  const std::size_t m = lhs.num_rows();
  ScanResult res;
  WithCodes(lhs, [&](const auto* lc) {
    WithCodes(rhs, [&](const auto* rc) {
      res = FillScanOne(lc, rc, m, ext, groups, need_split);
    });
  });
  return res;
}

}  // namespace

OdCheckOutcome ListPartition::CheckOd(const ListPartition& lhs,
                                      const ListPartition& rhs) {
  OdCheckOutcome outcome;
  if (lhs.num_rows() < 2) return outcome;
  ScanResult scan = FillAndScan(lhs, rhs, /*need_split=*/true);
  outcome.has_split = scan.has_split;
  outcome.has_swap = scan.has_swap;
  return outcome;
}

void ListPartition::CheckOdBoth(const ListPartition& lhs,
                                const ListPartition& rhs,
                                OdCheckOutcome* forward,
                                OdCheckOutcome* reverse) {
  *forward = OdCheckOutcome{};
  *reverse = OdCheckOutcome{};
  if (lhs.num_rows() < 2) return;

  thread_local std::vector<MinMax> fwd_ext;
  thread_local std::vector<MinMax> rev_ext;
  std::size_t fwd_groups = static_cast<std::size_t>(lhs.num_groups());
  std::size_t rev_groups = static_cast<std::size_t>(rhs.num_groups());
  fwd_ext.assign(fwd_groups, MinMax{kI32Max, kI32Min});
  rev_ext.assign(rev_groups, MinMax{kI32Max, kI32Min});
  const std::size_t m = lhs.num_rows();
  // Blocked dual fill with the same monotone early exit as FillScanOne:
  // stop once all four flags are true — the probes' flags are then the
  // exact final answer for both directions.
  ScanResult fwd;
  ScanResult rev;
  WithCodes(lhs, [&](const auto* lc) {
    WithCodes(rhs, [&](const auto* rc) {
      const std::size_t chunk =
          std::max<std::size_t>(std::size_t{4096}, fwd_groups + rev_groups);
      std::size_t row = 0;
      for (;;) {
        const std::size_t end = std::min(m, row + chunk);
        {
          prof::ScopedTimer timer(prof::Phase::kCheckFill);
          prof::AddBytes(prof::Phase::kCheckFill,
                         static_cast<std::uint64_t>(end - row) *
                             (sizeof(lc[0]) + sizeof(rc[0])));
          FillExtremesBoth(lc + row, rc + row, end - row, fwd_ext.data(),
                           rev_ext.data());
        }
        row = end;
        if (row >= m) {
          fwd = ScanExtremes(fwd_ext.data(), fwd_groups);
          rev = ScanExtremes(rev_ext.data(), rev_groups);
          return;
        }
        ScanResult pf = ProbeExtremes(fwd_ext.data(), fwd_groups);
        ScanResult pr = ProbeExtremes(rev_ext.data(), rev_groups);
        if (pf.has_split && pf.has_swap && pr.has_split && pr.has_swap) {
          fwd = pf;
          rev = pr;
          return;
        }
      }
    });
  });
  forward->has_split = fwd.has_split;
  forward->has_swap = fwd.has_swap;
  reverse->has_split = rev.has_split;
  reverse->has_swap = rev.has_swap;
}

bool ListPartition::CheckOcd(const ListPartition& lhs,
                             const ListPartition& rhs) {
  if (lhs.num_rows() < 2) return true;
  return !FillAndScan(lhs, rhs, /*need_split=*/false).has_swap;
}

}  // namespace ocdd::core
