#include "core/list_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "common/prof.h"
#include "common/rng.h"
#include "core/ocd_discover.h"
#include "datagen/fixtures.h"
#include "datagen/generators.h"
#include "datagen/random_relation.h"
#include "od/brute_force.h"
#include "relation/sorted_index.h"
#include "test_util.h"

namespace ocdd::core {
namespace {

using od::AttributeList;
using od::EnumerateLists;
using rel::CodedRelation;
using testutil::CodedIntTable;

/// Ground truth rank vector of a list: dense ranks from a full sort.
std::vector<std::int32_t> RanksBySorting(const CodedRelation& r,
                                         const AttributeList& list) {
  std::vector<std::uint32_t> idx = rel::SortRowsByList(r, list.ids());
  std::vector<std::int32_t> ranks(r.num_rows());
  std::int32_t rank = -1;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (i == 0 ||
        rel::CompareRowsOnList(r, list.ids(), idx[i - 1], idx[i]) != 0) {
      ++rank;
    }
    ranks[idx[i]] = rank;
  }
  return ranks;
}

ListPartition BuildByRefinement(const CodedRelation& r,
                                const AttributeList& list) {
  ListPartition p = ListPartition::ForColumn(r, list[0]);
  for (std::size_t i = 1; i < list.size(); ++i) {
    p = p.Refine(r, list[i]);
  }
  return p;
}

/// Every partition check (CheckOcd, CheckOd, both legs of CheckOdBoth) on
/// every disjoint pair of `lists` must give the sort-based checker's
/// answer.
void ExpectChecksMatchSortChecker(const CodedRelation& r,
                                  const std::vector<AttributeList>& lists) {
  OrderChecker checker(r);
  for (const AttributeList& x : lists) {
    for (const AttributeList& y : lists) {
      if (!x.DisjointWith(y)) continue;
      SCOPED_TRACE(x.ToString() + " vs " + y.ToString());
      ListPartition px = BuildByRefinement(r, x);
      ListPartition py = BuildByRefinement(r, y);
      EXPECT_EQ(ListPartition::CheckOcd(px, py), checker.HoldsOcd(x, y));
      OdCheckOutcome sort = checker.CheckOd(x, y, /*early_exit=*/false);
      OdCheckOutcome sort_rev = checker.CheckOd(y, x, /*early_exit=*/false);
      OdCheckOutcome part = ListPartition::CheckOd(px, py);
      EXPECT_EQ(part.has_split, sort.has_split);
      EXPECT_EQ(part.has_swap, sort.has_swap);
      OdCheckOutcome fwd, rev;
      ListPartition::CheckOdBoth(px, py, &fwd, &rev);
      EXPECT_EQ(fwd.has_split, sort.has_split);
      EXPECT_EQ(fwd.has_swap, sort.has_swap);
      EXPECT_EQ(rev.has_split, sort_rev.has_split);
      EXPECT_EQ(rev.has_swap, sort_rev.has_swap);
    }
  }
}

/// Column shapes that stress the group scan and the blocked fill's early
/// exit beyond uniform draws.
enum class Shape {
  kRandom,     // uniform draws from the domain
  kNullBlock,  // a leading tie block below every value (NULLS FIRST)
  kHeavyTies,  // three values whatever the domain
  kSorted,     // non-decreasing: every adjacent pair ties or ascends
  kReversed,   // non-increasing: every adjacent pair ties or descends
};

std::vector<std::int64_t> ShapedColumn(Rng& rng, std::size_t rows,
                                       std::uint64_t domain, Shape shape) {
  std::vector<std::int64_t> col(rows);
  for (std::int64_t& v : col) {
    v = static_cast<std::int64_t>(rng.Uniform(domain));
  }
  switch (shape) {
    case Shape::kRandom:
      break;
    case Shape::kNullBlock:
      std::fill_n(col.begin(), rows / 4 + rng.Uniform(rows / 4 + 1), -1);
      break;
    case Shape::kHeavyTies:
      for (std::int64_t& v : col) v %= 3;
      break;
    case Shape::kSorted:
      std::sort(col.begin(), col.end());
      break;
    case Shape::kReversed:
      std::sort(col.begin(), col.end(), std::greater<>());
      break;
  }
  return col;
}

TEST(ListPartitionTest, ForColumnViewsColumnCodes) {
  CodedRelation r = CodedIntTable({{30, 10, 20, 10}});
  ListPartition p = ListPartition::ForColumn(r, 0);
  EXPECT_EQ(p.codes(), (std::vector<std::int32_t>{2, 0, 1, 0}));
  EXPECT_EQ(p.num_groups(), 3);
  EXPECT_EQ(p.num_rows(), 4u);
  // A view of the column's narrow mirror, not a copy.
  EXPECT_EQ(p.data8(), r.column(0).codes8.data());
  EXPECT_EQ(p.MemoryBytes(), sizeof(ListPartition));
}

TEST(ListPartitionTest, SameOrderMeansSameRanks) {
  // Column 1 is a function of column 0 ([0] → [1]), so [0,1] orders the
  // rows exactly as [0] does; [0,2] splits a group and differs.
  CodedRelation r =
      CodedIntTable({{1, 1, 2, 2, 3}, {7, 7, 8, 8, 9}, {5, 4, 4, 4, 4}});
  ListPartition head = ListPartition::ForColumn(r, 0);
  ListPartition same = head.Refine(r, 1);
  ListPartition split = head.Refine(r, 2);
  EXPECT_NE(same.data8(), head.data8());
  EXPECT_TRUE(same.SameRanks(head));
  EXPECT_TRUE(head.SameRanks(same));
  EXPECT_EQ(same.ContentHash(), head.ContentHash());
  EXPECT_NE(same.id(), head.id());
  EXPECT_FALSE(split.SameRanks(head));
  EXPECT_NE(split.ContentHash(), head.ContentHash());
}

TEST(ListPartitionTest, ScratchHistogramSurvivesParentBufferReuse) {
  // A scratch caches the parent's rank histogram between refinements. When
  // a parent is destroyed and a new partition's buffer lands at the same
  // address, the scratch must still recompute the histogram: refining the
  // new parent must equal a fresh-scratch refinement, on every path that
  // reads the histogram.
  CodedRelation r = CodedIntTable({{0, 0, 0, 0, 1, 1, 1, 1},
                                   {0, 1, 2, 3, 0, 1, 2, 3},
                                   {3, 2, 1, 0, 3, 2, 1, 0},
                                   {0, 0, 1, 1, 2, 2, 3, 3}});
  for (RefinePath path : {RefinePath::kCounting, RefinePath::kComparison}) {
    RefineScratch scratch;
    const void* old_address = nullptr;
    {
      ListPartition first = ListPartition::ForColumn(r, 0).Refine(r, 1);
      old_address = first.data8();
      (void)first.Refine(r, 2, &scratch, path);
    }
    // Same size as `first` (so the allocator hands its block straight
    // back) but 4 groups of 2 rows instead of 8 singletons: a stale
    // histogram would misplace rows.
    ListPartition second = ListPartition::ForColumn(r, 0).Refine(r, 3);
    SCOPED_TRACE(second.data8() == old_address ? "buffer reused"
                                               : "buffer not reused");
    ListPartition reused = second.Refine(r, 2, &scratch, path);
    RefineScratch fresh_scratch;
    ListPartition fresh = second.Refine(r, 2, &fresh_scratch, path);
    EXPECT_EQ(reused.codes(), fresh.codes());
    EXPECT_EQ(reused.codes(), RanksBySorting(r, AttributeList{0, 3, 2}));
  }
}

TEST(ListPartitionTest, RefineMatchesFullSort) {
  CodedRelation r = CodedIntTable({{1, 1, 2, 2, 1}, {5, 3, 4, 4, 3}});
  ListPartition p = BuildByRefinement(r, AttributeList{0, 1});
  EXPECT_EQ(p.codes(), RanksBySorting(r, AttributeList{0, 1}));
}

TEST(ListPartitionTest, RefineProducesDenseRanks) {
  CodedRelation r = testutil::RandomCodedTable(3, 30, 3, 4);
  ListPartition p = BuildByRefinement(r, AttributeList{2, 0, 1});
  std::vector<bool> seen(static_cast<std::size_t>(p.num_groups()), false);
  for (std::int32_t c : p.codes()) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, p.num_groups());
    seen[static_cast<std::size_t>(c)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(ListPartitionTest, CheckOdOnTaxInfo) {
  CodedRelation tax = CodedRelation::Encode(datagen::MakeTaxInfo());
  ListPartition income = ListPartition::ForColumn(tax, 1);
  ListPartition bracket = ListPartition::ForColumn(tax, 3);
  ListPartition savings = ListPartition::ForColumn(tax, 2);
  EXPECT_TRUE(ListPartition::CheckOd(income, bracket).valid());
  OdCheckOutcome out = ListPartition::CheckOd(income, savings);
  EXPECT_TRUE(out.has_split);   // 40,000 ties with different savings
  EXPECT_FALSE(out.has_swap);   // but income ~ savings
  EXPECT_TRUE(ListPartition::CheckOcd(income, savings));
}

TEST(ListPartitionTest, EarlyExitStillReportsLateSplit) {
  // The fill stops early once it has seen everything the caller asks for.
  // Here the swap is in the first rows and the only split in the last
  // row, several fill chunks later, so CheckOd must read on past the swap.
  const std::size_t rows = 10000;
  std::vector<std::int64_t> lhs(rows), rhs(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    lhs[i] = static_cast<std::int64_t>(i / 2);
    rhs[i] = 2 * lhs[i];
  }
  std::swap(rhs[0], rhs[2]);
  std::swap(rhs[1], rhs[3]);
  rhs[rows - 1] += 1;
  CodedRelation r = testutil::CodedIntTable({lhs, rhs});
  OdCheckOutcome out = ListPartition::CheckOd(ListPartition::ForColumn(r, 0),
                                              ListPartition::ForColumn(r, 1));
  EXPECT_TRUE(out.has_swap);
  EXPECT_TRUE(out.has_split);
  ExpectChecksMatchSortChecker(r, {AttributeList{0}, AttributeList{1}});
}

class ListPartitionAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListPartitionAgreementTest, RefinementRanksMatchSorting) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 20, 4, 3);
  for (const AttributeList& list : EnumerateLists({0, 1, 2, 3}, 3)) {
    ListPartition p = BuildByRefinement(r, list);
    EXPECT_EQ(p.codes(), RanksBySorting(r, list)) << list.ToString();
  }
}

TEST_P(ListPartitionAgreementTest, ChecksMatchSortBasedChecker) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 300, 15, 4, 3);
  ExpectChecksMatchSortChecker(r, EnumerateLists({0, 1, 2, 3}, 2));
}

TEST_P(ListPartitionAgreementTest, ChecksMatchSortBasedCheckerOnShapes) {
  // Row counts straddle the degenerate sizes and the blocked fill's
  // 4096-row chunk; domains straddle the u8/u16 code width.
  const Shape kShapes[] = {Shape::kRandom, Shape::kNullBlock,
                           Shape::kHeavyTies, Shape::kSorted,
                           Shape::kReversed};
  Rng rng(GetParam() * 1000003 + 11);
  for (std::size_t rows : {0, 1, 2, 9, 1000, 5000}) {
    for (std::uint64_t domain : {2, 17, 300}) {
      for (Shape shape : kShapes) {
        SCOPED_TRACE(::testing::Message()
                     << "rows=" << rows << " domain=" << domain
                     << " shape=" << static_cast<int>(shape));
        CodedRelation r = testutil::CodedIntTable(
            {ShapedColumn(rng, rows, domain, shape),
             ShapedColumn(rng, rows, domain, Shape::kRandom),
             ShapedColumn(rng, rows, domain, shape)});
        ExpectChecksMatchSortChecker(r, EnumerateLists({0, 1, 2}, 2));
      }
    }
  }
}

TEST_P(ListPartitionAgreementTest, ChecksMatchSortBasedCheckerAtWidths) {
  // Partition code widths flip above 256 and 65536 groups; check both
  // sides of each boundary. Column 0 is a shuffled cycle through the
  // domain, so its group count is exactly `domain`. The other columns make
  // every outcome appear: random (split and swap), reversed (swap only),
  // halved (valid one way, split the other), and column 0 with its top two
  // values exchanged, whose only swap is at the last group boundary.
  Rng rng(GetParam() * 7919 + 5);
  for (std::int64_t domain : {255, 256, 257, 65535, 65536, 65537}) {
    SCOPED_TRACE(::testing::Message() << "domain=" << domain);
    const std::size_t rows = static_cast<std::size_t>(domain) + 100;
    std::vector<std::int64_t> cycle(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      cycle[i] = static_cast<std::int64_t>(i) % domain;
    }
    rng.Shuffle(cycle);
    std::vector<std::int64_t> reversed, halved, top_swapped;
    for (std::int64_t v : cycle) {
      reversed.push_back(domain - 1 - v);
      halved.push_back(v / 2);
      top_swapped.push_back(v >= domain - 2 ? 2 * domain - 3 - v : v);
    }
    CodedRelation r = testutil::CodedIntTable(
        {cycle,
         ShapedColumn(rng, rows, static_cast<std::uint64_t>(domain),
                      Shape::kRandom),
         reversed, halved, top_swapped});
    ListPartition p = ListPartition::ForColumn(r, 0);
    ASSERT_EQ(p.num_groups(), domain);
    ASSERT_EQ(p.width(), rel::WidthForDistinct(domain));
    ExpectChecksMatchSortChecker(
        r, {AttributeList{0}, AttributeList{1}, AttributeList{2},
            AttributeList{3}, AttributeList{4}});
  }
}

/// The sort-based checker's run: the reference every partition run must
/// reproduce.
OcdDiscoverResult SortCheckerRun(const CodedRelation& r) {
  OcdDiscoverOptions opts;
  opts.use_sorted_partitions = false;
  return DiscoverOcds(r, opts);
}

TEST_P(ListPartitionAgreementTest, DriverEquivalentWithAndWithoutPartitions) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 600, 25, 5, 3);
  OcdDiscoverResult plain = SortCheckerRun(r);
  OcdDiscoverOptions opts;
  opts.use_sorted_partitions = true;
  OcdDiscoverResult fast = DiscoverOcds(r, opts);
  EXPECT_EQ(plain.ocds, fast.ocds);
  EXPECT_EQ(plain.ods, fast.ods);
  EXPECT_EQ(plain.num_checks, fast.num_checks);
  EXPECT_GT(fast.partition_cache_bytes, 0u);
}

TEST_P(ListPartitionAgreementTest, CacheBudgetFallsBackCorrectly) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 900, 25, 5, 3);
  OcdDiscoverOptions opts;
  opts.use_sorted_partitions = true;
  opts.max_partition_cache_bytes = 512;  // only a handful of lists fit
  OcdDiscoverResult constrained = DiscoverOcds(r, opts);
  OcdDiscoverResult plain = SortCheckerRun(r);
  EXPECT_EQ(plain.ocds, constrained.ocds);
  EXPECT_EQ(plain.ods, constrained.ods);
  EXPECT_EQ(plain.num_checks, constrained.num_checks);
  EXPECT_LE(constrained.partition_cache_bytes, 512u);
}

TEST_P(ListPartitionAgreementTest, RefinePathsAgreeOnRandomRelations) {
  // The three refinement paths — counting sort, comparison sort, and bucket
  // histogram — must produce bit-identical partitions on the QA generator's
  // adversarial shapes (ties, NULL blocks, duplicated rows, constant and
  // order-equivalent columns), and all must match the full-sort ground
  // truth. kAuto's correctness reduces to this equivalence.
  Rng rng(GetParam() * 7919 + 1);
  datagen::RandomRelationSpec spec;
  spec.min_rows = 8;
  spec.max_rows = 80;
  for (int round = 0; round < 8; ++round) {
    CodedRelation r =
        CodedRelation::Encode(datagen::MakeRandomRelation(rng, spec));
    ListPartition base = ListPartition::ForColumn(r, 0);
    AttributeList list{0};
    RefineScratch scratch;
    for (rel::ColumnId c = 1; c < r.num_columns(); ++c) {
      ListPartition counting =
          base.Refine(r, c, &scratch, RefinePath::kCounting);
      ListPartition comparison =
          base.Refine(r, c, &scratch, RefinePath::kComparison);
      ListPartition histogram =
          base.Refine(r, c, &scratch, RefinePath::kHistogram);
      list = list.WithAppended(c);
      EXPECT_EQ(counting.codes(), comparison.codes()) << list.ToString();
      EXPECT_EQ(counting.codes(), histogram.codes()) << list.ToString();
      EXPECT_EQ(counting.num_groups(), comparison.num_groups());
      EXPECT_EQ(counting.num_groups(), histogram.num_groups());
      EXPECT_EQ(counting.codes(), RanksBySorting(r, list)) << list.ToString();
      base = std::move(counting);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListPartitionAgreementTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(ListPartitionTest, HeadRowsKeepsDenseRankInvariant) {
  // Regression: HeadRows must re-densify codes, or the partition backend's
  // counting buckets index out of bounds (heap corruption found via
  // bench_fig2_rows).
  CodedRelation full = testutil::RandomCodedTable(7, 200, 4, 150);
  CodedRelation head = full.HeadRows(37);
  for (std::size_t c = 0; c < head.num_columns(); ++c) {
    for (std::int32_t code : head.column(c).codes) {
      ASSERT_GE(code, 0);
      ASSERT_LT(code, head.column(c).num_distinct);
    }
  }
  // The partition driver must agree with the sort driver on the slice.
  OcdDiscoverOptions opts;
  opts.use_sorted_partitions = true;
  OcdDiscoverResult fast = DiscoverOcds(head, opts);
  OcdDiscoverResult plain = SortCheckerRun(head);
  EXPECT_EQ(fast.ocds, plain.ocds);
  EXPECT_EQ(fast.ods, plain.ods);
}

TEST(ListPartitionTest, ParallelPartitionDriverMatches) {
  CodedRelation r = testutil::RandomCodedTable(42, 40, 5, 3);
  OcdDiscoverOptions seq;
  seq.use_sorted_partitions = true;
  OcdDiscoverOptions par = seq;
  par.num_threads = 4;
  OcdDiscoverResult a = DiscoverOcds(r, seq);
  OcdDiscoverResult b = DiscoverOcds(r, par);
  EXPECT_EQ(a.ocds, b.ocds);
  EXPECT_EQ(a.ods, b.ods);
  EXPECT_EQ(a.num_checks, b.num_checks);
  EXPECT_EQ(a.partition_cache_bytes, b.partition_cache_bytes);
}

/// Partition-cache bytes published over a run (prof's allocation counter)
/// and the sort checker's index builds (fallback checks), per run.
struct CacheTraffic {
  OcdDiscoverResult result;
  std::uint64_t published_bytes = 0;
  std::uint64_t sort_index_calls = 0;
};

CacheTraffic ProfiledRun(const CodedRelation& r, OcdDiscoverOptions opts) {
  prof::SetEnabled(true);
  prof::Reset();
  CacheTraffic t;
  t.result = DiscoverOcds(r, opts);
  prof::Report report = prof::Snapshot();
  prof::SetEnabled(false);
  t.published_bytes = report.alloc_bytes;
  for (const prof::PhaseStats& p : report.phases) {
    if (std::string(p.name) == prof::PhaseName(prof::Phase::kSortIndex)) {
      t.sort_index_calls = p.calls;
    }
  }
  return t;
}

TEST(ListPartitionTest, CacheEvictsDeadListsAndBudgetsLiveBytes) {
  // LATTICE keeps every level valid, so lists of all lengths are built:
  // without eviction the peak would equal everything ever published.
  CodedRelation r =
      CodedRelation::Encode(datagen::MakeLattice(300, /*seed=*/5));
  OcdDiscoverOptions opts;
  CacheTraffic unlimited = ProfiledRun(r, opts);
  ASSERT_TRUE(unlimited.result.completed);
  const std::size_t peak = unlimited.result.partition_cache_bytes;
  ASSERT_GT(peak, 0u);
  EXPECT_LT(peak, unlimited.published_bytes);
  EXPECT_EQ(unlimited.sort_index_calls, 0u);

  // The peak is exactly what the budget is charged: a budget of the peak
  // never falls back, one byte less must.
  opts.max_partition_cache_bytes = peak;
  CacheTraffic exact = ProfiledRun(r, opts);
  EXPECT_EQ(exact.sort_index_calls, 0u);
  EXPECT_EQ(exact.result.partition_cache_bytes, peak);
  opts.max_partition_cache_bytes = peak - 1;
  CacheTraffic short_by_one = ProfiledRun(r, opts);
  EXPECT_GT(short_by_one.sort_index_calls, 0u);

  OcdDiscoverResult plain = SortCheckerRun(r);
  for (const CacheTraffic* t : {&unlimited, &exact, &short_by_one}) {
    EXPECT_EQ(t->result.ocds, plain.ocds);
    EXPECT_EQ(t->result.ods, plain.ods);
    EXPECT_EQ(t->result.num_checks, plain.num_checks);
  }
}

}  // namespace
}  // namespace ocdd::core
