#include "relation/sorted_index.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ocdd::rel {
namespace {

TEST(CompareRowsOnListTest, SingleColumn) {
  CodedRelation r = testutil::CodedIntTable({{1, 2, 2}});
  EXPECT_LT(CompareRowsOnList(r, {0}, 0, 1), 0);
  EXPECT_EQ(CompareRowsOnList(r, {0}, 1, 2), 0);
  EXPECT_GT(CompareRowsOnList(r, {0}, 2, 0), 0);
}

TEST(CompareRowsOnListTest, LexicographicOverTwoColumns) {
  CodedRelation r = testutil::CodedIntTable({{1, 1, 2}, {5, 3, 0}});
  // Rows 0,1 tie on A; B decides.
  EXPECT_GT(CompareRowsOnList(r, {0, 1}, 0, 1), 0);
  EXPECT_LT(CompareRowsOnList(r, {0, 1}, 1, 2), 0);
  // Order of attributes matters.
  EXPECT_GT(CompareRowsOnList(r, {1, 0}, 0, 2), 0);
}

TEST(CompareRowsOnListTest, EmptyListAlwaysEqual) {
  CodedRelation r = testutil::CodedIntTable({{1, 2}});
  EXPECT_EQ(CompareRowsOnList(r, {}, 0, 1), 0);
}

TEST(SortRowsByListTest, SortsByList) {
  CodedRelation r = testutil::CodedIntTable({{3, 1, 2, 1}, {0, 2, 0, 1}});
  std::vector<std::uint32_t> idx = SortRowsByList(r, {0, 1});
  // Sorted by (A,B): row1 (1,2)? no — (1,2) vs row3 (1,1): B breaks tie.
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{3, 1, 2, 0}));
}

TEST(SortRowsByListTest, SortedIndexIsNonDecreasing) {
  CodedRelation r = testutil::RandomCodedTable(99, 50, 3, 5);
  std::vector<std::uint32_t> idx = SortRowsByList(r, {1, 0, 2});
  for (std::size_t i = 0; i + 1 < idx.size(); ++i) {
    EXPECT_LE(CompareRowsOnList(r, {1, 0, 2}, idx[i], idx[i + 1]), 0);
  }
}

}  // namespace
}  // namespace ocdd::rel
