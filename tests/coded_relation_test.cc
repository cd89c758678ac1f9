#include "relation/coded_relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

#include "relation/csv.h"
#include "test_util.h"

namespace ocdd::rel {
namespace {

TEST(CodedRelationTest, CodesAreOrderPreservingDenseRanks) {
  CodedRelation r = testutil::CodedIntTable({{30, 10, 20, 10}});
  const CodedColumn& c = r.column(0);
  EXPECT_EQ(c.codes, (std::vector<std::int32_t>{2, 0, 1, 0}));
  EXPECT_EQ(c.num_distinct, 3);
  EXPECT_FALSE(c.has_nulls);
}

TEST(CodedRelationTest, NullsShareSmallestCode) {
  Relation::Builder b(Schema({Attribute{"a", DataType::kInt}}));
  ASSERT_TRUE(b.AddRow({Value::Int(5)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AddRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AddRow({Value::Int(-1)}).ok());
  CodedRelation r = CodedRelation::Encode(std::move(b).Build());
  const CodedColumn& c = r.column(0);
  EXPECT_EQ(c.codes, (std::vector<std::int32_t>{2, 0, 0, 1}));
  EXPECT_TRUE(c.has_nulls);
  EXPECT_EQ(c.num_distinct, 3);
}

TEST(CodedRelationTest, StringColumnRanksLexicographically) {
  auto rel = ReadCsvString("s\nbanana\napple\ncherry\n");
  ASSERT_TRUE(rel.ok());
  CodedRelation r = CodedRelation::Encode(*rel);
  EXPECT_EQ(r.column(0).codes, (std::vector<std::int32_t>{1, 0, 2}));
}

TEST(CodedRelationTest, ForceLexicographicChangesNumericOrder) {
  // Naturally 9 < 10; lexicographically "10" < "9".
  Relation table = testutil::IntTable({{10, 9}});
  CodedRelation natural = CodedRelation::Encode(table);
  EXPECT_EQ(natural.column(0).codes, (std::vector<std::int32_t>{1, 0}));

  EncodeOptions opts;
  opts.force_lexicographic = true;
  CodedRelation lex = CodedRelation::Encode(table, opts);
  EXPECT_EQ(lex.column(0).codes, (std::vector<std::int32_t>{0, 1}));
}

TEST(CodedRelationTest, ConstantColumnDetection) {
  CodedRelation r = testutil::CodedIntTable({{7, 7, 7}, {1, 2, 1}});
  EXPECT_TRUE(r.column(0).is_constant());
  EXPECT_FALSE(r.column(1).is_constant());
}

TEST(CodedRelationTest, EntropyConstantIsZero) {
  CodedRelation r = testutil::CodedIntTable({{4, 4, 4, 4}});
  EXPECT_DOUBLE_EQ(r.ColumnEntropy(0), 0.0);
}

TEST(CodedRelationTest, EntropyAllDistinctIsLogM) {
  CodedRelation r = testutil::CodedIntTable({{1, 2, 3, 4, 5, 6, 7, 8}});
  EXPECT_NEAR(r.ColumnEntropy(0), std::log(8.0), 1e-12);
}

TEST(CodedRelationTest, EntropyUniformTwoValues) {
  CodedRelation r = testutil::CodedIntTable({{0, 0, 1, 1}});
  EXPECT_NEAR(r.ColumnEntropy(0), std::log(2.0), 1e-12);
}

TEST(CodedRelationTest, ProjectColumns) {
  CodedRelation r = testutil::CodedIntTable({{1, 2}, {3, 4}, {5, 6}});
  CodedRelation p = r.ProjectColumns({2, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column_name(0), "C");
  EXPECT_EQ(p.column_name(1), "A");
  EXPECT_EQ(p.code(1, 0), r.code(1, 2));
}

TEST(CodedRelationTest, HeadRowsRecomputesDistinct) {
  CodedRelation r = testutil::CodedIntTable({{1, 1, 2, 3}});
  CodedRelation h = r.HeadRows(2);
  EXPECT_EQ(h.num_rows(), 2u);
  EXPECT_EQ(h.column(0).num_distinct, 1);
  EXPECT_TRUE(h.column(0).is_constant());
}

TEST(CodedRelationTest, FromColumnsRoundTrip) {
  CodedColumn c;
  c.name = "x";
  c.codes = {0, 1, 1};
  c.num_distinct = 2;
  CodedRelation r = CodedRelation::FromColumns({c});
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.code(2, 0), 1);
}

TEST(CodedRelationTest, NarrowMirrorsTrackCanonicalCodes) {
  // d <= 256: codes8 is the populated mirror, codes16 stays empty.
  CodedRelation small = testutil::CodedIntTable({{30, 10, 20, 10}});
  const CodedColumn& c = small.column(0);
  EXPECT_EQ(c.narrow_width(), CodeWidth::k8);
  ASSERT_EQ(c.codes8.size(), c.codes.size());
  EXPECT_TRUE(c.codes16.empty());
  for (std::size_t i = 0; i < c.codes.size(); ++i) {
    EXPECT_EQ(static_cast<std::int32_t>(c.codes8[i]), c.codes[i]);
  }
  CodeView v = NarrowView(c);
  EXPECT_EQ(v.width, CodeWidth::k8);
  for (std::size_t i = 0; i < c.codes.size(); ++i) {
    EXPECT_EQ(v.At(i), c.codes[i]);
  }

  // 256 < d <= 65536: codes16 carries the mirror.
  std::vector<std::int32_t> wide(300);
  CodedColumn raw;
  raw.name = "w";
  for (std::size_t i = 0; i < wide.size(); ++i) {
    raw.codes.push_back(static_cast<std::int32_t>(i));
  }
  raw.num_distinct = static_cast<std::int32_t>(raw.codes.size());
  CodedRelation mid = CodedRelation::FromColumns({raw});
  const CodedColumn& m = mid.column(0);
  EXPECT_EQ(m.narrow_width(), CodeWidth::k16);
  EXPECT_TRUE(m.codes8.empty());
  ASSERT_EQ(m.codes16.size(), m.codes.size());
  EXPECT_EQ(static_cast<std::int32_t>(m.codes16[299]), 299);
}

TEST(CodedRelationTest, FromColumnsRebuildsMirrorsAfterHandMutation) {
  // A column whose codes were edited by hand (stale codes8) must come out
  // of FromColumns with consistent mirrors again.
  CodedColumn c;
  c.name = "x";
  c.codes = {0, 1, 2};
  c.num_distinct = 3;
  c.codes8 = {9, 9, 9};  // deliberately wrong
  CodedRelation r = CodedRelation::FromColumns({c});
  ASSERT_EQ(r.column(0).codes8.size(), 3u);
  EXPECT_EQ(r.column(0).codes8, (std::vector<std::uint8_t>{0, 1, 2}));
}

TEST(CodedRelationTest, HeadRowsRebuildsMirrors) {
  CodedRelation r = testutil::CodedIntTable({{5, 5, 7, 9}});
  CodedRelation h = r.HeadRows(2);
  const CodedColumn& c = h.column(0);
  EXPECT_EQ(c.num_distinct, 1);
  ASSERT_EQ(c.codes8.size(), 2u);
  EXPECT_EQ(c.codes8, (std::vector<std::uint8_t>{0, 0}));
}

TEST(CodedRelationTest, BitPackedCodesRoundTrip) {
  Relation table = testutil::IntTable({{4, 1, 3, 1, 2, 0, 4}});
  EncodeOptions opts;
  opts.bit_pack = true;
  CodedRelation r = CodedRelation::Encode(table, opts);
  const CodedColumn& c = r.column(0);
  // 5 distinct values pack at ceil(log2 5) = 3 bits per code.
  EXPECT_EQ(c.bits_per_code, 3);
  ASSERT_FALSE(c.packed.empty());
  for (std::size_t i = 0; i < c.codes.size(); ++i) {
    EXPECT_EQ(c.PackedCodeAt(i), c.codes[i]) << "row " << i;
  }
  std::vector<std::int32_t> unpacked;
  c.UnpackInto(&unpacked);
  EXPECT_EQ(unpacked, c.codes);
}

TEST(CodedRelationTest, BitPackHandlesCrossWordCodes) {
  // 33 distinct values -> 6 bits per code; codes straddle 64-bit word
  // boundaries from row 10 onwards.
  CodedColumn c;
  c.name = "x";
  for (std::int32_t i = 0; i < 33; ++i) c.codes.push_back(i);
  for (std::int32_t i = 32; i >= 0; --i) c.codes.push_back(i);
  c.num_distinct = 33;
  CodedRelation r = CodedRelation::FromColumns({c});
  CodedColumn packed = r.column(0);
  packed.SyncCompressedForms(/*bit_pack=*/true);
  EXPECT_EQ(packed.bits_per_code, 6);
  std::vector<std::int32_t> unpacked;
  packed.UnpackInto(&unpacked);
  EXPECT_EQ(unpacked, r.column(0).codes);
}

TEST(CodedRelationTest, MixedDoubleIntColumnOrdering) {
  Relation::Builder b(Schema({Attribute{"d", DataType::kDouble}}));
  ASSERT_TRUE(b.AddRow({Value::Double(1.5)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Int(1)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Double(2.0)}).ok());
  CodedRelation r = CodedRelation::Encode(std::move(b).Build());
  EXPECT_EQ(r.column(0).codes, (std::vector<std::int32_t>{1, 0, 2}));
}

/// Dense ranks of the column's cells under Value::Compare (NULLs first and
/// equal); under `lex` every non-NULL cell compares as its rendering.
std::vector<std::int32_t> ReferenceRanks(const Column& column, bool lex) {
  std::vector<Value> cells;
  for (std::size_t r = 0; r < column.size(); ++r) {
    Value v = column.ValueAt(r);
    cells.push_back(lex && !v.is_null() ? Value::String(v.ToString()) : v);
  }
  auto less = [](const Value& a, const Value& b) {
    return Value::Compare(a, b) < 0;
  };
  std::vector<Value> distinct = cells;
  std::sort(distinct.begin(), distinct.end(), less);
  distinct.erase(std::unique(distinct.begin(), distinct.end(),
                             [](const Value& a, const Value& b) {
                               return Value::Compare(a, b) == 0;
                             }),
                 distinct.end());
  std::vector<std::int32_t> ranks;
  for (const Value& v : cells) {
    ranks.push_back(static_cast<std::int32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), v, less) -
        distinct.begin()));
  }
  return ranks;
}

/// A random value pool for one column type: the edge cases first, then
/// `extra` random draws.
std::vector<Value> ValuePool(Rng& rng, DataType type, std::size_t extra) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<Value> pool;
  switch (type) {
    case DataType::kInt:
      pool = {Value::Int(kMin), Value::Int(kMax), Value::Int(0),
              Value::Int(-1), Value::Int(1)};
      for (std::size_t i = 0; i < extra; ++i) {
        pool.push_back(Value::Int(static_cast<std::int64_t>(rng.Next())));
      }
      break;
    case DataType::kDouble:
      // Ints widen into a double column; -0.0 and 0.0 are one value.
      pool = {Value::Double(-0.0),      Value::Double(0.0),
              Value::Int(0),            Value::Int(kMax),
              Value::Int(kMin),         Value::Double(9.2233720368547758e18),
              Value::Double(-1e-300),   Value::Double(1e300),
              Value::Double(0.1),       Value::Int(3)};
      for (std::size_t i = 0; i < extra; ++i) {
        if (rng.Uniform(2) == 0) {
          pool.push_back(Value::Int(rng.UniformInt(-1000, 1000)));
        } else {
          pool.push_back(Value::Double((rng.UniformDouble() - 0.5) * 1e6));
        }
      }
      break;
    case DataType::kString:
      pool = {Value::String(""),    Value::String("a"),
              Value::String("ab"),  Value::String("abc"),
              Value::String("abd"), Value::String("b")};
      for (std::size_t i = 0; i < extra; ++i) {
        pool.push_back(
            Value::String("key_" + std::to_string(rng.Uniform(1000000))));
      }
      break;
  }
  return pool;
}

TEST(CodedRelationTest, CodesAreDenseRanksUnderValueCompare) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    const std::size_t m = rng.Uniform(300);
    const bool low_cardinality = rng.Uniform(2) == 0;
    std::vector<Attribute> attrs;
    std::vector<Column> columns;
    for (DataType type :
         {DataType::kInt, DataType::kDouble, DataType::kString}) {
      std::vector<Value> pool = ValuePool(rng, type, low_cardinality ? 0 : m);
      if (low_cardinality) {
        rng.Shuffle(pool);
        pool.resize(1 + rng.Uniform(3));
      }
      std::vector<Value> cells;
      for (std::size_t r = 0; r < m; ++r) {
        cells.push_back(pool[rng.Uniform(pool.size())]);
      }
      // A NULL block (sometimes the whole column).
      if (m > 0 && rng.Uniform(3) == 0) {
        std::size_t begin = rng.Uniform(m);
        std::size_t end = begin + rng.Uniform(m - begin + 1);
        if (rng.Uniform(4) == 0) begin = 0, end = m;
        for (std::size_t r = begin; r < end; ++r) cells[r] = Value::Null();
      }
      attrs.push_back(Attribute{DataTypeName(type), type});
      columns.push_back(Column::FromValues(type, cells));
    }
    auto rel = Relation::FromColumns(Schema(attrs), std::move(columns));
    ASSERT_TRUE(rel.ok());
    for (bool lex : {false, true}) {
      EncodeOptions opts;
      opts.force_lexicographic = lex;
      CodedRelation coded = CodedRelation::Encode(*rel, opts);
      for (ColumnId c = 0; c < rel->num_columns(); ++c) {
        std::vector<std::int32_t> want = ReferenceRanks(rel->column(c), lex);
        const CodedColumn& got = coded.column(c);
        EXPECT_EQ(got.codes, want)
            << "seed " << seed << " column " << attrs[c].name << " lex " << lex;
        std::int32_t distinct =
            want.empty() ? 0 : *std::max_element(want.begin(), want.end()) + 1;
        EXPECT_EQ(got.num_distinct, distinct) << "seed " << seed;
        bool nulls = false;
        for (std::size_t r = 0; r < rel->num_rows(); ++r) {
          nulls = nulls || rel->column(c).is_null(r);
        }
        EXPECT_EQ(got.has_nulls, nulls) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace ocdd::rel
