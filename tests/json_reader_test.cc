#include "report/json_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "core/ocd_discover.h"
#include "algo/fd/tane.h"
#include "datagen/fixtures.h"
#include "datagen/registry.h"
#include "report/json_writer.h"
#include "test_util.h"

namespace ocdd::report {
namespace {

using rel::CodedRelation;
using testutil::CodedIntTable;

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->bool_value(), true);
  EXPECT_EQ(ParseJson("false")->bool_value(), false);
  EXPECT_DOUBLE_EQ(ParseJson("42")->number_value(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-1.5e2")->number_value(), -150.0);
  EXPECT_EQ(ParseJson("\"hi\"")->string_value(), "hi");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(ParseJson("\"a\\\"b\"")->string_value(), "a\"b");
  EXPECT_EQ(ParseJson("\"a\\n\\t\\\\\"")->string_value(), "a\n\t\\");
  EXPECT_EQ(ParseJson("\"\\u0041\"")->string_value(), "A");
  EXPECT_EQ(ParseJson("\"\\u00e9\"")->string_value(), "\xc3\xa9");  // é
}

TEST(JsonParseTest, Structures) {
  auto v = ParseJson(R"({"a":[1,2,{"b":true}],"c":null})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ((*v)["a"][0].number_value(), 1.0);
  EXPECT_TRUE((*v)["a"][2]["b"].bool_value());
  EXPECT_TRUE((*v)["c"].is_null());
  EXPECT_TRUE((*v)["missing"].is_null());
  EXPECT_TRUE((*v)["a"][99].is_null());
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto v = ParseJson(" { \"a\" : [ 1 , 2 ] } ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)["a"].array().size(), 2u);
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"bad \\q escape\"").ok());
  EXPECT_FALSE(ParseJson("-").ok());
}

TEST(JsonParseTest, NonFiniteNumbersAreRejectedWithOffset) {
  // Infinity has no JSON spelling: SerializeJson would write `inf`.
  EXPECT_EQ(ParseJson("1e400").status().message(),
            "number out of range at offset 0");
  EXPECT_EQ(ParseJson("{\"a\":[1, -1e400]}").status().message(),
            "number out of range at offset 9");
  EXPECT_EQ(ParseJson("1e400").status().code(), StatusCode::kParseError);
  // Underflow is not out of range: it reads as zero, as strtod has it.
  EXPECT_EQ(ParseJson("1e-400")->number_value(), 0.0);
}

TEST(JsonParseTest, LargestDoublesRoundTrip) {
  // Ten significant digits round DBL_MAX up past it; the canonical form
  // must still read back as the same finite number.
  const std::string canonical =
      SerializeJson(*ParseJson("[1.7976931348623157e308,-1.797693134e308]"));
  EXPECT_EQ(canonical, "[1.7976931348623157e+308,-1.797693134e+308]");
  auto again = ParseJson(canonical);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(SerializeJson(*again), canonical);
}

TEST(JsonParseTest, DeepNestingIsRejectedNotCrashed) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// ---------------------------------------------------------------------------
// Accepted-input pins: the parser's leniencies are part of its contract
// (reports and requests written by older builds must keep parsing the same).
// ---------------------------------------------------------------------------

TEST(JsonPinTest, DuplicateKeysLastWins) {
  auto v = ParseJson(R"({"b":1,"a":2,"b":3,"a":{"x":4}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->object().size(), 2u);
  EXPECT_DOUBLE_EQ((*v)["b"].number_value(), 3.0);
  EXPECT_DOUBLE_EQ((*v)["a"]["x"].number_value(), 4.0);
  EXPECT_EQ(SerializeJson(*v), R"({"a":{"x":4},"b":3})");
}

TEST(JsonPinTest, LenientNumberForms) {
  EXPECT_DOUBLE_EQ(ParseJson("+5")->number_value(), 5.0);
  EXPECT_DOUBLE_EQ(ParseJson(".5")->number_value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseJson("1.")->number_value(), 1.0);
  EXPECT_DOUBLE_EQ(ParseJson("01")->number_value(), 1.0);
  EXPECT_DOUBLE_EQ(ParseJson("-0.25E+2")->number_value(), -25.0);
  EXPECT_EQ(SerializeJson(*ParseJson("-0")), "-0");
  EXPECT_EQ(SerializeJson(*ParseJson("[0.1,1e21,123456789012]")),
            "[0.1,1e+21,1.23456789e+11]");
  EXPECT_FALSE(ParseJson("+").ok());
  EXPECT_FALSE(ParseJson(".").ok());
  EXPECT_FALSE(ParseJson("0x10").ok());
}

TEST(JsonPinTest, WhitespaceIsCIsspace) {
  auto v = ParseJson(" \t\n\v\f\r{\v\"a\"\f:\r[1,\v2]\n}\t");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ((*v)["a"].array().size(), 2u);
  EXPECT_FALSE(ParseJson("\xa0" "1").ok());  // no-break space is not space
}

TEST(JsonPinTest, UnicodeEscapesDecodeCodeUnitsAsUtf8) {
  EXPECT_EQ(ParseJson(R"("\u0041\u00C9")")->string_value(), "A\xc3\x89");
  EXPECT_EQ(ParseJson(R"("\u20ac")")->string_value(), "\xe2\x82\xac");
  // Each UTF-16 code unit is encoded on its own, lone surrogates included.
  EXPECT_EQ(ParseJson(R"("\ud800")")->string_value(), "\xed\xa0\x80");
  EXPECT_EQ(ParseJson(R"("\ud83d\ude00")")->string_value(),
            "\xed\xa0\xbd\xed\xb8\x80");
  EXPECT_EQ(ParseJson(R"("\u0000x")")->string_value(), std::string("\0x", 2));
  EXPECT_FALSE(ParseJson(R"("\u12")").ok());
  EXPECT_FALSE(ParseJson(R"("\u12g4")").ok());
}

TEST(JsonPinTest, DepthLimitIs128Values) {
  auto nested = [](int depth, const std::string& inner) {
    return std::string(depth, '[') + inner + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(128, "")).ok());
  EXPECT_FALSE(ParseJson(nested(129, "")).ok());
  // A scalar is a value too: it sits one level below its array.
  EXPECT_TRUE(ParseJson(nested(127, "1")).ok());
  EXPECT_FALSE(ParseJson(nested(128, "1")).ok());
  std::string objects;
  for (int i = 0; i < 127; ++i) objects += "{\"k\":";
  objects += "1" + std::string(127, '}');
  EXPECT_TRUE(ParseJson(objects).ok());
  EXPECT_FALSE(ParseJson("[" + objects + "]").ok());
}

TEST(JsonPinTest, ErrorsCarryOffsets) {
  EXPECT_EQ(ParseJson("{\"a\":1} x").status().message(),
            "trailing characters at offset 8");
  EXPECT_EQ(ParseJson("[1,]").status().message(),
            "malformed number at offset 3");
  EXPECT_EQ(ParseJson("{\"a\" 1}").status().message(),
            "expected ':' at offset 5");
  EXPECT_EQ(ParseJson("\"ab").status().message(),
            "unterminated string at offset 3");
  EXPECT_EQ(ParseJson(" [").status().message(),
            "unexpected end of input at offset 2");
}

/// FNV-1a 64 of a string, for pinning long canonical documents.
std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(JsonPinTest, RegistryReportsHavePinnedCanonicalForm) {
  // The canonical form of each registry dataset's OCDDISCOVER report, as
  // the recursive-descent parser produced it. Regenerate only when the
  // report schema or a generator changes, never for a parser change.
  struct Pin {
    const char* dataset;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Pin kPins[] = {
      {"DBTESMA", 1789, 7900554188537387456ull},
      {"DBTESMA_1K", 1789, 7900554188537387456ull},
      {"FLIGHT_1K", 139036, 12181197028638038341ull},
      {"HEPATITIS", 349, 3558625983082305996ull},
      {"HORSE", 4931, 16762991751124449802ull},
      {"LATTICE", 4482, 175023125896619964ull},
      {"LETTER", 279, 11228402908434296907ull},
      {"LINEITEM", 1110, 14338726237571612891ull},
      {"NCVOTER_1K", 359, 13205586537694271006ull},
      {"NO", 272, 13703883819101380219ull},
      {"NUMBERS", 454, 2281508123323087692ull},
      {"YES", 297, 4249502658399920972ull},
  };
  ASSERT_EQ(std::size(kPins), datagen::AllDatasets().size());
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.dataset);
    auto relation = datagen::MakeDataset(pin.dataset, 100, 7);
    ASSERT_TRUE(relation.ok());
    CodedRelation coded = CodedRelation::Encode(*relation);
    core::OcdDiscoverOptions options;
    options.max_level = 3;
    core::OcdDiscoverResult result = core::DiscoverOcds(coded, options);
    result.elapsed_seconds = 0.0;
    const std::string json = ToJson(result, coded);
    auto parsed = ParseJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const std::string canonical = SerializeJson(*parsed);
    EXPECT_EQ(canonical.size(), pin.bytes);
    EXPECT_EQ(Fnv1a64(canonical), pin.fnv);
    auto again = ParseJson(canonical);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(SerializeJson(*again), canonical);
  }
}

TEST(JsonRoundTripTest, WriterOutputParsesAndReserializes) {
  CodedRelation tax = CodedRelation::Encode(datagen::MakeTaxInfo());
  auto result = core::DiscoverOcds(tax);
  std::string json = ToJson(result, tax);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)["algorithm"].string_value(), "ocddiscover");
  EXPECT_DOUBLE_EQ((*parsed)["num_rows"].number_value(), 6.0);
  EXPECT_EQ((*parsed)["ocds"].array().size(), result.ocds.size());
  // Canonical serialization round-trips to an equal document.
  auto again = ParseJson(SerializeJson(*parsed));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *parsed);
}

TEST(ReportDiffTest, IdenticalReportsDiffEmpty) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {4, 5, 6}});
  auto result = core::DiscoverOcds(r);
  auto doc = ParseJson(ToJson(result, r));
  ASSERT_TRUE(doc.ok());
  auto diff = DiffReports(*doc, *doc);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->empty());
}

TEST(ReportDiffTest, DetectsLostDependency) {
  // Same schema; the data change swaps two B values, killing the OD and
  // OCD between A and B.
  CodedRelation before = CodedIntTable({{1, 2, 3}, {4, 4, 6}});
  CodedRelation after = CodedIntTable({{1, 2, 3}, {4, 6, 4}});
  auto doc_a = ParseJson(ToJson(core::DiscoverOcds(before), before));
  auto doc_b = ParseJson(ToJson(core::DiscoverOcds(after), after));
  ASSERT_TRUE(doc_a.ok() && doc_b.ok());
  auto diff = DiffReports(*doc_a, *doc_b);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->empty());
  bool any_removed = false;
  for (const auto& entry : *diff) {
    if (entry.change == ReportDiffEntry::Change::kRemoved) any_removed = true;
  }
  EXPECT_TRUE(any_removed);
}

TEST(ReportDiffTest, CrossAlgorithmDiffRejected) {
  CodedRelation r = CodedIntTable({{1, 2}, {3, 4}});
  auto a = ParseJson(ToJson(core::DiscoverOcds(r), r));
  auto b = ParseJson(ToJson(algo::DiscoverFds(r), r));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(DiffReports(*a, *b).ok());
}

TEST(ReportDiffTest, NonReportsRejected) {
  auto junk = ParseJson("{\"x\":1}");
  ASSERT_TRUE(junk.ok());
  EXPECT_FALSE(DiffReports(*junk, *junk).ok());
}

}  // namespace
}  // namespace ocdd::report
