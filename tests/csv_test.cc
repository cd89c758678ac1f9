#include "relation/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/run_context.h"
#include "datagen/registry.h"
#include "relation/coded_relation.h"

namespace ocdd::rel {
namespace {

TEST(CsvReadTest, BasicWithHeaderAndTypes) {
  auto r = ReadCsvString("a,b,c\n1,2.5,x\n3,4.0,y\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->num_columns(), 3u);
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kInt);
  EXPECT_EQ(r->schema().attribute(1).type, DataType::kDouble);
  EXPECT_EQ(r->schema().attribute(2).type, DataType::kString);
  EXPECT_EQ(r->ValueAt(1, 0), Value::Int(3));
  EXPECT_EQ(r->ValueAt(0, 2), Value::String("x"));
}

TEST(CsvReadTest, NoHeaderGeneratesNames) {
  CsvOptions opts;
  opts.has_header = false;
  auto r = ReadCsvString("1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).name, "col0");
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(CsvReadTest, QuotedFieldsWithSeparatorAndNewline) {
  auto r = ReadCsvString("a,b\n\"x,y\",\"line1\nline2\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("x,y"));
  EXPECT_EQ(r->ValueAt(0, 1), Value::String("line1\nline2"));
}

TEST(CsvReadTest, EscapedQuotes) {
  auto r = ReadCsvString("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("he said \"hi\""));
}

TEST(CsvReadTest, CrLfLineEndings) {
  auto r = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->ValueAt(1, 1), Value::Int(4));
}

TEST(CsvReadTest, NullMarkers) {
  auto r = ReadCsvString("a,b\n1,?\n,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  // '?' and empty are NULL; column a stays int, b stays string.
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kInt);
  EXPECT_TRUE(r->ValueAt(0, 1).is_null());
  EXPECT_TRUE(r->ValueAt(1, 0).is_null());
  EXPECT_EQ(r->ValueAt(2, 0), Value::Int(2));
}

TEST(CsvReadTest, RaggedRowIsError) {
  auto r = ReadCsvString("a,b\n1,2\n3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, UnterminatedQuoteIsError) {
  auto r = ReadCsvString("a\n\"oops\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvReadTest, UnterminatedQuoteAtEofIsParseError) {
  // The quote opens and the input ends without closing it or a newline.
  auto r = ReadCsvString("a,b\n1,\"no close");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, EmbeddedNulByteIsParseError) {
  std::string input("a,b\n1,x\0y\n", 10);
  ASSERT_EQ(input.size(), 10u);  // the NUL survived construction
  auto r = ReadCsvString(input);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, NulByteInsideQuotedFieldIsParseError) {
  std::string input("a\n\"x\0y\"\n", 8);
  auto r = ReadCsvString(input);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, EmptyInputIsError) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvReadTest, CustomSeparator) {
  CsvOptions opts;
  opts.separator = ';';
  auto r = ReadCsvString("a;b\n1;2\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 1), Value::Int(2));
}

TEST(CsvReadTest, ForceLexicographicTreatsEverythingAsString) {
  CsvOptions opts;
  opts.type_inference.force_lexicographic = true;
  auto r = ReadCsvString("a\n10\n9\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kString);
}

TEST(CsvWriteTest, RoundTrip) {
  std::string input = "a,b,c\n1,x y,2.5\n3,\"q,r\",4.5\n";
  auto r = ReadCsvString(input);
  ASSERT_TRUE(r.ok());
  std::string out = WriteCsvString(*r);
  auto r2 = ReadCsvString(out);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), r->num_rows());
  for (std::size_t i = 0; i < r->num_rows(); ++i) {
    for (std::size_t c = 0; c < r->num_columns(); ++c) {
      EXPECT_EQ(r2->ValueAt(i, c), r->ValueAt(i, c)) << i << "," << c;
    }
  }
}

TEST(CsvWriteTest, QuotesSpecialFields) {
  auto r = ReadCsvString("a\n\"x,y\"\n");
  ASSERT_TRUE(r.ok());
  std::string out = WriteCsvString(*r);
  EXPECT_EQ(out, "a\n\"x,y\"\n");
}

TEST(CsvReadTest, Utf8BomIsStripped) {
  auto r = ReadCsvString("\xEF\xBB\xBF" "a,b\n1,2\n");
  ASSERT_TRUE(r.ok());
  // Without stripping, the first column would be named "\xEF\xBB\xBFa".
  EXPECT_EQ(r->schema().attribute(0).name, "a");
  EXPECT_EQ(r->num_rows(), 1u);
}

TEST(CsvReadTest, LoneCrTerminatesRecords) {
  // Classic-Mac line endings: lone \r behaves exactly like \r\n and \n.
  auto r = ReadCsvString("a,b\r1,2\r3,4\r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->ValueAt(1, 1), Value::Int(4));
}

TEST(CsvReadTest, MixedTerminatorsAgree) {
  auto lf = ReadCsvString("a\n1\n2\n3\n");
  auto cr = ReadCsvString("a\r1\r2\r3\r");
  auto crlf = ReadCsvString("a\r\n1\r\n2\r\n3\r\n");
  auto mixed = ReadCsvString("a\n1\r2\r\n3\n");
  ASSERT_TRUE(lf.ok() && cr.ok() && crlf.ok() && mixed.ok());
  EXPECT_EQ(cr->num_rows(), lf->num_rows());
  EXPECT_EQ(crlf->num_rows(), lf->num_rows());
  EXPECT_EQ(mixed->num_rows(), lf->num_rows());
}

TEST(CsvReadTest, CrInsideQuotesIsData) {
  auto r = ReadCsvString("a\n\"x\ry\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("x\ry"));
}

TEST(CsvReadTest, FailErrorNamesByteOffsetAndRow) {
  // "3" starts at byte 8; it is physical record 3 (header is row 1).
  auto r = ReadCsvString("a,b\n1,2\n3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("ragged_row"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("byte 8"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("row 3"), std::string::npos)
      << r.status().message();
}

TEST(CsvReadTest, MaxFieldBytesEnforced) {
  CsvOptions opts;
  opts.limits.max_field_bytes = 8;
  auto ok = ReadCsvString("a\n12345678\n", opts);
  EXPECT_TRUE(ok.ok());
  auto bad = ReadCsvString("a\n123456789\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("field_too_large"), std::string::npos);
}

TEST(CsvReadTest, MaxFieldBytesEnforcedInsideQuotes) {
  CsvOptions opts;
  opts.limits.max_field_bytes = 4;
  auto bad = ReadCsvString("a\n\"123456789\"\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("field_too_large"), std::string::npos);
}

TEST(CsvReadTest, MaxRecordBytesEnforced) {
  CsvOptions opts;
  opts.limits.max_record_bytes = 16;
  auto bad = ReadCsvString("a,b\n" + std::string(40, 'x') + ",1\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("record_too_large"),
            std::string::npos);
}

TEST(CsvReadTest, MaxColumnsEnforced) {
  CsvOptions opts;
  opts.limits.max_columns = 3;
  auto ok = ReadCsvString("a,b,c\n1,2,3\n", opts);
  EXPECT_TRUE(ok.ok());
  auto bad = ReadCsvString("a,b,c,d\n1,2,3,4\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("too_many_columns"),
            std::string::npos);
}

TEST(CsvReadTest, MaxRowsIsAlwaysFatal) {
  CsvOptions opts;
  opts.limits.max_rows = 2;
  opts.on_bad_row = BadRowPolicy::kQuarantine;  // even under lax policy
  auto bad = ReadCsvString("a\n1\n2\n3\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("too_many_rows"), std::string::npos);
}

TEST(CsvPolicyTest, SkipDropsAndCountsBadRows) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kSkip;
  std::string nul_row("\0,9\n", 4);
  auto r = ReadCsvWithReport("a,b\n1,2\nragged\n3,4\n" + nul_row + "5,6\n",
                             opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->relation.num_rows(), 3u);
  EXPECT_EQ(r->report.records_total, 5u);
  EXPECT_EQ(r->report.rows_ingested, 3u);
  EXPECT_EQ(r->report.rows_rejected, 2u);
  EXPECT_EQ(r->report.rejected_by_code.count("ragged_row"), 1u);
  EXPECT_EQ(r->report.rejected_by_code.count("embedded_nul"), 1u);
  EXPECT_TRUE(r->report.quarantined_rows.empty());
  ASSERT_EQ(r->report.samples.size(), 2u);
  EXPECT_EQ(r->report.samples[0].code, IngestErrorCode::kRaggedRow);
  EXPECT_EQ(r->report.samples[0].row, 3u);
}

TEST(CsvPolicyTest, QuarantineKeepsRawRowsInMemory) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  auto r = ReadCsvWithReport("a,b\nx\n1,2\ny,y,y\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation.num_rows(), 1u);
  ASSERT_EQ(r->report.quarantined_rows.size(), 2u);
  EXPECT_EQ(r->report.quarantined_rows[0], "x");
  EXPECT_EQ(r->report.quarantined_rows[1], "y,y,y");
  EXPECT_TRUE(r->report.quarantine_path.empty());
}

TEST(CsvPolicyTest, QuarantineWritesRawRowsToFile) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  opts.quarantine_path = ::testing::TempDir() + "/ocdd_quarantine.txt";
  auto r = ReadCsvWithReport("a,b\nbad row\n1,2\nworse,row,here\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->report.quarantine_path, opts.quarantine_path);
  EXPECT_TRUE(r->report.quarantined_rows.empty());  // moved to the file
  std::ifstream in(opts.quarantine_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "bad row\nworse,row,here\n");
}

TEST(CsvPolicyTest, QuarantinePreservesCrTerminatedRawBytes) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  auto r = ReadCsvWithReport("a,b\r\nbad\r\n1,2\r\n", opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->report.quarantined_rows.size(), 1u);
  // Terminator (including the \r of \r\n) is stripped from the raw row.
  EXPECT_EQ(r->report.quarantined_rows[0], "bad");
}

TEST(CsvPolicyTest, RecoveryAfterBrokenQuoteSalvagesLaterRows) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kSkip;
  opts.limits.max_field_bytes = 8;
  // The quoted field blows the limit mid-record; the reader must resync at
  // the next line and still ingest the rows after it.
  auto r = ReadCsvWithReport("a,b\n\"0123456789xyz,2\n3,4\n5,6\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation.num_rows(), 2u);
  EXPECT_EQ(r->report.rejected_by_code.count("field_too_large"), 1u);
}

TEST(CsvPolicyTest, BadHeaderIsFatalUnderEveryPolicy) {
  for (BadRowPolicy policy : {BadRowPolicy::kFail, BadRowPolicy::kSkip,
                              BadRowPolicy::kQuarantine}) {
    CsvOptions opts;
    opts.on_bad_row = policy;
    std::string nul_header("a,\0\n1,2\n", 8);
    auto r = ReadCsvWithReport(nul_header, opts);
    EXPECT_FALSE(r.ok()) << BadRowPolicyName(policy);
  }
}

TEST(CsvPolicyTest, RejectedRowsChargeRunContextBudget) {
  RunContext ctx;
  ctx.set_check_budget(3);
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kSkip;
  opts.run_context = &ctx;
  std::string text = "a,b\n";
  for (int i = 0; i < 10; ++i) text += "bad\n";
  auto r = ReadCsvWithReport(text, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCheckBudget);
}

TEST(CsvPolicyTest, CleanInputReportsClean) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  auto r = ReadCsvWithReport("a,b\n1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->report.clean());
  EXPECT_EQ(r->report.rows_ingested, 2u);
  EXPECT_TRUE(r->report.rejected_by_code.empty());
}

TEST(CsvPolicyTest, ResyncAfterBadRowAgreesAcrossTerminators) {
  // A ragged row and a NUL row among good ones. The NUL row fails inside
  // the scanner, which must resync at the next terminator of any kind: a
  // CR-terminated file loses no row an LF or CRLF one keeps.
  const std::vector<std::string> lines = {
      "a,b", "1,x", "2", std::string("3,y\0z", 5), "4,w", "5,v", "6,u"};
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  std::vector<CsvIngestReport> reports;
  for (const char* term : {"\n", "\r\n", "\r"}) {
    std::string text;
    for (const std::string& line : lines) text += line + term;
    auto r = ReadCsvWithReport(text, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reports.push_back(r->report);
  }
  EXPECT_EQ(reports[0].rows_ingested, 4u);
  EXPECT_EQ(reports[0].rows_rejected, 2u);
  EXPECT_EQ(reports[0].quarantined_rows,
            (std::vector<std::string>{"2", std::string("3,y\0z", 5)}));
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].rows_ingested, reports[0].rows_ingested) << i;
    EXPECT_EQ(reports[i].rows_rejected, reports[0].rows_rejected) << i;
    EXPECT_EQ(reports[i].quarantined_rows, reports[0].quarantined_rows) << i;
  }
}

TEST(CsvInferenceTest, PaddedSignedAndQuotedIntsStayInt) {
  auto r = ReadCsvString("a\n 5 \n+5\n\"7\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kInt);
  EXPECT_EQ(r->ValueAt(0, 0), Value::Int(5));
  EXPECT_EQ(r->ValueAt(1, 0), Value::Int(5));
  EXPECT_EQ(r->ValueAt(2, 0), Value::Int(7));
}

TEST(CsvInferenceTest, OverflowingDoubleIsInfinity) {
  auto r = ReadCsvString("a\n1e400\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kDouble);
  EXPECT_EQ(r->column(0).double_at(0), std::numeric_limits<double>::infinity());
}

TEST(CsvInferenceTest, LateNonIntTurnsColumnDoubleExactlyAsStrtod) {
  // 1000 ints (with a negative zero and a leading '+'), then one decimal:
  // every row of the kDouble column is bit-equal to strtod of its text.
  std::vector<std::string> texts;
  for (int i = 0; i < 1000; ++i) {
    texts.push_back(std::to_string(i * 7919 - 3000000));
  }
  texts[10] = "-0";
  texts[20] = "+42";
  texts.push_back("2.5");
  std::string csv = "a\n";
  for (const std::string& t : texts) csv += t + "\n";
  auto r = ReadCsvString(csv);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->schema().attribute(0).type, DataType::kDouble);
  ASSERT_EQ(r->num_rows(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const double want = std::strtod(texts[i].c_str(), nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r->column(0).double_at(i)),
              std::bit_cast<std::uint64_t>(want))
        << texts[i];
  }
}

TEST(CsvInferenceTest, IntThenTextKeepsRawUnstrippedStrings) {
  auto r = ReadCsvString("a\n1\n 2 \nfoo\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kString);
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("1"));
  EXPECT_EQ(r->ValueAt(1, 0), Value::String(" 2 "));
  EXPECT_EQ(r->ValueAt(2, 0), Value::String("foo"));
}

TEST(CsvInferenceTest, QuotedPartJoinsUnquotedBytes) {
  auto r = ReadCsvString("a,b\n\"ab\"cd,\"x\"\"y\"z\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("abcd"));
  EXPECT_EQ(r->ValueAt(0, 1), Value::String("x\"yz"));
}

TEST(CsvRoundTripTest, GeneratorRelationsEncodeIdentically) {
  for (const char* name : {"LINEITEM", "DBTESMA", "HORSE"}) {
    auto rel = datagen::MakeDataset(name, 500);
    ASSERT_TRUE(rel.ok()) << name;
    auto back = ReadCsvString(WriteCsvString(*rel));
    ASSERT_TRUE(back.ok()) << name;
    CodedRelation want = CodedRelation::Encode(*rel);
    CodedRelation got = CodedRelation::Encode(*back);
    ASSERT_EQ(got.num_columns(), want.num_columns()) << name;
    bool any_nulls = false;
    for (ColumnId c = 0; c < want.num_columns(); ++c) {
      EXPECT_EQ(got.column(c).codes, want.column(c).codes)
          << name << "." << want.column_name(c);
      any_nulls = any_nulls || want.column(c).has_nulls;
    }
    if (std::string_view(name) == "HORSE") {
      EXPECT_TRUE(any_nulls);
    }
  }
}

TEST(CsvWriteTest, SingleColumnEmptyValueSurvivesRoundTrip) {
  // A NULL in a single-column relation renders as "" — written unquoted it
  // would be a blank line and silently vanish on re-read.
  auto r = ReadCsvString("a\n\"\"\n1\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 2u);
  auto again = ReadCsvString(WriteCsvString(*r));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_rows(), 2u);
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  auto r = ReadCsvFile("/nonexistent/path/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvFileTest, WriteAndReadBack) {
  auto r = ReadCsvString("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  std::string path = ::testing::TempDir() + "/ocdd_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*r, path).ok());
  auto r2 = ReadCsvFile(path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 2u);
  EXPECT_EQ(r2->ValueAt(1, 1), Value::String("y"));
}

}  // namespace
}  // namespace ocdd::rel
