#include "relation/csv.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <iterator>
#include <string_view>

#include "common/io_env.h"
#include "common/run_context.h"

namespace ocdd::rel {

const char* BadRowPolicyName(BadRowPolicy policy) {
  switch (policy) {
    case BadRowPolicy::kFail:
      return "fail";
    case BadRowPolicy::kSkip:
      return "skip";
    case BadRowPolicy::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

namespace {

/// One physical record as scanned from the raw text: its fields (views into
/// the input text, or into the scanner's arena for fields that needed
/// unescaping) when it tokenized cleanly, or a structured error plus the
/// raw byte span `[begin, end)` (terminator excluded) for quarantining.
struct RawRecord {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// 1-based physical record number (header counts as row 1).
  std::uint64_t row = 0;
  bool ok = true;
  IngestError error;
};

/// Record-at-a-time tokenizer with quote-state recovery: a structural error
/// (NUL, oversized field/record, too many columns, unterminated quote)
/// fails only the *current* record and resynchronizes at the next raw line
/// terminator, so one mangled row cannot take the rest of the file with it.
/// The declared CsvLimits are enforced while scanning — before the parser
/// buffers more than one limit's worth of bytes on the input's behalf.
///
/// A field is a view of the input bytes when they spell it verbatim (an
/// unquoted field, or a quoted one without a doubled quote). A field that
/// needs unescaping (`"a""b"`, `"ab"cd`) is copied once into the arena,
/// whose strings never move: every view stays valid while both `text` and
/// the scanner live.
class RecordScanner {
 public:
  RecordScanner(const std::string& text, const CsvOptions& options,
                std::size_t start)
      : text_(text), options_(options), pos_(start) {}

  /// Scans the next record into `*rec`; false at end of input. Blank lines
  /// are skipped without producing a record.
  bool Next(RawRecord* rec) {
    const std::size_t n = text_.size();
    // LF, CRLF, and lone CR all terminate records; runs of terminators are
    // blank lines, not empty records.
    while (pos_ < n) {
      if (text_[pos_] == '\n') {
        ++pos_;
      } else if (text_[pos_] == '\r') {
        pos_ += (pos_ + 1 < n && text_[pos_ + 1] == '\n') ? 2 : 1;
      } else {
        break;
      }
    }
    if (pos_ >= n) return false;

    rec->fields.clear();
    rec->ok = true;
    rec->error = IngestError{};
    rec->begin = pos_;
    rec->row = ++row_;

    const CsvLimits& lim = options_.limits;
    // The field so far: `field_len` unescaped bytes, either the input span
    // starting at `field_begin` or, once `materialized`, `unescaped_`.
    std::size_t field_begin = 0;
    std::size_t field_len = 0;
    bool materialized = false;
    bool in_quotes = false;
    bool field_was_quoted = false;
    std::size_t quote_open_pos = 0;

    auto append = [&](std::size_t i) {
      if (materialized) {
        unescaped_.push_back(text_[i]);
      } else if (field_len == 0) {
        field_begin = i;
      } else if (field_begin + field_len != i) {
        // The input skipped a byte (a quote): the field is no longer a
        // verbatim span.
        unescaped_.assign(text_, field_begin, field_len);
        unescaped_.push_back(text_[i]);
        materialized = true;
      }
      ++field_len;
    };
    auto end_field = [&]() -> bool {
      if (rec->fields.size() >= lim.max_columns) return false;
      std::string_view field;
      if (materialized) {
        arena_.push_back(unescaped_);
        field = arena_.back();
      } else if (field_len > 0) {
        field = std::string_view(text_.data() + field_begin, field_len);
      }
      rec->fields.push_back(field);
      field_len = 0;
      materialized = false;
      field_was_quoted = false;
      return true;
    };
    auto too_many_columns = [&](std::size_t at) {
      Fail(rec, IngestErrorCode::kTooManyColumns, at, rec->fields.size() + 1,
           "record exceeds max_columns=" + std::to_string(lim.max_columns));
    };

    while (pos_ < n) {
      const std::size_t i = pos_;
      const char c = text_[i];
      if (i - rec->begin >= lim.max_record_bytes) {
        Fail(rec, IngestErrorCode::kRecordTooLarge, i, 0,
             "record exceeds max_record_bytes=" +
                 std::to_string(lim.max_record_bytes));
        return true;
      }
      if (c == '\0') {
        // NUL never appears in valid CSV text (inside or outside quotes);
        // it is the signature of binary input fed to the text reader.
        Fail(rec, IngestErrorCode::kEmbeddedNul, i, rec->fields.size() + 1,
             "embedded NUL byte");
        return true;
      }
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < n && text_[i + 1] == '"') {
            append(i);
            pos_ += 2;
          } else {
            in_quotes = false;
            ++pos_;
          }
          continue;
        }
        if (field_len >= lim.max_field_bytes) {
          Fail(rec, IngestErrorCode::kFieldTooLarge, i, rec->fields.size() + 1,
               "field exceeds max_field_bytes=" +
                   std::to_string(lim.max_field_bytes));
          return true;
        }
        append(i);
        ++pos_;
        continue;
      }
      if (c == '"' && field_len == 0 && !field_was_quoted) {
        in_quotes = true;
        field_was_quoted = true;
        quote_open_pos = i;
        ++pos_;
        continue;
      }
      if (c == options_.separator) {
        if (!end_field()) {
          too_many_columns(i);
          return true;
        }
        ++pos_;
        continue;
      }
      if (c == '\n' || c == '\r') {
        rec->end = i;
        pos_ = i + ((c == '\r' && i + 1 < n && text_[i + 1] == '\n') ? 2 : 1);
        if (!end_field()) {
          too_many_columns(i);
        }
        return true;
      }
      if (field_len >= lim.max_field_bytes) {
        Fail(rec, IngestErrorCode::kFieldTooLarge, i, rec->fields.size() + 1,
             "field exceeds max_field_bytes=" +
                 std::to_string(lim.max_field_bytes));
        return true;
      }
      if (field_len == 0) {
        // An unquoted field: every byte up to the next separator, line
        // terminator or NUL is data. The scan stops short of the limits so
        // the checks above run on the byte that trips one.
        const char* data = text_.data();
        // Both limits have room for byte i (checked above), so neither
        // difference underflows.
        const std::size_t stop =
            i + std::min({n - i, lim.max_record_bytes - (i - rec->begin),
                          lim.max_field_bytes});
        std::size_t j = i + 1;
        while (j < stop && data[j] != options_.separator && data[j] != '\n' &&
               data[j] != '\r' && data[j] != '\0') {
          ++j;
        }
        field_begin = i;
        field_len = j - i;
        pos_ = j;
        continue;
      }
      append(i);
      ++pos_;
    }
    // End of input inside a record.
    if (in_quotes) {
      Fail(rec, IngestErrorCode::kUnterminatedQuote, quote_open_pos,
           rec->fields.size() + 1,
           "quoted field never closed before end of input");
      return true;
    }
    rec->end = n;
    if (!end_field()) {
      too_many_columns(n);
    }
    return true;
  }

 private:
  /// Marks the record bad and resynchronizes at the next raw line
  /// terminator (LF, CRLF or lone CR) at or after `offset`. The scan is
  /// quote-blind: once a record is structurally broken its quote state
  /// cannot be trusted, and a plain line boundary is the recovery point
  /// that salvages the most subsequent rows.
  void Fail(RawRecord* rec, IngestErrorCode code, std::size_t offset,
            std::uint64_t column, std::string detail) {
    rec->ok = false;
    rec->error.code = code;
    rec->error.byte_offset = offset;
    rec->error.row = rec->row;
    rec->error.column = column;
    rec->error.detail = std::move(detail);
    const std::size_t term = text_.find_first_of("\r\n", offset);
    if (term == std::string::npos) {
      rec->end = text_.size();
      pos_ = text_.size();
    } else {
      // A failure between the CR and LF of a CRLF still ends the record
      // before the CR.
      rec->end = (text_[term] == '\n' && term > rec->begin &&
                  text_[term - 1] == '\r')
                     ? term - 1
                     : term;
      pos_ = term + ((text_[term] == '\r' && term + 1 < text_.size() &&
                      text_[term + 1] == '\n')
                         ? 2
                         : 1);
    }
    rec->error.excerpt = SanitizeExcerpt(
        text_.substr(rec->begin,
                     std::min<std::size_t>(rec->end - rec->begin, 64)));
  }

  const std::string& text_;
  const CsvOptions& options_;
  std::size_t pos_;
  std::uint64_t row_ = 0;
  /// Unescaped bytes of the field being scanned, when it is not a verbatim
  /// input span.
  std::string unescaped_;
  /// Materialized fields; a deque never relocates its elements.
  std::deque<std::string> arena_;
};

constexpr std::size_t kMaxErrorSamples = 5;

IngestError RaggedRowError(const std::string& text, const RawRecord& rec,
                           std::size_t width) {
  IngestError err;
  err.code = IngestErrorCode::kRaggedRow;
  err.byte_offset = rec.begin;
  err.row = rec.row;
  err.column = rec.fields.size();
  err.detail = "row has " + std::to_string(rec.fields.size()) +
               " fields, expected " + std::to_string(width);
  err.excerpt = SanitizeExcerpt(
      text.substr(rec.begin, std::min<std::size_t>(rec.end - rec.begin, 64)));
  return err;
}

}  // namespace

Result<CsvRead> ReadCsvWithReport(const std::string& text,
                                  const CsvOptions& options) {
  CsvRead out;
  CsvIngestReport& report = out.report;

  // A leading UTF-8 BOM is presentation, not data.
  std::size_t start = 0;
  if (text.size() >= 3 && text.compare(0, 3, "\xEF\xBB\xBF") == 0) start = 3;

  RecordScanner scanner(text, options, start);
  RawRecord rec;

  std::vector<std::string> names;
  // Accepted records' fields, one vector per column: type inference and
  // parsing walk a column at a time.
  std::vector<std::vector<std::string_view>> fields;
  bool have_width = false;
  std::size_t width = 0;

  // Applies the bad-row policy to one rejected record. Returns non-OK only
  // when the whole read must stop (kFail, or a RunContext budget ran out).
  auto reject = [&](const RawRecord& bad, const IngestError& err) -> Status {
    if (options.on_bad_row == BadRowPolicy::kFail) return err.ToStatus();
    ++report.rows_rejected;
    report.rejected_by_code.Add(err.code);
    if (report.samples.size() < kMaxErrorSamples) report.samples.push_back(err);
    if (options.on_bad_row == BadRowPolicy::kQuarantine) {
      report.quarantined_rows.push_back(
          text.substr(bad.begin, bad.end - bad.begin));
    }
    if (options.run_context != nullptr && options.run_context->CountCheck(1)) {
      return Status::ResourceExhausted(
          "ingest stopped after " + std::to_string(report.rows_rejected) +
          " rejected rows (" +
          StopReasonName(options.run_context->stop_reason()) +
          "); last: " + err.ToString());
    }
    return Status::OK();
  };

  while (scanner.Next(&rec)) {
    if (!have_width) {
      // The first record anchors the schema (names or width); it must be
      // structurally sound no matter the policy — there is nothing to
      // ingest against without it.
      if (!rec.ok) return rec.error.ToStatus();
      width = rec.fields.size();
      have_width = true;
      fields.resize(width);
      if (options.has_header) {
        names.assign(rec.fields.begin(), rec.fields.end());
        continue;
      }
      for (std::size_t i = 0; i < width; ++i) {
        names.push_back("col" + std::to_string(i));
      }
      // No header: the first record is data; fall through to count it.
    }
    ++report.records_total;
    if (options.limits.max_rows != 0 &&
        report.records_total > options.limits.max_rows) {
      IngestError err;
      err.code = IngestErrorCode::kTooManyRows;
      err.byte_offset = rec.begin;
      err.row = rec.row;
      err.detail =
          "input exceeds max_rows=" + std::to_string(options.limits.max_rows);
      return err.ToStatus();
    }
    if (!rec.ok) {
      OCDD_RETURN_IF_ERROR(reject(rec, rec.error));
      continue;
    }
    if (rec.fields.size() != width) {
      OCDD_RETURN_IF_ERROR(reject(rec, RaggedRowError(text, rec, width)));
      continue;
    }
    for (std::size_t c = 0; c < width; ++c) fields[c].push_back(rec.fields[c]);
    ++report.rows_ingested;
  }

  if (!have_width) {
    IngestError err;
    err.code = IngestErrorCode::kEmptyInput;
    err.detail = "empty CSV input";
    return err.ToStatus();
  }

  // Quarantined raw rows go to the configured file; with no path they stay
  // on the report (tests, fuzzers).
  if (!report.quarantined_rows.empty() && !options.quarantine_path.empty()) {
    // Through io_env (sites "quarantine.*"): a full disk mid-quarantine is a
    // typed IoError, not a silently truncated evidence file.
    std::string joined;
    for (const std::string& line : report.quarantined_rows) {
      joined += line;
      joined += '\n';
    }
    OCDD_RETURN_IF_ERROR(IoWriteFileSynced(IoEnv::Get(), "quarantine",
                                           options.quarantine_path,
                                           joined.data(), joined.size()));
    report.quarantine_path = options.quarantine_path;
    report.quarantined_rows.clear();
  }

  std::vector<Attribute> attrs(width);
  std::vector<Column> columns;
  columns.reserve(width);
  for (std::size_t c = 0; c < width; ++c) {
    columns.push_back(ParseColumn(fields[c], options.type_inference));
    fields[c] = {};
    attrs[c].name = std::move(names[c]);
    attrs[c].type = columns.back().type();
  }
  OCDD_ASSIGN_OR_RETURN(out.relation,
                        Relation::FromColumns(Schema(std::move(attrs)),
                                              std::move(columns)));
  return out;
}

Result<CsvRead> ReadCsvFileWithReport(const std::string& path,
                                      const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open file: " + path);
  }
  std::string text;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size >= 0) {
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(text.data(), size);
    text.resize(static_cast<std::size_t>(in.gcount()));
  } else {
    // Not seekable (a pipe): stream it.
    in.clear();
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  return ReadCsvWithReport(text, options);
}

Result<Relation> ReadCsvString(const std::string& text,
                               const CsvOptions& options) {
  OCDD_ASSIGN_OR_RETURN(CsvRead read, ReadCsvWithReport(text, options));
  return std::move(read.relation);
}

Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  OCDD_ASSIGN_OR_RETURN(CsvRead read, ReadCsvFileWithReport(path, options));
  return std::move(read.relation);
}

namespace {

bool NeedsQuoting(const std::string& s, char sep) {
  for (char c : s) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string& out, const std::string& s, char sep,
                 bool only_field) {
  // In a single-column relation an empty field would render as a blank
  // line, which the reader skips; quote it so the row survives round-trip.
  if (s.empty() && only_field) {
    out += "\"\"";
    return;
  }
  if (!NeedsQuoting(s, sep)) {
    out += s;
    return;
  }
  out.push_back('"');
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

std::string WriteCsvString(const Relation& relation, char separator) {
  std::string out;
  const Schema& schema = relation.schema();
  const bool single = schema.num_columns() == 1;
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out.push_back(separator);
    AppendField(out, schema.attribute(c).name, separator, single);
  }
  out.push_back('\n');
  for (std::size_t r = 0; r < relation.num_rows(); ++r) {
    for (std::size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out.push_back(separator);
      AppendField(out, relation.ValueAt(r, c).ToString(), separator, single);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Relation& relation, const std::string& path,
                    char separator) {
  const std::string text = WriteCsvString(relation, separator);
  return IoWriteFileSynced(IoEnv::Get(), "csv_write", path, text.data(),
                           text.size());
}

}  // namespace ocdd::rel
