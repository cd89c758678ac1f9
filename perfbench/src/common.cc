#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/rng.h"
#include "datagen/registry.h"
#include "relation/coded_relation.h"
#include "relation/csv.h"
#include "report/json_reader.h"
#include "report/json_writer.h"

namespace perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  ocdd::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  rng.Next();
  return rng.Next();
}

bool WriteSeededCsv(const char* dataset, std::size_t rows, std::uint64_t seed,
                    const std::string& path) {
  auto relation = ocdd::datagen::MakeDataset(dataset, rows, seed);
  return relation.ok() && ocdd::rel::WriteCsvFile(*relation, path).ok();
}

std::vector<std::string> FileLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

int Tracer::Begin(const std::string& name, int parent, std::uint64_t op) {
  const double now = SecondsSince(epoch_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  const double now = SecondsSince(epoch_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<Span> all = spans();
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                  "\"op\":%llu}\n",
                  s.start_s, s.end_s, s.parent,
                  static_cast<unsigned long long>(s.op));
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << buf;
  }
  return static_cast<bool>(out);
}

namespace {

std::string LayerOf(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

/// Self time of every span: duration minus its children's durations.
/// Children of one span never overlap (each job or request issues its
/// layer calls one after another).
std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_s - spans[i].start_s;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[LayerOf(spans[i].name)] += self[i];
  }
  return by_layer;
}

double LayerCoverage(const std::vector<Span>& spans, const std::string& root) {
  const std::vector<double> self = SelfTimes(spans);
  auto root_of = [&](std::size_t i) {
    while (spans[i].parent >= 0) i = static_cast<std::size_t>(spans[i].parent);
    return i;
  };
  double root_wall = 0.0;
  double layer_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[root_of(i)].name != root) continue;
    if (spans[i].parent < 0) {
      root_wall += spans[i].end_s - spans[i].start_s;
    } else if (LayerOf(spans[i].name) != "bench") {
      layer_self += self[i];
    }
  }
  return root_wall > 0.0 ? layer_self / root_wall : 0.0;
}

std::string NextBatchText(const std::vector<std::string>& base_rows,
                          bool append, std::size_t* rows, ocdd::Rng& rng) {
  const std::size_t base = base_rows.size();
  const std::size_t appended = *rows - base;
  std::string text = "ocdd-batch 1\n";
  if (append || appended == 0) {
    const std::size_t k = 1 + rng.Uniform(10);
    for (std::size_t i = 0; i < k; ++i) {
      text += "+ " + base_rows[rng.Uniform(base)] + "\n";
    }
    *rows += k;
    return text;
  }
  const std::size_t k = 1 + rng.Uniform(std::min<std::size_t>(10, appended));
  std::vector<std::size_t> pick;
  while (pick.size() < k) {
    const std::size_t row = base + rng.Uniform(appended);
    if (std::find(pick.begin(), pick.end(), row) == pick.end()) {
      pick.push_back(row);
    }
  }
  for (std::size_t row : pick) text += "- " + std::to_string(row) + "\n";
  *rows -= k;
  return text;
}

// ---------------------------------------------------------------------------
// Outcome, memory
// ---------------------------------------------------------------------------

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  metrics.emplace_back(name, std::make_pair(value, unit));
}

void Outcome::Mismatch(const std::string& what) {
  std::printf("# MISMATCH: %s\n", what.c_str());
  std::fflush(stdout);
  correct = false;
}

void FinishSetUp() { ::sync(); }

bool ResetPeakRss() {
  // Hand memory that set-up freed back to the kernel first, so the
  // watermark starts from what the timed phase inherits, not from freed
  // heap that the allocator kept.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Discovery jobs
// ---------------------------------------------------------------------------

namespace {

std::uint64_t EncodedBytes(const ocdd::rel::CodedRelation& coded) {
  std::uint64_t bytes = 0;
  for (const ocdd::rel::CodedColumn& c : coded.columns()) {
    bytes += c.codes.size() * sizeof(std::int32_t) + c.codes8.size() +
             c.codes16.size() * sizeof(std::uint16_t) +
             c.packed.size() * sizeof(std::uint64_t);
  }
  return bytes;
}

double PhaseSeconds(const prof::Report& report, const std::string& name) {
  for (const prof::PhaseStats& p : report.phases) {
    if (name == p.name) return p.seconds;
  }
  return 0.0;
}

bool Ingest(const std::string& csv_path, Tracer* tracer, int parent,
            std::uint64_t op, JobSample* s, ocdd::rel::CodedRelation* coded) {
  ocdd::Result<ocdd::rel::CsvRead> read = [&] {
    ScopedSpan span(tracer, "relation.csv_read", parent, op);
    const Clock::time_point t = Clock::now();
    auto r = ocdd::rel::ReadCsvFileWithReport(csv_path);
    s->csv_read_s = SecondsSince(t);
    return r;
  }();
  if (!read.ok()) return false;
  {
    ScopedSpan span(tracer, "relation.encode", parent, op);
    const Clock::time_point t = Clock::now();
    *coded = ocdd::rel::CodedRelation::Encode(read->relation);
    s->encode_s = SecondsSince(t);
  }
  std::error_code ec;
  s->csv_bytes = std::filesystem::file_size(csv_path, ec);
  s->rows = coded->num_rows();
  s->encoded_bytes = EncodedBytes(*coded);
  return true;
}

}  // namespace

bool RunIngest(const std::string& csv_path, Tracer* tracer, int parent,
               std::uint64_t op, JobSample* sample) {
  ocdd::rel::CodedRelation coded;
  return Ingest(csv_path, tracer, parent, op, sample, &coded);
}

JobResult RunJob(const std::string& csv_path, const std::string& json_path,
                 std::size_t threads, Tracer* tracer, std::uint64_t op,
                 bool flip_backend) {
  const bool profile = tracer != nullptr;
  JobResult job;
  JobSample& s = job.sample;
  s.threads = threads;
  if (profile) {
    prof::SetEnabled(true);
    prof::Reset();
  }
  const Clock::time_point start = Clock::now();
  ScopedSpan root(tracer, "job", -1, op);
  ocdd::rel::CodedRelation coded;
  if (!Ingest(csv_path, tracer, root.id(), op, &s, &coded)) {
    prof::SetEnabled(false);
    job.error = csv_path + ": does not parse as CSV";
    return job;
  }

  {
    ScopedSpan span(tracer, "core.discover", root.id(), op);
    core::OcdDiscoverOptions options;
    options.num_threads = threads;
    if (flip_backend) {
      options.use_sorted_partitions = !options.use_sorted_partitions;
    }
    const Clock::time_point t = Clock::now();
    job.result = core::DiscoverOcds(coded, options);
    s.discover_s = SecondsSince(t);
  }
  s.checks = job.result.num_checks;
  s.candidates = job.result.candidates_generated;
  s.partition_cache_bytes = job.result.partition_cache_bytes;
  if (profile) {
    s.profile = prof::Snapshot();
    prof::SetEnabled(false);
  }

  std::string json = [&] {
    ScopedSpan span(tracer, "report.to_json", root.id(), op);
    const Clock::time_point t = Clock::now();
    std::string j = ocdd::report::ToJson(job.result, coded);
    s.to_json_s = SecondsSince(t);
    return j;
  }();
  s.json_bytes = json.size();

  {
    ScopedSpan span(tracer, "write", root.id(), op);
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << json;
    out.close();
    if (!out) {
      job.error = "cannot write " + json_path;
      return job;
    }
  }
  s.wall_s = SecondsSince(start);
  job.ok = job.result.completed;
  if (!job.ok) job.error = csv_path + ": discovery stopped early";
  return job;
}

std::string CheckJobOutput(const std::string& json_path,
                           const core::OcdDiscoverResult& result,
                           double* parse_s) {
  const std::string text = ReadFile(json_path);
  const Clock::time_point t = Clock::now();
  auto doc = ocdd::report::ParseJson(text);
  *parse_s = SecondsSince(t);
  if (!doc.ok()) return json_path + ": " + doc.status().ToString();
  const auto& d = *doc;
  if (d["ocds"].array().size() != result.ocds.size() ||
      d["ods"].array().size() != result.ods.size() ||
      d["checks"].number_value() != static_cast<double>(result.num_checks) ||
      !d["completed"].bool_value()) {
    std::ostringstream why;
    why << json_path << ": JSON has " << d["ocds"].array().size()
        << " OCDs, " << d["ods"].array().size() << " ODs, "
        << d["checks"].number_value() << " checks; the run had "
        << result.ocds.size() << ", " << result.ods.size() << ", "
        << result.num_checks;
    return why.str();
  }
  return "";
}

void SetJobLayerMetrics(const std::vector<JobSample>& relation,
                        const std::vector<JobSample>& core_jobs,
                        const std::vector<double>& parse_s,
                        Outcome* outcome) {
  auto median_of = [](const std::vector<JobSample>& jobs, auto field) {
    std::vector<double> v;
    for (const JobSample& s : jobs) v.push_back(field(s));
    return Median(std::move(v));
  };
  constexpr double kMiB = 1024.0 * 1024.0;

  outcome->Set("relation.csv_read_s",
               median_of(relation, [](const JobSample& s) {
                 return s.csv_read_s;
               }),
               "s");
  outcome->Set("relation.csv_mb_per_s",
               median_of(relation, [&](const JobSample& s) {
                 return static_cast<double>(s.csv_bytes) / kMiB /
                        s.csv_read_s;
               }),
               "MB/s");
  outcome->Set("relation.encode_s",
               median_of(relation, [](const JobSample& s) {
                 return s.encode_s;
               }),
               "s");
  outcome->Set("relation.encoded_bytes_per_row",
               median_of(relation, [](const JobSample& s) {
                 return static_cast<double>(s.encoded_bytes) /
                        static_cast<double>(std::max<std::size_t>(s.rows, 1));
               }),
               "B");

  outcome->Set("core.discover_s",
               median_of(core_jobs, [](const JobSample& s) {
                 return s.discover_s;
               }),
               "s");
  outcome->Set("core.checks_per_s",
               median_of(core_jobs, [](const JobSample& s) {
                 return static_cast<double>(s.checks) / s.discover_s;
               }),
               "1/s");
  const std::pair<const char*, const char*> kPhases[] = {
      {"check.sort_index", "core.prof.sort_index_s"},
      {"check.sort_walk", "core.prof.sort_walk_s"},
      {"generate", "core.prof.generate_s"}};
  for (const auto& [phase, metric] : kPhases) {
    outcome->Set(metric,
                 median_of(core_jobs, [&](const JobSample& s) {
                   return PhaseSeconds(s.profile, phase);
                 }),
                 "s");
  }
  outcome->Set("core.busy_over_wall",
               median_of(core_jobs, [](const JobSample& s) {
                 double busy = 0.0;
                 for (const prof::PhaseStats& p : s.profile.phases) {
                   if (std::string(p.name) != "encode") busy += p.seconds;
                 }
                 return busy / (s.discover_s * static_cast<double>(s.threads));
               }),
               "ratio");
  outcome->Set("core.checks",
               median_of(core_jobs, [](const JobSample& s) {
                 return static_cast<double>(s.checks);
               }),
               "count");
  outcome->Set("core.candidates",
               median_of(core_jobs, [](const JobSample& s) {
                 return static_cast<double>(s.candidates);
               }),
               "count");
  // The partition-based checker's figures read 0 under the default
  // sort-based checker, so they are details, not metrics.
  outcome->details["partition_cache_mb"] =
      median_of(core_jobs, [&](const JobSample& s) {
        return static_cast<double>(s.partition_cache_bytes) / kMiB;
      });
  const std::pair<const char*, const char*> kPartitionPhases[] = {
      {"partition.refine", "prof_refine_s"},
      {"check.fill", "prof_check_fill_s"}};
  for (const auto& [phase, detail] : kPartitionPhases) {
    outcome->details[detail] = median_of(core_jobs, [&](const JobSample& s) {
      return PhaseSeconds(s.profile, phase);
    });
  }

  outcome->Set("report.to_json_s",
               median_of(core_jobs, [](const JobSample& s) {
                 return s.to_json_s;
               }),
               "s");
  outcome->Set("report.json_bytes",
               median_of(core_jobs, [](const JobSample& s) {
                 return static_cast<double>(s.json_bytes);
               }),
               "B");
  outcome->Set("report.parse_s", Median(parse_s), "s");
}

}  // namespace perfbench
