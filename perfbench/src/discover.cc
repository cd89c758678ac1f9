// The two discovery workloads: a closed loop of CSV -> JSON jobs, one at a
// time, on seeded LATTICE-shaped (discover-checks) or LINEITEM-shaped
// (discover-ingest) files written during set-up.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Shape {
  const char* dataset;
  std::size_t rows;
  /// Distinct seeded files; jobs cycle through them.
  std::size_t pool;
};

Shape ShapeFor(const std::string& workload) {
  if (workload == "discover-ingest") return {"LINEITEM", 100'000, 3};
  return {"LATTICE", 2'000, 16};
}

bool MakeInputs(const Config& config, const Shape& shape,
                const std::string& dir, std::vector<std::string>* paths) {
  paths->clear();
  for (std::size_t i = 0; i < shape.pool; ++i) {
    const std::string path = dir + "/in-" + std::to_string(i) + ".csv";
    if (!WriteSeededCsv(shape.dataset, shape.rows,
                        DeriveSeed(config.seed, 100 + i), path)) {
      return false;
    }
    paths->push_back(path);
  }
  return true;
}

}  // namespace

void RunDiscoverWorkload(const Config& config, Outcome* outcome) {
  const Shape shape = ShapeFor(config.workload);
  Tracer tracer;

  // Set-up: write the seeded inputs and run one untimed warm-up job (thread
  // pool, allocator and page cache). Untraced runs set up three times and
  // report the median; every repetition does the same work.
  const int reps = config.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<std::string> inputs;
  std::string dir;
  for (int rep = 0; rep < reps; ++rep) {
    if (!dir.empty()) fs::remove_all(dir);
    dir = config.work_dir + "/setup" + std::to_string(rep);
    fs::create_directories(dir);
    const Clock::time_point t = Clock::now();
    if (!MakeInputs(config, shape, dir, &inputs)) {
      outcome->Mismatch("set-up could not write the input CSVs");
      return;
    }
    JobResult warm =
        RunJob(inputs[0], dir + "/warmup.json", config.nproc, nullptr, 0);
    if (!warm.ok) {
      outcome->Mismatch("warm-up job failed: " + warm.error);
      return;
    }
    FinishSetUp();
    setup_s.push_back(SecondsSince(t));
  }

  // Timed phase. A traced run traces every other job, so the tracing
  // overhead is measured against untraced jobs on the same inputs.
  const bool peak_reset = ResetPeakRss();
  std::vector<double> untraced_s, traced_s;
  std::vector<JobSample> samples;
  std::vector<double> parse_s;
  core::OcdDiscoverResult first_result;
  std::string first_input;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t op = 1; SecondsSince(start) < config.seconds; ++op) {
    const bool traced = config.trace && op % 2 == 0;
    const std::string& input = inputs[op % inputs.size()];
    const std::string json = dir + "/out-" + std::to_string(op % 4) + ".json";
    ++outcome->attempted;
    JobResult job = RunJob(input, json, config.nproc,
                           traced ? &tracer : nullptr, op);
    if (!job.ok) {
      ++outcome->failed;
      std::printf("# job %llu failed: %s\n",
                  static_cast<unsigned long long>(op), job.error.c_str());
      continue;
    }
    (traced ? traced_s : untraced_s).push_back(job.sample.wall_s);
    double parse = 0.0;
    const std::string why = CheckJobOutput(json, job.result, &parse);
    if (!why.empty()) outcome->Mismatch(why);
    if (traced) {
      samples.push_back(job.sample);
      parse_s.push_back(parse);
    }
    if (first_input.empty()) {
      first_input = input;
      first_result = std::move(job.result);
    }
  }
  const double peak_mb = PeakRssMb();

  // Gate: the first job, re-run with the other check backend on one thread,
  // must give identical OCD and OD lists.
  if (!first_input.empty()) {
    JobResult other = RunJob(first_input, dir + "/recheck.json", 1, nullptr,
                             0, /*flip_backend=*/true);
    if (!other.ok) {
      outcome->Mismatch("backend re-run failed: " + other.error);
    } else if (other.result.ocds != first_result.ocds ||
               other.result.ods != first_result.ods) {
      outcome->Mismatch(first_input +
                        ": other check backend on 1 thread disagrees");
    } else {
      std::printf("# gate: %s identical with the other check backend on "
                  "1 thread (%zu OCDs, %zu ODs)\n",
                  first_input.c_str(), first_result.ocds.size(),
                  first_result.ods.size());
    }
  }
  if (untraced_s.empty() || (config.trace && traced_s.empty())) {
    outcome->Mismatch("too few jobs completed in the timed phase");
    return;
  }

  std::printf("# %s: %zu jobs of %s x %zu rows, %zu threads\n",
              config.workload.c_str(), untraced_s.size() + traced_s.size(),
              shape.dataset, shape.rows, config.nproc);
  if (!config.trace) {
    double busy = 0.0;
    for (double s : untraced_s) busy += s;
    outcome->Set("setup_s", Median(setup_s), "s");
    outcome->Set("op_p50_ms", Median(untraced_s) * 1e3, "ms");
    outcome->Set("ops_per_s", static_cast<double>(untraced_s.size()) / busy,
                 "1/s");
    outcome->Set("peak_rss_mb", peak_mb, "MB");
    outcome->details["op_p90_ms"] = Quantile(untraced_s, 0.9) * 1e3;
    outcome->details["op_samples"] = static_cast<double>(untraced_s.size());
    if (!peak_reset) {
      std::printf("# note: peak RSS could not be reset; it covers set-up\n");
    }
    return;
  }

  SetJobLayerMetrics(samples, samples, parse_s, outcome);
  outcome->Set("serve.cache_hit_ratio", 0.0, "ratio");  // no daemon here
  RunLayerProbes(config, &tracer, outcome, -1.0);
  ReportTrace(config, tracer, "job", Median(untraced_s), Median(traced_s),
              outcome);
}

}  // namespace perfbench
