#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/prof.h"
#include "common/rng.h"
#include "core/ocd_discover.h"

namespace perfbench {

namespace core = ocdd::core;
namespace prof = ocdd::prof;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One benchmark invocation, as parsed from the command line.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The `ocdd` binary the daemon spawns as its worker.
  std::string ocdd_bin;
  /// Private scratch directory for inputs, outputs, sockets and state.
  std::string work_dir;
  /// Where the span file of a traced run is written.
  std::string trace_path;
  /// `nproc`: discover jobs use this many threads; the daemon gets half as
  /// many executors and client threads.
  std::size_t nproc = 1;
};

/// Deterministic per-purpose seed derivation, so adding a consumer of
/// randomness does not shift every other input.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// Writes a seeded instance of a generator dataset (the datagen registry)
/// as a CSV file. Set-up only: the timed path never generates data.
bool WriteSeededCsv(const char* dataset, std::size_t rows, std::uint64_t seed,
                    const std::string& path);

/// The lines of a text file; for a CSV, the header comes first.
std::vector<std::string> FileLines(const std::string& path);

std::string ReadFile(const std::string& path);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One timed call into a layer. `name` is `<layer>.<call>` for calls into
/// the program and a bare word for the benchmark's own root spans (a job,
/// a request); `op` groups the spans of one job or request.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// In-memory span recorder, written out once at the end of a run. Begin
/// and End take a mutex: spans are per job or per request, never per row
/// or per check.
class Tracer {
 public:
  Tracer();

  /// Returns the span id.
  int Begin(const std::string& name, int parent, std::uint64_t op);
  void End(int id);

  std::vector<Span> spans() const;
  /// One JSON object per line: id, name, start_s, end_s, parent, op.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span for the enclosing scope; a null tracer records nothing, which is
/// how untraced operations run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent,
             std::uint64_t op)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, parent, op)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-layer self time: a span's duration minus the part its children
/// cover, summed by layer (the name up to the first '.'; root spans without
/// a '.' are the benchmark's own "bench" layer).
std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans);

/// Share of the wall time of root spans named `root` that the self time of
/// their layer spans covers (the rest is the benchmark's own bookkeeping).
double LayerCoverage(const std::vector<Span>& spans, const std::string& root);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// What one invocation reports: the gate, the operation counts, the
/// metrics in declaration order, and free-form lines for people.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Extra named values kept in the result file but not in the metric
  /// line (per-kind latencies, sample counts, error rate).
  std::map<std::string, double> details;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure: prints it and clears `correct`.
  void Mismatch(const std::string& what);
};

// ---------------------------------------------------------------------------
// Memory and disk
// ---------------------------------------------------------------------------

/// Ends a set-up: writes back every dirty page (sync(2)), so writeback of
/// the inputs set-up wrote does not land in the timed phase.
void FinishSetUp();

/// Trims the heap and resets the process's peak-RSS watermark (VmHWM), so
/// the next reading covers only what follows. Returns false when the
/// kernel refuses, in which case the reading covers the whole process
/// lifetime.
bool ResetPeakRss();
/// VmHWM in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// One discovery job: CSV file -> JSON file
// ---------------------------------------------------------------------------

/// Per-job measurements, one per layer call.
struct JobSample {
  double wall_s = 0.0;
  std::uint64_t csv_bytes = 0;
  double csv_read_s = 0.0;
  double encode_s = 0.0;
  std::size_t rows = 0;
  std::uint64_t encoded_bytes = 0;
  double discover_s = 0.0;
  std::size_t threads = 1;
  std::uint64_t checks = 0;
  std::uint64_t candidates = 0;
  std::uint64_t partition_cache_bytes = 0;
  double to_json_s = 0.0;
  std::uint64_t json_bytes = 0;
  /// Profiler phases (busy seconds summed over threads) of this job alone.
  prof::Report profile;
};

struct JobResult {
  bool ok = false;
  std::string error;
  JobSample sample;
  core::OcdDiscoverResult result;
};

/// ReadCsvFileWithReport -> Encode -> DiscoverOcds -> ToJson -> write.
/// Options are the shipped defaults except `num_threads` (and the backend
/// flag, which only the correctness re-run flips). A traced job (non-null
/// `tracer`) records its spans and its own profiler snapshot.
JobResult RunJob(const std::string& csv_path, const std::string& json_path,
                 std::size_t threads, Tracer* tracer, std::uint64_t op,
                 bool flip_backend = false);

/// The ingest half of a job (ReadCsvFileWithReport -> Encode), as the
/// daemon runs it to fingerprint a request's source; fills the relation
/// fields of the sample. Returns false when the file does not parse.
bool RunIngest(const std::string& csv_path, Tracer* tracer, int parent,
               std::uint64_t op, JobSample* sample);

/// Reads the JSON file back and checks it against the in-memory result.
/// Returns an empty string when they agree, else what differs.
std::string CheckJobOutput(const std::string& json_path,
                           const core::OcdDiscoverResult& result,
                           double* parse_s);

/// Per-layer metrics of the relation/core/report layers, as medians over
/// the given job samples. `relation` feeds the relation metrics, `core`
/// the core metrics and report.to_json; `parse_s` the report read-back.
void SetJobLayerMetrics(const std::vector<JobSample>& relation,
                        const std::vector<JobSample>& core,
                        const std::vector<double>& parse_s,
                        Outcome* outcome);

// ---------------------------------------------------------------------------
// Workloads and probes
// ---------------------------------------------------------------------------

void RunDiscoverWorkload(const Config& config, Outcome* outcome);
void RunServeWorkload(const Config& config, Outcome* outcome);

/// The next incremental batch for a state whose first `base_rows.size()`
/// rows are its base: with `append` (or when nothing was appended yet),
/// 1-10 copies of base rows; else deletes of 1-10 previously appended rows.
/// So every maintained dependency keeps holding and the state stays near
/// its base size. Updates `*rows`.
std::string NextBatchText(const std::vector<std::string>& base_rows,
                          bool append, std::size_t* rows, ocdd::Rng& rng);

/// Layer probes every traced run performs: engine spawn cost and
/// in-process incremental maintenance on a LATTICE-shaped state. The
/// serve workload passes the hook-served ratio its own apply_batch
/// responses observed (a negative value means: use the probe's).
void RunLayerProbes(const Config& config, Tracer* tracer, Outcome* outcome,
                    double serve_hook_served_ratio);

/// Writes the span file, prints the per-layer self-time table, and sets
/// trace.overhead_pct (traced over untraced median operation time; traced
/// runs alternate traced and untraced operations) and trace.self_coverage
/// (over the root spans named `root`).
void ReportTrace(const Config& config, const Tracer& tracer,
                 const std::string& root, double untraced_p50,
                 double traced_p50, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
