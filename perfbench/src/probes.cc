// Layer probes and the trace report shared by every traced run.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "algo/incremental/incremental.h"
#include "common.h"
#include "engine/supervisor.h"
#include "relation/batch.h"
#include "relation/csv.h"
#include "report/json_reader.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSpawns = 20;
constexpr int kOpens = 3;
constexpr int kBatches = 8;

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// engine.spawn_ms: RunWorkerProcess on a trivial worker — the `ocdd`
/// binary the daemon spawns, on a two-row CSV.
void EngineProbe(const Config& config, const std::string& dir, Tracer* tracer,
                 Outcome* outcome) {
  const std::string csv = dir + "/tiny.csv";
  std::ofstream(csv) << "a,b\n1,2\n2,3\n";
  std::vector<double> ms;
  for (int i = 0; i < kSpawns; ++i) {
    ScopedSpan root(tracer, "probe", -1, 0);
    ScopedSpan span(tracer, "engine.spawn", root.id(), 0);
    const Clock::time_point t = Clock::now();
    ocdd::engine::WorkerOutcome w = ocdd::engine::RunWorkerProcess(
        {config.ocdd_bin, "run", csv, "--json"});
    ms.push_back(SecondsSince(t) * 1e3);
    if (w.spawn_failed || w.exit_code != 0 ||
        !ocdd::report::ParseJson(w.stdout_text).ok()) {
      outcome->Mismatch("trivial worker failed (exit " +
                        std::to_string(w.exit_code) + ")");
      return;
    }
  }
  outcome->Set("engine.spawn_ms", Median(ms), "ms");
}

/// incremental.*: IncrementalSession::Open and ApplyBatch in-process on a
/// persisted LATTICE-shaped 2,000-row state (the serve-mixed state shape),
/// shipped defaults.
void IncrementalProbe(const Config& config, const std::string& dir,
                      Tracer* tracer, Outcome* outcome,
                      double serve_hook_served_ratio) {
  const std::string csv = dir + "/base.csv";
  ocdd::Result<ocdd::rel::Relation> base =
      ocdd::Status::Internal("cannot write " + csv);
  if (WriteSeededCsv("LATTICE", 2'000, DeriveSeed(config.seed, 700), csv)) {
    base = ocdd::rel::ReadCsvFile(csv);
  }
  if (!base.ok()) {
    outcome->Mismatch("incremental probe: " + base.status().ToString());
    return;
  }
  std::vector<std::string> base_rows = FileLines(csv);
  base_rows.erase(base_rows.begin());

  ocdd::algo::IncrementalOptions options;
  options.state_dir = dir + "/state";
  if (!ocdd::algo::IncrementalSession::Start(*base, options).ok()) {
    outcome->Mismatch("incremental probe: Start failed");
    return;
  }

  std::vector<double> open_ms, apply_ms;
  ocdd::Result<ocdd::algo::IncrementalSession> session =
      ocdd::Status::Internal("not opened");
  for (int i = 0; i < kOpens; ++i) {
    ScopedSpan root(tracer, "probe", -1, 0);
    ScopedSpan span(tracer, "incremental.open", root.id(), 0);
    const Clock::time_point t = Clock::now();
    session = ocdd::algo::IncrementalSession::Open(options, nullptr);
    open_ms.push_back(SecondsSince(t) * 1e3);
    if (!session.ok() || !session->resumed()) {
      outcome->Mismatch("incremental probe: Open did not resume");
      return;
    }
  }

  ocdd::Rng rng(DeriveSeed(config.seed, 701));
  std::size_t rows = base_rows.size();
  std::uint64_t served = 0, total = 0;
  for (int i = 0; i < kBatches; ++i) {
    const std::string text = NextBatchText(base_rows, i % 2 == 0, &rows, rng);
    auto batch = ocdd::rel::ParseBatchText(text, session->relation().schema());
    if (!batch.ok()) {
      outcome->Mismatch("incremental probe: " + batch.status().ToString());
      return;
    }
    ScopedSpan root(tracer, "probe", -1, 0);
    ScopedSpan span(tracer, "incremental.apply", root.id(), 0);
    const Clock::time_point t = Clock::now();
    auto stats = session->ApplyBatch(batch->batch);
    apply_ms.push_back(SecondsSince(t) * 1e3);
    if (!stats.ok() || stats->num_rows != rows) {
      outcome->Mismatch("incremental probe: ApplyBatch failed");
      return;
    }
    served += stats->result.hook_served;
    total += stats->result.hook_served + stats->result.hook_recomputed;
  }
  const core::OcdDiscoverResult scratch =
      ocdd::algo::DiscoverFromScratch(session->relation(), options);
  if (scratch.ocds != session->last_result().ocds ||
      scratch.ods != session->last_result().ods) {
    outcome->Mismatch("incremental probe differs from a from-scratch run");
  }

  outcome->Set("incremental.open_ms", Median(open_ms), "ms");
  outcome->Set("incremental.apply_ms", Median(apply_ms), "ms");
  outcome->Set("incremental.hook_served_ratio",
               serve_hook_served_ratio >= 0.0
                   ? serve_hook_served_ratio
                   : static_cast<double>(served) /
                         static_cast<double>(std::max<std::uint64_t>(total, 1)),
               "ratio");
  outcome->Set("incremental.state_bytes",
               static_cast<double>(DirectoryBytes(options.state_dir)), "B");
}

}  // namespace

void RunLayerProbes(const Config& config, Tracer* tracer, Outcome* outcome,
                    double serve_hook_served_ratio) {
  const std::string dir = config.work_dir + "/probe";
  fs::create_directories(dir);
  EngineProbe(config, dir, tracer, outcome);
  IncrementalProbe(config, dir, tracer, outcome, serve_hook_served_ratio);
}

void ReportTrace(const Config& config, const Tracer& tracer,
                 const std::string& root, double untraced_p50,
                 double traced_p50, Outcome* outcome) {
  const std::vector<Span> spans = tracer.spans();
  if (!tracer.WriteJsonLines(config.trace_path)) {
    outcome->Mismatch("cannot write " + config.trace_path);
  }

  // Per-layer self time over every span of the run: timed-phase jobs or
  // requests, replays and probes.
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) total += s.end_s - s.start_s;
  }
  std::printf("# per-layer self time (%zu spans -> %s)\n", spans.size(),
              config.trace_path.c_str());
  for (const auto& [layer, seconds] : LayerSelfTimes(spans)) {
    std::printf("#   %-12s %10.4f s  %5.1f%%\n", layer.c_str(), seconds,
                total > 0.0 ? 100.0 * seconds / total : 0.0);
  }

  const double coverage = LayerCoverage(spans, root);
  std::printf("# layer self time covers %.1f%% of '%s' wall time; traced "
              "median %.4g vs untraced %.4g\n",
              100.0 * coverage, root.c_str(), traced_p50, untraced_p50);
  outcome->Set("trace.overhead_pct",
               untraced_p50 > 0.0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0)
                                  : 0.0,
               "%");
  outcome->Set("trace.self_coverage", coverage, "ratio");
}

}  // namespace perfbench
