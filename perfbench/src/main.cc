// perfbench: the repository benchmark binary (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --ocdd <worker binary> --work <scratch dir> --results <dir>
//             [--source-rev <id>]
//   perfbench --list
//
// Prints human-readable lines starting with '#', then one JSON line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The same document plus the host stamp is written to
// <results>/<workload>.seed<n>.trace<t>.json. Exit status 0 only when
// every correctness check passed.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/simd_dispatch.h"
#include "report/json_reader.h"

namespace {

namespace fs = std::filesystem;
using perfbench::Config;
using perfbench::Outcome;
using ocdd::report::JsonValue;

const char* const kWorkloads[] = {"discover-checks", "discover-ingest",
                                  "serve-mixed"};

const char* const kEndToEnd[] = {"setup_s", "op_p50_ms", "ops_per_s",
                                 "peak_rss_mb"};

const char* const kPerLayer[] = {
    "relation.csv_read_s",      "relation.csv_mb_per_s",
    "relation.encode_s",        "relation.encoded_bytes_per_row",
    "core.discover_s",          "core.checks_per_s",
    "core.prof.sort_index_s",   "core.prof.sort_walk_s",
    "core.prof.generate_s",     "core.busy_over_wall",
    "core.checks",              "core.candidates",
    "report.to_json_s",         "report.json_bytes",
    "report.parse_s",           "engine.spawn_ms",
    "serve.cache_hit_ratio",    "incremental.open_ms",
    "incremental.apply_ms",     "incremental.hook_served_ratio",
    "incremental.state_bytes",  "trace.overhead_pct",
    "trace.self_coverage"};

std::size_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Steal and total clock ticks of all CPUs (the `cpu` line of /proc/stat).
/// Steal is time the hypervisor ran other guests on this machine's CPUs:
/// the main cause of run-to-run spread on a shared virtual host.
std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(in >> ticks)) break;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --ocdd BIN --work DIR --results DIR "
               "[--source-rev ID]\n       perfbench --list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string results_dir, source_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      for (const char* w : kWorkloads) std::printf("workload %s\n", w);
      for (const char* m : kEndToEnd) std::printf("end_to_end %s\n", m);
      for (const char* m : kPerLayer) std::printf("per_layer %s\n", m);
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--ocdd") {
      config.ocdd_bin = value;
    } else if (flag == "--work") {
      config.work_dir = value;
    } else if (flag == "--results") {
      results_dir = value;
    } else if (flag == "--source-rev") {
      source_rev = value;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || config.workload == w;
  if (!known || config.seconds <= 0 || config.ocdd_bin.empty() ||
      config.work_dir.empty() || results_dir.empty()) {
    return Usage();
  }

  config.nproc = UsableCpus();
  const std::string tag = config.workload + ".seed" +
                          std::to_string(config.seed) + ".trace" +
                          (config.trace ? "1" : "0");
  config.work_dir += "/" + tag + "." + std::to_string(::getpid());
  config.trace_path = results_dir + "/" + tag + ".spans.jsonl";
  fs::remove_all(config.work_dir);
  fs::create_directories(config.work_dir);
  fs::create_directories(results_dir);

  const JsonValue host = JsonValue::Object({
      {"nproc", JsonValue::Number(static_cast<double>(config.nproc))},
      {"cpu_model", JsonValue::String(CpuModel())},
      {"simd", JsonValue::String(
                   ocdd::simd::BackendName(ocdd::simd::Active()))},
      {"build_type", JsonValue::String(PERFBENCH_BUILD_TYPE)},
      {"compiler", JsonValue::String(PERFBENCH_COMPILER)},
      {"source_rev", JsonValue::String(source_rev)}});
  std::printf("# host: %s\n", ocdd::report::SerializeJson(host).c_str());
  std::printf("# workload %s, seed %llu, %.3g s, trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome outcome;
  const auto [steal0, total0] = StealTicks();
  if (config.workload == "serve-mixed") {
    perfbench::RunServeWorkload(config, &outcome);
  } else {
    perfbench::RunDiscoverWorkload(config, &outcome);
  }
  const auto [steal1, total1] = StealTicks();
  fs::remove_all(config.work_dir);
  if (total1 > total0) {
    outcome.details["host_steal_pct"] =
        100.0 * (steal1 - steal0) / (total1 - total0);
  }

  // Every declared metric, and nothing else, or the run is not a result.
  std::vector<std::string> expected;
  if (config.trace) {
    expected.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    expected.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::vector<std::string> got;
  for (const auto& m : outcome.metrics) got.push_back(m.first);
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  if (outcome.correct && got != expected) {
    outcome.Mismatch("the run did not produce exactly the declared metrics");
  }

  for (const auto& [name, value] : outcome.metrics) {
    std::printf("# %-32s %14.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  for (const auto& [name, value] : outcome.details) {
    std::printf("# (detail) %-21s %14.6g\n", name.c_str(), value);
  }

  std::map<std::string, JsonValue> metrics, details;
  for (const auto& [name, value] : outcome.metrics) {
    metrics[name] = JsonValue::Object(
        {{"value", JsonValue::Number(value.first)},
         {"unit", JsonValue::String(value.second)}});
  }
  for (const auto& [name, value] : outcome.details) {
    details[name] = JsonValue::Number(value);
  }
  const JsonValue result = JsonValue::Object(
      {{"correct", JsonValue::Bool(outcome.correct)},
       {"attempted", JsonValue::Number(static_cast<double>(outcome.attempted))},
       {"failed", JsonValue::Number(static_cast<double>(outcome.failed))},
       {"metrics", JsonValue::Object(std::move(metrics))}});
  const std::string line = ocdd::report::SerializeJson(result);
  std::ofstream(results_dir + "/" + tag + ".json")
      << ocdd::report::SerializeJson(JsonValue::Object(
             {{"workload", JsonValue::String(config.workload)},
              {"seed", JsonValue::Number(static_cast<double>(config.seed))},
              {"seconds", JsonValue::Number(config.seconds)},
              {"trace", JsonValue::Number(config.trace ? 1.0 : 0.0)},
              {"host", host},
              {"details", JsonValue::Object(std::move(details))},
              {"result", result}}))
      << "\n";
  std::printf("%s\n", line.c_str());
  return outcome.correct && outcome.attempted > 0 ? 0 : 1;
}
