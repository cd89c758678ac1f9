// serve-mixed: an in-process `ocdd serve` daemon on a unix socket, driven
// closed-loop by nproc/2 client threads with a seeded mix of cached `run`
// hits, `run` misses on never-seen CSVs, and `apply_batch` requests
// against one warm incremental state per client.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/incremental/incremental.h"
#include "common.h"
#include "common/rng.h"
#include "report/json_reader.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ocdd::report::JsonValue;

constexpr std::size_t kHotDbtesma = 4;
constexpr std::size_t kHotLattice = 4;
constexpr std::size_t kMissBases = 8;
/// Per block of 10 requests: 7 hits, 2 misses, 1 apply_batch, shuffled.
constexpr int kDeck[10] = {0, 0, 0, 0, 0, 0, 0, 1, 1, 2};
enum Kind { kHit = 0, kMiss = 1, kApply = 2 };
const char* const kKindName[] = {"hit", "miss", "apply"};

/// One warm incremental state, owned by one client thread.
struct WarmState {
  std::string name;
  std::string base_path;
  /// The base CSV's data lines (see NextBatchText).
  std::vector<std::string> base_rows;
  std::size_t rows = 0;
  std::size_t batches = 0;
  std::string batch_path;
};

struct HotEntry {
  std::string path;
  JsonValue report;
};

/// A started daemon plus the inputs set-up wrote for it.
struct Daemon {
  std::string dir;
  std::unique_ptr<ocdd::serve::Server> server;
  std::thread runner;
  ocdd::serve::Endpoint endpoint;
  std::vector<HotEntry> hot;
  std::vector<std::string> miss_paths;
  std::vector<WarmState> states;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  void Stop() {
    if (server != nullptr) server->RequestStop();
    if (runner.joinable()) runner.join();
  }
};

ocdd::serve::ServeRequest RunRequest(const std::string& path,
                                     const std::string& id) {
  ocdd::serve::ServeRequest req;
  req.kind = "run";
  req.id = id;
  req.source = path;
  return req;
}

ocdd::serve::ServeRequest ApplyRequest(const WarmState& state,
                                       const std::string& id,
                                       bool bootstrap) {
  ocdd::serve::ServeRequest req;
  req.kind = "apply_batch";
  req.id = id;
  req.state = state.name;
  if (bootstrap) {
    req.source = state.base_path;
  } else {
    req.batch = state.batch_path;
  }
  return req;
}

/// Writes the next batch file for `state`, alternating appends and
/// deletes; returns the row count the daemon
/// must report afterwards.
std::size_t WriteNextBatch(WarmState& state, ocdd::Rng& rng) {
  std::ofstream out(state.batch_path, std::ios::trunc);
  out << NextBatchText(state.base_rows, state.batches++ % 2 == 0,
                       &state.rows, rng);
  return state.rows;
}

/// Set-up: writes the hot set, the miss pool and the state bases, starts
/// the daemon, warms the cache and bootstraps the states.
bool SetUp(const Config& config, std::size_t clients, std::size_t misses,
           const std::string& dir, Daemon* d, std::string* error) {
  d->dir = dir;
  fs::create_directories(dir + "/in");

  for (std::size_t i = 0; i < kHotDbtesma + kHotLattice; ++i) {
    const bool lattice = i >= kHotDbtesma;
    const std::string path = dir + "/in/hot-" + std::to_string(i) + ".csv";
    if (!WriteSeededCsv(lattice ? "LATTICE" : "DBTESMA",
                        lattice ? 2'000 : 5'000,
                        DeriveSeed(config.seed, 200 + i), path)) {
      *error = "cannot write " + path;
      return false;
    }
    d->hot.push_back({path, JsonValue()});
  }

  // Never-seen miss inputs: row permutations of a few seeded DBTESMA_1K
  // bases, so every file has its own content fingerprint.
  std::vector<std::vector<std::string>> bases;
  for (std::size_t b = 0; b < kMissBases; ++b) {
    const std::string path =
        dir + "/in/miss-base-" + std::to_string(b) + ".csv";
    if (!WriteSeededCsv("DBTESMA_1K", 1'000, DeriveSeed(config.seed, 400 + b),
                        path)) {
      *error = "cannot write " + path;
      return false;
    }
    bases.push_back(FileLines(path));
  }
  for (std::size_t m = 0; m < misses; ++m) {
    std::vector<std::string> lines = bases[m % kMissBases];
    ocdd::Rng rng(DeriveSeed(config.seed, 10'000 + m));
    for (std::size_t i = lines.size() - 1; i > 1; --i) {
      std::swap(lines[i], lines[1 + rng.Uniform(i)]);
    }
    const std::string path = dir + "/in/miss-" + std::to_string(m) + ".csv";
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
    if (!out) {
      *error = "cannot write " + path;
      return false;
    }
    d->miss_paths.push_back(path);
  }

  for (std::size_t c = 0; c < clients; ++c) {
    WarmState st;
    st.name = "s" + std::to_string(c);
    st.base_path = dir + "/in/state-" + std::to_string(c) + ".csv";
    st.batch_path = dir + "/in/batch-" + std::to_string(c) + ".txt";
    if (!WriteSeededCsv("LATTICE", 2'000, DeriveSeed(config.seed, 300 + c),
                        st.base_path)) {
      *error = "cannot write " + st.base_path;
      return false;
    }
    st.base_rows = FileLines(st.base_path);
    st.base_rows.erase(st.base_rows.begin());
    st.rows = st.base_rows.size();
    d->states.push_back(std::move(st));
  }

  // The socket path is kept relative to the working directory: unix socket
  // paths are limited to ~100 bytes and the checkout may sit deep.
  const std::string socket =
      fs::relative(dir + "/d.sock", fs::current_path()).string();
  if (socket.size() > 100) {
    *error = "socket path too long: " + socket;
    return false;
  }
  ocdd::serve::ServerOptions options;
  options.socket_path = socket;
  options.num_executors = clients;
  options.checkpoint_root = dir + "/ckpt";
  options.worker_argv_prefix = {config.ocdd_bin, "run"};
  options.batch_worker_argv_prefix = {config.ocdd_bin, "apply-batch"};
  d->server = std::make_unique<ocdd::serve::Server>(std::move(options));
  ocdd::Status started = d->server->Start();
  if (!started.ok()) {
    *error = "daemon start: " + started.ToString();
    return false;
  }
  d->runner = std::thread([server = d->server.get()] {
    ocdd::Status ran = server->Run();
    if (!ran.ok()) std::fprintf(stderr, "daemon: %s\n", ran.ToString().c_str());
  });
  auto endpoint = ocdd::serve::ParseEndpoint(socket);
  if (!endpoint.ok()) {
    *error = "endpoint: " + endpoint.status().ToString();
    return false;
  }
  d->endpoint = *endpoint;

  // Warm-up: every hot file once (a miss that fills the cache) and every
  // state bootstrapped, `clients` requests at a time.
  std::vector<ocdd::serve::ServeRequest> warm;
  for (const HotEntry& h : d->hot) warm.push_back(RunRequest(h.path, "warm"));
  for (const WarmState& st : d->states) {
    warm.push_back(ApplyRequest(st, "boot", /*bootstrap=*/true));
  }
  std::vector<ocdd::serve::ClientResult> answers(warm.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      ocdd::serve::ServeClient client(d->endpoint);
      for (std::size_t i = next++; i < warm.size(); i = next++) {
        answers[i] = client.Call(warm[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const auto& a = answers[i];
    if (a.outcome != ocdd::serve::ClientOutcome::kResponse ||
        a.response.status != "ok" || !a.response.have_report) {
      *error = "warm-up request " + std::to_string(i) + " failed: " +
               a.error + a.response.error;
      return false;
    }
    if (i < d->hot.size()) d->hot[i].report = a.response.report;
  }
  return true;
}

struct ClientLog {
  std::vector<double> ms[3];
  /// Hits on the small-report (DBTESMA) and large-report (LATTICE) files.
  std::vector<double> hit_ms[2];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t hot_not_hit = 0;
  std::uint64_t hook_served = 0;
  std::uint64_t hook_total = 0;
  std::vector<std::string> mismatches;
  /// (miss index, report) of every answered miss, for sampled re-checks.
  std::vector<std::pair<std::size_t, JsonValue>> misses;
};

double SumRejected(const JsonValue& stats) {
  double sum = 0.0;
  for (const auto& [name, value] : stats["counters"]["rejected"].object()) {
    sum += value.number_value();
  }
  return sum;
}

}  // namespace

void RunServeWorkload(const Config& config, Outcome* outcome) {
  const std::size_t clients = std::max<std::size_t>(1, config.nproc / 2);
  // Headroom for 100 requests/s, a fifth of which are misses.
  const std::size_t misses =
      static_cast<std::size_t>(20.0 * config.seconds) + 20;
  Tracer tracer;

  const int reps = config.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < reps; ++rep) {
    if (daemon != nullptr) {
      daemon->Stop();
      fs::remove_all(daemon->dir);
    }
    daemon = std::make_unique<Daemon>();
    const std::string dir = config.work_dir + "/setup" + std::to_string(rep);
    const Clock::time_point t = Clock::now();
    std::string error;
    if (!SetUp(config, clients, misses, dir, daemon.get(), &error)) {
      outcome->Mismatch("set-up: " + error);
      return;
    }
    FinishSetUp();
    setup_s.push_back(SecondsSince(t));
  }
  Daemon& d = *daemon;

  // Timed phase: closed loop, one request in flight per client. A traced
  // run traces every other request, so the tracing overhead is measured
  // against untraced requests of the same mix.
  const bool peak_reset = ResetPeakRss();
  const JsonValue stats_before = d.server->StatsJson();
  std::atomic<std::size_t> next_miss{0};
  std::atomic<std::uint64_t> next_op{0};
  std::vector<ClientLog> logs(clients);
  std::vector<std::vector<double>> untraced(clients), traced(clients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      WarmState& state = d.states[c];
      ocdd::Rng rng(DeriveSeed(config.seed, 600 + c));
      ocdd::serve::ServeClient client(d.endpoint);
      int deck[10];
      std::size_t pos = 10;
      while (SecondsSince(start) < config.seconds) {
        if (pos == 10) {
          std::copy(std::begin(kDeck), std::end(kDeck), deck);
          for (int i = 9; i > 0; --i) {
            std::swap(deck[i], deck[rng.Uniform(i + 1)]);
          }
          pos = 0;
        }
        const int kind = deck[pos++];
        const std::uint64_t op = ++next_op;
        const bool trace_op = config.trace && op % 2 == 0;
        const std::string id = std::to_string(op);
        ocdd::serve::ServeRequest req;
        std::size_t hot = 0, miss = 0, expect_rows = 0;
        if (kind == kHit) {
          hot = rng.Uniform(d.hot.size());
          req = RunRequest(d.hot[hot].path, id);
        } else if (kind == kMiss) {
          miss = next_miss++;
          if (miss >= d.miss_paths.size()) return;  // pool exhausted
          req = RunRequest(d.miss_paths[miss], id);
        } else {
          expect_rows = WriteNextBatch(state, rng);
          req = ApplyRequest(state, id, /*bootstrap=*/false);
        }

        const Clock::time_point t = Clock::now();
        ocdd::serve::ClientResult res = [&] {
          Tracer* tr = trace_op ? &tracer : nullptr;
          ScopedSpan root(tr, "request", -1, op);
          ScopedSpan call(tr, std::string("serve.") + kKindName[kind],
                          root.id(), op);
          return client.Call(req);
        }();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t)
                .count();

        ++log.attempted;
        const ocdd::serve::ServeResponse& r = res.response;
        if (res.outcome != ocdd::serve::ClientOutcome::kResponse ||
            r.status != "ok" || !r.have_report) {
          ++log.failed;
          log.mismatches.push_back(std::string(kKindName[kind]) + " " + id +
                                   " failed: " + res.error + r.status + " " +
                                   r.error + r.reject_reason);
          if (kind == kApply) return;  // the state's row count is unknown
          continue;
        }
        log.ms[kind].push_back(ms);
        (trace_op ? traced : untraced)[c].push_back(ms);
        if (kind == kHit) {
          log.hit_ms[hot < kHotDbtesma ? 0 : 1].push_back(ms);
          if (r.cache != "hit") ++log.hot_not_hit;
          if (!(r.report == d.hot[hot].report)) {
            log.mismatches.push_back("hit on " + d.hot[hot].path +
                                     " differs from its warm-up report");
          }
        } else if (kind == kMiss) {
          if (r.cache != "miss") {
            log.mismatches.push_back(d.miss_paths[miss] +
                                     " was not a cache miss");
          }
          log.misses.emplace_back(miss, r.report);
        } else {
          if (r.report["num_rows"].number_value() !=
              static_cast<double>(expect_rows)) {
            log.mismatches.push_back(
                "apply_batch " + id + " left " +
                std::to_string(r.report["num_rows"].number_value()) +
                " rows, expected " + std::to_string(expect_rows));
          }
          const double served = r.report["hook_served"].number_value();
          log.hook_served += static_cast<std::uint64_t>(served);
          log.hook_total += static_cast<std::uint64_t>(
              served + r.report["hook_recomputed"].number_value());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = SecondsSince(start);
  std::vector<double> untraced_ms, traced_ms;
  for (std::size_t c = 0; c < clients; ++c) {
    untraced_ms.insert(untraced_ms.end(), untraced[c].begin(),
                       untraced[c].end());
    traced_ms.insert(traced_ms.end(), traced[c].begin(), traced[c].end());
  }
  const double peak_mb = PeakRssMb();
  const JsonValue stats_after = d.server->StatsJson();
  d.Stop();

  ClientLog all;
  for (ClientLog& log : logs) {
    for (int k = 0; k < 3; ++k) {
      all.ms[k].insert(all.ms[k].end(), log.ms[k].begin(), log.ms[k].end());
    }
    for (int k = 0; k < 2; ++k) {
      all.hit_ms[k].insert(all.hit_ms[k].end(), log.hit_ms[k].begin(),
                           log.hit_ms[k].end());
    }
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.hot_not_hit += log.hot_not_hit;
    all.hook_served += log.hook_served;
    all.hook_total += log.hook_total;
    for (std::string& m : log.mismatches) outcome->Mismatch(m);
    for (auto& m : log.misses) all.misses.push_back(std::move(m));
  }
  outcome->attempted += all.attempted;
  outcome->failed += all.failed;
  if (next_miss.load() > d.miss_paths.size()) {
    std::printf("# note: the miss pool ran out; the phase ended early\n");
  }

  // Gate: sampled misses equal an in-process run on the same CSV.
  std::sort(all.misses.begin(), all.misses.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t samples = std::min<std::size_t>(10, all.misses.size());
  for (std::size_t s = 0; s < samples; ++s) {
    const auto& [index, report] =
        all.misses[s * all.misses.size() / samples];
    const std::string& path = d.miss_paths[index];
    JobResult job = RunJob(path, d.dir + "/verify.json", 1, nullptr, 0);
    auto doc = ocdd::report::ParseJson(ReadFile(d.dir + "/verify.json"));
    if (!job.ok || !doc.ok()) {
      outcome->Mismatch(path + ": in-process re-run failed " + job.error);
      continue;
    }
    for (const char* member : {"ocds", "ods", "reduction", "checks"}) {
      if (!((*doc)[member] == report[member])) {
        outcome->Mismatch(path + ": served '" + member +
                          "' differs from an in-process run");
      }
    }
  }

  // Gate: every warm state, reopened, equals a from-scratch run over its
  // materialized relation.
  for (const WarmState& st : d.states) {
    ocdd::algo::IncrementalOptions options;
    options.state_dir = d.dir + "/ckpt/incremental/default/" + st.name;
    auto session = ocdd::algo::IncrementalSession::Open(options, nullptr);
    if (!session.ok() || !session->resumed()) {
      outcome->Mismatch("state " + st.name + " does not reopen");
      continue;
    }
    if (session->relation().num_rows() != st.rows) {
      outcome->Mismatch("state " + st.name + " holds " +
                        std::to_string(session->relation().num_rows()) +
                        " rows, expected " + std::to_string(st.rows));
    }
    const core::OcdDiscoverResult scratch =
        ocdd::algo::DiscoverFromScratch(session->relation(), options);
    if (scratch.ocds != session->last_result().ocds ||
        scratch.ods != session->last_result().ods) {
      outcome->Mismatch("state " + st.name +
                        " differs from a from-scratch run");
    }
  }
  std::printf("# gate: %zu hits compared with warm-up reports, %zu misses "
              "re-run in process, %zu states reopened\n",
              all.ms[kHit].size(), samples, d.states.size());

  std::printf("# serve-mixed: %zu clients, %zu executors\n", clients, clients);
  for (int k = 0; k < 3; ++k) {
    const std::string name = kKindName[k];
    outcome->details[name + "_p50_ms"] = Median(all.ms[k]);
    outcome->details[name + "_p90_ms"] = Quantile(all.ms[k], 0.9);
    outcome->details[name + "_samples"] = static_cast<double>(all.ms[k].size());
    std::printf("#   %-5s n=%-5zu p50 %9.3f ms  p90 %9.3f ms\n", name.c_str(),
                all.ms[k].size(), Median(all.ms[k]), Quantile(all.ms[k], 0.9));
  }
  outcome->details["hit_small_p50_ms"] = Median(all.hit_ms[0]);
  outcome->details["hit_large_p50_ms"] = Median(all.hit_ms[1]);
  outcome->details["hot_not_hit"] = static_cast<double>(all.hot_not_hit);
  outcome->details["error_rate"] =
      all.attempted == 0 ? 0.0
                         : static_cast<double>(all.failed) /
                               static_cast<double>(all.attempted);
  // Daemon counters, as deltas over the timed phase.
  auto delta = [&](const char* group, const char* name) {
    return stats_after[group][name].number_value() -
           stats_before[group][name].number_value();
  };
  const double hits = delta("cache", "hits");
  const double lookups = hits + delta("cache", "misses");
  const double hit_ratio = lookups > 0 ? hits / lookups : 0.0;
  // Health counters: 0 while nothing goes wrong, so details, not metrics.
  outcome->details["serve_rejected"] =
      SumRejected(stats_after) - SumRejected(stats_before);
  outcome->details["serve_retries"] = delta("counters", "retries");
  outcome->details["serve_worker_crashes"] =
      delta("counters", "worker_crashes");
  if (untraced_ms.empty()) {
    outcome->Mismatch("no request completed in the timed phase");
    return;
  }

  if (!config.trace) {
    outcome->Set("setup_s", Median(setup_s), "s");
    outcome->Set("op_p50_ms", Median(untraced_ms), "ms");
    outcome->Set("ops_per_s", static_cast<double>(untraced_ms.size()) / wall,
                 "1/s");
    outcome->Set("peak_rss_mb", peak_mb, "MB");
    outcome->details["op_p90_ms"] = Quantile(untraced_ms, 0.9);
    outcome->details["op_samples"] = static_cast<double>(untraced_ms.size());
    if (!peak_reset) {
      std::printf("# note: peak RSS could not be reset; it covers set-up\n");
    }
    return;
  }

  // Traced run: replay the layer calls behind the two request kinds the
  // daemon answers in-process or through a worker. A hit re-reads and
  // re-encodes its CSV to fingerprint it and re-parses the cached report;
  // a miss's worker runs the whole job. Relation metrics and report.parse
  // come from the hot set, core metrics and report.to_json from misses.
  std::vector<JobSample> hot_jobs, miss_jobs;
  std::vector<double> parse_s;
  std::uint64_t op = next_op.load();
  for (const HotEntry& h : d.hot) {
    ScopedSpan root(&tracer, "replay", -1, ++op);
    JobSample sample;
    if (!RunIngest(h.path, &tracer, root.id(), op, &sample)) {
      outcome->Mismatch(h.path + ": replay ingest failed");
    }
    hot_jobs.push_back(sample);
    const std::string text = ocdd::report::SerializeJson(h.report);
    ScopedSpan span(&tracer, "report.parse", root.id(), op);
    const Clock::time_point t = Clock::now();
    auto doc = ocdd::report::ParseJson(text);
    parse_s.push_back(SecondsSince(t));
    if (!doc.ok()) outcome->Mismatch(h.path + ": cached report does not parse");
  }
  for (std::size_t s = 0; s < samples; ++s) {
    JobResult job = RunJob(d.miss_paths[all.misses[s].first],
                           d.dir + "/replay.json", 1, &tracer, ++op);
    miss_jobs.push_back(job.sample);
  }
  SetJobLayerMetrics(hot_jobs, miss_jobs, parse_s, outcome);
  outcome->Set("serve.cache_hit_ratio", hit_ratio, "ratio");

  RunLayerProbes(config, &tracer, outcome,
                 all.hook_total == 0 ? 0.0
                                     : static_cast<double>(all.hook_served) /
                                           static_cast<double>(all.hook_total));
  ReportTrace(config, tracer, "request", Median(untraced_ms),
              Median(traced_ms), outcome);
}

}  // namespace perfbench
