#include "engine/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

namespace ocdd::engine {

namespace {

void SleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

bool IsRetryableStop(const std::string& reason) {
  // Budget and cancellation stops heal on retry (budgets are per attempt and
  // the checkpoint preserves progress); structural caps (level_cap) recur
  // deterministically, and "none" on an incomplete run is a reporting bug.
  return reason == "deadline" || reason == "check_budget" ||
         reason == "memory_budget" || reason == "cancelled" ||
         reason == "fault_injected";
}

}  // namespace

WorkerOutcome RunWorkerProcess(const std::vector<std::string>& args,
                               const WorkerRunOptions& options) {
  using Clock = std::chrono::steady_clock;
  WorkerOutcome out;
  if (args.empty()) {
    out.spawn_failed = true;
    return out;
  }
  int fds[2];
  if (::pipe(fds) != 0) {
    out.spawn_failed = true;
    return out;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.spawn_failed = true;
    return out;
  }
  if (pid == 0) {
    // Own process group: escalation signals reach the worker's helpers and
    // grandchildren too, and a SIGKILLed worker cannot leave an orphan
    // holding the stdout pipe open (which would stall the read loop below
    // far past the kill).
    ::setpgid(0, 0);
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    _exit(127);  // exec failed
  }
  ::close(fds[1]);
  // Mirror the child's setpgid: whichever side runs first establishes the
  // group, so the group kill below never races the exec.
  ::setpgid(pid, pid);

  const bool have_deadline = options.timeout_seconds > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             have_deadline ? options.timeout_seconds : 0.0));
  Clock::time_point kill_at{};  // armed when SIGINT is sent
  bool sigint_sent = false;

  char buf[1 << 14];
  for (;;) {
    // Escalation ladder: deadline/interrupt → SIGINT (the child drains to a
    // checkpoint and prints partial JSON), then SIGKILL after the grace
    // period. The pipe stays open through both so the drain output is
    // captured.
    const Clock::time_point now = Clock::now();
    if (!sigint_sent) {
      const bool interrupted =
          options.interrupt != nullptr &&
          options.interrupt->load(std::memory_order_relaxed);
      if (interrupted || (have_deadline && now >= deadline)) {
        if (::kill(-pid, SIGINT) != 0) ::kill(pid, SIGINT);
        sigint_sent = true;
        out.timed_out = !interrupted;
        out.interrupted = interrupted;
        kill_at = now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                std::max(0.0, options.kill_grace_seconds)));
      }
    } else if (now >= kill_at) {
      if (::kill(-pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
      kill_at = now + std::chrono::hours(24);  // send it once
    }

    struct pollfd pfd;
    pfd.fd = fds[0];
    pfd.events = POLLIN;
    int rc = ::poll(&pfd, 1, 50);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;  // timeout tick: re-evaluate the ladder
    ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    out.stdout_text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    out.exit_code = -1;
    out.term_signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    out.exit_code = WEXITSTATUS(status);
  }
  return out;
}

const char* ChildVerdictName(ChildVerdict verdict) {
  switch (verdict) {
    case ChildVerdict::kCompleted:
      return "completed";
    case ChildVerdict::kCrash:
      return "crash";
    case ChildVerdict::kRetryableStop:
      return "retryable_stop";
    case ChildVerdict::kStructuralStop:
      return "structural_stop";
    case ChildVerdict::kChildError:
      return "child_error";
    case ChildVerdict::kNoReport:
      return "no_report";
  }
  return "unknown";
}

ChildVerdict ClassifyChild(int exit_code, int term_signal, bool json_valid,
                           bool completed, const std::string& stop_reason) {
  if (term_signal != 0) return ChildVerdict::kCrash;
  if (exit_code != 0) return ChildVerdict::kChildError;
  if (!json_valid) return ChildVerdict::kNoReport;
  if (completed) return ChildVerdict::kCompleted;
  return IsRetryableStop(stop_reason) ? ChildVerdict::kRetryableStop
                                      : ChildVerdict::kStructuralStop;
}

const char* GiveUpKindName(GiveUpKind kind) {
  switch (kind) {
    case GiveUpKind::kNone:
      return "none";
    case GiveUpKind::kSpawnFailed:
      return "spawn_failed";
    case GiveUpKind::kChildError:
      return "child_error";
    case GiveUpKind::kNoReport:
      return "no_report";
    case GiveUpKind::kNonRetryableStop:
      return "non_retryable_stop";
    case GiveUpKind::kNoProgress:
      return "no_progress";
    case GiveUpKind::kAttemptsExhausted:
      return "attempts_exhausted";
  }
  return "unknown";
}

SuperviseResult SuperviseRun(const SuperviseOptions& options) {
  SuperviseResult result;
  if (options.child_args.empty()) {
    result.give_up_reason = "no child command";
    result.give_up_kind = GiveUpKind::kSpawnFailed;
    return result;
  }
  const int max_attempts = std::max(1, options.max_attempts);
  double backoff = options.initial_backoff_seconds;
  int no_progress = 0;
  std::size_t prev_stop_level = 0;
  bool have_prev_stop = false;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<std::string> args = options.child_args;
    if (attempt > 0 && !options.resume_flag.empty() &&
        std::find(args.begin(), args.end(), options.resume_flag) ==
            args.end()) {
      args.push_back(options.resume_flag);
    }

    WorkerOutcome child = RunWorkerProcess(args);
    if (child.spawn_failed) {
      result.give_up_reason = "failed to spawn child process";
      result.give_up_kind = GiveUpKind::kSpawnFailed;
      return result;
    }

    SuperviseAttempt rec;
    rec.exit_code = child.exit_code;
    rec.term_signal = child.term_signal;

    Result<report::JsonValue> parsed = report::ParseJson(child.stdout_text);
    if (parsed.ok()) {
      const report::JsonValue& doc = parsed.value();
      rec.json_valid = doc.kind() == report::JsonValue::Kind::kObject;
      if (rec.json_valid) {
        rec.completed = doc["completed"].bool_value();
        rec.stop_reason = doc["stop_reason"].string_value();
        const report::JsonValue& stop = doc["stop_state"];
        rec.stop_checks =
            static_cast<std::uint64_t>(stop["checks"].number_value());
        rec.stop_level =
            static_cast<std::size_t>(stop["level"].number_value());
        rec.stop_frontier =
            static_cast<std::size_t>(stop["frontier_size"].number_value());
        result.final_report = doc;
        result.have_report = true;
      }
    }

    const bool last_attempt = attempt + 1 >= max_attempts;
    const ChildVerdict verdict =
        ClassifyChild(rec.exit_code, rec.term_signal, rec.json_valid,
                      rec.completed, rec.stop_reason);
    switch (verdict) {
      case ChildVerdict::kCrash:
        // Progress tracking is not advanced: the next clean stop is compared
        // against the last clean stop, not the crash.
        rec.classification = last_attempt ? "give_up" : "retry_crash";
        if (last_attempt) {
          result.give_up_kind = GiveUpKind::kAttemptsExhausted;
        }
        break;
      case ChildVerdict::kChildError:
        rec.classification = "give_up";
        result.give_up_kind = GiveUpKind::kChildError;
        result.give_up_reason =
            "child exited with code " + std::to_string(rec.exit_code);
        break;
      case ChildVerdict::kNoReport:
        rec.classification = "give_up";
        result.give_up_kind = GiveUpKind::kNoReport;
        result.give_up_reason = "child produced no parseable JSON report";
        break;
      case ChildVerdict::kCompleted:
        rec.classification = "success";
        result.success = true;
        break;
      case ChildVerdict::kStructuralStop:
        rec.classification = "give_up";
        result.give_up_kind = GiveUpKind::kNonRetryableStop;
        result.give_up_reason =
            "stop reason '" + rec.stop_reason + "' is not retryable";
        break;
      case ChildVerdict::kRetryableStop:
        if (have_prev_stop && rec.stop_level <= prev_stop_level) {
          ++no_progress;
        } else {
          no_progress = 0;
        }
        prev_stop_level = rec.stop_level;
        have_prev_stop = true;
        if (no_progress >= options.no_progress_limit) {
          rec.classification = "give_up";
          result.give_up_kind = GiveUpKind::kNoProgress;
          result.give_up_reason =
              "no level progress across " + std::to_string(no_progress + 1) +
              " stopped attempts (stuck at level " +
              std::to_string(rec.stop_level) + ")";
        } else {
          rec.classification = last_attempt ? "give_up" : "retry_stopped";
          if (last_attempt) {
            result.give_up_kind = GiveUpKind::kAttemptsExhausted;
          }
        }
        break;
    }

    const bool retrying = rec.classification == "retry_crash" ||
                          rec.classification == "retry_stopped";
    if (retrying) {
      rec.backoff_seconds = std::min(backoff, options.max_backoff_seconds);
    }
    result.attempts.push_back(rec);

    if (result.success || rec.classification == "give_up") {
      if (result.give_up_reason.empty() && !result.success) {
        result.give_up_reason =
            "attempt budget exhausted (" + std::to_string(max_attempts) +
            " attempts)";
      }
      if (result.success) result.give_up_kind = GiveUpKind::kNone;
      return result;
    }
    SleepSeconds(rec.backoff_seconds);
    backoff *= options.backoff_multiplier;
  }
  // Unreachable: the loop always returns on the last attempt.
  result.give_up_reason = "attempt budget exhausted";
  result.give_up_kind = GiveUpKind::kAttemptsExhausted;
  return result;
}

std::string MergedResultJson(const SuperviseResult& result) {
  using report::JsonValue;
  std::map<std::string, JsonValue> root;
  if (result.have_report) {
    const auto& members = result.final_report.object();
    root.insert(members.begin(), members.end());
  }

  std::vector<JsonValue> attempts;
  attempts.reserve(result.attempts.size());
  for (const SuperviseAttempt& a : result.attempts) {
    std::map<std::string, JsonValue> rec;
    rec["exit_code"] = JsonValue::Number(a.exit_code);
    rec["term_signal"] = JsonValue::Number(a.term_signal);
    rec["completed"] = JsonValue::Bool(a.completed);
    rec["stop_reason"] = JsonValue::String(a.stop_reason);
    rec["stop_level"] = JsonValue::Number(static_cast<double>(a.stop_level));
    rec["classification"] = JsonValue::String(a.classification);
    rec["backoff_seconds"] = JsonValue::Number(a.backoff_seconds);
    attempts.push_back(JsonValue::Object(std::move(rec)));
  }

  std::map<std::string, JsonValue> sup;
  sup["success"] = JsonValue::Bool(result.success);
  sup["num_attempts"] =
      JsonValue::Number(static_cast<double>(result.attempts.size()));
  sup["give_up_reason"] = JsonValue::String(result.give_up_reason);
  sup["give_up_kind"] =
      JsonValue::String(GiveUpKindName(result.give_up_kind));
  sup["attempts"] = JsonValue::Array(std::move(attempts));
  root["supervisor"] = JsonValue::Object(std::move(sup));

  return report::SerializeJson(JsonValue::Object(std::move(root)));
}

}  // namespace ocdd::engine
