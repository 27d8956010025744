#include "util.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/stats_writer.hpp"

extern char** environ;

namespace perfbench {

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

u64 derive_seed(u64 seed, u64 tag, u64 i) {
  u64 z = seed ^ (tag * 0x9E3779B97F4A7C15ULL) ^ (i * 0xD1B54A32D192ED03ULL);
  for (int round = 0; round < 2; ++round) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
  }
  // Keep seeds inside the request API's integer range.
  return z & 0x7FFFFFFFFFFFULL;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Dist summarize(std::vector<double> xs) {
  Dist d;
  d.n = xs.size();
  if (xs.empty()) return d;
  d.p50 = median(xs);
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  // Highest whole percentile q, at most p90, with at least ten samples
  // above its nearest-rank position: rank ceil(q·n/100) <= n − 10. Past
  // p90 the figure follows the host's rarest preemptions, not the program.
  int q = n >= 20 ? static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                                static_cast<double>(n)))
                  : 50;
  q = std::clamp(q, 50, 90);
  d.tail_pct = q;
  if (q == 50) {
    d.tail = d.p50;
  } else {
    const size_t rank = static_cast<size_t>(
        std::ceil(static_cast<double>(q) * static_cast<double>(n) / 100.0));
    d.tail = xs[std::max<size_t>(rank, 1) - 1];
  }
  return d;
}

int affinity_width() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double other_process_cpu_ms(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream is(text.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && is >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Child::~Child() {
  if (out_fd_ >= 0) close(out_fd_);
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
}

void Child::spawn(const std::vector<std::string>& argv, bool capture_stdout,
                  const std::string& stderr_path) {
  int fds[2] = {-1, -1};
  if (capture_stdout && pipe(fds) != 0)
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (capture_stdout) {
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
  } else {
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  }
  if (!stderr_path.empty())
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, stderr_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (capture_stdout) close(fds[1]);
  if (rc != 0) {
    pid_ = -1;
    if (capture_stdout) close(fds[0]);
    throw std::runtime_error("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  out_fd_ = capture_stdout ? fds[0] : -1;
}

std::string Child::read_line() {
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t got = out_fd_ < 0 ? 0 : read(out_fd_, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      std::string rest;
      rest.swap(buf_);
      return rest;
    }
    buf_.append(chunk, static_cast<size_t>(got));
  }
}

int Child::wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void Report::dist(const std::string& name, const Dist& d, bool as_metrics) {
  if (as_metrics) {
    metric(name + "_p50", d.p50, "ms");
    metric(name + "_tail", d.tail, "ms");
  }
  info[name + ".p50_ms"] = num(d.p50);
  info[name + ".tail_ms"] = num(d.tail);
  info[name + ".tail_percentile"] = std::to_string(d.tail_pct);
  info[name + ".samples"] = std::to_string(d.n);
}

void note_trace_overhead(Report& r, const Report& traced) {
  for (const auto& [name, mu] : traced.metrics) {
    r.info["traced." + name] = num(mu.first);
    const auto it = r.metrics.find(name);
    if (it != r.metrics.end() && it->second.first > 0)
      r.info["trace_overhead." + name] = num(mu.first / it->second.first - 1.0);
  }
  for (const auto& [name, mu] : r.metrics) r.info["plain." + name] = num(mu.first);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) { return "\"" + apsq::json_escape(s) + "\""; }

}  // namespace perfbench
