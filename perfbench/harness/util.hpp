// Shared plumbing for the benchmark harness: clocks, seed derivation,
// sample summaries, process memory, child processes, and the result
// record every workload fills in.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using apsq::i64;
using apsq::u64;

// ------------------------------------------------------------------ clocks

double wall_ms();            ///< steady clock, ms since an arbitrary epoch
double process_cpu_ms();     ///< user + system CPU of this process (all threads)
double thread_cpu_ms();      ///< CPU of the calling thread only

/// CPU time consumed by the calling thread while running fn, in ms.
template <typename Fn>
double thread_cpu_of(Fn&& fn) {
  const double t0 = thread_cpu_ms();
  fn();
  return thread_cpu_ms() - t0;
}

// ------------------------------------------------------------------- seeds

/// splitmix64 over (seed, tag, i): every scoring and search seed a
/// workload uses is derived from the one workload seed through here.
u64 derive_seed(u64 seed, u64 tag, u64 i);

// ----------------------------------------------------------------- samples

/// A timing distribution: the median plus the highest whole percentile,
/// at most p90, that still has at least ten samples above it (the median
/// itself when there are fewer than twenty samples).
struct Dist {
  double p50 = 0.0;
  double tail = 0.0;
  int tail_pct = 50;
  size_t n = 0;
};

Dist summarize(std::vector<double> xs);
double median(std::vector<double> xs);

// ----------------------------------------------------------------- process

/// CPUs this process may run on (its sched_getaffinity mask): the nproc
/// of the provenance, the pool width and the daemon client count.
int affinity_width();
/// VmHWM (peak resident set) of `pid` (0 = this process), in MiB.
double peak_rss_mb(pid_t pid = 0);
/// user + system CPU of another process from /proc/<pid>/stat, in ms.
double other_process_cpu_ms(pid_t pid);

/// A child process with its stdout on a pipe. The destructor kills and
/// reaps a child that is still running, so no child outlives the harness.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Spawn argv[0] with argv; stdout is captured when `capture_stdout`,
  /// else discarded; stderr goes to `stderr_path` ("" = inherit).
  void spawn(const std::vector<std::string>& argv, bool capture_stdout,
             const std::string& stderr_path = "");
  /// Read one line from the child's stdout ("" at end of stream).
  std::string read_line();
  /// Wait for exit; returns the exit status (128 + signal if killed).
  int wait();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

// ------------------------------------------------------------------ result

/// What one benchmark run reports. `metrics` become the last stdout line;
/// `counters` are the exact, seed-determined work counters; `info` holds
/// every distribution's percentile and sample count and anything else a
/// reader needs next to the numbers.
struct Report {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, i64> counters;
  std::map<std::string, std::string> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Record a timing distribution: name_p50 / name_tail as metrics (when
  /// `as_metrics`), percentile + sample count in `info`.
  void dist(const std::string& name, const Dist& d, bool as_metrics);
  void fail(const std::string& what) {
    correct = false;
    failures.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// On a traced run: keep the plain half's end-to-end numbers and the
/// traced half's side by side in `r.info`, with the relative overhead.
void note_trace_overhead(Report& r, const Report& traced);

/// JSON number text with all significant digits.
std::string num(double v);
/// JSON string literal.
std::string str(const std::string& s);

}  // namespace perfbench
