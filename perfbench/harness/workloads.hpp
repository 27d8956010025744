// The three workloads, the kernel rows, and the per-layer metric table
// the traced run reports.
#pragma once

#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// Everything one run needs; parsed from the harness command line.
struct RunArgs {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;   ///< seconds-long run with every check on
  int width = 1;        ///< pool width = nproc
  std::string self;     ///< this harness binary (setup probes re-spawn it)
  std::string daemon;   ///< the apsq_dsed binary
  std::string workdir;  ///< scratch space inside the checkout
};

/// One per-layer metric: the traced run reports every name here.
struct LayerMetric {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetric>& per_layer_metrics();

/// Zero every per-layer metric (a layer a workload never enters reports
/// 0 work), then the workload overwrites what it measured.
void zero_per_layer(Report& r);

/// sweep-cold and search-fine-halving (in-process, SweepSession::run).
void run_inproc(const RunArgs& a, Report& r);
/// daemon-mixed (the apsq_dsed binary over localhost TCP).
void run_daemon_mixed(const RunArgs& a, Report& r);

/// Kernel rows, timed through the public functions on the proxy's tile
/// shapes: accumulate_psums per PsumMode and Rng::normal.
void kernel_rows(Report& r);

/// Child side of the in-process set-up probe: build what a first op
/// needs, print "ready", exit.
int probe_main(const std::string& workload, int width);

/// Appends the spawn-to-"ready" wall times of `count` set-up probes, in s.
void probe_setup(const RunArgs& a, int count, std::vector<double>& secs, Report& r);

}  // namespace perfbench
