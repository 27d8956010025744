// The traced run's per-layer breakdown: each layer's public functions
// replayed single-threaded on an op's own rows, plus the counters the
// program already exposes. Nothing inside the program is instrumented.
#pragma once

#include <map>
#include <string>

#include "dse/sweep.hpp"
#include "util.hpp"

namespace perfbench {

/// Per-layer sums over the traced ops (divided by `ops` when reported).
struct Tally {
  int ops = 0;
  double proxy_calls = 0, proxy_cpu = 0;
  double energy_calls = 0, energy_cpu = 0;
  double perf_calls = 0, perf_cpu = 0;
  double area_calls = 0, area_cpu = 0;
  double sim_calls = 0, sim_cpu = 0, sim_macs = 0;
  double cal_families = 0, cal_cpu = 0;
  double front_ms = 0, margins_ms = 0, decode_ns = 0;
  double explored = 0, evaluated = 0, rounds = 0, explore_ms = 0, promote_ms = 0;
  double op_cpu = 0, op_wall = 0, pool_runs = 0, pool_steals = 0;
  std::map<std::string, apsq::dse::CacheStats> tt;  ///< summed per table
};

/// Every transposition table of an evaluator, by its metric name.
std::map<std::string, apsq::dse::CacheStats> tt_stats(const apsq::dse::Evaluator& e);

/// Replay the layer calls `out` (an op of session `s`) made, adding them
/// to `t` — the caller adds the op's own CPU, wall time and counters.
void replay(const apsq::dse::SweepConfig& cfg, apsq::dse::SweepSession& s,
            const apsq::dse::SweepOutcome& out, Tally& t);

/// Report the tally as per-layer metrics (per op).
void report_tally(const Tally& t, int width, Report& r);

}  // namespace perfbench
