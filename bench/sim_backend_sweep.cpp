// Simulator-in-the-loop DSE throughput — the fidelity/speed trade the
// evaluator's EvalBackend option exposes.
//
// Seven sections:
//   1. analytic vs sim backend over the smoke space at 1 and N threads
//      (points/s, front size over all four objectives);
//   2. mixed-fidelity vs pure calibrated sim on a 78-point space: the
//      wall-time the analytic prefilter saves, at what fraction of the
//      pure-sim front recovered byte-identically;
//   2b. the three mixed promotion rules head to head — fixed ε-band,
//      adaptive front-stability, margin budget — on the same space:
//      points simulated, rounds, front agreement;
//   3. nested (evaluator × layer) parallelism on a point list smaller
//      than the machine: inner-serial (the old behaviour, where a
//      parallel evaluator forced each point's layers serial) vs nested
//      scopes on the shared pool — the tentpole speedup;
//   4. layer-parallel run_workload scaling on one workload;
//   5. persistent-pool reuse: repeated small parallel_for calls on one
//      long-lived pool vs constructing a fresh pool per call;
//   6. Pareto-front extraction throughput on a large synthetic result set
//      (the sort-based sweep that replaced the O(n²) scan).
//
// With --benchmark_out=FILE the section timings are written as
// google-benchmark-style JSON for the bench-regression CI gate
// (tools/check_bench.py).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "dse/config_space.hpp"
#include "dse/evaluator.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"
#include "models/bert.hpp"

using namespace apsq;
using namespace apsq::dse;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void backend_section(int hw, apsq::bench::BenchJson& rep) {
  const ConfigSpace space = ConfigSpace::smoke();
  Table t({"Backend", "Threads", "Time (s)", "Points/s", "Front size"});
  std::vector<int> thread_counts = {1};
  if (hw > 1) thread_counts.push_back(hw);
  for (EvalBackend backend : {EvalBackend::kAnalytic, EvalBackend::kSim}) {
    for (int threads : thread_counts) {
      EvaluatorOptions opt;
      opt.threads = threads;
      opt.backend = backend;
      opt.sim.shrink = 32;
      opt.sim.max_dim = 48;
      Evaluator eval(opt);
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<EvalResult> results = eval.evaluate_space(space);
      const double secs = seconds_since(t0);
      rep.add(std::string("sim_backend/") + to_string(backend) +
                  "/threads:" + (threads == 1 ? "1" : "max"),
              secs);
      t.add_row({to_string(backend), std::to_string(threads),
                 Table::num(secs, 3),
                 Table::num(static_cast<double>(space.size()) / secs, 1),
                 std::to_string(pareto_front_by_workload(results).size())});
    }
  }
  std::cout << "--- backend comparison (smoke space, " << space.size()
            << " points, shrink 32 / max-dim 48) ---\n";
  t.print(std::cout);
}

void mixed_vs_sim_section(int hw, apsq::bench::BenchJson& rep) {
  // One workload × all dataflows × the full PSUM axis: 78 points — big
  // enough that the analytic prefilter pays, small enough for CI. Both
  // sweeps use the same scaling, so phase-2 scores are byte-comparable
  // with the pure sim's.
  ConfigSpace space;
  space.workloads = {"bert"};
  space.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  space.psum_configs = ConfigSpace::default_psum_axis();
  space.geometries = {PeGeometry{16, 8, 8}};
  space.buffers = {BufferSizing{}};
  const ObjectiveSet el = ObjectiveSet::parse("energy,latency");

  auto opts = [&](EvalBackend backend) {
    EvaluatorOptions o;
    o.threads = hw;
    o.backend = backend;
    o.sim.shrink = 32;
    o.sim.max_dim = 32;
    o.sim.threads = hw;
    return o;
  };

  // Best-of-3 with a fresh evaluator (cold caches, anchor refits) per
  // repetition: these two times feed the bench-regression gate, and a
  // single cold run is too noisy on shared CI runners.
  constexpr int kReps = 3;
  EvaluatorOptions sim_opt = opts(EvalBackend::kSim);
  sim_opt.calibrate = true;  // the fidelity mixed phase 2 must reproduce
  double sim_secs = 0.0;
  std::vector<EvalResult> sres;
  for (int attempt = 0; attempt < kReps; ++attempt) {
    Evaluator sim_eval(sim_opt);
    const auto t0 = std::chrono::steady_clock::now();
    sres = sim_eval.evaluate_space(space);
    const double secs = seconds_since(t0);
    sim_secs = attempt == 0 ? secs : std::min(sim_secs, secs);
  }
  const std::vector<EvalResult> sim_front = pareto_front_by_workload(sres, el);

  EvaluatorOptions mix_opt = opts(EvalBackend::kMixed);
  mix_opt.promote_band = 0.05;
  mix_opt.promote_objectives = el;
  double mixed_secs = 0.0;
  std::vector<EvalResult> mres;
  SearchStats ms;
  for (int attempt = 0; attempt < kReps; ++attempt) {
    Evaluator mix_eval(mix_opt);
    const auto t1 = std::chrono::steady_clock::now();
    mres = mix_eval.evaluate_space(space);
    const double secs = seconds_since(t1);
    mixed_secs = attempt == 0 ? secs : std::min(mixed_secs, secs);
    ms = mix_eval.promotion_stats();
  }
  const std::vector<EvalResult> mixed_front =
      pareto_front_by_workload(promoted_subset(mres), el);

  // Matched front quality: pure-sim front members the mixed front
  // reproduces with byte-identical objectives.
  size_t recovered = 0;
  for (const EvalResult& f : sim_front) {
    for (const EvalResult& m : mixed_front) {
      if (canonical_key(m.point) != canonical_key(f.point)) continue;
      bool same = true;
      for (int k = 0; k < kObjectiveCount && same; ++k) {
        const Objective o = static_cast<Objective>(k);
        same = format_double(m.obj.get(o)) == format_double(f.obj.get(o));
      }
      recovered += same ? 1 : 0;
      break;
    }
  }

  std::cout << "\n--- mixed-fidelity vs pure calibrated sim (" << space.size()
            << " points, band 0.05 over " << el.to_string() << ", " << hw
            << " threads) ---\n";
  Table t({"Backend", "Time (s)", "Points simulated", "Front size",
           "Sim front recovered", "Speedup"});
  t.add_row({"sim+cal", Table::num(sim_secs, 3),
             std::to_string(space.size()), std::to_string(sim_front.size()),
             "-", "-"});
  t.add_row({"mixed", Table::num(mixed_secs, 3), std::to_string(ms.evaluated),
             std::to_string(mixed_front.size()),
             std::to_string(recovered) + "/" + std::to_string(sim_front.size()),
             Table::ratio(sim_secs / mixed_secs)});
  t.print(std::cout);
  rep.add("mixed_vs_sim/pure_sim", sim_secs);
  rep.add("mixed_vs_sim/mixed", mixed_secs);
}

void adaptive_vs_fixed_section(int hw, apsq::bench::BenchJson& rep) {
  // Same 78-point space as the mixed-vs-sim section, comparing the three
  // promotion rules of the mixed backend: the hand-tuned fixed band, the
  // adaptive front-stability rule, and a margin budget pinned to the
  // fixed band's point count. The interesting columns are how many points
  // each rule simulates and whether each recovers the same front.
  ConfigSpace space;
  space.workloads = {"bert"};
  space.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  space.psum_configs = ConfigSpace::default_psum_axis();
  space.geometries = {PeGeometry{16, 8, 8}};
  space.buffers = {BufferSizing{}};
  const ObjectiveSet el = ObjectiveSet::parse("energy,latency");

  auto base_opts = [&] {
    EvaluatorOptions o;
    o.threads = hw;
    o.backend = EvalBackend::kMixed;
    o.sim.shrink = 32;
    o.sim.max_dim = 32;
    o.sim.threads = hw;
    o.promote_objectives = el;
    return o;
  };
  constexpr int kReps = 3;
  struct Row {
    const char* name;
    double secs = 0.0;
    SearchStats ms;
    std::string front_csv;
    size_t rounds = 0;
  };
  // Best-of-3 with a fresh evaluator per repetition (cold caches, anchor
  // refits) — these times feed the bench-regression gate.
  auto timed = [&](const char* name, const EvaluatorOptions& opt) {
    Row row;
    row.name = name;
    for (int attempt = 0; attempt < kReps; ++attempt) {
      Evaluator eval(opt);
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<EvalResult> res = eval.evaluate_space(space);
      const double secs = seconds_since(t0);
      row.secs = attempt == 0 ? secs : std::min(row.secs, secs);
      row.ms = eval.promotion_stats();
      row.rounds = eval.promotion_stats().rounds.size();
      row.front_csv =
          results_csv(pareto_front_by_workload(promoted_subset(res), el))
              .to_string();
    }
    return row;
  };

  EvaluatorOptions fixed_opt = base_opts();
  fixed_opt.promote_band = 0.05;
  const Row fixed = timed("fixed band 0.05", fixed_opt);

  EvaluatorOptions adaptive_opt = base_opts();
  adaptive_opt.promote_adaptive = true;
  const Row adaptive = timed("adaptive (front-stability)", adaptive_opt);

  EvaluatorOptions budget_opt = base_opts();
  budget_opt.promote_budget = fixed.ms.evaluated;  // same simulation budget
  const Row budget = timed("budget = fixed's count", budget_opt);

  std::cout << "\n--- mixed promotion rules (" << space.size()
            << " points, " << el.to_string() << ", " << hw
            << " threads) ---\n";
  Table t({"Promotion", "Time (s)", "Points simulated", "Rounds",
           "Front == fixed band"});
  for (const Row* r : {&fixed, &adaptive, &budget})
    t.add_row({r->name, Table::num(r->secs, 3),
               std::to_string(r->ms.evaluated), std::to_string(r->rounds),
               r == &fixed ? "-"
                           : (r->front_csv == fixed.front_csv ? "yes" : "NO")});
  t.print(std::cout);
  rep.add("mixed_promotion/fixed_band", fixed.secs);
  rep.add("mixed_promotion/adaptive", adaptive.secs);
  rep.add("mixed_promotion/budget", budget.secs);
}

void nested_parallel_section(int hw, apsq::bench::BenchJson& rep) {
  // Two sim-heavy points — fewer points than cores, so point-level
  // parallelism alone cannot fill the machine. Before the shared pool,
  // a parallel evaluator forced each point's layer loop serial
  // (sim.threads was ignored); nested scopes let the idle workers take
  // the layer-level work instead.
  std::vector<DesignPoint> pts(2);
  pts[0].workload = "bert";
  pts[0].psum = PsumConfig::apsq_int8(2);
  pts[1].workload = "bert";
  pts[1].psum = PsumConfig::baseline_int32();

  auto timed = [&](int threads, int sim_threads) {
    EvaluatorOptions opt;
    opt.threads = threads;
    opt.backend = EvalBackend::kSim;
    opt.sim.shrink = 8;
    opt.sim.max_dim = 96;
    opt.sim.threads = sim_threads;
    Evaluator eval(opt);  // fresh evaluator: no cache reuse between rows
    const auto t0 = std::chrono::steady_clock::now();
    eval.evaluate_points(pts);
    return seconds_since(t0);
  };

  const double serial = timed(1, 1);
  const double inner_serial = timed(hw, 1);
  const double nested = timed(hw, hw);
  rep.add("nested/serial", serial);
  rep.add("nested/inner_serial", inner_serial);
  rep.add("nested/nested_scopes", nested);

  std::cout << "\n--- nested (evaluator x layer) parallelism (2 bert points, "
               "shrink 8 / max-dim 96, "
            << hw << " threads) ---\n";
  Table t({"Configuration", "Time (s)", "Speedup vs inner-serial"});
  t.add_row({"fully serial (1 thread)", Table::num(serial, 3), "-"});
  t.add_row({"points parallel, layers serial (old behaviour)",
             Table::num(inner_serial, 3), "-"});
  t.add_row({"nested point x layer scopes (shared pool)",
             Table::num(nested, 3), Table::ratio(inner_serial / nested)});
  t.print(std::cout);
}

void layer_parallel_section(int hw, apsq::bench::BenchJson& rep) {
  const Workload bert = bert_base_workload();
  SimConfig cfg;
  cfg.arch.po = 4;
  cfg.arch.pci = 4;
  cfg.arch.pco = 4;
  cfg.psum = PsumConfig::apsq_int8(2);
  // threads == 1 runs the layer loop inline; threads > 1 runs it on the
  // process-wide shared pool (width fixed at hardware_threads).
  Table t({"Mode", "Time (s)", "Speedup", "Calibrations"});
  double base = 0.0;
  for (int threads : {1, hw > 1 ? hw : 2}) {
    WorkloadRunOptions opt;
    opt.shrink = 8;
    opt.max_dim = 96;
    opt.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const WorkloadRunResult r = run_workload(bert, cfg, opt);
    const double secs = seconds_since(t0);
    rep.add(threads == 1 ? "layer_parallel/serial" : "layer_parallel/pool",
            secs);
    if (threads == 1) base = secs;
    t.add_row({threads == 1 ? "serial" : "shared pool",
               Table::num(secs, 3),
               threads == 1 ? "-" : Table::ratio(base / secs),
               std::to_string(r.calibration_count)});
  }
  std::cout << "\n--- layer-parallel run_workload (bert, shrink 8 / max-dim "
               "96, APSQ INT8 gs2) ---\n";
  t.print(std::cout);
}

void pool_reuse_section(int hw, apsq::bench::BenchJson& rep) {
  const int threads = hw > 1 ? hw : 2;
  constexpr int kCalls = 300;
  constexpr index_t kTasksPerCall = 64;
  std::atomic<i64> sink{0};  // keeps the task from being optimized away
  auto tiny_task = [&](index_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  };

  const auto t0 = std::chrono::steady_clock::now();
  {
    WorkStealingPool pool(threads);
    for (int c = 0; c < kCalls; ++c) pool.parallel_for(kTasksPerCall, tiny_task);
  }
  const double reused = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  for (int c = 0; c < kCalls; ++c) {
    WorkStealingPool pool(threads);  // spawn + join per call (old behaviour)
    pool.parallel_for(kTasksPerCall, tiny_task);
  }
  const double fresh = seconds_since(t1);
  rep.add("pool/persistent", reused);
  rep.add("pool/fresh_per_call", fresh);

  std::cout << "\n--- pool reuse (" << kCalls << " × parallel_for("
            << kTasksPerCall << " tiny tasks), " << threads << " threads) ---\n";
  Table t({"Strategy", "Total (s)", "Per call (us)", "Speedup"});
  t.add_row({"fresh pool per call", Table::num(fresh, 3),
             Table::num(fresh / kCalls * 1e6, 1), "-"});
  t.add_row({"one persistent pool", Table::num(reused, 3),
             Table::num(reused / kCalls * 1e6, 1),
             Table::ratio(fresh / reused)});
  t.print(std::cout);
}

void pareto_extraction_section(apsq::bench::BenchJson& rep) {
  // Synthetic 20k-point result set on a coarse objective grid (plenty of
  // dominated points and ties) — front extraction must not stall sweeps.
  Rng rng(42);
  std::vector<EvalResult> pts;
  pts.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    EvalResult r;
    r.point.workload = "w";
    r.point.psum = PsumConfig::apsq_bits(4 + (i % 13), 1 + (i % 4));
    r.point.acc.po = 1 + (i / 52) % 64;
    r.point.acc.pci = 1 + (i / 3328) % 8;
    r.obj.energy_pj = rng.uniform(0, 8);
    r.obj.area_um2 = rng.uniform(0, 8);
    r.obj.error = rng.uniform(0, 8);
    r.obj.latency_s = rng.uniform(0, 8);
    pts.push_back(r);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const size_t front = pareto_front(pts).size();
  const double secs = seconds_since(t0);
  rep.add("pareto_front/extract_20k", secs);
  std::cout << "\n--- Pareto extraction (sort-based sweep, 20000 points) ---\n"
            << "front " << front << " points in " << Table::num(secs, 3)
            << " s (" << Table::num(20000.0 / secs, 0) << " points/s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  apsq::bench::BenchJson rep(argc, argv);
  if (!rep.ok()) return 1;
  const int hw = WorkStealingPool::hardware_threads();
  std::cout << "=== sim-backend DSE sweep (hardware threads: " << hw
            << ") ===\n\n";
  backend_section(hw, rep);
  mixed_vs_sim_section(hw, rep);
  adaptive_vs_fixed_section(hw, rep);
  nested_parallel_section(hw, rep);
  layer_parallel_section(hw, rep);
  pool_reuse_section(hw, rep);
  pareto_extraction_section(rep);
  return rep.flush() ? 0 : 1;
}
