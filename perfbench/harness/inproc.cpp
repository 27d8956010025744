// The two in-process workloads, driven through dse::SweepSession::run —
// the entry point apsq_dse, --jobs and the benches share.
//
//   sweep-cold           back-to-back exhaustive paper-space sweeps
//                        (1248 points, analytic backend), each at a fresh
//                        scoring seed, so no memo carries over.
//   search-fine-halving  back-to-back cold halving searches on the fine
//                        space (mixed backend, budget 1024), each at a
//                        fresh scoring seed and search seed.
//
// One caller, closed loop. After each cold op the same session is asked
// again (the warm re-ask: every score answered by the transposition
// table) — four times after a sweep, whose re-ask takes a few ms, so its
// tail has enough samples; once after a search. Checks run between ops, outside every timed interval. The
// traced run replays each layer's public functions on the op's own rows.
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/thread_pool.hpp"
#include "dse/accuracy_proxy.hpp"
#include "dse/calibrate.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"
#include "dse/sweep.hpp"
#include "energy/energy_model.hpp"
#include "rae/area_model.hpp"
#include "sim/performance.hpp"
#include "sim/workload_runner.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace apsq;
using namespace apsq::dse;

namespace {
const char* const kTables[] = {"score", "accuracy", "area", "energy", "latency", "sim"};
double sink = 0.0;  ///< keeps replayed results observable
}  // namespace

std::map<std::string, CacheStats> tt_stats(const Evaluator& e) {
  return {{"score", e.score_tt_stats()},     {"accuracy", e.accuracy_cache_stats()},
          {"area", e.area_cache_stats()},    {"energy", e.energy_cache_stats()},
          {"latency", e.latency_cache_stats()}, {"sim", e.sim_cache_stats()}};
}

/// Replay, single-threaded, every layer call the op made, on the op's
/// own rows: the proxy over its unique (workload, psum, pci) keys, the
/// analytic energy / performance models per analytic-scored point, area
/// per unique geometry, and — for promoted rows — run_workload and the
/// calibration fits.
void replay(const SweepConfig& cfg, SweepSession& s, const SweepOutcome& out,
            Tally& t) {
  const EvaluatorOptions eopt = cfg.evaluator_options();
  std::set<std::tuple<std::string, int, bool, index_t, index_t>> proxy_keys;
  std::set<std::tuple<index_t, index_t, index_t, i64, i64, i64, int, int, bool>> area_keys;
  std::vector<const EvalResult*> promoted;
  for (const EvalResult& row : out.results) {
    const DesignPoint& p = row.point;
    proxy_keys.emplace(p.workload, p.psum.psum_bits, p.psum.apsq,
                       p.psum.group_size, p.acc.pci);
    area_keys.emplace(p.acc.po, p.acc.pci, p.acc.pco, p.acc.ifmap_buf_bytes,
                      p.acc.ofmap_buf_bytes, p.acc.weight_buf_bytes,
                      p.acc.act_bits, p.acc.weight_bits, p.psum.apsq);
    if (row.scored_by == "sim" || row.scored_by == "sim+cal") promoted.push_back(&row);
  }

  t.proxy_cpu += thread_cpu_of([&] {
    for (const auto& [wl, bits, apsq, gs, pci] : proxy_keys) {
      PsumConfig psum;
      psum.psum_bits = bits;
      psum.apsq = apsq;
      psum.group_size = gs;
      sink += psum_error_proxy(Evaluator::workload(wl), psum, pci, eopt.seed);
    }
  });
  t.proxy_calls += static_cast<double>(proxy_keys.size());

  t.energy_cpu += thread_cpu_of([&] {
    for (const EvalResult& row : out.results) {
      const DesignPoint& p = row.point;
      sink += workload_energy(p.dataflow, Evaluator::workload(p.workload), p.acc,
                              p.psum, eopt.costs)
                  .total_pj();
    }
  });
  t.energy_calls += static_cast<double>(out.results.size());
  t.perf_cpu += thread_cpu_of([&] {
    for (const EvalResult& row : out.results) {
      const DesignPoint& p = row.point;
      sink += workload_performance(p.dataflow, Evaluator::workload(p.workload),
                                   p.acc, p.psum, eopt.perf)
                  .total_latency_s;
    }
  });
  t.perf_calls += static_cast<double>(out.results.size());

  t.area_cpu += thread_cpu_of([&] {
    for (const EvalResult& row : out.results) {
      // One call per unique geometry, as the evaluator's area memo makes.
      const DesignPoint& p = row.point;
      const auto key = std::make_tuple(p.acc.po, p.acc.pci, p.acc.pco,
                                       p.acc.ifmap_buf_bytes, p.acc.ofmap_buf_bytes,
                                       p.acc.weight_buf_bytes, p.acc.act_bits,
                                       p.acc.weight_bits, p.psum.apsq);
      if (area_keys.erase(key) == 0) continue;
      sink += p.psum.apsq ? accelerator_with_rae_area(p.acc, eopt.area_lib).total_um2()
                          : baseline_accelerator_area(p.acc, eopt.area_lib).total_um2();
      t.area_calls += 1;
    }
  });

  if (!promoted.empty()) {
    WorkloadRunOptions sim = eopt.sim;
    sim.threads = 1;
    double macs = 0.0;
    t.sim_cpu += thread_cpu_of([&] {
      for (const EvalResult* row : promoted) {
        const WorkloadRunResult rr = run_workload(
            Evaluator::workload(row->point.workload), sim_config_for(row->point), sim);
        macs += static_cast<double>(rr.total.mac_ops);
      }
    });
    t.sim_calls += static_cast<double>(promoted.size());
    t.sim_macs += macs;

    Calibrator::Options copt;
    copt.sim = sim;
    copt.costs = eopt.costs;
    copt.perf = eopt.perf;
    Calibrator cal(copt);
    t.cal_cpu += thread_cpu_of([&] {
      for (const EvalResult* row : promoted) {
        const DesignPoint& p = row->point;
        sink += cal.factors_for(p.workload, Evaluator::workload(p.workload), p).cycles;
      }
    });
    t.cal_families += static_cast<double>(cal.family_count());
  }

  double t0 = wall_ms();
  sink += static_cast<double>(extract_front(cfg, {}, out.results).size());
  t.front_ms += wall_ms() - t0;

  if (cfg.search()) {
    // Margins over the op's analytic scores (memo hits on the session's
    // evaluator), as the halving ladder computes them once per search.
    std::vector<DesignPoint> pts;
    for (const EvalResult& row : out.results) pts.push_back(row.point);
    const std::vector<EvalResult> analytic =
        s.evaluator().evaluate_points_at(pts, EvalBackend::kAnalytic);
    const ObjectiveSet objs = cfg.search_options().objectives;
    t0 = wall_ms();
    sink += static_cast<double>(promotion_margins_by_workload(analytic, objs).size());
    sink += static_cast<double>(ranked_margins_by_workload(analytic, objs).size());
    t.margins_ms += wall_ms() - t0;

    const ConfigSpace& space = s.space();
    const index_t n = space.size();
    const index_t draws = 16384;
    t0 = wall_ms();
    for (index_t k = 0; k < draws; ++k)
      sink += static_cast<double>(space.at(k * (n / draws)).acc.pci);
    t.decode_ns += (wall_ms() - t0) * 1e6 / static_cast<double>(draws);

    double rounds_s = 0.0;
    for (const SearchRoundStats& rs : out.search.rounds) rounds_s += rs.secs;
    t.explored += static_cast<double>(out.search.explored);
    t.evaluated += static_cast<double>(out.search.evaluated);
    t.rounds += static_cast<double>(out.search.rounds.size());
    t.explore_ms += (out.search.secs - rounds_s) * 1e3;
    t.promote_ms += rounds_s * 1e3;
  }
}

void report_tally(const Tally& t, int width, Report& r) {
  const double k = t.ops > 0 ? 1.0 / t.ops : 0.0;
  r.metric("dse.accuracy_proxy.calls", t.proxy_calls * k, "count");
  r.metric("dse.accuracy_proxy.cpu_ms", t.proxy_cpu * k, "ms");
  r.metric("dse.accuracy_proxy.share", t.op_cpu > 0 ? t.proxy_cpu / t.op_cpu : 0.0, "ratio");
  r.metric("energy.workload_energy.calls", t.energy_calls * k, "count");
  r.metric("energy.workload_energy.cpu_ms", t.energy_cpu * k, "ms");
  r.metric("sim.performance.calls", t.perf_calls * k, "count");
  r.metric("sim.performance.cpu_ms", t.perf_cpu * k, "ms");
  r.metric("rae.area.calls", t.area_calls * k, "count");
  r.metric("rae.area.cpu_ms", t.area_cpu * k, "ms");
  r.metric("sim.run_workload.calls", t.sim_calls * k, "count");
  r.metric("sim.run_workload.cpu_ms", t.sim_cpu * k, "ms");
  r.metric("sim.macs", t.sim_macs * k, "count");
  r.metric("sim.ns_per_mac", t.sim_macs > 0 ? t.sim_cpu * 1e6 / t.sim_macs : 0.0, "ns");
  r.metric("dse.calibrate.families", t.cal_families * k, "count");
  r.metric("dse.calibrate.fit_cpu_ms", t.cal_cpu * k, "ms");
  r.metric("dse.search.explored", t.explored * k, "count");
  r.metric("dse.search.evaluated", t.evaluated * k, "count");
  r.metric("dse.search.rounds", t.rounds * k, "count");
  r.metric("dse.search.explore_ms", t.explore_ms * k, "ms");
  r.metric("dse.search.promote_ms", t.promote_ms * k, "ms");
  r.metric("dse.pareto.margins_ms", t.margins_ms * k, "ms");
  r.metric("dse.pareto.front_ms", t.front_ms * k, "ms");
  r.metric("dse.config_space.decode_ns", t.decode_ns * k, "ns");
  for (const char* name : kTables) {
    const auto it = t.tt.find(name);
    const CacheStats cs = it == t.tt.end() ? CacheStats{} : it->second;
    const std::string base = std::string("dse.evaluator.") + name + "_tt.";
    r.metric(base + "hits", static_cast<double>(cs.hits) * k, "count");
    r.metric(base + "misses", static_cast<double>(cs.misses) * k, "count");
    r.metric(base + "races", static_cast<double>(cs.races) * k, "count");
  }
  // Single-threaded selection work counts as op CPU too: margins, front
  // extraction and point decoding (decode_ns is per point explored).
  const double layers = t.proxy_cpu + t.energy_cpu + t.perf_cpu + t.area_cpu +
                        t.sim_cpu + t.cal_cpu + t.margins_ms + t.front_ms +
                        t.decode_ns * t.explored / 1e6;
  r.metric("dse.evaluator.op_cpu_ms", t.op_cpu * k, "ms");
  r.metric("dse.evaluator.unattributed_cpu_ms", (t.op_cpu - layers) * k, "ms");
  r.metric("common.thread_pool.runs", t.pool_runs * k, "count");
  r.metric("common.thread_pool.steals", t.pool_steals * k, "count");
  r.metric("common.thread_pool.parallel_efficiency",
           t.op_wall > 0 ? t.op_cpu / (t.op_wall * width) : 0.0, "ratio");
}

namespace {

constexpr i64 kSearchBudget = 1024;
constexpr u64 kWarmupIndex = 1u << 20;  ///< op index of the untimed warm-up op

bool is_search(const std::string& workload) {
  return workload == "search-fine-halving";
}

/// The config of op `i`: every scoring and search seed derives from the
/// workload seed.
SweepConfig op_config(const std::string& workload, u64 seed, u64 i, int width) {
  SweepConfig c;
  c.threads = width;
  if (is_search(workload)) {
    c.space = "fine";
    c.backend = EvalBackend::kMixed;
    c.mode = RunMode::kSearch;
    c.strategy = SearchStrategy::kHalving;
    c.strategy_set = true;
    c.budget = kSearchBudget;
    c.budget_set = true;
    c.seed = derive_seed(seed, 2, i);
    c.search_seed = derive_seed(seed, 3, i);
    c.search_seed_set = true;
  } else {
    c.space = "paper";
    c.backend = EvalBackend::kAnalytic;
    c.seed = derive_seed(seed, 1, i);
  }
  std::ostringstream err;
  if (!c.validate(err)) throw std::runtime_error("invalid op config: " + err.str());
  return c;
}

std::string front_csv(const SweepConfig& cfg, const std::vector<EvalResult>& f) {
  return results_csv(f, cfg.scored_by_label()).to_string();
}

/// The op's front is contained in its results (same point, same scores)
/// and no member is dominated by any point of its workload's basis.
void check_front(const SweepConfig& cfg, const SweepOutcome& out,
                 const std::string& tag, Report& r) {
  std::map<std::string, const EvalResult*> by_key;
  for (const EvalResult& row : out.results) by_key[canonical_key(row.point)] = &row;
  std::map<std::string, std::vector<EvalResult>> basis;
  for (const EvalResult& row : cfg.mixed() ? promoted_subset(out.results) : out.results)
    basis[row.point.workload].push_back(row);
  r.check(!out.front.empty(), tag + ": empty front");
  for (const EvalResult& f : out.front) {
    const auto it = by_key.find(canonical_key(f.point));
    if (it == by_key.end()) {
      r.fail(tag + ": front point not in results: " + canonical_key(f.point));
      continue;
    }
    r.check(front_csv(cfg, {f}) == front_csv(cfg, {*it->second}),
            tag + ": front row differs from its result row");
    r.check(!is_dominated(f, basis[f.point.workload], cfg.objectives),
            tag + ": dominated front point " + canonical_key(f.point));
  }
}

/// Timed samples of one measurement phase.
struct Phase {
  std::vector<double> cold_ms, warm_ms;
  double points = 0;       ///< points scored by cold ops
  double cold_busy_s = 0;  ///< summed cold op wall time
  double all_busy_s = 0;   ///< summed cold + warm wall time
  i64 requests = 0;        ///< cold ops + warm re-asks
};

/// Add one op to the exact, seed-determined work counters.
void count_op(const SweepConfig& cfg, const SweepOutcome& out,
              const std::map<std::string, CacheStats>& tt, Evaluator& e,
              Report& r) {
  auto& c = r.counters;
  c["ops_counted"] += 1;
  c["points"] += static_cast<i64>(out.results.size());
  c["fresh_evaluations"] += out.fresh_evaluations;
  c["front_rows"] += static_cast<i64>(out.front.size());
  c["global_front_rows"] += static_cast<i64>(out.global_front_size);
  // misses = unique keys and lookups are schedule-independent; the
  // hits / races split is not (two workers can race on one key).
  for (const auto& [name, cs] : tt) {
    c["tt." + name + ".misses"] += cs.misses;
    c["tt." + name + ".lookups"] += cs.lookups();
  }
  if (cfg.search()) {
    c["search.explored"] += out.search.explored;
    c["search.evaluated"] += out.search.evaluated;
    c["search.rounds"] += static_cast<i64>(out.search.rounds.size());
    c["sim.promoted_rows"] += static_cast<i64>(promoted_subset(out.results).size());
    c["calibrate.families"] +=
        e.calibrator() != nullptr ? e.calibrator()->family_count() : 0;
  }
}

/// Run ops until `seconds` have passed and at least `min_ops` ran.
/// Replays the first `trace_ops` of them when a tally is given.
void run_phase(const RunArgs& a, double seconds, int min_ops, u64& next,
               int count_ops, Tally* tally, int trace_ops, Phase& ph,
               Report& r) {
  WorkStealingPool& pool = WorkStealingPool::shared();
  const double start = wall_ms();
  for (int done = 0;; ++done) {
    if (done >= min_ops && wall_ms() - start >= seconds * 1e3) break;
    const u64 i = next++;
    const SweepConfig cfg = op_config(a.workload, a.seed, i, a.width);
    const std::string tag = a.workload + " op " + std::to_string(i);
    const int warm_asks = cfg.search() ? 1 : 4;
    r.attempted += 1 + warm_asks;
    try {
      const i64 runs0 = pool.run_count(), steals0 = pool.steal_count();
      const double cpu0 = process_cpu_ms();
      const double t0 = wall_ms();
      SweepSession s(cfg);
      const SweepOutcome out = s.run();
      const double t1 = wall_ms();
      const double cpu1 = process_cpu_ms();
      const i64 runs1 = pool.run_count(), steals1 = pool.steal_count();
      const std::map<std::string, CacheStats> tt = tt_stats(s.evaluator());
      std::vector<SweepOutcome> warm;
      for (int k = 0; k < warm_asks; ++k) {
        const double t2 = wall_ms();
        warm.push_back(s.run());
        const double t3 = wall_ms();
        ph.warm_ms.push_back(t3 - t2);
        ph.all_busy_s += (t3 - t2) / 1e3;
      }

      ph.cold_ms.push_back(t1 - t0);
      ph.cold_busy_s += (t1 - t0) / 1e3;
      ph.all_busy_s += (t1 - t0) / 1e3;
      ph.points += cfg.search()
                       ? static_cast<double>(out.search.explored + out.search.evaluated)
                       : static_cast<double>(out.results.size());
      ph.requests += 1 + warm_asks;

      // Checks, outside the timed intervals.
      check_front(cfg, out, tag, r);
      for (const SweepOutcome& w : warm)
        r.check(front_csv(cfg, w.front) == front_csv(cfg, out.front),
                tag + ": warm re-ask front differs from the cold front");
      r.check(s.evaluator().score_tt_stats().misses == tt.at("score").misses,
              tag + ": warm re-ask scored a point again");
      if (cfg.search()) {
        // SearchStats' own count, and two the harness makes itself: the
        // promoted rows in the answer and the simulator runs the op paid.
        const i64 promoted = static_cast<i64>(promoted_subset(out.results).size());
        const i64 sim_runs = tt.at("sim").misses;
        for (const auto& [what, n] : {std::pair<const char*, i64>{"evaluated", out.search.evaluated},
                                      {"promoted rows", promoted},
                                      {"distinct sim runs", sim_runs}})
          r.check(n <= cfg.budget, tag + ": search overspent its budget (" + what + " " +
                                       std::to_string(n) + " > " +
                                       std::to_string(cfg.budget) + ")");
      }
      if (count_ops > 0 && i < static_cast<u64>(count_ops))
        count_op(cfg, out, tt, s.evaluator(), r);
      if (tally != nullptr && tally->ops < trace_ops) {
        tally->ops += 1;
        tally->op_cpu += cpu1 - cpu0;
        tally->op_wall += t1 - t0;
        tally->pool_runs += static_cast<double>(runs1 - runs0);
        tally->pool_steals += static_cast<double>(steals1 - steals0);
        for (const auto& [name, cs] : tt) {
          CacheStats& acc = tally->tt[name];
          acc.hits += cs.hits;
          acc.misses += cs.misses;
          acc.races += cs.races;
        }
        replay(cfg, s, out, *tally);
      }
    } catch (const std::exception& e) {
      r.failed += 1 + warm_asks;
      r.fail(tag + ": " + e.what());
    }
  }
}

/// One op per run re-run fully serially; it must match byte for byte
/// (sweep: SweepSession::verify_serial; search: every row and the front).
void verify_serial_op(const RunArgs& a, u64 i, Report& r) {
  const SweepConfig cfg = op_config(a.workload, a.seed, i, a.width);
  SweepSession s(cfg);
  const SweepOutcome out = s.run();
  if (!cfg.search()) {
    std::ostringstream err;
    r.check(s.verify_serial(out, err), a.workload + " op " + std::to_string(i) +
                                           ": serial re-run differs: " + err.str());
    return;
  }
  SweepConfig scfg = cfg;
  scfg.threads = 1;
  scfg.sim_threads = 1;
  SweepSession serial(scfg);
  const SweepOutcome sout = serial.run();
  r.check(front_csv(cfg, out.results) == front_csv(scfg, sout.results),
          a.workload + ": serial re-run rows differ from the parallel op");
  r.check(front_csv(cfg, out.front) == front_csv(scfg, sout.front),
          a.workload + ": serial re-run front differs from the parallel op");
}

/// The pinned reference for the halving path: the paper-space halving
/// search at budget 312 and the default seed reproduces the exhaustive
/// adaptive mixed front byte for byte.
void check_halving_reference(int width, Report& r) {
  SweepConfig adaptive;
  adaptive.backend = EvalBackend::kMixed;
  adaptive.promote_adaptive = true;
  adaptive.threads = width;
  SweepSession ad(adaptive);
  const SweepOutcome ad_out = ad.run();

  SweepConfig search;
  search.backend = EvalBackend::kMixed;
  search.mode = RunMode::kSearch;
  search.budget = 312;
  search.budget_set = true;
  search.threads = width;
  SweepSession se(search);
  const SweepOutcome se_out = se.run();
  r.check(results_csv(se_out.front).to_string() == results_csv(ad_out.front).to_string(),
          "paper halving (budget 312) front differs from the exhaustive adaptive front");
  r.check(se_out.search.evaluated <= 312, "paper halving overspent budget 312");
  r.counters["reference.halving_evaluated"] = se_out.search.evaluated;
  r.counters["reference.front_rows"] = static_cast<i64>(se_out.front.size());
}

void report_e2e(const Phase& ph, Report& r) {
  const Dist cold = summarize(ph.cold_ms);
  const Dist warm = summarize(ph.warm_ms);
  r.dist("op_ms", cold, true);
  r.dist("warm_ms", warm, true);
  r.metric("cold_ms_p50", cold.p50, "ms");
  r.metric("points_per_s", ph.cold_busy_s > 0 ? ph.points / ph.cold_busy_s : 0.0, "1/s");
  r.metric("queries_per_s",
           ph.all_busy_s > 0 ? static_cast<double>(ph.requests) / ph.all_busy_s : 0.0,
           "1/s");
}

}  // namespace

void run_inproc(const RunArgs& a, Report& r) {
  const bool search = is_search(a.workload);
  // Smoke: one op; full: at least 3 (the counted ops).
  const int count_ops = a.smoke ? 1 : 3;
  // Set-up probes: half before the plain window and half after it, so the
  // median spans the host states of the whole run, not one moment.
  const int probes = a.smoke ? 2 : 20;
  std::vector<double> setup;
  probe_setup(a, probes, setup, r);

  if (search) check_halving_reference(a.width, r);

  u64 next = 0;
  if (!a.smoke) {
    // Untimed warm-up: lazy set-up, page faults and allocator growth.
    u64 w = kWarmupIndex;
    Phase ignored;
    Report scratch;
    run_phase(a, 0.0, 1, w, 0, nullptr, 0, ignored, scratch);
  }

  Phase plain;
  const double plain_seconds = a.trace ? a.seconds / 2 : a.seconds;
  run_phase(a, plain_seconds, count_ops, next, count_ops, nullptr, 0, plain, r);
  report_e2e(plain, r);
  probe_setup(a, probes, setup, r);
  r.metric("setup_s", median(setup), "s");
  r.info["setup.samples"] = std::to_string(setup.size());
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (a.trace) {
    Report traced_e2e;
    Tally tally;
    Phase traced;
    run_phase(a, a.seconds / 2, 1, next, 0, &tally, search ? 1 : 2, traced, r);
    report_e2e(traced, traced_e2e);
    note_trace_overhead(r, traced_e2e);
    r.metrics.clear();
    zero_per_layer(r);
    report_tally(tally, a.width, r);
    kernel_rows(r);
  }

  verify_serial_op(a, 0, r);
}

int probe_main(const std::string& workload, int width) {
  // What a first op needs before it can begin: the workload registry, the
  // ConfigSpace, the evaluator, and the pool's workers.
  const SweepConfig cfg = op_config(workload, 1, 0, width);
  SweepSession s(cfg);
  double probe_sink = 0.0;
  for (const char* wl : {"bert", "llama2", "segformer", "efficientvit"})
    probe_sink += static_cast<double>(Evaluator::workload(wl).layers.size());
  probe_sink += WorkStealingPool::shared().num_threads();
  probe_sink += static_cast<double>(s.space().size());
  std::cout << "ready " << (probe_sink > 0 ? 1 : 0) << std::endl;
  return 0;
}

void probe_setup(const RunArgs& a, int count, std::vector<double>& secs, Report& r) {
  for (int k = 0; k < count; ++k) {
    Child c;
    const double t0 = wall_ms();
    c.spawn({a.self, "probe", "--workload", a.workload}, /*capture_stdout=*/true);
    const std::string line = c.read_line();
    const double t1 = wall_ms();
    const int rc = c.wait();
    if (rc != 0 || line.rfind("ready", 0) != 0) {
      r.fail("set-up probe failed (exit " + std::to_string(rc) + ")");
      continue;
    }
    secs.push_back((t1 - t0) / 1e3);
  }
}

}  // namespace perfbench
