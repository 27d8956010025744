#include "dse/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "dse/accuracy_proxy.hpp"
#include "dse/names.hpp"
#include "dse/pareto.hpp"
#include "energy/energy_model.hpp"
#include "models/bert.hpp"
#include "models/efficientvit.hpp"
#include "models/llama2.hpp"
#include "models/segformer.hpp"
#include "sim/performance.hpp"
#include "sim/stats.hpp"

namespace apsq::dse {

const char* to_string(EvalBackend b) {
  const auto& table = backend_names();
  const size_t i = static_cast<size_t>(b);
  APSQ_CHECK_MSG(i < table.size() && table[i].backend == b,
                 "backend naming table out of sync");
  return table[i].name;
}

EvalBackend parse_backend(const std::string& name) {
  for (const BackendName& row : backend_names())
    if (name == row.name) return row.backend;
  // invalid_argument (not APSQ_CHECK) keeps the message clean for CLI
  // diagnostics — parse_enum_flag prints it verbatim after the flag name.
  throw std::invalid_argument("unknown backend: " + name + " (expected " +
                              backend_name_list() + ")");
}

Evaluator::Evaluator(EvaluatorOptions opt) : opt_(opt) {
  APSQ_CHECK_MSG(opt_.threads >= 1, "Evaluator needs >= 1 thread");
  APSQ_CHECK_MSG(opt_.sim.threads >= 1, "sim runner needs >= 1 thread");
  APSQ_CHECK_MSG(opt_.promote_band >= 0.0,
                 "promote_band must be >= 0, got " << opt_.promote_band);
  APSQ_CHECK_MSG(opt_.promote_budget >= 0,
                 "promote_budget must be >= 0, got " << opt_.promote_budget);
  APSQ_CHECK_MSG(!(opt_.promote_adaptive && opt_.promote_budget > 0),
                 "adaptive and budgeted promotion are mutually exclusive");
  // Mixed puts promoted sim scores next to analytic ones, so the
  // sim scores must be in analytic absolute units: calibration is not
  // optional there.
  if (opt_.backend == EvalBackend::kMixed) opt_.calibrate = true;
  if (opt_.calibrate && opt_.backend != EvalBackend::kAnalytic) {
    Calibrator::Options copt;
    copt.sim = opt_.sim;
    copt.costs = opt_.costs;
    copt.perf = opt_.perf;
    calibrator_ = std::make_unique<Calibrator>(copt);
  }
}

Evaluator::~Evaluator() = default;

const Workload& Evaluator::workload(const std::string& name) {
  // Built once, never mutated afterwards — safe to share across workers.
  static const std::unordered_map<std::string, Workload> registry = [] {
    std::unordered_map<std::string, Workload> r;
    r.emplace("bert", bert_base_workload());
    r.emplace("llama2", llama2_7b_workload());
    r.emplace("segformer", segformer_b0_workload());
    r.emplace("efficientvit", efficientvit_b1_workload());
    return r;
  }();
  const auto it = registry.find(name);
  APSQ_CHECK_MSG(it != registry.end(), "unknown workload: " << name);
  return it->second;
}

double Evaluator::area_for(const DesignPoint& p) {
  // Area ignores workload and dataflow; the RAE is only instantiated for
  // APSQ configs (a plain low-bit or full-precision PSUM path needs no
  // requantization engine).
  std::ostringstream key;
  key << "po=" << p.acc.po << "|pci=" << p.acc.pci << "|pco=" << p.acc.pco
      << "|bi=" << p.acc.ifmap_buf_bytes << "|bo=" << p.acc.ofmap_buf_bytes
      << "|bw=" << p.acc.weight_buf_bytes << "|ab=" << p.acc.act_bits
      << "|wb=" << p.acc.weight_bits << "|rae=" << (p.psum.apsq ? 1 : 0);
  return area_tt_.lookup_or_compute(key.str(), [&] {
    return p.psum.apsq
               ? accelerator_with_rae_area(p.acc, opt_.area_lib).total_um2()
               : baseline_accelerator_area(p.acc, opt_.area_lib).total_um2();
  });
}

double Evaluator::error_for(const DesignPoint& p) {
  std::ostringstream key;
  key << "wl=" << p.workload << "|pb=" << p.psum.psum_bits
      << "|apsq=" << (p.psum.apsq ? 1 : 0) << "|gs=" << p.psum.group_size
      << "|pci=" << p.acc.pci;
  return accuracy_tt_.lookup_or_compute(key.str(), [&] {
    const Workload& w = workload(p.workload);
    if (open_batches_.load() == 0)
      return psum_error_proxy(w, p.psum, p.acc.pci, opt_.seed);
    // The seed is the evaluator's own, so it is not part of the key.
    return psum_error_proxy(
        w, p.psum, p.acc.pci, [&](const LayerShape& l, index_t np) {
          std::ostringstream k;
          k << "wl=" << w.name << "|layer=" << l.name << "|ci=" << l.ci
            << "|np=" << np;
          return proxy_input_tt_.lookup_or_compute(k.str(), [&] {
            return std::make_shared<const ProxyInputs>(
                make_proxy_inputs(w, l, np, opt_.seed));
          });
        });
  });
}

Evaluator::Measured Evaluator::measure_analytic(const DesignPoint& p) const {
  const Workload& w = workload(p.workload);
  const WorkloadPerformance perf =
      workload_performance(p.dataflow, w, p.acc, p.psum, opt_.perf);
  Measured m;
  m.energy_pj =
      workload_energy(p.dataflow, w, p.acc, p.psum, opt_.costs).total_pj();
  m.latency_s = perf.total_latency_s;
  m.pe_utilization = perf.mean_utilization;
  m.dram_bw_occupancy = perf.total_latency_s > 0.0
                            ? perf.total_dram_time_s / perf.total_latency_s
                            : 0.0;
  m.macs = static_cast<double>(perf.total_macs);
  return m;
}

Evaluator::Measured Evaluator::measure_sim(const DesignPoint& p) {
  // With sim.threads > 1 the layer loop submits a nested scope into the
  // process-wide shared pool — the same pool a parallel evaluate_space is
  // running on — so point- and layer-level parallelism compose without
  // oversubscription (the pool's width bounds concurrency).
  const Workload& w = workload(p.workload);
  const SimConfig cfg = sim_config_for(p);
  const WorkloadRunResult r = run_workload(w, cfg, opt_.sim);
  Measured m;
  // Utilization is a ratio of the scaled proxy's own measurements, so it
  // needs no calibration — and the run_* helpers are allocation-free,
  // keeping the scoring hot path free of telemetry-row construction.
  m.pe_utilization = run_pe_utilization(
      r, static_cast<double>(cfg.arch.po) * static_cast<double>(cfg.arch.pci) *
             static_cast<double>(cfg.arch.pco));
  if (calibrator_) {
    if (opt_.calibrate_per_class) {
      const ClassFactors cf = calibrator_->class_factors_for(p.workload, w, p);
      m.energy_pj = calibrator_->calibrated_energy_pj(r, cf);
      m.latency_s = calibrator_->calibrated_latency_s(r, cf);
      m.dram_bw_occupancy = run_dram_bw_occupancy(r, opt_.perf, cf.fallback);
      m.macs = cf.fallback.macs * static_cast<double>(r.total.mac_ops);
    } else {
      const CalibrationFactors f = calibrator_->factors_for(p.workload, w, p);
      m.energy_pj = calibrator_->calibrated_energy_pj(r, f);
      m.latency_s = calibrator_->calibrated_latency_s(r, f);
      m.dram_bw_occupancy = run_dram_bw_occupancy(r, opt_.perf, f);
      m.macs = f.macs * static_cast<double>(r.total.mac_ops);
    }
  } else {
    m.energy_pj = r.energy_pj(opt_.costs);
    m.latency_s = r.latency_s(opt_.perf);
    m.dram_bw_occupancy =
        run_dram_bw_occupancy(r, opt_.perf, CalibrationFactors{});
    m.macs = static_cast<double>(r.total.mac_ops);
  }
  return m;
}

WorkloadTelemetry Evaluator::telemetry_for(const DesignPoint& p,
                                           EvalBackend fidelity) {
  p.validate();
  APSQ_CHECK_MSG(fidelity != EvalBackend::kMixed,
                 "telemetry_for needs a single-fidelity backend");
  const Workload& w = workload(p.workload);
  WorkloadTelemetry t;
  if (fidelity == EvalBackend::kAnalytic) {
    t = analytic_telemetry(p.dataflow, w, p.acc, p.psum, opt_.perf);
  } else {
    const SimConfig cfg = sim_config_for(p);
    const WorkloadRunResult r = run_workload(w, cfg, opt_.sim);
    if (calibrator_) {
      const CalibrationFactors f = calibrator_->factors_for(p.workload, w, p);
      t = sim_telemetry(r, cfg, opt_.perf, f, "sim+cal");
    } else {
      t = sim_telemetry(r, cfg, opt_.perf);
    }
  }
  t.workload = p.workload;  // the registry key, matching results_csv rows
  return t;
}

EvalResult Evaluator::evaluate_at(const DesignPoint& p, EvalBackend fidelity) {
  p.validate();
  EvalResult r;
  r.point = p;
  r.obj.area_um2 = area_for(p);
  r.obj.error = error_for(p);
  const bool sim = fidelity == EvalBackend::kSim;
  const Measured m = sim ? measure_sim(p) : measure_analytic(p);
  r.obj.energy_pj = m.energy_pj;
  r.obj.latency_s = m.latency_s;
  r.obj.pe_utilization = m.pe_utilization;
  r.obj.dram_bw_headroom = std::max(0.0, 1.0 - m.dram_bw_occupancy);
  r.scored_by = !sim ? "analytic" : calibrator_ ? "sim+cal" : "sim";
  // Effective GMAC/s per mm² of silicon; 0 for a degenerate point rather
  // than inf/NaN (the finiteness gate below would reject those).
  r.obj.throughput_per_area =
      r.obj.latency_s > 0.0 && r.obj.area_um2 > 0.0
          ? (m.macs / 1e9 / r.obj.latency_s) / (r.obj.area_um2 / 1e6)
          : 0.0;
  // A NaN objective would make Pareto dominance non-transitive and poison
  // front extraction; reject it at ingestion, where the offending point is
  // still known.
  APSQ_CHECK_MSG(r.obj.all_finite(),
                 "non-finite objective for " << canonical_key(p));
  return r;
}

EvalResult Evaluator::evaluate_point(const DesignPoint& p,
                                     EvalBackend fidelity) {
  APSQ_CHECK_MSG(fidelity != EvalBackend::kMixed,
                 "evaluate_point needs a single-fidelity backend");
  // One table per fidelity, so a promotion is never answered by the
  // analytic prefilter's entry for the same point.
  TranspositionTable<EvalResult>& tt =
      fidelity == EvalBackend::kSim ? sim_tt_ : analytic_tt_;
  return tt.lookup_or_compute(canonical_key(p),
                              [&] { return evaluate_at(p, fidelity); });
}

std::vector<EvalResult> Evaluator::evaluate_points_at(
    const std::vector<DesignPoint>& pts, EvalBackend fidelity) {
  std::vector<EvalResult> out(pts.size());
  parallel_for_points(static_cast<index_t>(pts.size()), [&](index_t i) {
    out[static_cast<size_t>(i)] =
        evaluate_point(pts[static_cast<size_t>(i)], fidelity);
  });
  return out;
}

EvalResult Evaluator::evaluate(const DesignPoint& p) {
  // A single point is trivially its own Pareto front, so the mixed
  // backend always promotes it: score it at sim fidelity.
  return evaluate_point(p, opt_.backend == EvalBackend::kAnalytic
                               ? EvalBackend::kAnalytic
                               : EvalBackend::kSim);
}

std::vector<EvalResult> Evaluator::evaluate_space(const ConfigSpace& space) {
  space.validate();
  if (opt_.backend == EvalBackend::kMixed) {
    std::vector<DesignPoint> pts;
    pts.reserve(static_cast<size_t>(space.size()));
    for (index_t i = 0; i < space.size(); ++i) pts.push_back(space.at(i));
    return evaluate_points(pts);
  }
  std::vector<EvalResult> out(static_cast<size_t>(space.size()));
  parallel_for_points(space.size(), [&](index_t i) {
    out[static_cast<size_t>(i)] = evaluate(space.at(i));
  });
  return out;
}

std::vector<EvalResult> Evaluator::evaluate_points(
    const std::vector<DesignPoint>& pts) {
  if (opt_.backend == EvalBackend::kMixed) {
    PromotionRule rule;
    rule.adaptive = opt_.promote_adaptive;
    // A budget is one ∞ rung capped at the N best margins.
    rule.band = opt_.promote_budget > 0
                    ? std::numeric_limits<double>::infinity()
                    : opt_.promote_band;
    rule.cap = opt_.promote_budget;
    rule.objectives = opt_.promote_objectives;
    return promote(pts, rule);
  }
  std::vector<EvalResult> out(pts.size());
  parallel_for_points(static_cast<index_t>(pts.size()), [&](index_t i) {
    out[static_cast<size_t>(i)] = evaluate(pts[static_cast<size_t>(i)]);
  });
  return out;
}

std::vector<EvalResult> Evaluator::promote(const std::vector<DesignPoint>& pts,
                                           const PromotionRule& rule) {
  APSQ_CHECK_MSG(opt_.backend == EvalBackend::kMixed,
                 "promotion needs the mixed backend");
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  SearchStats stats;
  stats.budget = rule.cap;
  stats.explored = static_cast<index_t>(pts.size());
  std::vector<EvalResult> out = evaluate_points_at(pts, EvalBackend::kAnalytic);

  // Ranked margins once, over the analytic scores. From round 0 on, `out`
  // mixes fidelities as promoted slots acquire calibrated-sim values, and
  // margins re-derived from those would silently reshape the prefilter
  // geometry (a sim score landing below its analytic estimate widens its
  // neighbours' apparent gaps, which could starve true front points a
  // fixed band over analytic scores would promote). Selection is per
  // workload — the workload is a scenario, not a knob, and every
  // cross-workload front member is also a per-workload one. Since the
  // ranking is margin-ascending with threshold-inclusive entries first,
  // every rung's in-band set is a prefix of it: a round only advances the
  // prefix, so successive selections are nested.
  std::vector<PromotionMargin> ranked =
      ranked_margins_by_workload(out, rule.objectives);
  if (rule.cap > 0 && static_cast<size_t>(rule.cap) < ranked.size())
    ranked.resize(static_cast<size_t>(rule.cap));
  // Every slot of a configuration is promoted with it (a point list may
  // repeat one), in slot order; keys are built once per slot.
  std::unordered_map<std::string, std::vector<index_t>> slots_of;
  for (size_t i = 0; i < pts.size(); ++i)
    slots_of[canonical_key(pts[i])].push_back(static_cast<index_t>(i));

  size_t selected = 0;
  double band = rule.band;
  int stable = 0;
  std::vector<std::string> prev_front;
  for (int round = 0;; ++round) {
    const auto r0 = clock::now();
    if (rule.adaptive)
      band = round == 0   ? 0.0
             : round == 1 ? kAdaptiveStart
                          : band * kAdaptiveGrowth;
    std::vector<index_t> fresh;
    for (; selected < ranked.size() &&
           (!std::isfinite(band) || ranked[selected].in_band(band));
         ++selected) {
      const std::vector<index_t>& slots =
          slots_of.at(canonical_key(ranked[selected].result.point));
      fresh.insert(fresh.end(), slots.begin(), slots.end());
    }
    std::sort(fresh.begin(), fresh.end());
    // The calibrator fits anchor families lazily, so only promoted
    // (workload, dataflow, psum) families ever pay for anchor runs.
    parallel_for_points(static_cast<index_t>(fresh.size()), [&](index_t j) {
      const size_t i = static_cast<size_t>(fresh[static_cast<size_t>(j)]);
      out[i] = evaluate_point(pts[i], EvalBackend::kSim);
    });
    stats.evaluated += static_cast<index_t>(fresh.size());

    SearchRoundStats rs;
    // A capped ∞ rung records the band its cut bought: the largest
    // selected margin (the ranking is margin-ascending).
    rs.band = std::isfinite(band) || rule.cap == 0 ? band
              : selected > 0 ? ranked[selected - 1].enter_band
                             : 0.0;
    rs.candidates = static_cast<index_t>(selected);
    rs.evaluated_new = static_cast<index_t>(fresh.size());
    // Keys alone decide front stability: a point's sim score is memoized
    // and pure, so its objectives are byte-identical in every round.
    std::vector<std::string> front;
    for (const EvalResult& f :
         pareto_front_by_workload(promoted_subset(out), rule.objectives))
      front.push_back(canonical_key(f.point));
    rs.front_size = static_cast<index_t>(front.size());
    rs.front_changed = round == 0 || front != prev_front;
    rs.secs = std::chrono::duration<double>(clock::now() - r0).count();
    prev_front = std::move(front);
    stats.rounds.push_back(rs);
    if (!rule.adaptive || selected == ranked.size()) break;
    if (round > 0) stable = rs.front_changed ? 0 : stable + 1;
    if (stable >= kAdaptiveStability) break;
  }
  stats.secs = std::chrono::duration<double>(clock::now() - t0).count();
  promotion_stats_ = std::move(stats);
  return out;
}

std::vector<EvalResult> promoted_subset(
    const std::vector<EvalResult>& results) {
  std::vector<EvalResult> out;
  for (const EvalResult& r : results)
    if (r.scored_by == "sim" || r.scored_by == "sim+cal") out.push_back(r);
  return out;
}

void Evaluator::parallel_for_points(
    index_t n, const std::function<void(index_t)>& fn) {
  // Opens the proxy-input memo for this batch. The last open batch to
  // close empties it, on return or unwind alike, so tile streams never
  // outlive the batches that drew them.
  struct BatchScope {
    Evaluator& e;
    explicit BatchScope(Evaluator& ev) : e(ev) { ++e.open_batches_; }
    ~BatchScope() {
      if (--e.open_batches_ == 0) e.proxy_input_tt_.clear();
    }
  } const batch(*this);
  if (opt_.threads > 1) {
    WorkStealingPool::shared().parallel_for(n, fn);
  } else {
    for (index_t i = 0; i < n; ++i) fn(i);
  }
}

CacheStats Evaluator::energy_cache_stats() const {
  return analytic_tt_.stats();
}
CacheStats Evaluator::latency_cache_stats() const {
  return analytic_tt_.stats();
}
CacheStats Evaluator::sim_cache_stats() const { return sim_tt_.stats(); }
CacheStats Evaluator::area_cache_stats() const { return area_tt_.stats(); }
CacheStats Evaluator::accuracy_cache_stats() const {
  return accuracy_tt_.stats();
}
CacheStats Evaluator::proxy_input_cache_stats() const {
  return proxy_input_tt_.stats();
}
i64 Evaluator::proxy_input_entries() const {
  return proxy_input_tt_.entries();
}
CacheStats Evaluator::score_tt_stats() const {
  const CacheStats a = analytic_tt_.stats(), s = sim_tt_.stats();
  return CacheStats{a.hits + s.hits, a.misses + s.misses, a.races + s.races};
}

}  // namespace apsq::dse
