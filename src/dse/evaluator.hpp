// Parallel, memoizing design-point scorer with pluggable fidelity.
//
// Each point is scored on the full objective vector: the core minimize
// quartet — workload energy, synthesis area ±RAE (src/rae), the PSUM
// quantization-error accuracy proxy (accuracy_proxy.hpp), and workload
// latency — plus the telemetry-derived maximize trio (pe_utilization,
// dram_bw_headroom, throughput_per_area; see sim/stats.hpp). Two backends
// supply the performance-derived objectives:
//
//   analytic — closed-form access counts (src/energy, Eqs. 1–6) and the
//              tile/bandwidth performance model (src/sim/performance);
//   sim      — drives the bit-accurate simulator (run_workload /
//              Accelerator::run_gemm) with a per-point SimConfig and
//              converts the *measured* SRAM/DRAM byte counts into energy
//              via the same EnergyCosts table, and measured cycles/DRAM
//              traffic into latency. Raw sim scores are of the scaled
//              proxy workload (WorkloadRunOptions.shrink / max_dim), so
//              absolute values are smaller than analytic full-scale ones;
//              with `calibrate` set, a dse::Calibrator (calibrate.hpp)
//              rescales the measured components into the analytic
//              backend's absolute units, so the two backends' fronts mix.
//   mixed    — multi-fidelity: the analytic backend scores every point,
//              then the promotion engine (promote()) re-scores near-front
//              points with the *calibrated* sim backend. One loop over
//              one ranked-margin primitive (dse/pareto) serves four rules:
//              a fixed ε-dominance band is one rung (promote_band); the
//              adaptive ladder widens the band geometrically until the
//              promoted front is stable (promote_adaptive — the
//              front-stability stopping rule); a budget is one ∞ rung
//              capped at the N best points by margin (promote_budget); and
//              the halving search (dse/search) is the adaptive ladder
//              capped at its budget. Each result records its provenance
//              in EvalResult::scored_by; the front is then extracted over
//              the promoted (uniform-fidelity) subset. This buys sim
//              fidelity where it matters — on and near the front — at a
//              small multiple of the analytic sweep's cost.
//
// Memoization: every score is cached whole, once per fidelity, under the
// point's canonical key, so a re-run, an overlapping space or a promotion
// round never pays for a point twice. Below that, only the three
// sub-evaluations whose keys really are shared across points have their
// own tables: area depends only on the accelerator geometry, the
// accuracy proxy only on (workload, psum, pci), and the proxy's inputs —
// one layer's synthetic tile stream and its exact accumulation — only on
// (workload, layer, ci, np) at the evaluator's seed, so a cartesian sweep
// reuses the overwhelming majority of all three. The proxy-input table
// lives for one scoring batch (one parallel_for_points call): it is
// emptied when the last running batch returns or throws, and a point
// scored while no batch runs draws its inputs afresh. A long-lived
// evaluator (the daemon keeps one per scoring key) therefore never keeps
// tile streams between batches. All scoring functions are
// pure, every worker derives its randomness per work item via
// Rng::stream, and results land in index-addressed slots, so a parallel
// sweep is byte-identical to a serial one. Parallel evaluation runs on the
// process-wide WorkStealingPool::shared(): the point-level loop and
// run_workload's layer-level loop submit into the same pool (nested scopes
// compose), so sim-backed sweeps parallelize at both levels without
// oversubscribing.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dse/accuracy_proxy.hpp"
#include "dse/calibrate.hpp"
#include "dse/config_space.hpp"
#include "dse/design_point.hpp"
#include "dse/tt.hpp"
#include "energy/costs.hpp"
#include "rae/area_model.hpp"
#include "sim/workload_runner.hpp"

namespace apsq::dse {

/// Fidelity backend for the energy and latency objectives.
enum class EvalBackend {
  kAnalytic,  ///< closed-form models (fast; full-scale workloads)
  kSim,       ///< cycle-level simulator (slow; scaled proxy workloads)
  kMixed,     ///< analytic prefilter → calibrated-sim promotion (two-phase)
};

const char* to_string(EvalBackend b);
/// Parse "analytic" | "sim" | "mixed"; throws on anything else.
EvalBackend parse_backend(const std::string& name);

/// The adaptive promotion ladder: rungs 0, kAdaptiveStart,
/// kAdaptiveStart·kAdaptiveGrowth, …, stopping once the promoted front is
/// unchanged for kAdaptiveStability consecutive widenings. The evolve
/// search reuses the same stability count for its generations.
inline constexpr double kAdaptiveStart = 0.0125;
inline constexpr double kAdaptiveGrowth = 2.0;
inline constexpr int kAdaptiveStability = 2;

/// One round of a promotion ladder (one band rung) or of an evolve search
/// (one generation). The per-round counts show where the simulation time
/// went and when the front-stability rule fired.
struct SearchRoundStats {
  /// Promotion only: the ε slack this round promoted at. A capped ∞ rung
  /// (a promotion budget) records the largest margin of its cut — the
  /// fixed band the budget turned out to buy.
  double band = 0.0;
  /// Points the round considered; for promotion, the configurations
  /// selected so far (the ladder's selections are nested).
  index_t candidates = 0;
  index_t evaluated_new = 0;  ///< evaluations charged this round
  index_t front_size = 0;
  bool front_changed = false;  ///< did this round's front differ from the last?
  double secs = 0.0;           ///< selection + evaluation wall time
};

/// Accounting of one promotion ladder (a mixed sweep or a halving search)
/// or one evolve search.
struct SearchStats {
  /// The evaluation cap: the promotion budget or search budget (0 = none).
  i64 budget = 0;
  index_t explored = 0;   ///< analytic exploration evaluations (promotion only)
  index_t evaluated = 0;  ///< evaluations at the scoring fidelity (<= budget)
  std::vector<SearchRoundStats> rounds;
  double secs = 0.0;

  /// Wall time of the rounds; the rest of `secs` is exploration.
  double rounds_secs() const {
    double t = 0.0;
    for (const SearchRoundStats& rs : rounds) t += rs.secs;
    return t;
  }
};

/// What one run of the promotion engine selects (see Evaluator::promote).
/// The four rules are all instances: a fixed band is one rung at `band`;
/// adaptive climbs the ladder; a promotion budget is one ∞ rung capped at
/// `cap`; a halving search is the adaptive ladder capped at its budget.
struct PromotionRule {
  bool adaptive = false;  ///< climb the adaptive ladder instead of one rung
  double band = 0.0;      ///< the single rung; non-finite selects everything
  /// Promote at most this many distinct configurations, best ranked
  /// margin first (0 = uncapped).
  index_t cap = 0;
  ObjectiveSet objectives = ObjectiveSet::core();  ///< the margin plane
};

struct EvaluatorOptions {
  /// 1 = score points serially on the calling thread; > 1 = score them on
  /// the process-wide shared pool (whose width is hardware_threads(), or
  /// APSQ_POOL_THREADS if set — see WorkStealingPool::shared()). Results
  /// are byte-identical either way.
  int threads = 1;
  u64 seed = 0xD5EULL;     ///< accuracy-proxy stream seed
  EvalBackend backend = EvalBackend::kAnalytic;
  EnergyCosts costs = EnergyCosts::horowitz();
  AreaLibrary area_lib = AreaLibrary::tsmc28_typical();
  PerfConfig perf;         ///< clock / DRAM bandwidth for the latency objective
  /// Scaling and seed for the sim backend. With sim.threads > 1 each
  /// point's layers run as a nested scope on the same shared pool, so
  /// point- and layer-level parallelism compose.
  WorkloadRunOptions sim;
  /// Sim backend only: rescale measured energies/latencies into the
  /// analytic backend's absolute units via dse::Calibrator. The mixed
  /// backend forces this on — promoted sim scores must be comparable with
  /// the analytic scores they sit next to.
  bool calibrate = false;
  /// Mixed backend: relative ε-dominance slack selecting which analytic
  /// points the fixed-band rule promotes to the calibrated simulator (see
  /// epsilon_band in dse/pareto.hpp). 0 promotes the analytic front only;
  /// a non-finite band promotes everything (degenerates to --backend sim
  /// --calibrate). Ignored when promote_adaptive or promote_budget is set.
  double promote_band = 0.05;
  /// Mixed backend: adaptive promotion (the front-stability stopping
  /// rule). Climbs the band ladder 0, kAdaptiveStart, ×kAdaptiveGrowth, …,
  /// re-simulating only the newly promoted points each round (the sim
  /// memo carries everything already paid for), and stops once the
  /// promoted front is unchanged for kAdaptiveStability consecutive
  /// widenings or every point is promoted. Replaces the hand-tuned fixed
  /// band with a rule that spends simulation only while it still moves
  /// the answer.
  bool promote_adaptive = false;
  /// Mixed backend: promote exactly this many *distinct configurations* —
  /// the best by ε-dominance margin (best_by_margin in dse/pareto.hpp) —
  /// instead of a band. 0 disables budget mode; a budget >= the space
  /// size promotes everything (the budget analogue of band = ∞). If the
  /// evaluated point list repeats a configuration, every duplicate slot
  /// of a selected one is re-scored — they must agree in fidelity, and
  /// the sim memo makes the repeats free — so the slot counts in
  /// promotion_stats() can exceed the budget by the number of selected
  /// duplicates. Mutually exclusive with promote_adaptive.
  index_t promote_budget = 0;
  /// Sim backend with calibrate: fit latency/energy factors per
  /// (workload, dataflow, psum, layer-class) instead of per workload
  /// (Calibrator::class_factors_for). Finer-grained — a class whose
  /// buffer-fit regime changes differently under scaling gets its own
  /// cycle factor — but the per-layer roll-up sums in a different FP
  /// order than the per-workload aggregate formula, so it is opt-in to
  /// keep default sweeps byte-stable.
  bool calibrate_per_class = false;
  /// Mixed backend: the objective subset the promotion band / margin is
  /// measured in. Should match the objectives the caller extracts fronts
  /// over.
  ObjectiveSet promote_objectives = ObjectiveSet::core();
};

class Evaluator {
 public:
  explicit Evaluator(EvaluatorOptions opt = EvaluatorOptions{});
  ~Evaluator();

  /// Score one point (memoized, thread-safe).
  EvalResult evaluate(const DesignPoint& p);

  /// The point-at-a-time scoring oracle: score one point at an explicit
  /// single-fidelity backend (kAnalytic or kSim — never kMixed), memoized
  /// whole-result in that fidelity's transposition table under the
  /// point's canonical key. Thread-safe and pure, so parallel search
  /// workers hitting overlapping points pay each score once.
  EvalResult evaluate_point(const DesignPoint& p, EvalBackend fidelity);

  /// Batch flavour of evaluate_point: every point at the same explicit
  /// fidelity, results in index-addressed slots (byte-identical across
  /// thread counts), parallel on the shared pool when threads > 1.
  std::vector<EvalResult> evaluate_points_at(
      const std::vector<DesignPoint>& pts, EvalBackend fidelity);

  /// Per-layer telemetry of one point at an explicit single-fidelity
  /// backend (kAnalytic or kSim — never kMixed). The sim flavour re-runs
  /// the workload (the scoring cache keeps scalars, not layer rows), so
  /// this is for dumping a handful of front points (--layer-stats-csv),
  /// not for the scoring hot path; with an active calibrator the rows are
  /// lifted by the point's per-workload factors (source "sim+cal").
  WorkloadTelemetry telemetry_for(const DesignPoint& p, EvalBackend fidelity);

  /// Score every point of the space with the evaluator's persistent
  /// work-stealing pool. Output order is the space's enumeration order
  /// regardless of thread count.
  std::vector<EvalResult> evaluate_space(const ConfigSpace& space);

  /// Score an explicit point list (same determinism guarantees).
  std::vector<EvalResult> evaluate_points(const std::vector<DesignPoint>& pts);

  /// The promotion engine — the one loop behind both the mixed backend's
  /// sweeps and the halving search. Scores every point analytically,
  /// ranks the deduped configurations by per-workload ε-dominance margin
  /// over those analytic scores (computed once, so every rung thresholds
  /// the same fixed analytic geometry and successive selections are
  /// nested), truncates the ranking at `rule.cap`, then climbs the band
  /// rungs: each round re-scores the newly selected slots with the
  /// calibrated simulator, in slot order, and re-extracts the promoted
  /// per-workload front. An adaptive ladder stops once every ranked
  /// configuration is promoted or the front is unchanged for
  /// kAdaptiveStability widenings. Selection is pure and key-ordered, so
  /// the trajectory is identical at every thread count. Records the run
  /// in promotion_stats().
  std::vector<EvalResult> promote(const std::vector<DesignPoint>& pts,
                                  const PromotionRule& rule);

  /// Ladder accounting of the most recent promote() call — a mixed-backend
  /// evaluate_space / evaluate_points or a halving search (all-zero before
  /// the first one).
  const SearchStats& promotion_stats() const { return promotion_stats_; }

  /// The analytic whole-result table: energy and latency are both parts
  /// of the one analytic score, so these two report the same counters.
  CacheStats energy_cache_stats() const;
  CacheStats latency_cache_stats() const;
  /// The sim whole-result table; misses count distinct simulator runs.
  CacheStats sim_cache_stats() const;
  CacheStats area_cache_stats() const;
  CacheStats accuracy_cache_stats() const;
  /// The accuracy proxy's per-layer inputs (tile stream + exact
  /// accumulation); misses count tile streams drawn inside batches.
  CacheStats proxy_input_cache_stats() const;
  /// Tile streams currently memoized: 0 whenever no batch is running.
  i64 proxy_input_entries() const;
  /// Both whole-result tables (evaluate_point) summed.
  CacheStats score_tt_stats() const;

  const EvaluatorOptions& options() const { return opt_; }

  /// The sim↔analytic calibrator, non-null iff options().calibrate and the
  /// sim backend are both active. Exposed so callers can persist / preload
  /// its fitted unit factors (apsq_dse --calibration-csv).
  Calibrator* calibrator() { return calibrator_.get(); }

  /// Bundled-workload registry ("bert", "llama2", "segformer",
  /// "efficientvit" at the paper's input sizes). Throws on unknown names.
  static const Workload& workload(const std::string& name);

 private:
  /// The performance-derived inputs of one point's objectives at one
  /// fidelity. The sim flavour measures the scaled proxy workload and,
  /// with a calibrator, lifts it into the analytic backend's units.
  struct Measured {
    double energy_pj = 0.0;
    double latency_s = 0.0;
    double pe_utilization = 0.0;     ///< MAC-weighted mean (dimensionless)
    double dram_bw_occupancy = 0.0;  ///< Σ dram_time / Σ latency
    double macs = 0.0;               ///< full-scale useful MACs
  };

  double area_for(const DesignPoint& p);
  double error_for(const DesignPoint& p);
  Measured measure_analytic(const DesignPoint& p) const;
  Measured measure_sim(const DesignPoint& p);
  /// Score one point at an explicit single-fidelity backend (kAnalytic or
  /// kSim — never kMixed), unmemoized. evaluate_point memoizes it.
  EvalResult evaluate_at(const DesignPoint& p, EvalBackend fidelity);
  /// Index loop over points: inline when threads == 1, on the shared pool
  /// otherwise. One call is one scoring batch: the proxy-input memo is
  /// open while it runs and emptied when the last open batch ends.
  void parallel_for_points(index_t n, const std::function<void(index_t)>& fn);

  EvaluatorOptions opt_;
  SearchStats promotion_stats_;
  // Every memo is one sharded TranspositionTable (dse/tt.hpp): one
  // whole-result table per fidelity, keyed by canonical_key, plus the
  // three sub-evaluations whose keys really are shared across points.
  TranspositionTable<EvalResult> analytic_tt_;
  TranspositionTable<EvalResult> sim_tt_;
  TranspositionTable<double> area_tt_;
  TranspositionTable<double> accuracy_tt_;
  TranspositionTable<std::shared_ptr<const ProxyInputs>> proxy_input_tt_;
  /// Scoring batches running now; the last one to finish empties
  /// proxy_input_tt_, and error_for bypasses it while this is 0.
  std::atomic<int> open_batches_{0};
  std::unique_ptr<Calibrator> calibrator_;  ///< sim/mixed + calibrate only
};

/// The results a mixed sweep re-scored with the simulator (scored_by
/// "sim" / "sim+cal"). The mixed Pareto front is extracted over this
/// subset — all its members carry the same fidelity, so dominance never
/// compares an analytic score against a measured one.
std::vector<EvalResult> promoted_subset(const std::vector<EvalResult>& results);

}  // namespace apsq::dse
