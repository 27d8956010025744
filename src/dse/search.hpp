// Budgeted search over a lazily-decoded ConfigSpace: the alternative to
// exhaustive sweep once fine-grained axes push the space past what
// enumerate-and-score can touch (ConfigSpace::fine_default() is ~6×10⁷
// points). Two strategies, both driving the Evaluator's point-at-a-time
// oracle (evaluate_point / evaluate_points_at, memoized in the shared
// transposition table so parallel searchers and successive rounds never
// pay a score twice):
//
//   halving — successive halving over analytic fidelity with
//             calibrated-sim promotion (mixed backend only). It draws a
//             deterministic stratified sample (the whole space when it
//             fits the exploration cap) and hands it to the mixed
//             backend's promotion engine (Evaluator::promote) as the
//             adaptive ladder capped at `budget` points, best
//             ranked-margin first. The mixed sweep runs the same loop, so
//             with a budget at least as large as the ladder's natural
//             promotion count the trajectory — and the front — is
//             byte-identical to the exhaustive adaptive mixed sweep's.
//   evolve  — seeded evolutionary / local search at a single fidelity
//             (analytic or sim backend). A stratified seed batch, then
//             rounds of ±1-step neighbours of the current per-workload
//             front plus random injections, batch-scored until the
//             budget is spent, the front is stable, or no unseen
//             candidate remains.
//
// Both strategies are deterministic given (seed, budget): candidate
// selection is single-threaded and pure, randomness comes from
// Rng::stream(seed, round), and batch scoring lands in index-addressed
// slots — so the result is byte-identical at any thread count.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dse/config_space.hpp"
#include "dse/design_point.hpp"
#include "dse/evaluator.hpp"

namespace apsq::dse {

enum class SearchStrategy {
  kHalving,  ///< analytic exploration → budgeted calibrated-sim promotion
  kEvolve,   ///< seeded evolutionary/local search at one fidelity
};

const char* to_string(SearchStrategy s);
/// Parse "halving" | "evolve"; throws std::invalid_argument on anything
/// else (message lists the valid names, parse_enum_flag prints it).
SearchStrategy parse_strategy(const std::string& name);

struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::kHalving;
  /// Evaluations the search may spend at its scoring fidelity: sim
  /// promotions for halving (analytic exploration rides free), oracle
  /// calls for evolve. Must be >= 1.
  i64 budget = 0;
  /// Search-trajectory seed (candidate sampling / injections) — distinct
  /// from the evaluator's scoring seed, so re-seeding the search never
  /// changes any point's score.
  u64 seed = 1;
  /// The objective plane candidate selection (margins, fronts) is
  /// measured in. Should match the objectives the caller extracts fronts
  /// over.
  ObjectiveSet objectives = ObjectiveSet::core();
};

class SearchDriver {
 public:
  /// `space` and `eval` must outlive the driver. Halving requires an
  /// evaluator with the mixed backend; evolve a single-fidelity one.
  SearchDriver(const ConfigSpace& space, Evaluator& eval, SearchOptions opt);

  /// Run the search. Returns the scored rows keyed by point index —
  /// sparse (nowhere near size() on a large space), byte-identical for a
  /// fixed (seed, budget) at any thread count. Halving rows mix
  /// fidelities exactly like a mixed sweep's (promoted rows carry
  /// scored_by "sim+cal"); extract fronts over the promoted subset.
  std::map<index_t, EvalResult> run();

  const SearchStats& stats() const { return stats_; }

 private:
  std::map<index_t, EvalResult> run_halving();
  std::map<index_t, EvalResult> run_evolve();
  /// `count` strata over [0, n), one uniform pick per stratum via `rng` —
  /// strictly increasing, so the result is sorted and duplicate-free.
  std::vector<index_t> stratified_sample(index_t n, index_t count, Rng rng) const;

  const ConfigSpace& space_;
  Evaluator& eval_;
  SearchOptions opt_;
  SearchStats stats_;
};

}  // namespace apsq::dse
