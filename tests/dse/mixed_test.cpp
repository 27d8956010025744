// Mixed-fidelity (analytic prefilter → calibrated-sim promotion) sweep
// tests: provenance, front containment, degeneration to the pure
// calibrated-sim sweep at band = ∞, byte-identical determinism across
// thread counts, and the promotion-fraction budget on the paper space.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "dse/config_space.hpp"
#include "dse/evaluator.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"

namespace apsq::dse {
namespace {

EvaluatorOptions mixed_opt(int threads, double band) {
  EvaluatorOptions opt;
  opt.threads = threads;
  opt.backend = EvalBackend::kMixed;
  opt.promote_band = band;
  opt.sim.shrink = 32;
  opt.sim.max_dim = 32;
  return opt;
}

EvaluatorOptions pure_sim_opt(int threads) {
  EvaluatorOptions opt = mixed_opt(threads, 0.0);
  opt.backend = EvalBackend::kSim;
  opt.calibrate = true;  // mixed phase 2 is always calibrated
  return opt;
}

std::set<std::string> keys_of(const std::vector<EvalResult>& pts) {
  std::set<std::string> keys;
  for (const auto& p : pts) keys.insert(canonical_key(p.point));
  return keys;
}

TEST(MixedSweep, ProvenancePartitionsTheResults) {
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator eval(mixed_opt(1, 0.0));  // band 0: promote the front only
  const std::vector<EvalResult> results = eval.evaluate_space(space);
  ASSERT_EQ(static_cast<index_t>(results.size()), space.size());

  index_t analytic = 0, sim_cal = 0;
  for (const EvalResult& r : results) {
    if (r.scored_by == "analytic")
      ++analytic;
    else if (r.scored_by == "sim+cal")
      ++sim_cal;
    else
      FAIL() << "unexpected provenance '" << r.scored_by << "'";
  }
  const SearchStats& ps = eval.promotion_stats();
  EXPECT_EQ(ps.explored, space.size());
  EXPECT_EQ(ps.evaluated, sim_cal);
  ASSERT_EQ(ps.rounds.size(), 1u);
  EXPECT_EQ(ps.rounds.back().band, 0.0);
  EXPECT_EQ(analytic + sim_cal, space.size());
  EXPECT_GT(sim_cal, 0);  // the front itself is always promoted
  EXPECT_EQ(static_cast<size_t>(sim_cal), promoted_subset(results).size());
}

TEST(MixedSweep, FrontIsContainedInThePromotedSet) {
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator eval(mixed_opt(1, 0.05));
  const std::vector<EvalResult> results = eval.evaluate_space(space);
  const std::vector<EvalResult> promoted = promoted_subset(results);
  const std::set<std::string> promoted_keys = keys_of(promoted);

  for (const EvalResult& f : pareto_front_by_workload(promoted))
    EXPECT_TRUE(promoted_keys.count(canonical_key(f.point)));
  // And every promoted point carries uniform sim+cal fidelity, so the
  // front never compares analytic numbers against measured ones.
  for (const EvalResult& p : promoted) EXPECT_EQ(p.scored_by, "sim+cal");
}

TEST(MixedSweep, PromotedScoresMatchThePureCalibratedSimByteExactly) {
  // The acceptance property: wherever the mixed sweep simulated, its
  // objectives must be byte-identical to what a pure --backend sim
  // --calibrate sweep of the same space produces.
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator mixed(mixed_opt(1, 0.05));
  const std::vector<EvalResult> mres = mixed.evaluate_space(space);

  Evaluator pure(pure_sim_opt(1));
  const std::vector<EvalResult> sres = pure.evaluate_space(space);
  ASSERT_EQ(mres.size(), sres.size());

  index_t checked = 0;
  for (size_t i = 0; i < mres.size(); ++i) {
    if (mres[i].scored_by != "sim+cal") continue;
    ++checked;
    ASSERT_EQ(canonical_key(mres[i].point), canonical_key(sres[i].point));
    for (int k = 0; k < kObjectiveCount; ++k) {
      const Objective o = static_cast<Objective>(k);
      EXPECT_EQ(format_double(mres[i].obj.get(o)),
                format_double(sres[i].obj.get(o)))
          << to_string(o) << " for " << canonical_key(mres[i].point);
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(MixedSweep, InfiniteBandReproducesThePureSimFront) {
  // band = ∞ promotes every point, so the mixed sweep degenerates to the
  // pure calibrated-sim sweep — same per-point scores, same front, byte
  // for byte.
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator mixed(mixed_opt(1, std::numeric_limits<double>::infinity()));
  const std::vector<EvalResult> mres = mixed.evaluate_space(space);
  EXPECT_EQ(mixed.promotion_stats().evaluated, space.size());

  Evaluator pure(pure_sim_opt(1));
  const std::vector<EvalResult> sres = pure.evaluate_space(space);

  const std::string mixed_front_csv =
      results_csv(pareto_front_by_workload(promoted_subset(mres))).to_string();
  const std::string sim_front_csv =
      results_csv(pareto_front_by_workload(sres)).to_string();
  EXPECT_EQ(mixed_front_csv, sim_front_csv);
}

TEST(MixedSweep, ParallelEqualsSerialByteIdentical) {
  // Including the scored_by column: the *promotion decisions*, not just
  // the scores, must be schedule-independent.
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator serial(mixed_opt(1, 0.05));
  const std::string serial_csv =
      results_csv(serial.evaluate_space(space), "mixed").to_string();
  for (int threads : {2, 4}) {
    Evaluator parallel(mixed_opt(threads, 0.05));
    EXPECT_EQ(serial_csv,
              results_csv(parallel.evaluate_space(space), "mixed").to_string())
        << "threads=" << threads;
    EXPECT_EQ(parallel.promotion_stats().evaluated,
              serial.promotion_stats().evaluated);
  }
}

TEST(MixedSweep, NestedLayerParallelismStaysDeterministic) {
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator serial(mixed_opt(1, 0.05));
  const std::string serial_csv =
      results_csv(serial.evaluate_space(space), "mixed").to_string();
  EvaluatorOptions nested = mixed_opt(4, 0.05);
  nested.sim.threads = 4;  // phase-2 layer loops join the shared pool
  Evaluator parallel(nested);
  EXPECT_EQ(serial_csv,
            results_csv(parallel.evaluate_space(space), "mixed").to_string());
}

TEST(MixedSweep, SinglePointEvaluationIsSimFidelity) {
  // A lone point is its own front — always promoted.
  Evaluator eval(mixed_opt(1, 0.05));
  DesignPoint p;
  p.workload = "bert";
  p.psum = PsumConfig::apsq_int8(2);
  const EvalResult r = eval.evaluate(p);
  EXPECT_EQ(r.scored_by, "sim+cal");

  Evaluator pure(pure_sim_opt(1));
  EXPECT_EQ(format_double(r.obj.energy_pj),
            format_double(pure.evaluate(p).obj.energy_pj));
}

TEST(MixedSweep, CalibrationIsRestrictedToPromotedFamilies) {
  // Anchor fitting is lazy, so only families containing a promoted point
  // ever pay for anchor sims.
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator eval(mixed_opt(1, 0.0));
  const std::vector<EvalResult> results = eval.evaluate_space(space);
  ASSERT_NE(eval.calibrator(), nullptr);

  std::set<std::string> promoted_families;
  for (const EvalResult& r : promoted_subset(results))
    promoted_families.insert(
        Calibrator::family_key(r.point.workload, sim_config_for(r.point)));
  const std::vector<std::string> fitted = eval.calibrator()->family_keys();
  EXPECT_EQ(fitted.size(), promoted_families.size());
  for (const std::string& key : fitted)
    EXPECT_TRUE(promoted_families.count(key)) << key;
  // With band 0 the smoke space leaves some families unpromoted.
  EXPECT_LT(eval.calibrator()->family_count(), space.size());
}

TEST(MixedSweep, AdaptiveStopsWhenTheFrontIsStableAndAccountsEveryRound) {
  const ConfigSpace space = ConfigSpace::smoke();
  EvaluatorOptions opt = mixed_opt(1, 0.0);
  opt.promote_adaptive = true;
  Evaluator eval(opt);
  const std::vector<EvalResult> results = eval.evaluate_space(space);
  const SearchStats& ps = eval.promotion_stats();
  EXPECT_EQ(ps.budget, 0);  // the uncapped ladder
  ASSERT_GE(ps.rounds.size(), 1u);

  // Round 0 promotes the analytic front at band 0; each widening
  // multiplies the band by kAdaptiveGrowth exactly.
  EXPECT_EQ(ps.rounds[0].band, 0.0);
  if (ps.rounds.size() > 1) {
    EXPECT_EQ(ps.rounds[1].band, kAdaptiveStart);
  }
  for (size_t r = 2; r < ps.rounds.size(); ++r)
    EXPECT_EQ(ps.rounds[r].band, ps.rounds[r - 1].band * kAdaptiveGrowth);

  // Per-round accounting: cumulative counts are consistent and monotone
  // (the smoke space repeats no configuration, so the selected count is
  // the simulated count), and the final total is what the sweep reports
  // (and what the results carry as sim+cal provenance).
  index_t running = 0;
  for (const SearchRoundStats& rs : ps.rounds) {
    running += rs.evaluated_new;
    EXPECT_EQ(rs.candidates, running);
    EXPECT_GT(rs.front_size, 0);
  }
  EXPECT_EQ(ps.evaluated, running);
  EXPECT_EQ(static_cast<size_t>(ps.evaluated),
            promoted_subset(results).size());

  // The stopping rule: either the front sat still for kAdaptiveStability
  // consecutive widenings, or every point was promoted first.
  if (ps.evaluated < space.size()) {
    ASSERT_GE(ps.rounds.size(), static_cast<size_t>(kAdaptiveStability));
    for (size_t r = ps.rounds.size() - static_cast<size_t>(kAdaptiveStability);
         r < ps.rounds.size(); ++r)
      EXPECT_FALSE(ps.rounds[r].front_changed) << "round " << r;
  } else {
    EXPECT_EQ(ps.rounds.back().candidates, space.size());
  }
}

TEST(MixedSweep, AdaptiveParallelEqualsSerialByteIdentical) {
  // The promotion *trajectory* — every round's band and promotion
  // decisions, not just the final scores — must be schedule-independent.
  const ConfigSpace space = ConfigSpace::smoke();
  EvaluatorOptions sopt = mixed_opt(1, 0.0);
  sopt.promote_adaptive = true;
  Evaluator serial(sopt);
  const std::string serial_csv =
      results_csv(serial.evaluate_space(space), "mixed").to_string();
  const SearchStats& sms = serial.promotion_stats();
  for (int threads : {2, 4}) {
    EvaluatorOptions popt = mixed_opt(threads, 0.0);
    popt.promote_adaptive = true;
    Evaluator parallel(popt);
    EXPECT_EQ(serial_csv,
              results_csv(parallel.evaluate_space(space), "mixed").to_string())
        << "threads=" << threads;
    const SearchStats& pms = parallel.promotion_stats();
    ASSERT_EQ(pms.rounds.size(), sms.rounds.size()) << "threads=" << threads;
    for (size_t r = 0; r < pms.rounds.size(); ++r) {
      EXPECT_EQ(pms.rounds[r].band, sms.rounds[r].band);
      EXPECT_EQ(pms.rounds[r].evaluated_new, sms.rounds[r].evaluated_new);
      EXPECT_EQ(pms.rounds[r].front_size, sms.rounds[r].front_size);
      EXPECT_EQ(pms.rounds[r].front_changed, sms.rounds[r].front_changed);
    }
  }
}

TEST(MixedSweep, BudgetPromotesExactlyTheBestPointsByMargin) {
  const ConfigSpace space = ConfigSpace::smoke();
  EvaluatorOptions opt = mixed_opt(1, 0.0);
  opt.promote_budget = 3;
  Evaluator eval(opt);
  const std::vector<EvalResult> results = eval.evaluate_space(space);
  const SearchStats& ps = eval.promotion_stats();
  EXPECT_EQ(ps.budget, 3);
  EXPECT_EQ(ps.evaluated, 3);
  ASSERT_EQ(ps.rounds.size(), 1u);
  EXPECT_EQ(ps.rounds[0].evaluated_new, 3);

  // The promoted keys are exactly the budget's ranked-margin selection
  // over the analytic phase-1 scores.
  Evaluator analytic(EvaluatorOptions{});
  const std::vector<EvalResult> ares = analytic.evaluate_space(space);
  const std::set<std::string> expected =
      keys_of(best_by_margin(ares, 3, opt.promote_objectives));
  EXPECT_EQ(keys_of(promoted_subset(results)), expected);
  // ... and the reported effective band is the largest selected margin.
  double max_margin = 0.0;
  for (const PromotionMargin& m :
       promotion_margins_by_workload(ares, opt.promote_objectives))
    if (expected.count(canonical_key(m.result.point)))
      max_margin = std::max(max_margin, m.enter_band);
  EXPECT_EQ(ps.rounds[0].band, max_margin);
}

TEST(MixedSweep, BudgetParallelEqualsSerialByteIdentical) {
  // Stable tie-breaking at the budget boundary: the cut must land on the
  // same points for every thread count.
  const ConfigSpace space = ConfigSpace::smoke();
  EvaluatorOptions sopt = mixed_opt(1, 0.0);
  sopt.promote_budget = 3;
  Evaluator serial(sopt);
  const std::string serial_csv =
      results_csv(serial.evaluate_space(space), "mixed").to_string();
  for (int threads : {2, 4}) {
    EvaluatorOptions popt = mixed_opt(threads, 0.0);
    popt.promote_budget = 3;
    Evaluator parallel(popt);
    EXPECT_EQ(serial_csv,
              results_csv(parallel.evaluate_space(space), "mixed").to_string())
        << "threads=" << threads;
    EXPECT_EQ(parallel.promotion_stats().evaluated,
              serial.promotion_stats().evaluated);
  }
}

TEST(MixedSweep, InfiniteBudgetDegeneratesToInfiniteBand) {
  // A budget at or past the space size promotes everything — the same
  // sweep (scores, provenance, stats) as band = ∞, byte for byte.
  const ConfigSpace space = ConfigSpace::smoke();
  EvaluatorOptions bopt = mixed_opt(1, 0.0);
  bopt.promote_budget = space.size() + 1000;
  Evaluator budget(bopt);
  const std::string budget_csv =
      results_csv(budget.evaluate_space(space), "mixed").to_string();
  EXPECT_EQ(budget.promotion_stats().evaluated, space.size());

  Evaluator band(mixed_opt(1, std::numeric_limits<double>::infinity()));
  const std::string band_csv =
      results_csv(band.evaluate_space(space), "mixed").to_string();
  EXPECT_EQ(band.promotion_stats().evaluated, space.size());
  EXPECT_EQ(budget_csv, band_csv);
}

TEST(MixedSweep, AdaptiveFrontMatchesPureCalibratedSimOnPaperSpace) {
  // The acceptance property of adaptive promotion: on the full 1248-point
  // paper space over the energy×latency plane, the front-stability rule
  // recovers the pure calibrated-sim front byte-identically while
  // simulating no more points than the hand-tuned fixed band 0.05 did.
  const ConfigSpace space = ConfigSpace::paper_default();
  ASSERT_EQ(space.size(), 1248);
  const ObjectiveSet el = ObjectiveSet::parse("energy,latency");

  EvaluatorOptions aopt = mixed_opt(4, 0.0);
  aopt.promote_adaptive = true;
  aopt.promote_objectives = el;
  Evaluator adaptive(aopt);
  const std::vector<EvalResult> ares = adaptive.evaluate_space(space);
  const std::string adaptive_front_csv =
      results_csv(pareto_front_by_workload(promoted_subset(ares), el))
          .to_string();

  EvaluatorOptions popt = pure_sim_opt(4);
  popt.promote_objectives = el;
  Evaluator pure(popt);
  const std::string pure_front_csv =
      results_csv(pareto_front_by_workload(pure.evaluate_space(space), el))
          .to_string();
  EXPECT_EQ(adaptive_front_csv, pure_front_csv);

  // Simulation cost: no more than the fixed band would have paid (the
  // band the adaptive rule replaced — 242 points at 0.05 on this space).
  Evaluator analytic(EvaluatorOptions{});
  const std::vector<EvalResult> full = analytic.evaluate_space(space);
  const size_t fixed_band_cost =
      epsilon_band_by_workload(full, 0.05, el).size();
  EXPECT_LE(adaptive.promotion_stats().evaluated,
            static_cast<index_t>(fixed_band_cost));
  EXPECT_GT(adaptive.promotion_stats().rounds.size(), 1u);
}

TEST(MixedSweep, PaperSpacePromotionFractionStaysUnderBudget) {
  // The acceptance budget: with --promote-band 0.05 over the
  // energy×latency plane, the mixed sweep re-simulates ≤ 20% of the
  // default 1248-point space. Phase 1 and the promotion decision are
  // pure analytic computations, so this pins the budget without paying
  // for any phase-2 simulation.
  const ConfigSpace space = ConfigSpace::paper_default();
  ASSERT_EQ(space.size(), 1248);
  EvaluatorOptions opt;
  opt.threads = 4;
  Evaluator analytic(opt);
  const std::vector<EvalResult> results = analytic.evaluate_space(space);

  const ObjectiveSet el = ObjectiveSet::parse("energy,latency");
  const std::vector<EvalResult> band =
      epsilon_band_by_workload(results, 0.05, el);
  EXPECT_LE(band.size(), static_cast<size_t>(space.size()) / 5)
      << "promotion band grew past the 20% re-simulation budget";
  // ... while still containing every per-workload front member.
  const std::set<std::string> band_keys = keys_of(band);
  for (const EvalResult& f : pareto_front_by_workload(results, el))
    EXPECT_TRUE(band_keys.count(canonical_key(f.point)));
}

}  // namespace
}  // namespace apsq::dse
