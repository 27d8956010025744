// The budgeted-search contract: SearchDriver is deterministic given
// (seed, budget) at any thread count, respects the evaluation budget,
// and — with an unconstraining budget — the halving strategy reproduces
// the exhaustive pipeline's front byte-identically. The sweep layer's
// search mode persists sparse row sets through the store so a warm
// replay never runs the driver.
#include "dse/search.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "dse/report.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"

namespace apsq::dse {
namespace {

std::string rows_csv(const std::map<index_t, EvalResult>& rows) {
  std::vector<EvalResult> rs;
  rs.reserve(rows.size());
  for (const auto& [i, r] : rows) rs.push_back(r);
  return results_csv(rs).to_string();
}

TEST(Search, ParseStrategyRoundTripsAndRejects) {
  EXPECT_EQ(parse_strategy("halving"), SearchStrategy::kHalving);
  EXPECT_EQ(parse_strategy("evolve"), SearchStrategy::kEvolve);
  EXPECT_EQ(to_string(SearchStrategy::kHalving), std::string("halving"));
  EXPECT_EQ(to_string(SearchStrategy::kEvolve), std::string("evolve"));
  try {
    parse_strategy("anneal");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("anneal"), std::string::npos) << msg;
    EXPECT_NE(msg.find("halving|evolve"), std::string::npos) << msg;
  }
}

TEST(Search, DriverRejectsMismatchedBackendAndBudget) {
  const ConfigSpace space = ConfigSpace::smoke();
  Evaluator analytic;  // default backend: analytic
  SearchOptions opt;
  opt.strategy = SearchStrategy::kEvolve;
  opt.budget = 0;  // a search that may evaluate nothing is a config bug
  EXPECT_THROW(SearchDriver(space, analytic, opt), std::logic_error);
  opt.budget = 4;
  opt.strategy = SearchStrategy::kHalving;  // halving IS the mixed pipeline
  EXPECT_THROW(SearchDriver(space, analytic, opt), std::logic_error);
  EvaluatorOptions mixed_opt;
  mixed_opt.backend = EvalBackend::kMixed;
  Evaluator mixed(mixed_opt);
  opt.strategy = SearchStrategy::kEvolve;  // evolve scores at ONE fidelity
  EXPECT_THROW(SearchDriver(space, mixed, opt), std::logic_error);
}

TEST(Search, EvolveIsDeterministicAcrossThreadCounts) {
  const ConfigSpace space = ConfigSpace::paper_default();
  SearchOptions opt;
  opt.strategy = SearchStrategy::kEvolve;
  opt.budget = 64;
  opt.seed = 5;
  std::string base;
  for (int threads : {1, 2, 4}) {
    EvaluatorOptions eopt;
    eopt.threads = threads;
    Evaluator eval(eopt);
    SearchDriver driver(space, eval, opt);
    const std::string csv = rows_csv(driver.run());
    if (threads == 1)
      base = csv;
    else
      EXPECT_EQ(base, csv) << "threads=" << threads;
  }
  EXPECT_FALSE(base.empty());
}

TEST(Search, EvolveRespectsTheBudgetAndReportsIt) {
  const ConfigSpace space = ConfigSpace::paper_default();
  SearchOptions opt;
  opt.strategy = SearchStrategy::kEvolve;
  opt.budget = 48;
  Evaluator eval;
  SearchDriver driver(space, eval, opt);
  const auto rows = driver.run();
  // Evolve scores at one fidelity, so every row is budget-charged: the
  // archive can never outgrow the budget.
  EXPECT_LE(static_cast<i64>(rows.size()), opt.budget);
  EXPECT_EQ(driver.stats().evaluated, static_cast<index_t>(rows.size()));
  EXPECT_LE(driver.stats().evaluated, opt.budget);
  EXPECT_GT(driver.stats().rounds.size(), 0u);
  // Every returned row decodes back to the point it claims to be.
  for (const auto& [i, r] : rows)
    EXPECT_EQ(canonical_key(r.point), canonical_key(space.at(i)));
}

TEST(Search, ChangingTheSeedChangesTheTrajectory) {
  const ConfigSpace space = ConfigSpace::paper_default();
  SearchOptions opt;
  opt.strategy = SearchStrategy::kEvolve;
  opt.budget = 48;
  opt.seed = 1;
  Evaluator e1;
  SearchDriver d1(space, e1, opt);
  const auto r1 = d1.run();
  opt.seed = 99;
  Evaluator e2;
  SearchDriver d2(space, e2, opt);
  const auto r2 = d2.run();
  // Different seeds sample different points (the archives may overlap,
  // but not coincide on a 1248-point space with 48 evaluations).
  EXPECT_NE(rows_csv(r1), rows_csv(r2));
}

TEST(Search, HalvingMatchesExhaustiveCalibratedSimFrontOnSmokeSpace) {
  // The acceptance shape at smoke scale: a budgeted halving search over
  // the mixed backend lands on the same front as exhaustively scoring
  // every point with the calibrated simulator.
  SweepConfig exhaustive;
  exhaustive.space = "smoke";
  exhaustive.backend = EvalBackend::kSim;
  exhaustive.calibrate = true;
  exhaustive.threads = 1;
  SweepSession ex_session(exhaustive);
  const SweepOutcome ex_out = ex_session.run();

  SweepConfig search;
  search.space = "smoke";
  search.backend = EvalBackend::kMixed;
  search.mode = RunMode::kSearch;
  search.budget = 8;
  search.budget_set = true;
  search.threads = 1;
  SweepSession se_session(search);
  const SweepOutcome se_out = se_session.run();

  EXPECT_EQ(results_csv(se_out.front).to_string(),
            results_csv(ex_out.front).to_string());
  EXPECT_LE(se_out.search.evaluated, search.budget);
  EXPECT_GT(se_out.search.rounds.size(), 0u);
}

TEST(Search, WarmStoreReplayAnswersWithoutRunningTheDriver) {
  EvalStore store;
  SweepConfig cfg;
  cfg.space = "paper";
  cfg.mode = RunMode::kSearch;
  cfg.budget = 32;
  cfg.budget_set = true;
  cfg.search_seed = 3;
  cfg.search_seed_set = true;
  cfg.threads = 1;

  SweepSession cold(cfg, &store);
  const SweepOutcome cold_out = cold.run();
  EXPECT_GT(cold_out.fresh_evaluations, 0);
  EXPECT_EQ(cold_out.store_hits, 0);

  SweepSession warm(cfg, &store);
  const SweepOutcome warm_out = warm.run();
  EXPECT_EQ(warm_out.fresh_evaluations, 0);
  EXPECT_EQ(warm_out.store_hits,
            static_cast<index_t>(warm_out.results.size()));
  EXPECT_EQ(warm_out.results.size(), cold_out.results.size());
  EXPECT_EQ(results_csv(warm_out.front).to_string(),
            results_csv(cold_out.front).to_string());

  // A different search seed is a different answer set: it must not be
  // satisfied by the stored one.
  SweepConfig other = cfg;
  other.search_seed = 4;
  SweepSession reseeded(other, &store);
  EXPECT_GT(reseeded.run().fresh_evaluations, 0);
}

TEST(Search, FineSpaceSearchStaysSparse) {
  SweepConfig cfg;
  cfg.space = "fine";
  cfg.mode = RunMode::kSearch;
  cfg.budget = 96;
  cfg.budget_set = true;
  cfg.threads = 1;
  SweepSession session(cfg);
  EXPECT_GE(session.space().size(), index_t{1000000});
  const SweepOutcome out = session.run();
  // A budgeted search touches budget-many points of the million-point
  // space, never a dense vector of it.
  EXPECT_LE(static_cast<i64>(out.results.size()), cfg.budget);
  EXPECT_EQ(out.search.evaluated,
            static_cast<index_t>(out.results.size()));
  EXPECT_GT(out.front.size(), 0u);
}

TEST(SearchSlow, HalvingBudgetQuarterRecoversAdaptiveFrontOnPaperSpace) {
  // The PR's acceptance criterion: a halving search spending at most 25%
  // of the 1248-point space's evaluations on the simulator recovers the
  // exhaustive adaptive mixed sweep's front byte-identically (which the
  // MixedSweep slow suite pins to the pure calibrated-sim front).
  SweepConfig adaptive;
  adaptive.backend = EvalBackend::kMixed;
  adaptive.promote_adaptive = true;
  SweepSession ad_session(adaptive);
  const SweepOutcome ad_out = ad_session.run();

  SweepConfig search;
  search.backend = EvalBackend::kMixed;
  search.mode = RunMode::kSearch;
  search.budget = 312;  // 25% of 1248
  search.budget_set = true;
  SweepSession se_session(search);
  const SweepOutcome se_out = se_session.run();

  EXPECT_EQ(results_csv(se_out.front).to_string(),
            results_csv(ad_out.front).to_string());
  EXPECT_LE(se_out.search.evaluated, 312);

  // One promotion engine: the adaptive sweep and a halving search whose
  // budget covers the whole space climb the same ladder, round for round,
  // on both the core and the energy×latency plane.
  const auto evaluated_per_round = [](const SearchStats& s) {
    std::vector<index_t> v;
    for (const SearchRoundStats& rs : s.rounds) v.push_back(rs.evaluated_new);
    return v;
  };
  for (const char* plane : {"", "energy,latency"}) {
    SweepConfig ad_cfg = adaptive;
    SweepConfig se_cfg = search;
    se_cfg.budget = 1248;
    if (*plane != '\0')
      ad_cfg.objectives = se_cfg.objectives = ObjectiveSet::parse(plane);
    SweepSession ad(ad_cfg);
    const SweepOutcome a_out = ad.run();
    SweepSession se(se_cfg);
    const SweepOutcome s_out = se.run();
    const SearchStats& a = ad.evaluator().promotion_stats();
    const SearchStats& h = s_out.search;
    ASSERT_EQ(a.rounds.size(), h.rounds.size()) << plane;
    for (size_t r = 0; r < a.rounds.size(); ++r) {
      EXPECT_EQ(a.rounds[r].band, h.rounds[r].band) << plane << " round " << r;
      EXPECT_EQ(a.rounds[r].evaluated_new, h.rounds[r].evaluated_new)
          << plane << " round " << r;
      EXPECT_EQ(a.rounds[r].front_size, h.rounds[r].front_size)
          << plane << " round " << r;
      EXPECT_EQ(a.rounds[r].front_changed, h.rounds[r].front_changed)
          << plane << " round " << r;
    }
    EXPECT_EQ(results_csv(s_out.front).to_string(),
              results_csv(a_out.front).to_string())
        << plane;
    const std::vector<index_t> pinned =
        *plane == '\0' ? std::vector<index_t>{50, 446, 213}
                       : std::vector<index_t>{30, 185, 10};
    EXPECT_EQ(evaluated_per_round(a), pinned) << plane;
    EXPECT_EQ(a.evaluated, *plane == '\0' ? 709 : 225) << plane;
  }
}

}  // namespace
}  // namespace apsq::dse
