// The PSUM accuracy proxy and the Evaluator's batch-scoped memo of its
// inputs: exact storage scores 0, more PSUM bits never score worse, the
// memoized proxy equals the free function bit for bit, and the memo holds
// tile streams only while a scoring batch runs.
#include "dse/accuracy_proxy.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/config_space.hpp"
#include "dse/evaluator.hpp"
#include "dse/report.hpp"

namespace apsq::dse {
namespace {

const std::vector<std::string> kWorkloads = {"bert", "llama2", "segformer",
                                             "efficientvit"};
const std::vector<index_t> kPcis = {4, 8, 16, 32};

DesignPoint point(const std::string& wl, const PsumConfig& psum, index_t pci) {
  DesignPoint p;
  p.workload = wl;
  p.dataflow = Dataflow::kWS;
  p.psum = psum;
  p.acc.pci = pci;
  return p;
}

EvaluatorOptions mixed_opt() {
  EvaluatorOptions opt;
  opt.backend = EvalBackend::kMixed;
  opt.sim.shrink = 32;
  opt.sim.max_dim = 32;
  return opt;
}

TEST(AccuracyProxy, FullPrecisionStorageIsExactlyZero) {
  const u64 seed = EvaluatorOptions{}.seed;
  // Exact storage never asks for a tile stream.
  const ProxyInputsFn no_inputs =
      [](const LayerShape&, index_t) -> std::shared_ptr<const ProxyInputs> {
    throw std::logic_error("exact storage drew proxy inputs");
  };
  for (const std::string& wl : kWorkloads) {
    const Workload& w = Evaluator::workload(wl);
    for (index_t pci : kPcis) {
      EXPECT_EQ(psum_error_proxy(w, PsumConfig::baseline_int32(), pci, seed),
                0.0)
          << wl << " pci=" << pci;
      EXPECT_EQ(psum_error_proxy(w, PsumConfig::baseline_int32(), pci,
                                 no_inputs),
                0.0);
    }
  }
}

TEST(AccuracyProxy, ErrorDoesNotGrowWithPsumBitsAtFixedGroupSize) {
  // The calibrated scale is clamped at alpha >= 1 (PSUMs are integers in
  // product scale), so once a layer's range fits the code space the error
  // sits on the integer-grid floor and extra bits stop helping. On that
  // plateau the clip pattern of intermediate sums still moves the error
  // by a fraction of a percent (efficientvit at pci 8: 12 bits scores
  // 0.21% above 8 bits), hence the plateau tolerance.
  constexpr double kPlateau = 0.005;
  const u64 seed = EvaluatorOptions{}.seed;
  const std::vector<int> bits = {4, 6, 8, 12, 16};
  for (const std::string& wl : kWorkloads) {
    const Workload& w = Evaluator::workload(wl);
    // Every config scores against the same inputs: draw each layer once.
    std::map<std::pair<std::string, index_t>,
             std::shared_ptr<const ProxyInputs>>
        drawn;
    const ProxyInputsFn inputs = [&](const LayerShape& l, index_t np) {
      auto& in = drawn[{l.name, np}];
      if (!in)
        in = std::make_shared<const ProxyInputs>(
            make_proxy_inputs(w, l, np, seed));
      return in;
    };
    for (index_t pci : {8, 32}) {  // the paper space's geometries
      // gs 1–4 are APSQ; the last column is prior-work PSQ (gs 1).
      for (index_t gs = 1; gs <= 5; ++gs) {
        const bool apsq = gs <= 4;
        double prev = 0.0;
        for (size_t i = 0; i < bits.size(); ++i) {
          const PsumConfig psum{bits[i], apsq, apsq ? gs : 1};
          const double e = psum_error_proxy(w, psum, pci, inputs);
          const std::string at = wl + " pci=" + std::to_string(pci) +
                                 (apsq ? " apsq gs=" : " psq gs=") +
                                 std::to_string(psum.group_size) + " " +
                                 std::to_string(bits[i]) + "b";
          EXPECT_GT(e, 0.0) << at;
          // Below 8 bits no layer reaches the floor: the error must fall.
          if (i == 1) {
            EXPECT_LT(e, prev) << at;
          } else if (i > 1) {
            EXPECT_LE(e, prev * (1.0 + kPlateau)) << at;
          }
          prev = e;
        }
      }
    }
  }
}

TEST(AccuracyProxy, InputsAreAPureFunctionOfTheirKey) {
  const Workload& w = Evaluator::workload("bert");
  const LayerShape& l = w.layers.front();
  const ProxyInputs a = make_proxy_inputs(w, l, 12, 7);
  const ProxyInputs b = make_proxy_inputs(w, l, 12, 7);
  ASSERT_EQ(a.tiles.size(), 12u);
  EXPECT_EQ(a.exact.storage(), b.exact.storage());
  EXPECT_EQ(a.abs_max, b.abs_max);
  EXPECT_GT(a.abs_max, 0.0);
  // Another seed draws another stream.
  EXPECT_NE(make_proxy_inputs(w, l, 12, 8).exact.storage(),
            a.exact.storage());
}

// The memoized proxy (one batch, four workers sharing each tile stream)
// is bit-identical to the free function for every PSUM config of the
// paper axis, at every pci of the fine space.
class AccuracyProxyMemo : public ::testing::TestWithParam<std::string> {};

TEST_P(AccuracyProxyMemo, EvaluatorValueEqualsFreeFunction) {
  const std::string wl = GetParam();
  std::vector<DesignPoint> pts;
  for (index_t pci : kPcis)
    for (const PsumConfig& psum : ConfigSpace::default_psum_axis())
      pts.push_back(point(wl, psum, pci));
  EvaluatorOptions opt;
  opt.threads = 4;
  Evaluator eval(opt);
  const std::vector<EvalResult> got = eval.evaluate_points(pts);
  EXPECT_GT(eval.proxy_input_cache_stats().misses, 0);
  ASSERT_EQ(got.size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    const double want = psum_error_proxy(Evaluator::workload(wl), pts[i].psum,
                                         pts[i].acc.pci, opt.seed);
    EXPECT_EQ(got[i].obj.error, want) << canonical_key(pts[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, AccuracyProxyMemo,
                         ::testing::ValuesIn(kWorkloads));

TEST(AccuracyProxy, MemoIsEmptyAfterEveryBatch) {
  const ConfigSpace smoke = ConfigSpace::smoke();
  {
    Evaluator eval;
    eval.evaluate_space(smoke);
    EXPECT_GT(eval.proxy_input_cache_stats().misses, 0);
    EXPECT_EQ(eval.proxy_input_entries(), 0);

    // New keys (another pci) in an explicit point list.
    eval.evaluate_points({point("bert", PsumConfig::apsq_int8(2), 16)});
    EXPECT_EQ(eval.proxy_input_entries(), 0);
  }
  {
    // The promotion engine: an analytic batch, then sim rounds.
    Evaluator eval(mixed_opt());
    std::vector<DesignPoint> pts;
    for (index_t i = 0; i < smoke.size(); ++i) pts.push_back(smoke.at(i));
    PromotionRule rule;
    rule.adaptive = true;
    eval.promote(pts, rule);
    EXPECT_GT(eval.proxy_input_cache_stats().misses, 0);
    EXPECT_EQ(eval.proxy_input_entries(), 0);
  }
  {
    // A batch that throws part-way still empties the memo on unwind.
    Evaluator eval;
    const std::vector<DesignPoint> pts = {
        point("bert", PsumConfig::apsq_int8(1), 8),
        point("no-such-workload", PsumConfig::apsq_int8(1), 8)};
    EXPECT_ANY_THROW(eval.evaluate_points(pts));
    EXPECT_GT(eval.proxy_input_cache_stats().misses, 0);
    EXPECT_EQ(eval.proxy_input_entries(), 0);
  }
}

TEST(AccuracyProxy, PointScoredOutsideABatchBypassesTheMemo) {
  Evaluator eval;
  const DesignPoint p = point("bert", PsumConfig::apsq_int8(2), 8);
  const double e = eval.evaluate(p).obj.error;
  EXPECT_EQ(eval.proxy_input_cache_stats().lookups(), 0);
  EXPECT_EQ(eval.proxy_input_entries(), 0);
  EXPECT_EQ(e, psum_error_proxy(Evaluator::workload("bert"), p.psum, 8,
                                eval.options().seed));
}

TEST(AccuracyProxy, SerialPaperSweepDrawsEachInputOnce) {
  // Distinct (workload, layer, ci, np) inputs over the paper space's two
  // pci values (8 and 32): up to four representative layers per workload.
  // LLaMA2 has two accumulation depths, and np caps at 256 for three of
  // its four (layer, pci) pairs, so they share two tile streams.
  const std::vector<std::pair<std::string, i64>> per_workload = {
      {"bert", 8}, {"llama2", 3}, {"segformer", 8}, {"efficientvit", 8}};
  ConfigSpace space = ConfigSpace::paper_default();
  Evaluator eval;
  eval.evaluate_space(space);
  EXPECT_EQ(eval.proxy_input_cache_stats().misses, 27);
  EXPECT_EQ(eval.proxy_input_cache_stats().races, 0);
  // Inputs depend on neither dataflow nor buffers: one of each suffices.
  space.dataflows.resize(1);
  space.buffers.resize(1);
  for (const auto& [wl, inputs] : per_workload) {
    space.workloads = {wl};
    Evaluator one;
    one.evaluate_space(space);
    EXPECT_EQ(one.proxy_input_cache_stats().misses, inputs) << wl;
  }
}

TEST(AccuracyProxy, ParallelCountersReconcileWithLookups) {
  // BERT has four representative layers, so every accuracy compute of a
  // non-exact config makes exactly four input lookups, whoever wins.
  ConfigSpace space = ConfigSpace::paper_default();
  space.workloads = {"bert"};
  // Drop the INT32 baseline, which never draws inputs.
  ASSERT_EQ(space.psum_configs.back().psum_bits, 32);
  space.psum_configs.pop_back();
  EvaluatorOptions opt;
  opt.threads = 4;
  Evaluator par(opt);
  const std::string par_csv = results_csv(par.evaluate_space(space)).to_string();
  const CacheStats acc = par.accuracy_cache_stats();
  const CacheStats in = par.proxy_input_cache_stats();
  EXPECT_EQ(in.hits + in.misses + in.races, 4 * (acc.misses + acc.races));
  EXPECT_EQ(in.misses, 8);  // one batch: each input inserted once
  EXPECT_EQ(par.proxy_input_entries(), 0);

  Evaluator serial;
  EXPECT_EQ(results_csv(serial.evaluate_space(space)).to_string(), par_csv);
}

}  // namespace
}  // namespace apsq::dse
