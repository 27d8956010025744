// Kernel rows and the per-layer metric table.
//
// The kernels are timed through their public functions on the shapes the
// accuracy proxy really uses: stacks of 16×16 PSUM tiles drawn from
// Rng::normal(0, 8), accumulated by accumulate_psums in each PsumMode.
// (The simulator's per-MAC cost comes from the replayed run_workload
// calls of the search workload: sim.ns_per_mac.)
#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "quant/apsq.hpp"
#include "tensor/tensor.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace apsq;

const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> kTable = [] {
    std::vector<LayerMetric> t = {
        {"quant.accumulate_psums.exact.ns_per_elem", "ns"},
        {"quant.accumulate_psums.psq.ns_per_elem", "ns"},
        {"quant.accumulate_psums.apsq.ns_per_elem", "ns"},
        {"common.rng.normal.ns_per_draw", "ns"},
        {"dse.accuracy_proxy.calls", "count"},
        {"dse.accuracy_proxy.cpu_ms", "ms"},
        {"dse.accuracy_proxy.share", "ratio"},
        {"energy.workload_energy.calls", "count"},
        {"energy.workload_energy.cpu_ms", "ms"},
        {"sim.performance.calls", "count"},
        {"sim.performance.cpu_ms", "ms"},
        {"rae.area.calls", "count"},
        {"rae.area.cpu_ms", "ms"},
        {"sim.run_workload.calls", "count"},
        {"sim.run_workload.cpu_ms", "ms"},
        {"sim.macs", "count"},
        {"sim.ns_per_mac", "ns"},
        {"dse.calibrate.families", "count"},
        {"dse.calibrate.fit_cpu_ms", "ms"},
        {"dse.search.explored", "count"},
        {"dse.search.evaluated", "count"},
        {"dse.search.rounds", "count"},
        {"dse.search.explore_ms", "ms"},
        {"dse.search.promote_ms", "ms"},
        {"dse.pareto.margins_ms", "ms"},
        {"dse.config_space.decode_ns", "ns"},
        {"dse.pareto.front_ms", "ms"},
    };
    for (const char* tt : {"score", "accuracy", "area", "energy", "latency", "sim"})
      for (const char* field : {"hits", "misses", "races"})
        t.push_back({std::string("dse.evaluator.") + tt + "_tt." + field, "count"});
    const std::vector<LayerMetric> rest = {
        {"dse.evaluator.op_cpu_ms", "ms"},
        {"dse.evaluator.unattributed_cpu_ms", "ms"},
        {"common.thread_pool.runs", "count"},
        {"common.thread_pool.steals", "count"},
        {"common.thread_pool.parallel_efficiency", "ratio"},
        {"dse.store.load_ms", "ms"},
        {"dse.store.bytes", "bytes"},
        {"dse.store.find_ms", "ms"},
        {"dse.store.merge_rows_ms", "ms"},
        {"dse.store.save_ms", "ms"},
        {"dse.store.rows_read", "count"},
        {"dse.store.rows_written", "count"},
        {"common.json.parse_ms", "ms"},
        {"common.json.request_parse_us", "us"},
        {"serve.dispatcher.query_ms_p50", "ms"},
        {"serve.dispatcher.store_hits", "count"},
        {"serve.dispatcher.fresh_evaluations", "count"},
        {"serve.dispatcher.coalesced", "count"},
        {"serve.dispatcher.eval_batches", "count"},
        {"serve.dispatcher.coalesce_ratio", "ratio"},
        {"serve.protocol.handle_ms_p50", "ms"},
        {"serve.server.transport_ms_p50", "ms"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return kTable;
}

void zero_per_layer(Report& r) {
  for (const LayerMetric& m : per_layer_metrics()) r.metric(m.name, 0.0, m.unit);
}

namespace {

// The proxy's tile geometry (dse/accuracy_proxy.cpp): 16×16 tiles, one
// per ci/pci step. 96 tiles is BERT's ci = 768 at pci = 8.
constexpr index_t kTileRows = 16;
constexpr index_t kTileCols = 16;
constexpr index_t kTiles = 96;

std::vector<TensorF> tile_stack(Rng& rng) {
  std::vector<TensorF> tiles;
  tiles.reserve(kTiles);
  for (index_t t = 0; t < kTiles; ++t) {
    TensorF tile({kTileRows, kTileCols});
    for (index_t e = 0; e < tile.numel(); ++e)
      tile[e] = static_cast<float>(rng.normal(0.0, 8.0));
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

/// Median over 7 repetitions of the thread-CPU ns per unit of `fn`, each
/// repetition looping fn until it has run for at least 20 ms.
template <typename Fn>
double ns_per_unit(double units_per_call, Fn&& fn) {
  std::vector<double> reps;
  for (int rep = 0; rep < 7; ++rep) {
    int calls = 0;
    const double t0 = thread_cpu_ms();
    double t1 = t0;
    while (t1 - t0 < 20.0) {
      fn();
      ++calls;
      t1 = thread_cpu_ms();
    }
    reps.push_back((t1 - t0) * 1e6 / (calls * units_per_call));
  }
  return median(reps);
}

}  // namespace

void kernel_rows(Report& r) {
  Rng rng = Rng::stream(0x5EED, 7);
  const std::vector<TensorF> tiles = tile_stack(rng);
  const double elems = static_cast<double>(kTiles * kTileRows * kTileCols);
  double sink = 0.0;

  // The proxy's low-bit storage: 8-bit PSUMs, a power-of-two scale from
  // the exact result's range, APSQ at group size 2.
  const TensorF exact = accumulate_psums(tiles, PsumMode::kExact, QuantSpec::int8(), {1.0});
  double max_abs = 0.0;
  for (index_t e = 0; e < exact.numel(); ++e)
    max_abs = std::max(max_abs, std::fabs(static_cast<double>(exact[e])));
  const QuantSpec spec{8, true};
  const double alpha = std::exp2(std::ceil(std::log2(std::max(max_abs, 1.0) / 127.0)));

  r.metric("quant.accumulate_psums.exact.ns_per_elem", ns_per_unit(elems, [&] {
             sink += accumulate_psums(tiles, PsumMode::kExact, QuantSpec::int8(), {1.0})[0];
           }), "ns");
  r.metric("quant.accumulate_psums.psq.ns_per_elem", ns_per_unit(elems, [&] {
             sink += accumulate_psums(tiles, PsumMode::kPsq, spec, {alpha})[0];
           }), "ns");
  r.metric("quant.accumulate_psums.apsq.ns_per_elem", ns_per_unit(elems, [&] {
             sink += accumulate_psums(tiles, PsumMode::kApsq, spec, {alpha}, 2)[0];
           }), "ns");
  r.metric("common.rng.normal.ns_per_draw", ns_per_unit(elems, [&] {
             for (index_t e = 0; e < kTiles * kTileRows * kTileCols; ++e)
               sink += rng.normal(0.0, 8.0);
           }), "ns");
  r.info["kernel.sink_finite"] = std::isfinite(sink) ? "1" : "0";
}

}  // namespace perfbench
