#include "dse/accuracy_proxy.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "quant/apsq.hpp"
#include "quant/psum_calib.hpp"

namespace apsq::dse {

namespace {

// Proxy tile geometry: small enough to keep a full sweep cheap, large
// enough that the relative-MSE estimate is stable to ~1%.
constexpr index_t kTileRows = 16;
constexpr index_t kTileCols = 16;
constexpr index_t kMaxTiles = 256;   // caps np for very deep accumulations
constexpr index_t kMaxLayers = 4;

// FNV-1a, so stream indices are stable across standard libraries
// (std::hash makes no such promise).
u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Representative layers: largest-MAC first, distinct accumulation depths
/// (ci), deterministic tie-break on layer order.
std::vector<const LayerShape*> representative_layers(const Workload& w) {
  std::vector<size_t> order(w.layers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return w.layers[a].macs() > w.layers[b].macs();
  });
  std::vector<const LayerShape*> picked;
  std::vector<index_t> seen_ci;
  for (size_t i : order) {
    const LayerShape& l = w.layers[i];
    if (std::find(seen_ci.begin(), seen_ci.end(), l.ci) != seen_ci.end())
      continue;
    picked.push_back(&l);
    seen_ci.push_back(l.ci);
    if (static_cast<index_t>(picked.size()) == kMaxLayers) break;
  }
  return picked;
}

/// np = ceil(ci / pci), clamped to [1, kMaxTiles].
index_t proxy_tile_count(const LayerShape& layer, index_t pci) {
  return std::min<index_t>(kMaxTiles,
                           std::max<index_t>(1, (layer.ci + pci - 1) / pci));
}

}  // namespace

ProxyInputs make_proxy_inputs(const Workload& w, const LayerShape& layer,
                              index_t np, u64 seed) {
  APSQ_CHECK(np > 0);
  Rng rng = Rng::stream(seed, fnv1a(w.name + "/" + layer.name) ^
                                  static_cast<u64>(layer.ci));
  ProxyInputs in;
  in.tiles.reserve(static_cast<size_t>(np));
  for (index_t t = 0; t < np; ++t) {
    TensorF tile({kTileRows, kTileCols});
    for (index_t e = 0; e < tile.numel(); ++e)
      tile[e] = static_cast<float>(rng.normal(0.0, 8.0));
    in.tiles.push_back(std::move(tile));
  }
  in.exact =
      accumulate_psums(in.tiles, PsumMode::kExact, QuantSpec::int8(), {1.0});
  for (index_t e = 0; e < in.exact.numel(); ++e)
    in.abs_max =
        std::max(in.abs_max, std::fabs(static_cast<double>(in.exact[e])));
  return in;
}

double proxy_relative_mse(const ProxyInputs& in, const PsumConfig& psum) {
  // Power-of-two scale calibrated on the final accumulated range, exactly
  // as QuantDense does for the QAT path (see quant_dense.cpp).
  const QuantSpec spec{psum.psum_bits, true};
  PsumScaleCalibrator calib(spec, 0.0);
  calib.observe_abs_max(in.abs_max);
  const double alpha = std::exp2(calib.exponent());

  const PsumMode mode = psum.apsq ? PsumMode::kApsq : PsumMode::kPsq;
  const TensorF approx =
      accumulate_psums(in.tiles, mode, spec, {alpha}, psum.group_size);

  const TensorF& exact = in.exact;
  double num = 0.0, den = 0.0;
  for (index_t e = 0; e < exact.numel(); ++e) {
    const double d = static_cast<double>(approx[e]) - static_cast<double>(exact[e]);
    num += d * d;
    den += static_cast<double>(exact[e]) * static_cast<double>(exact[e]);
  }
  return den > 0.0 ? num / den : 0.0;
}

double psum_error_proxy(const Workload& w, const PsumConfig& psum,
                        index_t pci, const ProxyInputsFn& inputs) {
  APSQ_CHECK(pci > 0);
  psum.validate();
  if (!psum.apsq && psum.psum_bits >= 32) return 0.0;  // exact storage

  const std::vector<const LayerShape*> layers = representative_layers(w);
  APSQ_CHECK_MSG(!layers.empty(), "workload has no layers");
  double sum = 0.0;
  for (const LayerShape* l : layers)
    sum += proxy_relative_mse(*inputs(*l, proxy_tile_count(*l, pci)), psum);
  return sum / static_cast<double>(layers.size());
}

double psum_error_proxy(const Workload& w, const PsumConfig& psum,
                        index_t pci, u64 seed) {
  return psum_error_proxy(w, psum, pci, [&](const LayerShape& l, index_t np) {
    return std::make_shared<const ProxyInputs>(
        make_proxy_inputs(w, l, np, seed));
  });
}

}  // namespace apsq::dse
