// Quantization-error accuracy proxy for the DSE engine.
//
// Training the QAT proxies (bench_accuracy.hpp) per design point is hours
// of work per sweep; the DSE objective instead scores a PSUM config by the
// relative mean-squared reconstruction error of tile-based accumulation —
// the same signal Fig. 5 shows tracking task accuracy: error grows as
// PSUM bits shrink and falls as the APSQ group size grows. Synthetic PSUM
// tile streams are drawn per (workload, layer) from Rng::stream, so the
// proxy is a pure function of (workload, psum, pci, seed) — evaluation
// order and thread count never change it.
//
// The work splits in two. make_proxy_inputs draws one layer's tile stream
// and its exact accumulation; they depend only on (seed, workload, layer,
// np), never on the PSUM config, and dominate the proxy's cost.
// proxy_relative_mse scores one PsumConfig against those inputs
// (calibrating alpha and running the PSQ/APSQ accumulation). A caller
// scoring many configs — the Evaluator's sweep batches — draws each
// layer's inputs once and hands them out through a ProxyInputsFn.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "energy/layer_shape.hpp"
#include "energy/psum_config.hpp"
#include "tensor/tensor.hpp"

namespace apsq::dse {

/// The PSUM-config-independent half of one layer's proxy. Immutable once
/// built, so one instance may be shared by concurrent scorers.
struct ProxyInputs {
  std::vector<TensorF> tiles;  ///< np 16×16 PSUM tiles, N(0, 8) entries
  TensorF exact;               ///< their full-precision accumulation
  double abs_max = 0.0;        ///< max |exact|, the alpha calibration range
};

/// Draw `layer`'s synthetic tile stream of `np` tiles for workload `w`
/// and accumulate it exactly. A pure function of (seed, w.name, layer
/// name, layer ci, np).
ProxyInputs make_proxy_inputs(const Workload& w, const LayerShape& layer,
                              index_t np, u64 seed);

/// Relative MSE of `psum`'s PSQ/APSQ accumulation of `in.tiles` versus
/// `in.exact`, with a power-of-two scale calibrated on `in.abs_max`.
double proxy_relative_mse(const ProxyInputs& in, const PsumConfig& psum);

/// Supplies the inputs of one representative layer at tile count np.
using ProxyInputsFn = std::function<std::shared_ptr<const ProxyInputs>(
    const LayerShape& layer, index_t np)>;

/// Relative MSE of the accumulated output versus exact accumulation,
/// averaged over up to four representative layers (largest-MAC layers
/// with distinct accumulation depths). `pci` sets the tile count
/// np = ceil(ci / pci), matching the hardware's ci-dimension tiling.
/// Full-precision configs (>= 32-bit storage, no APSQ) return exactly 0
/// without asking for inputs. `inputs` must return what make_proxy_inputs
/// would for the proxy's seed; a memo that does keeps the result
/// bit-identical to the seeded overload.
double psum_error_proxy(const Workload& w, const PsumConfig& psum,
                        index_t pci, const ProxyInputsFn& inputs);

/// The same, drawing every layer's inputs afresh from `seed`.
double psum_error_proxy(const Workload& w, const PsumConfig& psum,
                        index_t pci, u64 seed);

}  // namespace apsq::dse
