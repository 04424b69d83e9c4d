#include "nn/batch_eval.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "util/checked.hpp"
#include "util/error.hpp"

namespace fannet::nn {

using util::i128;
using util::i64;
using util::u64;
using u128 = unsigned __int128;

// x86 has no vector 64-bit multiply below AVX-512DQ, so at the baseline ISA
// the auto-vectorized u64 MAC barely beats the scalar i128 chain (GCC
// synthesizes each 64x64 product from 32-bit multiplies).  Multi-version
// the SoA kernels: the binary stays baseline-portable, and the dynamic
// loader picks the AVX2 / AVX-512 clone on hardware that has it (~2x MAC
// throughput measured).  Clones change scheduling only, never values —
// results stay bit-identical.  Disabled under sanitizers (ifunc resolvers
// run before their runtimes initialize).
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_ADDRESS__) &&        \
    !defined(__SANITIZE_THREAD__)
#define FANNET_TARGET_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define FANNET_TARGET_CLONES
#endif

namespace {

constexpr i128 kI64Max = std::numeric_limits<i64>::max();
constexpr i128 kI64Min = std::numeric_limits<i64>::min();
constexpr u128 kU128Max = ~static_cast<u128>(0);

[[nodiscard]] u64 abs_u64(i64 v) noexcept {
  // Two's-complement magnitude; correct for INT64_MIN where -v overflows.
  return v < 0 ? static_cast<u64>(0) - static_cast<u64>(v)
               : static_cast<u64>(v);
}

[[nodiscard]] u128 sat_add_u128(u128 a, u128 b) noexcept {
  return (kU128Max - a < b) ? kU128Max : a + b;
}

/// Largest |i64 interpretation| over an SoA buffer (flagged lanes hold 0,
/// so they never loosen the bound for the live lanes).
[[nodiscard]] u64 max_abs_i64(const u64* values, std::size_t count) noexcept {
  u64 best = 0;
  for (std::size_t k = 0; k < count; ++k) {
    best = std::max(best, abs_u64(static_cast<i64>(values[k])));
  }
  return best;
}

/// Zeroes every flagged lane across all `out` neuron rows, so a flagged
/// lane stays inert: it contributes nothing to later layers' overflow
/// prechecks and can never be re-flagged for a different reason.
void scrub_flagged(u64* next, std::size_t out, std::size_t lanes,
                   const std::uint8_t* overflow) {
  for (std::size_t t = 0; t < lanes; ++t) {
    if (!overflow[t]) continue;
    for (std::size_t j = 0; j < out; ++j) next[j * lanes + t] = 0;
  }
}

/// One SoA layer step: next[j][t] = b_j * bm_t + Σ_i w_ji * act[i][t].
///
/// The conservative bound |b_j|*max|bm| + (Σ_i |w_ji|)*max|act| is checked
/// per neuron first (saturating u128, so it can only over-estimate).  When
/// every bound fits int64 the whole layer runs as the wrap-free uint64
/// kernel — modular arithmetic equals the true i128 sum mod 2^64, exact
/// because the bound proved the true sum fits.  Otherwise the layer falls
/// back to the scalar i128 algebra per lane and flags lanes whose
/// narrowing would make the scalar path throw.
///
/// `bm_lanes` non-null = per-lane bias multiplier (layer 0); else
/// `bm_scalar` applies to every lane.
FANNET_TARGET_CLONES
void soa_layer_forward(const QLayer& l, std::size_t lanes, const u64* act,
                       u64* next, const i64* bm_lanes, i64 bm_scalar,
                       std::span<const u64> abs_rowsum, std::uint8_t* overflow,
                       bool& any_flagged) {
  const std::size_t out = l.out_dim();
  const std::size_t in = l.in_dim();

  u64 bm_max = 0;
  if (bm_lanes != nullptr) {
    for (std::size_t t = 0; t < lanes; ++t) {
      bm_max = std::max(bm_max, abs_u64(bm_lanes[t]));
    }
  } else {
    bm_max = abs_u64(bm_scalar);
  }
  const u64 act_max = max_abs_i64(act, in * lanes);

  bool fast = true;
  for (std::size_t j = 0; j < out; ++j) {
    const u128 bound =
        sat_add_u128(static_cast<u128>(abs_u64(l.bias[j])) * bm_max,
                     static_cast<u128>(abs_rowsum[j]) * act_max);
    if (bound > static_cast<u128>(kI64Max)) {
      fast = false;
      break;
    }
  }

  if (fast) {
    for (std::size_t j = 0; j < out; ++j) {
      u64* __restrict nx = next + j * lanes;
      if (bm_lanes != nullptr) {
        const u64 b = static_cast<u64>(l.bias[j]);
        for (std::size_t t = 0; t < lanes; ++t) {
          nx[t] = b * static_cast<u64>(bm_lanes[t]);
        }
      } else {
        const u64 base =
            static_cast<u64>(l.bias[j]) * static_cast<u64>(bm_scalar);
        for (std::size_t t = 0; t < lanes; ++t) nx[t] = base;
      }
      const auto wrow = l.weights.row(j);
      for (std::size_t i = 0; i < in; ++i) {
        const u64 w = static_cast<u64>(wrow[i]);
        const u64* __restrict a = act + i * lanes;
        // The batched MAC: stride-1 over the sample lanes, the loop the
        // FANNET_VERIFY_VECTORIZE CI gate proves auto-vectorizes.
        for (std::size_t t = 0; t < lanes; ++t) nx[t] += w * a[t];
      }
    }
  } else {
    for (std::size_t j = 0; j < out; ++j) {
      u64* nx = next + j * lanes;
      const auto wrow = l.weights.row(j);
      for (std::size_t t = 0; t < lanes; ++t) {
        if (overflow[t]) {
          nx[t] = 0;
          continue;
        }
        const i64 bm = (bm_lanes != nullptr) ? bm_lanes[t] : bm_scalar;
        i128 acc = static_cast<i128>(l.bias[j]) * bm;
        for (std::size_t i = 0; i < in; ++i) {
          acc += static_cast<i128>(wrow[i]) *
                 static_cast<i64>(act[i * lanes + t]);
        }
        if (acc > kI64Max || acc < kI64Min) {
          overflow[t] = 1;
          any_flagged = true;
          nx[t] = 0;
        } else {
          nx[t] = static_cast<u64>(static_cast<i64>(acc));
        }
      }
    }
  }

  if (any_flagged) scrub_flagged(next, out, lanes, overflow);
}

/// ReLU over an SoA buffer, on the int64 interpretation of the lanes.
FANNET_TARGET_CLONES
void soa_relu(u64* values, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    if (static_cast<i64>(values[k]) < 0) values[k] = 0;
  }
}

/// Per-lane argmax with ties to the lower index — the argmax_tie_low_i64
/// rule applied across an SoA output block.
FANNET_TARGET_CLONES
void soa_argmax(const u64* outputs, std::size_t out, std::size_t lanes,
                std::vector<i64>& best, std::vector<int>& labels) {
  best.resize(lanes);
  labels.assign(lanes, 0);
  for (std::size_t t = 0; t < lanes; ++t) {
    best[t] = static_cast<i64>(outputs[t]);
  }
  for (std::size_t j = 1; j < out; ++j) {
    const u64* row = outputs + j * lanes;
    for (std::size_t t = 0; t < lanes; ++t) {
      const i64 v = static_cast<i64>(row[t]);
      if (v > best[t]) {
        best[t] = v;
        labels[t] = static_cast<int>(j);
      }
    }
  }
}

}  // namespace

BatchEvaluator::BatchEvaluator(const QuantizedNetwork& net) : net_(&net) {
  const std::size_t depth = net.depth();
  bias_mult_.reserve(depth);
  abs_rowsum_.reserve(depth);

  // Mirror the scalar act_scale chain: input_norm * 100, then * 10^4
  // checked after every layer INCLUDING the last (eval_all updates the
  // scale even when no further layer consumes it).  Any overflow means the
  // scalar path throws for every input; record it instead of throwing.
  i128 scale = static_cast<i128>(net.input_norm()) * kNoiseDen;
  if (scale > kI64Max) scale_chain_overflow_ = true;
  for (std::size_t li = 0; li < depth && !scale_chain_overflow_; ++li) {
    bias_mult_.push_back(static_cast<i64>(scale));
    scale *= util::Fixed::kScale;
    if (scale > kI64Max) scale_chain_overflow_ = true;
  }

  for (const QLayer& l : net.layers()) {
    std::vector<u64> rowsum(l.out_dim());
    for (std::size_t j = 0; j < l.out_dim(); ++j) {
      const auto wrow = l.weights.row(j);
      u128 sum = 0;
      for (std::size_t i = 0; i < l.in_dim(); ++i) {
        sum = sat_add_u128(sum, abs_u64(wrow[i]));
      }
      rowsum[j] = (sum > static_cast<u128>(~static_cast<u64>(0)))
                      ? ~static_cast<u64>(0)
                      : static_cast<u64>(sum);
    }
    abs_rowsum_.push_back(std::move(rowsum));
  }
}

BatchEvaluator::Batch BatchEvaluator::make_batch() const {
  Batch b;
  b.in_dim_ = net_->input_dim();    // throws InvalidArgument for empty nets,
  b.out_dim_ = net_->output_dim();  // like every scalar evaluation would
  return b;
}

void BatchEvaluator::Batch::push_noised(std::span<const i64> x,
                                        std::span<const int> deltas,
                                        i64 bias_factor) {
  if (x.size() != in_dim_) {
    throw InvalidArgument("BatchEvaluator: input dim mismatch");
  }
  if (!deltas.empty() && deltas.size() != x.size()) {
    throw InvalidArgument("BatchEvaluator: deltas size " +
                          std::to_string(deltas.size()) +
                          " does not match inputs size " +
                          std::to_string(x.size()));
  }
  const std::size_t t = lanes_++;
  x_.resize(lanes_ * in_dim_);
  bias_factor_.resize(lanes_);
  overflow_.resize(lanes_);
  i64* lane = x_.data() + t * in_dim_;
  bias_factor_[t] = bias_factor;
  overflow_[t] = 0;
  for (std::size_t i = 0; i < in_dim_; ++i) {
    const i64 factor = kNoiseDen + (deltas.empty() ? 0 : deltas[i]);
    const i128 scaled = static_cast<i128>(x[i]) * factor;
    if (scaled > kI64Max || scaled < kI64Min) {
      // The scalar noised_inputs would throw here; flag the lane and zero
      // it so it stays inert through every layer.
      overflow_[t] = 1;
      std::fill(lane, lane + in_dim_, 0);
      return;
    }
    lane[i] = static_cast<i64>(scaled);
  }
}

void BatchEvaluator::Batch::push_scaled(std::span<const i64> X,
                                        i64 bias_factor) {
  if (X.size() != in_dim_) {
    throw InvalidArgument("BatchEvaluator: input dim mismatch");
  }
  const std::size_t t = lanes_++;
  x_.resize(lanes_ * in_dim_);
  bias_factor_.resize(lanes_);
  overflow_.resize(lanes_);
  std::copy(X.begin(), X.end(), x_.data() + t * in_dim_);
  bias_factor_[t] = bias_factor;
  overflow_[t] = 0;
}

void BatchEvaluator::run(Batch& batch) const {
  const std::size_t lanes = batch.lanes_;
  const std::size_t in = batch.in_dim_;
  const std::size_t out = batch.out_dim_;
  batch.outputs_.assign(lanes * out, 0);
  batch.labels_.assign(lanes, 0);
  if (lanes == 0) return;

  if (scale_chain_overflow_) {
    std::fill(batch.overflow_.begin(), batch.overflow_.end(), 1);
    return;
  }

  // Per-lane layer-0 bias multiplier: input_norm * bias_factor, with the
  // scalar checked_mul's overflow mapped to the lane flag.
  batch.bm0_.assign(lanes, 0);
  bool any_flagged = false;
  for (std::size_t t = 0; t < lanes; ++t) {
    if (batch.overflow_[t]) {
      any_flagged = true;
      continue;
    }
    const i128 bm = static_cast<i128>(net_->input_norm()) *
                    batch.bias_factor_[t];
    if (bm > kI64Max || bm < kI64Min) {
      batch.overflow_[t] = 1;
      any_flagged = true;
      std::fill_n(batch.x_.data() + t * in, in, 0);
    } else {
      batch.bm0_[t] = static_cast<i64>(bm);
    }
  }

  // Transpose the lane-major staging into the SoA activation buffer.
  batch.act_.resize(in * lanes);
  for (std::size_t t = 0; t < lanes; ++t) {
    const i64* lane = batch.x_.data() + t * in;
    for (std::size_t i = 0; i < in; ++i) {
      batch.act_[i * lanes + t] = static_cast<u64>(lane[i]);
    }
  }

  const auto& layers = net_->layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const QLayer& l = layers[li];
    batch.next_.resize(l.out_dim() * lanes);
    soa_layer_forward(l, lanes, batch.act_.data(), batch.next_.data(),
                      li == 0 ? batch.bm0_.data() : nullptr,
                      li == 0 ? 0 : bias_mult_[li], abs_rowsum_[li],
                      batch.overflow_.data(), any_flagged);
    if (li + 1 < layers.size() && l.relu) {
      soa_relu(batch.next_.data(), l.out_dim() * lanes);
    }
    std::swap(batch.act_, batch.next_);
  }

  for (std::size_t t = 0; t < lanes; ++t) {
    for (std::size_t j = 0; j < out; ++j) {
      batch.outputs_[t * out + j] = static_cast<i64>(batch.act_[j * lanes + t]);
    }
  }
  soa_argmax(batch.act_.data(), out, lanes, batch.best_, batch.labels_);
}

}  // namespace fannet::nn
