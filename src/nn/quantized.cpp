#include "nn/quantized.hpp"

#include <string>

#include "util/checked.hpp"
#include "util/error.hpp"

namespace fannet::nn {

using util::i128;
using util::i64;

void QuantizedNetwork::copy_fingerprint_from(
    const QuantizedNetwork& other) noexcept {
  // Read the flag FIRST (acquire): only a flag observed true guarantees the
  // paired value store is visible.  Reading the value first could pair a
  // stale value with a flag published by a concurrent fingerprint() call.
  if (other.fp_valid_.load(std::memory_order_acquire)) {
    fp_value_.store(other.fp_value_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    fp_valid_.store(true, std::memory_order_release);
  } else {
    fp_valid_.store(false, std::memory_order_release);
  }
}

QuantizedNetwork::QuantizedNetwork(const QuantizedNetwork& other)
    : layers_(other.layers_), input_norm_(other.input_norm_) {
  copy_fingerprint_from(other);
}

QuantizedNetwork& QuantizedNetwork::operator=(const QuantizedNetwork& other) {
  if (this != &other) {
    layers_ = other.layers_;
    input_norm_ = other.input_norm_;
    copy_fingerprint_from(other);
  }
  return *this;
}

QuantizedNetwork::QuantizedNetwork(QuantizedNetwork&& other) noexcept
    : layers_(std::move(other.layers_)), input_norm_(other.input_norm_) {
  copy_fingerprint_from(other);
}

QuantizedNetwork& QuantizedNetwork::operator=(
    QuantizedNetwork&& other) noexcept {
  if (this != &other) {
    layers_ = std::move(other.layers_);
    input_norm_ = other.input_norm_;
    copy_fingerprint_from(other);
  }
  return *this;
}

QuantizedNetwork QuantizedNetwork::quantize(const Network& net,
                                            i64 input_norm) {
  if (input_norm <= 0) {
    throw InvalidArgument("QuantizedNetwork::quantize: input_norm must be > 0");
  }
  QuantizedNetwork q;
  q.input_norm_ = input_norm;
  q.layers_.reserve(net.depth());
  for (const Layer& l : net.layers()) {
    QLayer ql;
    ql.relu = (l.activation == Activation::kReLU);
    ql.weights = la::Matrix<i64>(l.out_dim(), l.in_dim());
    for (std::size_t r = 0; r < l.out_dim(); ++r) {
      for (std::size_t c = 0; c < l.in_dim(); ++c) {
        ql.weights(r, c) = util::Fixed::from_double(l.weights(r, c)).raw();
      }
    }
    ql.bias.reserve(l.out_dim());
    // fannet-lint: allow(float-in-exact) quantize() is the float->fixed boundary
    for (double b : l.bias) {
      ql.bias.push_back(util::Fixed::from_double(b).raw());
    }
    q.layers_.push_back(std::move(ql));
  }
  return q;
}

std::size_t QuantizedNetwork::input_dim() const {
  if (layers_.empty()) throw InvalidArgument("QuantizedNetwork: empty");
  return layers_.front().in_dim();
}

std::size_t QuantizedNetwork::output_dim() const {
  if (layers_.empty()) throw InvalidArgument("QuantizedNetwork: empty");
  return layers_.back().out_dim();
}

i128 QuantizedNetwork::scale_at(std::size_t index) const {
  if (index > layers_.size()) {
    throw InvalidArgument("QuantizedNetwork::scale_at: index out of range");
  }
  i128 scale = static_cast<i128>(input_norm_) * kNoiseDen;
  for (std::size_t i = 0; i < index; ++i) scale *= util::Fixed::kScale;
  return scale;
}

std::vector<i64> QuantizedNetwork::noised_inputs(std::span<const i64> x,
                                                 std::span<const int> deltas) {
  if (!deltas.empty() && deltas.size() != x.size()) {
    throw InvalidArgument("noised_inputs: deltas size " +
                          std::to_string(deltas.size()) +
                          " does not match inputs size " +
                          std::to_string(x.size()) +
                          " (deltas must be empty or one entry per input)");
  }
  std::vector<i64> X(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const i64 factor = kNoiseDen + (deltas.empty() ? 0 : deltas[i]);
    X[i] = util::checked_mul(x[i], factor);
  }
  return X;
}

std::vector<std::vector<i64>> QuantizedNetwork::eval_all(
    std::span<const i64> X, i64 bias_factor) const {
  if (layers_.empty()) throw InvalidArgument("QuantizedNetwork: empty");
  if (X.size() != input_dim()) {
    throw InvalidArgument("QuantizedNetwork::eval_all: input dim mismatch");
  }
  std::vector<std::vector<i64>> pre;
  pre.reserve(layers_.size());

  std::vector<i64> act(X.begin(), X.end());
  // Scale of the *activations* entering the current layer, as an i64-safe
  // value.  R_0 = input_norm * 100; each layer multiplies it by S.
  i64 act_scale = util::checked_mul(input_norm_, kNoiseDen);

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const QLayer& l = layers_[li];
    std::vector<i64> z(l.out_dim());
    // Bias contribution at this layer's scale.  For the first layer the
    // bias input node may carry noise: term = Bq * input_norm * bias_factor.
    const i64 bias_mult =
        (li == 0) ? util::checked_mul(input_norm_, bias_factor) : act_scale;
    for (std::size_t j = 0; j < l.out_dim(); ++j) {
      i128 acc = static_cast<i128>(l.bias[j]) * bias_mult;
      const auto row = l.weights.row(j);
      for (std::size_t i = 0; i < l.in_dim(); ++i) {
        acc += static_cast<i128>(row[i]) * act[i];
      }
      z[j] = util::narrow_i128(acc);
    }
    pre.push_back(z);
    if (l.relu) {
      for (auto& v : z) v = std::max<i64>(0, v);
    }
    act = std::move(z);
    act_scale = util::checked_mul(act_scale, util::Fixed::kScale);
  }
  return pre;
}

std::vector<i64> QuantizedNetwork::eval_output(std::span<const i64> X,
                                               i64 bias_factor) const {
  return eval_all(X, bias_factor).back();
}

int QuantizedNetwork::classify(std::span<const i64> X,
                               i64 bias_factor) const {
  const std::vector<i64> out = eval_output(X, bias_factor);
  return argmax_tie_low_i64(out);
}

int QuantizedNetwork::classify_noised(std::span<const i64> x,
                                      std::span<const int> deltas,
                                      int bias_delta) const {
  const std::vector<i64> X = noised_inputs(x, deltas);
  return classify(X, kNoiseDen + bias_delta);
}

Network QuantizedNetwork::dequantize() const {
  std::vector<Layer> layers;
  layers.reserve(layers_.size());
  // fannet-lint: allow(float-in-exact) dequantize() is the fixed->float boundary
  const double s = static_cast<double>(util::Fixed::kScale);
  for (const QLayer& ql : layers_) {
    Layer l;
    l.activation = ql.relu ? Activation::kReLU : Activation::kLinear;
    l.weights = la::MatrixD(ql.out_dim(), ql.in_dim());
    for (std::size_t r = 0; r < ql.out_dim(); ++r) {
      for (std::size_t c = 0; c < ql.in_dim(); ++c) {
        // fannet-lint: allow(float-in-exact) boundary conversion, not math
        l.weights(r, c) = static_cast<double>(ql.weights(r, c)) / s;
      }
    }
    l.bias.reserve(ql.out_dim());
    // fannet-lint: allow(float-in-exact) boundary conversion, not math
    for (i64 b : ql.bias) l.bias.push_back(static_cast<double>(b) / s);
    layers.push_back(std::move(l));
  }
  return Network(std::move(layers));
}

i64& QuantizedNetwork::param_slot(std::size_t layer, std::size_t row,
                                  std::size_t col) {
  if (layer >= layers_.size()) {
    throw InvalidArgument("QuantizedNetwork: layer out of range");
  }
  QLayer& l = layers_[layer];
  if (row >= l.out_dim() || col > l.in_dim()) {
    throw InvalidArgument("QuantizedNetwork: parameter index out of range");
  }
  // The caller writes through the returned slot, so the memoized
  // fingerprint is stale the moment this hands out mutable access.
  invalidate_fingerprint();
  return (col == l.in_dim()) ? l.bias[row] : l.weights(row, col);
}

i64 QuantizedNetwork::param_raw(std::size_t layer, std::size_t row,
                                std::size_t col) const {
  return const_cast<QuantizedNetwork*>(this)->param_slot(layer, row, col);
}

QuantizedNetwork QuantizedNetwork::with_param(std::size_t layer,
                                              std::size_t row, std::size_t col,
                                              i64 raw) const {
  QuantizedNetwork copy = *this;
  copy.param_slot(layer, row, col) = raw;
  return copy;
}

i64 scaled_param_raw(i64 raw, i64 percent) {
  const i128 scaled = static_cast<i128>(raw) * (100 + percent);
  // Round half away from zero back onto the fixed-point grid.
  const i128 adjust = (scaled >= 0) ? 50 : -50;
  return util::narrow_i128((scaled + adjust) / 100);
}

QuantizedNetwork QuantizedNetwork::with_scaled_param(std::size_t layer,
                                                     std::size_t row,
                                                     std::size_t col,
                                                     i64 percent) const {
  return with_param(layer, row, col,
                    scaled_param_raw(param_raw(layer, row, col), percent));
}

ScopedParamPatch::ScopedParamPatch(QuantizedNetwork& net, std::size_t layer,
                                   std::size_t row, std::size_t col, i64 raw)
    : net_(&net),
      slot_(&net.param_slot(layer, row, col)),
      original_(*slot_) {
  *slot_ = raw;
}

PrefixEvaluator::PrefixEvaluator(const QuantizedNetwork& net,
                                 const la::Matrix<i64>& inputs)
    : net_(&net) {
  const std::size_t depth = net.depth();
  bias_mult_.reserve(depth);
  i64 act_scale = util::checked_mul(net.input_norm(), kNoiseDen);
  for (std::size_t li = 0; li < depth; ++li) {
    bias_mult_.push_back(act_scale);
    act_scale = util::checked_mul(act_scale, util::Fixed::kScale);
  }

  inputs_.reserve(inputs.rows());
  pres_.reserve(inputs.rows());
  base_class_.reserve(inputs.rows());
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    std::vector<i64> X = QuantizedNetwork::noised_inputs(inputs.row(s), {});
    std::vector<std::vector<i64>> pre = net.eval_all(X);
    base_class_.push_back(argmax_tie_low_i64(pre.back()));
    inputs_.push_back(std::move(X));
    pres_.push_back(std::move(pre));
  }
}

int PrefixEvaluator::base_class(std::size_t sample) const {
  if (sample >= base_class_.size()) {
    throw InvalidArgument("PrefixEvaluator: sample out of range");
  }
  return base_class_[sample];
}

int PrefixEvaluator::classify_patched(std::size_t sample, std::size_t layer,
                                      std::size_t row, std::size_t col,
                                      i64 raw, Scratch& scratch) const {
  if (sample >= pres_.size()) {
    throw InvalidArgument("PrefixEvaluator: sample out of range");
  }
  const std::size_t depth = net_->depth();
  if (layer >= depth) {
    throw InvalidArgument("PrefixEvaluator: layer out of range");
  }
  const QLayer& fl = net_->layers()[layer];
  if (row >= fl.out_dim() || col > fl.in_dim()) {
    throw InvalidArgument("PrefixEvaluator: parameter index out of range");
  }

  // Delta update of the one affected pre-activation: the patched row's
  // accumulation equals the memoized one plus (raw' - raw) times the input
  // the parameter multiplies — identical i128 algebra to re-summing the
  // row, so overflow (narrow_i128) behaves exactly like a full rescan.
  // The activation a weight multiplies is derived from the memoized
  // pre-activations (X for layer 0, else ReLU of the previous layer's N).
  const i64 old_raw = (col == fl.in_dim()) ? fl.bias[row] : fl.weights(row, col);
  i64 input_value = 0;
  if (col == fl.in_dim()) {
    input_value = bias_mult_[layer];
  } else if (layer == 0) {
    input_value = inputs_[sample][col];
  } else {
    input_value = pres_[sample][layer - 1][col];
    if (net_->layers()[layer - 1].relu) {
      input_value = std::max<i64>(0, input_value);
    }
  }
  const i128 patched_acc =
      static_cast<i128>(pres_[sample][layer][row]) +
      (static_cast<i128>(raw) - old_raw) * static_cast<i128>(input_value);
  const i64 patched_pre = util::narrow_i128(patched_acc);
  ++scratch.layer_evaluations;

  if (layer + 1 == depth) {
    // Output-layer fault: argmax over the memoized outputs with one entry
    // substituted — no copies, no further layers.
    const std::vector<i64>& out = pres_[sample][layer];
    std::size_t best = 0;
    i64 best_value = (row == 0) ? patched_pre : out[0];
    for (std::size_t i = 1; i < out.size(); ++i) {
      const i64 v = (i == row) ? patched_pre : out[i];
      if (v > best_value) {
        best = i;
        best_value = v;
      }
    }
    return static_cast<int>(best);
  }

  // Rank-1 step: the patch moves one activation entering layer+1 from a to
  // a', so layer+1's accumulations are the memoized ones plus weight column
  // `row` times (a' - a).  No wrap: |a' - a| <= 2^64 - 1, |w| <= 2^63 and
  // the memoized value fits int64, so each sum is exact in i128 — the same
  // value a full rescan accumulates, narrowed the same way.  When a' == a
  // (an inactive ReLU neuron that stays inactive) nothing downstream
  // changes, nothing downstream can overflow, and the memoized class is the
  // answer.
  const i64 memo_pre = pres_[sample][layer][row];
  const i64 act = fl.relu ? std::max<i64>(0, memo_pre) : memo_pre;
  const i64 patched_act = fl.relu ? std::max<i64>(0, patched_pre) : patched_pre;
  if (patched_act == act) return base_class_[sample];
  const i128 act_delta = static_cast<i128>(patched_act) - act;

  const QLayer& nl = net_->layers()[layer + 1];
  const std::vector<i64>& memo_next = pres_[sample][layer + 1];
  scratch.next.resize(nl.out_dim());
  for (std::size_t j = 0; j < nl.out_dim(); ++j) {
    scratch.next[j] = util::narrow_i128(
        static_cast<i128>(memo_next[j]) +
        static_cast<i128>(nl.weights(j, row)) * act_delta);
  }
  ++scratch.layer_evaluations;

  // The layers after layer+1 see a changed activation vector in general,
  // so they are re-evaluated in full.
  for (std::size_t li = layer + 2; li < depth; ++li) {
    if (net_->layers()[li - 1].relu) {
      for (i64& v : scratch.next) v = std::max<i64>(0, v);
    }
    std::swap(scratch.act, scratch.next);
    const QLayer& l = net_->layers()[li];
    scratch.next.resize(l.out_dim());
    for (std::size_t j = 0; j < l.out_dim(); ++j) {
      i128 acc = static_cast<i128>(l.bias[j]) * bias_mult_[li];
      const auto wrow = l.weights.row(j);
      for (std::size_t i = 0; i < l.in_dim(); ++i) {
        acc += static_cast<i128>(wrow[i]) * scratch.act[i];
      }
      scratch.next[j] = util::narrow_i128(acc);
    }
    ++scratch.layer_evaluations;
  }
  return argmax_tie_low_i64(scratch.next);
}

std::uint64_t QuantizedNetwork::fingerprint() const noexcept {
  if (fp_valid_.load(std::memory_order_acquire)) {
    return fp_value_.load(std::memory_order_relaxed);
  }
  // FNV-1a, folding every parameter as little-endian 64-bit words.  The
  // byte order is fixed (not memcpy of host ints) so the hash — and with it
  // the query cache's disk tier — is stable across platforms.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(input_norm_));
  mix(layers_.size());
  for (const QLayer& l : layers_) {
    mix(l.out_dim());
    mix(l.in_dim());
    mix(l.relu ? 1 : 0);
    for (std::size_t r = 0; r < l.out_dim(); ++r) {
      for (std::size_t c = 0; c < l.in_dim(); ++c) {
        mix(static_cast<std::uint64_t>(l.weights(r, c)));
      }
    }
    for (const i64 b : l.bias) mix(static_cast<std::uint64_t>(b));
  }
  // Value before flag (release): a reader that sees the flag sees the hash.
  fp_value_.store(h, std::memory_order_relaxed);
  fp_valid_.store(true, std::memory_order_release);
  return h;
}

int argmax_tie_low_i64(std::span<const i64> v) {
  if (v.empty()) throw InvalidArgument("argmax_tie_low_i64: empty vector");
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return static_cast<int>(best);
}

}  // namespace fannet::nn
