#include "verify/symbolic.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace fannet::verify {

using util::i128;
using util::u128;

namespace {

constexpr u128 kSaturated = ~u128{0};

[[nodiscard]] u128 sat_add(u128 a, u128 b) noexcept {
  return (kSaturated - a < b) ? kSaturated : a + b;
}

[[nodiscard]] u128 sat_mul(u128 a, u128 b) noexcept {
  constexpr u128 kU64Max = ~std::uint64_t{0};
  if (a <= kU64Max && b <= kU64Max) {  // one 64x64 multiply, cannot overflow
    return static_cast<u128>(static_cast<std::uint64_t>(a)) *
           static_cast<std::uint64_t>(b);
  }
  u128 r = 0;
  return __builtin_mul_overflow(a, b, &r) ? kSaturated : r;
}

[[nodiscard]] u128 magnitude(i64 v) noexcept {
  // Two's-complement magnitude; correct for INT64_MIN where -v overflows.
  return v < 0 ? u128{0} - static_cast<u128>(v) : static_cast<u128>(v);
}

}  // namespace

u128 margin_certificate(const Query& q) {
  q.validate();
  const nn::QuantizedNetwork& net = *q.net;
  const std::size_t n = q.x.size();
  const auto y = static_cast<std::size_t>(q.true_label);
  // The largest |δ_d| of any point of the box, hence of any sub-box.
  std::vector<u128> reach(q.noise_dims());
  for (std::size_t d = 0; d < reach.size(); ++d) {
    reach[d] = std::max(magnitude(q.box.lo[d]), magnitude(q.box.hi[d]));
  }
  u128 worst = 0;

  // Per neuron of the layer feeding the next: `coef` bounds every
  // coefficient (d >= 1) of its lower and upper forms, `sum` bounds
  // |c0| + Σ_d |coeff_d|·reach_d — so also the constant, every
  // form_min/form_max partial sum over a sub-box and a concretized
  // activation.  Each layer's bounds are sums of |weight| times the
  // previous layer's, which dominate every product and partial sum the
  // propagation forms on the way.  The first layer is exact, so its terms
  // are bounded one by one (c0 = 100·(Bq·norm + Σ Wq·x)).
  const nn::QLayer& first = net.layers().front();
  const u128 norm = magnitude(net.input_norm());
  std::vector<u128> coef(first.out_dim()), sum(first.out_dim());
  for (std::size_t j = 0; j < first.out_dim(); ++j) {
    const u128 bias_term = sat_mul(magnitude(first.bias[j]), norm);
    u128 c0 = bias_term;
    u128 p = q.bias_node ? bias_term : 0;
    u128 s = q.bias_node ? sat_mul(bias_term, reach[n]) : 0;
    const auto row = first.weights.row(j);
    for (std::size_t i = 0; i < n; ++i) {
      const u128 wx = sat_mul(magnitude(row[i]), magnitude(q.x[i]));
      c0 = sat_add(c0, wx);
      p = std::max(p, wx);
      s = sat_add(s, sat_mul(wx, reach[i]));
    }
    coef[j] = p;
    sum[j] = sat_add(s, sat_mul(c0, magnitude(nn::kNoiseDen)));
    worst = std::max({worst, coef[j], sum[j]});
  }

  // Later layers; the bias of layer l is scaled by R_l = norm·100·S^l.
  u128 scale = sat_mul(norm, magnitude(nn::kNoiseDen));
  std::vector<u128> next_coef, next_sum;
  for (std::size_t li = 1; li < net.depth(); ++li) {
    scale = sat_mul(scale, magnitude(util::Fixed::kScale));
    const nn::QLayer& layer = net.layers()[li];
    if (li + 1 == net.depth()) break;  // the output layer: margins below
    next_coef.assign(layer.out_dim(), 0);
    next_sum.assign(layer.out_dim(), 0);
    for (std::size_t j = 0; j < layer.out_dim(); ++j) {
      u128 p = 0;
      u128 s = sat_mul(magnitude(layer.bias[j]), scale);
      const auto row = layer.weights.row(j);
      for (std::size_t i = 0; i < layer.in_dim(); ++i) {
        const u128 w = magnitude(row[i]);
        p = sat_add(p, sat_mul(w, coef[i]));
        s = sat_add(s, sat_mul(w, sum[i]));
      }
      next_coef[j] = p;
      next_sum[j] = s;
      worst = std::max({worst, p, s});
    }
    coef.swap(next_coef);
    sum.swap(next_sum);
  }

  // Margin rows.  One layer: M_k is the difference of two exact forms.
  // Otherwise M_k's weights A and B satisfy |A| + |B| = |w_yi| + |w_ki|.
  const nn::QLayer& out = net.layers().back();
  for (std::size_t k = 0; k < out.out_dim(); ++k) {
    if (k == y) continue;
    if (net.depth() == 1) {
      worst = std::max(
          {worst, sat_add(coef[y], coef[k]), sat_add(sum[y], sum[k])});
      continue;
    }
    const auto wy = out.weights.row(y);
    const auto wk = out.weights.row(k);
    u128 p = 0;
    u128 s = sat_add(sat_mul(magnitude(out.bias[y]), scale),
                     sat_mul(magnitude(out.bias[k]), scale));
    for (std::size_t i = 0; i < out.in_dim(); ++i) {
      const u128 w = sat_add(magnitude(wy[i]), magnitude(wk[i]));
      p = sat_add(p, sat_mul(w, coef[i]));
      s = sat_add(s, sat_mul(w, sum[i]));
      worst = std::max(worst, w);
    }
    worst = std::max({worst, p, s});
  }

  if (worst > MarginKernel<i128>::kCeiling) {
    throw ArithmeticError(
        "margin_certificate: bound kernel values can pass 2^126");
  }
  return worst;
}

AnyMarginKernel make_margin_kernel(const Query& q) {
  const u128 certificate = margin_certificate(q);
  if (certificate <= MarginKernel<i64>::kCeiling) {
    return MarginKernel<i64>(q, certificate);
  }
  return MarginKernel<i128>(q, certificate);
}

template <typename Row>
MarginKernel<Row>::MarginKernel(const Query& q)
    : MarginKernel(q, margin_certificate(q)) {}

template <typename Row>
MarginKernel<Row>::MarginKernel(const Query& q, u128 certificate)
    : net_(q.net),
      dims_(q.noise_dims()),
      width_(q.noise_dims() + 1),
      outputs_(q.net->output_dim()),
      label_(static_cast<std::size_t>(q.true_label)) {
  if (certificate > kCeiling) {
    throw ArithmeticError("MarginKernel: certificate exceeds the row width");
  }
  // Below, every integer is bounded by the certificate, so no Row
  // arithmetic overflows.
  root_ = q.box.lo;
  root_.insert(root_.end(), q.box.hi.begin(), q.box.hi.end());
  const nn::QuantizedNetwork& net = *net_;
  const std::size_t depth = net.depth();

  // First layer: exactly affine in the deltas, so the box never changes it.
  //   N_j = Σ_i Wq_ji·x_i·100 + Bq_j·norm·100   (constant part)
  //       + Σ_i Wq_ji·x_i·δ_i  (+ Bq_j·norm·δ_bias)
  const std::size_t n = q.x.size();
  const nn::QLayer& first = net.layers().front();
  std::vector<Row> f0(first.out_dim() * width_, 0);
  for (std::size_t j = 0; j < first.out_dim(); ++j) {
    Row* f = &f0[j * width_];
    const Row bias_term = static_cast<Row>(first.bias[j]) * net.input_norm();
    f[0] = bias_term * nn::kNoiseDen;
    if (q.bias_node) f[1 + n] = bias_term;
    const auto row = first.weights.row(j);
    for (std::size_t i = 0; i < n; ++i) {
      const Row wx = static_cast<Row>(row[i]) * q.x[i];
      f[0] += wx * nn::kNoiseDen;
      f[1 + i] += wx;
    }
  }

  margin_lo_.assign(outputs_ * width_, 0);
  margin_hi_.assign(outputs_ * width_, 0);
  if (depth == 1) {
    // The output layer is the exact first layer: the margin rows are
    // exact, the same for every box, and `bound` leaves them alone.
    for (std::size_t k = 0; k < outputs_; ++k) {
      if (k == label_) continue;
      for (std::size_t d = 0; d < width_; ++d) {
        margin_lo_[k * width_ + d] =
            f0[label_ * width_ + d] - f0[k * width_ + d];
      }
    }
    margin_hi_ = margin_lo_;
    return;
  }

  // Bias terms bias · R_l; a nonzero bias bounds R_l by the certificate.
  u128 scale =
      sat_mul(magnitude(net.input_norm()), magnitude(nn::kNoiseDen));
  const auto scaled_bias = [&scale](i64 bias) {
    return bias == 0 ? Row{0}
                     : static_cast<Row>(bias) * static_cast<Row>(scale);
  };
  hidden_.resize(depth - 1);
  hidden_.front().lo = f0;
  hidden_.front().hi = std::move(f0);  // exact: identical forms
  for (std::size_t li = 0; li + 1 < depth; ++li) {
    const nn::QLayer& layer = net.layers()[li];
    LayerForms& forms = hidden_[li];
    forms.concrete.assign(layer.out_dim(), 0);
    forms.act_hi.assign(layer.out_dim(), 0);
    if (li == 0) continue;
    forms.lo.assign(layer.out_dim() * width_, 0);
    forms.hi.assign(layer.out_dim() * width_, 0);
    scale = sat_mul(scale, magnitude(util::Fixed::kScale));
    forms.bias_c0.resize(layer.out_dim());
    for (std::size_t j = 0; j < layer.out_dim(); ++j) {
      forms.bias_c0[j] = scaled_bias(layer.bias[j]);
    }
  }

  scale = sat_mul(scale, magnitude(util::Fixed::kScale));
  const nn::QLayer& out = net.layers().back();
  margin_c0_.assign(outputs_, 0);
  margin_a_.assign(outputs_ * out.in_dim(), 0);
  margin_b_.assign(outputs_ * out.in_dim(), 0);
  const auto wy = out.weights.row(label_);
  for (std::size_t k = 0; k < outputs_; ++k) {
    if (k == label_) continue;
    margin_c0_[k] = scaled_bias(out.bias[label_]) - scaled_bias(out.bias[k]);
    const auto wk = out.weights.row(k);
    for (std::size_t i = 0; i < out.in_dim(); ++i) {
      const Row w_y = wy[i];
      const Row w_k = wk[i];
      margin_a_[k * out.in_dim() + i] =
          std::max(w_y, Row{0}) - std::min(w_k, Row{0});
      margin_b_[k * out.in_dim() + i] =
          std::min(w_y, Row{0}) - std::max(w_k, Row{0});
    }
  }
}

template <typename Row>
void MarginKernel<Row>::bound(const NoiseBox& box) {
  if (box.dims() != dims_) {
    throw InvalidArgument("MarginKernel::bound: box dims != noise dims");
  }
  for (std::size_t d = 0; d < dims_; ++d) {
    if (box.lo[d] < root_[d] || box.lo[d] > box.hi[d] ||
        box.hi[d] > root_[dims_ + d]) {
      throw InvalidArgument(
          "MarginKernel::bound: box outside the query's box");
    }
  }
  unstable_relus_ = 0;
  if (hidden_.empty()) return;  // one layer: the rows are already exact
  for (std::size_t li = 0; li < hidden_.size(); ++li) {
    if (li > 0) propagate(li);
    if (net_->layers()[li].relu) relax(hidden_[li], box);
  }
  write_margins();
}

/// Pre-activation forms of hidden layer `li` from layer li-1's
/// activations.  A concretized input contributes only to c0 (its lower
/// form is the zero form); first-layer inputs have identical lower and
/// upper forms, so each product is computed once and added to both.
template <typename Row>
void MarginKernel<Row>::propagate(std::size_t li) {
  const nn::QLayer& layer = net_->layers()[li];
  const LayerForms& in = hidden_[li - 1];
  LayerForms& out = hidden_[li];
  const bool exact_in = li == 1;
  for (std::size_t j = 0; j < layer.out_dim(); ++j) {
    Row* lo = &out.lo[j * width_];
    Row* hi = &out.hi[j * width_];
    std::fill(lo, lo + width_, Row{0});
    std::fill(hi, hi + width_, Row{0});
    lo[0] = out.bias_c0[j];
    hi[0] = out.bias_c0[j];
    const auto row = layer.weights.row(j);
    for (std::size_t i = 0; i < layer.in_dim(); ++i) {
      const Row w = row[i];
      if (in.concrete[i] != 0) {
        (w >= 0 ? hi : lo)[0] += w * in.act_hi[i];
        continue;
      }
      const Row* src_lo = &in.lo[i * width_];
      const Row* src_hi = &in.hi[i * width_];
      if (exact_in) {
        for (std::size_t d = 0; d < width_; ++d) {
          const Row t = w * src_lo[d];
          lo[d] += t;
          hi[d] += t;
        }
      } else if (w >= 0) {
        for (std::size_t d = 0; d < width_; ++d) {
          lo[d] += w * src_lo[d];
          hi[d] += w * src_hi[d];
        }
      } else {
        for (std::size_t d = 0; d < width_; ++d) {
          lo[d] += w * src_hi[d];
          hi[d] += w * src_lo[d];
        }
      }
    }
  }
}

/// ReLU relaxation for the box: stable-active neurons keep their forms,
/// stable-inactive ones become [0, 0], unstable ones concretize to
/// [0, box maximum of the upper form] (sound, exact integers).
template <typename Row>
void MarginKernel<Row>::relax(LayerForms& layer, const NoiseBox& box) {
  for (std::size_t j = 0; j < layer.concrete.size(); ++j) {
    const FormRow<Row> lo(&layer.lo[j * width_], width_);
    const FormRow<Row> hi(&layer.hi[j * width_], width_);
    const Row lb = form_min(lo, box);
    const Row ub = form_max(hi, box);
    if (lb >= 0) {
      layer.concrete[j] = 0;
      continue;
    }
    layer.concrete[j] = 1;
    if (ub <= 0) {
      layer.act_hi[j] = 0;
      continue;
    }
    ++unstable_relus_;
    layer.act_hi[j] = ub;
  }
}

/// The output layer, propagated straight into the margins:
///   M_lo = c0 + Σ_i A_i·lo_i + B_i·hi_i,   M_hi = c0 + Σ_i A_i·hi_i + B_i·lo_i.
/// These are the integers of O_y's lower form minus O_k's upper form (and
/// the other way round), reassociated; a concretized input has lo = 0 and
/// hi = act_hi, an exact one lo = hi, so it adds (A + B)·form = (w_y − w_k)·form.
template <typename Row>
void MarginKernel<Row>::write_margins() {
  const LayerForms& in = hidden_.back();
  const bool exact_in = hidden_.size() == 1;
  const std::size_t in_dim = in.concrete.size();
  for (std::size_t k = 0; k < outputs_; ++k) {
    if (k == label_) continue;
    Row* lo = &margin_lo_[k * width_];
    Row* hi = &margin_hi_[k * width_];
    std::fill(lo, lo + width_, Row{0});
    std::fill(hi, hi + width_, Row{0});
    lo[0] = margin_c0_[k];
    hi[0] = margin_c0_[k];
    const Row* a_row = &margin_a_[k * in_dim];
    const Row* b_row = &margin_b_[k * in_dim];
    for (std::size_t i = 0; i < in_dim; ++i) {
      const Row a = a_row[i];
      const Row b = b_row[i];
      if (in.concrete[i] != 0) {
        lo[0] += b * in.act_hi[i];
        hi[0] += a * in.act_hi[i];
        continue;
      }
      const Row* src_lo = &in.lo[i * width_];
      const Row* src_hi = &in.hi[i * width_];
      if (exact_in) {
        const Row w = a + b;
        for (std::size_t d = 0; d < width_; ++d) {
          const Row t = w * src_lo[d];
          lo[d] += t;
          hi[d] += t;
        }
      } else {
        for (std::size_t d = 0; d < width_; ++d) {
          lo[d] += a * src_lo[d] + b * src_hi[d];
          hi[d] += a * src_hi[d] + b * src_lo[d];
        }
      }
    }
  }
}

template class MarginKernel<i64>;
template class MarginKernel<i128>;

MarginBounds margin_bounds(const Query& q) {
  AnyMarginKernel any = make_margin_kernel(q);
  return std::visit(
      [&q](auto& kernel) {
        kernel.bound(q.box);
        MarginBounds mb;
        mb.lb.assign(kernel.outputs(), 0);
        mb.ub.assign(kernel.outputs(), 0);
        mb.unstable_relus = kernel.unstable_relus();
        for (std::size_t k = 0; k < kernel.outputs(); ++k) {
          if (k == kernel.label()) continue;
          mb.lb[k] = form_min(kernel.margin_lo(k), q.box);
          mb.ub[k] = form_max(kernel.margin_hi(k), q.box);
        }
        return mb;
      },
      any);
}

VerifyResult symbolic_verify(const Query& q) {
  const MarginBounds mb = margin_bounds(q);
  const auto y = static_cast<std::size_t>(q.true_label);

  VerifyResult result;
  result.work = 1;
  for (std::size_t k = 0; k < mb.lb.size(); ++k) {
    if (k == y) continue;
    const i128 needed = (k < y) ? 1 : 0;
    if (mb.lb[k] < needed) {
      result.verdict = Verdict::kUnknown;
      return result;
    }
  }
  result.verdict = Verdict::kRobust;
  return result;
}

}  // namespace fannet::verify
