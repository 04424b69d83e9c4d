#include "verify/symbolic.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fannet::verify {

using util::i128;

i128 form_min(FormRow form, const NoiseBox& box) {
  i128 v = form[0];
  for (std::size_t d = 0; d < box.dims(); ++d) {
    const i128 c = form[d + 1];
    v += c * (c >= 0 ? box.lo[d] : box.hi[d]);
  }
  return v;
}

i128 form_max(FormRow form, const NoiseBox& box) {
  i128 v = form[0];
  for (std::size_t d = 0; d < box.dims(); ++d) {
    const i128 c = form[d + 1];
    v += c * (c >= 0 ? box.hi[d] : box.lo[d]);
  }
  return v;
}

MarginKernel::MarginKernel(const Query& q)
    : net_(q.net),
      dims_(q.noise_dims()),
      width_(q.noise_dims() + 1),
      outputs_(0),
      label_(static_cast<std::size_t>(q.true_label)) {
  q.validate();
  const nn::QuantizedNetwork& net = *net_;
  outputs_ = net.output_dim();
  layers_.resize(net.depth());
  i128 act_scale = static_cast<i128>(net.input_norm()) * nn::kNoiseDen;
  for (std::size_t li = 0; li < net.depth(); ++li) {
    const nn::QLayer& layer = net.layers()[li];
    LayerForms& forms = layers_[li];
    forms.lo.assign(layer.out_dim() * width_, 0);
    forms.hi.assign(layer.out_dim() * width_, 0);
    forms.concrete.assign(layer.out_dim(), 0);
    forms.act_hi.assign(layer.out_dim(), 0);
    if (li > 0) {
      forms.bias_c0.resize(layer.out_dim());
      for (std::size_t j = 0; j < layer.out_dim(); ++j) {
        forms.bias_c0[j] = static_cast<i128>(layer.bias[j]) * act_scale;
      }
    }
    act_scale *= util::Fixed::kScale;
  }

  // First layer: exactly affine in the deltas, so the box never changes it.
  //   N_j = Σ_i Wq_ji·x_i·100 + Bq_j·norm·100   (constant part)
  //       + Σ_i Wq_ji·x_i·δ_i  (+ Bq_j·norm·δ_bias)
  const std::size_t n = q.x.size();
  const nn::QLayer& first = net.layers().front();
  LayerForms& f0 = layers_.front();
  for (std::size_t j = 0; j < first.out_dim(); ++j) {
    i128* f = &f0.lo[j * width_];
    f[0] = static_cast<i128>(first.bias[j]) * net.input_norm() * nn::kNoiseDen;
    if (q.bias_node) {
      f[1 + n] = static_cast<i128>(first.bias[j]) * net.input_norm();
    }
    const auto row = first.weights.row(j);
    for (std::size_t i = 0; i < n; ++i) {
      const i128 wx = static_cast<i128>(row[i]) * q.x[i];
      f[0] += wx * nn::kNoiseDen;
      f[1 + i] += wx;
    }
  }
  f0.hi = f0.lo;  // exact: identical forms

  margin_lo_.assign(outputs_ * width_, 0);
  margin_hi_.assign(outputs_ * width_, 0);
}

void MarginKernel::bound(const NoiseBox& box) {
  if (box.dims() != dims_) {
    throw InvalidArgument("MarginKernel::bound: box dims != noise dims");
  }
  unstable_relus_ = 0;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    if (li > 0) propagate(li);
    if (net_->layers()[li].relu) relax(layers_[li], box);
  }

  // M_k = O_y - O_k at form level: shared coefficients cancel exactly.
  const i128* y_lo = out_lo(label_).data();
  const i128* y_hi = out_hi(label_).data();
  for (std::size_t k = 0; k < outputs_; ++k) {
    if (k == label_) continue;
    const i128* k_lo = out_lo(k).data();
    const i128* k_hi = out_hi(k).data();
    i128* m_lo = &margin_lo_[k * width_];
    i128* m_hi = &margin_hi_[k * width_];
    for (std::size_t d = 0; d < width_; ++d) {
      m_lo[d] = y_lo[d] - k_hi[d];
      m_hi[d] = y_hi[d] - k_lo[d];
    }
  }
}

/// Pre-activation forms of layer `li` from layer li-1's activations.  A
/// concretized input contributes only to c0 (its lower form is the zero
/// form); first-layer inputs have identical lower and upper forms, so each
/// product is computed once and added to both.
void MarginKernel::propagate(std::size_t li) {
  const nn::QLayer& layer = net_->layers()[li];
  const LayerForms& in = layers_[li - 1];
  LayerForms& out = layers_[li];
  const bool exact_in = li == 1;
  for (std::size_t j = 0; j < layer.out_dim(); ++j) {
    i128* lo = &out.lo[j * width_];
    i128* hi = &out.hi[j * width_];
    std::fill(lo, lo + width_, i128{0});
    std::fill(hi, hi + width_, i128{0});
    lo[0] = out.bias_c0[j];
    hi[0] = out.bias_c0[j];
    const auto row = layer.weights.row(j);
    for (std::size_t i = 0; i < layer.in_dim(); ++i) {
      const i128 w = row[i];
      if (in.concrete[i] != 0) {
        (w >= 0 ? hi : lo)[0] += w * in.act_hi[i];
        continue;
      }
      const i128* src_lo = &in.lo[i * width_];
      const i128* src_hi = &in.hi[i * width_];
      if (exact_in) {
        for (std::size_t d = 0; d < width_; ++d) {
          const i128 t = w * src_lo[d];
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
void MarginKernel::relax(LayerForms& layer, const NoiseBox& box) {
  for (std::size_t j = 0; j < layer.concrete.size(); ++j) {
    const FormRow lo(&layer.lo[j * width_], width_);
    const FormRow hi(&layer.hi[j * width_], width_);
    const i128 lb = form_min(lo, box);
    const i128 ub = form_max(hi, box);
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

FormRow MarginKernel::out_lo(std::size_t k) const {
  return {&layers_.back().lo[k * width_], width_};
}

FormRow MarginKernel::out_hi(std::size_t k) const {
  return {&layers_.back().hi[k * width_], width_};
}

FormRow MarginKernel::margin_lo(std::size_t k) const {
  return {&margin_lo_[k * width_], width_};
}

FormRow MarginKernel::margin_hi(std::size_t k) const {
  return {&margin_hi_[k * width_], width_};
}

MarginBounds margin_bounds(const Query& q) {
  MarginKernel kernel(q);
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
