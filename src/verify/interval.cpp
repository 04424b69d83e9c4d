#include "verify/interval.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fannet::verify {

using util::i128;
using util::i64;

namespace {

[[noreturn, gnu::noinline, gnu::cold]] void throw_overflow() {
  throw ArithmeticError("interval bounds: int128 overflow");
}

[[nodiscard]] bool fits_i64(i128 v) noexcept {
  return static_cast<i128>(static_cast<i64>(v)) == v;
}

[[nodiscard]] inline i128 mul(i128 a, i128 b) {
  // Two int64 factors cannot overflow int128: the common case skips the
  // full overflow-checked 128-bit multiply.
  if (fits_i64(a) && fits_i64(b)) {
    return static_cast<i128>(static_cast<i64>(a)) * static_cast<i64>(b);
  }
  i128 r = 0;
  if (__builtin_mul_overflow(a, b, &r)) throw_overflow();
  return r;
}

[[nodiscard]] inline i128 add(i128 a, i128 b) {
  i128 r = 0;
  if (__builtin_add_overflow(a, b, &r)) throw_overflow();
  return r;
}

/// Contribution bounds of weight * value for value in [lo, hi].
inline void accumulate(i128& acc_lo, i128& acc_hi, i64 weight, i128 lo,
                       i128 hi) {
  if (weight >= 0) {
    acc_lo = add(acc_lo, mul(weight, lo));
    acc_hi = add(acc_hi, mul(weight, hi));
  } else {
    acc_lo = add(acc_lo, mul(weight, hi));
    acc_hi = add(acc_hi, mul(weight, lo));
  }
}

}  // namespace

IntervalBounds interval_bounds(const Query& q) {
  q.validate();
  const nn::QuantizedNetwork& net = *q.net;
  const std::size_t n = q.x.size();

  // Scaled input bounds: X_i = x_i * (100 + delta_i).
  std::vector<i128> in_lo(n), in_hi(n);
  for (std::size_t i = 0; i < n; ++i) {
    const i128 a = static_cast<i128>(q.x[i]) * (nn::kNoiseDen + q.box.lo[i]);
    const i128 b = static_cast<i128>(q.x[i]) * (nn::kNoiseDen + q.box.hi[i]);
    in_lo[i] = std::min(a, b);
    in_hi[i] = std::max(a, b);
  }
  // Bias-node factor bounds (the first layer's bias multiplier).
  i128 bf_lo = nn::kNoiseDen, bf_hi = nn::kNoiseDen;
  if (q.bias_node) {
    bf_lo = nn::kNoiseDen + q.box.lo[n];
    bf_hi = nn::kNoiseDen + q.box.hi[n];
  }

  IntervalBounds out;
  std::vector<i128> act_lo = in_lo, act_hi = in_hi;
  i128 act_scale = static_cast<i128>(net.input_norm()) * nn::kNoiseDen;

  for (std::size_t li = 0; li < net.depth(); ++li) {
    const nn::QLayer& layer = net.layers()[li];
    std::vector<i128> z_lo(layer.out_dim()), z_hi(layer.out_dim());
    for (std::size_t j = 0; j < layer.out_dim(); ++j) {
      i128 lo = 0, hi = 0;
      if (li == 0) {
        // Bias input node may be noised: term = Bq * input_norm * bf.
        const i128 base = static_cast<i128>(layer.bias[j]) * net.input_norm();
        const i128 at_lo = mul(base, bf_lo);
        const i128 at_hi = mul(base, bf_hi);
        accumulate(lo, hi, 1, std::min(at_lo, at_hi), std::max(at_lo, at_hi));
      } else {
        lo = hi = mul(layer.bias[j], act_scale);
      }
      const auto row = layer.weights.row(j);
      for (std::size_t i = 0; i < layer.in_dim(); ++i) {
        accumulate(lo, hi, row[i], act_lo[i], act_hi[i]);
      }
      z_lo[j] = lo;
      z_hi[j] = hi;
    }
    out.lo.push_back(z_lo);
    out.hi.push_back(z_hi);
    if (layer.relu) {
      for (auto& v : z_lo) v = std::max<i128>(0, v);
      for (auto& v : z_hi) v = std::max<i128>(0, v);
    }
    act_lo = std::move(z_lo);
    act_hi = std::move(z_hi);
    // Checked after the output layer too, as the exact evaluator does.
    act_scale = mul(act_scale, util::Fixed::kScale);
  }
  return out;
}

VerifyResult interval_verify(const Query& q) {
  const IntervalBounds bounds = interval_bounds(q);
  const auto& out_lo = bounds.lo.back();
  const auto& out_hi = bounds.hi.back();
  const auto y = static_cast<std::size_t>(q.true_label);

  VerifyResult result;
  result.work = 1;
  for (std::size_t k = 0; k < out_lo.size(); ++k) {
    if (k == y) continue;
    // Margin M_k = O_y - O_k; conservative lower bound loses correlation.
    i128 margin_lb = 0;
    if (__builtin_sub_overflow(out_lo[y], out_hi[k], &margin_lb)) {
      throw_overflow();
    }
    const i128 needed = (k < y) ? 1 : 0;  // tie resolves to the lower index
    if (margin_lb < needed) {
      result.verdict = Verdict::kUnknown;
      return result;
    }
  }
  result.verdict = Verdict::kRobust;
  return result;
}

}  // namespace fannet::verify
