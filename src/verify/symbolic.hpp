/// \file
/// \brief Symbolic (affine) bound propagation over the noise deltas.
///
/// Each hidden neuron carries a pair of exact integer affine forms
///     value  in  [ lo.c0 + Σ lo.coeff[d]·δ_d ,  hi.c0 + Σ hi.coeff[d]·δ_d ]
/// over the noise dimensions δ.  The first layer is *exactly* affine in δ
/// (the noise enters multiplicatively against constants), so no precision is
/// lost there; unstable ReLUs concretize (lower form → 0, upper form → its
/// box maximum) the way DeepPoly/Neurify relax, but with integer-exact
/// arithmetic so soundness needs no floating-point care.  The output layer
/// propagates straight into the margins M_k = O_y − O_k, so coefficients
/// shared by O_y and O_k cancel at form level — what makes this engine a
/// much stronger pruner than plain IBP.
///
/// `MarginKernel` is the one propagation path, shared by the `symbolic`
/// screen and branch-and-bound (DESIGN.md §4.4).  It is built once per
/// query — bnb builds one per worker — and does everything the box cannot
/// change at construction: it validates the query, certifies the width of
/// its row integers, computes the first layer's forms (exact in δ, so the
/// same for every box) and sizes flat row-major buffers for every layer.
/// `bound(box)` then only applies the ReLU relaxation for that box,
/// propagates the later layers and writes the margin rows into the
/// kernel's own buffers, with no heap allocation.
///
/// The certificate bounds every coefficient, product and partial sum that
/// any sub-box of the query's box can produce, in saturating unsigned
/// 128-bit arithmetic.  `make_margin_kernel` runs the kernel in `int64_t`
/// when the certificate is at most 2^62 and in `__int128` up to 2^126; past
/// that, construction throws ArithmeticError.  Both widths produce the same
/// integers: the certificate proves neither can overflow.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "verify/query.hpp"

namespace fannet::verify {

/// One exact affine form over a query's noise dimensions: the constant c0
/// first, then one coefficient per noise dimension.
template <typename Row>
using FormRow = std::span<const Row>;

/// Minimum of a form over a box with the form's dimensions.
template <typename Row>
[[nodiscard]] Row form_min(FormRow<Row> form, const NoiseBox& box) {
  Row v = form[0];
  for (std::size_t d = 0; d < box.dims(); ++d) {
    const Row c = form[d + 1];
    v += c * (c >= 0 ? box.lo[d] : box.hi[d]);
  }
  return v;
}

/// Maximum of a form over a box with the form's dimensions.
template <typename Row>
[[nodiscard]] Row form_max(FormRow<Row> form, const NoiseBox& box) {
  Row v = form[0];
  for (std::size_t d = 0; d < box.dims(); ++d) {
    const Row c = form[d + 1];
    v += c * (c >= 0 ? box.hi[d] : box.lo[d]);
  }
  return v;
}

/// The kernel's certificate: an upper bound on the magnitude of every
/// integer `MarginKernel::bound` computes — coefficient, product and
/// partial sum — on any sub-box of the query's box, and of every integer
/// its construction computes.  Validates the query (InvalidArgument);
/// saturating, and throws ArithmeticError once it passes 2^126.
[[nodiscard]] util::u128 margin_certificate(const Query& query);

template <typename Row>
class MarginKernel;

/// A margin kernel at the width its certificate allows.
using AnyMarginKernel =
    std::variant<MarginKernel<util::i64>, MarginKernel<util::i128>>;

/// Certifies the query once and builds the `int64_t` kernel when the
/// certificate is at most 2^62, the `__int128` one otherwise.
[[nodiscard]] AnyMarginKernel make_margin_kernel(const Query& query);

/// Margin-form kernel: lower and upper affine forms of every margin
/// M_k = O_y − O_k over a box of the query's noise dimensions, in rows of
/// `Row` integers.  Forms computed for a box are valid for every noise
/// vector inside it, so evaluating them with `form_min`/`form_max` on a
/// sub-box yields sound (if slightly looser) bounds without re-propagating
/// — what lets best-first bnb score child boxes in O(dims) per margin.
/// Not thread-safe: one kernel per thread.
template <typename Row>
class MarginKernel {
 public:
  /// Largest certificate this row type runs: 2^62 for `int64_t`, 2^126
  /// for `__int128`, so every certified integer fits with room to spare.
  static constexpr util::u128 kCeiling = util::u128{1}
                                         << (8 * sizeof(Row) - 2);

  /// Validates `query` (InvalidArgument), certifies it (ArithmeticError
  /// when the certificate passes kCeiling) and precomputes the
  /// box-independent first and output layers.  Keeps a pointer to the
  /// query's network and a copy of its box, nothing else of the query.
  explicit MarginKernel(const Query& query);

  /// Propagates the forms over `box`, replacing the rows of the previous
  /// call.  `box` must lie inside the query's box (the certificate's
  /// domain); anything else throws InvalidArgument.  Allocates nothing.
  void bound(const NoiseBox& box);

  [[nodiscard]] std::size_t outputs() const noexcept { return outputs_; }
  [[nodiscard]] std::size_t label() const noexcept { return label_; }
  /// Hidden-layer ReLUs concretized by the last `bound` call (an output
  /// layer's ReLU never reaches a margin, so it is never relaxed).
  [[nodiscard]] std::uint64_t unstable_relus() const noexcept {
    return unstable_relus_;
  }

  /// Margin rows written by the last `bound` call, valid until the next
  /// one; the row of the label itself is all zeros.
  [[nodiscard]] FormRow<Row> margin_lo(std::size_t k) const {
    return {&margin_lo_[k * width_], width_};
  }
  [[nodiscard]] FormRow<Row> margin_hi(std::size_t k) const {
    return {&margin_hi_[k * width_], width_};
  }

 private:
  friend AnyMarginKernel make_margin_kernel(const Query& query);

  /// `certificate` must be `margin_certificate(query)`.
  MarginKernel(const Query& query, util::u128 certificate);

  /// One hidden layer's pre-activation rows (out_dim × width, row-major)
  /// and the ReLU outcome per neuron for the current box.
  struct LayerForms {
    std::vector<Row> lo, hi;
    std::vector<Row> bias_c0;            ///< bias · R_l (layers after the first)
    std::vector<std::uint8_t> concrete;  ///< 1: activation is [0, act_hi]
    std::vector<Row> act_hi;
  };

  void propagate(std::size_t li);
  void relax(LayerForms& layer, const NoiseBox& box);
  void write_margins();

  const nn::QuantizedNetwork* net_;
  std::vector<int> root_;  ///< the query's box, [lo | hi]
  std::size_t dims_;
  std::size_t width_;  ///< dims_ + 1
  std::size_t outputs_;
  std::size_t label_;
  std::uint64_t unstable_relus_ = 0;
  std::vector<LayerForms> hidden_;  ///< every layer but the output layer
  /// The output layer in margin form, per margin k: c0 = (b_y − b_k)·R and,
  /// per input i (outputs × in_dim, row-major),
  ///   A = max(w_yi, 0) − min(w_ki, 0)   weights the input's lower form in
  ///                                     M_lo and its upper form in M_hi,
  ///   B = min(w_yi, 0) − max(w_ki, 0)   the other way round.
  std::vector<Row> margin_c0_;
  std::vector<Row> margin_a_, margin_b_;
  std::vector<Row> margin_lo_, margin_hi_;
};

extern template class MarginKernel<util::i64>;
extern template class MarginKernel<util::i128>;

/// kRobust if the margins certify the label, kUnknown otherwise.
[[nodiscard]] VerifyResult symbolic_verify(const Query& query);

/// For every k != y, the exact-form lower and upper bound of
/// M_k = O_y - O_k over the query's box.
struct MarginBounds {
  std::vector<util::i128> lb;  // indexed by k (entry y unused)
  std::vector<util::i128> ub;
  std::uint64_t unstable_relus = 0;
};
[[nodiscard]] MarginBounds margin_bounds(const Query& query);

}  // namespace fannet::verify
