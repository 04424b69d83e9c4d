/// \file
/// \brief Symbolic (affine) bound propagation over the noise deltas.
///
/// Each neuron carries a pair of exact integer affine forms
///     value  in  [ lo.c0 + Σ lo.coeff[d]·δ_d ,  hi.c0 + Σ hi.coeff[d]·δ_d ]
/// over the noise dimensions δ.  The first layer is *exactly* affine in δ
/// (the noise enters multiplicatively against constants), so no precision is
/// lost there; unstable ReLUs concretize (lower form → 0, upper form → its
/// box maximum) the way DeepPoly/Neurify relax, but with integer-exact
/// arithmetic so soundness needs no floating-point care.  Margins are bounded
/// at the *form* level (O_y − O_k cancels shared coefficients), which is what
/// makes this engine a much stronger pruner than plain IBP.
///
/// `MarginKernel` is the one propagation path, shared by the `symbolic`
/// screen and branch-and-bound (DESIGN.md §4.4).  It is built once per
/// query — bnb builds one per worker — and does everything the box cannot
/// change at construction: it validates the query, computes the first
/// layer's forms (exact in δ, so the same for every box) and sizes flat
/// row-major buffers for every layer.  `bound(box)` then only applies the
/// ReLU relaxation for that box, propagates the later layers and writes the
/// M_k = O_y − O_k margin forms into the kernel's own buffers, with no heap
/// allocation.
#pragma once

#include <span>

#include "verify/query.hpp"

namespace fannet::verify {

/// One exact affine form over a query's noise dimensions: the constant c0
/// first, then one coefficient per noise dimension.
using FormRow = std::span<const util::i128>;

/// Minimum / maximum of a form over a box with the form's dimensions.
[[nodiscard]] util::i128 form_min(FormRow form, const NoiseBox& box);
[[nodiscard]] util::i128 form_max(FormRow form, const NoiseBox& box);

/// Margin-form kernel: lower and upper affine forms of every output O_k and
/// of every margin M_k = O_y − O_k, for a box of the query's noise
/// dimensions.  Forms computed for a box are valid for every noise vector
/// inside it, so evaluating them with `form_min`/`form_max` on a sub-box
/// yields sound (if slightly looser) bounds without re-propagating — what
/// lets best-first bnb score child boxes in O(dims) per margin.  Not
/// thread-safe: one kernel per thread.
class MarginKernel {
 public:
  /// Validates `query` (throws InvalidArgument) and precomputes the
  /// box-independent first layer.  Keeps a pointer to the query's network,
  /// nothing else of the query.
  explicit MarginKernel(const Query& query);

  /// Propagates the forms over `box` (dims must equal the query's noise
  /// dimensions), replacing the rows of the previous call.  Allocates
  /// nothing.
  void bound(const NoiseBox& box);

  [[nodiscard]] std::size_t outputs() const noexcept { return outputs_; }
  [[nodiscard]] std::size_t label() const noexcept { return label_; }
  /// ReLUs concretized by the last `bound` call.
  [[nodiscard]] std::uint64_t unstable_relus() const noexcept {
    return unstable_relus_;
  }

  /// Rows written by the last `bound` call, valid until the next one.
  /// Output forms are the last layer's pre-activations; the margin row of
  /// the label itself is all zeros.
  [[nodiscard]] FormRow out_lo(std::size_t k) const;
  [[nodiscard]] FormRow out_hi(std::size_t k) const;
  [[nodiscard]] FormRow margin_lo(std::size_t k) const;
  [[nodiscard]] FormRow margin_hi(std::size_t k) const;

 private:
  /// One layer's pre-activation rows (out_dim × width, row-major) and the
  /// ReLU outcome per neuron for the current box.
  struct LayerForms {
    std::vector<util::i128> lo, hi;
    std::vector<util::i128> bias_c0;   ///< bias · R_l (layers after the first)
    std::vector<std::uint8_t> concrete;  ///< 1: activation is [0, act_hi]
    std::vector<util::i128> act_hi;
  };

  void propagate(std::size_t li);
  void relax(LayerForms& layer, const NoiseBox& box);

  const nn::QuantizedNetwork* net_;
  std::size_t dims_;
  std::size_t width_;  ///< dims_ + 1
  std::size_t outputs_;
  std::size_t label_;
  std::uint64_t unstable_relus_ = 0;
  std::vector<LayerForms> layers_;
  std::vector<util::i128> margin_lo_, margin_hi_;
};

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
