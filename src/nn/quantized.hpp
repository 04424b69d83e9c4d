/// \file
/// \brief Exact integer evaluation of a quantized network (DESIGN.md §4.1).
///
/// The formal engines never touch floating point.  Weights are quantized to
/// Fixed (scale S = 10^4); inputs are integers x_i; noise is an integer
/// percent delta_i.  Everything is then evaluated over plain integers:
///
///   scaled input      X_i  = x_i * (100 + delta_i)            (scale R0)
///   first layer       N^1  = Wq^1 X + Bq^1 * input_norm * bias_factor
///   deeper layers     N^l  = Wq^l A^{l-1} + Bq^l * R_{l-1}
///   running scale     R_0  = input_norm * 100,   R_l = S * R_{l-1}
///   ReLU              A^l  = max(0, N^l)
///
/// where N^l equals the real pre-activation of the quantized-weight network
/// multiplied by R_l, `input_norm` is the training-time normalizer (inputs
/// were divided by it before training) and `bias_factor` = 100 + delta_bias
/// carries noise on the paper's bias *input node* (Fig. 3a; DESIGN.md §4.3).
/// Because scales are positive, argmax over N^L equals argmax over the real
/// outputs — classification is exact.  All accumulation is __int128 with a
/// checked narrowing back to int64.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "nn/network.hpp"
#include "util/fixed.hpp"

namespace fannet::nn {

/// Percent denominator for relative noise: x' = x * (100 + delta) / 100.
inline constexpr util::i64 kNoiseDen = 100;

/// One quantized layer; `W`/`b` hold Fixed raw values (value * 10^4).
struct QLayer {
  la::Matrix<util::i64> weights;
  std::vector<util::i64> bias;
  bool relu = false;

  [[nodiscard]] std::size_t in_dim() const noexcept { return weights.cols(); }
  [[nodiscard]] std::size_t out_dim() const noexcept { return weights.rows(); }
};

class QuantizedNetwork {
 public:
  QuantizedNetwork() = default;
  // Hand-written only because the fingerprint cache members are atomics
  // (non-copyable); parameter data copies/moves verbatim either way.
  QuantizedNetwork(const QuantizedNetwork& other);
  QuantizedNetwork& operator=(const QuantizedNetwork& other);
  QuantizedNetwork(QuantizedNetwork&& other) noexcept;
  QuantizedNetwork& operator=(QuantizedNetwork&& other) noexcept;
  ~QuantizedNetwork() = default;

  /// Quantizes every weight/bias of `net` to Fixed.  `input_norm` is the
  /// factor the raw integer inputs were divided by for training (the
  /// leukemia pipeline uses 100, mapping x in [1,100] to (0,1]).
  static QuantizedNetwork quantize(const Network& net, util::i64 input_norm);

  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;
  [[nodiscard]] std::size_t depth() const noexcept { return layers_.size(); }
  [[nodiscard]] const std::vector<QLayer>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] util::i64 input_norm() const noexcept { return input_norm_; }

  /// Scale R_l of layer l's pre-activations (R_0 = input scale; see header
  /// comment).  Index 0 is the *input* scale; index l+1 corresponds to
  /// layer l.  Values can exceed int64 for deep nets, hence i128.
  [[nodiscard]] util::i128 scale_at(std::size_t index) const;

  /// Applies integer-percent noise: X_i = x_i * (100 + delta_i).
  /// `deltas` must be empty (no noise) or have exactly one entry per
  /// input; any other size throws InvalidArgument naming both sizes.
  [[nodiscard]] static std::vector<util::i64> noised_inputs(
      std::span<const util::i64> x, std::span<const int> deltas);

  /// Exact scaled outputs N^L for scaled inputs X (see header comment).
  /// `bias_factor` = 100 + delta on the bias input node (100 = no noise).
  [[nodiscard]] std::vector<util::i64> eval_output(
      std::span<const util::i64> X, util::i64 bias_factor = kNoiseDen) const;

  /// Exact scaled pre-activations of every layer (last entry == eval_output).
  [[nodiscard]] std::vector<std::vector<util::i64>> eval_all(
      std::span<const util::i64> X, util::i64 bias_factor = kNoiseDen) const;

  /// argmax over eval_output with ties to the lower index (DESIGN.md §4.5).
  [[nodiscard]] int classify(std::span<const util::i64> X,
                             util::i64 bias_factor = kNoiseDen) const;

  /// Convenience: classify raw integer inputs under an integer-percent
  /// noise vector (empty = no noise).
  [[nodiscard]] int classify_noised(std::span<const util::i64> x,
                                    std::span<const int> deltas,
                                    int bias_delta = 0) const;

  /// De-quantized copy (for comparing against the double-precision path).
  [[nodiscard]] Network dequantize() const;

  /// Stable content fingerprint (FNV-1a over input_norm, layer shapes,
  /// activation flags, and every raw weight/bias value).  Two networks have
  /// equal fingerprints iff they compute the same function parameter-for-
  /// parameter (up to 64-bit hashing), independent of object identity —
  /// the verify-layer query cache keys on it (DESIGN.md §7).
  ///
  /// Memoized: the hash is computed once and cached until a mutation
  /// funnels through `param_slot` (with_param, ScopedParamPatch) — sweep
  /// cache probes no longer re-hash every weight.  The cache is a pair of
  /// atomics (value published before the valid flag with release/acquire),
  /// so concurrent probes of a stable network are race-free; a probe that
  /// loses the race just recomputes the same deterministic hash.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Raw fixed-point value of one parameter.  `col` selects a weight;
  /// `col == in_dim(layer)` selects the bias entry (the convention shared
  /// by every parameter-addressed API on this class).
  [[nodiscard]] util::i64 param_raw(std::size_t layer, std::size_t row,
                                    std::size_t col) const;

  /// Copy with parameter (layer, row, col) set to raw value `raw`.  The
  /// generic single-parameter mutation used by the weight-fault analysis
  /// (core/faults.hpp) for its non-percent fault models.
  [[nodiscard]] QuantizedNetwork with_param(std::size_t layer, std::size_t row,
                                            std::size_t col,
                                            util::i64 raw) const;

  /// Copy with one parameter scaled by (100+percent)/100 (round half away
  /// from zero on the raw fixed-point value; see scaled_param_raw).  Used
  /// by the weight-fault sensitivity extension (core/faults.hpp).
  [[nodiscard]] QuantizedNetwork with_scaled_param(std::size_t layer,
                                                   std::size_t row,
                                                   std::size_t col,
                                                   util::i64 percent) const;

 private:
  friend class ScopedParamPatch;

  /// Throws InvalidArgument unless (layer, row, col) addresses a parameter;
  /// returns the addressed raw slot.  Every mutation goes through here, so
  /// it also invalidates the memoized fingerprint.
  [[nodiscard]] util::i64& param_slot(std::size_t layer, std::size_t row,
                                      std::size_t col);

  /// Drops the memoized fingerprint (next call recomputes).
  void invalidate_fingerprint() const noexcept {
    fp_valid_.store(false, std::memory_order_release);
  }

  /// Adopts `other`'s memoized fingerprint flag-first (see the .cpp note
  /// on why the read order matters).
  void copy_fingerprint_from(const QuantizedNetwork& other) noexcept;

  std::vector<QLayer> layers_;
  util::i64 input_norm_ = 100;
  /// Memoized fingerprint: `fp_value_` is published before `fp_valid_`
  /// (release) and read after it (acquire), so readers never see the flag
  /// without the value.
  mutable std::atomic<std::uint64_t> fp_value_{0};
  mutable std::atomic<bool> fp_valid_{false};
};

/// The raw fixed-point value of `raw` scaled by (100+percent)/100 with
/// round-half-away-from-zero — the arithmetic behind `with_scaled_param`,
/// exposed so the incremental fault scan can compute candidate values
/// without materializing a network copy.
[[nodiscard]] util::i64 scaled_param_raw(util::i64 raw, util::i64 percent);

/// RAII in-place single-parameter patch: sets (layer, row, col) of `net`
/// to `raw` on construction and restores the original value on
/// destruction — no whole-network copy.  The owner must not share `net`
/// across threads (or fingerprint/cache it) while a patch is live; the
/// weight-fault scan gives each worker task its own working copy.
class ScopedParamPatch {
 public:
  ScopedParamPatch(QuantizedNetwork& net, std::size_t layer, std::size_t row,
                   std::size_t col, util::i64 raw);
  ~ScopedParamPatch() {
    *slot_ = original_;
    // The restore bypasses param_slot, so drop the memoized fingerprint
    // explicitly (a fingerprint taken while patched must not survive).
    net_->invalidate_fingerprint();
  }

  ScopedParamPatch(const ScopedParamPatch&) = delete;
  ScopedParamPatch& operator=(const ScopedParamPatch&) = delete;

  /// The pre-patch raw value (restored on destruction).
  [[nodiscard]] util::i64 original() const noexcept { return original_; }

 private:
  QuantizedNetwork* net_;
  util::i64* slot_;
  util::i64 original_;
};

/// Memoized prefix evaluation for single-parameter perturbation scans
/// (DESIGN.md §8).  Construction runs ONE noise-free forward pass per input
/// row and records every layer's pre-activations.  `classify_patched` then
/// answers "what does sample s classify as when parameter (layer, row, col)
/// is patched to raw value v?" starting at the faulted layer ℓ:
///
///   - a single-entry delta update rebuilds the one affected pre-activation
///     of layer ℓ from its memoized value;
///   - that changes one activation a -> a' entering layer ℓ+1.  When
///     a' == a (an inactive ReLU neuron that stays inactive) nothing
///     downstream changes and the memoized class is the answer;
///   - otherwise layer ℓ+1's pre-activations are the memoized ones plus
///     weight column `row` times (a' - a) — a rank-1 update;
///   - layers ℓ+2 onward are re-evaluated in full.
///
/// The unchanged prefix is never recomputed.  Exact, not approximate: each
/// updated entry equals the i128 accumulation a from-scratch pass would
/// compute and is narrowed the same way, so overflow throws exactly where a
/// full rescan would (see DESIGN.md §8.1 for the argument).
///
/// The evaluator holds a pointer to `net`; the network and the input matrix
/// must outlive it.  All methods are const and safe to call concurrently;
/// each thread brings its own `Scratch`.
class PrefixEvaluator {
 public:
  /// Per-thread scratch buffers plus a diagnostic counter of the layers
  /// this scratch actually produced (one per layer, whether by delta
  /// update, rank-1 update or full re-evaluation; a layer aborted by an
  /// overflow throw is not counted, and the memoized class returned when
  /// the activation does not change counts no layer beyond the delta).
  /// Note the weight-fault report's `layer_evaluations` is NOT this
  /// counter: the scan charges a deterministic analytic count (depth minus
  /// faulted layer, per attempted evaluation) so the report is
  /// bit-identical across thread counts even when candidates abort or
  /// return early.
  struct Scratch {
    std::vector<util::i64> act;
    std::vector<util::i64> next;
    std::uint64_t layer_evaluations = 0;
  };

  /// Memoizes the noise-free forward pass of every row of `inputs`.
  PrefixEvaluator(const QuantizedNetwork& net,
                  const la::Matrix<util::i64>& inputs);

  [[nodiscard]] std::size_t samples() const noexcept { return pres_.size(); }

  /// Memoized noise-free classification of row `sample` (== classify_noised
  /// with no deltas).
  [[nodiscard]] int base_class(std::size_t sample) const;

  /// Exact classification of row `sample` with parameter (layer, row, col)
  /// patched to raw value `raw` (`col == in_dim(layer)` selects the bias).
  /// Bit-identical — including ArithmeticError overflow behavior — to
  /// `net.with_param(layer, row, col, raw).classify_noised(inputs.row(sample), {})`.
  [[nodiscard]] int classify_patched(std::size_t sample, std::size_t layer,
                                     std::size_t row, std::size_t col,
                                     util::i64 raw, Scratch& scratch) const;

 private:
  const QuantizedNetwork* net_;
  /// inputs_[s] = scaled noise-free inputs X; pres_[s][l] = layer l
  /// pre-activations (N^l); bias_mult_[l] = the factor layer l's raw bias
  /// is multiplied by (input_norm * 100 for layer 0, else the running
  /// activation scale R_{l-1}).  Activations entering layer l are derived
  /// on demand — X for l == 0, else ReLU?(pres_[l-1]) — rather than
  /// memoized a second time.
  std::vector<std::vector<util::i64>> inputs_;
  std::vector<std::vector<std::vector<util::i64>>> pres_;
  std::vector<util::i64> bias_mult_;
  std::vector<int> base_class_;
};

/// Shared integer argmax rule: lowest index wins ties.
[[nodiscard]] int argmax_tie_low_i64(std::span<const util::i64> v);

}  // namespace fannet::nn
