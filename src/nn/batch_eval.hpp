/// \file
/// \brief Batched structure-of-arrays forward evaluation (DESIGN.md §10).
///
/// The noise analyses bottom out in thousands of independent forward
/// passes over ONE set of weights.  Its consumers are enumerate's grid
/// walks (tolerance screens and descents, sensitivity probes) and bnb's
/// box-corner flip drains.  `BatchEvaluator` evaluates N samples
/// simultaneously with activations stored [neuron][sample]: the inner
/// int64 multiply-accumulate runs over the sample lanes with stride 1, so
/// plain -O2/-O3 auto-vectorizes it (no intrinsics; the
/// FANNET_VERIFY_VECTORIZE CMake knob makes CI prove the loop still
/// vectorizes).  The weight-fault scan does not use it: its rank-1 update
/// (quantized.hpp's `PrefixEvaluator`) costs a few multiply-adds per
/// candidate, less than staging a lane.
///
/// Results are bit-identical to the scalar path (quantized.hpp's
/// `eval_output`/`classify`, the reference oracle), including overflow
/// behavior and lower-index argmax ties:
///
///   - Fast path: before each layer the evaluator bounds every neuron's
///     accumulation as |b_j|*bias_mult_max + (Σ_i |w_ji|)*max|act| in
///     saturating 128-bit arithmetic.  When every bound fits int64 the layer
///     runs as a wrap-free uint64 MAC kernel: two's-complement wraparound
///     arithmetic equals the true __int128 sum mod 2^64, which is exact
///     whenever the true sum fits int64 — and the bound just proved it does.
///   - Exact path: when some bound does not fit, the layer falls back to the
///     scalar algebra (__int128 accumulation per lane) and lanes whose
///     narrowing would throw are flagged `overflowed` instead.  A flagged
///     lane means "the scalar evaluation of this sample throws
///     ArithmeticError"; callers that must reproduce the exact exception
///     re-run the scalar path for that one lane (rare by construction).
///
/// The evaluator is immutable after construction and safe to share across
/// threads; each thread stages lanes into its own `Batch`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/quantized.hpp"

namespace fannet::nn {

class BatchEvaluator {
 public:
  /// Lane count used when a caller passes batch hint 0 ("auto"): big
  /// enough to amortize per-layer dispatch and fill vector registers,
  /// small enough that early-exit scans waste little work.
  static constexpr std::size_t kAutoBatch = 64;

  /// Resolves a user-facing batch knob (0 = auto) to a concrete lane count.
  [[nodiscard]] static constexpr std::size_t resolve_batch(
      std::size_t batch) noexcept {
    return batch == 0 ? kAutoBatch : batch;
  }

  /// A staged set of evaluation lanes plus the reusable SoA buffers.
  /// Stage lanes with push_noised/push_scaled, call
  /// `BatchEvaluator::run(batch)`, then read label()/outputs()/overflowed()
  /// per lane.  clear() keeps the buffers for the next chunk.
  class Batch {
   public:
    [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
    void clear() noexcept { lanes_ = 0; }

    /// Stages one lane from raw inputs plus integer-percent noise — the
    /// `noised_inputs` algebra.  `bias_factor` = 100 + bias-node delta.
    /// Scaling overflow marks the lane overflowed instead of throwing.
    void push_noised(std::span<const util::i64> x, std::span<const int> deltas,
                     util::i64 bias_factor);

    /// Stages one lane of already-scaled inputs X (`eval_output`'s
    /// contract).
    void push_scaled(std::span<const util::i64> X, util::i64 bias_factor);

    /// True iff the scalar evaluation of this lane would throw
    /// ArithmeticError; the lane's outputs/label are unspecified.  Valid
    /// after run() (staging-time overflows are visible immediately).
    [[nodiscard]] bool overflowed(std::size_t lane) const {
      return overflow_[lane] != 0;
    }

    /// Scaled output vector N^L of one lane (valid after run()).
    [[nodiscard]] std::span<const util::i64> outputs(std::size_t lane) const {
      return {outputs_.data() + lane * out_dim_, out_dim_};
    }

    /// argmax tie-to-lower-index of one lane (valid after run()).
    [[nodiscard]] int label(std::size_t lane) const { return labels_[lane]; }

   private:
    friend class BatchEvaluator;
    std::size_t in_dim_ = 0;
    std::size_t out_dim_ = 0;
    std::size_t lanes_ = 0;
    std::vector<util::i64> x_;            // lane-major staging [lane][input]
    std::vector<util::i64> bias_factor_;  // per lane
    std::vector<std::uint8_t> overflow_;  // per lane
    // Working buffers owned here so one Batch serves many run() calls.
    std::vector<util::u64> act_;
    std::vector<util::u64> next_;
    std::vector<util::i64> bm0_;      // per-lane layer-0 bias multiplier
    std::vector<util::i64> outputs_;  // lane-major [lane][output]
    std::vector<int> labels_;
    std::vector<util::i64> best_;  // argmax scratch
  };

  /// Precomputes per-layer bias multipliers and absolute row sums (the
  /// overflow-precheck bounds).  Never throws for nets the scalar path can
  /// evaluate; nets whose running scale overflows int64 mark every lane
  /// overflowed at run() time instead (the scalar path throws for every
  /// input of such a net).  `net` must outlive the evaluator.
  explicit BatchEvaluator(const QuantizedNetwork& net);

  [[nodiscard]] const QuantizedNetwork& net() const noexcept { return *net_; }

  /// A batch bound to this network's input/output dimensions.
  [[nodiscard]] Batch make_batch() const;

  /// Evaluates every staged lane; fills outputs, labels and overflow
  /// flags.  Bit-identical per lane to the scalar
  /// `classify(X, bias_factor)` — lanes where the scalar path would throw
  /// ArithmeticError come back flagged instead (see file comment).
  void run(Batch& batch) const;

 private:
  const QuantizedNetwork* net_;
  /// Running bias multiplier per layer (layer 0's is per-lane at run time;
  /// entry 0 holds input_norm * 100 for reference).  Empty tail when the
  /// scale chain overflows int64 — see scale_chain_overflow_.
  std::vector<util::i64> bias_mult_;
  /// Σ_i |w_ji| per layer per neuron, saturated to uint64 (saturation just
  /// forces the exact path, keeping the precheck conservative).
  std::vector<std::vector<util::u64>> abs_rowsum_;
  /// True when the scalar act_scale chain (input_norm*100, then *10^4 per
  /// layer, checked after EVERY layer including the last) overflows int64:
  /// the scalar path throws for every input, so run() flags every lane.
  bool scale_chain_overflow_ = false;
};

}  // namespace fannet::nn
