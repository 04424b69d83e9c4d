// Unit + property tests for the exact quantized evaluator — the arithmetic
// core every formal engine shares (DESIGN.md §4.1).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "nn/network.hpp"
#include "nn/quantized.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fannet::nn {
namespace {

using util::i128;
using util::i64;

Network tiny_net() {
  Layer hidden;
  hidden.weights = la::MatrixD::from_rows({{1.0, -1.0}, {0.5, 0.5}});
  hidden.bias = {0.0, -0.25};
  hidden.activation = Activation::kReLU;
  Layer out;
  out.weights = la::MatrixD::from_rows({{1.0, 0.0}, {0.0, 2.0}});
  out.bias = {0.1, 0.0};
  out.activation = Activation::kLinear;
  return Network({hidden, out});
}

TEST(Quantized, ScalesAreExact) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  EXPECT_EQ(q.scale_at(0), static_cast<i128>(100) * 100);
  EXPECT_EQ(q.scale_at(1), static_cast<i128>(100) * 100 * 10'000);
  EXPECT_EQ(q.scale_at(2),
            static_cast<i128>(100) * 100 * 10'000 * 10'000);
  EXPECT_THROW((void)q.scale_at(3), InvalidArgument);
}

TEST(Quantized, NoisedInputsFormula) {
  const std::vector<i64> x{50, 80};
  const std::vector<int> d{10, -25};
  const auto X = QuantizedNetwork::noised_inputs(x, d);
  EXPECT_EQ(X[0], 50 * 110);
  EXPECT_EQ(X[1], 80 * 75);
  const auto clean = QuantizedNetwork::noised_inputs(x, {});
  EXPECT_EQ(clean[0], 5000);
  EXPECT_EQ(clean[1], 8000);
}

TEST(Quantized, NoisedInputsSizeMismatchThrows) {
  const std::vector<i64> x{1, 2};
  const std::vector<int> d{1};
  EXPECT_THROW(QuantizedNetwork::noised_inputs(x, d), InvalidArgument);
}

TEST(Quantized, NoisedInputsMismatchNamesBothSizes) {
  // The message must name which field is wrong and both sizes — a bare
  // "size mismatch" loses the 30 seconds it takes to find out which span
  // was mis-built.
  const std::vector<i64> x{1, 2, 3};
  const std::vector<int> d{1, 2, 3, 4, 5};
  try {
    (void)QuantizedNetwork::noised_inputs(x, d);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("deltas size 5"), std::string::npos) << message;
    EXPECT_NE(message.find("inputs size 3"), std::string::npos) << message;
  }
}

TEST(Quantized, MatchesHandComputedValues) {
  // x = (100, 50) so u = (1.0, 0.5): hidden pre = (0.5, 0.5),
  // out = (0.6, 1.0).  Scaled by 1e8 and 1e12 respectively.
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const auto X = QuantizedNetwork::noised_inputs({{100, 50}}, {});
  const auto all = q.eval_all(X);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0][0], 50'000'000);        // 0.5 * 1e8
  EXPECT_EQ(all[0][1], 50'000'000);
  EXPECT_EQ(all[1][0], 600'000'000'000);   // 0.6 * 1e12
  EXPECT_EQ(all[1][1], 1'000'000'000'000); // 1.0 * 1e12
  EXPECT_EQ(q.classify(X), 1);
}

TEST(Quantized, ReLUZeroesNegativePreActivations) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  // x = (0? -> inputs are >= 1 in the pipeline, but eval works anyway)
  const auto X = QuantizedNetwork::noised_inputs({{1, 100}}, {});
  // hidden pre: (0.01-1, 0.005+0.5-0.25) = (-0.99, 0.255) -> relu zeroes [0].
  const auto out = q.eval_output(X);
  // out0 = 0*1 + 0.1 = 0.1 scaled; out1 = 2*0.255 = 0.51 scaled.
  EXPECT_EQ(out[0], 100'000'000'000);
  EXPECT_EQ(out[1], 510'000'000'000);
}

TEST(Quantized, BiasNodeFactorScalesFirstLayerBiasOnly) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const auto X = QuantizedNetwork::noised_inputs({{100, 50}}, {});
  // +100% noise on the bias node doubles the first-layer bias term.
  const auto noisy = q.eval_all(X, /*bias_factor=*/200);
  const auto clean = q.eval_all(X, /*bias_factor=*/100);
  // hidden bias was (0, -0.25): neuron 0 unchanged, neuron 1 shifted.
  EXPECT_EQ(noisy[0][0], clean[0][0]);
  EXPECT_EQ(noisy[0][1], clean[0][1] - 25'000'000);  // extra -0.25 * 1e8
}

TEST(Quantized, ClassifyNoisedAgreesWithManualPath) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const std::vector<i64> x{100, 50};
  const std::vector<int> d{-10, 20};
  const auto X = QuantizedNetwork::noised_inputs(x, d);
  EXPECT_EQ(q.classify_noised(x, d), q.classify(X));
}

TEST(Quantized, TieResolvesToLowerIndex) {
  EXPECT_EQ(argmax_tie_low_i64(std::vector<i64>{5, 5}), 0);
  EXPECT_EQ(argmax_tie_low_i64(std::vector<i64>{1, 7, 7}), 1);
  EXPECT_THROW((void)argmax_tie_low_i64(std::vector<i64>{}), InvalidArgument);
}

TEST(Quantized, DequantizeApproximatesOriginal) {
  const Network net = Network::random({3, 6, 2}, 17);
  const QuantizedNetwork q = QuantizedNetwork::quantize(net, 100);
  const Network back = q.dequantize();
  for (std::size_t li = 0; li < net.depth(); ++li) {
    for (std::size_t r = 0; r < net.layers()[li].out_dim(); ++r) {
      for (std::size_t c = 0; c < net.layers()[li].in_dim(); ++c) {
        EXPECT_NEAR(back.layers()[li].weights(r, c),
                    net.layers()[li].weights(r, c), 1.0 / util::Fixed::kScale);
      }
    }
  }
}

TEST(Quantized, BadInputSizesThrow) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const std::vector<i64> wrong{1, 2, 3};
  EXPECT_THROW(q.eval_output(wrong), InvalidArgument);
  EXPECT_THROW(QuantizedNetwork::quantize(tiny_net(), 0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Edge cases: the oracle suite the batched SoA kernel (nn/batch_eval.hpp)
// is checked against — degenerate shapes, extreme bias factors, and argmax
// ties at every output position must be pinned down here first.
// ---------------------------------------------------------------------------
TEST(QuantizedEdge, ZeroLayerNetworkThrowsEverywhere) {
  const QuantizedNetwork empty;
  const std::vector<i64> X{100};
  EXPECT_THROW((void)empty.input_dim(), InvalidArgument);
  EXPECT_THROW((void)empty.output_dim(), InvalidArgument);
  EXPECT_THROW((void)empty.eval_output(X), InvalidArgument);
  EXPECT_THROW((void)empty.eval_all(X), InvalidArgument);
  EXPECT_THROW((void)empty.classify(X), InvalidArgument);
}

TEST(QuantizedEdge, SingleNeuronLayersEvaluateExactly) {
  // 1 -> 1 -> 1: hidden = relu(2u), out = 1 - hidden.
  Layer hidden;
  hidden.weights = la::MatrixD::from_rows({{2.0}});
  hidden.bias = {0.0};
  hidden.activation = Activation::kReLU;
  Layer out;
  out.weights = la::MatrixD::from_rows({{-1.0}});
  out.bias = {1.0};
  out.activation = Activation::kLinear;
  const QuantizedNetwork q =
      QuantizedNetwork::quantize(Network({hidden, out}), 100);

  const auto X = QuantizedNetwork::noised_inputs({{50}}, {});  // u = 0.5
  const auto all = q.eval_all(X);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0][0], 100'000'000);  // 1.0 * 1e8
  EXPECT_EQ(all[1][0], 0);            // (1 - 1.0) * 1e12
  EXPECT_EQ(q.classify(X), 0);        // single class: always 0

  // Negative pre-activation: relu zeroes it, out = 1.0 exactly.
  const auto Xneg = QuantizedNetwork::noised_inputs({{50}}, {{-200}});
  EXPECT_EQ(q.eval_output(Xneg)[0], 1'000'000'000'000);
}

TEST(QuantizedEdge, ExtremeBiasFactorScalesExactlyOrThrows) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const auto X = QuantizedNetwork::noised_inputs({{100, 50}}, {});
  const auto clean = q.eval_all(X, /*bias_factor=*/100);

  // Layer-0 bias contribution is linear in the factor: each +100 adds one
  // more copy of the quantized bias (-0.25 on hidden neuron 1).
  const auto big = q.eval_all(X, /*bias_factor=*/10'000);
  EXPECT_EQ(big[0][0], clean[0][0]);
  EXPECT_EQ(big[0][1], clean[0][1] - 25'000'000 * i64{99});

  // A factor that overflows input_norm * bias_factor must throw, never
  // silently wrap.
  EXPECT_THROW((void)q.eval_all(X, std::numeric_limits<i64>::max()),
               ArithmeticError);
  EXPECT_THROW((void)q.classify(X, std::numeric_limits<i64>::max()),
               ArithmeticError);
}

TEST(QuantizedEdge, ArgmaxTieResolvesLowAtEveryOutputPosition) {
  // Identity single-layer net: outputs are the (scaled) inputs, so ties can
  // be staged at any pair of positions.
  constexpr std::size_t kOut = 4;
  Layer out;
  std::vector<std::vector<double>> rows(kOut, std::vector<double>(kOut, 0.0));
  for (std::size_t i = 0; i < kOut; ++i) rows[i][i] = 1.0;
  out.weights = la::MatrixD::from_rows(rows);
  out.bias = std::vector<double>(kOut, 0.0);
  out.activation = Activation::kLinear;
  const QuantizedNetwork q = QuantizedNetwork::quantize(Network({out}), 100);

  // All-equal: the tie cascade resolves to index 0.
  EXPECT_EQ(q.classify(QuantizedNetwork::noised_inputs(
                std::vector<i64>(kOut, 70), {})),
            0);
  // Every pair (i, j): a two-way tie for the max resolves to i.
  for (std::size_t i = 0; i < kOut; ++i) {
    for (std::size_t j = i + 1; j < kOut; ++j) {
      std::vector<i64> x(kOut, 10);
      x[i] = 90;
      x[j] = 90;
      EXPECT_EQ(q.classify(QuantizedNetwork::noised_inputs(x, {})),
                static_cast<int>(i))
          << "tie at " << i << "," << j;
    }
  }
  // A strict max at each position wins outright.
  for (std::size_t k = 0; k < kOut; ++k) {
    std::vector<i64> x(kOut, 10);
    x[k] = 90;
    EXPECT_EQ(q.classify(QuantizedNetwork::noised_inputs(x, {})),
              static_cast<int>(k));
  }
}

// ---------------------------------------------------------------------------
// Fingerprint memoization: repeated probes hit the cache; every mutation
// path (with_param, ScopedParamPatch) invalidates it, and copies carry the
// cache without aliasing it.
// ---------------------------------------------------------------------------
TEST(Quantized, FingerprintMemoizedAndInvalidated) {
  QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const i64 original = q.param_raw(0, 0, 0);
  const std::uint64_t fp = q.fingerprint();
  EXPECT_EQ(q.fingerprint(), fp);  // memoized probe, same value

  const QuantizedNetwork copy = q;  // cache travels with the copy
  EXPECT_EQ(copy.fingerprint(), fp);

  // with_param invalidates on the mutated copy — and the cache is not
  // stale: patching the original value back restores the fingerprint.
  const QuantizedNetwork patched = q.with_param(0, 0, 0, 123);
  EXPECT_NE(patched.fingerprint(), fp);
  EXPECT_EQ(patched.with_param(0, 0, 0, original).fingerprint(), fp);

  {
    const ScopedParamPatch patch(q, 0, 0, 0, 777);
    EXPECT_NE(q.fingerprint(), fp);  // cache invalidated by the patch
  }
  EXPECT_EQ(q.fingerprint(), fp);  // ...and by its restore
}

// ---------------------------------------------------------------------------
// Single-parameter access and patching (the weight-fault substrate)
// ---------------------------------------------------------------------------
TEST(ParamAccess, ParamRawAndWithParam) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  EXPECT_EQ(q.param_raw(0, 0, 0), 10'000);        // weight 1.0
  EXPECT_EQ(q.param_raw(0, 1, 2), -2'500);        // bias -0.25 (col == in_dim)
  const QuantizedNetwork patched = q.with_param(1, 0, 1, 777);
  EXPECT_EQ(patched.param_raw(1, 0, 1), 777);
  EXPECT_EQ(q.param_raw(1, 0, 1), 0);             // original untouched
  EXPECT_THROW((void)q.param_raw(9, 0, 0), InvalidArgument);
  EXPECT_THROW((void)q.with_param(0, 9, 0, 1), InvalidArgument);
  EXPECT_THROW((void)q.with_param(0, 0, 9, 1), InvalidArgument);
}

TEST(ParamAccess, ScaledParamRawMatchesWithScaledParam) {
  EXPECT_EQ(scaled_param_raw(10'000, 17), 11'700);
  EXPECT_EQ(scaled_param_raw(-2'500, -50), -1'250);
  EXPECT_EQ(scaled_param_raw(5'000, 33), 6'650);  // round half away from zero
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const QuantizedNetwork scaled = q.with_scaled_param(0, 0, 0, 17);
  EXPECT_EQ(scaled.param_raw(0, 0, 0), scaled_param_raw(q.param_raw(0, 0, 0), 17));
}

TEST(ParamAccess, ScopedParamPatchRestoresOnDestruction) {
  QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  const std::uint64_t before = q.fingerprint();
  {
    const ScopedParamPatch patch(q, 0, 0, 0, 123);
    EXPECT_EQ(patch.original(), 10'000);
    EXPECT_EQ(q.param_raw(0, 0, 0), 123);
    EXPECT_NE(q.fingerprint(), before);
  }
  EXPECT_EQ(q.param_raw(0, 0, 0), 10'000);
  EXPECT_EQ(q.fingerprint(), before);
  EXPECT_THROW(ScopedParamPatch(q, 5, 0, 0, 1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// PrefixEvaluator: the incremental patched-classification path must be
// bit-identical to mutating the network and evaluating from scratch, for
// every parameter position (weights and biases, every layer) and a spread
// of patched values.  Two inputs: tiny_net (a fault's rank-1 step lands on
// the output layer) and a random 3-5-4-2 net (a rank-1 step followed by a
// full layer).
// ---------------------------------------------------------------------------
TEST(PrefixEvaluator, MatchesFullEvaluationForEveryParam) {
  la::Matrix<i64> tiny_inputs(3, 2);
  tiny_inputs(0, 0) = 80; tiny_inputs(0, 1) = 30;
  tiny_inputs(1, 0) = 20; tiny_inputs(1, 1) = 90;
  tiny_inputs(2, 0) = 55; tiny_inputs(2, 1) = 55;
  la::Matrix<i64> deep_inputs(4, 3);
  util::Rng rng(29);
  for (std::size_t s = 0; s < deep_inputs.rows(); ++s) {
    for (std::size_t i = 0; i < deep_inputs.cols(); ++i) {
      deep_inputs(s, i) = rng.uniform_int(1, 100);
    }
  }
  const std::pair<QuantizedNetwork, la::Matrix<i64>> cases[] = {
      {QuantizedNetwork::quantize(tiny_net(), 100), tiny_inputs},
      {QuantizedNetwork::quantize(Network::random({3, 5, 4, 2}, 31), 100),
       deep_inputs}};

  for (const auto& [q, inputs] : cases) {
    const PrefixEvaluator prefix(q, inputs);
    ASSERT_EQ(prefix.samples(), inputs.rows());
    PrefixEvaluator::Scratch scratch;

    for (std::size_t s = 0; s < inputs.rows(); ++s) {
      EXPECT_EQ(prefix.base_class(s), q.classify_noised(inputs.row(s), {}));
    }
    for (std::size_t li = 0; li < q.depth(); ++li) {
      const QLayer& layer = q.layers()[li];
      for (std::size_t row = 0; row < layer.out_dim(); ++row) {
        for (std::size_t col = 0; col <= layer.in_dim(); ++col) {
          const i64 original = q.param_raw(li, row, col);
          for (const i64 raw : {i64{0}, original, -original, original * 2 + 1,
                                original - 12'345, original * 40}) {
            const QuantizedNetwork mutated = q.with_param(li, row, col, raw);
            for (std::size_t s = 0; s < inputs.rows(); ++s) {
              EXPECT_EQ(
                  prefix.classify_patched(s, li, row, col, raw, scratch),
                  mutated.classify_noised(inputs.row(s), {}))
                  << "depth " << q.depth() << " layer " << li << " row "
                  << row << " col " << col << " raw " << raw << " sample "
                  << s;
            }
          }
        }
      }
    }
    EXPECT_GT(scratch.layer_evaluations, 0u);
  }
}

TEST(PrefixEvaluator, CountsOnlySuffixLayers) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 80; inputs(0, 1) = 30;
  const PrefixEvaluator prefix(q, inputs);

  PrefixEvaluator::Scratch scratch;
  (void)prefix.classify_patched(0, 0, 0, 0, 42, scratch);
  EXPECT_EQ(scratch.layer_evaluations, 2u);  // delta at layer 0 + layer 1
  (void)prefix.classify_patched(0, 1, 0, 0, 42, scratch);
  EXPECT_EQ(scratch.layer_evaluations, 3u);  // output-layer fault: +1 only
}

TEST(PrefixEvaluator, OverflowBehaviorMatchesFullEvaluation) {
  const QuantizedNetwork q = QuantizedNetwork::quantize(tiny_net(), 100);
  la::Matrix<i64> inputs(2, 2);
  inputs(0, 0) = 80; inputs(0, 1) = 30;
  inputs(1, 0) = 20; inputs(1, 1) = 90;
  const PrefixEvaluator prefix(q, inputs);
  PrefixEvaluator::Scratch scratch;

  // A near-int64-max weight overflows the faulted layer's own exact
  // accumulation in both paths.
  const i64 huge = std::numeric_limits<i64>::max() / 2;
  EXPECT_THROW((void)q.with_param(0, 0, 0, huge).classify_noised(
                   inputs.row(0), {}),
               ArithmeticError);
  EXPECT_THROW((void)prefix.classify_patched(0, 0, 0, 0, huge, scratch),
               ArithmeticError);
  EXPECT_THROW((void)prefix.classify_patched(0, 9, 0, 0, 1, scratch),
               InvalidArgument);

  // The faulted hidden pre-activation fits int64 (10^12 * 8000 - 3 * 10^7),
  // but the output layer's 10^4-scaled accumulation of it does not: the
  // rank-1 entry must throw exactly like the full rescan.
  const i64 large = 1'000'000'000'000;
  EXPECT_THROW((void)q.with_param(0, 0, 0, large).classify_noised(
                   inputs.row(0), {}),
               ArithmeticError);
  EXPECT_THROW((void)prefix.classify_patched(0, 0, 0, 0, large, scratch),
               ArithmeticError);

  // Sample 1 leaves hidden neuron 0 inactive (20 - 90 < 0).  A more
  // negative weight on input 1 keeps it inactive, so no activation changes
  // and the memoized class is the answer after the delta step alone, even
  // for a weight far outside the trained range.
  for (const i64 raw : {i64{-20'000}, i64{-100'000'000'000'000}}) {
    const std::uint64_t before = scratch.layer_evaluations;
    EXPECT_EQ(prefix.classify_patched(1, 0, 0, 1, raw, scratch),
              q.with_param(0, 0, 1, raw).classify_noised(inputs.row(1), {}))
        << raw;
    EXPECT_EQ(prefix.classify_patched(1, 0, 0, 1, raw, scratch),
              prefix.base_class(1))
        << raw;
    EXPECT_EQ(scratch.layer_evaluations, before + 2) << raw;  // deltas only
  }
}

// ---------------------------------------------------------------------------
// Property sweep: the quantized integer path must agree with double-precision
// evaluation of the dequantized network wherever the margin is not razor-thin
// (exact ties are decided by the integer path; doubles cannot represent them).
// ---------------------------------------------------------------------------
class QuantizedAgreement : public testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantizedAgreement, IntegerAndDoublePathsAgree) {
  util::Rng rng(GetParam());
  const Network net = Network::random({4, 10, 3}, GetParam() * 7 + 1);
  const QuantizedNetwork q = QuantizedNetwork::quantize(net, 100);
  const Network deq = q.dequantize();

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<i64> x(4);
    std::vector<double> u(4);
    for (std::size_t i = 0; i < 4; ++i) {
      x[i] = rng.uniform_int(1, 100);
      u[i] = static_cast<double>(x[i]) / 100.0;
    }
    const auto X = QuantizedNetwork::noised_inputs(x, {});
    const auto exact_out = q.eval_output(X);
    const auto dbl_out = deq.forward(u);
    // Compare classifications only when the double margin is meaningful.
    double best = -1e300, second = -1e300;
    for (const double v : dbl_out) {
      if (v > best) { second = best; best = v; }
      else if (v > second) { second = v; }
    }
    if (best - second > 1e-9) {
      EXPECT_EQ(q.classify(X), deq.classify(u))
          << "seed=" << GetParam() << " trial=" << trial;
    }
    // The scaled integers must match the doubles to float precision.
    const double scale = static_cast<double>(q.scale_at(2));
    for (std::size_t k = 0; k < exact_out.size(); ++k) {
      EXPECT_NEAR(static_cast<double>(exact_out[k]) / scale, dbl_out[k], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizedAgreement,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fannet::nn
