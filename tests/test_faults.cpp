// Tests for the weight-fault sensitivity extension (core/faults.hpp) and
// the underlying parameter-perturbation primitive.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/casestudy.hpp"
#include "core/faults.hpp"
#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fannet::core {
namespace {

using util::i64;

nn::QuantizedNetwork tiny_qnet() {
  nn::Layer hidden;
  hidden.weights = la::MatrixD::from_rows({{1.0, -1.0}, {0.5, 0.5}});
  hidden.bias = {0.0, -0.25};
  hidden.activation = nn::Activation::kReLU;
  nn::Layer out;
  out.weights = la::MatrixD::from_rows({{1.0, 0.0}, {0.0, 2.0}});
  out.bias = {0.1, 0.0};
  out.activation = nn::Activation::kLinear;
  return nn::QuantizedNetwork::quantize(nn::Network({hidden, out}), 100);
}

TEST(ScaledParam, ScalesWeightExactly) {
  const nn::QuantizedNetwork net = tiny_qnet();
  // weight (0,0,0) is 1.0 -> raw 10000; +17% -> 11700.
  const auto up = net.with_scaled_param(0, 0, 0, 17);
  EXPECT_EQ(up.layers()[0].weights(0, 0), 11'700);
  // -50% of -0.25 bias (raw -2500) -> -1250.
  const auto down = net.with_scaled_param(0, 1, 2, -50);
  EXPECT_EQ(down.layers()[0].bias[1], -1'250);
  // Rounding: raw 10000 * 1.015 / ... choose odd: 0.5 raw 5000 * (100+33)/100
  const auto odd = net.with_scaled_param(0, 1, 0, 33);
  EXPECT_EQ(odd.layers()[0].weights(1, 0), 6'650);
}

TEST(ScaledParam, LeavesOtherParamsUntouched) {
  const nn::QuantizedNetwork net = tiny_qnet();
  const auto mutated = net.with_scaled_param(1, 0, 0, 25);
  EXPECT_EQ(mutated.layers()[0].weights, net.layers()[0].weights);
  EXPECT_EQ(mutated.layers()[1].weights(0, 1), net.layers()[1].weights(0, 1));
  EXPECT_NE(mutated.layers()[1].weights(0, 0), net.layers()[1].weights(0, 0));
}

TEST(ScaledParam, IndexChecks) {
  const nn::QuantizedNetwork net = tiny_qnet();
  EXPECT_THROW(net.with_scaled_param(5, 0, 0, 10), InvalidArgument);
  EXPECT_THROW(net.with_scaled_param(0, 9, 0, 10), InvalidArgument);
  EXPECT_THROW(net.with_scaled_param(0, 0, 9, 10), InvalidArgument);
  // col == in_dim is the bias, legal:
  EXPECT_NO_THROW(net.with_scaled_param(0, 0, 2, 10));
}

TEST(WeightFaults, MinimalityOfReportedPercent) {
  const nn::QuantizedNetwork net = tiny_qnet();
  la::Matrix<i64> inputs(2, 2);
  inputs(0, 0) = 80; inputs(0, 1) = 30;
  inputs(1, 0) = 20; inputs(1, 1) = 90;
  std::vector<int> labels(2);
  for (std::size_t s = 0; s < 2; ++s) {
    labels[s] = net.classify_noised(inputs.row(s), {});
  }
  const WeightFaultReport report =
      analyze_weight_faults(net, inputs, labels, {.max_percent = 50, .step = 1});
  ASSERT_FALSE(report.faults.empty());
  for (const WeightFault& f : report.faults) {
    if (!f.min_flip_percent) continue;
    const std::size_t col = f.is_bias()
                                ? net.layers()[f.layer].in_dim()
                                : f.col;
    // At the reported percent the flip happens...
    const auto at = net.with_scaled_param(f.layer, f.row, col,
                                          f.flip_sign * *f.min_flip_percent);
    bool flips = false;
    for (std::size_t s = 0; s < 2; ++s) {
      flips |= at.classify_noised(inputs.row(s), {}) != labels[s];
    }
    EXPECT_TRUE(flips);
    // ...and at magnitude-1 (both signs) it does not.
    if (*f.min_flip_percent > 1) {
      for (const int sign : {+1, -1}) {
        const auto below = net.with_scaled_param(
            f.layer, f.row, col, sign * (*f.min_flip_percent - 1));
        for (std::size_t s = 0; s < 2; ++s) {
          EXPECT_EQ(below.classify_noised(inputs.row(s), {}), labels[s]);
        }
      }
    }
  }
}

TEST(WeightFaults, DeadWeightIsRobust) {
  // Output row 0 ignores hidden neuron 1 (weight 0): scaling zero stays
  // zero, so that parameter can never flip anything.
  const nn::QuantizedNetwork net = tiny_qnet();
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 80; inputs(0, 1) = 30;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  const WeightFaultReport report =
      analyze_weight_faults(net, inputs, labels, {.max_percent = 50, .step = 1});
  for (const WeightFault& f : report.faults) {
    if (f.layer == 1 && f.row == 0 && f.col == 1) {
      EXPECT_FALSE(f.min_flip_percent.has_value());
    }
  }
}

TEST(WeightFaults, ReportShapeAndCounts) {
  const nn::QuantizedNetwork net = tiny_qnet();
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 70; inputs(0, 1) = 40;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  const WeightFaultReport report =
      analyze_weight_faults(net, inputs, labels, {.max_percent = 20, .step = 1});
  // Parameters: layer0 2x(2+1) + layer1 2x(2+1) = 12.
  EXPECT_EQ(report.faults.size(), 12u);
  std::size_t robust = 0;
  for (const auto& f : report.faults) robust += !f.min_flip_percent;
  EXPECT_EQ(robust, report.robust_weights);
  EXPECT_GT(report.evaluations, 0u);
}

TEST(WeightFaults, MostFragileSortedAscending) {
  const CaseStudy cs = build_case_study(small_case_study_config());
  const WeightFaultReport report =
      analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y, {.max_percent = 30, .step = 2});
  const auto top = most_fragile_weights(report, 5);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(*top[i - 1].min_flip_percent, *top[i].min_flip_percent);
  }
  if (!top.empty()) {
    const std::string text = format_weight_faults(report, 5);
    EXPECT_NE(text.find("rank"), std::string::npos);
  }
}

// Field-by-field identity of two reports; layer_evaluations is compared
// only when `include_layer_evals` (it legitimately differs between the
// naive and incremental engines — that difference is the point).
void expect_reports_identical(const WeightFaultReport& a,
                              const WeightFaultReport& b,
                              bool include_layer_evals) {
  EXPECT_EQ(a.robust_weights, b.robust_weights);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.undecided_candidates, b.undecided_candidates);
  EXPECT_EQ(a.model, b.model);
  if (include_layer_evals) {
    EXPECT_EQ(a.layer_evaluations, b.layer_evaluations);
  }
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const WeightFault& fa = a.faults[i];
    const WeightFault& fb = b.faults[i];
    EXPECT_EQ(fa.layer, fb.layer);
    EXPECT_EQ(fa.row, fb.row);
    EXPECT_EQ(fa.col, fb.col);
    EXPECT_EQ(fa.min_flip_percent, fb.min_flip_percent) << "fault " << i;
    EXPECT_EQ(fa.flip_sign, fb.flip_sign) << "fault " << i;
    EXPECT_EQ(fa.flipped_sample, fb.flipped_sample) << "fault " << i;
    EXPECT_EQ(fa.flipped_raw, fb.flipped_raw) << "fault " << i;
  }
  // Memberwise operator== backstop: fields added to WeightFault later are
  // compared even before this helper learns to print them.
  EXPECT_TRUE(a.faults == b.faults);
}

/// A network, its samples and their labels.
struct FaultCase {
  nn::QuantizedNetwork net;
  la::Matrix<i64> inputs;
  std::vector<int> labels;
};

/// A random 3-5-4-2 net on eight random samples, labelled by its own
/// classification except sample 0 (so the correct-sample filter drops
/// one).  Unlike the one-hidden-layer nets elsewhere in this file, a
/// first-layer fault's rank-1 step is followed by a full layer.
FaultCase three_layer_case() {
  FaultCase c{nn::QuantizedNetwork::quantize(
                  nn::Network::random({3, 5, 4, 2}, 37), 100),
              la::Matrix<i64>(8, 3), {}};
  util::Rng rng(41);
  for (std::size_t s = 0; s < c.inputs.rows(); ++s) {
    for (std::size_t i = 0; i < c.inputs.cols(); ++i) {
      c.inputs(s, i) = rng.uniform_int(1, 100);
    }
    const int cls = c.net.classify_noised(c.inputs.row(s), {});
    c.labels.push_back(s == 0 ? 1 - cls : cls);
  }
  return c;
}

TEST(WeightFaults, IncrementalMatchesNaiveOnTrainedNet) {
  const CaseStudy cs = build_case_study(small_case_study_config());
  const FaultCase cases[] = {{cs.qnet, cs.test_x, cs.test_y},
                             three_layer_case()};
  for (const FaultCase& c : cases) {
    SCOPED_TRACE("depth " + std::to_string(c.net.depth()));
    WeightFaultConfig config;
    config.max_percent = 30;
    config.step = 2;
    config.threads = 1;

    config.scan = FaultScan::kNaive;
    const WeightFaultReport naive =
        analyze_weight_faults(c.net, c.inputs, c.labels, config);

    config.scan = FaultScan::kIncremental;
    const WeightFaultReport incremental =
        analyze_weight_faults(c.net, c.inputs, c.labels, config);
    expect_reports_identical(naive, incremental, false);
    // The incremental engine never re-evaluates the unchanged prefix, so
    // its per-layer evaluation count is strictly lower.
    EXPECT_LT(incremental.layer_evaluations, naive.layer_evaluations);
    EXPECT_GT(incremental.layer_evaluations, 0u);

    // Bit-identical (including the cost counters) for every thread count.
    for (const std::size_t threads : {2, 8}) {
      config.threads = threads;
      const WeightFaultReport parallel =
          analyze_weight_faults(c.net, c.inputs, c.labels, config);
      expect_reports_identical(incremental, parallel, true);
      config.scan = FaultScan::kNaive;
      const WeightFaultReport naive_parallel =
          analyze_weight_faults(c.net, c.inputs, c.labels, config);
      expect_reports_identical(naive, naive_parallel, true);
      config.scan = FaultScan::kIncremental;
    }
  }
}

TEST(WeightFaults, StepLargerThanMaxPercentScansNothing) {
  const nn::QuantizedNetwork net = tiny_qnet();
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 80; inputs(0, 1) = 30;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  WeightFaultConfig config;
  config.max_percent = 5;
  config.step = 7;  // first candidate magnitude already beyond the range
  for (const FaultScan scan : {FaultScan::kIncremental, FaultScan::kNaive}) {
    config.scan = scan;
    const WeightFaultReport report =
        analyze_weight_faults(net, inputs, labels, config);
    EXPECT_EQ(report.robust_weights, report.faults.size());
    EXPECT_EQ(report.evaluations, 0u);
    EXPECT_EQ(report.layer_evaluations, 0u);
  }
}

TEST(WeightFaults, OnlyBiasFragileNetwork) {
  // All-zero weights: the classification is decided by the biases alone.
  // Scaling a zero weight keeps it zero, so every weight is robust and
  // only bias faults can flip — including for the incremental engine's
  // output-layer shortcut (this net is single-layer).
  nn::Layer only;
  only.weights = la::MatrixD::from_rows({{0.0, 0.0}, {0.0, 0.0}});
  only.bias = {0.5, 0.4999};
  only.activation = nn::Activation::kLinear;
  const nn::QuantizedNetwork net =
      nn::QuantizedNetwork::quantize(nn::Network({only}), 100);

  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 10; inputs(0, 1) = 90;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  ASSERT_EQ(labels[0], 0);

  WeightFaultConfig config;
  config.max_percent = 10;
  config.scan = FaultScan::kNaive;
  const WeightFaultReport naive =
      analyze_weight_faults(net, inputs, labels, config);
  config.scan = FaultScan::kIncremental;
  const WeightFaultReport incremental =
      analyze_weight_faults(net, inputs, labels, config);
  expect_reports_identical(naive, incremental, false);

  std::size_t fragile_biases = 0;
  for (const WeightFault& f : incremental.faults) {
    if (!f.is_bias()) {
      EXPECT_FALSE(f.min_flip_percent.has_value());
    } else if (f.min_flip_percent) {
      ++fragile_biases;
    }
  }
  EXPECT_GT(fragile_biases, 0u);
}

TEST(WeightFaults, StuckAtZeroAndSignFlipMatchManualInjection) {
  const nn::QuantizedNetwork net = tiny_qnet();
  la::Matrix<i64> inputs(2, 2);
  inputs(0, 0) = 80; inputs(0, 1) = 30;
  inputs(1, 0) = 20; inputs(1, 1) = 90;
  std::vector<int> labels(2);
  for (std::size_t s = 0; s < 2; ++s) {
    labels[s] = net.classify_noised(inputs.row(s), {});
  }

  for (const FaultModel model :
       {FaultModel::kStuckAtZero, FaultModel::kSignFlip}) {
    WeightFaultConfig config;
    config.model = model;
    config.scan = FaultScan::kNaive;
    const WeightFaultReport naive =
        analyze_weight_faults(net, inputs, labels, config);
    config.scan = FaultScan::kIncremental;
    const WeightFaultReport report =
        analyze_weight_faults(net, inputs, labels, config);
    expect_reports_identical(naive, report, false);
    EXPECT_EQ(report.model, model);

    for (const WeightFault& f : report.faults) {
      const std::size_t col = f.is_bias() ? net.layers()[f.layer].in_dim()
                                          : f.col;
      const i64 original = net.param_raw(f.layer, f.row, col);
      const i64 faulted = (model == FaultModel::kStuckAtZero) ? 0 : -original;
      const auto mutated = net.with_param(f.layer, f.row, col, faulted);
      bool flips = false;
      for (std::size_t s = 0; s < 2; ++s) {
        flips |= mutated.classify_noised(inputs.row(s), {}) != labels[s];
      }
      // The report must claim a flip exactly when injecting the fault by
      // hand flips a sample.
      EXPECT_EQ(f.min_flip_percent.has_value(), flips);
      if (f.min_flip_percent) {
        EXPECT_EQ(*f.min_flip_percent, 0);
        EXPECT_EQ(f.flipped_raw, faulted);
      }
    }
  }
}

TEST(WeightFaults, BitFlipIdentityOnTrainedTinyNet) {
  FaultCase tiny{tiny_qnet(), la::Matrix<i64>(2, 2), {}};
  tiny.inputs(0, 0) = 80; tiny.inputs(0, 1) = 30;
  tiny.inputs(1, 0) = 20; tiny.inputs(1, 1) = 90;
  for (std::size_t s = 0; s < 2; ++s) {
    tiny.labels.push_back(tiny.net.classify_noised(tiny.inputs.row(s), {}));
  }

  const FaultCase cases[] = {tiny, three_layer_case()};
  for (const FaultCase& c : cases) {
    SCOPED_TRACE("depth " + std::to_string(c.net.depth()));
    WeightFaultConfig config;
    config.model = FaultModel::kBitFlip;
    config.scan = FaultScan::kNaive;
    const WeightFaultReport naive =
        analyze_weight_faults(c.net, c.inputs, c.labels, config);
    config.scan = FaultScan::kIncremental;
    const WeightFaultReport incremental =
        analyze_weight_faults(c.net, c.inputs, c.labels, config);
    expect_reports_identical(naive, incremental, false);
    EXPECT_LT(incremental.layer_evaluations, naive.layer_evaluations);
  }
}

TEST(WeightFaults, BitFlipUndecidedCandidatesCountedIdentically) {
  // out0 = 1.0*x + 0.5, out1 = 0.0*x - 3.0: the margin is so wide that no
  // decidable bit flip of w00 or b0 can flip the argmax — but high-order
  // flips push the exact accumulation out of int64, so both engines must
  // skip (and count) the same candidates instead of guessing.
  nn::Layer only;
  only.weights = la::MatrixD::from_rows({{1.0}, {0.0}});
  only.bias = {0.5, -3.0};
  only.activation = nn::Activation::kLinear;
  const nn::QuantizedNetwork net =
      nn::QuantizedNetwork::quantize(nn::Network({only}), 100);

  la::Matrix<i64> inputs(1, 1);
  inputs(0, 0) = 10;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  ASSERT_EQ(labels[0], 0);

  WeightFaultConfig config;
  config.model = FaultModel::kBitFlip;
  config.scan = FaultScan::kNaive;
  const WeightFaultReport naive =
      analyze_weight_faults(net, inputs, labels, config);
  config.scan = FaultScan::kIncremental;
  const WeightFaultReport incremental =
      analyze_weight_faults(net, inputs, labels, config);
  expect_reports_identical(naive, incremental, false);
  EXPECT_GT(incremental.undecided_candidates, 0u);
  // w10 = 0 still flips at a moderate bit (out1 grows past out0), so the
  // model surfaces fragility and undecidability side by side.
  bool some_flip = false;
  for (const WeightFault& f : incremental.faults) {
    some_flip |= f.min_flip_percent.has_value();
  }
  EXPECT_TRUE(some_flip);

  for (const std::size_t threads : {2, 8}) {
    config.threads = threads;
    const WeightFaultReport parallel =
        analyze_weight_faults(net, inputs, labels, config);
    expect_reports_identical(incremental, parallel, true);
  }
}

TEST(WeightFaults, OverflowingCandidateGenerationIsCountedNotFatal) {
  // Parameter (0,0,0) holds INT64_MIN but multiplies a dead input (x0 = 0),
  // so the base forward pass is exact — yet *computing* its sign-flipped or
  // percent-scaled value overflows int64.  The scan must count such
  // candidates as undecided, not abort the whole analysis.
  const nn::QuantizedNetwork net =
      tiny_qnet().with_param(0, 0, 0, std::numeric_limits<i64>::min());
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 0; inputs(0, 1) = 30;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};

  for (const FaultModel model :
       {FaultModel::kSignFlip, FaultModel::kPercentScale}) {
    WeightFaultConfig config;
    config.model = model;
    config.max_percent = 10;
    config.scan = FaultScan::kNaive;
    const WeightFaultReport naive =
        analyze_weight_faults(net, inputs, labels, config);
    config.scan = FaultScan::kIncremental;
    const WeightFaultReport incremental =
        analyze_weight_faults(net, inputs, labels, config);
    expect_reports_identical(naive, incremental, false);
    EXPECT_GT(incremental.undecided_candidates, 0u)
        << fault_model_name(model);
  }
}

TEST(WeightFaults, FaultModelNamesRoundTrip) {
  for (const FaultModel model :
       {FaultModel::kPercentScale, FaultModel::kStuckAtZero,
        FaultModel::kSignFlip, FaultModel::kBitFlip}) {
    const auto back = fault_model_from_name(fault_model_name(model));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, model);
  }
  EXPECT_FALSE(fault_model_from_name("rowhammer").has_value());
}

TEST(WeightFaults, BiasColSentinelIsConsistent) {
  WeightFault f;
  f.col = kBiasCol;
  EXPECT_TRUE(f.is_bias());
  f.col = 0;
  EXPECT_FALSE(f.is_bias());
  // The scan emits kBiasCol (never in_dim) for bias entries.
  const nn::QuantizedNetwork net = tiny_qnet();
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 70; inputs(0, 1) = 40;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  const WeightFaultReport report =
      analyze_weight_faults(net, inputs, labels, {.max_percent = 20, .step = 1});
  for (const WeightFault& fault : report.faults) {
    EXPECT_TRUE(fault.col == kBiasCol ||
                fault.col < net.layers()[fault.layer].in_dim());
  }
}

TEST(WeightFaults, BadConfigThrows) {
  const nn::QuantizedNetwork net = tiny_qnet();
  la::Matrix<i64> inputs(1, 2);
  EXPECT_THROW(analyze_weight_faults(net, inputs, {0, 0}, {.max_percent = 50, .step = 1}),
               InvalidArgument);
  la::Matrix<i64> ok(1, 2);
  ok(0, 0) = 50; ok(0, 1) = 50;
  EXPECT_THROW(analyze_weight_faults(net, ok, {0}, {.max_percent = 0, .step = 1}), InvalidArgument);
  EXPECT_THROW(analyze_weight_faults(net, ok, {0}, {.max_percent = 10, .step = 0}), InvalidArgument);
}

}  // namespace
}  // namespace fannet::core
