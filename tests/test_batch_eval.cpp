// Bit-identity tests for the batched SoA evaluator (DESIGN.md §10): every
// lane of a batch must reproduce the scalar oracle exactly — outputs,
// argmax ties, and overflow behavior (scalar throw == batched lane flag) —
// at every batch size, and enumerate, the kernel's grid-walk consumer,
// must produce verdicts bit-identical to its scalar path.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "nn/batch_eval.hpp"
#include "nn/network.hpp"
#include "nn/quantized.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/enumerate.hpp"
#include "verify/query.hpp"

namespace fannet::nn {
namespace {

using util::i64;

QuantizedNetwork random_qnet(std::uint64_t seed, std::size_t inputs = 4,
                             std::size_t hidden = 10, std::size_t out = 3) {
  return QuantizedNetwork::quantize(Network::random({inputs, hidden, out}, seed),
                                    100);
}

/// One random lane: inputs in [1,100], deltas in [-30,30], bias factor in
/// [70,130].
struct Lane {
  std::vector<i64> x;
  std::vector<int> deltas;
  i64 bias_factor = 100;
};

Lane random_lane(util::Rng& rng, std::size_t dims) {
  Lane lane;
  for (std::size_t i = 0; i < dims; ++i) {
    lane.x.push_back(rng.uniform_int(1, 100));
    lane.deltas.push_back(static_cast<int>(rng.uniform_int(-30, 30)));
  }
  lane.bias_factor = rng.uniform_int(70, 130);
  return lane;
}

// ---------------------------------------------------------------------------
// Forward-pass identity at the ISSUE's gate batch sizes.
// ---------------------------------------------------------------------------
TEST(BatchEval, MatchesScalarOracleAtEveryBatchSize) {
  const QuantizedNetwork q = random_qnet(11);
  const BatchEvaluator evaluator(q);
  util::Rng rng(99);

  for (const std::size_t batch_size : {1u, 7u, 64u, 1000u}) {
    BatchEvaluator::Batch batch = evaluator.make_batch();
    std::vector<Lane> staged;
    for (std::size_t t = 0; t < batch_size; ++t) {
      staged.push_back(random_lane(rng, q.input_dim()));
      batch.push_noised(staged.back().x, staged.back().deltas,
                        staged.back().bias_factor);
    }
    ASSERT_EQ(batch.lanes(), batch_size);
    evaluator.run(batch);

    for (std::size_t t = 0; t < batch_size; ++t) {
      const auto X =
          QuantizedNetwork::noised_inputs(staged[t].x, staged[t].deltas);
      ASSERT_FALSE(batch.overflowed(t));
      const auto expect = q.eval_output(X, staged[t].bias_factor);
      const auto got = batch.outputs(t);
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t k = 0; k < expect.size(); ++k) {
        EXPECT_EQ(got[k], expect[k]) << "batch " << batch_size << " lane "
                                     << t << " output " << k;
      }
      EXPECT_EQ(batch.label(t), q.classify(X, staged[t].bias_factor));
    }
    // clear() keeps buffers but drops lanes; the batch is reusable.
    batch.clear();
    EXPECT_EQ(batch.lanes(), 0u);
  }
}

TEST(BatchEval, PushScaledMatchesEvalOutput) {
  const QuantizedNetwork q = random_qnet(5);
  const BatchEvaluator evaluator(q);
  BatchEvaluator::Batch batch = evaluator.make_batch();
  util::Rng rng(7);

  std::vector<std::vector<i64>> staged;
  for (std::size_t t = 0; t < 9; ++t) {
    const Lane lane = random_lane(rng, q.input_dim());
    staged.push_back(QuantizedNetwork::noised_inputs(lane.x, lane.deltas));
    batch.push_scaled(staged.back(), kNoiseDen);
  }
  evaluator.run(batch);
  for (std::size_t t = 0; t < staged.size(); ++t) {
    const auto expect = q.eval_output(staged[t]);
    const auto got = batch.outputs(t);
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_EQ(got[k], expect[k]);
    }
  }
}

TEST(BatchEval, ArgmaxTiesResolveLowPerLane) {
  // Identity net (outputs == scaled inputs): stage deliberate ties and
  // check each lane against the scalar tie rule.
  constexpr std::size_t kOut = 3;
  Layer out;
  std::vector<std::vector<double>> rows(kOut, std::vector<double>(kOut, 0.0));
  for (std::size_t i = 0; i < kOut; ++i) rows[i][i] = 1.0;
  out.weights = la::MatrixD::from_rows(rows);
  out.bias = std::vector<double>(kOut, 0.0);
  out.activation = Activation::kLinear;
  const QuantizedNetwork q = QuantizedNetwork::quantize(Network({out}), 100);
  const BatchEvaluator evaluator(q);
  BatchEvaluator::Batch batch = evaluator.make_batch();

  const std::vector<std::vector<i64>> cases = {
      {70, 70, 70}, {90, 90, 10}, {90, 10, 90}, {10, 90, 90}, {10, 20, 90}};
  for (const auto& x : cases) {
    batch.push_noised(x, {}, kNoiseDen);
  }
  evaluator.run(batch);
  for (std::size_t t = 0; t < cases.size(); ++t) {
    EXPECT_EQ(batch.label(t),
              q.classify(QuantizedNetwork::noised_inputs(cases[t], {})));
  }
}

// ---------------------------------------------------------------------------
// Overflow parity: a flagged lane is exactly a lane whose scalar
// evaluation throws ArithmeticError, and flagged lanes never disturb their
// neighbours.
// ---------------------------------------------------------------------------
TEST(BatchEval, OverflowLaneFlagsExactlyWhereScalarThrows) {
  const QuantizedNetwork q = random_qnet(3);
  // A near-int64-max weight overflows the exact accumulation for every
  // input (the scalar path throws; the batch flags).
  const QuantizedNetwork huge =
      q.with_param(0, 0, 0, std::numeric_limits<i64>::max() / 2);
  const BatchEvaluator evaluator(huge);
  BatchEvaluator::Batch batch = evaluator.make_batch();
  util::Rng rng(17);
  std::vector<Lane> staged;
  for (std::size_t t = 0; t < 6; ++t) {
    staged.push_back(random_lane(rng, huge.input_dim()));
    batch.push_noised(staged[t].x, staged[t].deltas, staged[t].bias_factor);
  }
  evaluator.run(batch);
  for (std::size_t t = 0; t < staged.size(); ++t) {
    EXPECT_THROW(
        (void)huge.classify(
            QuantizedNetwork::noised_inputs(staged[t].x, staged[t].deltas),
            staged[t].bias_factor),
        ArithmeticError);
    EXPECT_TRUE(batch.overflowed(t));
  }
}

TEST(BatchEval, MixedOverflowLanesStayInert) {
  // Per-lane bias factors: extreme lanes flag (scalar throws on the
  // input_norm * bias_factor product), normal lanes still match scalar —
  // a flagged neighbour must not perturb them.
  const QuantizedNetwork q = QuantizedNetwork::quantize(
      Network::random({3, 6, 2}, 23), 100);
  const BatchEvaluator evaluator(q);
  BatchEvaluator::Batch batch = evaluator.make_batch();
  util::Rng rng(29);

  std::vector<Lane> staged;
  for (std::size_t t = 0; t < 10; ++t) {
    staged.push_back(random_lane(rng, q.input_dim()));
    if (t % 3 == 1) staged[t].bias_factor = std::numeric_limits<i64>::max();
    batch.push_noised(staged[t].x, staged[t].deltas, staged[t].bias_factor);
  }
  evaluator.run(batch);
  for (std::size_t t = 0; t < staged.size(); ++t) {
    const auto X =
        QuantizedNetwork::noised_inputs(staged[t].x, staged[t].deltas);
    if (t % 3 == 1) {
      EXPECT_THROW((void)q.classify(X, staged[t].bias_factor),
                   ArithmeticError);
      EXPECT_TRUE(batch.overflowed(t));
    } else {
      ASSERT_FALSE(batch.overflowed(t));
      EXPECT_EQ(batch.label(t), q.classify(X, staged[t].bias_factor));
      const auto expect = q.eval_output(X, staged[t].bias_factor);
      const auto got = batch.outputs(t);
      for (std::size_t k = 0; k < expect.size(); ++k) {
        EXPECT_EQ(got[k], expect[k]);
      }
    }
  }
}

TEST(BatchEval, ScaleChainOverflowFlagsEveryLane) {
  // Five layers push the running activation scale past int64: the scalar
  // evaluator throws for EVERY input of such a net, so the batch flags
  // every lane (and the evaluator constructor still must not throw).
  const Network deep = Network::random({2, 2, 2, 2, 2, 2}, 31);
  const QuantizedNetwork q = QuantizedNetwork::quantize(deep, 100);
  const std::vector<i64> x{50, 50};
  EXPECT_THROW((void)q.classify_noised(x, {}), ArithmeticError);

  const BatchEvaluator evaluator(q);
  BatchEvaluator::Batch batch = evaluator.make_batch();
  batch.push_noised(x, {}, kNoiseDen);
  batch.push_noised(x, {}, kNoiseDen);
  evaluator.run(batch);
  EXPECT_TRUE(batch.overflowed(0));
  EXPECT_TRUE(batch.overflowed(1));
}

TEST(BatchEval, PushNoisedValidatesSpanSizes) {
  const QuantizedNetwork q = random_qnet(41);
  const BatchEvaluator evaluator(q);
  BatchEvaluator::Batch batch = evaluator.make_batch();
  const std::vector<i64> wrong{1, 2};          // net wants 4 inputs
  const std::vector<i64> right{1, 2, 3, 4};
  const std::vector<int> bad_deltas{5};
  EXPECT_THROW(batch.push_noised(wrong, {}, 100), InvalidArgument);
  EXPECT_THROW(batch.push_noised(right, bad_deltas, 100), InvalidArgument);
  EXPECT_THROW((void)BatchEvaluator(QuantizedNetwork()).make_batch(),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Enumerate identity: the batched (and parallel) decision scan returns
// exactly the scalar odometer's verdict, witness and work count.
// ---------------------------------------------------------------------------
verify::Query make_query(const QuantizedNetwork& net, std::vector<i64> x,
                         int label, int range, bool bias_node = false) {
  verify::Query q;
  q.net = &net;
  q.x = std::move(x);
  q.true_label = label;
  q.box = verify::NoiseBox::symmetric(q.x.size() + (bias_node ? 1 : 0), range);
  q.bias_node = bias_node;
  return q;
}

TEST(BatchEval, EnumerateBatchedMatchesScalar) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const QuantizedNetwork q = QuantizedNetwork::quantize(
        Network::random({3, 6, 2}, seed), 100);
    const std::vector<i64> x{60, 40, 80};
    const int label = q.classify_noised(x, {});
    for (const bool bias_node : {false, true}) {
      const verify::Query query = make_query(q, x, label, 4, bias_node);

      const verify::VerifyResult scalar =
          verify::enumerate_find_first(query, {.batch = 1});
      for (const std::size_t batch : {0u, 5u, 64u}) {
        const verify::VerifyResult batched =
            verify::enumerate_find_first(query, {.batch = batch});
        EXPECT_EQ(batched.verdict, scalar.verdict) << "seed " << seed;
        EXPECT_EQ(batched.work, scalar.work) << "seed " << seed;
        ASSERT_EQ(batched.counterexample.has_value(),
                  scalar.counterexample.has_value());
        if (scalar.counterexample) {
          EXPECT_EQ(batched.counterexample->deltas,
                    scalar.counterexample->deltas);
          EXPECT_EQ(batched.counterexample->bias_delta,
                    scalar.counterexample->bias_delta);
          EXPECT_EQ(batched.counterexample->mis_label,
                    scalar.counterexample->mis_label);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fannet::nn
