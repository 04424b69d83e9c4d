// Unit + property tests for the NN verification engines.  The central
// property: on the integer noise grid, enumeration (ground truth), B&B
// (complete) and the sound bounding engines must be mutually consistent:
//   - bnb verdict == enumerate verdict (exactly),
//   - interval/symbolic "robust" implies enumerate "robust" (soundness),
//   - symbolic bounds sandwich every exact evaluation (bound correctness),
//   - bnb_collect set == enumerate_collect set (complete extraction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <variant>

#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/bnb.hpp"
#include "verify/engine.hpp"
#include "verify/enumerate.hpp"
#include "verify/interval.hpp"
#include "verify/query.hpp"
#include "verify/symbolic.hpp"

namespace fannet::verify {
namespace {

using util::i128;
using util::i64;

Query make_query(const nn::QuantizedNetwork& net, std::vector<i64> x,
                 int label, int range, bool bias_node = false) {
  Query q;
  q.net = &net;
  q.x = std::move(x);
  q.true_label = label;
  q.box = NoiseBox::symmetric(q.x.size() + (bias_node ? 1 : 0), range);
  q.bias_node = bias_node;
  return q;
}

nn::QuantizedNetwork random_qnet(std::uint64_t seed, std::size_t inputs = 3,
                                 std::size_t hidden = 6) {
  const nn::Network net = nn::Network::random({inputs, hidden, 2}, seed);
  return nn::QuantizedNetwork::quantize(net, 100);
}

TEST(NoiseBox, SymmetricAndVolume) {
  const NoiseBox b = NoiseBox::symmetric(3, 5);
  EXPECT_EQ(b.dims(), 3u);
  EXPECT_DOUBLE_EQ(b.volume(), 11.0 * 11.0 * 11.0);
  EXPECT_FALSE(b.is_singleton());
  NoiseBox s;
  s.lo = {1, -2};
  s.hi = {1, -2};
  EXPECT_TRUE(s.is_singleton());
  EXPECT_DOUBLE_EQ(s.volume(), 1.0);
}

TEST(NoiseBox, VolumeSaturatesInsteadOfLosingPrecision) {
  // Exact up to 2^53 grid points; saturates to +inf beyond instead of
  // silently returning a rounded (wrong) count.
  NoiseBox exact;
  exact.lo.assign(53, 0);
  exact.hi.assign(53, 1);  // exactly 2^53 points
  EXPECT_DOUBLE_EQ(exact.volume(), 9007199254740992.0);

  NoiseBox beyond = exact;
  beyond.hi[0] = 2;  // 1.5 * 2^53: no longer exactly representable
  EXPECT_TRUE(std::isinf(beyond.volume()));

  // The paper-scale worst case: a ±100% box over dozens of input nodes.
  const NoiseBox huge = NoiseBox::symmetric(64, 100);
  EXPECT_TRUE(std::isinf(huge.volume()));
}

TEST(Query, ValidationCatchesMistakes) {
  const nn::QuantizedNetwork net = random_qnet(1);
  Query q = make_query(net, {50, 50, 50}, 0, 5);
  EXPECT_NO_THROW(q.validate());
  q.true_label = 7;
  EXPECT_THROW(q.validate(), InvalidArgument);
  q = make_query(net, {50, 50}, 0, 5);  // wrong input count
  EXPECT_THROW(q.validate(), InvalidArgument);
  q = make_query(net, {50, 50, 50}, 0, 5);
  q.box.lo[0] = 10;
  q.box.hi[0] = 5;  // empty dimension
  EXPECT_THROW(q.validate(), InvalidArgument);
  q = make_query(net, {50, 50, 50}, 0, 120);  // below -100%
  EXPECT_THROW(q.validate(), InvalidArgument);
}

TEST(Enumerate, VisitsWholeBox) {
  const nn::QuantizedNetwork net = random_qnet(2);
  const Query q = make_query(net, {30, 60, 90}, net.classify_noised({{30, 60, 90}}, {}), 2);
  const std::uint64_t visited =
      enumerate_stream(q, [](const Counterexample&) { return true; });
  EXPECT_EQ(visited, 5u * 5u * 5u);
}

TEST(Enumerate, FindFirstStopsEarlyOnVulnerable) {
  // Construct a query guaranteed vulnerable: true_label set to the wrong
  // class, so the zero-noise vector itself is a "counterexample".
  const nn::QuantizedNetwork net = random_qnet(3);
  const std::vector<i64> x{20, 40, 80};
  const int actual = net.classify_noised(x, {});
  const Query q = make_query(net, x, 1 - actual, 1);
  const VerifyResult r = enumerate_find_first(q);
  EXPECT_EQ(r.verdict, Verdict::kVulnerable);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->mis_label, actual);
}

TEST(Interval, BoundsContainPointEvaluations) {
  const nn::QuantizedNetwork net = random_qnet(4);
  const std::vector<i64> x{25, 50, 75};
  const Query q = make_query(net, x, 0, 10);
  const IntervalBounds bounds = interval_bounds(q);
  util::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> d(3);
    for (auto& v : d) v = static_cast<int>(rng.uniform_int(-10, 10));
    const auto X = nn::QuantizedNetwork::noised_inputs(x, d);
    const auto all = net.eval_all(X);
    for (std::size_t li = 0; li < all.size(); ++li) {
      for (std::size_t j = 0; j < all[li].size(); ++j) {
        EXPECT_LE(bounds.lo[li][j], static_cast<i128>(all[li][j]));
        EXPECT_GE(bounds.hi[li][j], static_cast<i128>(all[li][j]));
      }
    }
  }
}

/// A form evaluated at one noise vector.
template <typename Row>
i128 form_at(FormRow<Row> form, std::span<const int> deltas) {
  i128 v = form[0];
  for (std::size_t d = 0; d < deltas.size(); ++d) {
    v += static_cast<i128>(form[d + 1]) * deltas[d];
  }
  return v;
}

/// Exact outputs of the query's network at one full noise vector.
std::vector<i64> outputs_at(const Query& q, std::span<const int> p) {
  const auto X = nn::QuantizedNetwork::noised_inputs(
      q.x, p.subspan(0, q.x.size()));
  return q.net->eval_output(X,
                            nn::kNoiseDen + (q.bias_node ? p.back() : 0));
}

/// Calls fn(point) for every grid point of `box`, last dimension fastest.
template <typename Fn>
void for_each_point(const NoiseBox& box, Fn&& fn) {
  std::vector<int> p(box.lo);
  for (;;) {
    fn(std::span<const int>(p));
    std::size_t d = box.dims();
    while (d > 0 && ++p[d - 1] > box.hi[d - 1]) {
      p[d - 1] = box.lo[d - 1];
      --d;
    }
    if (d == 0) return;
  }
}

/// Every margin row of `kernel` sandwiches the exact margin
/// O_y − O_k at every grid point of `box`.
template <typename Row>
void expect_margins_sandwich(const MarginKernel<Row>& kernel, const Query& q,
                             const NoiseBox& box) {
  const std::size_t y = kernel.label();
  for_each_point(box, [&](std::span<const int> p) {
    const std::vector<i64> out = outputs_at(q, p);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const i128 margin = static_cast<i128>(out[y]) - out[k];
      EXPECT_LE(form_at(kernel.margin_lo(k), p), margin);
      EXPECT_GE(form_at(kernel.margin_hi(k), p), margin);
    }
  });
}

TEST(Symbolic, OutputBoundsContainPointEvaluations) {
  const nn::QuantizedNetwork net = random_qnet(5);
  const std::vector<i64> x{10, 90, 40};
  const Query q = make_query(net, x, 0, 8);
  AnyMarginKernel any = make_margin_kernel(q);
  std::visit(
      [&](auto& kernel) {
        kernel.bound(q.box);
        util::Rng rng(7);
        for (int trial = 0; trial < 200; ++trial) {
          std::vector<int> d(3);
          for (auto& v : d) v = static_cast<int>(rng.uniform_int(-8, 8));
          const std::vector<i64> out = outputs_at(q, d);
          for (std::size_t k = 0; k < out.size(); ++k) {
            const i128 margin = static_cast<i128>(out[0]) - out[k];
            EXPECT_LE(form_at(kernel.margin_lo(k), d), margin);
            EXPECT_GE(form_at(kernel.margin_hi(k), d), margin);
          }
        }
      },
      any);
}

TEST(Symbolic, FirstLayerIsExact) {
  // With a single-layer network the margin rows must be exact: lower and
  // upper coincide, and evaluating the row reproduces the exact margin.
  nn::Layer only;
  only.weights = la::MatrixD::from_rows({{0.5, -1.5}, {2.0, 0.25}});
  only.bias = {0.1, -0.2};
  only.activation = nn::Activation::kLinear;
  const nn::Network net({only});
  const nn::QuantizedNetwork q = nn::QuantizedNetwork::quantize(net, 100);
  const Query query = make_query(q, {40, 70}, 0, 6);
  MarginKernel<i64> kernel(query);
  kernel.bound(query.box);
  EXPECT_EQ(kernel.unstable_relus(), 0u);
  for (int d0 = -6; d0 <= 6; d0 += 3) {
    for (int d1 = -6; d1 <= 6; d1 += 3) {
      const std::vector<int> d{d0, d1};
      const auto out =
          q.eval_output(nn::QuantizedNetwork::noised_inputs(query.x, d));
      for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(form_at(kernel.margin_lo(k), d),
                  static_cast<i128>(out[0]) - out[k]);
        EXPECT_TRUE(
            std::ranges::equal(kernel.margin_lo(k), kernel.margin_hi(k)));
      }
    }
  }
}

TEST(Symbolic, ReusedKernelMatchesFreshKernelOnEverySubBox) {
  // bnb reuses one kernel for every box a worker visits.  Evaluated over
  // random sub-boxes in shuffled order, a reused kernel must return
  // exactly what a freshly built one does (no state leaks between boxes),
  // the int64 rows must equal a fresh __int128 kernel's bit for bit, and
  // the margin rows must sandwich every grid point's exact margin.  Nets
  // of depth 1-3 mixing ReLU and linear layers, with nonzero biases and
  // the bias node off and on.
  using nn::Activation;
  constexpr Activation kRelu = Activation::kReLU;
  constexpr Activation kLin = Activation::kLinear;
  struct Shape {
    std::vector<std::size_t> widths;
    std::vector<Activation> acts;
  };
  const std::vector<Shape> shapes = {
      {{3, 2}, {kLin}},
      {{3, 3}, {kRelu}},
      {{3, 6, 2}, {kRelu, kLin}},
      {{3, 6, 2}, {kLin, kRelu}},
      {{3, 5, 4, 3}, {kRelu, kRelu, kLin}},
      {{3, 5, 4, 3}, {kRelu, kLin, kRelu}},
  };
  const std::vector<i64> x{35, 80, 15};
  std::uint64_t seed = 40;
  for (const Shape& shape : shapes) {
    nn::Network fnet = nn::Network::random(shape.widths, ++seed);
    for (std::size_t li = 0; li < shape.acts.size(); ++li) {
      fnet.layers()[li].activation = shape.acts[li];
      // Nonzero biases, so every layer's bias term reaches the rows.
      std::vector<double>& bias = fnet.layers()[li].bias;
      for (std::size_t j = 0; j < bias.size(); ++j) {
        bias[j] = 0.05 * static_cast<double>(j % 3) - 0.05;
      }
    }
    const nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(fnet, 100);
    for (const bool bias : {false, true}) {
      const Query q = make_query(net, x, net.classify_noised(x, {}), 40, bias);
      ASSERT_TRUE(
          std::holds_alternative<MarginKernel<i64>>(make_margin_kernel(q)));
      const std::size_t dims = q.noise_dims();
      util::Rng rng(seed * 7 + (bias ? 1 : 0));
      std::vector<NoiseBox> boxes(200);
      for (NoiseBox& b : boxes) {
        for (std::size_t d = 0; d < dims; ++d) {
          const int lo = static_cast<int>(rng.uniform_int(-40, 40));
          const int span = static_cast<int>(rng.uniform_int(0, 5));
          const int hi = std::min(40, lo + span);
          b.lo.push_back(lo);
          b.hi.push_back(hi);
        }
      }
      boxes.front() = q.box;  // the whole box too
      std::shuffle(boxes.begin(), boxes.end(), std::mt19937_64(seed));

      MarginKernel<i64> reused(q);
      std::size_t unstable = 0;
      for (const NoiseBox& box : boxes) {
        reused.bound(box);
        MarginKernel<i64> fresh(q);
        fresh.bound(box);
        MarginKernel<i128> wide(q);
        wide.bound(box);
        EXPECT_EQ(reused.unstable_relus(), fresh.unstable_relus());
        EXPECT_EQ(reused.unstable_relus(), wide.unstable_relus());
        unstable += reused.unstable_relus();
        for (std::size_t k = 0; k < reused.outputs(); ++k) {
          using std::ranges::equal;
          ASSERT_TRUE(equal(reused.margin_lo(k), fresh.margin_lo(k)));
          ASSERT_TRUE(equal(reused.margin_hi(k), fresh.margin_hi(k)));
          ASSERT_TRUE(equal(reused.margin_lo(k), wide.margin_lo(k)));
          ASSERT_TRUE(equal(reused.margin_hi(k), wide.margin_hi(k)));
        }
        if (box.lo == q.box.lo && box.hi == q.box.hi) continue;  // rows only
        expect_margins_sandwich(reused, q, box);
      }
      if (shape.acts.front() == kRelu && shape.widths.size() > 2) {
        EXPECT_GT(unstable, 0u) << "no ReLU was ever relaxed: weak case";
      }
    }
  }
}

TEST(Symbolic, CancellingWeightsRunTheWideKernel) {
  // Two hidden neurons with identical rows feed the first output through
  // weights +W and -W, so O_0 is exactly its bias and every output fits
  // int64; but the certificate sums absolute values, so it passes 2^62
  // and the kernel must run in __int128.  Root box ±3 keeps the hidden
  // neurons active (the cancellation survives as forms, robust); ±10
  // makes them unstable (relaxed independently, vulnerable).
  nn::Layer hidden;
  hidden.weights = la::MatrixD::from_rows({{0.5, -0.25}, {0.5, -0.25}});
  hidden.bias = {0.0, 0.0};
  hidden.activation = nn::Activation::kReLU;
  nn::Layer out;
  out.weights = la::MatrixD::from_rows({{1e8, -1e8}, {0.3, 0.2}});
  out.bias = {0.02, 0.0};
  out.activation = nn::Activation::kLinear;
  const nn::QuantizedNetwork net =
      nn::QuantizedNetwork::quantize(nn::Network({hidden, out}), 100);
  const std::vector<i64> x{40, 70};
  for (const int range : {3, 10}) {
    const Query q = make_query(net, x, net.classify_noised(x, {}), range);
    EXPECT_GT(margin_certificate(q), MarginKernel<i64>::kCeiling);
    EXPECT_THROW(MarginKernel<i64>{q}, ArithmeticError);
    AnyMarginKernel any = make_margin_kernel(q);
    ASSERT_TRUE(std::holds_alternative<MarginKernel<i128>>(any));
    MarginKernel<i128>& kernel = std::get<MarginKernel<i128>>(any);
    kernel.bound(q.box);
    expect_margins_sandwich(kernel, q, q.box);
    NoiseBox corner = q.box;
    corner.hi = {0, 0};
    kernel.bound(corner);
    expect_margins_sandwich(kernel, q, corner);

    const VerifyResult truth = enumerate_find_first(q);
    const VerifyResult fast = bnb_verify(q);
    EXPECT_EQ(fast.verdict, truth.verdict) << "range " << range;
    EXPECT_EQ(fast.counterexample, truth.counterexample) << "range " << range;
    EXPECT_EQ(truth.verdict,
              range == 3 ? Verdict::kRobust : Verdict::kVulnerable);
  }
}

TEST(Symbolic, BoundRejectsBoxesOutsideTheQueryBox) {
  // The certificate only covers sub-boxes of the query's box.
  const nn::QuantizedNetwork net = random_qnet(5);
  const Query q = make_query(net, {10, 90, 40}, 0, 8);
  MarginKernel<i64> kernel(q);
  NoiseBox box = q.box;
  EXPECT_NO_THROW(kernel.bound(box));
  box.lo[1] = -9;
  EXPECT_THROW(kernel.bound(box), InvalidArgument);
  box = q.box;
  box.hi[2] = 9;
  EXPECT_THROW(kernel.bound(box), InvalidArgument);
  box = q.box;
  box.lo[0] = 5;
  box.hi[0] = 4;
  EXPECT_THROW(kernel.bound(box), InvalidArgument);
  EXPECT_THROW(kernel.bound(NoiseBox::symmetric(2, 1)), InvalidArgument);
}

TEST(Verifiers, OverflowingDeepNetThrowsArithmeticError) {
  // Depth 9, width 3: the exact values outgrow __int128 long before the
  // output, so no bounding engine may wrap; each reports ArithmeticError.
  const nn::Network fnet =
      nn::Network::random({3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, 7);
  const nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(fnet, 100);
  const Query q = make_query(net, {40, 70, 20}, 0, 10);
  EXPECT_THROW((void)interval_verify(q), ArithmeticError);
  EXPECT_THROW((void)symbolic_verify(q), ArithmeticError);
  EXPECT_THROW((void)bnb_verify(q), ArithmeticError);
  EXPECT_THROW((void)registry().get("cascade").verify(q), ArithmeticError);
}

TEST(Verifiers, SoundnessOnRobustCertificates) {
  // Whenever interval/symbolic says kRobust, enumeration must find nothing.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const nn::QuantizedNetwork net = random_qnet(seed);
    const std::vector<i64> x{33, 66, 99};
    const int label = net.classify_noised(x, {});
    for (const int range : {1, 2, 4}) {
      const Query q = make_query(net, x, label, range);
      const bool truth =
          enumerate_find_first(q).verdict == Verdict::kVulnerable;
      if (interval_verify(q).verdict == Verdict::kRobust) {
        EXPECT_FALSE(truth) << "IBP unsound! seed=" << seed;
      }
      if (symbolic_verify(q).verdict == Verdict::kRobust) {
        EXPECT_FALSE(truth) << "symbolic unsound! seed=" << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The oracle property: B&B is exactly the enumeration decision.
// ---------------------------------------------------------------------------
class EngineAgreement : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineAgreement, BnbEqualsEnumeration) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed);
  util::Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<i64> x(3);
    for (auto& v : x) v = rng.uniform_int(1, 100);
    const int label = net.classify_noised(x, {});
    const int range = static_cast<int>(rng.uniform_int(1, 6));
    const bool bias = rng.bernoulli(0.3);
    const Query q = make_query(net, x, label, range, bias);

    const VerifyResult truth = enumerate_find_first(q);
    const VerifyResult fast = bnb_verify(q);
    EXPECT_EQ(truth.verdict, fast.verdict)
        << "seed=" << seed << " trial=" << trial << " range=" << range;
    if (fast.verdict == Verdict::kVulnerable) {
      // The witness must actually flip the sample.
      std::vector<int> all = fast.counterexample->deltas;
      if (bias) all.push_back(fast.counterexample->bias_delta);
      EXPECT_NE(classify_under_noise(q, all), q.true_label);
    }
  }
}

TEST_P(EngineAgreement, BnbCollectMatchesEnumerationSet) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed, 2, 5);
  util::Rng rng(seed * 17 + 3);
  std::vector<i64> x{static_cast<i64>(rng.uniform_int(1, 100)),
                     static_cast<i64>(rng.uniform_int(1, 100))};
  // Deliberately wrong label guarantees a rich counterexample set.
  const int label = 1 - net.classify_noised(x, {});
  const Query q = make_query(net, x, label, 3);

  const auto to_set = [](const std::vector<Counterexample>& v) {
    std::set<std::vector<int>> s;
    for (const auto& cex : v) s.insert(cex.deltas);
    return s;
  };
  const auto slow = to_set(enumerate_collect(q, 100'000));
  const auto fast = to_set(bnb_collect(q, 100'000));
  EXPECT_EQ(slow, fast) << "seed=" << seed;
  EXPECT_FALSE(slow.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         testing::Range<std::uint64_t>(1, 13));

TEST(Bnb, IbpFallbackAgreesToo) {
  const nn::QuantizedNetwork net = random_qnet(42);
  const std::vector<i64> x{10, 50, 90};
  const int label = net.classify_noised(x, {});
  const Query q = make_query(net, x, label, 4);
  BnbOptions opt;
  opt.use_symbolic = false;
  EXPECT_EQ(bnb_verify(q, opt).verdict, enumerate_find_first(q).verdict);
}

TEST(Bnb, DirectionalBoxes) {
  // Restricting the box must never invent counterexamples: if the full box
  // is robust, every sub-box is robust.
  const nn::QuantizedNetwork net = random_qnet(8);
  const std::vector<i64> x{45, 55, 65};
  const int label = net.classify_noised(x, {});
  Query q = make_query(net, x, label, 5);
  if (bnb_verify(q).verdict == Verdict::kRobust) {
    q.box.lo[0] = 1;  // positive-only noise on node 0
    EXPECT_EQ(bnb_verify(q).verdict, Verdict::kRobust);
  }
}

TEST(Bnb, BoxBudgetDegradesToUnknownAtVerifyBoundary) {
  // Budget exhaustion must not abort a whole scheduler batch: bnb_verify
  // surfaces kUnknown (with the boxes processed recorded as work) instead
  // of throwing.  The streaming APIs keep the ResourceLimit contract.
  const nn::QuantizedNetwork net = random_qnet(9);
  const std::vector<i64> x{50, 50, 50};
  const Query q = make_query(net, x, net.classify_noised(x, {}), 50);
  BnbOptions opt;
  opt.max_boxes = 3;
  opt.use_symbolic = false;  // weak pruning forces splitting
  const VerifyResult r = bnb_verify(q, opt);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_GE(r.work, opt.max_boxes);
  EXPECT_THROW(bnb_stream(q, [](const Counterexample&) { return true; }, opt),
               ResourceLimit);
  EXPECT_THROW(bnb_collect(q, 10, opt), ResourceLimit);
}

TEST(Collect, ZeroCapReturnsNothing) {
  // A max_count of 0 means "no counterexamples", not "one": the cap is
  // checked before the push.  Use a certainly-vulnerable query.
  const nn::QuantizedNetwork net = random_qnet(11);
  const std::vector<i64> x{30, 60, 90};
  const Query q = make_query(net, x, 1 - net.classify_noised(x, {}), 2);
  ASSERT_EQ(enumerate_find_first(q).verdict, Verdict::kVulnerable);
  EXPECT_TRUE(enumerate_collect(q, 0).empty());
  EXPECT_TRUE(bnb_collect(q, 0).empty());
  EXPECT_EQ(enumerate_collect(q, 1).size(), 1u);
  EXPECT_EQ(bnb_collect(q, 1).size(), 1u);
}

TEST(Bnb, WorkIsFarBelowEnumeration) {
  // The whole point of B&B: decide a +/-40% box without visiting 81^3 points.
  const nn::QuantizedNetwork net = random_qnet(10);
  const std::vector<i64> x{20, 50, 80};
  const int label = net.classify_noised(x, {});
  const Query q = make_query(net, x, label, 40);
  const VerifyResult r = bnb_verify(q);
  EXPECT_LT(r.work, 81u * 81u * 81u / 10u);
}

/// FNV-1a over a collected set (deltas, bias delta, mis-label, in order).
std::uint64_t digest(const std::vector<Counterexample>& set) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (const Counterexample& cex : set) {
    for (const int d : cex.deltas) mix(d);
    mix(cex.bias_delta);
    mix(cex.mis_label);
  }
  return h;
}

TEST(Bnb, PinnedPruneDecisions) {
  // Verdict agreement cannot see a prune decision that drifted; serial
  // `work` can.  Pins serial box counts (per box policy), witnesses and
  // bnb_collect(q, 50) sets on a fixed query list: robust and vulnerable,
  // bias node on and off.  Rows with `wrong_label` set use the next label
  // instead of the true one, so the zero-noise point itself is a
  // counterexample.  The 2-layer rows' output layer reads the exact first
  // layer; the depth-3, 3-output rows after them also reach the relaxed
  // middle layer and two margins per query.
  struct Pinned {
    std::uint64_t seed;
    std::vector<i64> x;
    int range;
    bool bias_node;
    bool wrong_label;
    std::uint64_t depth_first_work;
    std::uint64_t best_first_work;
    std::vector<int> witness;  // full noise vector; empty when robust
    int mis_label;
    std::size_t collected;
    std::uint64_t collected_digest;
    std::vector<std::size_t> widths = {4, 10, 2};
  };
  const std::vector<Pinned> pins = {
      {6, {70, 30, 55, 90}, 40, false, false, 367, 367,
       {}, -1, 0, 0xcbf29ce484222325ull},
      {6, {70, 30, 55, 90}, 40, true, false, 1399, 1399,
       {}, -1, 0, 0xcbf29ce484222325ull},
      {2, {70, 30, 55, 90}, 40, true, false, 345, 345,
       {}, -1, 0, 0xcbf29ce484222325ull},
      {4, {70, 30, 55, 90}, 40, false, false, 549, 307,
       {-40, -40, 31, -40}, 0, 50, 0xea707930d8bedd85ull},
      {4, {70, 30, 55, 90}, 20, true, false, 1049, 1911,
       {-4, -20, 19, -20, -20}, 0, 50, 0x43e9b2525872efe2ull},
      {5, {15, 85, 40, 60}, 20, false, false, 389, 1139,
       {-8, -20, 19, 15}, 0, 50, 0x0763858c899fe540ull},
      {4, {20, 50, 80, 35}, 40, true, false, 1637, 3281,
       {-40, -40, 39, -40, -40}, 0, 50, 0x0292f4633d4df194ull},
      {4, {70, 30, 55, 90}, 40, false, true, 19, 29,
       {-40, -40, -40, -40}, 1, 50, 0xe727d5fd5697b412ull},
      {5, {20, 50, 80, 35}, 40, true, true, 5, 7,
       {-40, -40, -40, -40, -40}, 0, 50, 0x5cc68abe0226719cull},
      {6, {70, 30, 55, 90}, 40, false, false, 933, 933,
       {}, -1, 0, 0xcbf29ce484222325ull, {4, 8, 6, 3}},
      {2, {20, 50, 80, 35}, 20, true, false, 1315, 1315,
       {}, -1, 0, 0xcbf29ce484222325ull, {4, 8, 6, 3}},
      {1, {20, 50, 80, 35}, 20, false, false, 375, 1585,
       {-20, -19, -20, 19}, 0, 50, 0x99001f0ae8ba37a4ull, {4, 8, 6, 3}},
      {3, {15, 85, 40, 60}, 20, true, false, 1085, 1289,
       {-20, 9, -20, -20, -20}, 2, 50, 0x3232862b0c3d19c4ull, {4, 8, 6, 3}},
      {7, {20, 50, 80, 35}, 40, true, false, 1757, 4647,
       {-40, -32, -40, -40, -40}, 1, 50, 0x9bf39d2b08b8c010ull, {4, 8, 6, 3}},
      {1, {20, 50, 80, 35}, 20, true, true, 27, 1171,
       {-20, -20, -20, -20, -20}, 2, 50, 0x868799a49e3a1ec2ull, {4, 8, 6, 3}},
  };
  for (const Pinned& p : pins) {
    const nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(
        nn::Network::random(p.widths, p.seed), 100);
    const int actual = net.classify_noised(p.x, {});
    const int outputs = static_cast<int>(net.output_dim());
    const Query q =
        make_query(net, p.x, p.wrong_label ? (actual + 1) % outputs : actual,
                   p.range, p.bias_node);
    for (const auto policy : {BnbOptions::Policy::kDepthFirst,
                              BnbOptions::Policy::kBestFirst}) {
      BnbOptions options;
      options.policy = policy;
      const bool depth_first = policy == BnbOptions::Policy::kDepthFirst;
      const std::string where =
          "depth " + std::to_string(p.widths.size() - 1) + " seed " +
          std::to_string(p.seed) + " range " +
          std::to_string(p.range) + " bias " + std::to_string(p.bias_node) +
          (depth_first ? " depth-first" : " best-first");
      const VerifyResult r = bnb_verify(q, options);
      EXPECT_EQ(r.work, depth_first ? p.depth_first_work : p.best_first_work)
          << where;
      if (p.witness.empty()) {
        EXPECT_EQ(r.verdict, Verdict::kRobust) << where;
      } else {
        ASSERT_EQ(r.verdict, Verdict::kVulnerable) << where;
        std::vector<int> full = r.counterexample->deltas;
        if (p.bias_node) full.push_back(r.counterexample->bias_delta);
        EXPECT_EQ(full, p.witness) << where;
        EXPECT_EQ(r.counterexample->mis_label, p.mis_label) << where;
      }
      const std::vector<Counterexample> set = bnb_collect(q, 50, options);
      EXPECT_EQ(set.size(), p.collected) << where;
      EXPECT_EQ(digest(set), p.collected_digest) << where;
    }
  }
}

}  // namespace
}  // namespace fannet::verify
