// Engine registry + cascade portfolio tests.  The central property: EVERY
// registered engine — including the cascade and the SMV-translation MC
// adapters — must be consistent with an oracle that runs no engine task
// (the scalar enumeration walk, the sound screens' free functions) on
// randomized small networks and boxes:
//   - complete engines reproduce the oracle verdict exactly; enumerate
//     returns the walk's first counterexample and visited count, bnb /
//     cascade / sat its lexicographically lowest counterexample,
//   - sound-only engines answer exactly what their free function does,
//     and a kRobust certificate implies the oracle found nothing,
//   - every returned witness actually flips the sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/enumerate.hpp"
#include "verify/interval.hpp"
#include "verify/symbolic.hpp"

namespace fannet::verify {
namespace {

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

nn::QuantizedNetwork random_qnet(std::uint64_t seed, std::size_t inputs = 2,
                                 std::size_t hidden = 3) {
  const nn::Network net = nn::Network::random({inputs, hidden, 2}, seed);
  return nn::QuantizedNetwork::quantize(net, 100);
}

TEST(EngineRegistry, SeedsEveryBuiltinStrategy) {
  const std::vector<std::string> names = registry().names();
  for (const char* expected :
       {"bnb", "cascade", "enumerate", "explicit-mc", "interval", "sat",
        "symbolic"}) {
    EXPECT_TRUE(registry().contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
    EXPECT_EQ(registry().get(expected).name(), expected);
  }
  EXPECT_EQ(names.size(), 7u);
  EXPECT_FALSE(registry().contains("bmc"));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  // Completeness flags drive the cascade's fallback logic.
  EXPECT_TRUE(engine("enumerate").complete());
  EXPECT_TRUE(engine("bnb").complete());
  EXPECT_TRUE(engine("cascade").complete());
  EXPECT_TRUE(engine("sat").complete());
  EXPECT_FALSE(engine("interval").complete());
  EXPECT_FALSE(engine("symbolic").complete());
}

TEST(EngineRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    (void)registry().get("gpu-batch");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("gpu-batch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bnb"), std::string::npos);
  }
}

TEST(EngineRegistry, RejectsDuplicatesAndNull) {
  EngineRegistry local;
  local.add(std::make_unique<CascadeEngine>());
  EXPECT_THROW(local.add(std::make_unique<CascadeEngine>()), InvalidArgument);
  EXPECT_THROW(local.add(nullptr), InvalidArgument);
}

TEST(Cascade, RequiresAtLeastOneStage) {
  EXPECT_THROW(CascadeEngine(std::vector<std::string>{}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// The oracle property over the whole registry.
// ---------------------------------------------------------------------------
class RegistryAgreement : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RegistryAgreement, AllEnginesConsistentWithEnumerationOracle) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed);
  util::Rng rng(seed * 131 + 9);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<i64> x(2);
    for (auto& v : x) v = rng.uniform_int(1, 100);
    const int actual = net.classify_noised(x, {});
    // Mix in wrong-label queries so both verdicts appear.
    const int label = rng.bernoulli(0.3) ? 1 - actual : actual;
    const int range = static_cast<int>(rng.uniform_int(1, 2));
    const bool bias = rng.bernoulli(0.25);
    const Query q = make_query(net, x, label, range, bias);

    // The scalar walk: its first counterexample in odometer order (with
    // the visited count), and its lexicographically lowest full noise
    // vector.
    VerifyResult first;
    first.verdict = Verdict::kRobust;
    first.work = enumerate_stream(q, [&](const Counterexample& cex) {
      first.verdict = Verdict::kVulnerable;
      first.counterexample = cex;
      return false;
    });
    std::optional<Counterexample> lowest;
    std::vector<int> lowest_full;
    (void)enumerate_stream(q, [&](const Counterexample& cex) {
      std::vector<int> full = cex.deltas;
      if (bias) full.push_back(cex.bias_delta);
      if (!lowest.has_value() || full < lowest_full) {
        lowest = cex;
        lowest_full = std::move(full);
      }
      return true;
    });

    for (const std::string& name : registry().names()) {
      const Engine& e = engine(name);
      const VerifyResult r = e.verify(q);
      const std::string where =
          name + " seed=" + std::to_string(seed) + " trial=" +
          std::to_string(trial);
      if (e.complete()) {
        EXPECT_EQ(r.verdict, first.verdict) << where;
      } else if (r.verdict == Verdict::kRobust) {
        EXPECT_EQ(first.verdict, Verdict::kRobust) << "unsound! " << where;
      }
      if (name == "enumerate") {
        EXPECT_EQ(r.counterexample, first.counterexample) << where;
        EXPECT_EQ(r.work, first.work) << where;
      } else if (name == "bnb" || name == "cascade" || name == "sat") {
        EXPECT_EQ(r.counterexample, lowest) << where;
      } else if (name == "interval" || name == "symbolic") {
        const VerifyResult direct =
            name == "interval" ? interval_verify(q) : symbolic_verify(q);
        EXPECT_EQ(r.verdict, direct.verdict) << where;
        EXPECT_EQ(r.work, direct.work) << where;
      }
      if (r.verdict == Verdict::kVulnerable) {
        ASSERT_TRUE(r.counterexample.has_value()) << name;
        std::vector<int> all = r.counterexample->deltas;
        if (bias) all.push_back(r.counterexample->bias_delta);
        EXPECT_NE(classify_under_noise(q, all), q.true_label)
            << name << " returned a witness that does not flip";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryAgreement,
                         testing::Range<std::uint64_t>(1, 9));

TEST(Cascade, AccumulatesWorkAcrossStages) {
  // A wrong-label query defeats the sound screens (the zero vector already
  // "flips"), so the cascade must fall through to B&B and report the
  // summed work of all stages that ran.
  const nn::QuantizedNetwork net = random_qnet(21);
  const std::vector<i64> x{40, 80};
  const int actual = net.classify_noised(x, {});
  const Query q = make_query(net, x, 1 - actual, 2);

  const VerifyResult cascade = engine("cascade").verify(q);
  EXPECT_EQ(cascade.verdict, Verdict::kVulnerable);

  const VerifyResult interval_only = engine("interval").verify(q);
  EXPECT_EQ(interval_only.verdict, Verdict::kUnknown);
  EXPECT_GE(cascade.work, interval_only.work);
}

TEST(Cascade, CustomStageListWorks) {
  const CascadeEngine skip_symbolic({"interval", "bnb"});
  ASSERT_EQ(skip_symbolic.stages().size(), 2u);
  const nn::QuantizedNetwork net = random_qnet(22);
  const std::vector<i64> x{25, 75};
  const int label = net.classify_noised(x, {});
  const Query q = make_query(net, x, label, 2);
  EXPECT_EQ(skip_symbolic.verify(q).verdict,
            enumerate_find_first(q).verdict);
}

}  // namespace
}  // namespace fannet::verify
