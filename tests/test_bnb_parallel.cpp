// Branch-and-bound search results against exhaustive enumeration: for
// either box-priority policy,
//   - bnb_verify returns the *lexicographically lowest* counterexample in
//     the box,
//   - bnb_collect returns the max_count lex-smallest counterexamples in
//     ascending order,
//   - bnb_stream delivers exactly the full counterexample set,
// and box-budget exhaustion degrades to kUnknown through the cascade and
// the scheduler instead of aborting the batch.  (The suite keeps its
// historical name; the search itself is serial.)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "nn/network.hpp"
#include "util/rng.hpp"
#include "verify/bnb.hpp"
#include "verify/engine.hpp"
#include "verify/enumerate.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"
#include "verify/task.hpp"

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

nn::QuantizedNetwork random_qnet(std::uint64_t seed, std::size_t inputs = 3,
                                 std::size_t hidden = 6) {
  const nn::Network net = nn::Network::random({inputs, hidden, 2}, seed);
  return nn::QuantizedNetwork::quantize(net, 100);
}

/// Full noise vector of a counterexample (input deltas then bias delta),
/// the order the lexicographic guarantee is defined over.
std::vector<int> full_vector(const Counterexample& cex, bool bias_node) {
  std::vector<int> v = cex.deltas;
  if (bias_node) v.push_back(cex.bias_delta);
  return v;
}

/// Ground truth: every counterexample in the box, lex-sorted.
std::vector<std::vector<int>> lex_sorted_truth(const Query& q) {
  std::vector<std::vector<int>> all;
  enumerate_stream(q, [&](const Counterexample& cex) {
    all.push_back(full_vector(cex, q.bias_node));
    return true;
  });
  std::sort(all.begin(), all.end());
  return all;
}

class ParallelBnb : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelBnb, VerifyIsLexLowestAndThreadCountInvariant) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed);
  util::Rng rng(seed * 101 + 13);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<i64> x(3);
    for (auto& v : x) v = rng.uniform_int(1, 100);
    const int actual = net.classify_noised(x, {});
    // Mix robust-ish and certainly-vulnerable queries.
    const int label = rng.bernoulli(0.5) ? actual : 1 - actual;
    const int range = static_cast<int>(rng.uniform_int(1, 5));
    const bool bias = rng.bernoulli(0.3);
    const Query q = make_query(net, x, label, range, bias);
    const std::vector<std::vector<int>> truth = lex_sorted_truth(q);

    for (const auto policy :
         {BnbOptions::Policy::kDepthFirst, BnbOptions::Policy::kBestFirst}) {
      BnbOptions opt;
      opt.policy = policy;
      const VerifyResult r = bnb_verify(q, opt);
      const bool best_first = policy == BnbOptions::Policy::kBestFirst;
      if (truth.empty()) {
        EXPECT_EQ(r.verdict, Verdict::kRobust)
            << "seed=" << seed << " trial=" << trial
            << " best_first=" << best_first;
      } else {
        ASSERT_EQ(r.verdict, Verdict::kVulnerable)
            << "seed=" << seed << " trial=" << trial
            << " best_first=" << best_first;
        ASSERT_TRUE(r.counterexample.has_value());
        // The witness is the lex-lowest counterexample — bit-identical for
        // either policy, and truly misclassifying.
        EXPECT_EQ(full_vector(*r.counterexample, bias), truth.front())
            << "seed=" << seed << " trial=" << trial
            << " best_first=" << best_first;
        EXPECT_NE(classify_under_noise(q, full_vector(*r.counterexample,
                                                      q.bias_node)),
                  q.true_label);
      }
    }
  }
}

TEST_P(ParallelBnb, CollectReturnsAscendingLexSmallestK) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed, 2, 5);
  util::Rng rng(seed * 7 + 1);
  std::vector<i64> x{rng.uniform_int(1, 100), rng.uniform_int(1, 100)};
  // Deliberately wrong label guarantees a rich counterexample set.
  const Query q = make_query(net, x, 1 - net.classify_noised(x, {}), 3);
  const std::vector<std::vector<int>> truth = lex_sorted_truth(q);
  ASSERT_FALSE(truth.empty());

  for (const std::size_t cap : {std::size_t{3}, truth.size(), truth.size() + 7}) {
    const std::size_t expect = std::min(cap, truth.size());
    for (const auto policy :
         {BnbOptions::Policy::kDepthFirst, BnbOptions::Policy::kBestFirst}) {
      BnbOptions opt;
      opt.policy = policy;
      const std::vector<Counterexample> got = bnb_collect(q, cap, opt);
      const bool best_first = policy == BnbOptions::Policy::kBestFirst;
      ASSERT_EQ(got.size(), expect)
          << "cap=" << cap << " best_first=" << best_first;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(full_vector(got[i], false), truth[i])
            << "cap=" << cap << " best_first=" << best_first << " i=" << i;
      }
    }
  }
}

TEST_P(ParallelBnb, StreamDeliversTheFullSetOnAnyThreadCount) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed, 2, 5);
  std::vector<i64> x{40, 70};
  const Query q = make_query(net, x, 1 - net.classify_noised(x, {}), 3);
  const std::vector<std::vector<int>> truth = lex_sorted_truth(q);

  for (const auto policy :
       {BnbOptions::Policy::kDepthFirst, BnbOptions::Policy::kBestFirst}) {
    BnbOptions opt;
    opt.policy = policy;
    std::set<std::vector<int>> seen;
    const bool best_first = policy == BnbOptions::Policy::kBestFirst;
    bnb_stream(
        q,
        [&](const Counterexample& cex) {
          EXPECT_TRUE(seen.insert(full_vector(cex, false)).second)
              << "duplicate delivery";
          return true;
        },
        opt);
    EXPECT_EQ(seen.size(), truth.size()) << "best_first=" << best_first;
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), truth.begin()))
        << "best_first=" << best_first;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelBnb,
                         testing::Range<std::uint64_t>(1, 7));

TEST(ParallelBnb, EarlyStopSinkCancelsAllWorkers) {
  // A false sink return stops the search at once: no further delivery.
  const nn::QuantizedNetwork net = random_qnet(21, 2, 5);
  std::vector<i64> x{30, 80};
  const Query q = make_query(net, x, 1 - net.classify_noised(x, {}), 4);
  int delivered = 0;
  bnb_stream(q, [&](const Counterexample&) { return ++delivered < 5; });
  EXPECT_EQ(delivered, 5);
}

// ---------------------------------------------------------------------------
// Budget exhaustion degrades gracefully through the engine stack.
// ---------------------------------------------------------------------------

/// A bnb engine with a tiny box budget, so exhaustion is guaranteed.
/// Deliberately NOT registered: the process-wide registry is shared by
/// every test in the binary (the agreement properties iterate it), so a
/// crippled engine must stay local — run_all takes any `const Engine&`,
/// and the cascade test injects it via the pointer-stage constructor.
class TinyBudgetBnb final : public Engine {
 public:
  explicit TinyBudgetBnb(std::uint64_t max_boxes = 2)
      : max_boxes_(max_boxes) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "bnb-tiny-budget";
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<EngineTask> make_task(
      const Query& query, const VerifyContext& context) const override {
    BnbOptions opt;
    opt.max_boxes = max_boxes_;
    opt.use_symbolic = false;  // weak pruning forces splitting
    opt.budget = context.budget;
    return make_bnb_task(query, opt);
  }

 private:
  std::uint64_t max_boxes_;
};

std::vector<Query> exhausting_batch(const nn::QuantizedNetwork& net) {
  std::vector<Query> batch;
  for (const i64 base : {20, 50, 80}) {
    batch.push_back(make_query(net, {base, base, base},
                               net.classify_noised({{base, base, base}}, {}),
                               40));
  }
  return batch;
}

TEST(ParallelBnb, BudgetUnknownFlowsThroughSchedulerRunAll) {
  const nn::QuantizedNetwork net = random_qnet(55);
  const std::vector<Query> batch = exhausting_batch(net);
  const TinyBudgetBnb tiny;
  BatchStats stats;
  std::vector<VerifyResult> results;
  ASSERT_NO_THROW(
      results = Scheduler({.threads = 2}).run_all(batch, tiny, &stats));
  ASSERT_EQ(results.size(), batch.size());
  for (const VerifyResult& r : results) {
    EXPECT_EQ(r.verdict, Verdict::kUnknown);
    EXPECT_TRUE(r.resource_limited);
    EXPECT_GE(r.work, 2u);  // the boxes it did process are recorded
  }
}

TEST(ParallelBnb, BudgetUnknownFlowsThroughCascade) {
  // A cascade whose complete stage runs out of budget answers kUnknown
  // (accumulating work across stages) instead of aborting the batch.  The
  // crippled stage is injected by pointer, keeping the registry clean.
  const nn::QuantizedNetwork net = random_qnet(56);
  const TinyBudgetBnb tiny;
  const auto cascade = CascadeEngine::with_stages(
      {&engine("interval"), &engine("symbolic"), &tiny});
  for (const Query& q : exhausting_batch(net)) {
    VerifyResult r;
    ASSERT_NO_THROW(r = cascade->verify(q));
    if (r.verdict == Verdict::kUnknown) {
      EXPECT_FALSE(r.counterexample.has_value());
      EXPECT_TRUE(r.resource_limited);
      EXPECT_GE(r.work, 2u);
    }
  }
}

TEST(ParallelBnb, ResourceLimitedResultsAreNeverMemoized) {
  // A starved run's result is sound but not canonical (its witness need
  // not be the lex-lowest): caching it would poison future runs with
  // bigger budgets.  Neither the kUnknown nor the witness-in-hand
  // kVulnerable form may enter the cache.
  const nn::QuantizedNetwork net = random_qnet(57);
  const Query q = exhausting_batch(net).front();
  QueryCache cache;
  bool hit = true;
  const TinyBudgetBnb tiny;
  const VerifyResult starved = cached_verify(&cache, q, tiny, &hit);
  EXPECT_EQ(starved.verdict, Verdict::kUnknown);
  EXPECT_TRUE(starved.resource_limited);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);

  // Exhaustion *after* a witness landed: kVulnerable + resource_limited
  // must also stay out of the cache.  (Wrong label makes witnesses
  // plentiful; whether a given budget trips mid-continuation depends on
  // the tree shape, so assert on whichever deterministic outcome this
  // query produces: a limited result caches nothing, a completed one
  // caches exactly one canonical entry.)
  Query vulnerable = q;
  vulnerable.true_label = 1 - vulnerable.true_label;
  const TinyBudgetBnb small_budget(60);
  const VerifyResult partial =
      cached_verify(&cache, vulnerable, small_budget, &hit);
  const std::size_t after_partial = partial.resource_limited ? 0u : 1u;
  EXPECT_EQ(cache.size(), after_partial);

  // The full-budget engine re-decides and its verdict does get cached.
  const VerifyResult decided = cached_verify(&cache, q, engine("bnb"), &hit);
  EXPECT_NE(decided.verdict, Verdict::kUnknown);
  EXPECT_FALSE(decided.resource_limited);
  EXPECT_EQ(cache.size(), after_partial + 1);
}

}  // namespace
}  // namespace fannet::verify
