// Unit + cross-engine tests for the FANNet core: Behavior Extraction (the
// SMV translation), the four P2 engines' agreement, tolerance analysis,
// corpus extraction, and the bias/sensitivity/boundary analyses.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/analysis.hpp"
#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "core/report.hpp"
#include "core/translate.hpp"
#include "mc/explicit.hpp"
#include "smv/parser.hpp"
#include "smv/printer.hpp"
#include "util/rng.hpp"

namespace fannet::core {
namespace {

using util::i64;
using verify::NoiseBox;
using verify::Verdict;

nn::QuantizedNetwork random_qnet(std::uint64_t seed, std::size_t inputs = 3,
                                 std::size_t hidden = 5) {
  const nn::Network net = nn::Network::random({inputs, hidden, 2}, seed);
  return nn::QuantizedNetwork::quantize(net, 100);
}

verify::Query make_query(const nn::QuantizedNetwork& net, std::vector<i64> x,
                         int label, int range, bool bias_node = false) {
  verify::Query q;
  q.net = &net;
  q.x = std::move(x);
  q.true_label = label;
  q.box = NoiseBox::symmetric(q.x.size() + (bias_node ? 1 : 0), range);
  q.bias_node = bias_node;
  return q;
}

// ---------------------------------------------------------------------------
// Behavior extraction / translation
// ---------------------------------------------------------------------------
TEST(Translate, P1HoldsIffClassificationCorrect) {
  const nn::QuantizedNetwork net = random_qnet(11);
  const std::vector<i64> x{40, 60, 80};
  const int actual = net.classify_noised(x, {});

  for (const int claimed : {actual, 1 - actual}) {
    const verify::Query q = make_query(net, x, claimed, 1);
    const Translation t = translate_sample(q, /*with_noise=*/false);
    const mc::ExplicitChecker checker(t.module);
    const auto r = checker.check_spec(t.module.specs().front());
    EXPECT_EQ(r.holds, claimed == actual);
  }
}

TEST(Translate, SmvDefinesMatchExactEvaluation) {
  // The translated DEFINE chain evaluated by the SMV evaluator must equal
  // the quantized network's integer pre-activations, for several noise
  // vectors — translation is exact, not approximate.
  const nn::QuantizedNetwork net = random_qnet(12);
  const std::vector<i64> x{15, 45, 95};
  const verify::Query q = make_query(net, x, 0, 3);
  const Translation t = translate_sample(q);
  const smv::Evaluator ev(t.module);
  util::Rng rng(5);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> d(3);
    for (auto& v : d) v = static_cast<int>(rng.uniform_int(-3, 3));
    smv::State state{/*phase=*/1, d[0], d[1], d[2]};
    const auto X = nn::QuantizedNetwork::noised_inputs(x, d);
    const auto outs = net.eval_output(X);
    // Output defines are named o1, o2.
    for (std::size_t k = 0; k < outs.size(); ++k) {
      const std::string name = "o" + std::to_string(k + 1);
      bool found = false;
      for (std::size_t di = 0; di < t.module.defines().size(); ++di) {
        if (t.module.defines()[di].first == name) {
          EXPECT_EQ(ev.eval(t.module.defines()[di].second, state), outs[k]);
          found = true;
        }
      }
      EXPECT_TRUE(found) << name;
    }
  }
}

TEST(Translate, PrintedModelParsesBack) {
  const nn::QuantizedNetwork net = random_qnet(13);
  const verify::Query q = make_query(net, {10, 20, 30}, 0, 2);
  const Translation t = translate_sample(q);
  const std::string text = smv::print_module(t.module);
  const smv::Module back = smv::parse_module(text);
  EXPECT_EQ(back.vars().size(), t.module.vars().size());
  EXPECT_EQ(back.defines().size(), t.module.defines().size());
  // Spec-name comments are not part of the AST, so compare the print
  // fixpoint: print(parse(print(parse(text)))) == print(parse(text)).
  const std::string second = smv::print_module(back);
  EXPECT_EQ(smv::print_module(smv::parse_module(second)), second);
}

TEST(Translate, BiasNodeAddsNoiseDimension) {
  const nn::QuantizedNetwork net = random_qnet(14);
  const verify::Query q = make_query(net, {10, 20, 30}, 0, 2, /*bias=*/true);
  const Translation t = translate_sample(q);
  EXPECT_EQ(t.layout.delta_vars.size(), 4u);
  EXPECT_EQ(t.module.vars()[t.layout.delta_vars[3]].name, "d_bias");
}

TEST(Translate, DecodeCounterexampleFlipsLabel) {
  const nn::QuantizedNetwork net = random_qnet(15);
  const std::vector<i64> x{30, 60, 90};
  // Wrong label on purpose: the zero-noise state is already a violation.
  const verify::Query q = make_query(net, x, 1 - net.classify_noised(x, {}), 2);
  const Translation t = translate_sample(q);
  const mc::ExplicitChecker checker(t.module);
  const auto r = checker.check_spec(t.module.specs().front());
  ASSERT_FALSE(r.holds);
  const verify::Counterexample cex =
      decode_counterexample(t, q, r.counterexample.states.back());
  EXPECT_NE(cex.mis_label, q.true_label);
}

// ---------------------------------------------------------------------------
// Engine agreement (the paper's pipeline answered four ways)
// ---------------------------------------------------------------------------
class AllEngines : public testing::TestWithParam<std::uint64_t> {};

TEST_P(AllEngines, SameVerdictOnP2) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed, 2, 4);
  const Fannet fannet(net);
  util::Rng rng(seed * 1001);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<i64> x{rng.uniform_int(1, 100), rng.uniform_int(1, 100)};
    const int label = net.classify_noised(x, {});
    const int range = static_cast<int>(rng.uniform_int(1, 3));
    const auto truth =
        fannet.check_sample(x, label, range, Engine::kEnumerate).verdict;
    EXPECT_EQ(fannet.check_sample(x, label, range, Engine::kBnB).verdict, truth);
    EXPECT_EQ(fannet.check_sample(x, label, range, Engine::kCascade).verdict,
              truth);
    EXPECT_EQ(fannet.check_sample(x, label, range, Engine::kExplicitMc).verdict,
              truth);
    EXPECT_EQ(fannet.check_sample(x, label, range, Engine{"sat"}).verdict,
              truth)
        << "seed=" << seed << " trial=" << trial << " range=" << range;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllEngines, testing::Range<std::uint64_t>(1, 9));

TEST(Engines, CounterexamplesAreValidWitnesses) {
  const nn::QuantizedNetwork net = random_qnet(20, 2, 4);
  const Fannet fannet(net);
  const std::vector<i64> x{35, 70};
  const int wrong = 1 - net.classify_noised(x, {});
  for (const Engine& engine : {Engine::kEnumerate, Engine::kBnB,
                               Engine::kCascade, Engine::kExplicitMc,
                               Engine{"sat"}}) {
    const auto r = fannet.check_sample(x, wrong, 2, engine);
    ASSERT_EQ(r.verdict, Verdict::kVulnerable) << to_string(engine);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_NE(net.classify_noised(x, r.counterexample->deltas,
                                  r.counterexample->bias_delta),
              wrong)
        << to_string(engine);
  }
}

// ---------------------------------------------------------------------------
// Tolerance analysis
// ---------------------------------------------------------------------------
TEST(Tolerance, ParallelReportMatchesSerial) {
  // The scheduler fan-out must not change anything: tolerance, per-sample
  // ranges, witnesses and the query count are bit-identical for 1 vs N
  // worker threads.
  const nn::QuantizedNetwork net = random_qnet(31, 3, 5);
  const Fannet fannet(net);
  la::Matrix<i64> inputs(4, 3);
  util::Rng rng(404);
  std::vector<int> labels(4);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t c = 0; c < 3; ++c) {
      inputs(s, c) = rng.uniform_int(1, 100);
    }
    labels[s] = net.classify_noised(inputs.row(s), {});
  }
  ToleranceConfig serial;
  serial.start_range = 30;
  serial.threads = 1;
  ToleranceConfig parallel = serial;
  parallel.threads = 8;

  const ToleranceReport a = fannet.analyze_tolerance(inputs, labels, serial);
  const ToleranceReport b = fannet.analyze_tolerance(inputs, labels, parallel);
  EXPECT_EQ(a.noise_tolerance, b.noise_tolerance);
  EXPECT_EQ(a.queries, b.queries);
  ASSERT_EQ(a.per_sample.size(), b.per_sample.size());
  for (std::size_t s = 0; s < a.per_sample.size(); ++s) {
    EXPECT_EQ(a.per_sample[s].min_flip_range, b.per_sample[s].min_flip_range);
    EXPECT_EQ(a.per_sample[s].witness, b.per_sample[s].witness) << s;
  }
}

TEST(Sensitivity, ParallelReportMatchesSerial) {
  const nn::QuantizedNetwork net = random_qnet(32, 3, 5);
  const Fannet fannet(net);
  la::Matrix<i64> inputs(3, 3);
  util::Rng rng(505);
  std::vector<int> labels(3);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t c = 0; c < 3; ++c) {
      inputs(s, c) = rng.uniform_int(1, 100);
    }
    labels[s] = net.classify_noised(inputs.row(s), {});
  }
  SensitivityConfig serial;
  serial.threads = 1;
  SensitivityConfig parallel;
  parallel.threads = 8;
  const auto a = analyze_sensitivity(fannet, inputs, labels, 8, {}, serial);
  const auto b = analyze_sensitivity(fannet, inputs, labels, 8, {}, parallel);
  EXPECT_EQ(a.positive_possible, b.positive_possible);
  EXPECT_EQ(a.negative_possible, b.negative_possible);
  EXPECT_EQ(a.solo_flip_range, b.solo_flip_range);
}

TEST(Tolerance, MinFlipRangeIsTight) {
  // At min_flip_range there IS a counterexample; at min_flip_range-1 there
  // is none — the definition of the paper's (delta x)_min.
  const nn::QuantizedNetwork net = random_qnet(22, 2, 4);
  const Fannet fannet(net);
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 48; inputs(0, 1) = 52;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  ToleranceConfig config;
  config.start_range = 50;
  const ToleranceReport r = fannet.analyze_tolerance(inputs, labels, config);
  const auto& st = r.per_sample.front();
  if (st.min_flip_range.has_value()) {
    const int mfr = *st.min_flip_range;
    EXPECT_EQ(fannet.check_sample(inputs.row(0), labels[0], mfr, Engine::kBnB)
                  .verdict,
              Verdict::kVulnerable);
    if (mfr > 1) {
      EXPECT_EQ(
          fannet.check_sample(inputs.row(0), labels[0], mfr - 1, Engine::kBnB)
              .verdict,
          Verdict::kRobust);
    }
  }
}

TEST(Tolerance, MisclassifiedSamplesExcluded) {
  const nn::QuantizedNetwork net = random_qnet(23, 2, 4);
  const Fannet fannet(net);
  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 50; inputs(0, 1) = 50;
  const int actual = net.classify_noised(inputs.row(0), {});
  const std::vector<int> labels{1 - actual};  // wrong on purpose
  const ToleranceReport r = fannet.analyze_tolerance(inputs, labels, {});
  EXPECT_FALSE(r.per_sample.front().correct_without_noise);
  EXPECT_FALSE(r.per_sample.front().min_flip_range.has_value());
  EXPECT_EQ(fannet.validate_p1(inputs, labels).size(), 1u);
}

// ---------------------------------------------------------------------------
// Corpus extraction (P3)
// ---------------------------------------------------------------------------
TEST(Corpus, EntriesFlipAndAreUnique) {
  const nn::QuantizedNetwork net = random_qnet(24, 2, 4);
  const Fannet fannet(net);
  la::Matrix<i64> inputs(2, 2);
  inputs(0, 0) = 49; inputs(0, 1) = 51;
  inputs(1, 0) = 10; inputs(1, 1) = 95;
  std::vector<int> labels(2);
  for (std::size_t s = 0; s < 2; ++s) {
    labels[s] = net.classify_noised(inputs.row(s), {});
  }
  const auto corpus = fannet.extract_corpus(inputs, labels, 15, 500);
  std::set<std::pair<std::size_t, std::vector<int>>> seen;
  for (const CorpusEntry& e : corpus) {
    EXPECT_NE(net.classify_noised(inputs.row(e.sample), e.cex.deltas),
              e.true_label);
    EXPECT_TRUE(seen.insert({e.sample, e.cex.deltas}).second)
        << "duplicate noise vector in corpus";
  }
}

// ---------------------------------------------------------------------------
// Bias / sensitivity / boundary analyses
// ---------------------------------------------------------------------------
TEST(Bias, DirectionHistogramAndMajority) {
  std::vector<CorpusEntry> corpus;
  verify::Counterexample to1;
  to1.mis_label = 1;
  verify::Counterexample to0;
  to0.mis_label = 0;
  for (int i = 0; i < 7; ++i) corpus.push_back({0, 0, to1});
  for (int i = 0; i < 3; ++i) corpus.push_back({1, 1, to0});
  const std::vector<int> train{1, 1, 1, 0};
  const BiasReport r = analyze_bias(corpus, 2, train);
  EXPECT_EQ(r.direction[0][1], 7u);
  EXPECT_EQ(r.direction[1][0], 3u);
  EXPECT_EQ(r.bias_toward, 1);
  EXPECT_NEAR(r.bias_fraction, 0.7, 1e-12);
  EXPECT_EQ(r.train_majority_label, 1);
  EXPECT_NEAR(r.train_majority_fraction, 0.75, 1e-12);
}

TEST(Bias, BadLabelsThrow) {
  std::vector<CorpusEntry> corpus;
  verify::Counterexample cex;
  cex.mis_label = 5;
  corpus.push_back({0, 0, cex});
  EXPECT_THROW(analyze_bias(corpus, 2, {0, 1}), InvalidArgument);
  EXPECT_THROW(analyze_bias({}, 2, {0, 7}), InvalidArgument);
}

TEST(Sensitivity, DeadInputNodeIsInsensitive) {
  // Node 1's weights are zero everywhere: noise on it can never flip, so
  // positive/negative existence must be false and solo range empty.
  nn::Layer hidden;
  hidden.weights = la::MatrixD::from_rows({{1.0, 0.0}, {-0.5, 0.0}});
  hidden.bias = {0.1, 0.2};
  hidden.activation = nn::Activation::kReLU;
  nn::Layer out;
  out.weights = la::MatrixD::from_rows({{1.0, -1.0}, {-1.0, 1.0}});
  out.bias = {0.0, 0.05};
  out.activation = nn::Activation::kLinear;
  const nn::QuantizedNetwork net =
      nn::QuantizedNetwork::quantize(nn::Network({hidden, out}), 100);
  const Fannet fannet(net);

  la::Matrix<i64> inputs(1, 2);
  inputs(0, 0) = 60; inputs(0, 1) = 40;
  const std::vector<int> labels{net.classify_noised(inputs.row(0), {})};
  const NodeSensitivityReport r =
      analyze_sensitivity(fannet, inputs, labels, 40, {});
  EXPECT_FALSE(r.solo_flip_range[1].has_value());
  // Node 0 drives everything; if any direction flips it must be node 0.
  if (r.positive_possible[1]) {
    ADD_FAILURE() << "dead node reported as sensitive";
  }
}

TEST(Sensitivity, CorpusHistogramsCount) {
  std::vector<CorpusEntry> corpus;
  verify::Counterexample a;
  a.deltas = {3, -2};
  a.mis_label = 1;
  verify::Counterexample b;
  b.deltas = {0, -5};
  b.mis_label = 1;
  corpus.push_back({0, 0, a});
  corpus.push_back({0, 0, b});

  const nn::QuantizedNetwork net = random_qnet(25, 2, 4);
  const Fannet fannet(net);
  la::Matrix<i64> inputs(0, 2);  // no samples: only histograms computed
  const NodeSensitivityReport r =
      analyze_sensitivity(fannet, inputs, {}, 10, corpus);
  EXPECT_EQ(r.positive[0], 1u);
  EXPECT_EQ(r.zero[0], 1u);
  EXPECT_EQ(r.negative[1], 2u);
  EXPECT_EQ(r.min_delta[1], -5);
  EXPECT_EQ(r.max_delta[0], 3);
}

TEST(Boundary, HistogramBucketsAndSurvivors) {
  ToleranceReport tr;
  SampleTolerance a;
  a.sample = 0; a.correct_without_noise = true; a.min_flip_range = 3;
  SampleTolerance b;
  b.sample = 1; b.correct_without_noise = true; b.min_flip_range = 12;
  SampleTolerance c;
  c.sample = 2; c.correct_without_noise = true;  // survivor
  SampleTolerance d;
  d.sample = 3; d.correct_without_noise = false;  // excluded entirely
  tr.per_sample = {a, b, c, d};
  const BoundaryReport r = analyze_boundary(tr, 5, 50);
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.histogram[0], 1u);   // 1..5
  EXPECT_EQ(r.histogram[2], 1u);   // 11..15
  EXPECT_EQ(r.survivors, 1u);
}

// ---------------------------------------------------------------------------
// Report formatting smoke checks
// ---------------------------------------------------------------------------
TEST(Report, TextTableAlignsAndValidates) {
  TextTable t({"a", "long-header"});
  t.add_row({"1", "2"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_EQ(t.to_csv().size(), 2u);
}

TEST(Report, FormattersMentionKeyNumbers) {
  ToleranceReport tr;
  tr.noise_tolerance = 11;
  SampleTolerance st;
  st.sample = 0;
  st.correct_without_noise = true;
  st.min_flip_range = 12;
  tr.per_sample.push_back(st);
  EXPECT_NE(format_tolerance(tr).find("+/-11%"), std::string::npos);

  const BiasReport br = analyze_bias({}, 2, {1, 1, 1, 0});
  EXPECT_NE(format_bias(br).find("75%"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Case study (small cohort: full pipeline through training)
// ---------------------------------------------------------------------------
TEST(CaseStudy, SmallPipelineProducesUsableModel) {
  const CaseStudy cs = build_case_study(small_case_study_config());
  EXPECT_EQ(cs.train_y.size(), 38u);
  EXPECT_EQ(cs.test_y.size(), 34u);
  EXPECT_EQ(cs.selected_genes.size(), 5u);
  EXPECT_EQ(cs.network.input_dim(), 5u);
  EXPECT_EQ(cs.qnet.output_dim(), 2u);
  EXPECT_GE(cs.train_accuracy, 0.9);
  EXPECT_GE(cs.test_accuracy, 0.75);
  // Integer inputs live on the [1,100] grid.
  for (std::size_t s = 0; s < cs.train_x.rows(); ++s) {
    for (std::size_t c = 0; c < cs.train_x.cols(); ++c) {
      EXPECT_GE(cs.train_x(s, c), 1);
      EXPECT_LE(cs.train_x(s, c), 100);
    }
  }
  // ~70% of training samples are L1 (the paper's bias source).
  const auto l1 = static_cast<double>(
      std::count(cs.train_y.begin(), cs.train_y.end(), 1));
  EXPECT_NEAR(l1 / static_cast<double>(cs.train_y.size()), 0.71, 0.02);
}

TEST(CaseStudy, DeterministicForFixedConfig) {
  const CaseStudy a = build_case_study(small_case_study_config());
  const CaseStudy b = build_case_study(small_case_study_config());
  EXPECT_EQ(a.selected_genes, b.selected_genes);
  EXPECT_EQ(a.network.to_text(), b.network.to_text());
}

}  // namespace
}  // namespace fannet::core
