// End-to-end integration tests: the full paper pipeline on a small cohort,
// exercising every module together — data generation, mRMR, training,
// quantization, SMV translation, all four P2 engines, and the three
// Fig.-4 analyses.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/analysis.hpp"
#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "core/translate.hpp"
#include "mc/explicit.hpp"
#include "verify/enumerate.hpp"
#include "smv/parser.hpp"
#include "smv/printer.hpp"

namespace fannet {
namespace {

using core::CaseStudy;
using core::Engine;
using core::Fannet;
using util::i64;

const CaseStudy& shared_case_study() {
  static const CaseStudy cs =
      core::build_case_study(core::small_case_study_config());
  return cs;
}

TEST(Integration, FullToleranceAnalysisIsConsistent) {
  const CaseStudy& cs = shared_case_study();
  const Fannet fannet(cs.qnet);
  core::ToleranceConfig config;
  config.start_range = 50;
  const core::ToleranceReport report =
      fannet.analyze_tolerance(cs.test_x, cs.test_y, config);

  // The tolerance must certify: at the tolerance range, every correct
  // sample is robust (re-checked independently).
  if (report.noise_tolerance >= 1) {
    for (const auto& st : report.per_sample) {
      if (!st.correct_without_noise) continue;
      const auto r = fannet.check_sample(cs.test_x.row(st.sample),
                                         st.true_label,
                                         report.noise_tolerance, Engine::kBnB);
      EXPECT_EQ(r.verdict, verify::Verdict::kRobust) << st.sample;
    }
  }
  // And at tolerance+1 some sample flips (unless everything survives 50%).
  bool any_flip = false;
  for (const auto& st : report.per_sample) {
    any_flip |= st.min_flip_range.has_value();
  }
  if (any_flip) {
    EXPECT_LT(report.noise_tolerance, config.start_range);
    bool witnessed = false;
    for (const auto& st : report.per_sample) {
      if (st.min_flip_range == report.noise_tolerance + 1) witnessed = true;
    }
    EXPECT_TRUE(witnessed);
  }
}

TEST(Integration, FourEnginesAgreeOnRealSamples) {
  const CaseStudy& cs = shared_case_study();
  const Fannet fannet(cs.qnet);
  const auto bad = fannet.validate_p1(cs.test_x, cs.test_y);

  int checked = 0;
  for (std::size_t s = 0; s < cs.test_x.rows() && checked < 3; ++s) {
    if (std::find(bad.begin(), bad.end(), s) != bad.end()) continue;
    ++checked;
    for (const int range : {1, 2}) {
      const auto truth = fannet.check_sample(cs.test_x.row(s), cs.test_y[s],
                                             range, Engine::kEnumerate);
      // sat bit-blasts the whole 5-20-2 net per query; keep it to range 1
      // so the suite stays fast (the per-engine tests cover it broadly).
      std::vector<Engine> engines{Engine::kBnB, Engine::kExplicitMc};
      if (range == 1) engines.push_back(Engine{"sat"});
      for (const Engine& e : engines) {
        const auto r =
            fannet.check_sample(cs.test_x.row(s), cs.test_y[s], range, e);
        EXPECT_EQ(r.verdict, truth.verdict)
            << "sample=" << s << " range=" << range << " engine=" << core::to_string(e);
      }
    }
  }
  EXPECT_EQ(checked, 3);
}

TEST(Integration, TranslatedModelRoundTripsThroughText) {
  const CaseStudy& cs = shared_case_study();
  verify::Query q;
  q.net = &cs.qnet;
  q.x.assign(cs.test_x.row(0).begin(), cs.test_x.row(0).end());
  q.true_label = cs.test_y[0];
  q.box = verify::NoiseBox::symmetric(5, 1);

  const core::Translation t = core::translate_sample(q);
  const std::string text = smv::print_module(t.module);
  const smv::Module back = smv::parse_module(text);

  // The re-parsed model must give the same explicit-MC verdict.
  const mc::ExplicitChecker c1(t.module);
  const mc::ExplicitChecker c2(back);
  EXPECT_EQ(c1.check_spec(t.module.specs().front()).holds,
            c2.check_spec(back.specs().front()).holds);
}

TEST(Integration, CorpusDrivesBiasAndSensitivity) {
  const CaseStudy& cs = shared_case_study();
  const Fannet fannet(cs.qnet);
  core::ToleranceConfig config;
  config.start_range = 50;
  const auto tolerance = fannet.analyze_tolerance(cs.test_x, cs.test_y, config);
  const int range = std::min(50, tolerance.noise_tolerance + 10);
  const auto corpus = fannet.extract_corpus(cs.test_x, cs.test_y, range, 300);

  if (!corpus.empty()) {
    const auto bias = core::analyze_bias(corpus, 2, cs.train_y);
    std::uint64_t total = 0;
    for (const auto& row : bias.direction) {
      for (const auto v : row) total += v;
    }
    EXPECT_EQ(total, corpus.size());
    EXPECT_EQ(bias.train_majority_label, 1);  // ~70% L1 by construction

    const auto sens = core::analyze_sensitivity(fannet, cs.test_x, cs.test_y,
                                                range, corpus);
    // Histogram totals match the corpus size per node.
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(sens.positive[i] + sens.negative[i] + sens.zero[i],
                corpus.size());
    }
  }

  const auto boundary = core::analyze_boundary(tolerance, 5, 50);
  std::uint64_t bucketed = 0;
  for (const auto v : boundary.histogram) bucketed += v;
  EXPECT_EQ(bucketed + boundary.survivors, boundary.rows.size());
}

TEST(Integration, SensitivitySoundnessSpotCheck) {
  // If the sound analysis says "no positive-noise counterexample exists at
  // node i", then enumeration at a modest range must not find one either.
  const CaseStudy& cs = shared_case_study();
  const Fannet fannet(cs.qnet);
  const int probe_range = 6;
  const auto sens =
      core::analyze_sensitivity(fannet, cs.test_x, cs.test_y, probe_range, {});
  const auto bad = fannet.validate_p1(cs.test_x, cs.test_y);

  for (std::size_t node = 0; node < 5; ++node) {
    if (sens.positive_possible[node]) continue;
    for (std::size_t s = 0; s < cs.test_x.rows(); ++s) {
      if (std::find(bad.begin(), bad.end(), s) != bad.end()) continue;
      verify::Query q;
      q.net = &cs.qnet;
      q.x.assign(cs.test_x.row(s).begin(), cs.test_x.row(s).end());
      q.true_label = cs.test_y[s];
      q.box = verify::NoiseBox::symmetric(5, probe_range);
      q.box.lo[node] = 1;
      if (q.box.lo[node] > q.box.hi[node]) continue;
      EXPECT_EQ(verify::enumerate_find_first(q).verdict,
                verify::Verdict::kRobust)
          << "node=" << node << " sample=" << s;
    }
  }
}

}  // namespace
}  // namespace fannet
