// Behavior Extraction demo: translate a trained network + one test sample
// into the SMV model the paper feeds nuXmv, print it, and model-check the
// P1/P2 properties with our own backends (explicit-state here; the sat
// engine bit-blasts the same model to CNF).
//
// The .smv text written to leukemia_sample.smv is nuXmv-compatible.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "core/translate.hpp"
#include "mc/explicit.hpp"
#include "smv/printer.hpp"

int main() {
  using namespace fannet;

  // Small cohort keeps this example fast; same code paths as the paper-size
  // run in leukemia_case_study.
  const core::CaseStudy cs = core::build_case_study(core::small_case_study_config());
  const core::Fannet fannet(cs.qnet);

  // Pick the first correctly classified test sample.
  const auto bad = fannet.validate_p1(cs.test_x, cs.test_y);
  std::size_t sample = 0;
  while (std::find(bad.begin(), bad.end(), sample) != bad.end()) ++sample;

  verify::Query q;
  q.net = &cs.qnet;
  q.x.assign(cs.test_x.row(sample).begin(), cs.test_x.row(sample).end());
  q.true_label = cs.test_y[sample];
  q.box = verify::NoiseBox::symmetric(q.x.size(), 2);  // +/-2% noise

  // --- P1: the no-noise model must classify correctly --------------------
  const core::Translation p1 = core::translate_sample(q, /*with_noise=*/false);
  const mc::ExplicitChecker p1_checker(p1.module);
  const auto p1_result = p1_checker.check_spec(p1.module.specs().front());
  std::printf("P1 (no noise): %s\n", p1_result.holds ? "PASS" : "FAIL");

  // --- P2: the noisy model -------------------------------------------------
  const core::Translation p2 = core::translate_sample(q, /*with_noise=*/true);
  const std::string text = smv::print_module(p2.module);
  std::ofstream("leukemia_sample.smv") << text;
  std::printf("wrote leukemia_sample.smv (%zu bytes); first lines:\n", text.size());
  std::fputs(text.substr(0, 600).c_str(), stdout);
  std::puts("  ...");

  const mc::ExplicitChecker p2_checker(p2.module);
  const auto p2_result = p2_checker.check_spec(p2.module.specs().front());
  if (p2_result.holds) {
    std::printf("P2 at +/-2%%: PASS — no noise vector flips sample %zu "
                "(%llu states)\n",
                sample,
                static_cast<unsigned long long>(p2_result.states_explored));
  } else {
    const verify::Counterexample cex = core::decode_counterexample(
        p2, q, p2_result.counterexample.states.back());
    std::printf("P2 at +/-2%%: FAIL — noise vector [");
    for (std::size_t i = 0; i < cex.deltas.size(); ++i) {
      std::printf("%s%d%%", i ? ", " : "", cex.deltas[i]);
    }
    std::printf("] flips sample %zu to L%d\n", sample, cex.mis_label);
  }
  return 0;
}
