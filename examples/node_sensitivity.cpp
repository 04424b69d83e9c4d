// Eq.-3 input-node sensitivity on its own: for each input node, how much
// noise can THAT node alone absorb before any test sample flips, and in
// which direction do adversarial perturbations exist at all?
//
// This is the analysis behind the paper's variable-precision data
// acquisition suggestion (§V-C.4): insensitive nodes can be measured
// cheaply, sensitive ones need precise acquisition.
#include <cstdio>

#include "core/analysis.hpp"
#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "core/report.hpp"

int main() {
  using namespace fannet;

  const core::CaseStudy cs =
      core::build_case_study(core::small_case_study_config());
  const core::Fannet fannet(cs.qnet);

  std::printf("network: 5-20-2, test accuracy %.2f%%\n\n",
              100.0 * cs.test_accuracy);

  // Pure Eq.-3 analysis: empty corpus (histogram columns will be zero).
  // The directional/solo probes are sound decisions by the cascade
  // portfolio engine, each one unit of the analysis's sweep campaign,
  // fanned out over every core; a directional probe stops at the first
  // sample that has a witness.
  core::SensitivityConfig probes;
  probes.engine = core::Engine::kCascade;
  probes.threads = 0;  // one worker per hardware thread
  const core::NodeSensitivityReport report =
      core::analyze_sensitivity(fannet, cs.test_x, cs.test_y, 50, {}, probes);
  std::fputs(core::format_sensitivity(report).c_str(), stdout);

  std::puts("\nReading the table:");
  std::puts(" - 'pos/neg possible' = does ANY adversarial noise vector exist");
  std::puts("   whose noise at this node has that sign (others unconstrained)?");
  std::puts(" - 'solo flip at' = Eq. 3: smallest +/-a flipping some sample");
  std::puts("   when ONLY this node is noised ('never' = robust node).");
  return 0;
}
