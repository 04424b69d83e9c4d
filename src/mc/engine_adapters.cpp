#include "mc/engine_adapters.hpp"

#include "core/translate.hpp"
#include "mc/explicit.hpp"
#include "mc/sat_engine.hpp"
#include "verify/task.hpp"

namespace fannet::mc {

using verify::Verdict;
using verify::VerifyResult;

namespace {

VerifyResult explicit_mc_verify(const verify::Query& query) {
  const core::Translation t = core::translate_sample(query);
  const ExplicitChecker checker(t.module);
  const InvariantResult r =
      checker.check_invariant(t.module.specs().front().expr);
  VerifyResult out;
  out.work = r.states_explored;
  if (r.holds) {
    out.verdict = Verdict::kRobust;
  } else {
    out.verdict = Verdict::kVulnerable;
    out.counterexample =
        core::decode_counterexample(t, query, r.counterexample.states.back());
  }
  return out;
}

}  // namespace

std::unique_ptr<verify::EngineTask> ExplicitMcEngine::make_task(
    const verify::Query& query, const verify::VerifyContext& context) const {
  return verify::make_one_shot_task(explicit_mc_verify, query,
                                    context.budget);
}

}  // namespace fannet::mc

namespace fannet::verify::detail {

void register_translation_engines(EngineRegistry& registry) {
  registry.add(std::make_unique<mc::ExplicitMcEngine>());
  registry.add(std::make_unique<mc::SatEngine>());
}

}  // namespace fannet::verify::detail
