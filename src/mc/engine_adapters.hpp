/// \file
/// \brief The SMV-translation engines' registration, and explicit-state
/// model checking as a pluggable verify::Engine.
///
/// "explicit-mc" runs the paper's original tool path: Behavior Extraction
/// (core/translate) turns the query into an SMV model, then the
/// explicit-state checker (mc/explicit) decides the INVARSPEC in one
/// blocking call, wrapped in a one-shot task (verify/task.hpp).  It is
/// registered next to "sat" (mc/sat_engine.hpp) so every consumer reaches
/// both through the same seam as the exact-integer engines; the registry
/// seeds them via verify::detail::register_translation_engines (defined
/// here, in the MC layer, because the translation lives above src/verify).
#pragma once

#include "verify/engine.hpp"

namespace fannet::mc {

/// SMV translation + enumerative reachability (mc/explicit).  Complete.
class ExplicitMcEngine final : public verify::Engine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "explicit-mc";
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  [[nodiscard]] std::unique_ptr<verify::EngineTask> make_task(
      const verify::Query& query,
      const verify::VerifyContext& context) const override;
};

}  // namespace fannet::mc
