/// \file
/// \brief SMV -> circuit compiler (bit-blasting bounded-integer models).
///
/// Every SMV variable becomes a two's-complement word sized to its declared
/// domain; expressions compile to word/bit logic; nondeterministic choices
/// ({...} sets, lo..hi ranges, unassigned variables) become fresh oracle
/// inputs constrained to their legal values.  The step function feeds the
/// SAT engine's one-step unroll (via Tseitin, mc/sat_engine.hpp).
#pragma once

#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "smv/ast.hpp"

namespace fannet::mc {

class SmvCompiler {
 public:
  explicit SmvCompiler(const smv::Module& module);

  [[nodiscard]] const smv::Module& module() const noexcept { return module_; }

  /// Word width of a variable (two's complement, covers its domain).
  [[nodiscard]] std::size_t var_width(std::size_t var) const;

  /// Fresh circuit inputs representing one symbolic state.
  [[nodiscard]] std::vector<circuit::Word> make_state_inputs(
      circuit::Circuit& c) const;

  /// Conjunction asserting `state` is a legal initial state (init
  /// assignments — possibly via fresh choice oracles — INIT constraints,
  /// INVAR constraints and variable domains).
  [[nodiscard]] circuit::CLit init_constraint(
      circuit::Circuit& c, const std::vector<circuit::Word>& state) const;

  struct Step {
    std::vector<circuit::Word> next;  ///< one word per variable (var width)
    circuit::CLit valid;              ///< transition legality conjunction
  };
  /// One symbolic transition out of `state` (creates choice oracles).
  [[nodiscard]] Step step(circuit::Circuit& c,
                          const std::vector<circuit::Word>& state) const;

  /// Compiles a boolean expression over a state (and optional next state
  /// for TRANS constraints).
  [[nodiscard]] circuit::CLit compile_bool(
      circuit::Circuit& c, smv::ExprId id,
      const std::vector<circuit::Word>& state,
      const std::vector<circuit::Word>* next = nullptr) const;

  /// lo <= word <= hi for a variable's declared domain.
  [[nodiscard]] circuit::CLit domain_constraint(circuit::Circuit& c,
                                                std::size_t var,
                                                const circuit::Word& w) const;

 private:
  /// Compilation value: either a single bit (boolean) or a word (integer).
  struct Value {
    bool is_bool = false;
    circuit::CLit bit = circuit::kFalse;
    circuit::Word word;
  };
  struct Ctx {
    circuit::Circuit& c;
    const std::vector<circuit::Word>& state;
    const std::vector<circuit::Word>* next;
    // DEFINE bodies are DAG-shared (the NN translation reuses activations
    // heavily); cache their compiled value per invocation context.
    std::vector<std::optional<Value>> define_cache;
  };
  struct Choice {
    circuit::Word value;
    circuit::CLit constraint = circuit::kTrue;
  };

  [[nodiscard]] Value compile(Ctx& ctx, smv::ExprId id) const;
  [[nodiscard]] circuit::Word as_word(Ctx& ctx, const Value& v) const;
  [[nodiscard]] circuit::CLit as_bool(Ctx& ctx, const Value& v) const;
  [[nodiscard]] Choice compile_choice(Ctx& ctx, smv::ExprId id) const;
  /// Constant folding for range bounds (throws if not a constant).
  [[nodiscard]] smv::i64 const_value(smv::ExprId id) const;

  const smv::Module& module_;
  std::vector<std::size_t> widths_;
};

}  // namespace fannet::mc
