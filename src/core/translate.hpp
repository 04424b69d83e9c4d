/// \file
/// \brief Behavior Extraction: trained network -> SMV model (paper Fig. 2, left).
///
/// translate_sample() emits, for one test input X with true label Sx, the
/// state machine the paper hands to nuXmv:
///
///   VAR    phase : {s_init, s_eval};  d1..dN : -R..R;   -- noise, percent
///   ASSIGN next(phase) := s_eval;  next(d_i) := -R..R;  -- fresh every cycle
///   DEFINE X_i := x_i*(100+d_i);  n_j := <affine>;  a_j := relu-case;
///          o_k := <affine>;  OC := <argmax case>;
///   INVARSPEC phase = s_eval -> OC = Sx                 -- property P2
///
/// The whole encoding is integer-only: the common scale factors of
/// nn::QuantizedNetwork replace division (DESIGN.md §4.1), so any backend
/// (explicit-state, SAT) answers exactly the same query as the exact-integer
/// verification engines — the property tests assert this agreement.
///
/// make_fig3_label_fsm() / make_fig3_noise_fsm() build the paper's Fig.-3
/// state machines whose reachable-state/transition counts the statespace
/// bench reproduces (3/6 and, for 6 nodes with [0,1]% noise, 65/4160).
#pragma once

#include "nn/quantized.hpp"
#include "smv/ast.hpp"
#include "smv/eval.hpp"
#include "verify/query.hpp"

namespace fannet::core {

/// Names used by the translation (shared with trace decoding).
struct TranslationLayout {
  std::size_t phase_var = 0;          ///< index of `phase`
  std::vector<std::size_t> delta_vars;  ///< noise variable indices, in order
  smv::i64 eval_phase_value = 1;      ///< value of the s_eval symbol
};

struct Translation {
  smv::Module module;
  TranslationLayout layout;
};

/// P2 model: noise ranges from the query box.  With `with_noise == false`
/// the deltas are pinned to zero and the spec degenerates to P1 (functional
/// validation of the translated network).
[[nodiscard]] Translation translate_sample(const verify::Query& query,
                                           bool with_noise = true);

/// Extracts the noise vector from a violating trace state.
[[nodiscard]] verify::Counterexample decode_counterexample(
    const Translation& translation, const verify::Query& query,
    const smv::State& state);

/// Fig. 3(b): the label FSM without noise — {Initial, L0, L1}, every input
/// sample nondeterministically drives to either label: 3 states, 6 edges.
[[nodiscard]] smv::Module make_fig3_label_fsm();

/// Fig. 3(c): the noise FSM — `nodes` per-input noise variables in
/// [0, delta_max], re-chosen nondeterministically each cycle, plus the
/// init/eval phase.  Reachable states = 1 + (delta_max+1)^nodes and
/// transitions = (delta_max+1)^nodes * (1 + (delta_max+1)^nodes); for
/// 6 nodes and delta_max = 1 that is 65 states / 4160 transitions.
[[nodiscard]] smv::Module make_fig3_noise_fsm(std::size_t nodes, int delta_max);

}  // namespace fannet::core
