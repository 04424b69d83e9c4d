/// \file
/// \brief SAT-backed P2 decision engine ("sat" in the verify::EngineRegistry).
///
/// Bit-blasts the quantized forward pass and the argmax property to CNF
/// through the existing SMV translation + Tseitin path (core/translate ->
/// mc/compile -> circuit/tseitin) and decides the query with the CDCL solver,
/// inprocessing enabled.  A kSat answer is refined to the lexicographically
/// lowest witness (query dimension order, bias last — the same canonical
/// order the bnb engine returns) by per-dimension binary search over frozen
/// threshold literals, so verdicts *and* witnesses are bit-identical to the
/// exact-integer complete engines.  Per-query conflict/propagation budgets
/// map onto kUnknown with resource_limited set — the engine never hangs.
/// With a ProofLog attached, robust (UNSAT) verdicts carry a DRAT transcript
/// checkable by sat::check_proof.
#pragma once

#include <cstdint>

#include "sat/drat.hpp"
#include "sat/inprocess.hpp"
#include "verify/engine.hpp"

namespace fannet::mc {

struct SatVerifyOptions {
  /// Cumulative CDCL conflict budget across the decision solve and the
  /// witness-minimization solves (0 = unlimited).
  std::uint64_t conflict_budget = 2'000'000;
  /// Cumulative unit-propagation budget (0 = unlimited).
  std::uint64_t propagation_budget = 500'000'000;
  /// Inprocessing passes for the solver (default: the full suite).
  sat::InprocessOptions inprocess = sat::InprocessOptions::all();
};

/// Decides the P2 query by SAT.  When `proof` is non-null every solver
/// derivation is logged to it; for a kRobust verdict the log is a complete
/// DRAT certificate (check with sat::check_proof, no assumptions).
[[nodiscard]] verify::VerifyResult sat_verify(const verify::Query& query,
                                              const SatVerifyOptions& options,
                                              sat::ProofLog* proof = nullptr);

/// Registry adapter.  Complete: the CNF encodes the full box exactly, so
/// kUnknown arises only from the resource budget (resource_limited is set).
class SatEngine final : public verify::Engine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "sat";
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  [[nodiscard]] verify::EngineCaps caps() const noexcept override {
    return verify::EngineCaps{.complete = true,
                              .deadline = true,
                              .budget = true,
                              .native_task = true};
  }
  /// Native resumable task: CNF encoding on the first step, then CDCL
  /// probes (decision solve, then witness-minimization probes) until the
  /// step's conflict quota is spent, with pause/cancel/deadline polled
  /// inside the solver at conflict granularity.  Learnt clauses persist
  /// across steps; pause/resume never changes the verdict or the witness.
  /// Honours VerifyContext::budget: conflict/propagation caps, deadline,
  /// cancellation.
  [[nodiscard]] std::unique_ptr<verify::EngineTask> make_task(
      const verify::Query& query,
      const verify::VerifyContext& context) const override;
};

}  // namespace fannet::mc
