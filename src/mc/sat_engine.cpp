#include "mc/sat_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/tseitin.hpp"
#include "core/translate.hpp"
#include "mc/compile.hpp"
#include "sat/solver.hpp"
#include "verify/task.hpp"

namespace fannet::mc {

using circuit::Circuit;
using circuit::CLit;
using circuit::TseitinEncoder;
using circuit::Word;
using verify::Verdict;
using verify::VerifyResult;

namespace {

/// The decide-then-minimize pipeline of sat_verify unrolled into resumable
/// probes: one CDCL solve per `advance()` call, with all cross-solve state
/// (the incremental solver with its learnt clauses, the frozen threshold
/// literals, the binary-search cursor, the accumulated pins) held as
/// members.  `sat_verify` drives it in a tight loop; SatTask drives it one
/// solve per step with a re-armed conflict quota, which is what makes the
/// SAT engine pausable with bounded overshoot.
///
/// A stalled probe (solver kUnknown) leaves the session state untouched,
/// so the caller can either retry it on a later step (pause / step quota)
/// or `finalize_stalled()` (engine budget / deadline) — the latter
/// reproduces the blocking path's resource_limited results, including the
/// valid-but-non-canonical witness when the stall hits mid-minimization.
///
/// Determinism: whatever model a retried probe lands on, the per-dimension
/// binary search converges to the same lexicographically lowest witness —
/// SAT/UNSAT answers are semantic, and the final pins force every
/// dimension to its minimum — so pause/resume never changes the verdict
/// or the witness, only `work`.
class SatSession {
 public:
  enum class Advance {
    kMore,     ///< one probe done, more needed
    kStalled,  ///< the solver gave up (limits or stop callback); retry or
               ///< finalize_stalled()
    kDone,     ///< take_result() is ready
  };

  SatSession(const verify::Query& query, const SatVerifyOptions& options,
             sat::ProofLog* proof)
      : query_(query),
        t_(core::translate_sample(query)),
        compiler_(t_.module),
        enc_(c_, solver_) {
    // Attach the proof before the first clause so the log is a
    // self-contained DRAT certificate of the whole CNF.
    solver_.set_proof(proof);
    solver_.set_conflict_limit(options.conflict_budget);
    solver_.set_propagation_limit(options.propagation_budget);
    solver_.set_inprocess(options.inprocess);

    // Unroll exactly one transition: the initial state is s_init (the
    // property holds vacuously there) and every s_eval successor
    // re-chooses the noise over the whole box, so a violation exists iff
    // one exists at depth 1.
    const std::vector<Word> state0 = compiler_.make_state_inputs(c_);
    enc_.assert_true(compiler_.init_constraint(c_, state0));
    const SmvCompiler::Step step = compiler_.step(c_, state0);
    enc_.assert_true(step.valid);
    const smv::ExprId property = t_.module.specs().front().expr;
    // Assert the violation as a unit clause (not an assumption): a kUnsat
    // answer is then a plain refutation, checkable without assumptions.
    enc_.assert_true(~compiler_.compile_bool(c_, property, step.next));

    // Pre-encode everything the incremental phase will touch *before* the
    // first solve — inprocessing (BVE in particular) forbids new clauses
    // over removed variables.  That is: the noise words themselves, plus
    // one threshold literal le[d][m] <=> (delta_d <= m) per interior grid
    // value, frozen so they survive as assumption literals.
    dims_ = query.noise_dims();
    le_.resize(dims_);
    delta_words_.resize(dims_);
    for (std::size_t d = 0; d < dims_; ++d) {
      delta_words_[d] = step.next[t_.layout.delta_vars[d]];
      (void)enc_.lits(delta_words_[d]);
      const int lo = query.box.lo[d];
      const int hi = query.box.hi[d];
      le_[d].reserve(static_cast<std::size_t>(hi - lo));
      for (int m = lo; m < hi; ++m) {
        const Word bound = Circuit::word_const(m, Circuit::min_width(m));
        const sat::Lit l = enc_.lit(c_.leq_signed(delta_words_[d], bound));
        solver_.set_frozen(l.var());
        le_[d].push_back(l);
      }
    }
  }

  /// Runs one solver probe (the decision solve, or one binary-search
  /// probe of the witness minimization).
  Advance advance() {
    if (phase_ == Phase::kDone) return Advance::kDone;
    if (phase_ == Phase::kDecide) {
      const sat::SolveResult first = solver_.solve();
      out_.work = solver_.stats().conflicts;
      if (first == sat::SolveResult::kUnknown) return Advance::kStalled;
      if (first == sat::SolveResult::kUnsat) {
        out_.verdict = Verdict::kRobust;
        phase_ = Phase::kDone;
        return Advance::kDone;
      }
      // Refine to the lexicographically lowest witness: dimension 0 is
      // most significant, the bias dimension (when present) least.
      phase_ = Phase::kMinimize;
      d_ = 0;
      begin_dim();
      return Advance::kMore;
    }
    // Settle dimensions whose search range is already a point.
    while (d_ < dims_ && lo_s_ >= hi_s_) {
      finish_dim();
      ++d_;
      if (d_ < dims_) begin_dim();
    }
    if (d_ >= dims_) {
      compose_witness();
      phase_ = Phase::kDone;
      return Advance::kDone;
    }
    const int lo = query_.box.lo[d_];
    const int mid = lo_s_ + (hi_s_ - lo_s_) / 2;
    std::vector<sat::Lit> assume = pins_;
    assume.push_back(le_[d_][static_cast<std::size_t>(mid - lo)]);
    const sat::SolveResult r = solver_.solve(assume);
    if (r == sat::SolveResult::kUnknown) return Advance::kStalled;
    if (r == sat::SolveResult::kSat) {
      hi_s_ = static_cast<int>(enc_.decode_word(delta_words_[d_]));
    } else {
      lo_s_ = mid + 1;
    }
    return Advance::kMore;
  }

  /// Turns a stall into the final resource-limited result: kUnknown from
  /// the decision solve; mid-minimization, the solver's model always
  /// realizes the current best, so a budget expiry still leaves a valid
  /// (just non-canonical) witness.
  void finalize_stalled() {
    if (phase_ == Phase::kDecide) {
      out_.verdict = Verdict::kUnknown;
      out_.work = solver_.stats().conflicts;
      out_.resource_limited = true;
    } else if (phase_ == Phase::kMinimize) {
      limited_ = true;
      compose_witness();
    }
    phase_ = Phase::kDone;
  }

  [[nodiscard]] VerifyResult take_result() { return std::move(out_); }
  [[nodiscard]] sat::Solver& solver() noexcept { return solver_; }

 private:
  enum class Phase { kDecide, kMinimize, kDone };

  /// Opens dimension d_'s binary search: the least achievable value under
  /// the pins of the earlier dimensions lies in [lo_s_, hi_s_], where
  /// hi_s_ is what the last model realizes.
  void begin_dim() {
    lo_s_ = query_.box.lo[d_];
    hi_s_ = static_cast<int>(enc_.decode_word(delta_words_[d_]));
  }

  /// Pins dimension d_ at its minimum hi_s_ for the later searches.
  void finish_dim() {
    const int lo = query_.box.lo[d_];
    if (hi_s_ < query_.box.hi[d_]) {
      pins_.push_back(le_[d_][static_cast<std::size_t>(hi_s_ - lo)]);
    }
    if (hi_s_ > lo) {
      pins_.push_back(~le_[d_][static_cast<std::size_t>(hi_s_ - 1 - lo)]);
    }
  }

  /// The model from the last kSat solve realizes every pinned dimension's
  /// minimum (and some achievable value for the rest on budget expiry).
  void compose_witness() {
    std::vector<int> witness(dims_);
    for (std::size_t d = 0; d < dims_; ++d) {
      witness[d] = static_cast<int>(enc_.decode_word(delta_words_[d]));
    }
    verify::Counterexample cex;
    cex.deltas.assign(
        witness.begin(),
        witness.begin() + static_cast<std::ptrdiff_t>(query_.x.size()));
    cex.bias_delta = query_.bias_node ? witness.back() : 0;
    cex.mis_label = verify::classify_under_noise(query_, witness);
    out_.verdict = Verdict::kVulnerable;
    out_.counterexample = std::move(cex);
    out_.work = solver_.stats().conflicts;
    out_.resource_limited = limited_;
  }

  const verify::Query& query_;  // owned by the caller, outlives the session
  core::Translation t_;
  SmvCompiler compiler_;
  Circuit c_;
  sat::Solver solver_;
  TseitinEncoder enc_;

  std::size_t dims_ = 0;
  std::vector<std::vector<sat::Lit>> le_;
  std::vector<Word> delta_words_;

  Phase phase_ = Phase::kDecide;
  std::vector<sat::Lit> pins_;
  std::size_t d_ = 0;
  int lo_s_ = 0;
  int hi_s_ = 0;
  bool limited_ = false;
  VerifyResult out_;
};

/// Native resumable task: the CNF is encoded on the first step, then each
/// step runs session probes until it has spent `max_work` conflicts (or the
/// query is decided).  Every probe runs under a re-armed cumulative
/// conflict limit (min of the engine budget and conflicts-so-far +
/// max_work) with the solver's stop callback wired to the task's yield
/// flags — so pause, cancel, and deadline all take effect *inside* a
/// running solve, at conflict/decision granularity, and learnt clauses
/// persist across steps.  Which probes share a step changes neither the
/// solves nor their limits.
class SatTask final : public verify::EngineTask {
 public:
  SatTask(verify::Query query, SatVerifyOptions options,
          const verify::Budget& budget)
      : EngineTask(budget),
        query_(std::move(query)),
        options_(std::move(options)) {}

 private:
  bool step_impl(std::uint64_t max_work,
                 verify::VerifyResult& out) override {
    if (!session_.has_value()) {
      query_.validate();
      session_.emplace(query_, options_, nullptr);
      session_->solver().set_stop([this] { return should_yield(); });
    }
    sat::Solver& solver = session_->solver();
    const std::uint64_t step_start = solver.stats().conflicts;
    for (;;) {
      // Saturating: an unbounded quota (UINT64_MAX) must not wrap around.
      const std::uint64_t conflicts = solver.stats().conflicts;
      const std::uint64_t probe_cap =
          conflicts + std::min(max_work,
                               std::numeric_limits<std::uint64_t>::max() -
                                   conflicts);
      const std::uint64_t cumulative = options_.conflict_budget;
      solver.set_conflict_limit(
          cumulative == 0 ? probe_cap : std::min(cumulative, probe_cap));

      const SatSession::Advance a = session_->advance();
      if (a == SatSession::Advance::kDone) {
        out = session_->take_result();
        return true;
      }
      if (a == SatSession::Advance::kStalled) {
        // The engine's own budget and a deadline/cancel finalize (a
        // witness already in hand survives, flagged resource_limited); a
        // pause or the probe quota parks the probe for a later step.
        if (interrupted() || engine_budget_spent()) {
          session_->finalize_stalled();
          out = session_->take_result();
          return true;
        }
        return false;
      }
      // Probe done: a spent step quota, a pause, a deadline or a cancel
      // ends the step.
      if (solver.stats().conflicts - step_start >= max_work ||
          should_yield()) {
        return false;
      }
    }
  }

  // Between steps the session may hold a verified witness from its
  // minimization; finalize it as a probe stalled by the interruption
  // would, so the witness survives (flagged) and `work` counts the
  // conflicts spent.
  void finalize_interrupted(verify::VerifyResult& out) override {
    if (!session_.has_value()) {
      EngineTask::finalize_interrupted(out);
      return;
    }
    session_->finalize_stalled();
    out = session_->take_result();
  }

  [[nodiscard]] bool engine_budget_spent() {
    const sat::SolverStats& s = session_->solver().stats();
    return (options_.conflict_budget != 0 &&
            s.conflicts >= options_.conflict_budget) ||
           (options_.propagation_budget != 0 &&
            s.propagations >= options_.propagation_budget);
  }

  verify::Query query_;
  SatVerifyOptions options_;
  std::optional<SatSession> session_;  // encoded on the first step
};

[[nodiscard]] SatVerifyOptions resolve_options(
    const verify::VerifyContext& context) {
  SatVerifyOptions options;
  if (context.budget.conflicts != 0) {
    options.conflict_budget = context.budget.conflicts;
  }
  if (context.budget.propagations != 0) {
    options.propagation_budget = context.budget.propagations;
  }
  return options;
}

}  // namespace

VerifyResult sat_verify(const verify::Query& query,
                        const SatVerifyOptions& options, sat::ProofLog* proof) {
  query.validate();
  SatSession session(query, options, proof);
  for (;;) {
    const SatSession::Advance a = session.advance();
    if (a == SatSession::Advance::kMore) continue;
    if (a == SatSession::Advance::kStalled) session.finalize_stalled();
    return session.take_result();
  }
}

std::unique_ptr<verify::EngineTask> SatEngine::make_task(
    const verify::Query& query, const verify::VerifyContext& context) const {
  query.validate();
  return std::make_unique<SatTask>(query, resolve_options(context),
                                   context.budget);
}

}  // namespace fannet::mc
