/// \file
/// \brief Complete branch-and-bound over the integer noise box.
///
/// Longest-edge bisection with symbolic-bound pruning; singleton boxes are
/// evaluated exactly, so on the integer noise grid this is a *decision
/// procedure* (sound and complete, DESIGN.md §4.4) while typically visiting
/// orders of magnitude fewer points than enumeration.  The streaming variant
/// implements the paper's P3 adversarial-noise-vector extraction loop —
/// boxes that provably contain no counterexample are skipped wholesale.
///
/// One search decides one query on one thread; parallelism lives in the
/// scheduler's batch fan-out (DESIGN.md §5).  The frontier is a stack of
/// flat `[lo | hi]` box rows, and boxes are popped into and bisected
/// through scratch boxes, so the box loop allocates nothing.  Results are
/// pure functions of the query and the box-priority policy:
///
///   - `bnb_verify` returns the *lexicographically lowest* counterexample
///     in the box (full noise vector: input deltas, then the bias delta),
///     independent of exploration order, by continuing the search with
///     every box at-or-above the best witness pruned;
///   - `bnb_collect` returns the `max_count` lexicographically smallest
///     counterexamples in ascending order, via the same bound generalized
///     to a top-K frontier prune;
///   - `bnb_stream` delivers the complete counterexample set, in the
///     search's (deterministic) exploration order.
///
/// All three share one search: `bnb_verify` runs the decision task
/// (`make_bnb_task`) in one unbounded step, and `bnb_collect` / `bnb_stream`
/// run the same search without the step machinery.  `VerifyResult::work`
/// (boxes processed) is deterministic too: the same for every step size and
/// pause pattern.  The guarantees above hold for searches that complete
/// within `max_boxes`; an exhausted result (flagged `resource_limited`) is
/// kUnknown or a possibly-non-minimal witness.  Size budgets as a runaway
/// backstop (the default is 100M boxes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "verify/budget.hpp"
#include "verify/query.hpp"

namespace fannet::verify {

class EngineTask;

struct BnbOptions {
  std::uint64_t max_boxes = 100'000'000;  ///< box budget (see bnb_verify)
  bool use_symbolic = true;   ///< false = prune with plain IBP (ablation)
  /// Box-priority policy: which child of a bisection is explored first.
  ///   kDepthFirst  lower half first (the classic DFS order);
  ///   kBestFirst   the child with the smallest symbolic margin slack —
  ///                the one closest to flipping — first, so witnesses (and
  ///                with them the frontier prune) land sooner on
  ///                vulnerable queries.  Requires use_symbolic; falls back
  ///                to depth-first under plain IBP.
  enum class Policy : std::uint8_t { kDepthFirst, kBestFirst };
  Policy policy = Policy::kDepthFirst;
  /// SoA evaluation lanes used when a certified flips-everywhere region
  /// drains its points (DESIGN.md §10): 0 = auto
  /// (nn::BatchEvaluator::kAutoBatch), 1 = the scalar reference path.
  /// Singleton boxes always evaluate scalar (one point at a time cannot
  /// batch).  Verdicts, witnesses and emitted sets are identical for every
  /// value.
  std::size_t batch = 0;
  /// Unified resource budget (verify/budget.hpp).  A wall-clock deadline
  /// or cancellation maps onto the exhausted path: the search stops at the
  /// next box boundary (or mid-drain, every ~256 points) and the result is
  /// kUnknown + `resource_limited` — or a valid witness already in hand,
  /// also flagged.  `budget.max_boxes` is mapped onto `max_boxes` by the
  /// engine adapter; deadline/cancel are polled here directly.
  Budget budget = {};
};

/// Decision query: the lexicographically-lowest counterexample or proof of
/// robustness — `make_bnb_task(query, options)` run to completion in one
/// unbounded step.  Exhausting `max_boxes` never throws here: the result is
/// kUnknown (with `work` = boxes processed) so schedulers and cascades
/// degrade gracefully — or kVulnerable when a (verified, possibly not
/// lex-minimal) witness was already in hand when the budget ran out.
[[nodiscard]] VerifyResult bnb_verify(const Query& query, BnbOptions options = {});

/// Collects the `max_count` lexicographically-smallest counterexamples, in
/// ascending order (complete up to the cap).  Throws ResourceLimit if the
/// box budget is exhausted.
[[nodiscard]] std::vector<Counterexample> bnb_collect(const Query& query,
                                                      std::size_t max_count,
                                                      BnbOptions options = {});

/// Streams every counterexample in the box to `sink` (return false to
/// stop), in the search's exploration order.  Returns the number of boxes
/// processed.  Throws ResourceLimit if the box budget is exhausted first.
std::uint64_t bnb_stream(const Query& query,
                         const std::function<bool(const Counterexample&)>& sink,
                         BnbOptions options = {});

/// Native resumable task for the decision query (verify/task.hpp): the
/// frontier is checkpointed between steps, each step processing up to
/// `max_work` boxes (fewer when a pause, cancel or deadline is polled
/// after a box).  Verdict, witness and `work` are the same at any step
/// size and pause pattern; `work` is written after every step, so an
/// interrupted task reports the boxes it processed.
[[nodiscard]] std::unique_ptr<EngineTask> make_bnb_task(
    const Query& query, const BnbOptions& options = {});

}  // namespace fannet::verify
