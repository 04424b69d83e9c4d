/// \file
/// \brief Complete branch-and-bound over the integer noise box, parallelized with
/// a work-stealing shared frontier.
///
/// Longest-edge bisection with symbolic-bound pruning; singleton boxes are
/// evaluated exactly, so on the integer noise grid this is a *decision
/// procedure* (sound and complete, DESIGN.md §4.4) while typically visiting
/// orders of magnitude fewer points than enumeration.  The streaming variant
/// implements the paper's P3 adversarial-noise-vector extraction loop —
/// boxes that provably contain no counterexample are skipped wholesale.
///
/// Parallel execution (`BnbOptions::threads`) fans the box frontier across
/// per-worker stacks of flat `[lo | hi]` box rows: owners pop depth-first
/// from their own top, idle workers steal the oldest half of a victim's
/// stack (the shallow boxes, which split into the most further work).
/// Boxes are popped into and bisected through per-worker scratch boxes, so
/// the box loop allocates nothing.  Results stay deterministic for any
/// thread count:
///
///   - `bnb_verify` returns the *lexicographically lowest* counterexample
///     in the box (full noise vector: input deltas, then the bias delta) —
///     a pure function of the query, independent of exploration order — by
///     continuing the search with every box at-or-above the best witness
///     pruned, so a parallel search returns the witness a serial
///     lexicographic scan would find first;
///   - `bnb_collect` returns the `max_count` lexicographically smallest
///     counterexamples in ascending order, via the same bound generalized
///     to a top-K frontier prune;
///   - `bnb_stream` delivers the complete counterexample set (sink calls
///     are serialized; delivery *order* is unspecified beyond the
///     single-worker case, but the delivered set is the whole box's).
///
/// All three share one search: `bnb_verify` runs the decision task
/// (`make_bnb_task`) in one unbounded step, and `bnb_collect` / `bnb_stream`
/// run the same frontier and workers without the step machinery.
///
/// `VerifyResult::work` (boxes processed) is bit-deterministic only for
/// serial runs: with multiple workers the frontier prune depends on when
/// the best-so-far witness lands, so the box count — never the verdict or
/// the witness — varies run to run.  One carve-out: the guarantees above
/// hold for searches that complete within `max_boxes`.  Because the box
/// *count* is scheduling-dependent under multiple workers, a budget within
/// ~a tree-size of the actual tree can be exhausted in one run and not in
/// another, and an exhausted result (flagged `resource_limited`) is
/// kUnknown or a possibly-non-minimal witness.  Size budgets as a
/// runaway backstop (the default is 100M boxes), not as a tight cap.
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
  /// Intra-query worker count: 1 = serial (default), 0 = one worker per
  /// hardware thread.  Verdicts and witnesses are identical for any value.
  std::size_t threads = 1;
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
/// ascending order (complete up to the cap; identical for any thread
/// count).  Throws ResourceLimit if the box budget is exhausted.
[[nodiscard]] std::vector<Counterexample> bnb_collect(const Query& query,
                                                      std::size_t max_count,
                                                      BnbOptions options = {});

/// Streams every counterexample in the box to `sink` (return false to
/// stop).  Sink calls are serialized but arrive in an unspecified order
/// when `options.threads != 1`.  Returns the number of boxes processed.
/// Throws ResourceLimit if the box budget is exhausted first.
std::uint64_t bnb_stream(const Query& query,
                         const std::function<bool(const Counterexample&)>& sink,
                         BnbOptions options = {});

/// Native resumable task for the decision query (verify/task.hpp): the
/// work-stealing frontier is checkpointed between steps, each step
/// processing ~`max_work` boxes before the workers park.  Pause/resume
/// only changes worker scheduling — the lex-lowest-witness guarantee is
/// order-independent, so verdict and witness are the same at any step size
/// and thread count (and serial `work` is too).
[[nodiscard]] std::unique_ptr<EngineTask> make_bnb_task(
    const Query& query, const BnbOptions& options = {});

}  // namespace fannet::verify
