/// \file
/// \brief Exhaustive integer-grid enumeration — the ground-truth oracle.
///
/// Walks every integer noise vector in the box with exact arithmetic.  Cost
/// is the box volume, so this is the reference the property tests validate
/// the clever engines against, and the collector that materializes the full
/// adversarial-noise-vector corpus (the paper's P3 loop) for small ranges.
///
/// Two walks, bit-identical in verdicts, witnesses, the visited count and
/// ArithmeticError overflow behavior:
///
///   - the scalar odometer (`enumerate_stream`, `enumerate_collect`, and
///     the decision query at `batch = 1`) — the reference walk;
///   - the batched decision scan (`make_enumerate_task`, which
///     `enumerate_find_first` runs in one unbounded step): the linearized
///     box is split into fixed blocks of `batch` points, each staged into
///     an SoA `nn::BatchEvaluator` batch and evaluated through one
///     vectorized MAC kernel (DESIGN.md §10), in ascending order, and the
///     first event ends the walk, so the first counterexample and `work`
///     match the odometer for every batch size and step size.  A lane the batched
///     kernel flags as overflowing is re-run through the scalar path, which
///     throws the genuine exception at exactly the point the scalar walk
///     would have.
#pragma once

#include <functional>
#include <memory>

#include "verify/budget.hpp"
#include "verify/query.hpp"

namespace fannet::verify {

class EngineTask;

/// Execution knobs of the decision query; every setting produces
/// bit-identical results.
struct EnumerateOptions {
  /// Evaluation lanes per batched forward pass: 1 = the scalar reference
  /// walk, 0 = auto (nn::BatchEvaluator::kAutoBatch).
  std::size_t batch = 0;
};

/// Decision query: stops at the first counterexample in odometer order.
[[nodiscard]] VerifyResult enumerate_find_first(
    const Query& query, const EnumerateOptions& options = {});

/// Collects up to `max_count` counterexamples (all of them if the box
/// volume allows; deterministic odometer order).
[[nodiscard]] std::vector<Counterexample> enumerate_collect(
    const Query& query, std::size_t max_count);

/// Streaming variant: invokes `sink` per counterexample; return false from
/// the sink to stop early.  Returns the number of vectors visited.
std::uint64_t enumerate_stream(
    const Query& query,
    const std::function<bool(const Counterexample&)>& sink);

/// Native incremental task for the decision query (verify/task.hpp): each
/// step scans the next `max_work` grid points (rounded up to whole
/// evaluation blocks) of the linearized box, so the walk pauses, resumes,
/// and honours `budget` deadlines at block granularity.  Verdict, witness,
/// and `work` are bit-identical to the scalar odometer's for every step
/// size and batch; an interrupted task reports the points it walked.
[[nodiscard]] std::unique_ptr<EngineTask> make_enumerate_task(
    const Query& query, const EnumerateOptions& options, const Budget& budget);

}  // namespace fannet::verify
