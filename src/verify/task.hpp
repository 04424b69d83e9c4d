/// \file
/// \brief Resumable cooperative engine tasks (DESIGN.md §12).
///
/// `EngineTask` is the only way an engine runs: an explicit state machine —
/// kUninitialized → kRunning ⇄ kPaused → kDone — with a bounded
/// `step(max_work)` surface, so a serving layer can hold thousands of
/// in-flight P2 queries, time-slice them, pause and resume them, cancel
/// them, and bound them with wall-clock deadlines.  Engines with real
/// long-running loops (enumerate's grid walk, bnb's box frontier, the
/// cascade's staged pipeline, sat's CDCL solve + witness
/// minimization) provide native tasks that checkpoint their
/// frontier/trail between steps; the rest (interval, symbolic,
/// explicit-mc) return a one-shot task whose single step runs their
/// decision function (`make_one_shot_task`).
///
/// Determinism contract: a task paused and resumed at *any* step
/// boundaries yields the bit-identical verdict and the same
/// (lexicographically lowest) witness as an uninterrupted run, at any
/// thread count — pausing only changes scheduling, never which points,
/// boxes, or models decide the query (bench_tasks gates this in CI).
///
/// Threading contract: `step()` bodies are serialized by an internal
/// mutex; `pause()`, `resume()`, `cancel()` and `state()` are lock-free
/// flag flips safe from any thread at any time, including concurrently
/// with a running step (the step observes the flag at its next checkpoint
/// and yields).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "verify/budget.hpp"
#include "verify/query.hpp"

namespace fannet::verify {

class Engine;
struct VerifyContext;

/// Lifecycle of an EngineTask (the Leviathan solver shape).
enum class TaskState : std::uint8_t {
  kUninitialized,  ///< created, no step taken yet
  kRunning,        ///< mid-query; more steps needed
  kPaused,         ///< a pause request took effect; resume() to continue
  kDone,           ///< result() is available
};

/// One in-flight P2 query.  Create via `Engine::make_task`, drive with
/// `step()` (or `run()`); read the final verdict with `result()`.
class EngineTask {
 public:
  /// Default per-step work quota, in engine-native units (grid points for
  /// enumerate, boxes for bnb, conflicts for sat).
  static constexpr std::uint64_t kDefaultStepWork = 1024;

  virtual ~EngineTask() = default;
  EngineTask(const EngineTask&) = delete;
  EngineTask& operator=(const EngineTask&) = delete;

  [[nodiscard]] TaskState state() const noexcept {
    return state_.load(std::memory_order_acquire);
  }

  /// Runs one bounded slice of the query (at most ~`max_work` engine work
  /// units; `0` means one minimal slice) and returns the resulting state.
  /// On kDone the verdict is final; kPaused honours a pending `pause()`;
  /// kRunning means call again.  A `cancel()` or expired budget/deadline
  /// finalizes the task through `finalize_interrupted`: at once, with no
  /// engine work, when it is pending as the step begins, else at the
  /// engine's next checkpoint.  The result is kUnknown +
  /// `resource_limited`, or a verified witness the task already holds,
  /// also flagged.  Exceptions from the engine propagate and poison the
  /// task (state kDone, no result).
  TaskState step(std::uint64_t max_work = kDefaultStepWork);

  /// Requests a pause; takes effect at the running step's next checkpoint
  /// (the step returns early without losing progress).  Safe from any
  /// thread; idempotent; a no-op once kDone.
  void pause() noexcept { pause_requested_.store(true, std::memory_order_release); }

  /// Clears a pause request so the next `step()` makes progress again.
  void resume() noexcept { pause_requested_.store(false, std::memory_order_release); }

  /// Requests cancellation: the next step (or the running one, at its next
  /// checkpoint) finalizes to kUnknown + `resource_limited`.  Irrevocable.
  void cancel() noexcept { cancel_requested_.store(true, std::memory_order_release); }

  /// Steps until the task leaves kRunning; returns kDone or kPaused.
  TaskState run(std::uint64_t step_work = kDefaultStepWork);

  /// The final result; throws util::Error unless `state()` is kDone (or if
  /// the task was poisoned by an engine exception).  Safe without the step
  /// mutex: kDone is published with release order after the last write to
  /// the result, and read here with acquire.
  [[nodiscard]] const VerifyResult& result() const;

 protected:
  explicit EngineTask(Budget budget) : budget_(std::move(budget)) {}

  /// One bounded slice of engine work.  Accumulate into `out` (it persists
  /// across steps); return true when the query is decided (`out` is then
  /// the final result).  Poll `should_yield()` at internal checkpoints and
  /// return false early to honour pause/cancel promptly; poll
  /// `interrupted()` to map deadline/cancel expiry onto the engine's own
  /// kUnknown + resource_limited path with bounded overshoot.
  virtual bool step_impl(std::uint64_t max_work, VerifyResult& out) = 0;

  /// True when the current step should stop at its next checkpoint
  /// (pause or cancel requested, deadline passed).
  [[nodiscard]] bool should_yield() const noexcept {
    return pause_requested_.load(std::memory_order_acquire) ||
           cancel_requested_.load(std::memory_order_acquire) ||
           budget_.interrupted();
  }

  /// True when the budget demands finalization (deadline/cancel token), as
  /// opposed to a mere pause.
  [[nodiscard]] bool interrupted() const noexcept {
    return cancel_requested_.load(std::memory_order_acquire) ||
           budget_.interrupted();
  }

  [[nodiscard]] const Budget& budget() const noexcept { return budget_; }

  /// Finalizes `out` when a cancel or expired budget stops the task:
  /// `step()` calls it instead of `step_impl` when one is pending as the
  /// step begins, and after a `step_impl` that yielded to one.  The
  /// default answers kUnknown + `resource_limited` with no
  /// counterexample and keeps `out.work`.  A task that holds a verified
  /// witness between steps overrides it to answer with that witness,
  /// also flagged.
  virtual void finalize_interrupted(VerifyResult& out);

 private:
  Budget budget_;
  /// Written only inside a step (under step_mutex_); readable lock-free
  /// after kDone via the state_ release/acquire pair (see result()).
  VerifyResult result_ FANNET_GUARDED_BY(step_mutex_);
  std::atomic<TaskState> state_{TaskState::kUninitialized};
  std::atomic<bool> pause_requested_{false};
  std::atomic<bool> cancel_requested_{false};
  /// An engine exception escaped a step; same publication rule as result_.
  bool poisoned_ FANNET_GUARDED_BY(step_mutex_) = false;
  util::Mutex step_mutex_;  ///< serializes step bodies
};

/// Runs `engine.make_task(query, context)` to completion at
/// kDefaultStepWork per step and returns its result.  This is what
/// `Engine::verify` / `verify_with` and `cached_verify` do.
[[nodiscard]] VerifyResult run_task(const Engine& engine, const Query& query,
                                    const VerifyContext& context);

/// One-shot task over a decision function that has no checkpoints
/// (interval_verify, symbolic_verify, explicit-state model checking): its
/// single step runs `decide(query)` to completion.  A deadline or cancel
/// that fired before the step maps to kUnknown + resource_limited without
/// calling `decide`; a started step cannot be interrupted, so its
/// overshoot past a deadline is unbounded.
[[nodiscard]] std::unique_ptr<EngineTask> make_one_shot_task(
    VerifyResult (*decide)(const Query&), const Query& query,
    const Budget& budget);

}  // namespace fannet::verify
