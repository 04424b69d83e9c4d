/// \file
/// \brief Parallel P2 query scheduler (DESIGN.md §5).
///
/// FANNet's analyses (tolerance, corpus, sensitivity, boundary, faults) all
/// reduce to large batches of independent P2 queries; this fork-join
/// scheduler fans a batch across a thread pool while keeping every result
/// bit-identical to the serial run.  It is the one level of parallelism:
/// each engine decides its query on the worker thread that dispatched it.
///
///   - results are written to index-addressed slots, so `run_all` returns
///     them in input order regardless of completion order;
///   - `parallel_for` runs non-uniform jobs (sweep shards, per-sample P3
///     loops) with the same deterministic-slot discipline left to callers;
///   - `verify_one` decides a single query — the probe chains inside one
///     sweep shard (tolerance descents, directional scans, solo
///     bisections) go through it.
///
/// Every query dispatched by `run_all` / `verify_one` first probes the
/// configured `QueryCache` (per-scheduler override or the process-wide
/// cache; see verify/query_cache.hpp and DESIGN.md §7) and memoizes the
/// verdict on a miss; hit/miss counts land in `BatchStats`.  Engines are
/// deterministic, so results are identical cache-on vs cache-off.
///
/// Cache misses are decided by *driving the engine's resumable task*
/// (`Engine::make_task`, DESIGN.md §12) in a step loop — the only way an
/// engine runs.  That is what makes the dispatches deadline-aware and
/// controllable: `SchedulerOptions::deadline_ms` arms a fresh per-query
/// `Budget::after_ms` deadline at each dispatch (expiry → kUnknown with
/// `resource_limited`, overshoot bounded by one step), and a
/// `BatchControl` passed to run_all can pause, resume, or cancel the whole
/// in-flight batch between steps.  Because tasks checkpoint at step
/// boundaries without changing what they compute, verdicts and witnesses
/// are bit-identical to the uninterrupted run.
///
/// Exceptions thrown by a task are captured and rethrown on the calling
/// thread after the pool drains (first one wins).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "verify/budget.hpp"
#include "verify/engine.hpp"
#include "verify/query.hpp"

namespace fannet::verify {

class QueryCache;

/// Construction-time configuration for a Scheduler.
struct SchedulerOptions {
  /// Worker count; 0 = one worker per hardware thread.  Each worker
  /// decides one query at a time on its own thread.
  std::size_t threads = 0;
  /// SoA evaluation lanes granted to every engine dispatch (via
  /// `VerifyContext::batch_hint`): 0 = auto (nn::BatchEvaluator::kAutoBatch),
  /// 1 = the scalar reference path.  Grid-walking engines (enumerate, bnb)
  /// stage this many noise vectors per vectorized forward pass
  /// (DESIGN.md §10); results are bit-identical for every value.
  std::size_t batch_hint = 0;
  /// Per-batch memoization layer probed before every engine dispatch.
  /// Null (the default) falls back to `global_query_cache()`, which is
  /// itself null unless a tool installed one — so caching is opt-in and
  /// existing call sites are unaffected.  The caller retains ownership.
  QueryCache* cache = nullptr;
  /// Per-query wall-clock deadline in milliseconds; 0 = none.  Armed
  /// afresh (`Budget::after_ms`) for every dispatched query at the moment
  /// its task starts, so each query gets the full window regardless of
  /// batch position.  An expired query finalizes to kUnknown with
  /// `resource_limited` set (witness-in-hand results keep kVulnerable);
  /// overshoot past the deadline is bounded by a single task step.  Time
  /// spent parked under a `BatchControl` pause counts against the window.
  std::uint64_t deadline_ms = 0;
  /// Base resource budget threaded into every dispatch (box / conflict /
  /// propagation caps, external cancel token).  `deadline_ms` layers the
  /// per-query deadline on top of this; leave the deadline field unset
  /// here unless one absolute time point should cover the whole batch.
  Budget budget = {};
  /// Work units per task step in the drive loop (boxes for bnb, grid
  /// points for enumerate, CDCL conflicts for sat; see EngineTask::step).
  /// 0 = EngineTask::kDefaultStepWork.  Smaller steps tighten deadline
  /// overshoot and pause latency at slightly higher stepping overhead;
  /// verdicts and witnesses are identical for every value.
  std::uint64_t step_work = 0;
};

/// Cooperative control surface for an in-flight batch.  Pass one instance
/// to `run_all` and flip it from any other thread:
///
///   - `pause()`   parks every in-flight task at its next step boundary
///                 (workers block; cache hits and already-finished queries
///                 are unaffected);
///   - `resume()`  wakes the parked tasks to continue exactly where they
///                 stopped — verdicts and witnesses are bit-identical to a
///                 never-paused run;
///   - `cancel()`  finalizes every unfinished query to kUnknown with
///                 `resource_limited` set (witness-in-hand results keep
///                 kVulnerable) and lets the batch return promptly.
///
/// All methods are safe to call concurrently and repeatedly; cancel wins
/// over pause.  One instance may be reused across sequential batches (but
/// `cancel()` is sticky — construct a fresh control to run uncancelled).
class BatchControl {
 public:
  void pause() {
    const util::MutexLock lock(mutex_);
    paused_.store(true, std::memory_order_release);
  }
  void resume() {
    {
      const util::MutexLock lock(mutex_);
      paused_.store(false, std::memory_order_release);
    }
    cv_.notify_all();
  }
  void cancel() {
    {
      const util::MutexLock lock(mutex_);
      cancelled_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool paused() const noexcept {
    return paused_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Blocks until the control is resumed or cancelled; with a deadline,
  /// returns false once it passes (so an expired query can finalize while
  /// the batch stays paused).  Called by the scheduler's drive loop —
  /// not part of the public surface.
  bool wait_resumed(
      const std::optional<std::chrono::steady_clock::time_point>& deadline)
      FANNET_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    const auto ready = [this] {
      return !paused_.load(std::memory_order_acquire) ||
             cancelled_.load(std::memory_order_acquire);
    };
    if (!deadline.has_value()) {
      cv_.wait(mutex_, ready);
      return true;
    }
    return cv_.wait_until(mutex_, *deadline, ready);
  }

 private:
  /// The flags stay atomic so `paused()` / `cancelled()` are lock-free
  /// polls from the drive loop; the mutex exists for the flag/notify race
  /// in wait_resumed (a flip between the predicate check and the wait must
  /// not be missed), so every *write* happens under it.
  std::atomic<bool> paused_{false};
  std::atomic<bool> cancelled_{false};
  util::Mutex mutex_;  ///< guards the flag/notify race in wait_resumed
  util::CondVar cv_;
};

/// Per-batch accounting, filled by `run_all`.
struct BatchStats {
  std::size_t queries = 0;    ///< batch size; run_all answers every query
  std::size_t threads = 0;    ///< workers used for this batch
  std::uint64_t total_work = 0;  ///< sum of per-query VerifyResult::work
  bool cache_enabled = false;      ///< whether a query cache was probed
  std::uint64_t cache_hits = 0;    ///< decided from the query cache
  /// Queries that dispatched an engine.  With no cache configured every
  /// query is a miss (nothing could answer it), so
  /// `cache_hits + cache_misses == queries` always holds; check
  /// `cache_enabled` to tell "cache off" from "cache cold".
  std::uint64_t cache_misses = 0;
  /// Queries whose per-dispatch deadline (`SchedulerOptions::deadline_ms`
  /// or a batch-wide `budget.deadline`) expired before the task finished;
  /// each finalized with `resource_limited` set.
  std::uint64_t deadline_expired = 0;
  /// Task pause transitions taken in the drive loop: one per in-flight
  /// task per `BatchControl::pause()` it parked for.
  std::uint64_t paused = 0;
  /// Pause transitions that continued via `BatchControl::resume()` (as
  /// opposed to ending in cancellation or deadline expiry).
  std::uint64_t resumed = 0;
  double wall_ms = 0.0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});

  /// Workers this scheduler fans batches across (resolved, >= 1).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Decides one query through the cache tier (probe, engine dispatch on a
  /// miss, memoize).  The analyses' sweep campaigns run every probe chain
  /// inside a shard through it (tolerance screens and descents,
  /// directional scans, solo bisections), so those memoize too.
  [[nodiscard]] VerifyResult verify_one(const Query& query,
                                        const Engine& engine) const;

  /// Decides every query with `engine`; results are in input order and
  /// identical for any thread count.
  /// \param queries the batch; each must satisfy Query::validate().
  /// \param engine the decision strategy (from the engine registry).
  /// \param stats optional per-batch accounting, overwritten on return.
  /// \param control optional pause/resume/cancel surface for the batch.
  [[nodiscard]] std::vector<VerifyResult> run_all(
      std::span<const Query> queries, const Engine& engine,
      BatchStats* stats = nullptr, BatchControl* control = nullptr) const;

  /// Generic deterministic fan-out: calls fn(i) exactly once for every
  /// i in [0, count), across the pool.  Callers keep determinism by writing
  /// results to index-addressed slots.
  /// \param count number of independent jobs.
  /// \param fn job body; invoked concurrently, must be thread-safe.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) const;

  /// Total queries (across every run_all / verify_one call on this
  /// scheduler) whose deadline expired.  Analyses surface this on their reports so a
  /// sweep cut short by `deadline_ms` is visible, not silent.
  [[nodiscard]] std::uint64_t deadline_expired_total() const noexcept {
    return deadline_expired_total_.load(std::memory_order_relaxed);
  }

 private:
  /// The cache batches go through: the per-scheduler override when set,
  /// else the process-wide cache (re-read per call, so installing a global
  /// cache affects schedulers that analyses have already constructed).
  [[nodiscard]] QueryCache* effective_cache() const noexcept;

  std::size_t threads_ = 1;
  std::size_t batch_hint_ = 0;
  QueryCache* cache_ = nullptr;
  std::uint64_t deadline_ms_ = 0;
  Budget budget_;
  std::uint64_t step_work_ = 0;
  mutable std::atomic<std::uint64_t> deadline_expired_total_{0};
};

}  // namespace fannet::verify
