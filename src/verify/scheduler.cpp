#include "verify/scheduler.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include "util/stopwatch.hpp"
#include "util/sync.hpp"
#include "verify/query_cache.hpp"
#include "verify/task.hpp"

namespace fannet::verify {

namespace {

/// Per-batch tallies shared by the worker lanes of one dispatch call.
struct DriveTallies {
  std::atomic<std::uint64_t> deadline_expired{0};
  std::atomic<std::uint64_t> paused{0};
  std::atomic<std::uint64_t> resumed{0};
};

/// Drives one engine task to completion, honouring the batch control and
/// the context's budget.  This is the scheduler's only engine dispatch
/// path: every step boundary is a checkpoint where pause / cancel /
/// deadline take effect, and tasks guarantee bit-identical verdicts and
/// witnesses across any interleaving of those checkpoints.
VerifyResult drive_task(const Engine& engine, const Query& query,
                        const VerifyContext& context, std::uint64_t step_work,
                        BatchControl* control, DriveTallies& tallies) {
  const std::unique_ptr<EngineTask> task = engine.make_task(query, context);
  for (;;) {
    if (control != nullptr) {
      if (control->cancelled()) {
        task->cancel();
      } else if (control->paused()) {
        task->pause();
        tallies.paused.fetch_add(1, std::memory_order_relaxed);
        const bool woken = control->wait_resumed(context.budget.deadline);
        if (control->cancelled()) {
          task->cancel();
        } else {
          // Resumed, or the deadline passed while parked (!woken): either
          // way clear the pause so step() runs — an expired task finalizes
          // itself there.
          task->resume();
          if (woken) tallies.resumed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (task->step(step_work) == TaskState::kDone) break;
  }
  VerifyResult result = task->result();
  if (result.resource_limited && context.budget.deadline_passed()) {
    tallies.deadline_expired.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions options)
    : batch_hint_(options.batch_hint),
      cache_(options.cache),
      deadline_ms_(options.deadline_ms),
      budget_(options.budget),
      step_work_(options.step_work != 0 ? options.step_work
                                        : EngineTask::kDefaultStepWork) {
  threads_ = options.threads != 0
                 ? options.threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

QueryCache* Scheduler::effective_cache() const noexcept {
  return cache_ != nullptr ? cache_ : global_query_cache();
}

VerifyResult Scheduler::verify_one(const Query& query,
                                   const Engine& engine) const {
  VerifyContext context{.batch_hint = batch_hint_, .budget = budget_};
  if (deadline_ms_ != 0) context.budget.deadline = Budget::after_ms(deadline_ms_);
  DriveTallies tallies;
  const VerifyResult result = cached_verify(
      effective_cache(), query, engine,
      [&] {
        return drive_task(engine, query, context, step_work_,
                          /*control=*/nullptr, tallies);
      });
  deadline_expired_total_.fetch_add(tallies.deadline_expired.load(),
                                    std::memory_order_relaxed);
  return result;
}

void Scheduler::parallel_for(std::size_t count,
                             const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  const std::size_t workers = std::min(threads_, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  util::FirstError error;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        error.capture();
        // Drain the remaining work so the pool exits promptly.
        next.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  error.rethrow_if_set();
}

std::vector<VerifyResult> Scheduler::run_all(std::span<const Query> queries,
                                             const Engine& engine,
                                             BatchStats* stats,
                                             BatchControl* control) const {
  const util::Stopwatch watch;
  QueryCache* const cache = effective_cache();
  const VerifyContext base{.batch_hint = batch_hint_, .budget = budget_};
  std::vector<VerifyResult> results(queries.size());
  std::atomic<std::uint64_t> hits{0};
  DriveTallies tallies;
  parallel_for(queries.size(), [&](std::size_t i) {
    // Arm the per-query deadline at dispatch, not batch start: every query
    // gets the full window regardless of where it lands in the batch.
    VerifyContext context = base;
    if (deadline_ms_ != 0) {
      context.budget.deadline = Budget::after_ms(deadline_ms_);
    }
    bool hit = false;
    results[i] = cached_verify(
        cache, queries[i], engine,
        [&] {
          return drive_task(engine, queries[i], context, step_work_, control,
                            tallies);
        },
        &hit);
    if (hit) hits.fetch_add(1, std::memory_order_relaxed);
  });
  deadline_expired_total_.fetch_add(tallies.deadline_expired.load(),
                                    std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->queries = queries.size();
    stats->threads = std::min(threads_, std::max<std::size_t>(1, queries.size()));
    stats->total_work = 0;
    for (const VerifyResult& r : results) stats->total_work += r.work;
    stats->cache_enabled = cache != nullptr;
    stats->cache_hits = hits.load();
    stats->cache_misses = queries.size() - stats->cache_hits;
    stats->deadline_expired = tallies.deadline_expired.load();
    stats->paused = tallies.paused.load();
    stats->resumed = tallies.resumed.load();
    stats->wall_ms = watch.millis();
  }
  return results;
}

}  // namespace fannet::verify
