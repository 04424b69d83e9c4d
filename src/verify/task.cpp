#include "verify/task.hpp"

#include <utility>

#include "util/error.hpp"
#include "verify/engine.hpp"

namespace fannet::verify {

TaskState EngineTask::step(std::uint64_t max_work) {
  const util::MutexLock lock(step_mutex_);
  if (state_.load(std::memory_order_acquire) == TaskState::kDone) {
    return TaskState::kDone;
  }
  const bool cancelled = interrupted();
  if (!cancelled && pause_requested_.load(std::memory_order_acquire)) {
    state_.store(TaskState::kPaused, std::memory_order_release);
    return TaskState::kPaused;
  }
  state_.store(TaskState::kRunning, std::memory_order_release);
  bool done = false;
  try {
    // A cancel or expired budget that is already pending finalizes
    // without further engine work.
    if (!cancelled) done = step_impl(max_work == 0 ? 1 : max_work, result_);
    if (!done && (cancelled || interrupted())) {
      finalize_interrupted(result_);
      done = true;
    }
  } catch (...) {
    // An engine exception poisons the task: result() will refuse, the
    // exception itself propagates to the driving caller as verify() would.
    poisoned_ = true;
    state_.store(TaskState::kDone, std::memory_order_release);
    throw;
  }
  const TaskState next =
      done ? TaskState::kDone
           : (pause_requested_.load(std::memory_order_acquire)
                  ? TaskState::kPaused
                  : TaskState::kRunning);
  state_.store(next, std::memory_order_release);
  return next;
}

void EngineTask::finalize_interrupted(VerifyResult& out) {
  // Witness-less fallback: sound (nothing is claimed) and flagged so it
  // is never memoized.
  out.verdict = Verdict::kUnknown;
  out.counterexample.reset();
  out.resource_limited = true;
}

TaskState EngineTask::run(std::uint64_t step_work) {
  for (;;) {
    const TaskState s = step(step_work);
    if (s != TaskState::kRunning) return s;
  }
}

// NO_THREAD_SAFETY_ANALYSIS: result_/poisoned_ are guarded by step_mutex_
// for writers, but this read path is race-free without it — both are
// written only before state_ publishes kDone (release), and read here only
// after observing kDone (acquire).  The lock-based analysis cannot model
// that publication protocol.
const VerifyResult& EngineTask::result() const FANNET_NO_THREAD_SAFETY_ANALYSIS {
  if (state_.load(std::memory_order_acquire) != TaskState::kDone) {
    throw Error("EngineTask::result: task is not done");
  }
  if (poisoned_) {
    throw Error("EngineTask::result: task failed with an exception");
  }
  return result_;
}

namespace {

class OneShotTask final : public EngineTask {
 public:
  OneShotTask(VerifyResult (*decide)(const Query&), Query query,
              const Budget& budget)
      : EngineTask(budget), decide_(decide), query_(std::move(query)) {}

 private:
  bool step_impl(std::uint64_t /*max_work*/, VerifyResult& out) override {
    out = decide_(query_);
    return true;
  }

  VerifyResult (*decide_)(const Query&);
  Query query_;
};

}  // namespace

std::unique_ptr<EngineTask> make_one_shot_task(
    VerifyResult (*decide)(const Query&), const Query& query,
    const Budget& budget) {
  return std::make_unique<OneShotTask>(decide, query, budget);
}

VerifyResult run_task(const Engine& engine, const Query& query,
                      const VerifyContext& context) {
  const std::unique_ptr<EngineTask> task = engine.make_task(query, context);
  (void)task->run();
  return task->result();
}

}  // namespace fannet::verify
