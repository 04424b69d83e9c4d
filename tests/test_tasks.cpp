// Resumable engine-task tests (DESIGN.md §12): lifecycle of the
// kUninitialized → kRunning ⇄ kPaused → kDone state machine, bit-identity
// of stepped vs blocking execution for every native task, pause / resume /
// cancel / deadline semantics, the scheduler's BatchControl drive loop,
// and the cache rule that resource-limited verdicts are never memoized.
// The TaskRace tests exercise concurrent pause-vs-step-vs-cancel and run
// under the TSan CI job (test filter `Task`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string_view>
#include <thread>

#include "core/analysis.hpp"
#include "core/fannet.hpp"
#include "la/matrix.hpp"
#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/bnb.hpp"
#include "verify/budget.hpp"
#include "verify/engine.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"
#include "verify/task.hpp"

namespace fannet::verify {
namespace {

using util::i64;

nn::QuantizedNetwork& shared_net() {
  static nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(
      nn::Network::random({3, 5, 2}, 91), 100);
  return net;
}

Query make_q(std::uint64_t seed, int range, bool force_vulnerable) {
  const nn::QuantizedNetwork& net = shared_net();
  util::Rng rng(seed);
  Query q;
  q.net = &net;
  q.x = {rng.uniform_int(1, 100), rng.uniform_int(1, 100),
         rng.uniform_int(1, 100)};
  const int actual = net.classify_noised(q.x, {});
  q.true_label = force_vulnerable ? 1 - actual : actual;
  q.box = NoiseBox::symmetric(3, range);
  return q;
}

/// A query whose grid volume (101^3) dwarfs any reasonable step quota, so
/// a stepped task is guaranteed to be interruptible mid-flight; the
/// correct label keeps the walk exhaustive (no early witness exit).
Query big_robust_query(std::uint64_t seed) { return make_q(seed, 50, false); }

/// Stepped-to-completion result for an engine's task.
VerifyResult drive(const Engine& eng, const Query& q,
                   const VerifyContext& ctx, std::uint64_t step_work) {
  const auto task = eng.make_task(q, ctx);
  EXPECT_EQ(task->state(), TaskState::kUninitialized);
  while (task->step(step_work) != TaskState::kDone) {
  }
  return task->result();
}

TEST(Task, LifecycleRunsToDoneAndResultIsFinal) {
  const Engine& eng = engine("enumerate");
  const Query q = make_q(3, 2, true);
  const auto task = eng.make_task(q, {});
  EXPECT_EQ(task->state(), TaskState::kUninitialized);
  EXPECT_THROW((void)task->result(), Error);  // not done yet
  ASSERT_EQ(task->run(64), TaskState::kDone);
  const VerifyResult r = task->result();
  EXPECT_EQ(r.verdict, eng.verify(q).verdict);
  // Stepping a finished task is a no-op.
  EXPECT_EQ(task->step(), TaskState::kDone);
  EXPECT_EQ(task->result().verdict, r.verdict);
}

TEST(Task, PauseParksBeforeWorkAndResumeContinues) {
  const Engine& eng = engine("bnb");
  const Query q = make_q(4, 3, false);
  const auto task = eng.make_task(q, {});
  task->pause();
  EXPECT_EQ(task->step(), TaskState::kPaused);
  EXPECT_EQ(task->step(), TaskState::kPaused);  // parked, no progress
  task->resume();
  ASSERT_EQ(task->run(), TaskState::kDone);
  EXPECT_EQ(task->result().verdict, eng.verify(q).verdict);
}

TEST(Task, StepSizeNeverChangesVerdictOrWitness) {
  // The determinism contract: any step quota (including the minimal one)
  // yields the bit-identical verdict and witness of the blocking path,
  // for every native task and the generic adapter.  A serial bnb search
  // keeps its worker state across steps and visits the same boxes in the
  // same order, so for bnb and the cascade `work` is step-size-free too.
  for (const char* name : {"enumerate", "bnb", "cascade", "sat", "interval"}) {
    const Engine& eng = engine(name);
    const bool exact_work = name == std::string_view("bnb") ||
                            name == std::string_view("cascade");
    std::vector<Query> queries = {make_q(21, 2, true), make_q(22, 2, false)};
    if (exact_work) queries.push_back(make_q(46, 40, false));  // ~380 boxes
    for (const Query& q : queries) {
      const VerifyResult blocking = eng.verify(q);
      for (const std::uint64_t step_work : {1ull, 7ull, 1024ull}) {
        const VerifyResult stepped = drive(eng, q, {}, step_work);
        EXPECT_EQ(stepped.verdict, blocking.verdict)
            << name << " step " << step_work;
        EXPECT_EQ(stepped.counterexample, blocking.counterexample)
            << name << " step " << step_work;
        if (exact_work) {
          EXPECT_EQ(stepped.work, blocking.work)
              << name << " step " << step_work;
        }
      }
    }
  }
}

TEST(Task, UnboundedQuotaFinishesInOneStep) {
  // step(UINT64_MAX) is one unbounded slice: the quota arithmetic must
  // saturate, not wrap around into a one-box or one-block step.
  for (const char* name : {"enumerate", "bnb"}) {
    const Engine& eng = engine(name);
    const Query q = big_robust_query(12);
    const VerifyResult blocking = eng.verify(q);
    const auto task = eng.make_task(q, {});
    EXPECT_EQ(task->step(std::numeric_limits<std::uint64_t>::max()),
              TaskState::kDone)
        << name;
    EXPECT_EQ(task->result().verdict, blocking.verdict) << name;
    EXPECT_EQ(task->result().work, blocking.work) << name;
  }
}

TEST(Task, PauseResumeAtArbitraryBoundariesIsBitIdentical) {
  for (const char* name : {"enumerate", "bnb", "cascade", "sat"}) {
    const Engine& eng = engine(name);
    const Query q = make_q(33, 3, true);
    const VerifyResult blocking = eng.verify(q);
    const auto task = eng.make_task(q, {});
    std::uint64_t steps = 0;
    for (;;) {
      if (steps % 2 == 1) {  // pause between every other step
        task->pause();
        EXPECT_EQ(task->step(64), TaskState::kPaused) << name;
        task->resume();
      }
      ++steps;
      if (task->step(64) == TaskState::kDone) break;
    }
    EXPECT_EQ(task->result().verdict, blocking.verdict) << name;
    EXPECT_EQ(task->result().counterexample, blocking.counterexample) << name;
  }
}

TEST(Task, CancelFinalizesUnfinishedWorkToResourceLimitedUnknown) {
  const Engine& eng = engine("enumerate");
  const Query q = big_robust_query(7);
  const auto task = eng.make_task(q, {});
  ASSERT_EQ(task->step(64), TaskState::kRunning);  // 101^3 points: not done
  task->cancel();
  ASSERT_EQ(task->step(64), TaskState::kDone);
  EXPECT_EQ(task->result().verdict, Verdict::kUnknown);
  EXPECT_TRUE(task->result().resource_limited);
  EXPECT_FALSE(task->result().counterexample.has_value());
}

TEST(Task, ExpiredDeadlineFinalizesEveryNativeTask) {
  for (const char* name : {"enumerate", "bnb", "cascade", "sat"}) {
    const Engine& eng = engine(name);
    VerifyContext ctx;
    ctx.budget.deadline = std::chrono::steady_clock::now();  // already past
    const VerifyResult r = drive(eng, big_robust_query(8), ctx, 16);
    EXPECT_EQ(r.verdict, Verdict::kUnknown) << name;
    EXPECT_TRUE(r.resource_limited) << name;
  }
}

TEST(Task, CancelTokenInBudgetInterruptsTheTask) {
  CancelToken token;
  token.cancel();
  VerifyContext ctx;
  ctx.budget.cancel = &token;
  const VerifyResult r = drive(engine("bnb"), big_robust_query(9), ctx, 16);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_TRUE(r.resource_limited);
}

TEST(Task, GenericAdapterHonoursPreStepInterruptionAndMatchesBlocking) {
  // Sound-only engines without a native task get the one-step adapter: a
  // normal run equals verify_with; a pre-cancelled budget never dispatches.
  const Engine& eng = engine("interval");
  const Query q = make_q(10, 2, false);
  EXPECT_EQ(drive(eng, q, {}, 0).verdict, eng.verify(q).verdict);
  CancelToken token;
  token.cancel();
  VerifyContext ctx;
  ctx.budget.cancel = &token;
  const VerifyResult r = drive(eng, q, ctx, 0);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_TRUE(r.resource_limited);
}

TEST(TaskRace, ConcurrentPauseResumeCancelAgainstRunningSteps) {
  // pause()/resume()/cancel() are lock-free flag flips documented safe
  // from any thread at any time, including concurrently with a running
  // step.  Hammer them against a stepping driver; TSan checks the rest.
  const Engine& eng = engine("enumerate");
  const Query q = big_robust_query(11);
  const auto task = eng.make_task(q, {});
  std::atomic<bool> done{false};
  std::thread driver([&] {
    while (task->step(64) != TaskState::kDone) {
    }
    done.store(true, std::memory_order_release);
  });
  std::thread flipper([&] {
    while (!done.load(std::memory_order_acquire)) {
      task->pause();
      std::this_thread::yield();
      task->resume();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  task->cancel();  // guarantees termination whatever the flipper does
  driver.join();
  flipper.join();
  ASSERT_EQ(task->state(), TaskState::kDone);
  const VerifyResult& r = task->result();
  // Either the task decided the query (a witness found mid-walk, or the
  // walk finished) or the cancel cut it — then kUnknown must be flagged.
  EXPECT_TRUE(r.verdict != Verdict::kUnknown || r.resource_limited);
}

TEST(TaskRace, MultiWorkerBnbTaskKeepsWorkerStateAcrossSteps) {
  // A 4-worker bnb task parks its frontier and every worker's state (bound
  // kernel, scratch query, SoA evaluator) between steps, and hands them to
  // the next step's threads.  At any step quota, with a pause and resume
  // between steps, it must decide the query exactly as a serial bnb_verify.
  // Both trees (robust, then vulnerable) run to ~1.5k serial boxes with
  // the bias node noised.  The robust tree is exhaustive, 1,399 boxes at
  // any worker count, so even the 1024-box quota takes two steps; the
  // vulnerable tree's count depends on when the workers' witnesses land.
  const Engine& eng = engine("bnb");
  struct Case {
    std::uint64_t net_seed;
    std::vector<i64> x;
  };
  for (const Case& c : {Case{6, {70, 30, 55, 90}}, Case{4, {20, 50, 80, 35}}}) {
    const nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(
        nn::Network::random({4, 10, 2}, c.net_seed), 100);
    Query q;
    q.net = &net;
    q.x = c.x;
    q.true_label = net.classify_noised(q.x, {});
    q.bias_node = true;
    q.box = NoiseBox::symmetric(5, 40);
    const VerifyResult serial = bnb_verify(q);
    for (const std::uint64_t step_work : {1ull, 16ull, 1024ull}) {
      const auto task = eng.make_task(q, VerifyContext{.threads = 4});
      std::uint64_t steps = 1;
      while (task->step(step_work) != TaskState::kDone) {
        task->pause();
        ASSERT_EQ(task->step(step_work), TaskState::kPaused);
        task->resume();
        ++steps;
      }
      const VerifyResult& r = task->result();
      if (r.verdict == Verdict::kRobust) {
        EXPECT_GT(steps, 1u) << "net " << c.net_seed << " step " << step_work;
      }
      EXPECT_EQ(r.verdict, serial.verdict)
          << "net " << c.net_seed << " step " << step_work;
      EXPECT_EQ(r.counterexample, serial.counterexample)
          << "net " << c.net_seed << " step " << step_work;
    }
  }
}

TEST(TaskRace, BatchControlPausesAndResumesAWholeBatch) {
  const std::vector<Query> batch = {make_q(41, 2, true), make_q(42, 2, false),
                                    make_q(43, 3, true)};
  const Engine& eng = engine("cascade");
  const auto reference = Scheduler({.threads = 1}).run_all(batch, eng);

  const Scheduler scheduler({.threads = 2, .step_work = 16});
  BatchControl control;
  control.pause();  // park every task before its first step
  BatchStats stats;
  std::vector<VerifyResult> results;
  std::atomic<bool> finished{false};
  std::thread runner([&] {
    results = scheduler.run_all(batch, eng, &stats, &control);
    finished.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // While paused the batch cannot complete, whatever the thread timing.
  EXPECT_FALSE(finished.load(std::memory_order_acquire));
  control.resume();
  runner.join();

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(results[i].verdict, reference[i].verdict) << i;
    EXPECT_EQ(results[i].counterexample, reference[i].counterexample) << i;
  }
  EXPECT_GE(stats.paused, 1u);
  EXPECT_EQ(stats.resumed, stats.paused);  // every pause ended in a resume
  EXPECT_EQ(stats.deadline_expired, 0u);
}

TEST(TaskRace, BatchControlCancelFinalizesTheWholeBatch) {
  const std::vector<Query> batch = {big_robust_query(51), big_robust_query(52)};
  const Scheduler scheduler({.threads = 2, .step_work = 16});
  BatchControl control;
  control.cancel();
  BatchStats stats;
  const auto results =
      scheduler.run_all(batch, engine("enumerate"), &stats, &control);
  ASSERT_EQ(results.size(), batch.size());
  for (const VerifyResult& r : results) {
    EXPECT_EQ(r.verdict, Verdict::kUnknown);
    EXPECT_TRUE(r.resource_limited);
  }
  EXPECT_EQ(stats.executed, batch.size());
}

TEST(Task, SchedulerDeadlineExpiresToUnknownAndIsCounted) {
  // 101^3 grid points against a 1ms per-query deadline with a small step
  // quota: the deadline fires between steps long before the walk finishes.
  const std::vector<Query> batch = {big_robust_query(61)};
  const Scheduler scheduler({.threads = 1, .deadline_ms = 1, .step_work = 64});
  BatchStats stats;
  const auto results = scheduler.run_all(batch, engine("enumerate"), &stats);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].verdict, Verdict::kUnknown);
  EXPECT_TRUE(results[0].resource_limited);
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(scheduler.deadline_expired_total(), 1u);
}

TEST(QueryCacheTask, ResourceLimitedResultsAreNeverMemoized) {
  // A budget-starved run must not poison later, better-funded ones: the
  // limited verdict is returned but not cached, and an un-budgeted re-run
  // re-executes and memoizes the real verdict.
  QueryCache cache({.capacity = 16});
  const Engine& bnb = engine("bnb");
  const Query q = make_q(71, 3, false);

  VerifyContext starved;
  starved.budget.deadline = std::chrono::steady_clock::now();  // pre-expired
  bool hit = true;
  const VerifyResult limited = cached_verify(&cache, q, bnb, starved, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(limited.verdict, Verdict::kUnknown);
  EXPECT_TRUE(limited.resource_limited);
  EXPECT_EQ(cache.size(), 0u) << "limited verdict must not be memoized";

  // Direct insertion is refused too (covers every insertion path).
  cache.insert(q, bnb, limited);
  EXPECT_EQ(cache.size(), 0u);

  // The un-budgeted run re-executes (miss), decides, and memoizes.
  const VerifyResult full = cached_verify(&cache, q, bnb, VerifyContext{}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(full.verdict, Verdict::kUnknown);
  EXPECT_FALSE(full.resource_limited);
  EXPECT_EQ(cache.size(), 1u);

  // And the memoized entry is the full verdict, answered as a hit.
  const VerifyResult again = cached_verify(&cache, q, bnb, VerifyContext{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.verdict, full.verdict);
  EXPECT_FALSE(again.resource_limited);
}

TEST(Task, AnalysesRejectDeadlineCombinedWithSweep) {
  // Journaled sweep rows must be time-independent to be resumable.
  const core::Fannet fannet(shared_net());
  la::Matrix<i64> inputs(1, 3);
  inputs(0, 0) = 10;
  inputs(0, 1) = 20;
  inputs(0, 2) = 30;
  const std::vector<int> labels = {0};
  core::ToleranceConfig config;
  config.deadline_ms = 5;
  config.sweep = SweepOptions{};
  EXPECT_THROW(
      (void)fannet.analyze_tolerance(inputs, labels, config),
      InvalidArgument);
  core::SensitivityConfig sense;
  sense.deadline_ms = 5;
  sense.sweep = SweepOptions{};
  EXPECT_THROW((void)core::analyze_sensitivity(fannet, inputs, labels, 2, {},
                                               sense),
               InvalidArgument);
}

}  // namespace
}  // namespace fannet::verify
