// CI gate for the resumable engine-task substrate (DESIGN.md §12):
//
//   1. Pause/resume identity — a batch paused mid-flight by a BatchControl
//      and then resumed yields bit-identical verdicts AND witnesses to the
//      uninterrupted single-threaded run, for every native-task engine
//      (enumerate / bnb / cascade / sat) at 1, 2 and 8 worker threads.
//   2. Deadline overshoot — a 50 ms per-query deadline on a query whose
//      grid dwarfs any budget finalizes to kUnknown + resource_limited
//      with overshoot under 250 ms (bounded by a single task step).
//   3. Stepping overhead — the task path measured against itself: a
//      sweep driven at kDefaultStepWork per step must do the same `work`
//      as one unbounded step per query and cost at most 5% (+0.5 ms)
//      more wall-clock (each arm's best of 5 reps, alternating which arm
//      runs first), for enumerate and bnb on queries that span many steps.
//
// Any violation exits non-zero (the CI job fails); the measured numbers
// land in BENCH_tasks.json for PR-over-PR tracking.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/network.hpp"
#include "nn/quantized.hpp"
#include "util/benchjson.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "verify/engine.hpp"
#include "verify/scheduler.hpp"
#include "verify/task.hpp"

namespace {

using namespace fannet;

nn::QuantizedNetwork& small_net() {
  static nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(
      nn::Network::random({3, 5, 2}, 91), 100);
  return net;
}

verify::Query make_query(std::uint64_t seed, int range, bool force_vulnerable) {
  const nn::QuantizedNetwork& net = small_net();
  util::Rng rng(seed);
  verify::Query q;
  q.net = &net;
  q.x = {rng.uniform_int(1, 100), rng.uniform_int(1, 100),
         rng.uniform_int(1, 100)};
  const int actual = net.classify_noised(q.x, {});
  q.true_label = force_vulnerable ? 1 - actual : actual;
  q.box = verify::NoiseBox::symmetric(3, range);
  return q;
}

/// Mixed robust/vulnerable batch spanning the Fig.-4 range ladder.
std::vector<verify::Query> identity_batch() {
  std::vector<verify::Query> batch;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const int range : {2, 4, 6}) {
      batch.push_back(make_query(seed, range, seed % 2 == 0));
    }
  }
  return batch;
}

bool results_identical(const std::vector<verify::VerifyResult>& a,
                       const std::vector<verify::VerifyResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].verdict != b[i].verdict) return false;
    if (a[i].counterexample != b[i].counterexample) return false;
  }
  return true;
}

int run_pause_resume_gate(util::BenchJson& json) {
  std::puts("=== Pause/resume bit-identity (verdict + witness) ===");
  const std::vector<verify::Query> batch = identity_batch();
  for (const char* name : {"enumerate", "bnb", "cascade", "sat"}) {
    const verify::Engine& eng = verify::engine(name);
    const verify::Scheduler reference_scheduler({.threads = 1});
    const std::vector<verify::VerifyResult> reference =
        reference_scheduler.run_all(batch, eng);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const verify::Scheduler scheduler(
          {.threads = threads, .step_work = 64});
      verify::BatchStats stats;
      verify::BatchControl control;
      control.pause();  // every dispatched task parks before its first step
      std::vector<verify::VerifyResult> results;
      std::atomic<bool> finished{false};
      const util::Stopwatch watch;
      std::thread runner([&] {
        results = scheduler.run_all(batch, eng, &stats, &control);
        finished.store(true, std::memory_order_release);
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const bool parked = !finished.load(std::memory_order_acquire);
      control.resume();
      runner.join();
      const double ms = watch.millis();
      if (!parked) {
        std::fprintf(stderr, "FAIL: %s batch finished while paused\n", name);
        return EXIT_FAILURE;
      }
      if (!results_identical(results, reference)) {
        std::fprintf(stderr,
                     "FAIL: %s paused-then-resumed batch differs from the "
                     "uninterrupted run at %zu threads\n",
                     name, threads);
        return EXIT_FAILURE;
      }
      if (stats.paused == 0 || stats.resumed != stats.paused ||
          stats.deadline_expired != 0) {
        std::fprintf(stderr,
                     "FAIL: %s stats inconsistent at %zu threads "
                     "(paused %llu, resumed %llu, deadline_expired %llu)\n",
                     name, threads,
                     static_cast<unsigned long long>(stats.paused),
                     static_cast<unsigned long long>(stats.resumed),
                     static_cast<unsigned long long>(stats.deadline_expired));
        return EXIT_FAILURE;
      }
      std::printf("  %-10s threads=%zu  %7.1f ms  paused=%llu resumed=%llu  "
                  "identical\n",
                  name, threads, ms,
                  static_cast<unsigned long long>(stats.paused),
                  static_cast<unsigned long long>(stats.resumed));
      json.add(std::string("pause_resume_") + name, ms, stats.paused, threads);
    }
  }
  return EXIT_SUCCESS;
}

int run_deadline_gate(util::BenchJson& json) {
  std::puts("\n=== 50 ms deadline: kUnknown with bounded overshoot ===");
  // A grid no budget can finish: 21^8 noise vectors through a real net.
  static const nn::QuantizedNetwork big_net = nn::QuantizedNetwork::quantize(
      nn::Network::random({8, 16, 16, 2}, 17), 100);
  verify::Query q;
  q.net = &big_net;
  q.x = {10, 20, 30, 40, 50, 60, 70, 80};
  q.true_label = big_net.classify_noised(q.x, {});
  q.box = verify::NoiseBox::symmetric(8, 10);

  constexpr std::uint64_t kDeadlineMs = 50;
  const verify::Scheduler scheduler(
      {.threads = 1, .deadline_ms = kDeadlineMs});
  verify::BatchStats stats;
  const util::Stopwatch watch;
  const std::vector<verify::VerifyResult> results =
      scheduler.run_all(std::span(&q, 1), verify::engine("enumerate"), &stats);
  const double wall_ms = watch.millis();
  const double overshoot_ms = wall_ms - static_cast<double>(kDeadlineMs);
  const verify::VerifyResult& r = results.front();
  if (r.verdict != verify::Verdict::kUnknown || !r.resource_limited) {
    std::fprintf(stderr, "FAIL: expired query did not finalize to kUnknown + "
                         "resource_limited\n");
    return EXIT_FAILURE;
  }
  if (stats.deadline_expired != 1 || scheduler.deadline_expired_total() != 1) {
    std::fprintf(stderr, "FAIL: deadline expiry not counted (stats %llu)\n",
                 static_cast<unsigned long long>(stats.deadline_expired));
    return EXIT_FAILURE;
  }
  if (overshoot_ms >= 250.0) {
    std::fprintf(stderr, "FAIL: overshoot %.1f ms >= 250 ms\n", overshoot_ms);
    return EXIT_FAILURE;
  }
  std::printf("  deadline=%llu ms  wall=%.1f ms  overshoot=%.1f ms  "
              "deadline_expired=%llu\n",
              static_cast<unsigned long long>(kDeadlineMs), wall_ms,
              overshoot_ms,
              static_cast<unsigned long long>(stats.deadline_expired));
  json.add("deadline_overshoot", overshoot_ms, stats.deadline_expired, 1);
  return EXIT_SUCCESS;
}

/// Drives every query's task to completion at `step_work` per step;
/// returns the summed work.
std::uint64_t drive_sweep(const verify::Engine& eng,
                          const std::vector<verify::Query>& sweep,
                          std::uint64_t step_work) {
  std::uint64_t work = 0;
  for (const verify::Query& q : sweep) {
    const auto task = eng.make_task(q, {});
    while (task->step(step_work) != verify::TaskState::kDone) {
    }
    work += task->result().work;
  }
  return work;
}

/// Robust high-noise queries on bench_bnb's stress net: exhaustive trees of
/// ~0.6k to ~77k boxes, so the default quota splits the larger ones into
/// dozens of steps.
std::vector<verify::Query> bnb_sweep() {
  static const nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(
      nn::Network::random({8, 20, 2}, 202), 100);
  std::vector<verify::Query> sweep;
  for (const int range : {20, 25, 30}) {
    verify::Query q;
    q.net = &net;
    for (std::size_t i = 0; i < net.input_dim(); ++i) {
      q.x.push_back(static_cast<util::i64>(10 + 11 * i));
    }
    q.true_label = net.classify_noised(q.x, {});
    q.box = verify::NoiseBox::symmetric(q.x.size(), range);
    sweep.push_back(std::move(q));
  }
  return sweep;
}

int run_overhead_gate(util::BenchJson& json) {
  std::puts("\n=== Stepping overhead: kDefaultStepWork vs one unbounded "
            "step (<= 5%) ===");
  // Enumerate: the Fig.-4 range ladder over several samples, exhaustive
  // walks of up to 101^3 points (~1k steps each at the default quota).
  std::vector<verify::Query> enumerate_sweep;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (int range = 5; range <= 50; range += 5) {
      enumerate_sweep.push_back(make_query(seed, range, false));
    }
  }
  const std::pair<const char*, std::vector<verify::Query>> sweeps[] = {
      {"enumerate", std::move(enumerate_sweep)}, {"bnb", bnb_sweep()}};

  // Best of kReps per arm, the arms alternating which runs first in each
  // rep, so neither arm always pays (or always skips) the warm-up of the
  // caches and the CPU clock.
  constexpr int kReps = 5;
  constexpr std::uint64_t kUnbounded =
      std::numeric_limits<std::uint64_t>::max();
  for (const auto& [name, sweep] : sweeps) {
    const verify::Engine& eng = verify::engine(name);
    double whole_ms = 1e300;
    double stepped_ms = 1e300;
    std::uint64_t whole_work = 0;
    std::uint64_t stepped_work = 0;
    const auto time_whole = [&] {
      const util::Stopwatch watch;
      whole_work = drive_sweep(eng, sweep, kUnbounded);
      whole_ms = std::min(whole_ms, watch.millis());
    };
    const auto time_stepped = [&] {
      const util::Stopwatch watch;
      stepped_work =
          drive_sweep(eng, sweep, verify::EngineTask::kDefaultStepWork);
      stepped_ms = std::min(stepped_ms, watch.millis());
    };
    for (int rep = 0; rep < kReps; ++rep) {
      if (rep % 2 == 0) {
        time_whole();
        time_stepped();
      } else {
        time_stepped();
        time_whole();
      }
    }
    if (stepped_work != whole_work) {
      std::fprintf(stderr, "FAIL: %s stepped work %llu != unbounded %llu\n",
                   name, static_cast<unsigned long long>(stepped_work),
                   static_cast<unsigned long long>(whole_work));
      return EXIT_FAILURE;
    }
    const double overhead = stepped_ms / whole_ms - 1.0;
    std::printf("  %-10s unbounded %8.1f ms   stepped %8.1f ms   overhead "
                "%+.2f%%  (%zu queries, work %llu)\n",
                name, whole_ms, stepped_ms, overhead * 100.0, sweep.size(),
                static_cast<unsigned long long>(whole_work));
    json.add(std::string("overhead_") + name + "_unbounded", whole_ms,
             whole_work, 1);
    json.add(std::string("overhead_") + name + "_stepped", stepped_ms,
             stepped_work, 1);
    // 0.5 ms absolute slack keeps sub-millisecond timer jitter from failing
    // a gate the percentages clearly pass.
    if (stepped_ms > whole_ms * 1.05 + 0.5) {
      std::fprintf(stderr, "FAIL: %s stepping overhead %.2f%% exceeds 5%%\n",
                   name, overhead * 100.0);
      return EXIT_FAILURE;
    }
  }
  return EXIT_SUCCESS;
}

}  // namespace

int main() {
  util::BenchJson json("tasks");
  if (run_pause_resume_gate(json) != EXIT_SUCCESS) return EXIT_FAILURE;
  if (run_deadline_gate(json) != EXIT_SUCCESS) return EXIT_FAILURE;
  if (run_overhead_gate(json) != EXIT_SUCCESS) return EXIT_FAILURE;
  const std::string path = json.write();
  std::printf("\nwrote %s\n", path.c_str());
  return EXIT_SUCCESS;
}
