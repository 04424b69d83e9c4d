// Resumable-sweep gate: the weight-fault campaign on the small cohort is
// run four ways —
//
//   1. the direct scan in memory (one thread, default shards): the
//      reference report;
//   2. in-memory sweeps at shard size 8 and 1/2/8 threads — must be
//      bit-identical to the reference;
//   3. a cold fully-journaled run (the warm-resume baseline wall clock);
//   4. a kill -> resume cycle per thread count: a capped partial run
//      journals ~80% of the shards, a torn line is appended (simulating a
//      crash mid-append), and the resumed run must (a) discard the torn
//      line, (b) re-execute only the un-journaled shards — the execution
//      counter proves journaled shards never re-run — and (c) reproduce
//      the reference report bit-for-bit at 1, 2 and 8 threads.
//
// The warm-resume wall gate asserts the resume saves >= 30% over the cold
// journaled run.  Unlike thread-scaling gates this is a same-machine ratio
// of two serial arms, so it holds on 1-CPU containers too.  Measurements
// land in BENCH_sweep.json (docs/bench-format.md).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/casestudy.hpp"
#include "core/faults.hpp"
#include "util/benchjson.hpp"
#include "util/stopwatch.hpp"
#include "verify/sweep.hpp"

namespace {

using namespace fannet;

constexpr int kMaxPercent = 25;
constexpr std::size_t kShardSize = 8;

core::WeightFaultConfig base_config() {
  core::WeightFaultConfig config;
  config.max_percent = kMaxPercent;
  config.step = 1;
  config.threads = 1;
  return config;
}

bool same_report(const core::WeightFaultReport& a,
                 const core::WeightFaultReport& b) {
  // WeightFault::operator== is memberwise, so a new field cannot silently
  // escape this gate.
  return a.faults == b.faults && a.robust_weights == b.robust_weights &&
         a.evaluations == b.evaluations &&
         a.layer_evaluations == b.layer_evaluations &&
         a.undecided_candidates == b.undecided_candidates &&
         a.model == b.model;
}

}  // namespace

int main() {
  const core::CaseStudy cs =
      core::build_case_study(core::small_case_study_config());
  util::BenchJson json("sweep");

  std::puts("=== Sweep gate: weight-fault campaign, small cohort ===");

  // 1. Reference: the direct in-memory scan.
  const util::Stopwatch direct_watch;
  const core::WeightFaultReport reference = core::analyze_weight_faults(
      cs.qnet, cs.test_x, cs.test_y, base_config());
  const double direct_ms = direct_watch.millis();
  json.add("direct_scan", direct_ms, reference.evaluations, 1);
  std::printf("  direct scan      : %8.1f ms  (%zu parameters)\n", direct_ms,
              reference.faults.size());

  // 2. In-memory sweeps, no journal, 1/2/8 threads: bit-identical to the
  // reference.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    core::WeightFaultConfig config = base_config();
    config.sweep = verify::SweepOptions{.shard_size = kShardSize,
                                        .threads = threads};
    const util::Stopwatch watch;
    const core::WeightFaultReport swept =
        core::analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y, config);
    const double ms = watch.millis();
    json.add("sweep_inmemory", ms, swept.evaluations, threads);
    std::printf("  sweep %zu thread%s  : %8.1f ms\n", threads,
                threads == 1 ? " " : "s", ms);
    if (!swept.sweep.complete() || !same_report(reference, swept)) {
      std::fprintf(stderr,
                   "FAIL: in-memory sweep at %zu threads differs from the "
                   "direct scan\n",
                   threads);
      return EXIT_FAILURE;
    }
  }

  // 3. Cold fully-journaled run: the baseline the warm resume must beat.
  const std::string cold_path = "BENCH_sweep.cold.jsonl";
  std::filesystem::remove(cold_path);
  core::WeightFaultConfig cold_config = base_config();
  cold_config.sweep = verify::SweepOptions{.journal_path = cold_path,
                                           .shard_size = kShardSize};
  const util::Stopwatch cold_watch;
  const core::WeightFaultReport cold =
      core::analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y, cold_config);
  const double cold_ms = cold_watch.millis();
  std::filesystem::remove(cold_path);
  json.add("cold_journaled_sweep", cold_ms, cold.sweep.units_executed, 1);
  std::printf("  cold journaled   : %8.1f ms  (%zu shards)\n", cold_ms,
              cold.sweep.total_shards);
  if (!same_report(reference, cold)) {
    std::fputs("FAIL: cold journaled sweep differs from the direct scan\n",
               stderr);
    return EXIT_FAILURE;
  }

  // 4. Kill -> resume per thread count.
  const std::size_t total_shards = cold.sweep.total_shards;
  const std::size_t partial_shards = (total_shards * 4) / 5;  // ~80%
  double resume_1thread_ms = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const std::string path =
        "BENCH_sweep.resume." + std::to_string(threads) + ".jsonl";
    std::filesystem::remove(path);

    core::WeightFaultConfig partial_config = base_config();
    partial_config.sweep = verify::SweepOptions{.journal_path = path,
                                                .shard_size = kShardSize,
                                                .max_shards = partial_shards,
                                                .threads = threads};
    const util::Stopwatch partial_watch;
    const core::WeightFaultReport partial = core::analyze_weight_faults(
        cs.qnet, cs.test_x, cs.test_y, partial_config);
    json.add("partial_sweep", partial_watch.millis(),
             partial.sweep.units_executed, threads);
    if (partial.sweep.complete() ||
        partial.sweep.executed_shards != partial_shards) {
      std::fputs("FAIL: partial run did not stop at the shard cap\n", stderr);
      return EXIT_FAILURE;
    }

    // Simulate the kill landing mid-append: a torn trailing line.
    {
      std::ofstream torn(path, std::ios::app);
      torn << "{\"shard\":999,\"begin\":7992,\"end\":8000,\"bytes\":4";
    }

    core::WeightFaultConfig resume_config = base_config();
    resume_config.sweep = verify::SweepOptions{.journal_path = path,
                                               .shard_size = kShardSize,
                                               .threads = threads};
    const util::Stopwatch resume_watch;
    const core::WeightFaultReport resumed = core::analyze_weight_faults(
        cs.qnet, cs.test_x, cs.test_y, resume_config);
    const double resume_ms = resume_watch.millis();
    std::filesystem::remove(path);
    json.add("resumed_sweep", resume_ms, resumed.sweep.units_executed,
             threads);
    std::printf(
        "  kill->resume %zut  : %8.1f ms  (%zu shards resumed, %zu "
        "re-executed, %zu torn lines discarded)\n",
        threads, resume_ms, resumed.sweep.resumed_shards,
        resumed.sweep.executed_shards, resumed.sweep.journal_skipped);

    // Journaled shards must never re-execute: the resumed invocation runs
    // exactly the complement of the partial one.
    if (!resumed.sweep.complete() ||
        resumed.sweep.resumed_shards != partial_shards ||
        resumed.sweep.executed_shards != total_shards - partial_shards ||
        resumed.sweep.units_executed + partial.sweep.units_executed !=
            reference.faults.size() ||
        resumed.sweep.journal_skipped != 1) {
      std::fputs("FAIL: resume re-executed journaled shards (or missed the "
                 "torn line)\n",
                 stderr);
      return EXIT_FAILURE;
    }
    if (!same_report(reference, resumed)) {
      std::fprintf(stderr,
                   "FAIL: resumed report at %zu threads differs from the "
                   "uninterrupted run\n",
                   threads);
      return EXIT_FAILURE;
    }
    if (threads == 1) resume_1thread_ms = resume_ms;
  }

  // Warm-resume wall gate: with ~80% of the campaign journaled, the resume
  // must cut >= 30% of the cold journaled wall (same machine, both serial).
  const double saved = 100.0 * (cold_ms - resume_1thread_ms) / cold_ms;
  std::printf("  warm resume saves: %.1f%%  (gate: >= 30%%)\n", saved);
  json.add("wall_saved_percent", saved, 0, 1);
  if (saved < 30.0) {
    std::fputs("FAIL: warm resume saved less than 30% of the cold wall\n",
               stderr);
    return EXIT_FAILURE;
  }

  const std::string path = json.write();
  std::printf("\nwrote %s\n", path.c_str());
  return EXIT_SUCCESS;
}
