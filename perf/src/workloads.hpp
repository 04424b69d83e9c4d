// The two workloads and what they share: the cohort pool, the repeated
// set-up, the traced sat pass and the per-layer metric table.
// perf/README.md records why each workload exists and which end-to-end
// metric each layer metric should move.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "core/casestudy.hpp"

namespace perf {

/// Golub seeds of the paper-scale cohorts every workload builds in set-up.
/// The pool is fixed: per-cohort analysis cost varies about tenfold across
/// Golub seeds, so cohorts drawn per workload seed would make runs with
/// different seeds measure different amounts of work.  The workload seed
/// draws everything else (op order, samples, nodes, ranges, boxes).
inline constexpr std::array<std::uint64_t, 4> kCohortSeeds = {42, 1, 2, 3};

struct Cohort {
  std::uint64_t golub_seed = 0;
  fannet::core::CaseStudy study;
  std::vector<std::size_t> correct;  ///< test rows right without noise
};

/// Builds the pool, one `data.cohort_build` span per core::build_case_study.
[[nodiscard]] std::vector<Cohort> build_cohorts();

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Runs `setup` kSetupRepeats times and returns the median duration in
/// seconds; the caller keeps what the last repetition built.
[[nodiscard]] double timed_setup(const std::function<void()>& setup);

/// Every per-layer metric of the benchmark.  A workload fills the layers
/// it exercises; the rest stay 0, meaning the workload does no work there.
struct Layers {
  double data_cohort_build_ms = 0;
  double core_tolerance_ms = 0, core_corpus_bias_ms = 0,
         core_sensitivity_ms = 0, core_weight_faults_ms = 0;
  double core_self_ms = 0, core_parallel_speedup = 0;
  double core_tolerance_queries = 0;
  double verify_dispatches = 0, verify_steps_per_dispatch = 0,
         verify_step_ms = 0;
  double verify_interval_decided_share = 0,
         verify_symbolic_decided_share = 0;
  double verify_bnb_dispatches = 0, verify_bnb_boxes = 0, verify_bnb_ms = 0;
  double nn_layer_evaluations = 0, sweep_shards = 0;
  double cache_hit_share = 0, cache_inserts = 0, cache_evictions = 0;
  double serve_hit_latency_p50_ms = 0, serve_miss_overhead_ms = 0;
  double serve_rejected_saturated = 0, serve_errors = 0;
  double loadgen_lag_p99_ms = 0;
  double sat_translate_ms = 0, sat_encode_ms = 0, sat_cnf_vars = 0,
         sat_cnf_clauses = 0, sat_solve_ms = 0, sat_conflicts = 0;
  double host_calib_ms = 0;
};
[[nodiscard]] Metrics per_layer(const Layers& layers);

/// Copies the pass-through engine's counters into the verify.* layers.
void fill_engine_layers(Layers& layers);

/// Median duration of the recorded spans named `name`.
[[nodiscard]] double span_median_ms(const char* name);

/// What a workload hands back to main: the result-line fields, and the
/// end-to-end metrics of its untraced window.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics end_to_end;
};

Outcome run_fig4_campaign(const Options& options, Layers& layers);
Outcome run_serve_verify(const Options& options, Layers& layers);

/// The traced sat pass (src/sat_probe.cpp): fills the sat.* layers.  Its
/// probes are numbered from `first_op` in the trace.
struct SatPass {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< threw or differed from bnb
};
SatPass run_sat_pass(const std::vector<Cohort>& cohorts, std::uint64_t seed,
                     std::int64_t first_op, Layers& layers);

}  // namespace perf
