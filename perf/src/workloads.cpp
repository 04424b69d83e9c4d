#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "core/fannet.hpp"
#include "trace.hpp"
#include "traced_engine.hpp"

namespace perf {

std::vector<Cohort> build_cohorts() {
  std::vector<Cohort> cohorts;
  cohorts.reserve(kCohortSeeds.size());
  for (const std::uint64_t seed : kCohortSeeds) {
    fannet::core::CaseStudyConfig config;
    config.golub.seed = seed;
    Cohort cohort;
    cohort.golub_seed = seed;
    {
      const trace::Scope span("data.cohort_build");
      cohort.study = fannet::core::build_case_study(config);
    }
    const fannet::core::Fannet fannet(cohort.study.qnet);
    const std::vector<std::size_t> wrong =
        fannet.validate_p1(cohort.study.test_x, cohort.study.test_y);
    for (std::size_t row = 0; row < cohort.study.test_x.rows(); ++row) {
      if (std::find(wrong.begin(), wrong.end(), row) == wrong.end()) {
        cohort.correct.push_back(row);
      }
    }
    cohorts.push_back(std::move(cohort));
  }
  return cohorts;
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t start = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  std::printf("setup: %d repetitions,", kSetupRepeats);
  for (const double s : seconds) std::printf(" %.4f", s);
  std::printf(" s\n");
  return median(seconds);
}

Metrics per_layer(const Layers& l) {
  Metrics m;
  m.add("data.cohort_build_ms", l.data_cohort_build_ms, "ms");
  m.add("core.tolerance_ms", l.core_tolerance_ms, "ms");
  m.add("core.corpus_bias_ms", l.core_corpus_bias_ms, "ms");
  m.add("core.sensitivity_ms", l.core_sensitivity_ms, "ms");
  m.add("core.weight_faults_ms", l.core_weight_faults_ms, "ms");
  m.add("core.self_ms", l.core_self_ms, "ms");
  m.add("core.parallel_speedup", l.core_parallel_speedup, "ratio");
  m.add("core.tolerance_queries", l.core_tolerance_queries, "count");
  m.add("verify.dispatches", l.verify_dispatches, "count");
  m.add("verify.steps_per_dispatch", l.verify_steps_per_dispatch, "ratio");
  m.add("verify.step_ms", l.verify_step_ms, "ms");
  m.add("verify.interval.decided_share", l.verify_interval_decided_share,
        "share");
  m.add("verify.symbolic.decided_share", l.verify_symbolic_decided_share,
        "share");
  m.add("verify.bnb.dispatches", l.verify_bnb_dispatches, "count");
  m.add("verify.bnb.boxes", l.verify_bnb_boxes, "count");
  m.add("verify.bnb.ms", l.verify_bnb_ms, "ms");
  m.add("nn.layer_evaluations", l.nn_layer_evaluations, "count");
  m.add("sweep.shards", l.sweep_shards, "count");
  m.add("cache.hit_share", l.cache_hit_share, "share");
  m.add("cache.inserts", l.cache_inserts, "count");
  m.add("cache.evictions", l.cache_evictions, "count");
  m.add("serve.hit_latency_p50_ms", l.serve_hit_latency_p50_ms, "ms");
  m.add("serve.miss_overhead_ms", l.serve_miss_overhead_ms, "ms");
  m.add("serve.rejected_saturated", l.serve_rejected_saturated, "count");
  m.add("serve.errors", l.serve_errors, "count");
  m.add("loadgen.lag_p99_ms", l.loadgen_lag_p99_ms, "ms");
  m.add("sat.translate_ms", l.sat_translate_ms, "ms");
  m.add("sat.encode_ms", l.sat_encode_ms, "ms");
  m.add("sat.cnf_vars", l.sat_cnf_vars, "count");
  m.add("sat.cnf_clauses", l.sat_cnf_clauses, "count");
  m.add("sat.solve_ms", l.sat_solve_ms, "ms");
  m.add("sat.conflicts", l.sat_conflicts, "count");
  m.add("host.calib_ms", l.host_calib_ms, "ms");
  return m;
}

void fill_engine_layers(Layers& l) {
  const EngineCounters& c = engine_counters();
  const auto share = [](const StepCounters& s) {
    const double tasks = static_cast<double>(s.tasks.load());
    return tasks > 0 ? static_cast<double>(s.decided.load()) / tasks : 0.0;
  };
  const double dispatches = static_cast<double>(c.dispatch.tasks.load());
  const double steps = static_cast<double>(c.dispatch.steps.load());
  l.verify_dispatches = dispatches;
  l.verify_steps_per_dispatch = dispatches > 0 ? steps / dispatches : 0.0;
  l.verify_step_ms = steps > 0 ? ns_to_ms(c.dispatch.step_ns.load()) / steps
                               : 0.0;
  l.verify_interval_decided_share = share(c.interval);
  l.verify_symbolic_decided_share = share(c.symbolic);
  l.verify_bnb_dispatches = static_cast<double>(c.bnb.tasks.load());
  l.verify_bnb_boxes = static_cast<double>(c.bnb.work.load());
  l.verify_bnb_ms = ns_to_ms(c.bnb.step_ns.load());
}

double span_median_ms(const char* name) {
  std::vector<double> ms;
  for (const trace::Span& s : trace::spans()) {
    if (std::string_view(s.name) == name) {
      ms.push_back(s.ms());
    }
  }
  return median(ms);
}

}  // namespace perf
