// Extension bench (no paper counterpart — the hardware-fault twin of
// Fig. 4's input-sensitivity panel): rank the network parameters by the
// smallest exact perturbation that misclassifies a test sample, and
// contrast parameter fragility with the input-noise tolerance.
//
// The bench is also the weight-fault engine's CI gate: the incremental
// prefix-memoized scan (DESIGN.md §8) must produce a report bit-identical
// to the naive whole-network rescan — for 1, 2 and 8 worker threads —
// while performing strictly fewer per-layer evaluations, and its wall
// speedup is gated and recorded in BENCH_weight_faults.json
// (docs/bench-format.md).  The gate runs on two inputs, each under the
// percent and bit-flip models: the small cohort (5-20-2, where the rank-1
// step lands on the output layer) and a deeper 24-32-16-4 net (where a
// full layer follows it).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "core/faults.hpp"
#include "la/matrix.hpp"
#include "nn/network.hpp"
#include "nn/quantized.hpp"
#include "util/benchjson.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace fannet;
using util::i64;

/// Wall-clock gate for the incremental engine on the small cohort.  The
/// measured local speedup is ~3-8x; the floor is deliberately loose so CI
/// noise cannot trip it while a real regression (incremental no faster
/// than naive) still fails.
constexpr double kMinSpeedup = 1.15;

/// Report identity *excluding* layer_evaluations — the one field that
/// legitimately differs between the two engines (that is the point of the
/// incremental evaluator).  Faults compare through WeightFault's memberwise
/// operator==, so new fields join the gate automatically.
bool reports_identical(const core::WeightFaultReport& a,
                       const core::WeightFaultReport& b) {
  return a.faults == b.faults && a.robust_weights == b.robust_weights &&
         a.evaluations == b.evaluations &&
         a.undecided_candidates == b.undecided_candidates && a.model == b.model;
}

/// One input of the identity and speedup gate.
struct GateInput {
  std::string name;  ///< record-name prefix ("" for the small cohort)
  nn::QuantizedNetwork net;
  la::Matrix<i64> inputs;
  std::vector<int> labels;
  int max_percent = 50;
};

/// A wider and deeper net than the case study.  Input-heavy on purpose:
/// feature-rich inputs are the realistic shape for this domain (the
/// paper's case study selects from 7129 gene-expression features), and
/// they put most of the parameters in layer 0, whose rank-1 step is
/// followed by a full 16-neuron layer.  Every sample classifies correctly
/// by construction (labels come from the network itself).
GateInput deep_input() {
  GateInput in{"deep_",
               nn::QuantizedNetwork::quantize(
                   nn::Network::random({24, 32, 16, 4}, 21), 100),
               la::Matrix<i64>(16, 24), {}, 10};
  util::Rng rng(23);
  for (std::size_t s = 0; s < in.inputs.rows(); ++s) {
    for (std::size_t i = 0; i < in.inputs.cols(); ++i) {
      in.inputs(s, i) = rng.uniform_int(1, 100);
    }
    in.labels.push_back(in.net.classify_noised(in.inputs.row(s), {}));
  }
  return in;
}

/// Gate: naive-vs-incremental bit-identity, strictly-fewer layer
/// evaluations, thread-count determinism, and the wall-clock speedup.
int run_identity_and_speedup_gate(const GateInput& in,
                                  core::FaultModel model,
                                  util::BenchJson& json) {
  const std::string model_name(core::fault_model_name(model));
  std::printf("=== Gate: incremental vs naive scan (%s, %s) ===\n",
              in.name.empty() ? "small cohort" : "24-32-16-4 net",
              model_name.c_str());
  core::WeightFaultConfig config;
  config.max_percent = in.max_percent;
  config.threads = 1;
  config.model = model;

  config.scan = core::FaultScan::kNaive;
  const util::Stopwatch naive_watch;
  const core::WeightFaultReport naive =
      core::analyze_weight_faults(in.net, in.inputs, in.labels, config);
  const double naive_ms = naive_watch.millis();

  config.scan = core::FaultScan::kIncremental;
  const util::Stopwatch inc_watch;
  const core::WeightFaultReport incremental =
      core::analyze_weight_faults(in.net, in.inputs, in.labels, config);
  const double incremental_ms = inc_watch.millis();

  if (!reports_identical(naive, incremental)) {
    std::fprintf(stderr,
                 "FAIL: incremental report differs from the naive scan\n");
    return EXIT_FAILURE;
  }
  if (incremental.layer_evaluations >= naive.layer_evaluations) {
    std::fprintf(stderr,
                 "FAIL: incremental scan did not perform strictly fewer "
                 "layer evaluations (%llu vs naive %llu)\n",
                 static_cast<unsigned long long>(incremental.layer_evaluations),
                 static_cast<unsigned long long>(naive.layer_evaluations));
    return EXIT_FAILURE;
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    config.threads = threads;
    const core::WeightFaultReport parallel =
        core::analyze_weight_faults(in.net, in.inputs, in.labels, config);
    if (!reports_identical(incremental, parallel) ||
        parallel.layer_evaluations != incremental.layer_evaluations) {
      std::fprintf(stderr, "FAIL: report differs at %zu threads\n", threads);
      return EXIT_FAILURE;
    }
  }

  const double speedup = naive_ms / incremental_ms;
  std::printf("naive       %8.1f ms  (%llu layer evaluations)\n", naive_ms,
              static_cast<unsigned long long>(naive.layer_evaluations));
  std::printf("incremental %8.1f ms  (%llu layer evaluations)\n",
              incremental_ms,
              static_cast<unsigned long long>(incremental.layer_evaluations));
  std::printf("speedup %.2fx, identical reports at 1/2/8 threads\n\n", speedup);
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: incremental speedup %.2fx below the %.2fx "
                 "gate\n", speedup, kMinSpeedup);
    return EXIT_FAILURE;
  }
  const std::string suffix =
      model == core::FaultModel::kPercentScale ? "" : "_" + model_name;
  json.add(in.name + "naive_scan" + suffix, naive_ms, naive.layer_evaluations,
           1);
  json.add(in.name + "incremental_scan" + suffix, incremental_ms,
           incremental.layer_evaluations, 1);
  json.add(in.name + "speedup_x100_incremental" + suffix, 100.0 * speedup, 0,
           1);
  return EXIT_SUCCESS;
}

/// Fault-model diversity: the same ranking under each corruption model.
void run_fault_models(const core::CaseStudy& cs, util::BenchJson& json) {
  std::puts("=== Fault-model diversity (small cohort) ===");
  for (const core::FaultModel model :
       {core::FaultModel::kPercentScale, core::FaultModel::kStuckAtZero,
        core::FaultModel::kSignFlip, core::FaultModel::kBitFlip}) {
    core::WeightFaultConfig config;
    config.model = model;
    const util::Stopwatch watch;
    const core::WeightFaultReport report =
        core::analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y, config);
    const double ms = watch.millis();
    const std::size_t fragile = report.faults.size() - report.robust_weights;
    std::printf("%-14s %4zu/%zu parameters fragile  (%llu evaluations%s)\n",
                std::string(core::fault_model_name(model)).c_str(), fragile,
                report.faults.size(),
                static_cast<unsigned long long>(report.evaluations),
                report.undecided_candidates > 0 ? ", some out of exact range"
                                                : "");
    json.add("fault_model_" + std::string(core::fault_model_name(model)), ms,
             fragile, 1);
  }
  std::puts("");
}

std::uint64_t print_weight_faults() {
  const core::CaseStudy cs = core::build_case_study();

  std::puts("=== Extension: weight-fault sensitivity (accelerator-reliability view) ===");
  std::puts("Smallest exact perturbation w' = w*(100+p)/100 flipping any");
  std::puts("correctly-classified test sample, per parameter:\n");

  core::WeightFaultConfig scan;
  scan.max_percent = 200;  // up to 3x the stored value / full sign flips
  const core::WeightFaultReport report =
      core::analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y, scan);
  std::fputs(core::format_weight_faults(report, 12).c_str(), stdout);

  const core::Fannet fannet(cs.qnet);
  core::ToleranceConfig config;
  config.start_range = 50;
  const auto tolerance = fannet.analyze_tolerance(cs.test_x, cs.test_y, config);
  const auto fragile = core::most_fragile_weights(report, 1);
  if (!fragile.empty()) {
    std::printf("\nComparison: input-noise tolerance +/-%d%% vs most fragile "
                "weight flipping at +/-%d%% — %s\n",
                tolerance.noise_tolerance, *fragile[0].min_flip_percent,
                *fragile[0].min_flip_percent < tolerance.noise_tolerance
                    ? "parameter storage is the weaker link"
                    : "inputs are the weaker link");
  }
  std::puts("");
  return report.evaluations;
}

void BM_WeightFaultScan(benchmark::State& state) {
  const core::CaseStudy cs = core::build_case_study();
  core::WeightFaultConfig config;
  config.max_percent = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y, config)
            .evaluations);
  }
}
BENCHMARK(BM_WeightFaultScan)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  util::BenchJson json("weight_faults");

  const core::CaseStudy small =
      core::build_case_study(core::small_case_study_config());
  const GateInput inputs[] = {
      {"", small.qnet, small.test_x, small.test_y, 50}, deep_input()};
  for (const GateInput& in : inputs) {
    for (const core::FaultModel model :
         {core::FaultModel::kPercentScale, core::FaultModel::kBitFlip}) {
      if (run_identity_and_speedup_gate(in, model, json) != EXIT_SUCCESS) {
        return EXIT_FAILURE;
      }
    }
  }
  run_fault_models(small, json);

  const util::Stopwatch watch;
  const std::uint64_t evaluations = print_weight_faults();
  json.add("weight_fault_scan", watch.millis(), evaluations,
           std::thread::hardware_concurrency());
  const std::string path = json.write();
  std::printf("wrote %s\n", path.c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
