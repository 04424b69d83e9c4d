// CI gate for the batched SoA forward evaluator (DESIGN.md §10).
//
// Two gates, both hard failures:
//   1. Oracle identity: every lane of a batch reproduces the scalar
//      eval_output/classify bit-for-bit at batch sizes 1, 7, 64 and 1000,
//      including overflow parity (scalar throw == batched lane flag).
//   2. Tolerance workload (the Fig. 4 sweep under the enumerate engine):
//      reports bit-identical at every batch size, and the auto-batched run
//      at least kMinSpeedup faster than the scalar reference path.
//
// The weight-fault scan has no batched path (its rank-1 update costs a
// few multiply-adds per candidate); bench_ext_weight_faults gates it.
//
// Headline numbers land in BENCH_batch_eval.json (docs/bench-format.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "nn/batch_eval.hpp"
#include "nn/network.hpp"
#include "nn/quantized.hpp"
#include "util/benchjson.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace fannet;
using util::i64;

/// Wall-clock floor for the auto-batched path over the scalar reference.
/// Locally the SoA kernel measures ~2x or more; 1.5x leaves room
/// for CI noise while a real regression (batching no faster than scalar)
/// still fails.
constexpr double kMinSpeedup = 1.5;

/// The ISSUE's identity grid: scalar reference plus three batched shapes
/// (tiny, the auto default, and far-larger-than-any-chunk).
constexpr std::size_t kBatchSizes[] = {1, 7, 64, 1000};

// ---------------------------------------------------------------------------
// Gate 1: forward-pass oracle identity.
// ---------------------------------------------------------------------------
int run_oracle_identity_gate(util::BenchJson& json) {
  std::puts("=== Gate: batched forward pass vs scalar oracle ===");
  const nn::QuantizedNetwork q =
      nn::QuantizedNetwork::quantize(nn::Network::random({6, 24, 24, 4}, 5), 100);
  const nn::BatchEvaluator evaluator(q);
  util::Rng rng(11);

  std::uint64_t lanes_checked = 0;
  const util::Stopwatch watch;
  for (const std::size_t batch_size : kBatchSizes) {
    nn::BatchEvaluator::Batch batch = evaluator.make_batch();
    std::vector<std::vector<i64>> xs;
    std::vector<std::vector<int>> ds;
    for (std::size_t t = 0; t < batch_size; ++t) {
      std::vector<i64> x;
      std::vector<int> d;
      for (std::size_t i = 0; i < q.input_dim(); ++i) {
        x.push_back(rng.uniform_int(1, 100));
        d.push_back(static_cast<int>(rng.uniform_int(-40, 40)));
      }
      batch.push_noised(x, d, 100);
      xs.push_back(std::move(x));
      ds.push_back(std::move(d));
    }
    evaluator.run(batch);
    for (std::size_t t = 0; t < batch_size; ++t) {
      const auto X = nn::QuantizedNetwork::noised_inputs(xs[t], ds[t]);
      if (batch.overflowed(t)) {
        std::fprintf(stderr, "FAIL: unexpected overflow flag (batch %zu)\n",
                     batch_size);
        return EXIT_FAILURE;
      }
      const auto expect = q.eval_output(X);
      const auto got = batch.outputs(t);
      for (std::size_t k = 0; k < expect.size(); ++k) {
        if (got[k] != expect[k]) {
          std::fprintf(stderr,
                       "FAIL: output mismatch at batch %zu lane %zu\n",
                       batch_size, t);
          return EXIT_FAILURE;
        }
      }
      if (batch.label(t) != q.classify(X)) {
        std::fprintf(stderr, "FAIL: label mismatch at batch %zu lane %zu\n",
                     batch_size, t);
        return EXIT_FAILURE;
      }
      ++lanes_checked;
    }
  }

  // Overflow parity: a weight that overflows the exact accumulation makes
  // the scalar path throw; the batch must flag (never wrap, never guess).
  const nn::QuantizedNetwork huge =
      q.with_param(0, 0, 0, std::numeric_limits<i64>::max() / 2);
  const nn::BatchEvaluator huge_eval(huge);
  nn::BatchEvaluator::Batch batch = huge_eval.make_batch();
  const std::vector<i64> x(huge.input_dim(), 50);
  batch.push_noised(x, {}, 100);
  huge_eval.run(batch);
  bool scalar_threw = false;
  try {
    (void)huge.classify_noised(x, {});
  } catch (const ArithmeticError&) {
    scalar_threw = true;
  }
  if (!scalar_threw || !batch.overflowed(0)) {
    std::fprintf(stderr, "FAIL: overflow parity (scalar threw: %d, "
                 "lane flagged: %d)\n", scalar_threw ? 1 : 0,
                 batch.overflowed(0) ? 1 : 0);
    return EXIT_FAILURE;
  }

  std::printf("identical outputs/labels on %llu lanes at batch sizes "
              "1/7/64/1000, overflow parity holds\n\n",
              static_cast<unsigned long long>(lanes_checked));
  json.add("oracle_identity_lanes", watch.millis(), lanes_checked, 1);
  return EXIT_SUCCESS;
}

// ---------------------------------------------------------------------------
// Gate 2: the Fig. 4 tolerance sweep under the enumerate engine.
// ---------------------------------------------------------------------------
bool tolerance_reports_identical(const core::ToleranceReport& a,
                                 const core::ToleranceReport& b) {
  if (a.noise_tolerance != b.noise_tolerance || a.queries != b.queries ||
      a.per_sample.size() != b.per_sample.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_sample.size(); ++i) {
    const core::SampleTolerance& sa = a.per_sample[i];
    const core::SampleTolerance& sb = b.per_sample[i];
    if (sa.sample != sb.sample || sa.true_label != sb.true_label ||
        sa.correct_without_noise != sb.correct_without_noise ||
        sa.min_flip_range != sb.min_flip_range || sa.witness != sb.witness) {
      return false;
    }
  }
  return true;
}

int run_tolerance_gate(const core::CaseStudy& cs, util::BenchJson& json) {
  std::puts("=== Gate: tolerance sweep, scalar vs batched enumerate ===");
  const core::Fannet fannet(cs.qnet);
  core::ToleranceConfig config;
  config.engine = core::Engine{"enumerate"};
  config.start_range = 4;  // (2*4+1)^5 grid points per screened sample
  config.threads = 1;

  config.batch = 1;
  const util::Stopwatch scalar_watch;
  const core::ToleranceReport scalar =
      fannet.analyze_tolerance(cs.test_x, cs.test_y, config);
  const double scalar_ms = scalar_watch.millis();

  double batched_ms = 0.0;
  for (const std::size_t batch : kBatchSizes) {
    if (batch == 1) continue;
    config.batch = batch;
    const util::Stopwatch watch;
    const core::ToleranceReport batched =
        fannet.analyze_tolerance(cs.test_x, cs.test_y, config);
    if (batch == nn::BatchEvaluator::kAutoBatch) batched_ms = watch.millis();
    if (!tolerance_reports_identical(scalar, batched)) {
      std::fprintf(stderr, "FAIL: tolerance report differs at batch %zu\n",
                   batch);
      return EXIT_FAILURE;
    }
  }

  const double speedup = scalar_ms / batched_ms;
  std::printf("scalar  %8.1f ms  (batch 1)\n", scalar_ms);
  std::printf("batched %8.1f ms  (batch %zu)\n", batched_ms,
              nn::BatchEvaluator::kAutoBatch);
  std::printf("speedup %.2fx, identical reports at batch 7/64/1000\n\n",
              speedup);
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: tolerance speedup %.2fx below the %.2fx "
                 "gate\n", speedup, kMinSpeedup);
    return EXIT_FAILURE;
  }
  json.add("tolerance_scalar", scalar_ms, scalar.queries, 1);
  json.add("tolerance_batched", batched_ms, scalar.queries, 1);
  json.add("speedup_x100_tolerance", 100.0 * speedup, 0, 1);
  return EXIT_SUCCESS;
}

// ---------------------------------------------------------------------------
// Microbenchmarks (skipped by CI's --benchmark_filter=__gates_only__).
// ---------------------------------------------------------------------------
void BM_BatchedForward(benchmark::State& state) {
  const nn::QuantizedNetwork q =
      nn::QuantizedNetwork::quantize(nn::Network::random({6, 24, 24, 4}, 5), 100);
  const nn::BatchEvaluator evaluator(q);
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  nn::BatchEvaluator::Batch batch = evaluator.make_batch();
  util::Rng rng(7);
  std::vector<i64> x(q.input_dim());
  for (std::size_t t = 0; t < lanes; ++t) {
    for (auto& v : x) v = rng.uniform_int(1, 100);
    batch.push_noised(x, {}, 100);
  }
  for (auto _ : state) {
    evaluator.run(batch);
    benchmark::DoNotOptimize(batch.label(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_BatchedForward)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  util::BenchJson json("batch_eval");

  if (run_oracle_identity_gate(json) != EXIT_SUCCESS) return EXIT_FAILURE;

  const core::CaseStudy small =
      core::build_case_study(core::small_case_study_config());
  if (run_tolerance_gate(small, json) != EXIT_SUCCESS) return EXIT_FAILURE;

  const std::string path = json.write();
  std::printf("wrote %s\n", path.c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
