// Ablation of the design choices DESIGN.md calls out:
//  - which P2 engine answers the query fastest — every strategy in the
//    engine registry (enumerate / interval / symbolic / bnb / cascade /
//    explicit-mc / sat) runs the same query, registered as benchmarks
//    straight off the registry so new engines show up here automatically,
//  - symbolic vs plain-interval pruning inside the branch-and-bound.
//
// All engines answer the same query on the same trained network, so the
// numbers are directly comparable; correctness agreement is enforced by
// the test suite, this binary measures cost.  Headline per-engine costs
// land in BENCH_engines_ablation.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/casestudy.hpp"
#include "util/benchjson.hpp"
#include "util/stopwatch.hpp"
#include "verify/bnb.hpp"
#include "verify/engine.hpp"

namespace {

using namespace fannet;

const core::CaseStudy& case_study() {
  static const core::CaseStudy cs = core::build_case_study();
  return cs;
}

verify::Query sample_query(int range) {
  const core::CaseStudy& cs = case_study();
  verify::Query q;
  q.net = &cs.qnet;
  q.x.assign(cs.test_x.row(3).begin(), cs.test_x.row(3).end());
  q.true_label = cs.test_y[3];
  q.box = verify::NoiseBox::symmetric(q.x.size(), range);
  return q;
}

/// Noise ranges each engine can afford in a benchmark loop (enumeration is
/// the box volume; the MC paths re-translate the model per query).
std::vector<int> ranges_for(const std::string& engine) {
  if (engine == "enumerate") return {1, 2, 3};
  if (engine == "explicit-mc") return {1, 2};
  return {1, 3, 10, 25, 50};
}

void BM_P2_BnbIntervalOnly(benchmark::State& state) {
  const verify::Query q = sample_query(static_cast<int>(state.range(0)));
  verify::BnbOptions options;
  options.use_symbolic = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::bnb_verify(q, options).verdict);
  }
}
BENCHMARK(BM_P2_BnbIntervalOnly)
    ->Arg(1)->Arg(3)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::puts("=== Engine ablation: one P2 query answered by every registered");
  std::puts(" engine (enumerate = ground truth; bnb = complete default;");
  std::puts(" cascade = sound-screen portfolio; explicit-mc / sat = the");
  std::puts(" SMV-translation paths) ===\n");

  // One benchmark per registry entry — new engines ablate automatically.
  for (const std::string& name : verify::registry().names()) {
    const verify::Engine& engine = verify::engine(name);
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_P2/" + name).c_str(), [&engine](benchmark::State& state) {
          const verify::Query q = sample_query(static_cast<int>(state.range(0)));
          for (auto _ : state) {
            benchmark::DoNotOptimize(engine.verify(q).verdict);
          }
        });
    for (const int range : ranges_for(name)) bench->Arg(range);
    bench->Unit(benchmark::kMillisecond);
  }

  // Headline JSON: every engine once on the same modest query.
  util::BenchJson json("engines_ablation");
  for (const std::string& name : verify::registry().names()) {
    const verify::Query q = sample_query(2);
    const util::Stopwatch watch;
    const verify::VerifyResult r = verify::engine(name).verify(q);
    json.add("p2_range2/" + name, watch.millis(), r.work, 1);
  }
  {
    const verify::Query q = sample_query(50);
    const util::Stopwatch watch;
    const verify::VerifyResult r = verify::engine("cascade").verify(q);
    json.add("p2_range50/cascade", watch.millis(), r.work, 1);
  }
  std::printf("wrote %s\n\n", json.write().c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
