// Micro-benchmarks of the from-scratch substrates: the CDCL SAT solver,
// the exact fixed-point forward pass, and the bit-blasting/Tseitin
// pipeline.  These bound the cost of everything the
// higher-level harnesses do.
#include <benchmark/benchmark.h>

#include "circuit/tseitin.hpp"
#include "core/casestudy.hpp"
#include "mc/compile.hpp"
#include "core/translate.hpp"
#include "nn/quantized.hpp"
#include "sat/solver.hpp"
#include "util/benchjson.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace fannet;

// ---------------------------------------------------------------------------
// SAT
// ---------------------------------------------------------------------------
void build_php(sat::Solver& s, int pigeons, int holes) {
  std::vector<std::vector<sat::Var>> at(static_cast<std::size_t>(pigeons));
  for (auto& row : at) {
    for (int h = 0; h < holes; ++h) row.push_back(s.new_var());
  }
  for (int p = 0; p < pigeons; ++p) {
    sat::Clause c;
    for (int h = 0; h < holes; ++h) {
      c.emplace_back(at[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)], false);
    }
    s.add_clause(std::move(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({sat::Lit(at[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)], true),
                      sat::Lit(at[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)], true)});
      }
    }
  }
}

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    build_php(s, holes + 1, holes);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_SatRandom3Sat(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const int clauses = static_cast<int>(4.2 * vars);
  for (auto _ : state) {
    util::Rng rng(77);
    sat::Solver s;
    for (int v = 0; v < vars; ++v) s.new_var();
    for (int c = 0; c < clauses; ++c) {
      sat::Clause cl;
      for (int k = 0; k < 3; ++k) {
        cl.emplace_back(static_cast<sat::Var>(rng.uniform_int(0, vars - 1)),
                        rng.bernoulli(0.5));
      }
      s.add_clause(std::move(cl));
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(150)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Exact forward pass + translation + bit-blasting
// ---------------------------------------------------------------------------
void BM_ExactForwardPass(benchmark::State& state) {
  const core::CaseStudy cs = core::build_case_study(core::small_case_study_config());
  const auto X = nn::QuantizedNetwork::noised_inputs(cs.test_x.row(0), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.qnet.classify(X));
  }
}
BENCHMARK(BM_ExactForwardPass);

void BM_TranslateToSmv(benchmark::State& state) {
  const core::CaseStudy cs = core::build_case_study(core::small_case_study_config());
  verify::Query q;
  q.net = &cs.qnet;
  q.x.assign(cs.test_x.row(0).begin(), cs.test_x.row(0).end());
  q.true_label = cs.test_y[0];
  q.box = verify::NoiseBox::symmetric(5, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::translate_sample(q).module.defines().size());
  }
}
BENCHMARK(BM_TranslateToSmv);

void BM_BitBlastNetworkModel(benchmark::State& state) {
  const core::CaseStudy cs = core::build_case_study(core::small_case_study_config());
  verify::Query q;
  q.net = &cs.qnet;
  q.x.assign(cs.test_x.row(0).begin(), cs.test_x.row(0).end());
  q.true_label = cs.test_y[0];
  q.box = verify::NoiseBox::symmetric(5, 3);
  const core::Translation t = core::translate_sample(q);
  for (auto _ : state) {
    const mc::SmvCompiler compiler(t.module);
    circuit::Circuit c;
    const auto s0 = compiler.make_state_inputs(c);
    const auto step = compiler.step(c, s0);
    // The property cone carries the whole network (every DEFINE: scaled
    // inputs, 20 ReLU neurons, outputs, argmax) — that is what sat pays.
    const circuit::CLit prop =
        compiler.compile_bool(c, t.module.specs().front().expr, s0);
    sat::Solver solver;
    circuit::TseitinEncoder enc(c, solver);
    enc.assert_true(step.valid);
    enc.assert_true(~prop);
    benchmark::DoNotOptimize(solver.num_clauses());
    state.counters["aig_nodes"] = static_cast<double>(c.num_nodes());
    state.counters["cnf_clauses"] = static_cast<double>(solver.num_clauses());
  }
}
BENCHMARK(BM_BitBlastNetworkModel)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Headline JSON: one hard SAT instance (the conflict-driven core is what
  // bounds the sat engine's cost).
  util::BenchJson json("substrates");
  {
    const util::Stopwatch watch;
    sat::Solver s;
    build_php(s, 8, 7);
    const auto verdict = s.solve();
    json.add("sat_pigeonhole_7", watch.millis(), s.stats().conflicts, 1);
    benchmark::DoNotOptimize(verdict);
  }
  json.write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
