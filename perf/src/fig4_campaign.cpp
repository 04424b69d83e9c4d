// fig4_campaign: closed loop, one caller.  Each op is one Fig. 4 analysis
// call on one of the pool's cohorts, at threads = nproc / 2 and with no
// query cache:
//   tolerance      analyze_tolerance from +/-50% (cascade engine)
//   corpus_bias    extract_corpus + analyze_bias at +/-20%
//   sensitivity    analyze_sensitivity at +/-20% (corpus from set-up)
//   weight_faults  analyze_weight_faults, percent model, +/-20%, as a
//                  journaled sweep into a fresh journal (fannet_cli sweep)
// Why: this is the operator's Fig. 4 surface.  Almost all of its work is
// scheduler fan-out, cascade screens, bnb, the SoA and prefix evaluators and
// sweep journal writes; serve, the cache and sat do none of it.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <unistd.h>

#include "core/analysis.hpp"
#include "core/faults.hpp"
#include "core/fannet.hpp"
#include "trace.hpp"
#include "traced_engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perf {

namespace {

namespace fc = fannet::core;
namespace fv = fannet::verify;

enum Analysis : std::size_t {
  kTolerance,
  kCorpusBias,
  kSensitivity,
  kWeightFaults,
  kAnalyses
};
constexpr std::array<const char*, kAnalyses> kNames = {
    "tolerance", "corpus_bias", "sensitivity", "weight_faults"};
constexpr std::array<const char*, kAnalyses> kSpans = {
    "core.tolerance", "core.corpus_bias", "core.sensitivity",
    "core.weight_faults"};

constexpr int kToleranceStart = 50;
constexpr int kRange = 20;
constexpr std::size_t kCorpusPerSample = 100;
/// One round visits every (cohort, analysis) pair once and takes about this
/// long at this commit on a 4-CPU host; the op count is a fixed function of
/// --seconds so every run with the same arguments issues the same ops.
constexpr double kRoundSeconds = 0.5;

/// Report digests of every (cohort, analysis) pair, committed with the
/// benchmark: a changed digest means an analysis result changed.
constexpr std::uint64_t kExpected[kCohortSeeds.size()][kAnalyses] = {
    {0xc0f5e6ee6ac66112, 0xd23456c4d1dbc6c2, 0x36555feb1d8223e9,
     0xb1b9ac5c59136666},
    {0x838ddeccff4a3689, 0x0aff87d661be1028, 0x56ff7c2159f712f6,
     0x6df4377794b40d20},
    {0x79c62e2e144c149d, 0x97b1a0f292d4cda6, 0xbd2ebf675b18095a,
     0x2475d5dfbef7a609},
    {0x173131aa4baeed8f, 0x2a203eada1804845, 0xf2c580c49dc7a106,
     0xeb42cb900df4d930},
};

struct Op {
  std::size_t cohort = 0;
  Analysis analysis = kTolerance;
};

/// Seeded op sequence: whole rounds, each a shuffled list of all pairs.
std::vector<Op> make_sequence(std::uint64_t seed, int seconds) {
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kRoundSeconds + 0.5));
  fannet::util::Rng rng(seed);
  std::vector<Op> ops;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<Op> round;
    for (std::size_t c = 0; c < kCohortSeeds.size(); ++c) {
      for (std::size_t a = 0; a < kAnalyses; ++a) {
        round.push_back({c, static_cast<Analysis>(a)});
      }
    }
    shuffle(round, rng);
    ops.insert(ops.end(), round.begin(), round.end());
  }
  return ops;
}

struct State {
  std::vector<Cohort> cohorts;
  std::vector<std::vector<fc::CorpusEntry>> corpora;  ///< at +/-kRange
};

void mix_double(Digest& d, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  d.mix(bits);
}

/// A witness must flip its sample under exact re-evaluation.
bool flips(const fc::Fannet& fannet, const Cohort& cohort, std::size_t row,
           int range, const fv::Counterexample& cex) {
  const auto x = cohort.study.test_x.row(row);
  const int label = cohort.study.test_y[row];
  const fv::Query query = fannet.make_query(
      x, label, fv::NoiseBox::symmetric(x.size(), range), false);
  const int got = fv::classify_under_noise(query, cex.deltas);
  return got != label && got == cex.mis_label;
}

/// What one op produced: its timing, its report digest, its check verdict
/// and the counts the per-layer table reads.
struct OpResult {
  double latency_ms = 0;
  double cpu_s = 0;
  std::uint64_t digest = 0;
  bool witnesses_ok = true;
  std::uint64_t tolerance_queries = 0;
  std::uint64_t layer_evaluations = 0;
  std::uint64_t shards = 0;
};

OpResult run_op(const State& state, const Op& op, std::size_t threads,
                const char* engine, std::size_t journal_id) {
  const Cohort& cohort = state.cohorts[op.cohort];
  const fc::CaseStudy& cs = cohort.study;
  const fc::Fannet fannet(cs.qnet);
  OpResult out;
  Digest d;
  const std::string journal = scratch_dir() + "/wf_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(journal_id) + ".jsonl";
  std::remove(journal.c_str());

  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  fc::ToleranceReport tolerance;
  std::vector<fc::CorpusEntry> corpus;
  fc::BiasReport bias;
  fc::NodeSensitivityReport sensitivity;
  fc::WeightFaultReport faults;
  {
    const trace::Scope span(kSpans[op.analysis]);
    switch (op.analysis) {
      case kTolerance: {
        fc::ToleranceConfig config;
        config.start_range = kToleranceStart;
        config.engine = fc::Engine{engine};
        config.threads = threads;
        tolerance = fannet.analyze_tolerance(cs.test_x, cs.test_y, config);
        break;
      }
      case kCorpusBias:
        corpus = fannet.extract_corpus(cs.test_x, cs.test_y, kRange,
                                       kCorpusPerSample, false, threads);
        bias = fc::analyze_bias(corpus, cs.qnet.output_dim(), cs.train_y);
        break;
      case kSensitivity: {
        fc::SensitivityConfig config;
        config.engine = fc::Engine{engine};
        config.threads = threads;
        sensitivity = fc::analyze_sensitivity(fannet, cs.test_x, cs.test_y,
                                              kRange, state.corpora[op.cohort],
                                              config);
        break;
      }
      default: {
        fc::WeightFaultConfig config;
        config.max_percent = kRange;
        config.threads = threads;
        config.model = fc::FaultModel::kPercentScale;
        config.sweep = fv::SweepOptions{.journal_path = journal,
                                        .threads = threads};
        faults = fc::analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y,
                                           config);
        break;
      }
    }
  }
  out.latency_ms = ns_to_ms(now_ns() - t0);
  out.cpu_s = cpu_seconds() - cpu0;
  std::remove(journal.c_str());

  switch (op.analysis) {
    case kTolerance:
      out.tolerance_queries = tolerance.queries;
      d.mix_i(tolerance.noise_tolerance);
      d.mix(tolerance.queries);
      d.mix(tolerance.deadline_expired);
      for (const fc::SampleTolerance& s : tolerance.per_sample) {
        d.mix(s.sample);
        d.mix_i(s.true_label);
        d.mix(s.correct_without_noise ? 1 : 0);
        d.mix_i(s.min_flip_range.value_or(-1));
        if (s.witness.has_value()) {
          d.mix_cex(*s.witness);
          out.witnesses_ok = out.witnesses_ok &&
                             s.min_flip_range.has_value() &&
                             flips(fannet, cohort, s.sample,
                                   *s.min_flip_range, *s.witness);
        }
      }
      break;
    case kCorpusBias:
      d.mix(corpus.size());
      for (const fc::CorpusEntry& e : corpus) {
        d.mix(e.sample);
        d.mix_i(e.true_label);
        d.mix_cex(e.cex);
        out.witnesses_ok =
            out.witnesses_ok && flips(fannet, cohort, e.sample, kRange, e.cex);
      }
      for (const auto& row : bias.direction) {
        for (const std::uint64_t v : row) d.mix(v);
      }
      for (const std::uint64_t v : bias.train_class_counts) d.mix(v);
      mix_double(d, bias.train_majority_fraction);
      d.mix_i(bias.train_majority_label);
      d.mix_i(bias.bias_toward);
      mix_double(d, bias.bias_fraction);
      break;
    case kSensitivity:
      for (const auto* v : {&sensitivity.positive, &sensitivity.negative,
                            &sensitivity.zero}) {
        for (const std::uint64_t x : *v) d.mix(x);
      }
      for (const auto* v : {&sensitivity.min_delta, &sensitivity.max_delta}) {
        for (const int x : *v) d.mix_i(x);
      }
      for (const auto* v : {&sensitivity.positive_possible,
                            &sensitivity.negative_possible}) {
        for (const bool x : *v) d.mix(x ? 1 : 0);
      }
      for (const auto& r : sensitivity.solo_flip_range) d.mix_i(r.value_or(-1));
      d.mix(sensitivity.deadline_expired);
      break;
    default:
      out.layer_evaluations = faults.layer_evaluations;
      out.shards = faults.sweep.executed_shards;
      for (const fc::WeightFault& f : faults.faults) {
        d.mix(f.layer);
        d.mix(f.row);
        d.mix(f.col);
        d.mix_i(f.min_flip_percent.value_or(-1));
        d.mix_i(f.flip_sign);
        d.mix(f.flipped_sample);
        d.mix_i(f.flipped_raw);
      }
      d.mix(faults.robust_weights);
      d.mix(faults.evaluations);
      d.mix(faults.layer_evaluations);
      d.mix(faults.undecided_candidates);
      d.mix(faults.sweep.total_shards);
      d.mix(faults.sweep.executed_shards);
      d.mix(faults.sweep.resumed_shards);
      d.mix(faults.sweep.pending_shards);
      d.mix(faults.sweep.units_executed);
      break;
  }
  out.digest = d.value();
  return out;
}

std::optional<OpResult> try_run_op(const State& state, const Op& op,
                                   std::size_t threads, const char* engine,
                                   std::size_t journal_id) {
  try {
    return run_op(state, op, threads, engine, journal_id);
  } catch (const std::exception& e) {
    std::printf("op %zu (%s) threw: %s\n", journal_id, kNames[op.analysis],
                e.what());
    return std::nullopt;
  }
}

/// Runs the op sequence once; ops are numbered from `first_op` in the trace.
/// Every report digest must equal the committed kExpected, which does not
/// depend on the seed, so every repeat of a pair also reproduces its first
/// report bit for bit.
struct Pass {
  Window window;
  std::uint64_t tolerance_queries = 0, layer_evaluations = 0, shards = 0;
  std::array<std::size_t, kAnalyses> count = {};
};

Pass run_pass(const State& state, const std::vector<Op>& ops,
              std::size_t threads, const char* engine, std::int64_t first_op) {
  Pass pass;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    trace::set_current_op(first_op + static_cast<std::int64_t>(i));
    const std::optional<OpResult> r =
        try_run_op(state, op, threads, engine, i);
    trace::set_current_op(-1);
    ++pass.window.attempted;
    ++pass.count[op.analysis];
    bool ok = r.has_value();
    if (ok) {
      const std::uint64_t expected = kExpected[op.cohort][op.analysis];
      ok = r->witnesses_ok && r->digest == expected;
      if (!ok) {
        std::printf("check failed: op %zu cohort %llu %s digest 0x%016llx "
                    "(committed 0x%016llx), witnesses %s\n",
                    i,
                    static_cast<unsigned long long>(
                        kCohortSeeds[op.cohort]),
                    kNames[op.analysis],
                    static_cast<unsigned long long>(r->digest),
                    static_cast<unsigned long long>(expected),
                    r->witnesses_ok ? "ok" : "BAD");
      }
      pass.window.latency_ms.push_back(r->latency_ms);
      pass.window.wall_s += r->latency_ms / 1e3;
      pass.window.cpu_s += r->cpu_s;
      pass.tolerance_queries += r->tolerance_queries;
      pass.layer_evaluations += r->layer_evaluations;
      pass.shards += r->shards;
    }
    if (ok) {
      ++pass.window.good;
    } else {
      ++pass.window.failed;
    }
  }
  return pass;
}

/// core.self_ms: per tolerance/sensitivity op, its span minus the union of
/// the engine-step spans inside it (fan-out, thread start/join, descent
/// bookkeeping); the median over those ops.
double core_self_ms(std::int64_t first_op, std::int64_t end_op) {
  const std::vector<trace::Span> spans = trace::spans();
  std::vector<const trace::Span*> roots(
      static_cast<std::size_t>(end_op - first_op), nullptr);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> steps(
      roots.size());
  for (const trace::Span& s : spans) {
    if (s.op < first_op || s.op >= end_op) continue;
    const auto i = static_cast<std::size_t>(s.op - first_op);
    const std::string_view name = s.name;
    if (name == kSpans[kTolerance] || name == kSpans[kSensitivity]) {
      roots[i] = &s;
    } else if (name == "verify.step") {
      steps[i].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (roots[i] == nullptr) continue;
    for (auto& [start, end] : steps[i]) {
      start = std::max(start, roots[i]->start_ns);
      end = std::min(end, roots[i]->end_ns);
    }
    self.push_back(roots[i]->ms() - trace::union_ms(steps[i]));
  }
  return median(self);
}

}  // namespace

Outcome run_fig4_campaign(const Options& options, Layers& layers) {
  // Half of nproc rather than the fannet_cli default of nproc: on a shared
  // host a fan-out over every CPU waits on whichever CPU the host takes
  // away, and at nproc the window's throughput moved by a third between
  // runs of the same ops, about twice as much as at nproc / 2.
  const std::size_t threads = std::max<std::size_t>(1, nproc() / 2);
  State state;
  trace::set_enabled(options.trace);  // data.cohort_build spans
  const double setup_s = timed_setup([&] {
    state.cohorts = build_cohorts();
    // Warm-up pass: the sensitivity ops' corpora, one per cohort.
    state.corpora.clear();
    for (const Cohort& c : state.cohorts) {
      state.corpora.push_back(fc::Fannet(c.study.qnet).extract_corpus(
          c.study.test_x, c.study.test_y, kRange, kCorpusPerSample, false,
          threads));
    }
  });
  trace::set_enabled(false);
  const std::vector<Op> ops = make_sequence(options.seed, options.seconds);

  std::printf("cohort seeds:");
  for (const std::uint64_t s : kCohortSeeds) {
    std::printf(" %llu", static_cast<unsigned long long>(s));
  }
  std::printf("; %zu ops in %zu rounds, threads %zu, no query cache\n",
              ops.size(), ops.size() / (kCohortSeeds.size() * kAnalyses),
              threads);

  const Pass untraced = run_pass(state, ops, threads, "cascade", 0);
  std::printf("ops per analysis:");
  for (std::size_t a = 0; a < kAnalyses; ++a) {
    std::printf(" %s %zu", kNames[a], untraced.count[a]);
  }
  std::printf("\n");
  print_window("window", untraced.window);

  Outcome outcome;
  outcome.end_to_end = end_to_end(untraced.window, setup_s);
  outcome.attempted = untraced.window.attempted;
  outcome.failed = untraced.window.failed;
  if (!options.trace) {
    outcome.correct = untraced.window.failed == 0;
    return outcome;
  }

  // Traced run: the same sequence through the pass-through engine at
  // `threads`, then its first quarter (whole rounds) replayed at 1
  // thread for core.parallel_speedup, then the sat pass for the sat.*
  // layers.
  register_traced_cascade();
  reset_engine_counters();
  const auto n = static_cast<std::int64_t>(ops.size());
  const std::size_t round = kCohortSeeds.size() * kAnalyses;
  const std::vector<Op> prefix(
      ops.begin(),
      ops.begin() + static_cast<std::ptrdiff_t>(
                        std::max<std::size_t>(1, ops.size() / round / 4) *
                        round));
  trace::set_enabled(true);
  const Pass traced = run_pass(state, ops, threads, kTracedCascade, 0);
  fill_engine_layers(layers);
  const Pass serial = run_pass(state, prefix, 1, kTracedCascade, n);
  const SatPass sat = run_sat_pass(
      state.cohorts, options.seed,
      n + static_cast<std::int64_t>(prefix.size()), layers);
  trace::set_enabled(false);
  print_window("traced window", traced.window);
  print_window("traced 1-thread replay of the first quarter", serial.window);
  print_overhead(outcome.end_to_end, end_to_end(traced.window, setup_s));
  double prefix_s = 0;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    prefix_s += traced.window.latency_ms[i] / 1e3;
  }

  layers.data_cohort_build_ms = span_median_ms("data.cohort_build");
  {  // the traced window's ops only, not the replay's
    std::array<std::vector<double>, kAnalyses> ms;
    for (const trace::Span& s : trace::spans()) {
      if (s.op < 0 || s.op >= n) continue;
      for (std::size_t a = 0; a < kAnalyses; ++a) {
        if (std::string_view(s.name) == kSpans[a]) ms[a].push_back(s.ms());
      }
    }
    layers.core_tolerance_ms = median(ms[kTolerance]);
    layers.core_corpus_bias_ms = median(ms[kCorpusBias]);
    layers.core_sensitivity_ms = median(ms[kSensitivity]);
    layers.core_weight_faults_ms = median(ms[kWeightFaults]);
  }
  layers.core_self_ms = core_self_ms(0, n);
  layers.core_parallel_speedup =
      prefix_s > 0 ? serial.window.wall_s / prefix_s : 0.0;
  layers.core_tolerance_queries =
      static_cast<double>(traced.tolerance_queries);
  layers.nn_layer_evaluations = static_cast<double>(traced.layer_evaluations);
  layers.sweep_shards = static_cast<double>(traced.shards);

  outcome.correct = untraced.window.failed == 0 &&
                    traced.window.failed == 0 && serial.window.failed == 0 &&
                    sat.failed == 0;
  outcome.attempted = traced.window.attempted + sat.attempted;
  outcome.failed = traced.window.failed + sat.failed;
  return outcome;
}

}  // namespace perf
