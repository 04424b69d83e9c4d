// fannet_cli — one binary driving every FANNet analysis from the shell.
//
// The benches reproduce the paper's figures with fixed settings; this tool
// exposes the same five analyses (tolerance, bias, sensitivity, boundary,
// weight-faults) with the knobs scripted sweeps need — engine, thread
// count, noise grid, cohort seed — plus `--cache-dir`, which installs a
// process-wide verify::QueryCache with a disk tier so repeated invocations
// warm-start (DESIGN.md §7).  Each run writes the same BENCH_*.json schema
// the benches emit (docs/bench-format.md), under BENCH_cli_<command>.json.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 sweep shards
// pending, 4 deadline expired on at least one query.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "core/faults.hpp"
#include "core/report.hpp"
#include "util/benchjson.hpp"
#include "util/stopwatch.hpp"
#include "verify/engine.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"
#include "verify/sweep.hpp"

namespace {

using namespace fannet;

struct Options {
  std::string command;
  std::string engine = "cascade";
  std::size_t threads = 0;          // 0 = hardware concurrency
  std::size_t batch = 0;            // SoA lanes; 0 = auto, 1 = scalar
  std::uint64_t deadline_ms = 0;    // per-query deadline; 0 = none
  int start_range = 50;             // tolerance / boundary / weight-faults
  int range = 20;                   // bias / sensitivity probes + corpus
  int grid_lo = 5, grid_hi = 50, grid_step = 5;
  int bucket_width = 5;
  int step = 1;                     // weight-fault scan granularity
  core::FaultModel fault_model = core::FaultModel::kPercentScale;
  std::size_t max_per_sample = 100; // corpus cap
  std::uint64_t seed = 42;          // synthetic-cohort seed
  bool small = false;               // fast small-cohort config
  std::string cache_dir;            // empty = caching disabled
  std::size_t cache_capacity = 1u << 20;
  std::string json_dir = ".";
  std::string analysis = "tolerance";  // campaign behind `sweep`
  std::string journal;              // sweep checkpoint file (empty = none)
  std::size_t shard_size = 0;       // sweep units per shard (0 = 1)
  std::size_t max_shards = 0;       // sweep shard cap per invocation (0 = all)
};

constexpr const char* kUsage = R"(usage: fannet_cli <command> [flags]

commands
  tolerance      noise-tolerance analysis + Fig. 4 misclassification table
  bias           training-bias direction histogram over the noise corpus
  sensitivity    input-node sensitivity (directional + Eq. 3 solo probes)
  boundary       classification-boundary proximity histogram
  weight-faults  weight-fault sensitivity ranking (hardware extension)
  engines        list the registered verification engines
  sweep          resumable sharded campaign (tolerance | sensitivity |
                 weight-faults) with a crash-tolerant checkpoint journal

flags
  --engine NAME        P2 decision engine (default: cascade)
  --threads N          worker threads, 0 = one per hardware thread (default 0)
  --batch N            SoA evaluation lanes per vectorized forward pass
                       (tolerance, boundary, sensitivity);
                       0 = auto, 1 = the scalar reference path (default 0);
                       results are bit-identical for every value
  --deadline-ms N      per-query wall-clock deadline in milliseconds
                       (tolerance, boundary, sensitivity); an expired query
                       resolves kUnknown — the run finishes, reports how
                       many probes were cut, and exits 4 (0 = none, default)
  --start-range N      initial noise range for tolerance/boundary (default 50)
  --range N            noise range for bias/sensitivity probes and corpus
                       extraction (default 20); scan limit for weight-faults
  --grid LO:HI:STEP    noise grid of the tolerance report table (default 5:50:5)
  --bucket-width N     histogram bucket for `boundary` (default 5)
  --step N             percent granularity of the weight-fault scan (default 1)
  --fault-model NAME   weight-fault corruption model: percent (default),
                       stuck-at-zero, sign-flip, or bit-flip (single-bit
                       corruption of the raw fixed-point word)
  --max-per-sample N   corpus cap per sample (default 100)
  --seed N             synthetic-cohort seed (default 42)
  --small              small fast cohort (CI/smoke runs; same code paths)
  --cache-dir DIR      enable the query cache with a disk tier in DIR
  --cache-capacity N   in-memory LRU capacity (default 1048576)
  --json-dir DIR       where BENCH_cli_<command>.json is written (default .)
  --analysis NAME      campaign behind `sweep`: tolerance (default),
                       sensitivity, or weight-faults
  --resume FILE        sweep checkpoint journal: created cold, resumed when
                       it already has entries (--journal is a synonym)
  --shard-size N       sweep work units per journaled shard (default 1)
  --max-shards N       execute at most N shards this invocation, then exit 3
                       with the rest pending (chunking across processes or
                       machines; 0 = no cap, default)
  --help               this text

exit codes: 0 success (sweep: campaign complete), 1 runtime failure,
2 usage error, 3 sweep ran fine but shards are still pending (--max-shards),
4 analysis finished but --deadline-ms expired on at least one query
)";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "fannet_cli: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Digits only: strtoull alone would accept a sign (and wrap "-1" to
/// 2^64 - 1) or leading blanks.  Out-of-range values are rejected too.
bool parse_size(const char* text, std::size_t& out) {
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v != static_cast<std::size_t>(v)) {
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_int(const char* text, int& out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      v != static_cast<int>(v)) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

Options parse_args(int argc, char** argv) {
  Options opts;
  if (argc < 2) usage_error("missing command");
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    std::fputs(kUsage, stdout);
    std::exit(0);
  }
  opts.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("flag " + flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (flag == "--engine") {
      opts.engine = value();
    } else if (flag == "--threads") {
      if (!parse_size(value(), opts.threads)) usage_error("bad --threads");
    } else if (flag == "--batch") {
      if (!parse_size(value(), opts.batch)) usage_error("bad --batch");
    } else if (flag == "--deadline-ms") {
      std::size_t ms = 0;
      if (!parse_size(value(), ms)) usage_error("bad --deadline-ms");
      opts.deadline_ms = ms;
    } else if (flag == "--start-range") {
      if (!parse_int(value(), opts.start_range) || opts.start_range < 1) {
        usage_error("bad --start-range");
      }
    } else if (flag == "--range") {
      if (!parse_int(value(), opts.range) || opts.range < 1) {
        usage_error("bad --range");
      }
    } else if (flag == "--grid") {
      const std::string grid = value();
      if (std::sscanf(grid.c_str(), "%d:%d:%d", &opts.grid_lo, &opts.grid_hi,
                      &opts.grid_step) != 3 ||
          opts.grid_lo < 1 || opts.grid_hi < opts.grid_lo ||
          opts.grid_step < 1) {
        usage_error("bad --grid, expected LO:HI:STEP");
      }
    } else if (flag == "--bucket-width") {
      if (!parse_int(value(), opts.bucket_width) || opts.bucket_width < 1) {
        usage_error("bad --bucket-width");
      }
    } else if (flag == "--step") {
      if (!parse_int(value(), opts.step) || opts.step < 1) {
        usage_error("bad --step");
      }
    } else if (flag == "--fault-model") {
      const std::optional<core::FaultModel> model =
          core::fault_model_from_name(value());
      if (!model) {
        usage_error("bad --fault-model, expected percent | stuck-at-zero | "
                    "sign-flip | bit-flip");
      }
      opts.fault_model = *model;
    } else if (flag == "--max-per-sample") {
      if (!parse_size(value(), opts.max_per_sample)) {
        usage_error("bad --max-per-sample");
      }
    } else if (flag == "--seed") {
      std::size_t seed = 0;
      if (!parse_size(value(), seed)) usage_error("bad --seed");
      opts.seed = seed;
    } else if (flag == "--small") {
      opts.small = true;
    } else if (flag == "--analysis") {
      opts.analysis = value();
    } else if (flag == "--resume" || flag == "--journal") {
      opts.journal = value();
    } else if (flag == "--shard-size") {
      if (!parse_size(value(), opts.shard_size)) usage_error("bad --shard-size");
    } else if (flag == "--max-shards") {
      if (!parse_size(value(), opts.max_shards)) usage_error("bad --max-shards");
    } else if (flag == "--cache-dir") {
      opts.cache_dir = value();
    } else if (flag == "--cache-capacity") {
      if (!parse_size(value(), opts.cache_capacity) ||
          opts.cache_capacity == 0) {
        usage_error("bad --cache-capacity");
      }
    } else if (flag == "--json-dir") {
      opts.json_dir = value();
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  return opts;
}

core::CaseStudy build_cohort(const Options& opts) {
  core::CaseStudyConfig config =
      opts.small ? core::small_case_study_config() : core::CaseStudyConfig{};
  config.golub.seed = opts.seed;
  std::printf("building %s cohort (seed %llu) ...\n",
              opts.small ? "small" : "paper-scale",
              static_cast<unsigned long long>(opts.seed));
  const core::CaseStudy cs = core::build_case_study(config);
  std::printf("train accuracy %.2f%%, test accuracy %.2f%%\n\n",
              cs.train_accuracy * 100.0, cs.test_accuracy * 100.0);
  return cs;
}

// One config builder per analysis, shared by the plain command and the
// `sweep` branch: they differ only in the SweepOptions passed (empty for
// the plain commands, which run their campaign in memory).

core::ToleranceReport run_tolerance(const core::CaseStudy& cs,
                                    const Options& opts,
                                    const verify::SweepOptions& sweep = {}) {
  core::ToleranceConfig config;
  config.start_range = opts.start_range;
  config.engine = core::Engine{opts.engine};
  config.threads = opts.threads;
  config.batch = opts.batch;
  config.deadline_ms = opts.deadline_ms;
  config.sweep = sweep;
  return core::Fannet(cs.qnet).analyze_tolerance(cs.test_x, cs.test_y, config);
}

core::NodeSensitivityReport run_sensitivity(
    const core::CaseStudy& cs, const Options& opts,
    const std::vector<core::CorpusEntry>& corpus,
    const verify::SweepOptions& sweep = {}) {
  core::SensitivityConfig config;
  config.engine = core::Engine{opts.engine};
  config.threads = opts.threads;
  config.batch = opts.batch;
  config.deadline_ms = opts.deadline_ms;
  config.sweep = sweep;
  return core::analyze_sensitivity(core::Fannet(cs.qnet), cs.test_x,
                                   cs.test_y, opts.range, corpus, config);
}

core::WeightFaultReport run_weight_faults(
    const core::CaseStudy& cs, const Options& opts,
    const verify::SweepOptions& sweep = {}) {
  core::WeightFaultConfig config;
  config.max_percent = opts.range;
  config.step = opts.step;
  config.threads = opts.threads;
  config.model = opts.fault_model;
  config.sweep = sweep;
  return core::analyze_weight_faults(cs.qnet, cs.test_x, cs.test_y, config);
}

void print_tolerance_table(const core::ToleranceReport& report,
                           const Options& opts) {
  core::TextTable t({"noise range", "misclassified inputs", "of correct"});
  std::size_t correct = 0;
  for (const auto& st : report.per_sample) correct += st.correct_without_noise;
  for (int range = opts.grid_lo; range <= opts.grid_hi;
       range += opts.grid_step) {
    std::size_t flipped = 0;
    for (const auto& st : report.per_sample) {
      flipped += st.min_flip_range.has_value() && *st.min_flip_range <= range;
    }
    t.add_row({"+/-" + std::to_string(range) + "%", std::to_string(flipped),
               std::to_string(correct)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf("\nnoise tolerance: +/-%d%%   (%llu P2 queries)\n",
              report.noise_tolerance,
              static_cast<unsigned long long>(report.queries));
}

int run_command(const Options& opts, util::BenchJson& json) {
  if (opts.command == "engines") {
    // Capability columns mirror verify::EngineCaps: verdict class, whether
    // VerifyContext::budget resource caps are honoured, whether a deadline /
    // cancellation interrupts mid-flight, and whether the engine has a
    // native incremental task (vs a one-shot task over its decision
    // function).
    core::TextTable t({"engine", "verdicts", "budget", "deadline", "task"});
    for (const std::string& name : verify::registry().names()) {
      const verify::EngineCaps caps = verify::engine(name).caps();
      t.add_row({name, caps.complete ? "complete" : "sound-only",
                 caps.budget ? "yes" : "no", caps.deadline ? "yes" : "no",
                 caps.native_task ? "native" : "one-shot"});
    }
    std::fputs(t.to_string().c_str(), stdout);
    return 0;
  }
  // Validate command and engine before the (expensive) cohort build; a
  // typo'd engine fails with the known names listed.
  if (opts.command != "tolerance" && opts.command != "boundary" &&
      opts.command != "bias" && opts.command != "sensitivity" &&
      opts.command != "weight-faults" && opts.command != "sweep") {
    usage_error("unknown command " + opts.command);
  }
  if (opts.command == "sweep" && opts.analysis != "tolerance" &&
      opts.analysis != "sensitivity" && opts.analysis != "weight-faults") {
    usage_error("bad --analysis, expected tolerance | sensitivity | "
                "weight-faults");
  }
  if (opts.deadline_ms != 0 && opts.command != "tolerance" &&
      opts.command != "boundary" && opts.command != "sensitivity") {
    // sweep: an in-memory campaign accepts a deadline (that is how the
    // plain commands run), but a journal's shard rows must stay
    // time-independent, so the analyses reject a deadline together with a
    // journal and the journal-oriented `sweep` refuses the flag outright.
    // bias / weight-faults never dispatch through the deadline-aware
    // scheduler.
    usage_error("--deadline-ms is not supported by " + opts.command);
  }
  if (opts.command == "sweep" && opts.max_shards != 0 && opts.journal.empty()) {
    // Without a journal a capped run discards its results on exit, so every
    // invocation would redo the same first shards forever.
    usage_error("--max-shards needs --resume FILE (a capped run without a "
                "journal can never make progress)");
  }
  [[maybe_unused]] const verify::Engine& checked = verify::engine(opts.engine);

  const core::CaseStudy cs = build_cohort(opts);
  const core::Fannet fannet(cs.qnet);
  const util::Stopwatch watch;
  const std::size_t threads = verify::Scheduler({.threads = opts.threads})
                                  .threads();

  // Set by the deadline-aware analyses; turns exit 0 into exit 4 so
  // scripted sweeps can tell a full answer from a time-cut one.
  std::uint64_t deadline_expired = 0;

  if (opts.command == "tolerance") {
    const core::ToleranceReport report = run_tolerance(cs, opts);
    print_tolerance_table(report, opts);
    json.add("tolerance_analysis", watch.millis(), report.queries, threads);
    deadline_expired = report.deadline_expired;
  } else if (opts.command == "boundary") {
    const core::ToleranceReport report = run_tolerance(cs, opts);
    const core::BoundaryReport boundary =
        core::analyze_boundary(report, opts.bucket_width, opts.start_range);
    std::fputs(core::format_boundary(boundary).c_str(), stdout);
    json.add("boundary_analysis", watch.millis(), report.queries, threads);
    deadline_expired = report.deadline_expired;
  } else if (opts.command == "bias") {
    const auto corpus =
        fannet.extract_corpus(cs.test_x, cs.test_y, opts.range,
                              opts.max_per_sample, false, opts.threads);
    const core::BiasReport bias =
        core::analyze_bias(corpus, cs.qnet.output_dim(), cs.train_y);
    std::printf("corpus: %zu counterexamples at +/-%d%%\n\n", corpus.size(),
                opts.range);
    std::fputs(core::format_bias(bias).c_str(), stdout);
    json.add("bias_analysis", watch.millis(), corpus.size(), threads);
  } else if (opts.command == "sensitivity") {
    const auto corpus =
        fannet.extract_corpus(cs.test_x, cs.test_y, opts.range,
                              opts.max_per_sample, false, opts.threads);
    const core::NodeSensitivityReport report =
        run_sensitivity(cs, opts, corpus);
    std::fputs(core::format_sensitivity(report).c_str(), stdout);
    json.add("sensitivity_analysis", watch.millis(), corpus.size(), threads);
    deadline_expired = report.deadline_expired;
  } else if (opts.command == "weight-faults") {
    const core::WeightFaultReport report = run_weight_faults(cs, opts);
    std::fputs(core::format_weight_faults(report).c_str(), stdout);
    json.add("weight_fault_analysis", watch.millis(), report.evaluations,
             threads);
  } else if (opts.command == "sweep") {
    verify::SweepOptions sweep;
    sweep.journal_path = opts.journal;
    sweep.shard_size = opts.shard_size;
    sweep.max_shards = opts.max_shards;
    sweep.threads = opts.threads;

    verify::SweepProgress progress;
    if (opts.analysis == "tolerance") {
      const core::ToleranceReport report = run_tolerance(cs, opts, sweep);
      progress = report.sweep;
      if (progress.complete()) print_tolerance_table(report, opts);
      json.add("sweep_tolerance", watch.millis(), report.queries, threads);
    } else if (opts.analysis == "sensitivity") {
      // Only the probe fan-out is journaled; the corpus exists just for
      // the final report's histograms.  Journal-backed (possibly chunked)
      // runs therefore probe first with an empty corpus — intermediate
      // invocations skip the expensive P3 extraction entirely — and only
      // a completing run extracts the corpus and re-aggregates, with
      // every probe shard answered from the journal.
      std::size_t corpus_size = 0;
      core::NodeSensitivityReport report;
      if (opts.journal.empty()) {
        const auto corpus =
            fannet.extract_corpus(cs.test_x, cs.test_y, opts.range,
                                  opts.max_per_sample, false, opts.threads);
        corpus_size = corpus.size();
        report = run_sensitivity(cs, opts, corpus, sweep);
      } else {
        report = run_sensitivity(cs, opts, {}, sweep);
        // The probe pass's progress reflects this invocation's real work;
        // the re-aggregation below answers every shard from the journal.
        progress = report.sweep;
        if (progress.complete()) {
          const auto corpus =
              fannet.extract_corpus(cs.test_x, cs.test_y, opts.range,
                                    opts.max_per_sample, false, opts.threads);
          corpus_size = corpus.size();
          report = run_sensitivity(cs, opts, corpus, sweep);
        }
      }
      if (opts.journal.empty()) progress = report.sweep;
      if (progress.complete()) {
        std::fputs(core::format_sensitivity(report).c_str(), stdout);
      }
      json.add("sweep_sensitivity", watch.millis(), corpus_size, threads);
    } else {  // weight-faults, validated above
      const core::WeightFaultReport report =
          run_weight_faults(cs, opts, sweep);
      progress = report.sweep;
      if (progress.complete()) {
        std::fputs(core::format_weight_faults(report).c_str(), stdout);
      }
      json.add("sweep_weight_faults", watch.millis(), report.evaluations,
               threads);
    }

    std::printf(
        "\nsweep[%s]: %zu shards total | %zu resumed from journal | "
        "%zu executed | %zu pending (%llu units executed",
        opts.analysis.c_str(), progress.total_shards, progress.resumed_shards,
        progress.executed_shards, progress.pending_shards,
        static_cast<unsigned long long>(progress.units_executed));
    if (progress.journal_skipped > 0) {
      std::printf(", %zu torn/malformed journal lines discarded",
                  progress.journal_skipped);
    }
    std::printf(")\n");
    if (!progress.complete()) {
      std::printf("sweep incomplete: rerun with the same --resume journal to "
                  "continue (exit 3)\n");
    }
    json.add("sweep_shards_total", 0.0, progress.total_shards, 1);
    json.add("sweep_shards_resumed", 0.0, progress.resumed_shards, 1);
    json.add("sweep_shards_executed", 0.0, progress.executed_shards, 1);
    json.add("sweep_shards_pending", 0.0, progress.pending_shards, 1);
    json.add("sweep_units_executed", 0.0, progress.units_executed, 1);
    return progress.complete() ? 0 : 3;
  }
  if (opts.deadline_ms != 0) {
    json.add("deadline_expired", 0.0, deadline_expired, 1);
    if (deadline_expired > 0) {
      std::printf(
          "\ndeadline: %llu probe(s) cut at %llu ms each — the report is a "
          "time-budgeted approximation (exit 4)\n",
          static_cast<unsigned long long>(deadline_expired),
          static_cast<unsigned long long>(opts.deadline_ms));
      return 4;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  try {
    // `--cache-dir` installs the process-wide cache: every analysis above
    // dispatches its P2 queries through verify::Scheduler, which probes it
    // without any per-analysis wiring.
    // Create the output directory up front: failing after a paper-scale
    // analysis because the report has nowhere to go would waste the run.
    if (opts.json_dir != ".") {
      std::filesystem::create_directories(opts.json_dir);
    }

    std::unique_ptr<verify::QueryCache> cache;
    std::optional<verify::ScopedQueryCache> guard;
    if (!opts.cache_dir.empty()) {
      std::filesystem::create_directories(opts.cache_dir);
      cache = std::make_unique<verify::QueryCache>(verify::QueryCacheOptions{
          .capacity = opts.cache_capacity,
          .disk_path = opts.cache_dir + "/fannet-cache.jsonl"});
      guard.emplace(cache.get());
      const auto stats = cache->stats();
      std::printf("query cache: %zu entries warm-started from %s\n",
                  stats.entries, opts.cache_dir.c_str());
    }

    util::BenchJson json("cli_" + opts.command);
    const int status = run_command(opts, json);
    // Exit 3 (sweep ran fine, shards pending) and exit 4 (deadline cut the
    // analysis short) still report and write JSON.
    if ((status == 0 || status == 3 || status == 4) &&
        opts.command != "engines") {
      if (cache) {
        const auto stats = cache->stats();
        std::printf(
            "query cache: %llu hits, %llu misses, %zu entries "
            "(%llu loaded from disk)\n",
            static_cast<unsigned long long>(stats.hits),
            static_cast<unsigned long long>(stats.misses), stats.entries,
            static_cast<unsigned long long>(stats.disk_loaded));
        json.add("cache_hits", 0.0, stats.hits, 1);
        json.add("cache_misses", 0.0, stats.misses, 1);
      }
      const std::string path = json.write(opts.json_dir);
      std::printf("wrote %s\n", path.c_str());
    }
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fannet_cli: %s\n", error.what());
    return 1;
  }
}
