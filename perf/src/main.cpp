// fannet_perf: the repository benchmark program (perf/README.md).
//
//   fannet_perf --workload fig4_campaign|serve_verify --seed N
//               --seconds S --trace 0|1 [--rate R] [--limit-ms L]
//
// Prints workload properties and diagnostics, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
// when any output check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fannet_perf: %s\nusage: fannet_perf --workload NAME --seed N "
               "--seconds S --trace 0|1 [--rate R] [--limit-ms L]\n",
               why);
  std::exit(2);
}

perf::Options parse(int argc, char** argv) {
  perf::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      continue;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        usage("--trace takes 0 or 1");
      }
      options.trace = std::string_view(value) == "1";
      continue;
    } else if (flag == "--rate") {
      options.rate = std::strtod(value, &end);
    } else if (flag == "--limit-ms") {
      options.limit_ms = std::strtod(value, &end);
    } else {
      usage("unknown flag");
    }
    if (end == value || *end != '\0') usage("bad value");
  }
  if (options.seconds < 1 || options.rate <= 0 || options.limit_ms <= 0) {
    usage("--seconds, --rate and --limit-ms must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perf::Options options = parse(argc, argv);
  perf::Outcome (*run)(const perf::Options&, perf::Layers&) = nullptr;
  if (options.workload == "fig4_campaign") run = perf::run_fig4_campaign;
  if (options.workload == "serve_verify") run = perf::run_serve_verify;
  if (run == nullptr) usage("unknown workload");

  std::printf("workload %s, seed %llu, %d s, trace %d, nproc %zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, perf::nproc());
  const double calib_start = perf::host_calib_ms();
  perf::Layers layers;
  perf::Outcome outcome;
  try {
    outcome = run(options, layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fannet_perf: %s\n", e.what());
    return 1;
  }
  const double calib_end = perf::host_calib_ms();
  std::printf("host.calib_ms: %.3f at start, %.3f at end (diagnostic only)\n",
              calib_start, calib_end);
  layers.host_calib_ms = 0.5 * (calib_start + calib_end);

  if (options.trace) {
    const std::string path = perf::scratch_dir() + "/trace_" +
                             options.workload + "_" +
                             std::to_string(options.seed) + ".jsonl";
    if (perf::trace::write(path)) {
      std::printf("trace: %zu spans written to %s\n",
                  perf::trace::spans().size(), path.c_str());
    }
  }
  const perf::Metrics metrics =
      options.trace ? perf::per_layer(layers) : outcome.end_to_end;
  metrics.print_result(outcome.correct, outcome.attempted, outcome.failed);
  return outcome.correct ? 0 : 1;
}
