#include "common.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perf {

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_calib_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return ns_to_ms(now_ns() - start);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // The k-th smallest value (1-based) has n - k samples beyond it.  With
  // fewer than eleven samples no value has ten beyond it; take the largest.
  const std::size_t k = n > 10 ? n - 10 : n;
  tail.value_ms = values[k - 1];
  tail.percentile = 100.0 * static_cast<double>(k) / static_cast<double>(n);
  return tail;
}

double Metrics::get(std::string_view name) const {
  for (const Item& item : items_) {
    if (item.name == name) return item.value;
  }
  return 0.0;
}

void Metrics::print_result(bool correct, std::size_t attempted,
                           std::size_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", items_[i].name.c_str(), v,
                items_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Metrics end_to_end(const Window& window, double setup_s) {
  const double ops = static_cast<double>(window.attempted);
  const double done = static_cast<double>(window.attempted - window.failed);
  Metrics m;
  m.add("throughput_ops_s", window.wall_s > 0 ? done / window.wall_s : 0.0,
        "1/s");
  m.add("latency_p50_ms", median(window.latency_ms), "ms");
  m.add("latency_tail_ms", tail_of(window.latency_ms).value_ms, "ms");
  m.add("cpu_ms_per_op", ops > 0 ? 1e3 * window.cpu_s / ops : 0.0, "ms");
  m.add("setup_s", setup_s, "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
  m.add("goodput_ops_s",
        window.wall_s > 0 ? static_cast<double>(window.good) / window.wall_s
                          : 0.0,
        "1/s");
  return m;
}

void print_window(const char* label, const Window& window) {
  const Tail tail = tail_of(window.latency_ms);
  std::printf(
      "%s: %zu ops attempted, %zu failed (fail_share %.6f), %zu within "
      "limit, wall %.3f s, cpu %.3f s\n",
      label, window.attempted, window.failed,
      window.attempted > 0 ? static_cast<double>(window.failed) /
                                 static_cast<double>(window.attempted)
                           : 0.0,
      window.good, window.wall_s, window.cpu_s);
  std::printf("%s: latency p50 %.4f ms, tail %.4f ms = p%.1f of %zu samples\n",
              label, median(window.latency_ms), tail.value_ms,
              tail.percentile, tail.samples);
}

void print_overhead(const Metrics& untraced, const Metrics& traced) {
  std::printf("tracing overhead (traced - untraced):");
  for (const char* name :
       {"throughput_ops_s", "latency_p50_ms", "latency_tail_ms",
        "cpu_ms_per_op", "goodput_ops_s"}) {
    std::printf(" %s %+.4f", name, traced.get(name) - untraced.get(name));
  }
  std::printf("\n");
}

std::string scratch_dir() {
  const std::string dir = ".bench_build/perf_runs";
  ::mkdir(".bench_build", 0755);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace perf
