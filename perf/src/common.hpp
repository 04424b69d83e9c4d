// Shared plumbing of fannet_perf: options, clocks, process resource
// readings, order statistics, report digests and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "verify/query.hpp"

namespace perf {

/// Command-line options.  `rate` and `limit_ms` are fixed in
/// BENCHMARK.json's command so every run uses the same values.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 25;
  bool trace = false;
  double rate = 200.0;     ///< serve_verify send rate, requests/s
  double limit_ms = 50.0;  ///< serve_verify latency limit for goodput
};

/// Worker threads for "nproc" (what fannet_cli's --threads 0 resolves to).
[[nodiscard]] std::size_t nproc();

/// steady_clock nanoseconds since an arbitrary epoch.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Process user+sys CPU seconds (getrusage, all threads incl. joined ones).
[[nodiscard]] double cpu_seconds();
/// Process peak resident set size in MiB (getrusage high-water mark).
[[nodiscard]] double peak_rss_mb();
/// Times a fixed single-thread integer loop: a host-speed reading that
/// never enters or adjusts any metric.
[[nodiscard]] double host_calib_ms();

/// Python-style median (mean of the two middle values for even n); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& items, fannet::util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value_ms = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> values);

/// FNV-1a over fixed-width words: the bit-for-bit identity of a report.
class Digest {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void mix_i(std::int64_t v) noexcept { mix(static_cast<std::uint64_t>(v)); }
  void mix_cex(const fannet::verify::Counterexample& cex) noexcept {
    mix(cex.deltas.size());
    for (const int d : cex.deltas) mix_i(d);
    mix_i(cex.bias_delta);
    mix_i(cex.mis_label);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// One timed window of a workload: what every end-to-end metric is
/// computed from.
struct Window {
  std::vector<double> latency_ms;  ///< per completed op
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< refused, errored or failed its check
  std::size_t good = 0;        ///< succeeded and met the latency limit
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Ordered metric list printed as the result line's "metrics" object.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] double get(std::string_view name) const;
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void print_result(bool correct, std::size_t attempted,
                    std::size_t failed) const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// The end-to-end metrics of one window (goodput counts `Window::good`).
[[nodiscard]] Metrics end_to_end(const Window& window, double setup_s);

/// Prints the window's human-readable summary (tail percentile, sample
/// count, fail share) under `label`.
void print_window(const char* label, const Window& window);

/// Prints "traced minus untraced" for every end-to-end metric.
void print_overhead(const Metrics& untraced, const Metrics& traced);

/// Scratch directory for journals and traces (inside .bench_build/, which
/// .gitignore excludes); created on first use.
[[nodiscard]] std::string scratch_dir();

}  // namespace perf
