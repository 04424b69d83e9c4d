/// \file
/// \brief Weight-fault sensitivity — the hardware-reliability twin of the
///   paper's input-noise analysis (DESIGN.md §8).
///
/// Input noise models sensor/acquisition error; perturbing a *weight*
/// models memory faults, quantization drift, or aging in a hardware NN
/// accelerator.  For every parameter of the quantized network this analysis
/// finds the least severe fault under a chosen fault model that
/// misclassifies at least one correctly-classified test sample — ranking
/// the parameters whose storage needs the strongest protection, exactly how
/// §V-C.4 ranks the input nodes that need precise acquisition.  The fault
/// models follow the hardware-reliability literature (Duddu et al., "Fault
/// Tolerance of Neural Networks in Adversarial Settings"): proportional
/// drift, stuck-at-zero, sign flips, and single bit flips on the raw
/// fixed-point word.
///
/// The scan is exact: every candidate fault is evaluated with the integer
/// evaluator (no bounds, no floats); completeness over the candidate grid
/// follows by exhaustion.  The default engine is *incremental*
/// (nn::PrefixEvaluator, DESIGN.md §8): per-sample pre-activations are
/// memoized at every layer boundary once.  Each candidate then costs a
/// single-entry delta update of the faulted layer, a rank-1 update of the
/// next layer (one weight column times the change in the one activation
/// that moved, skipped when it did not move), and a full re-evaluation of
/// any layers after that.  On the paper's 5-20-2 net that is at most three
/// multiply-adds per candidate and sample.  The naive whole-network rescan
/// survives as the reference oracle; both produce bit-identical reports.  The scan runs as a sweep campaign, one
/// unit per parameter; a `WeightFaultConfig::sweep` journal makes a long
/// scan resumable (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "la/matrix.hpp"
#include "nn/quantized.hpp"
#include "verify/sweep.hpp"

namespace fannet::core {

/// Sentinel for WeightFault::col marking the bias entry of the row.
inline constexpr std::size_t kBiasCol = ~std::size_t{0};

/// How a fault corrupts one stored parameter (raw fixed-point value w).
enum class FaultModel {
  kPercentScale,  ///< w' = w*(100+p)/100, p scanned over +/-max_percent
  kStuckAtZero,   ///< w' = 0 (cell stuck at logical zero)
  kSignFlip,      ///< w' = -w (corrupted sign)
  kBitFlip,       ///< w' = w with one bit of the raw 64-bit word flipped
};

/// Lower-case identifier for a fault model (CLI/report/json spelling).
[[nodiscard]] std::string_view fault_model_name(FaultModel model);

/// Inverse of fault_model_name; nullopt for an unknown name.
[[nodiscard]] std::optional<FaultModel> fault_model_from_name(
    std::string_view name);

struct WeightFault {
  std::size_t layer = 0;
  std::size_t row = 0;   ///< output neuron index
  std::size_t col = 0;   ///< input index (== kBiasCol means the bias entry)
  /// Least severity whose fault flips some sample, in model units: percent
  /// magnitude for kPercentScale, flipped bit index for kBitFlip, 0 for
  /// the single-candidate models (stuck-at-zero / sign-flip).  nullopt =
  /// no scanned fault flips anything (a "don't-care" parameter for this
  /// test set).
  std::optional<int> min_flip_percent;
  /// Direction that achieves it for kPercentScale (+1/-1); 0 otherwise.
  int flip_sign = 0;
  std::size_t flipped_sample = 0;
  /// Raw fixed-point value the parameter held when the flip occurred.
  util::i64 flipped_raw = 0;

  [[nodiscard]] bool is_bias() const noexcept { return col == kBiasCol; }

  /// Memberwise equality — the naive-vs-incremental and thread-count
  /// identity gates (tests, bench_ext_weight_faults) compare through this
  /// so a newly added field can never be silently left out of a gate.
  [[nodiscard]] bool operator==(const WeightFault&) const = default;
};

struct WeightFaultReport {
  std::vector<WeightFault> faults;   ///< one entry per parameter, scan order
  std::size_t robust_weights = 0;    ///< parameters with no flip in range
  std::uint64_t evaluations = 0;     ///< exact per-sample evaluations performed
  /// Per-layer evaluation count — the cost metric the incremental engine
  /// shrinks (a naive rescan is charged depth() layers per attempted
  /// evaluation; the incremental engine depth() - fault_layer).  Charged
  /// analytically per attempt — even one aborted by an overflow throw —
  /// so the count is bit-identical across thread counts.  The only report
  /// field that legitimately differs between the two engines.
  std::uint64_t layer_evaluations = 0;
  /// Candidates whose exact evaluation left int64 (possible for high-order
  /// kBitFlip faults); skipped and counted, never guessed at.
  std::uint64_t undecided_candidates = 0;
  FaultModel model = FaultModel::kPercentScale;
  /// What the scan campaign's SweepRunner invocation did.  When
  /// incomplete, un-absorbed `faults` entries keep their defaults and the
  /// counters cover absorbed shards only.
  verify::SweepProgress sweep = {};
};

/// Evaluation strategy for the scan.  kIncremental is the default;
/// kNaive re-runs a full forward pass from layer 0 for every candidate and
/// exists as the reference oracle (tests and bench_ext_weight_faults
/// assert bit-identical reports, minus layer_evaluations).
enum class FaultScan { kIncremental, kNaive };

struct WeightFaultConfig {
  int max_percent = 50;   ///< kPercentScale: scan p in [-max, +max] \ {0}
  int step = 1;           ///< kPercentScale: percent granularity
  /// Worker threads for the campaign's shard fan-out when `sweep.threads`
  /// is 0 (0 = hardware concurrency).  The report is identical for every
  /// thread count.
  std::size_t threads = 0;
  FaultModel model = FaultModel::kPercentScale;
  FaultScan scan = FaultScan::kIncremental;
  /// How the scan campaign runs through verify::SweepRunner (DESIGN.md
  /// §9), one unit per parameter.  The default runs it in memory; a
  /// `journal_path` lets a multi-hour fault campaign killed mid-flight
  /// resume instead of restarting from zero.  Reports are bit-identical
  /// either way.  `sweep.threads` of 0 inherits `threads` above.
  verify::SweepOptions sweep = {};
};

/// Scans every weight and bias of `net` against the correctly-classified
/// rows of (inputs, labels).  Exact and deterministic.
[[nodiscard]] WeightFaultReport analyze_weight_faults(
    const nn::QuantizedNetwork& net, const la::Matrix<util::i64>& inputs,
    const std::vector<int>& labels, const WeightFaultConfig& config = {});

/// The `count` most fragile parameters (smallest min_flip_percent first).
[[nodiscard]] std::vector<WeightFault> most_fragile_weights(
    const WeightFaultReport& report, std::size_t count);

/// Formats the ranking as an aligned text table.
[[nodiscard]] std::string format_weight_faults(const WeightFaultReport& report,
                                               std::size_t top_count = 10);

}  // namespace fannet::core
