/// \file
/// \brief Training-bias, input-node-sensitivity and classification-boundary
/// analyses over the adversarial-noise-vector corpus (paper §V-C.2–4).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/fannet.hpp"

namespace fannet::core {

// ---------------------------------------------------------------------------
// Training bias (Eq. 4): misclassification direction histogram.
// ---------------------------------------------------------------------------
struct BiasReport {
  /// direction[from][to] = number of corpus entries with true label `from`
  /// misclassified as `to`.
  std::vector<std::vector<std::uint64_t>> direction;
  /// Training-set class counts (for the "~70% of samples are L1" statement).
  std::vector<std::uint64_t> train_class_counts;
  double train_majority_fraction = 0.0;
  int train_majority_label = -1;
  /// Label most flipped *to* in the corpus (the paper: all flips go L0→L1,
  /// matching the majority class).
  int bias_toward = -1;
  /// Fraction of all flips that land on bias_toward.
  double bias_fraction = 0.0;
};

[[nodiscard]] BiasReport analyze_bias(const std::vector<CorpusEntry>& corpus,
                                      std::size_t num_labels,
                                      const std::vector<int>& train_labels);

// ---------------------------------------------------------------------------
// Input node sensitivity (Eq. 3 + corpus histograms).
// ---------------------------------------------------------------------------
struct NodeSensitivityReport {
  /// Corpus histograms: per input node, the number of counterexamples whose
  /// delta at this node is positive / negative / zero.
  std::vector<std::uint64_t> positive, negative, zero;
  std::vector<int> min_delta, max_delta;  ///< extremes observed per node

  /// Sound directional existence (decided by B&B, not sampled): is there
  /// ANY counterexample with strictly positive (negative) noise at node i
  /// while other nodes roam the full range?  The paper's i5 finding is
  /// "positive_possible[i5] == false".
  std::vector<bool> positive_possible, negative_possible;

  /// Eq. 3 per-node tolerance: largest alpha such that noising ONLY node i
  /// within ±alpha never flips any correctly-classified sample; nullopt if
  /// the node never causes a flip up to the probed range.
  std::vector<std::optional<int>> solo_flip_range;

  /// What the probe campaign's SweepRunner invocation did.  The corpus
  /// histograms above are always recomputed in full; the probe results are
  /// partial until the campaign completes.
  verify::SweepProgress sweep = {};

  /// Probes cut short by SensitivityConfig::deadline_ms (0 when no
  /// deadline was set, or none expired).  Non-zero means the directional /
  /// solo results above may under-report what a full run would find.
  std::uint64_t deadline_expired = 0;
};

struct SensitivityConfig {
  /// Engine deciding the directional/solo probes (complete engines only —
  /// the probes are sound existence decisions, not samples).
  Engine engine = Engine::kCascade;
  /// Worker threads for the probe campaign's shard fan-out when
  /// `sweep.threads` is 0 (0 = hardware concurrency).  Each directional
  /// probe (per node and sign) and each per-(node, sample) solo bisection
  /// is one campaign unit.
  std::size_t threads = 0;
  /// SoA evaluation lanes per engine dispatch (DESIGN.md §10, forwarded as
  /// verify::SchedulerOptions::batch_hint): 0 = auto
  /// (nn::BatchEvaluator::kAutoBatch), 1 = the scalar reference path.
  /// Reports are bit-identical for every value.
  std::size_t batch = 0;
  /// Per-query wall-clock deadline in milliseconds (0 = none), forwarded
  /// as verify::SchedulerOptions::deadline_ms.  Expired probes resolve
  /// kUnknown — "direction not shown possible" / "no solo flip found" —
  /// and are counted in NodeSensitivityReport::deadline_expired.
  /// Incompatible with a `sweep.journal_path` (journaled shard rows must
  /// be time-independent to be resumable) — rejected with InvalidArgument.
  std::uint64_t deadline_ms = 0;
  /// How the probe campaign runs through verify::SweepRunner (DESIGN.md
  /// §9).  The default runs it in memory; a `journal_path` journals the
  /// directional and Eq.-3 solo probes so an interrupted campaign resumes
  /// instead of restarting.  Reports are bit-identical either way.
  /// `sweep.threads` of 0 inherits `threads` above.
  verify::SweepOptions sweep = {};
};

[[nodiscard]] NodeSensitivityReport analyze_sensitivity(
    const Fannet& fannet, const la::Matrix<util::i64>& inputs,
    const std::vector<int>& labels, int range,
    const std::vector<CorpusEntry>& corpus,
    const SensitivityConfig& config = {});

/// Directional existence probe for one sample: is there a counterexample
/// with delta at `node` strictly of `sign` while the other nodes roam
/// ±range?  Returns the probe's result, or nullopt at range 0 (no strictly
/// signed delta fits).
[[nodiscard]] std::optional<verify::VerifyResult> directional_probe(
    const Fannet& fannet, std::span<const util::i64> x, int label,
    std::size_t node, int sign, int range, const Decide& decide);

/// Eq.-3 solo probe: the minimal |delta_node| that flips `x` when ONLY that
/// node is noised, found by one existence query at ±range plus a
/// bisection; nullopt when the node never flips it.
[[nodiscard]] std::optional<int> solo_flip(const Fannet& fannet,
                                           std::span<const util::i64> x,
                                           int label, std::size_t node,
                                           int range, const Decide& decide);

// ---------------------------------------------------------------------------
// Classification-boundary proximity (paper §V-C.2): the distribution of
// per-sample minimal flipping ranges separates inputs near the boundary
// (flip under small noise) from deep-interior ones (survive ±50%).
// ---------------------------------------------------------------------------
struct BoundaryReport {
  struct Row {
    std::size_t sample = 0;
    int true_label = 0;
    std::optional<int> min_flip_range;  // nullopt = survives the max range
  };
  std::vector<Row> rows;              // correctly-classified samples only
  std::vector<std::uint64_t> histogram;  ///< bucketed by min flip range
  int bucket_width = 5;
  std::uint64_t survivors = 0;  ///< samples with no flip up to the max range
};

[[nodiscard]] BoundaryReport analyze_boundary(const ToleranceReport& report,
                                              int bucket_width = 5,
                                              int max_range = 50);

}  // namespace fannet::core
