/// \file
/// \brief The FANNet pipeline (paper Fig. 2): P1 validation, noise-tolerance
/// analysis, adversarial noise-vector extraction.
///
/// Engine selection goes through the verify-engine registry (DESIGN.md
/// §4.5): `Engine` is a thin alias over registry names, kept for source
/// compatibility with the original enum API.  All registered engines are
/// exact on the integer grid and agree by construction (asserted by the
/// property tests); see verify/engine.hpp for the built-in strategies.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "la/matrix.hpp"
#include "nn/quantized.hpp"
#include "verify/query.hpp"
#include "verify/sweep.hpp"

namespace fannet::core {

/// Thin, source-compatible alias over verify-engine registry names.  The
/// named constants spell the original enum values; `Engine{"name"}` (or an
/// implicit conversion from a string) reaches any other registered engine.
/// The name is stored by value so an Engine built from a runtime string
/// (CLI flag, config file) stays valid inside a stored config.  Dispatch
/// always goes through verify::registry() — nothing switches on this type.
struct Engine {
  std::string name = "cascade";

  Engine() = default;
  Engine(std::string n) : name(std::move(n)) {}  // NOLINT: implicit by design
  Engine(const char* n) : name(n) {}             // NOLINT: implicit by design

  [[nodiscard]] friend bool operator==(const Engine&, const Engine&) = default;

  static const Engine kEnumerate, kInterval, kSymbolic, kBnB, kCascade,
      kExplicitMc;
};

inline const Engine Engine::kEnumerate{"enumerate"};
inline const Engine Engine::kInterval{"interval"};
inline const Engine Engine::kSymbolic{"symbolic"};
inline const Engine Engine::kBnB{"bnb"};
inline const Engine Engine::kCascade{"cascade"};
inline const Engine Engine::kExplicitMc{"explicit-mc"};

[[nodiscard]] std::string to_string(Engine e);

struct ToleranceConfig {
  int start_range = 50;  ///< the paper's "large initial noise" (±50%)
  /// Portfolio default: sound-only screens, complete B&B only on kUnknown.
  Engine engine = Engine::kCascade;
  bool bias_node = false;
  /// Worker threads for the campaign's shard fan-out when `sweep.threads`
  /// is 0 (0 = hardware concurrency, 1 = serial).  Results are identical
  /// for every thread count.
  std::size_t threads = 0;
  /// SoA evaluation lanes per engine dispatch (DESIGN.md §10, forwarded as
  /// verify::SchedulerOptions::batch_hint): 0 = auto
  /// (nn::BatchEvaluator::kAutoBatch), 1 = the scalar reference path.
  /// Reports are bit-identical for every value.
  std::size_t batch = 0;
  /// Per-query wall-clock deadline in milliseconds (0 = none), forwarded
  /// as verify::SchedulerOptions::deadline_ms.  An expired probe resolves
  /// kUnknown — treated as "no flip found at that range" — so the reported
  /// tolerance can only err toward the optimistic side; the cut is never
  /// silent: ToleranceReport::deadline_expired counts the expired probes.
  /// Incompatible with a `sweep.journal_path` (journaled shard rows must
  /// be time-independent to be resumable) — rejected with InvalidArgument.
  std::uint64_t deadline_ms = 0;
  /// How the per-sample campaign runs through verify::SweepRunner
  /// (DESIGN.md §9).  The default runs it in memory; a `journal_path`
  /// makes it resumable after a crash and chunkable across invocations
  /// via `max_shards`.  Reports are bit-identical either way.
  /// `sweep.threads` of 0 inherits `threads` above.
  verify::SweepOptions sweep = {};
};

struct SampleTolerance {
  std::size_t sample = 0;
  int true_label = 0;
  bool correct_without_noise = false;
  /// Smallest range ±R containing a counterexample; nullopt if none up to
  /// the configured start_range (the sample survives even the largest noise).
  std::optional<int> min_flip_range;
  std::optional<verify::Counterexample> witness;
};

struct ToleranceReport {
  /// The paper's headline number: the largest ±R with zero misclassified
  /// correctly-classified inputs (their net: 11%).
  int noise_tolerance = 0;
  std::vector<SampleTolerance> per_sample;
  std::uint64_t queries = 0;
  /// Probes cut short by ToleranceConfig::deadline_ms (0 when no deadline
  /// was set, or none expired).  Non-zero means `noise_tolerance` is an
  /// optimistic bound: an expired probe counts as "no flip at that range".
  std::uint64_t deadline_expired = 0;
  /// What the campaign's SweepRunner invocation did.  When
  /// `!sweep.complete()` the report covers only the absorbed shards —
  /// `noise_tolerance` and `queries` are partial aggregates until a later
  /// invocation finishes the campaign.
  verify::SweepProgress sweep = {};
};

/// One corpus row for the bias/sensitivity analyses.
struct CorpusEntry {
  std::size_t sample = 0;
  int true_label = 0;
  verify::Counterexample cex;
};

class Fannet {
 public:
  explicit Fannet(const nn::QuantizedNetwork& net) : net_(&net) {}

  /// P1 (Fig. 2): functional validation of the translated model — returns
  /// the indices of samples the network misclassifies without noise.  Only
  /// samples outside this set enter the noise analysis (paper §V-C).
  [[nodiscard]] std::vector<std::size_t> validate_p1(
      const la::Matrix<util::i64>& inputs, const std::vector<int>& labels) const;

  /// One P2 decision at range ±`range`.
  [[nodiscard]] verify::VerifyResult check_sample(
      std::span<const util::i64> x, int true_label, int range, Engine engine,
      bool bias_node = false) const;

  /// Directional/per-node variant with an explicit box.
  [[nodiscard]] verify::VerifyResult check_sample_box(
      std::span<const util::i64> x, int true_label,
      const verify::NoiseBox& box, Engine engine,
      bool bias_node = false) const;

  /// Full noise-tolerance analysis over the (test) set, run as a sweep
  /// campaign with one unit per correctly-classified sample (its
  /// start-range screen plus, when vulnerable, its range descent); the
  /// report is identical for every thread count and shard size.
  [[nodiscard]] ToleranceReport analyze_tolerance(
      const la::Matrix<util::i64>& inputs, const std::vector<int>& labels,
      const ToleranceConfig& config) const;

  /// P3 (Fig. 2): extract up to `max_per_sample` unique adversarial noise
  /// vectors per correctly-classified sample at range ±`range`.
  [[nodiscard]] std::vector<CorpusEntry> extract_corpus(
      const la::Matrix<util::i64>& inputs, const std::vector<int>& labels,
      int range, std::size_t max_per_sample, bool bias_node = false,
      std::size_t threads = 0) const;

  [[nodiscard]] const nn::QuantizedNetwork& net() const noexcept {
    return *net_;
  }

  /// Builds a validated query against this network (shared by the analyses
  /// that batch queries through the scheduler).
  [[nodiscard]] verify::Query make_query(std::span<const util::i64> x,
                                         int true_label,
                                         const verify::NoiseBox& box,
                                         bool bias_node) const;

 private:
  const nn::QuantizedNetwork* net_;
};

/// One P2 decision, supplied by whoever runs a probe chain: the analyses'
/// sweep campaigns pass their shard scheduler's `verify_one`, `fannet_serve`
/// its request dispatch (so the request's deadline and cancellation reach
/// every probe).  The chains below are the only implementation
/// of each probe sequence.
using Decide = std::function<verify::VerifyResult(const verify::Query&)>;

/// One sample's tolerance probe chain.
struct DescentOutcome {
  /// Smallest range ±R with a counterexample; nullopt when the start-range
  /// screen finds none.
  std::optional<int> min_flip_range;
  std::optional<verify::Counterexample> witness;  ///< found at min_flip_range
  std::uint64_t queries = 0;  ///< probes decided, the screen included
};

/// The start-range screen plus, when it flips, the binary descent on the
/// minimal flipping range (monotone: a counterexample in ±R stays available
/// in every ±R' > R).  `x` must be correctly classified without noise.
[[nodiscard]] DescentOutcome descend_sample(const Fannet& fannet,
                                            std::span<const util::i64> x,
                                            int label, int start_range,
                                            bool bias_node,
                                            const Decide& decide);

}  // namespace fannet::core
