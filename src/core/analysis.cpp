#include "core/analysis.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/error.hpp"
#include "verify/engine.hpp"
#include "verify/scheduler.hpp"

namespace fannet::core {

using util::i64;
using verify::NoiseBox;
using verify::Query;
using verify::Verdict;
using verify::VerifyResult;

BiasReport analyze_bias(const std::vector<CorpusEntry>& corpus,
                        std::size_t num_labels,
                        const std::vector<int>& train_labels) {
  if (num_labels == 0) throw InvalidArgument("analyze_bias: no labels");
  BiasReport report;
  report.direction.assign(num_labels,
                          std::vector<std::uint64_t>(num_labels, 0));
  report.train_class_counts.assign(num_labels, 0);

  for (const int label : train_labels) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_labels) {
      throw InvalidArgument("analyze_bias: train label out of range");
    }
    ++report.train_class_counts[static_cast<std::size_t>(label)];
  }
  if (!train_labels.empty()) {
    std::size_t majority = 0;
    for (std::size_t l = 1; l < num_labels; ++l) {
      if (report.train_class_counts[l] > report.train_class_counts[majority]) {
        majority = l;
      }
    }
    report.train_majority_label = static_cast<int>(majority);
    report.train_majority_fraction =
        static_cast<double>(report.train_class_counts[majority]) /
        static_cast<double>(train_labels.size());
  }

  std::vector<std::uint64_t> flips_to(num_labels, 0);
  std::uint64_t total = 0;
  for (const CorpusEntry& entry : corpus) {
    const auto from = static_cast<std::size_t>(entry.true_label);
    const auto to = static_cast<std::size_t>(entry.cex.mis_label);
    if (from >= num_labels || to >= num_labels) {
      throw InvalidArgument("analyze_bias: corpus label out of range");
    }
    ++report.direction[from][to];
    ++flips_to[to];
    ++total;
  }
  if (total > 0) {
    std::size_t top = 0;
    for (std::size_t l = 1; l < num_labels; ++l) {
      if (flips_to[l] > flips_to[top]) top = l;
    }
    report.bias_toward = static_cast<int>(top);
    report.bias_fraction =
        static_cast<double>(flips_to[top]) / static_cast<double>(total);
  }
  return report;
}

namespace {

/// Sweep decomposition of analyze_sensitivity's probes (DESIGN.md §9).
/// Unit order: the 2n directional probes first (unit 2i = node i positive,
/// 2i+1 = node i negative), then the n*|correct| Eq.-3 solo bisections
/// (task % n = node, task / n = position in `correct`).  Unit rows:
///
///   directional: [unit, possible(0/1)]
///   solo:        [unit, min_flip or -1]
class SensitivityCampaign final : public verify::SweepCampaign {
 public:
  SensitivityCampaign(const Fannet& fannet, const la::Matrix<i64>& inputs,
                      const std::vector<int>& labels, int range,
                      const SensitivityConfig& config,
                      std::vector<std::size_t> correct,
                      NodeSensitivityReport& report,
                      const verify::SchedulerOptions& dispatch)
      : fannet_(fannet),
        inputs_(inputs),
        labels_(labels),
        range_(range),
        config_(config),
        correct_(std::move(correct)),
        report_(report),
        engine_(verify::engine(config.engine.name)),
        scheduler_(dispatch) {}

  /// Probes cut by the dispatch deadline across every shard run so far.
  [[nodiscard]] std::uint64_t deadline_expired() const noexcept {
    return scheduler_.deadline_expired_total();
  }

  [[nodiscard]] std::string_view name() const override {
    return "sensitivity";
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    verify::SweepFingerprint fp;
    fp.mix_bytes("sensitivity");
    fp.mix_u64(fannet_.net().fingerprint());
    fp.mix_i64(range_);
    fp.mix_bytes(config_.engine.name);
    verify::mix_dataset(fp, inputs_, labels_);
    return fp.value();
  }

  [[nodiscard]] std::size_t units() const override {
    return 2 * inputs_.cols() + inputs_.cols() * correct_.size();
  }

  [[nodiscard]] verify::SweepRows run_units(std::size_t begin,
                                            std::size_t end) const override {
    const Decide decide = [this](const Query& q) {
      return scheduler_.verify_one(q, engine_);
    };
    const std::size_t n = inputs_.cols();
    verify::SweepRows rows;
    rows.reserve(end - begin);
    for (std::size_t u = begin; u < end; ++u) {
      if (u < 2 * n) {
        const bool possible = directional_possible(u / 2,
                                                   u % 2 == 0 ? +1 : -1,
                                                   decide);
        rows.push_back({static_cast<std::int64_t>(u), possible ? 1 : 0});
      } else {
        const std::size_t task = u - 2 * n;
        const std::size_t s = correct_[task / n];
        const std::optional<int> flip = solo_flip(
            fannet_, inputs_.row(s), labels_[s], task % n, range_, decide);
        rows.push_back(
            {static_cast<std::int64_t>(u), flip ? *flip : std::int64_t{-1}});
      }
    }
    return rows;
  }

  void absorb(std::size_t begin, std::size_t end,
              const verify::SweepRows& rows) override {
    if (rows.size() != end - begin) {
      throw Error(
          "sensitivity sweep: shard row count does not match its range");
    }
    const std::size_t n = inputs_.cols();
    for (std::size_t u = begin; u < end; ++u) {
      const std::vector<std::int64_t>& unit = rows[u - begin];
      if (unit.size() != 2 || unit[0] != static_cast<std::int64_t>(u)) {
        throw Error("sensitivity sweep: shard row does not fit the campaign");
      }
      if (u < 2 * n) {
        const std::size_t node = u / 2;
        (u % 2 == 0 ? report_.positive_possible
                    : report_.negative_possible)[node] = unit[1] != 0;
      } else if (unit[1] >= 0) {
        std::optional<int>& best = report_.solo_flip_range[(u - 2 * n) % n];
        const int flip = static_cast<int>(unit[1]);
        if (!best.has_value() || flip < *best) best = flip;
      }
    }
  }

 private:
  /// The correct samples are probed in order and the first vulnerable one
  /// decides, so the answer is a pure function of the campaign.
  bool directional_possible(std::size_t node, int sign,
                            const Decide& decide) const {
    for (const std::size_t s : correct_) {
      const std::optional<VerifyResult> r = directional_probe(
          fannet_, inputs_.row(s), labels_[s], node, sign, range_, decide);
      if (!r.has_value()) return false;  // range 0: no strict direction
      if (r->verdict == Verdict::kVulnerable) return true;
    }
    return false;
  }

  const Fannet& fannet_;
  const la::Matrix<i64>& inputs_;
  const std::vector<int>& labels_;
  const int range_;
  const SensitivityConfig& config_;
  std::vector<std::size_t> correct_;
  NodeSensitivityReport& report_;
  const verify::Engine& engine_;
  verify::Scheduler scheduler_;  ///< serial dispatch inside one shard
};

}  // namespace

std::optional<VerifyResult> directional_probe(const Fannet& fannet,
                                              std::span<const i64> x,
                                              int label, std::size_t node,
                                              int sign, int range,
                                              const Decide& decide) {
  NoiseBox box = NoiseBox::symmetric(x.size(), range);
  if (sign > 0) box.lo[node] = 1; else box.hi[node] = -1;
  if (box.lo[node] > box.hi[node]) return std::nullopt;
  return decide(fannet.make_query(x, label, box, false));
}

std::optional<int> solo_flip(const Fannet& fannet, std::span<const i64> x,
                             int label, std::size_t node, int range,
                             const Decide& decide) {
  NoiseBox solo;
  solo.lo.assign(x.size(), 0);
  solo.hi.assign(x.size(), 0);
  solo.lo[node] = -range;
  solo.hi[node] = range;
  const VerifyResult r = decide(fannet.make_query(x, label, solo, false));
  if (r.verdict != Verdict::kVulnerable) return std::nullopt;
  // Tighten: find the minimal |delta_node| that flips via bisection.
  int lo = 1, hi = std::max(std::abs(r.counterexample->deltas[node]), 1);
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    solo.lo[node] = -mid;
    solo.hi[node] = mid;
    if (decide(fannet.make_query(x, label, solo, false)).verdict ==
        Verdict::kVulnerable) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

NodeSensitivityReport analyze_sensitivity(
    const Fannet& fannet, const la::Matrix<i64>& inputs,
    const std::vector<int>& labels, int range,
    const std::vector<CorpusEntry>& corpus,
    const SensitivityConfig& config) {
  verify::SweepOptions options = config.sweep;
  if (options.threads == 0) options.threads = config.threads;
  if (config.deadline_ms != 0 && !options.journal_path.empty()) {
    // Journaled shard rows must be time-independent to be resumable; see
    // analyze_tolerance for the same restriction.
    throw InvalidArgument(
        "analyze_sensitivity: deadline_ms cannot be combined with a sweep "
        "journal");
  }
  const std::size_t n = inputs.cols();
  NodeSensitivityReport report;
  report.positive.assign(n, 0);
  report.negative.assign(n, 0);
  report.zero.assign(n, 0);
  report.min_delta.assign(n, 0);
  report.max_delta.assign(n, 0);
  report.positive_possible.assign(n, false);
  report.negative_possible.assign(n, false);
  report.solo_flip_range.assign(n, std::nullopt);

  // Corpus histograms.
  for (const CorpusEntry& entry : corpus) {
    if (entry.cex.deltas.size() != n) {
      throw InvalidArgument("analyze_sensitivity: corpus dimension mismatch");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const int d = entry.cex.deltas[i];
      if (d > 0) ++report.positive[i];
      else if (d < 0) ++report.negative[i];
      else ++report.zero[i];
      report.min_delta[i] = std::min(report.min_delta[i], d);
      report.max_delta[i] = std::max(report.max_delta[i], d);
    }
  }

  // Sound directional existence + Eq.-3 per-node tolerance, over the
  // correctly classified samples: every probe is one campaign unit.
  const std::vector<std::size_t> bad = fannet.validate_p1(inputs, labels);
  std::vector<std::size_t> correct;
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    if (std::find(bad.begin(), bad.end(), s) == bad.end()) correct.push_back(s);
  }
  SensitivityCampaign campaign(fannet, inputs, labels, range, config,
                               std::move(correct), report,
                               {.threads = 1,
                                .batch_hint = config.batch,
                                .deadline_ms = config.deadline_ms});
  report.sweep = verify::SweepRunner(options).run(campaign);
  report.deadline_expired = campaign.deadline_expired();
  return report;
}

BoundaryReport analyze_boundary(const ToleranceReport& tolerance,
                                int bucket_width, int max_range) {
  if (bucket_width < 1) {
    throw InvalidArgument("analyze_boundary: bucket_width must be >= 1");
  }
  BoundaryReport report;
  report.bucket_width = bucket_width;
  report.histogram.assign(
      static_cast<std::size_t>((max_range + bucket_width - 1) / bucket_width),
      0);
  for (const SampleTolerance& st : tolerance.per_sample) {
    if (!st.correct_without_noise) continue;
    report.rows.push_back({st.sample, st.true_label, st.min_flip_range});
    if (st.min_flip_range.has_value()) {
      const auto bucket = static_cast<std::size_t>(
          std::min(*st.min_flip_range - 1, max_range - 1) / bucket_width);
      ++report.histogram[bucket];
    } else {
      ++report.survivors;
    }
  }
  return report;
}

}  // namespace fannet::core
