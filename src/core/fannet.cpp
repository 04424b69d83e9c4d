#include "core/fannet.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "verify/bnb.hpp"
#include "verify/engine.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"

namespace fannet::core {

using util::i64;
using verify::Counterexample;
using verify::NoiseBox;
using verify::Query;
using verify::Verdict;
using verify::VerifyResult;

std::string to_string(Engine e) { return e.name; }

namespace {

/// Sweep decomposition of analyze_tolerance (DESIGN.md §9): one work unit
/// per correctly-classified sample — its descend_sample chain.  Unit rows:
///
///   survivor:   [sample, 0, descent_queries]
///   vulnerable: [sample, 1, descent_queries, min_flip_range, mis_label,
///                bias_delta, delta_0 .. delta_{n-1}]
class ToleranceCampaign final : public verify::SweepCampaign {
 public:
  ToleranceCampaign(const Fannet& fannet, const la::Matrix<i64>& inputs,
                    const std::vector<int>& labels,
                    const ToleranceConfig& config,
                    std::vector<std::size_t> correct, ToleranceReport& report,
                    const verify::SchedulerOptions& dispatch)
      : fannet_(fannet),
        inputs_(inputs),
        labels_(labels),
        config_(config),
        correct_(std::move(correct)),
        report_(report),
        engine_(verify::engine(config.engine.name)),
        scheduler_(dispatch) {}

  /// Probes cut by the dispatch deadline across every shard run so far.
  [[nodiscard]] std::uint64_t deadline_expired() const noexcept {
    return scheduler_.deadline_expired_total();
  }

  [[nodiscard]] std::string_view name() const override { return "tolerance"; }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    verify::SweepFingerprint fp;
    fp.mix_bytes("tolerance");
    fp.mix_u64(fannet_.net().fingerprint());
    fp.mix_i64(config_.start_range);
    fp.mix_u64(config_.bias_node ? 1 : 0);
    fp.mix_u64(0);  // the retired descent-policy slot: old journals resume
    fp.mix_bytes(config_.engine.name);
    verify::mix_dataset(fp, inputs_, labels_);
    return fp.value();
  }

  [[nodiscard]] std::size_t units() const override { return correct_.size(); }

  [[nodiscard]] verify::SweepRows run_units(std::size_t begin,
                                            std::size_t end) const override {
    const Decide decide = [this](const Query& q) {
      return scheduler_.verify_one(q, engine_);
    };
    verify::SweepRows rows;
    rows.reserve(end - begin);
    for (std::size_t u = begin; u < end; ++u) {
      const std::size_t s = correct_[u];
      const DescentOutcome outcome =
          descend_sample(fannet_, inputs_.row(s), labels_[s],
                         config_.start_range, config_.bias_node, decide);
      // The row counts the descent probes; absorb adds the screen back.
      const auto descent_queries =
          static_cast<std::int64_t>(outcome.queries - 1);
      if (!outcome.min_flip_range.has_value()) {
        rows.push_back({static_cast<std::int64_t>(s), 0, descent_queries});
        continue;
      }
      std::vector<std::int64_t> unit{
          static_cast<std::int64_t>(s), 1, descent_queries,
          *outcome.min_flip_range, outcome.witness->mis_label,
          outcome.witness->bias_delta};
      for (const int delta : outcome.witness->deltas) unit.push_back(delta);
      rows.push_back(std::move(unit));
    }
    return rows;
  }

  void absorb(std::size_t begin, std::size_t end,
              const verify::SweepRows& rows) override {
    if (rows.size() != end - begin) {
      throw Error("tolerance sweep: shard row count does not match its range");
    }
    const std::size_t n = inputs_.cols();
    for (std::size_t u = begin; u < end; ++u) {
      const std::vector<std::int64_t>& unit = rows[u - begin];
      const std::size_t s = correct_[u];
      if (unit.size() < 3 || unit[0] != static_cast<std::int64_t>(s)) {
        throw Error("tolerance sweep: shard row does not fit the campaign");
      }
      report_.queries += 1 + static_cast<std::uint64_t>(unit[2]);
      SampleTolerance& st = report_.per_sample[s];
      if (unit[1] == 0) continue;  // survivor: no flip up to start_range
      if (unit.size() != 6 + n) {
        throw Error("tolerance sweep: malformed vulnerable-sample row");
      }
      st.min_flip_range = static_cast<int>(unit[3]);
      Counterexample cex;
      cex.mis_label = static_cast<int>(unit[4]);
      cex.bias_delta = static_cast<int>(unit[5]);
      cex.deltas.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        cex.deltas.push_back(static_cast<int>(unit[6 + i]));
      }
      st.witness = std::move(cex);
    }
  }

 private:
  const Fannet& fannet_;
  const la::Matrix<i64>& inputs_;
  const std::vector<int>& labels_;
  const ToleranceConfig& config_;
  std::vector<std::size_t> correct_;
  ToleranceReport& report_;
  const verify::Engine& engine_;
  verify::Scheduler scheduler_;  ///< serial dispatch inside one shard
};

}  // namespace

DescentOutcome descend_sample(const Fannet& fannet, std::span<const i64> x,
                              int label, int start_range, bool bias_node,
                              const Decide& decide) {
  DescentOutcome out;
  const std::size_t dims = x.size() + (bias_node ? 1 : 0);
  const auto flips_at = [&](int range) {
    ++out.queries;
    return decide(fannet.make_query(x, label, NoiseBox::symmetric(dims, range),
                                    bias_node));
  };
  VerifyResult r = flips_at(start_range);
  if (r.verdict != Verdict::kVulnerable) return out;
  std::optional<Counterexample> witness = std::move(r.counterexample);
  int lo = 1, hi = start_range;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    r = flips_at(mid);
    if (r.verdict == Verdict::kVulnerable) {
      witness = std::move(r.counterexample);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  out.min_flip_range = lo;
  out.witness = std::move(witness);
  return out;
}

Query Fannet::make_query(std::span<const i64> x, int true_label,
                         const NoiseBox& box, bool bias_node) const {
  Query q;
  q.net = net_;
  q.x.assign(x.begin(), x.end());
  q.true_label = true_label;
  q.box = box;
  q.bias_node = bias_node;
  q.validate();
  return q;
}

std::vector<std::size_t> Fannet::validate_p1(
    const la::Matrix<i64>& inputs, const std::vector<int>& labels) const {
  if (inputs.rows() != labels.size()) {
    throw InvalidArgument("validate_p1: inputs/labels size mismatch");
  }
  std::vector<std::size_t> misclassified;
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    const auto row = inputs.row(s);
    if (net_->classify_noised(row, {}) != labels[s]) {
      misclassified.push_back(s);
    }
  }
  return misclassified;
}

VerifyResult Fannet::check_sample(std::span<const i64> x, int true_label,
                                  int range, Engine engine,
                                  bool bias_node) const {
  const std::size_t dims = x.size() + (bias_node ? 1 : 0);
  return check_sample_box(x, true_label, NoiseBox::symmetric(dims, range),
                          engine, bias_node);
}

VerifyResult Fannet::check_sample_box(std::span<const i64> x, int true_label,
                                      const NoiseBox& box, Engine engine,
                                      bool bias_node) const {
  const Query q = make_query(x, true_label, box, bias_node);
  return verify::cached_verify(verify::global_query_cache(), q,
                               verify::engine(engine.name));
}

ToleranceReport Fannet::analyze_tolerance(const la::Matrix<i64>& inputs,
                                          const std::vector<int>& labels,
                                          const ToleranceConfig& config) const {
  if (config.start_range < 1) {
    throw InvalidArgument("analyze_tolerance: start_range must be >= 1");
  }
  verify::SweepOptions options = config.sweep;
  if (options.threads == 0) options.threads = config.threads;
  if (config.deadline_ms != 0 && !options.journal_path.empty()) {
    // A journaled shard row must mean the same thing on every re-run;
    // deadline-cut rows depend on wall-clock timing and would make a
    // resumed campaign diverge from an uninterrupted one.
    throw InvalidArgument(
        "analyze_tolerance: deadline_ms cannot be combined with a sweep "
        "journal");
  }
  ToleranceReport report;
  const std::vector<std::size_t> bad = validate_p1(inputs, labels);

  report.per_sample.resize(inputs.rows());
  std::vector<std::size_t> correct;  // samples entering the noise analysis
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    SampleTolerance& st = report.per_sample[s];
    st.sample = s;
    st.true_label = labels[s];
    st.correct_without_noise =
        std::find(bad.begin(), bad.end(), s) == bad.end();
    if (st.correct_without_noise) correct.push_back(s);
  }

  // One campaign unit per correct sample (DESIGN.md §9), run serially
  // inside its shard.
  ToleranceCampaign campaign(*this, inputs, labels, config, std::move(correct),
                             report,
                             {.threads = 1,
                              .batch_hint = config.batch,
                              .deadline_ms = config.deadline_ms});
  report.sweep = verify::SweepRunner(options).run(campaign);
  report.deadline_expired = campaign.deadline_expired();

  // Tolerance: largest range with no flip among correct samples.
  int tolerance = config.start_range;
  for (const SampleTolerance& st : report.per_sample) {
    if (st.min_flip_range.has_value()) {
      tolerance = std::min(tolerance, *st.min_flip_range - 1);
    }
  }
  report.noise_tolerance = tolerance;
  return report;
}

std::vector<CorpusEntry> Fannet::extract_corpus(const la::Matrix<i64>& inputs,
                                                const std::vector<int>& labels,
                                                int range,
                                                std::size_t max_per_sample,
                                                bool bias_node,
                                                std::size_t threads) const {
  const std::vector<std::size_t> bad = validate_p1(inputs, labels);
  std::vector<std::size_t> correct;
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    if (std::find(bad.begin(), bad.end(), s) == bad.end()) correct.push_back(s);
  }

  // P3 loop per sample: each new counterexample is blocked and the search
  // resumes — bnb_collect does exactly this by construction (boxes are
  // disjoint).  Samples are independent, so they fan out across workers;
  // indexed slots keep the corpus in deterministic sample order.
  std::vector<std::vector<Counterexample>> per_sample(correct.size());
  const verify::Scheduler scheduler({.threads = threads});
  scheduler.parallel_for(correct.size(), [&](std::size_t i) {
    const std::size_t s = correct[i];
    const auto row = inputs.row(s);
    const std::size_t dims = row.size() + (bias_node ? 1 : 0);
    const Query q = make_query(row, labels[s],
                               NoiseBox::symmetric(dims, range), bias_node);
    per_sample[i] = verify::bnb_collect(q, max_per_sample);
  });

  std::vector<CorpusEntry> corpus;
  for (std::size_t i = 0; i < correct.size(); ++i) {
    for (Counterexample& cex : per_sample[i]) {
      corpus.push_back({correct[i], labels[correct[i]], std::move(cex)});
    }
  }
  return corpus;
}

}  // namespace fannet::core
