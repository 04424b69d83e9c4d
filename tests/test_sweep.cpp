// Tests for the resumable sharded sweep orchestrator (verify/sweep.hpp,
// DESIGN.md §9): runner mechanics on a toy campaign (resume skips
// journaled shards, torn final lines are discarded, duplicates resolve
// last-wins, mismatched journals are rejected) plus end-to-end checks of
// the analyses' campaigns against brute-force references that run no
// engine, scheduler or campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/fannet.hpp"
#include "core/faults.hpp"
#include "nn/network.hpp"
#include "util/error.hpp"
#include "verify/enumerate.hpp"
#include "verify/sweep.hpp"

namespace fannet {
namespace {

using core::ToleranceConfig;
using core::ToleranceReport;
using core::WeightFaultConfig;
using core::WeightFaultReport;
using util::i64;
using verify::SweepCampaign;
using verify::SweepOptions;
using verify::SweepProgress;
using verify::SweepRows;
using verify::SweepRunner;

/// Unique journal path under the system temp dir, removed on destruction.
struct TempJournal {
  explicit TempJournal(const std::string& tag) {
    static std::atomic<unsigned> counter{0};
    path = (std::filesystem::temp_directory_path() /
            ("fannet_sweep_" + tag + "_" + std::to_string(counter++) +
             ".jsonl"))
               .string();
    std::filesystem::remove(path);
  }
  ~TempJournal() { std::filesystem::remove(path); }
  std::string path;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
}

/// Toy campaign: unit u yields the row [u, (u+1)^2 * salt_factor]; the
/// aggregate is the sum of the second column.  Counts executed units so
/// tests can prove journaled shards are never re-executed.
class SquareCampaign final : public SweepCampaign {
 public:
  explicit SquareCampaign(std::size_t units, std::int64_t factor = 1)
      : units_(units), factor_(factor) {}

  [[nodiscard]] std::string_view name() const override { return "square"; }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    verify::SweepFingerprint fp;
    fp.mix_bytes("square");
    fp.mix_u64(units_);
    fp.mix_i64(factor_);
    return fp.value();
  }
  [[nodiscard]] std::size_t units() const override { return units_; }

  [[nodiscard]] SweepRows run_units(std::size_t begin,
                                    std::size_t end) const override {
    SweepRows rows;
    for (std::size_t u = begin; u < end; ++u) {
      const auto v = static_cast<std::int64_t>(u + 1);
      rows.push_back({static_cast<std::int64_t>(u), v * v * factor_});
      executed_units.fetch_add(1);
    }
    return rows;
  }

  void absorb(std::size_t begin, std::size_t end,
              const SweepRows& rows) override {
    ASSERT_EQ(rows.size(), end - begin);
    for (std::size_t u = begin; u < end; ++u) {
      const auto& row = rows[u - begin];
      ASSERT_EQ(row.size(), 2u);
      ASSERT_EQ(row[0], static_cast<std::int64_t>(u));
      sum += row[1];
      ++absorbed_units;
    }
  }

  std::int64_t sum = 0;
  std::size_t absorbed_units = 0;
  mutable std::atomic<std::uint64_t> executed_units{0};

 private:
  std::size_t units_;
  std::int64_t factor_;
};

std::int64_t square_sum(std::size_t units) {
  std::int64_t sum = 0;
  for (std::size_t u = 0; u < units; ++u) {
    const auto v = static_cast<std::int64_t>(u + 1);
    sum += v * v;
  }
  return sum;
}

TEST(SweepRunner, InMemoryRunIsCompleteForAnyShardSizeAndThreads) {
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{3},
                                       std::size_t{7}, std::size_t{100}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SquareCampaign campaign(10);
      const SweepProgress progress =
          SweepRunner({.shard_size = shard_size, .threads = threads})
              .run(campaign);
      EXPECT_TRUE(progress.complete());
      EXPECT_EQ(progress.total_shards, (10 + shard_size - 1) / shard_size);
      EXPECT_EQ(progress.executed_shards, progress.total_shards);
      EXPECT_EQ(progress.resumed_shards, 0u);
      EXPECT_EQ(progress.units_executed, 10u);
      EXPECT_EQ(campaign.sum, square_sum(10));
      EXPECT_EQ(campaign.absorbed_units, 10u);
    }
  }
}

TEST(SweepRunner, HugeShardSizeRunsOneShardWithEveryUnit) {
  // The shard count must not wrap when the shard size is within the unit
  // count of SIZE_MAX (a wrapped count of 0 would run nothing and still
  // report a complete campaign).
  SquareCampaign reference(10);
  (void)SweepRunner({.shard_size = 1}).run(reference);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const std::size_t shard_size : {kMax, kMax - 1}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SquareCampaign campaign(10);
      const SweepProgress progress =
          SweepRunner({.shard_size = shard_size, .threads = threads})
              .run(campaign);
      EXPECT_TRUE(progress.complete());
      EXPECT_EQ(progress.total_shards, 1u);
      EXPECT_EQ(progress.executed_shards, 1u);
      EXPECT_EQ(progress.units_executed, 10u);
      EXPECT_EQ(campaign.executed_units.load(), 10u);
      EXPECT_EQ(campaign.absorbed_units, 10u);
      EXPECT_EQ(campaign.sum, reference.sum);
    }
  }
}

TEST(SweepRunner, ZeroUnitCampaignIsTriviallyComplete) {
  SquareCampaign campaign(0);
  const SweepProgress progress = SweepRunner({.shard_size = 4}).run(campaign);
  EXPECT_TRUE(progress.complete());
  EXPECT_EQ(progress.total_shards, 0u);
  EXPECT_EQ(campaign.sum, 0);
}

TEST(SweepRunner, EmptyJournalResumeEqualsColdRun) {
  TempJournal journal("empty");
  {  // an existing but empty file is a cold start, not an error
    std::ofstream touch(journal.path);
  }
  SquareCampaign campaign(9);
  const SweepProgress progress =
      SweepRunner({.journal_path = journal.path, .shard_size = 2})
          .run(campaign);
  EXPECT_TRUE(progress.complete());
  EXPECT_EQ(progress.resumed_shards, 0u);
  EXPECT_EQ(progress.executed_shards, 5u);
  EXPECT_EQ(progress.journal_skipped, 0u);
  EXPECT_EQ(campaign.sum, square_sum(9));
  // The journal now holds a header plus one line per shard.
  EXPECT_EQ(read_lines(journal.path).size(), 6u);
}

TEST(SweepRunner, ResumeSkipsJournaledShardsAndMatchesColdRun) {
  TempJournal journal("resume");
  SquareCampaign partial(12);
  const SweepProgress first =
      SweepRunner(
          {.journal_path = journal.path, .shard_size = 3, .max_shards = 2})
          .run(partial);
  EXPECT_FALSE(first.complete());
  EXPECT_EQ(first.executed_shards, 2u);
  EXPECT_EQ(first.pending_shards, 2u);
  EXPECT_EQ(partial.executed_units.load(), 6u);
  EXPECT_EQ(partial.absorbed_units, 6u);  // partial aggregate: 2 shards

  SquareCampaign resumed(12);
  const SweepProgress second =
      SweepRunner({.journal_path = journal.path, .shard_size = 3})
          .run(resumed);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.resumed_shards, 2u);
  EXPECT_EQ(second.executed_shards, 2u);
  // The journaled shards were never re-executed...
  EXPECT_EQ(resumed.executed_units.load(), 6u);
  // ...yet the aggregate matches an uninterrupted run exactly.
  EXPECT_EQ(resumed.sum, square_sum(12));
  EXPECT_EQ(resumed.absorbed_units, 12u);
}

TEST(SweepRunner, TornFinalLineIsDiscardedAndReExecuted) {
  TempJournal journal("torn");
  SquareCampaign cold(8);
  (void)SweepRunner({.journal_path = journal.path, .shard_size = 2})
      .run(cold);

  // Simulate a crash mid-append: cut the final line in half.
  std::vector<std::string> lines = read_lines(journal.path);
  ASSERT_EQ(lines.size(), 5u);
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  write_lines(journal.path, lines);

  SquareCampaign resumed(8);
  const SweepProgress progress =
      SweepRunner({.journal_path = journal.path, .shard_size = 2})
          .run(resumed);
  EXPECT_TRUE(progress.complete());
  EXPECT_EQ(progress.journal_skipped, 1u);  // the torn line
  EXPECT_EQ(progress.resumed_shards, 3u);
  EXPECT_EQ(progress.executed_shards, 1u);  // only the torn shard re-runs
  EXPECT_EQ(resumed.executed_units.load(), 2u);
  EXPECT_EQ(resumed.sum, square_sum(8));
}

TEST(SweepRunner, TornLineWithoutNewlineDoesNotGlueTheNextAppend) {
  TempJournal journal("glue");
  SquareCampaign cold(8);
  const SweepProgress first =
      SweepRunner(
          {.journal_path = journal.path, .shard_size = 2, .max_shards = 3})
          .run(cold);
  EXPECT_FALSE(first.complete());

  // Crash mid-append: torn trailing bytes with NO newline.  The resume
  // must start its own records on a fresh line, or the next completed
  // shard's checkpoint is glued onto the torn bytes and lost.
  {
    std::ofstream torn(journal.path, std::ios::app);
    torn << "{\"shard\":3,\"begin\":6,\"end\":8,\"bytes\":1";
  }

  SquareCampaign resumed(8);
  const SweepProgress second =
      SweepRunner({.journal_path = journal.path, .shard_size = 2})
          .run(resumed);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.journal_skipped, 1u);
  EXPECT_EQ(resumed.sum, square_sum(8));

  // Proof the re-executed shard journaled cleanly despite the torn tail: a
  // third run answers everything from the journal.
  SquareCampaign warm(8);
  const SweepProgress third =
      SweepRunner({.journal_path = journal.path, .shard_size = 2})
          .run(warm);
  EXPECT_TRUE(third.complete());
  EXPECT_EQ(third.executed_shards, 0u);
  EXPECT_EQ(warm.executed_units.load(), 0u);
  EXPECT_EQ(warm.sum, square_sum(8));
}

TEST(SweepRunner, DuplicateShardEntriesResolveLastWins) {
  TempJournal journal("dup");
  SquareCampaign cold(3);
  (void)SweepRunner({.journal_path = journal.path, .shard_size = 1})
      .run(cold);

  // Insert a bogus shard-0 entry right after the header: the genuine line
  // appended later in the file must win.
  std::vector<std::string> lines = read_lines(journal.path);
  ASSERT_EQ(lines.size(), 4u);
  lines.insert(lines.begin() + 1,
               "{\"shard\":0,\"begin\":0,\"end\":1,\"bytes\":9,"
               "\"rows\":[[0,999]],\"done\":true}");
  write_lines(journal.path, lines);

  SquareCampaign resumed(3);
  const SweepProgress progress =
      SweepRunner({.journal_path = journal.path, .shard_size = 1})
          .run(resumed);
  EXPECT_TRUE(progress.complete());
  EXPECT_EQ(progress.executed_shards, 0u);
  EXPECT_EQ(resumed.executed_units.load(), 0u);
  EXPECT_EQ(resumed.sum, square_sum(3));  // 999 lost to the later entry
}

TEST(SweepRunner, MismatchedJournalsAreRejectedWithClearErrors) {
  TempJournal journal("mismatch");
  SquareCampaign cold(6);
  (void)SweepRunner({.journal_path = journal.path, .shard_size = 2})
      .run(cold);

  // Different campaign content (fingerprint mismatch).
  SquareCampaign other_factor(6, 2);
  try {
    (void)SweepRunner({.journal_path = journal.path, .shard_size = 2})
        .run(other_factor);
    FAIL() << "fingerprint mismatch was not rejected";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"),
              std::string::npos);
  }

  // Same campaign, different shard size: boundaries no longer line up.
  SquareCampaign other_shards(6);
  try {
    (void)SweepRunner({.journal_path = journal.path, .shard_size = 3})
        .run(other_shards);
    FAIL() << "shard-size mismatch was not rejected";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("--shard-size"),
              std::string::npos);
  }
}

TEST(SweepRunner, ShardEntriesWithoutHeaderAreRejected) {
  TempJournal journal("headerless");
  write_lines(journal.path,
              {"{\"shard\":0,\"begin\":0,\"end\":1,\"bytes\":9,"
               "\"rows\":[[0,999]],\"done\":true}"});
  SquareCampaign campaign(3);
  EXPECT_THROW(
      (void)SweepRunner({.journal_path = journal.path, .shard_size = 1})
          .run(campaign),
      Error);
}

TEST(SweepRunner, MaxShardsChunksDriveTheCampaignToCompletion) {
  TempJournal journal("chunks");
  std::size_t invocations = 0;
  for (;;) {
    SquareCampaign campaign(10);
    const SweepProgress progress =
        SweepRunner({.journal_path = journal.path,
                     .shard_size = 2,
                     .max_shards = 1})
            .run(campaign);
    ++invocations;
    EXPECT_LE(campaign.executed_units.load(), 2u);
    if (progress.complete()) {
      EXPECT_EQ(campaign.sum, square_sum(10));
      break;
    }
  }
  EXPECT_EQ(invocations, 5u);  // one shard per invocation
}

// ---------------------------------------------------------------------------
// End-to-end checks of the analyses' campaigns.  Tolerance and sensitivity
// are compared with brute-force references over the integer noise grid
// (enumerate_stream and the exact evaluator, no engine or scheduler); the
// weight-fault sweeps with the direct in-memory scan.
// ---------------------------------------------------------------------------

nn::QuantizedNetwork tiny_qnet() {
  nn::Layer hidden;
  hidden.weights = la::MatrixD::from_rows({{1.0, -1.0}, {0.5, 0.5}});
  hidden.bias = {0.0, -0.25};
  hidden.activation = nn::Activation::kReLU;
  nn::Layer out;
  out.weights = la::MatrixD::from_rows({{1.0, 0.0}, {0.0, 2.0}});
  out.bias = {0.1, 0.0};
  out.activation = nn::Activation::kLinear;
  return nn::QuantizedNetwork::quantize(nn::Network({hidden, out}), 100);
}

/// A two-column input matrix from (x0, x1) rows.
la::Matrix<i64> matrix_of(const std::vector<std::pair<i64, i64>>& rows) {
  la::Matrix<i64> inputs(rows.size(), 2);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    inputs(s, 0) = rows[s].first;
    inputs(s, 1) = rows[s].second;
  }
  return inputs;
}

la::Matrix<i64> tiny_inputs() {
  return matrix_of({{80, 30}, {20, 90}, {55, 45}});
}

std::vector<int> labels_for(const nn::QuantizedNetwork& net,
                            const la::Matrix<i64>& inputs) {
  std::vector<int> labels;
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    labels.push_back(net.classify_noised(inputs.row(s), {}));
  }
  return labels;
}

/// Every distinct shard layout of a `units`-unit campaign: 0 (the default,
/// one unit per shard), 1 .. units + 1, and SIZE_MAX.
std::vector<std::size_t> every_shard_size(std::size_t units) {
  std::vector<std::size_t> sizes;
  for (std::size_t size = 0; size <= units + 1; ++size) sizes.push_back(size);
  sizes.push_back(std::numeric_limits<std::size_t>::max());
  return sizes;
}

/// Every counterexample of `row` in the symmetric box ±range (no bias
/// node), from the scalar grid walk.
std::vector<verify::Counterexample> all_counterexamples(
    const nn::QuantizedNetwork& net, std::span<const i64> row, int label,
    int range) {
  verify::Query q;
  q.net = &net;
  q.x.assign(row.begin(), row.end());
  q.true_label = label;
  q.box = verify::NoiseBox::symmetric(row.size(), range);
  std::vector<verify::Counterexample> out;
  (void)verify::enumerate_stream(q, [&](const verify::Counterexample& cex) {
    out.push_back(cex);
    return true;
  });
  return out;
}

/// Brute-force tolerance reference (binary descent, no bias node): per
/// P1-correct sample, the minimal flip range is the smallest R <=
/// start_range whose grid holds a counterexample, i.e. the least L-inf
/// norm of any counterexample at start_range; the witness is the
/// lexicographically lowest noise vector in ±R.  `queries` counts one
/// screen per correct sample plus the binary descent's probes replayed
/// against that R.
ToleranceReport tolerance_oracle(const nn::QuantizedNetwork& net,
                                 const la::Matrix<i64>& inputs,
                                 const std::vector<int>& labels,
                                 int start_range) {
  ToleranceReport report;
  report.noise_tolerance = start_range;
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    core::SampleTolerance st;
    st.sample = s;
    st.true_label = labels[s];
    st.correct_without_noise =
        net.classify_noised(inputs.row(s), {}) == labels[s];
    if (st.correct_without_noise) {
      ++report.queries;  // the start-range screen
      const auto cexs =
          all_counterexamples(net, inputs.row(s), labels[s], start_range);
      const auto norm = [](const verify::Counterexample& cex) {
        int m = 0;
        for (const int d : cex.deltas) m = std::max(m, std::abs(d));
        return m;
      };
      for (const verify::Counterexample& cex : cexs) {
        if (!st.min_flip_range || norm(cex) < *st.min_flip_range) {
          st.min_flip_range = norm(cex);
        }
      }
      if (st.min_flip_range) {
        for (const verify::Counterexample& cex : cexs) {
          if (norm(cex) <= *st.min_flip_range &&
              (!st.witness || cex.deltas < st.witness->deltas)) {
            st.witness = cex;
          }
        }
        int lo = 1, hi = start_range;
        while (lo < hi) {
          const int mid = lo + (hi - lo) / 2;
          ++report.queries;
          if (mid >= *st.min_flip_range) hi = mid; else lo = mid + 1;
        }
        report.noise_tolerance =
            std::min(report.noise_tolerance, *st.min_flip_range - 1);
      }
    }
    report.per_sample.push_back(std::move(st));
  }
  return report;
}

void expect_same_tolerance(const ToleranceReport& a, const ToleranceReport& b) {
  EXPECT_EQ(a.noise_tolerance, b.noise_tolerance);
  EXPECT_EQ(a.queries, b.queries);
  ASSERT_EQ(a.per_sample.size(), b.per_sample.size());
  for (std::size_t i = 0; i < a.per_sample.size(); ++i) {
    EXPECT_EQ(a.per_sample[i].correct_without_noise,
              b.per_sample[i].correct_without_noise);
    EXPECT_EQ(a.per_sample[i].min_flip_range, b.per_sample[i].min_flip_range);
    EXPECT_EQ(a.per_sample[i].witness, b.per_sample[i].witness);
  }
}

TEST(SweepAnalyses, ToleranceSweepMatchesBatchPathAndResumes) {
  // Reference: tolerance_oracle, a brute-force walk of the integer grid.
  const nn::QuantizedNetwork net = tiny_qnet();
  const core::Fannet fannet(net);
  // tiny_inputs (one sample flips at ±1, two survive ±30), two samples
  // whose minimal flip ranges lie mid-grid, and one mislabeled sample the
  // P1 check must exclude.
  const la::Matrix<i64> inputs = matrix_of(
      {{80, 30}, {20, 90}, {55, 45}, {10, 40}, {10, 60}, {30, 40}});
  std::vector<int> labels = labels_for(net, inputs);
  labels[5] = 1 - labels[5];
  constexpr int kStart = 30;
  const ToleranceReport oracle =
      tolerance_oracle(net, inputs, labels, kStart);
  ASSERT_FALSE(oracle.per_sample[5].correct_without_noise);
  ASSERT_GT(oracle.per_sample[3].min_flip_range.value_or(0), 1);
  ASSERT_GT(oracle.per_sample[4].min_flip_range.value_or(0), 1);

  ToleranceConfig base;
  base.start_range = kStart;
  std::size_t units = 0;  // one per correct sample
  for (const core::SampleTolerance& st : oracle.per_sample) {
    units += st.correct_without_noise ? 1 : 0;
  }
  for (const std::size_t shard_size : every_shard_size(units)) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      ToleranceConfig config = base;
      config.sweep = SweepOptions{.shard_size = shard_size, .threads = threads};
      const ToleranceReport swept =
          fannet.analyze_tolerance(inputs, labels, config);
      EXPECT_TRUE(swept.sweep.complete());
      EXPECT_EQ(swept.sweep.units_executed, units);
      expect_same_tolerance(oracle, swept);
    }
  }

  // Kill/resume cycle through the journal.
  TempJournal journal("tolerance");
  ToleranceConfig partial = base;
  partial.sweep = SweepOptions{.journal_path = journal.path, .max_shards = 1};
  const ToleranceReport first =
      fannet.analyze_tolerance(inputs, labels, partial);
  EXPECT_FALSE(first.sweep.complete());

  ToleranceConfig rest = base;
  rest.sweep = SweepOptions{.journal_path = journal.path};
  const ToleranceReport resumed =
      fannet.analyze_tolerance(inputs, labels, rest);
  EXPECT_TRUE(resumed.sweep.complete());
  EXPECT_EQ(resumed.sweep.resumed_shards, 1u);
  expect_same_tolerance(oracle, resumed);
}

/// Brute-force sensitivity reference: a direction of node i is possible
/// when some correct sample has a counterexample in ±range with delta_i
/// strictly of that sign (the other nodes anywhere in ±range); the solo
/// range of node i is the least |delta| <= range that flips some correct
/// sample with only node i noised.
core::NodeSensitivityReport sensitivity_oracle(
    const nn::QuantizedNetwork& net, const la::Matrix<i64>& inputs,
    const std::vector<int>& labels, int range) {
  const std::size_t n = inputs.cols();
  core::NodeSensitivityReport report;
  report.positive_possible.assign(n, false);
  report.negative_possible.assign(n, false);
  report.solo_flip_range.assign(n, std::nullopt);
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    const auto row = inputs.row(s);
    if (net.classify_noised(row, {}) != labels[s]) continue;
    for (const verify::Counterexample& cex :
         all_counterexamples(net, row, labels[s], range)) {
      for (std::size_t i = 0; i < n; ++i) {
        if (cex.deltas[i] > 0) report.positive_possible[i] = true;
        if (cex.deltas[i] < 0) report.negative_possible[i] = true;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<int> deltas(n, 0);
      for (int magnitude = 1; magnitude <= range; ++magnitude) {
        deltas[i] = magnitude;
        const bool up = net.classify_noised(row, deltas) != labels[s];
        deltas[i] = -magnitude;
        const bool down = net.classify_noised(row, deltas) != labels[s];
        if (up || down) {
          std::optional<int>& best = report.solo_flip_range[i];
          if (!best || magnitude < *best) best = magnitude;
          break;
        }
      }
    }
  }
  return report;
}

void expect_same_probes(const core::NodeSensitivityReport& a,
                        const core::NodeSensitivityReport& b) {
  EXPECT_EQ(a.positive_possible, b.positive_possible);
  EXPECT_EQ(a.negative_possible, b.negative_possible);
  EXPECT_EQ(a.solo_flip_range, b.solo_flip_range);
}

TEST(SweepAnalyses, SensitivitySweepMatchesBatchPath) {
  // Reference: sensitivity_oracle, a brute-force walk of the integer grid.
  const nn::QuantizedNetwork net = tiny_qnet();
  const core::Fannet fannet(net);
  // A survivor first; node 0 can flip a sample only with positive noise
  // from the last correct sample; node 1 flips alone only from -17 (so the
  // solo bisection must tighten the full-range witness); the mislabeled
  // last sample (which would flip node 1 at +1) must be excluded by P1.
  const la::Matrix<i64> inputs =
      matrix_of({{55, 45}, {30, 40}, {20, 50}, {10, 60}, {80, 30}});
  std::vector<int> labels = labels_for(net, inputs);
  labels[4] = 1 - labels[4];
  constexpr int kRange = 20;
  const core::NodeSensitivityReport oracle =
      sensitivity_oracle(net, inputs, labels, kRange);
  ASSERT_EQ(oracle.positive_possible, (std::vector<bool>{true, false}));
  ASSERT_EQ(oracle.negative_possible, (std::vector<bool>{true, true}));
  ASSERT_EQ(oracle.solo_flip_range,
            (std::vector<std::optional<int>>{std::nullopt, 17}));

  // One corpus entry so the histograms are checked to stay outside the
  // campaign.
  std::vector<core::CorpusEntry> corpus(1);
  corpus[0].cex.deltas = {3, -2};
  std::size_t correct = 0;
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    correct += net.classify_noised(inputs.row(s), {}) == labels[s] ? 1 : 0;
  }
  // 2 directional units per node, then one solo unit per (node, sample).
  const std::size_t units = 2 * inputs.cols() + inputs.cols() * correct;
  for (const std::size_t shard_size : every_shard_size(units)) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      core::SensitivityConfig config;
      config.sweep = SweepOptions{.shard_size = shard_size, .threads = threads};
      const core::NodeSensitivityReport swept = core::analyze_sensitivity(
          fannet, inputs, labels, kRange, corpus, config);
      EXPECT_TRUE(swept.sweep.complete());
      EXPECT_EQ(swept.sweep.units_executed, units);
      expect_same_probes(oracle, swept);
      EXPECT_EQ(swept.positive, (std::vector<std::uint64_t>{1, 0}));
      EXPECT_EQ(swept.negative, (std::vector<std::uint64_t>{0, 1}));
    }
  }

  // Kill/resume cycle through the journal.
  TempJournal journal("sensitivity");
  core::SensitivityConfig partial;
  partial.sweep = SweepOptions{.journal_path = journal.path,
                               .shard_size = 3,
                               .max_shards = 2};
  const core::NodeSensitivityReport first =
      core::analyze_sensitivity(fannet, inputs, labels, kRange, {}, partial);
  EXPECT_FALSE(first.sweep.complete());

  core::SensitivityConfig rest;
  rest.sweep = SweepOptions{.journal_path = journal.path, .shard_size = 3};
  const core::NodeSensitivityReport resumed =
      core::analyze_sensitivity(fannet, inputs, labels, kRange, {}, rest);
  EXPECT_TRUE(resumed.sweep.complete());
  EXPECT_EQ(resumed.sweep.resumed_shards, 2u);
  expect_same_probes(oracle, resumed);
}

void expect_same_weight_faults(const WeightFaultReport& a,
                               const WeightFaultReport& b) {
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.robust_weights, b.robust_weights);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.layer_evaluations, b.layer_evaluations);
  EXPECT_EQ(a.undecided_candidates, b.undecided_candidates);
  EXPECT_EQ(a.model, b.model);
}

TEST(SweepAnalyses, WeightFaultSweepMatchesDirectScanAndResumes) {
  const nn::QuantizedNetwork net = tiny_qnet();
  const la::Matrix<i64> inputs = tiny_inputs();
  const std::vector<int> labels = labels_for(net, inputs);

  // Reference: the direct in-memory scan on one thread.  Every run below
  // changes only how the campaign is sharded, threaded or journaled, so
  // it must reproduce the reference exactly, counters included.
  const WeightFaultConfig direct_config{
      .max_percent = 40, .step = 1, .threads = 1};
  const WeightFaultReport direct =
      core::analyze_weight_faults(net, inputs, labels, direct_config);

  for (const std::size_t shard_size : {std::size_t{0}, std::size_t{5}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      WeightFaultConfig config = direct_config;
      config.sweep = SweepOptions{.shard_size = shard_size, .threads = threads};
      const WeightFaultReport swept =
          core::analyze_weight_faults(net, inputs, labels, config);
      EXPECT_TRUE(swept.sweep.complete());
      expect_same_weight_faults(direct, swept);
    }
  }

  TempJournal journal("faults");
  WeightFaultConfig partial = direct_config;
  partial.sweep = SweepOptions{.journal_path = journal.path,
                               .shard_size = 4,
                               .max_shards = 2};
  const WeightFaultReport first =
      core::analyze_weight_faults(net, inputs, labels, partial);
  EXPECT_FALSE(first.sweep.complete());
  EXPECT_EQ(first.sweep.units_executed, 8u);

  WeightFaultConfig rest = direct_config;
  rest.sweep = SweepOptions{.journal_path = journal.path, .shard_size = 4};
  const WeightFaultReport resumed =
      core::analyze_weight_faults(net, inputs, labels, rest);
  EXPECT_TRUE(resumed.sweep.complete());
  EXPECT_EQ(resumed.sweep.resumed_shards, 2u);
  EXPECT_EQ(resumed.sweep.units_executed, direct.faults.size() - 8u);
  expect_same_weight_faults(direct, resumed);
}

TEST(SweepAnalyses, JournalFromDifferentGridOrNetworkIsRejected) {
  const nn::QuantizedNetwork net = tiny_qnet();
  const la::Matrix<i64> inputs = tiny_inputs();
  const std::vector<int> labels = labels_for(net, inputs);

  TempJournal journal("grid");
  WeightFaultConfig config{.max_percent = 20, .step = 1, .threads = 1};
  config.sweep = SweepOptions{.journal_path = journal.path};
  (void)core::analyze_weight_faults(net, inputs, labels, config);

  // Same journal, different scan grid: rejected, not silently mixed.
  WeightFaultConfig wider = config;
  wider.max_percent = 30;
  try {
    (void)core::analyze_weight_faults(net, inputs, labels, wider);
    FAIL() << "grid mismatch was not rejected";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"),
              std::string::npos);
  }

  // Same journal, different network: rejected too.
  nn::Layer hidden;
  hidden.weights = la::MatrixD::from_rows({{1.0, -1.0}, {0.5, 0.75}});
  hidden.bias = {0.0, -0.25};
  hidden.activation = nn::Activation::kReLU;
  nn::Layer out;
  out.weights = la::MatrixD::from_rows({{1.0, 0.0}, {0.0, 2.0}});
  out.bias = {0.1, 0.0};
  out.activation = nn::Activation::kLinear;
  const nn::QuantizedNetwork other =
      nn::QuantizedNetwork::quantize(nn::Network({hidden, out}), 100);
  EXPECT_THROW(
      (void)core::analyze_weight_faults(other, inputs, labels_for(other, inputs),
                                        config),
      Error);
}

}  // namespace
}  // namespace fannet
