#include "core/faults.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "core/report.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"

namespace fannet::core {

using util::i64;
using util::u64;

std::string_view fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::kPercentScale: return "percent";
    case FaultModel::kStuckAtZero: return "stuck-at-zero";
    case FaultModel::kSignFlip: return "sign-flip";
    case FaultModel::kBitFlip: return "bit-flip";
  }
  throw InvalidArgument("fault_model_name: unknown model");
}

std::optional<FaultModel> fault_model_from_name(std::string_view name) {
  for (const FaultModel m :
       {FaultModel::kPercentScale, FaultModel::kStuckAtZero,
        FaultModel::kSignFlip, FaultModel::kBitFlip}) {
    if (name == fault_model_name(m)) return m;
  }
  return std::nullopt;
}

namespace {

/// One injectable parameter value, in scan order (least severe first so the
/// first flip found is the minimal one).
struct FaultCandidate {
  int severity = 0;  ///< model units (percent magnitude / bit index / 0)
  int sign = 0;      ///< +1/-1 for kPercentScale, 0 otherwise
  /// The faulted raw fixed-point value; nullopt when computing it already
  /// left int64 (e.g. sign-flipping INT64_MIN, percent-scaling near the
  /// edge) — counted as undecided like any other out-of-range candidate.
  std::optional<i64> raw;
};

/// `compute` evaluated with overflow mapped to "undecidable candidate".
std::optional<i64> faulted_raw_or_undecided(const auto& compute) {
  try {
    return compute();
  } catch (const ArithmeticError&) {
    return std::nullopt;
  }
}

std::vector<FaultCandidate> fault_candidates(const WeightFaultConfig& config,
                                             i64 original) {
  std::vector<FaultCandidate> out;
  switch (config.model) {
    case FaultModel::kPercentScale:
      for (int magnitude = config.step; magnitude <= config.max_percent;
           magnitude += config.step) {
        for (const int sign : {+1, -1}) {
          out.push_back({magnitude, sign, faulted_raw_or_undecided([&] {
                           return nn::scaled_param_raw(original,
                                                       sign * magnitude);
                         })});
        }
      }
      break;
    case FaultModel::kStuckAtZero:
      out.push_back({0, 0, 0});
      break;
    case FaultModel::kSignFlip:
      out.push_back({0, 0, faulted_raw_or_undecided([&] {
                       return util::checked_sub(0, original);
                     })});
      break;
    case FaultModel::kBitFlip:
      // Low bits first: a low-order flip is the least severe corruption, so
      // the first hit is the minimal one, mirroring the percent scan.
      for (int bit = 0; bit < 64; ++bit) {
        const u64 flipped = static_cast<u64>(original) ^ (u64{1} << bit);
        out.push_back({bit, 0, static_cast<i64>(flipped)});
      }
      break;
  }
  return out;
}

/// Cost counters accumulated by one parameter's candidate scan.
struct ParamScanCounters {
  std::uint64_t evaluations = 0;
  std::uint64_t layer_evaluations = 0;
  std::uint64_t undecided = 0;
};

/// One parameter's candidate scan, i.e. one campaign unit: fills `fault`'s
/// flip fields (if any candidate flips a correct sample) and accumulates
/// the cost counters.  `prefix` selects the incremental engine; null falls
/// back to the naive per-task patched copy of `net`.
void scan_parameter(const nn::QuantizedNetwork& net,
                    const la::Matrix<i64>& inputs,
                    const std::vector<int>& labels,
                    const WeightFaultConfig& config,
                    const std::vector<std::size_t>& correct,
                    const nn::PrefixEvaluator* prefix, WeightFault& fault,
                    ParamScanCounters& counters) {
  const std::size_t depth = net.depth();
  const nn::QLayer& layer = net.layers()[fault.layer];
  const std::size_t col = fault.is_bias() ? layer.in_dim() : fault.col;
  const i64 original = net.param_raw(fault.layer, fault.row, col);
  const std::vector<FaultCandidate> candidates =
      fault_candidates(config, original);

  // Incremental: per-call scratch over the shared read-only memo.
  // Naive: one private working copy per parameter, patched in place per
  // candidate (patch/restore — never a whole-network copy per candidate).
  nn::PrefixEvaluator::Scratch scratch;
  std::optional<nn::QuantizedNetwork> naive_net;
  if (prefix == nullptr) naive_net.emplace(net);

  // Candidates are in ascending-severity order, so the first hit is the
  // minimal one.
  for (const FaultCandidate& candidate : candidates) {
    if (fault.min_flip_percent) break;
    if (!candidate.raw) {
      ++counters.undecided;
      continue;
    }
    // A no-op candidate (the faulted value equals the stored one, e.g.
    // percent-scaling or stuck-at-zero on a zero weight) leaves the
    // network bit-identical, so it can never flip a correctly-classified
    // sample — skip the evaluation pass.  Both engines skip identically.
    if (*candidate.raw == original) continue;
    std::optional<nn::ScopedParamPatch> patch;
    if (naive_net) {
      patch.emplace(*naive_net, fault.layer, fault.row, col, *candidate.raw);
    }
    bool undecidable = false;
    for (const std::size_t s : correct) {
      ++counters.evaluations;
      counters.layer_evaluations += prefix ? (depth - fault.layer) : depth;
      int cls = 0;
      try {
        cls = prefix ? prefix->classify_patched(s, fault.layer, fault.row,
                                                col, *candidate.raw, scratch)
                     : naive_net->classify_noised(inputs.row(s), {});
      } catch (const ArithmeticError&) {
        // The faulted value pushed an exact accumulation out of int64
        // (possible for high-order bit flips).  Identical in both
        // engines: skip the candidate, never guess.
        undecidable = true;
        break;
      }
      if (cls != labels[s]) {
        fault.min_flip_percent = candidate.severity;
        fault.flip_sign = candidate.sign;
        fault.flipped_sample = s;
        fault.flipped_raw = *candidate.raw;
        break;
      }
    }
    if (undecidable) ++counters.undecided;
  }
}

/// Sweep decomposition of analyze_weight_faults (DESIGN.md §9): one work
/// unit per parameter, in the report's scan order.  Unit rows:
///
///   [index, has_flip(0/1), severity, sign, flipped_sample, flipped_raw,
///    evaluations, layer_evaluations, undecided]
class WeightFaultCampaign final : public verify::SweepCampaign {
 public:
  WeightFaultCampaign(const nn::QuantizedNetwork& net,
                      const la::Matrix<i64>& inputs,
                      const std::vector<int>& labels,
                      const WeightFaultConfig& config,
                      std::vector<std::size_t> correct,
                      const nn::PrefixEvaluator* prefix,
                      WeightFaultReport& report)
      : net_(net),
        inputs_(inputs),
        labels_(labels),
        config_(config),
        correct_(std::move(correct)),
        prefix_(prefix),
        report_(report) {}

  [[nodiscard]] std::string_view name() const override {
    return "weight-faults";
  }

  [[nodiscard]] std::uint64_t fingerprint() const override {
    verify::SweepFingerprint fp;
    fp.mix_bytes("weight-faults");
    fp.mix_u64(net_.fingerprint());
    fp.mix_i64(config_.max_percent);
    fp.mix_i64(config_.step);
    fp.mix_u64(static_cast<std::uint64_t>(config_.model));
    fp.mix_u64(static_cast<std::uint64_t>(config_.scan));
    verify::mix_dataset(fp, inputs_, labels_);
    return fp.value();
  }

  [[nodiscard]] std::size_t units() const override {
    return report_.faults.size();
  }

  [[nodiscard]] verify::SweepRows run_units(std::size_t begin,
                                            std::size_t end) const override {
    verify::SweepRows rows;
    rows.reserve(end - begin);
    for (std::size_t u = begin; u < end; ++u) {
      // Scan into a private copy of the skeleton entry: results reach the
      // report only through absorb, journaled and fresh shards alike.
      WeightFault fault = report_.faults[u];
      ParamScanCounters counters;
      scan_parameter(net_, inputs_, labels_, config_, correct_, prefix_,
                     fault, counters);
      rows.push_back({static_cast<std::int64_t>(u),
                      fault.min_flip_percent ? 1 : 0,
                      fault.min_flip_percent ? *fault.min_flip_percent : 0,
                      fault.flip_sign,
                      static_cast<std::int64_t>(fault.flipped_sample),
                      fault.flipped_raw,
                      static_cast<std::int64_t>(counters.evaluations),
                      static_cast<std::int64_t>(counters.layer_evaluations),
                      static_cast<std::int64_t>(counters.undecided)});
    }
    return rows;
  }

  void absorb(std::size_t begin, std::size_t end,
              const verify::SweepRows& rows) override {
    if (rows.size() != end - begin) {
      throw Error(
          "weight-fault sweep: shard row count does not match its range");
    }
    for (std::size_t u = begin; u < end; ++u) {
      const std::vector<std::int64_t>& unit = rows[u - begin];
      if (unit.size() != 9 || unit[0] != static_cast<std::int64_t>(u)) {
        throw Error("weight-fault sweep: shard row does not fit the campaign");
      }
      WeightFault& fault = report_.faults[u];
      if (unit[1] != 0) {
        fault.min_flip_percent = static_cast<int>(unit[2]);
        fault.flip_sign = static_cast<int>(unit[3]);
        fault.flipped_sample = static_cast<std::size_t>(unit[4]);
        fault.flipped_raw = unit[5];
      } else {
        ++report_.robust_weights;
      }
      report_.evaluations += static_cast<std::uint64_t>(unit[6]);
      report_.layer_evaluations += static_cast<std::uint64_t>(unit[7]);
      report_.undecided_candidates += static_cast<std::uint64_t>(unit[8]);
    }
  }

 private:
  const nn::QuantizedNetwork& net_;
  const la::Matrix<i64>& inputs_;
  const std::vector<int>& labels_;
  const WeightFaultConfig& config_;
  std::vector<std::size_t> correct_;
  const nn::PrefixEvaluator* prefix_;
  WeightFaultReport& report_;
};

}  // namespace

WeightFaultReport analyze_weight_faults(const nn::QuantizedNetwork& net,
                                        const la::Matrix<i64>& inputs,
                                        const std::vector<int>& labels,
                                        const WeightFaultConfig& config) {
  if (inputs.rows() != labels.size()) {
    throw InvalidArgument("analyze_weight_faults: inputs/labels mismatch");
  }
  if (config.max_percent < 1 || config.step < 1) {
    throw InvalidArgument("analyze_weight_faults: bad scan parameters");
  }

  // The incremental engine memoizes one noise-free forward pass per sample
  // (every candidate below re-evaluates only the faulted layer and its
  // suffix); the naive engine keeps no state and rescans from layer 0.
  std::optional<nn::PrefixEvaluator> prefix;
  if (config.scan == FaultScan::kIncremental) prefix.emplace(net, inputs);

  // Only correctly-classified samples count (as in the noise analyses).
  // PrefixEvaluator::base_class is the memoized value of the same
  // classification, so the filter is engine-independent.
  std::vector<std::size_t> correct;
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    const int cls = prefix ? prefix->base_class(s)
                           : net.classify_noised(inputs.row(s), {});
    if (cls == labels[s]) correct.push_back(s);
  }

  // The report skeleton, one entry per parameter in scan order.  Each
  // entry is one campaign unit (DESIGN.md §9), filled only through absorb
  // in ascending order, so the report is identical for every thread count
  // and shard size, and a killed journaled scan resumes instead of
  // rescanning.
  WeightFaultReport report;
  report.model = config.model;
  for (std::size_t li = 0; li < net.depth(); ++li) {
    const nn::QLayer& layer = net.layers()[li];
    for (std::size_t row = 0; row < layer.out_dim(); ++row) {
      for (std::size_t col = 0; col <= layer.in_dim(); ++col) {
        WeightFault fault;
        fault.layer = li;
        fault.row = row;
        fault.col = (col == layer.in_dim()) ? kBiasCol : col;
        report.faults.push_back(fault);
      }
    }
  }

  WeightFaultCampaign campaign(net, inputs, labels, config, std::move(correct),
                               prefix ? &*prefix : nullptr, report);
  verify::SweepOptions options = config.sweep;
  if (options.threads == 0) options.threads = config.threads;
  report.sweep = verify::SweepRunner(options).run(campaign);
  return report;
}

std::vector<WeightFault> most_fragile_weights(const WeightFaultReport& report,
                                              std::size_t count) {
  std::vector<WeightFault> fragile;
  for (const WeightFault& f : report.faults) {
    if (f.min_flip_percent) fragile.push_back(f);
  }
  std::stable_sort(fragile.begin(), fragile.end(),
                   [](const WeightFault& a, const WeightFault& b) {
                     return *a.min_flip_percent < *b.min_flip_percent;
                   });
  if (fragile.size() > count) fragile.resize(count);
  return fragile;
}

namespace {

std::string severity_cell(const WeightFaultReport& report,
                          const WeightFault& f) {
  switch (report.model) {
    case FaultModel::kPercentScale:
      return "+/-" + std::to_string(*f.min_flip_percent) + "%";
    case FaultModel::kStuckAtZero: return "stuck@0";
    case FaultModel::kSignFlip: return "sign";
    case FaultModel::kBitFlip:
      return "bit " + std::to_string(*f.min_flip_percent);
  }
  return "?";
}

std::string direction_cell(const WeightFaultReport& report,
                           const WeightFault& f) {
  if (report.model == FaultModel::kPercentScale) {
    return f.flip_sign > 0 ? "+" : "-";
  }
  return "raw=" + std::to_string(f.flipped_raw);
}

}  // namespace

std::string format_weight_faults(const WeightFaultReport& report,
                                 std::size_t top_count) {
  TextTable t({"rank", "parameter", "min fault", "direction", "sample"});
  const auto fragile = most_fragile_weights(report, top_count);
  for (std::size_t i = 0; i < fragile.size(); ++i) {
    const WeightFault& f = fragile[i];
    std::ostringstream name;
    name << "L" << f.layer << "[" << f.row << "]";
    if (f.is_bias()) name << ".bias";
    else name << "[" << f.col << "]";
    t.add_row({std::to_string(i + 1), name.str(), severity_cell(report, f),
               direction_cell(report, f), std::to_string(f.flipped_sample)});
  }
  std::ostringstream out;
  out << "fault model: " << fault_model_name(report.model) << "\n";
  out << t.to_string();
  out << "Parameters that never flip within the scanned range: "
      << report.robust_weights << "/" << report.faults.size() << "  ("
      << report.evaluations << " exact evaluations, "
      << report.layer_evaluations << " layer evaluations)\n";
  if (report.undecided_candidates > 0) {
    out << "Candidates beyond the exact int64 range (skipped): "
        << report.undecided_candidates << "\n";
  }
  return out.str();
}

}  // namespace fannet::core
