/// \file
/// \brief Resumable sharded sweep orchestrator (DESIGN.md §9).
///
/// Every headline FANNet result is a *sweep*: the Fig. 4 tolerance grid,
/// the per-node sensitivity probes, the weight-fault scan — thousands of
/// independent work units whose aggregate is a report.  Run monolithically,
/// an interrupted multi-hour campaign restarts from zero.  `SweepRunner`
/// fixes that layer: a campaign is decomposed into a deterministic,
/// stably-ordered list of *shards* (consecutive unit ranges), each executed
/// shard's result is journaled to an append-only JSON-lines checkpoint
/// file, and a restarted run skips every journaled shard and re-executes
/// only the rest.  The final aggregated report is bit-identical to an
/// uninterrupted run at any thread count, because
///
///   - shard boundaries depend only on (unit count, shard size), never on
///     timing;
///   - each unit's result is deterministic (engines are exact and
///     deterministic, DESIGN.md §2), so a shard payload is a pure function
///     of the campaign configuration.  Shard dispatches inherit the
///     resumable task substrate (DESIGN.md §12) via Scheduler::verify_one,
///     but never under a wall-clock deadline when journaled: the analyses
///     reject `deadline_ms` together with a journal so journaled rows stay
///     time-independent;
///   - aggregation (`SweepCampaign::absorb`) runs single-threaded in
///     ascending shard order after all execution, regardless of the
///     completion order the journal happens to record.
///
/// Crash tolerance: a shard line is only trusted if it carries its exact
/// payload byte count and the closing `,"done":true}` marker, so a torn
/// final line from a killed run is detected and discarded on load (the
/// shard simply re-executes).  Duplicate shard entries resolve last-wins,
/// which also makes journals from disjoint `--max-shards` chunks safely
/// concatenable.  A journal whose header does not match the campaign
/// (different network fingerprint, grid, or shard size) is rejected with a
/// clear error instead of silently mixing results.
///
/// Every analysis (tolerance, sensitivity, weight faults) runs as its
/// campaign through this runner — it is their only fan-out.  Their config
/// structs carry the options (`core::ToleranceConfig::sweep` etc.): the
/// default runs in memory, a journal path is the opt-in to checkpointing.
/// `fannet_cli sweep` exposes the whole surface from the shell
/// (docs/cli.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "la/matrix.hpp"

namespace fannet::verify {

/// One shard's payload: a list of integer rows, one row per work unit (the
/// campaign defines the row layout).  Integers round-trip the journal
/// exactly, so a resumed aggregate is bit-identical to a fresh one.
using SweepRows = std::vector<std::vector<std::int64_t>>;

/// A sweep campaign: a fixed, stably-ordered list of independent work
/// units plus the fold that turns unit results back into a report.
/// Implementations live next to the analyses they decompose
/// (`core/fannet.cpp`, `core/analysis.cpp`, `core/faults.cpp`).
class SweepCampaign {
 public:
  virtual ~SweepCampaign() = default;

  /// Stable campaign identifier, recorded in the journal header
  /// (e.g. "tolerance").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Content fingerprint over everything the unit results depend on —
  /// network fingerprint, analysis configuration, input data — but *not*
  /// thread counts or journal paths.  A journal written under a different
  /// fingerprint is rejected on load.
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;

  /// Total number of work units in the campaign.
  [[nodiscard]] virtual std::size_t units() const = 0;

  /// Executes units [begin, end) serially in index order and returns one
  /// row per unit.  Called concurrently for disjoint ranges; must be
  /// thread-safe across them.  Each row must be a pure function of the
  /// campaign configuration (no timing, no shared mutable state).
  [[nodiscard]] virtual SweepRows run_units(std::size_t begin,
                                            std::size_t end) const = 0;

  /// Folds one completed shard back into the campaign's report.  Called on
  /// the runner's thread in ascending shard order, for journaled and
  /// freshly executed shards alike, with exactly the rows `run_units`
  /// produced for [begin, end).  Throws util::Error on rows that do not
  /// fit the campaign's layout (a corrupt journal that still parsed).
  virtual void absorb(std::size_t begin, std::size_t end,
                      const SweepRows& rows) = 0;
};

/// Orchestration knobs; every analysis config embeds one.
struct SweepOptions {
  /// Append-only JSON-lines checkpoint file.  Empty runs the sweep
  /// in-memory (sharded execution, no checkpointing).  A nonexistent or
  /// empty file is a cold start; an existing journal is resumed.
  std::string journal_path = {};
  /// Work units per shard (the checkpoint granularity).  0 means 1.  A
  /// journal remembers its shard size; resuming with a different one is
  /// rejected (shard boundaries would no longer line up).
  std::size_t shard_size = 0;
  /// Executes at most this many shards in this invocation (0 = no cap),
  /// then returns with `SweepProgress::pending_shards` > 0.  This is the
  /// chunking knob for splitting one campaign across process invocations
  /// or machines: run a capped chunk per invocation against the same
  /// journal (or concatenate per-machine journals) until none are pending.
  std::size_t max_shards = 0;
  /// Worker threads for the shard fan-out (0 = hardware concurrency).
  /// Results are identical for every thread count.
  std::size_t threads = 0;
};

/// What one `SweepRunner::run` invocation did.  Reports embed this so
/// callers can tell a complete aggregate from a capped partial one.
struct SweepProgress {
  std::size_t total_shards = 0;
  std::size_t executed_shards = 0;  ///< shards run by this invocation
  std::size_t resumed_shards = 0;   ///< shards answered by the journal
  std::size_t pending_shards = 0;   ///< shards left for a later invocation
  /// Work units actually evaluated this invocation (the re-execution
  /// counter: journaled units never appear here).
  std::uint64_t units_executed = 0;
  /// Torn or malformed journal lines discarded on load (a crash mid-append
  /// leaves at most one).
  std::size_t journal_skipped = 0;
  double wall_ms = 0.0;

  /// True when every shard has been absorbed — the aggregate is the full
  /// campaign result, bit-identical to an uninterrupted run.
  [[nodiscard]] bool complete() const noexcept { return pending_shards == 0; }
};

/// Executes a campaign under the options: plans shards, loads/validates
/// the journal, runs un-journaled shards across the thread pool (capped by
/// `max_shards`), appends each completed shard to the journal, then
/// absorbs every completed shard in ascending order.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs (or resumes) `campaign`; throws util::Error on a journal that
  /// cannot be opened or that belongs to a different campaign.
  SweepProgress run(SweepCampaign& campaign) const;

 private:
  SweepOptions options_;
};

/// FNV-1a accumulator for campaign fingerprints, mixing fixed-width
/// little-endian words so fingerprints are stable across platforms (the
/// same discipline as nn::QuantizedNetwork::fingerprint and the query
/// cache's canonical keys).
class SweepFingerprint {
 public:
  void mix_u64(std::uint64_t v) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void mix_i64(std::int64_t v) noexcept {
    mix_u64(static_cast<std::uint64_t>(v));
  }
  void mix_bytes(std::string_view bytes) noexcept {
    mix_u64(bytes.size());
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Mixes a labeled integer dataset — dimensions, every cell, every label —
/// into `fp`.  The one dataset-hashing discipline every campaign
/// fingerprint shares, so a journal can never resume against reshaped or
/// relabeled inputs.
void mix_dataset(SweepFingerprint& fp,
                 const la::Matrix<std::int64_t>& inputs,
                 const std::vector<int>& labels);

}  // namespace fannet::verify
