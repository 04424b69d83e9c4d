#include "verify/enumerate.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "nn/batch_eval.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "verify/task.hpp"

namespace fannet::verify {

namespace {

using u128 = unsigned __int128;

/// Serial chunk sizes ramp up from here to the full batch, so decision
/// queries that hit a witness in the first few points stay near-scalar.
constexpr std::size_t kRampStart = 8;

/// Box volume, or 0 if it exceeds ~2^62 (practically unenumerable; the
/// parallel splitter falls back to the serial walk there).
[[nodiscard]] std::uint64_t bounded_volume(const Query& q) {
  u128 volume = 1;
  for (std::size_t d = 0; d < q.noise_dims(); ++d) {
    const u128 side =
        static_cast<u128>(static_cast<long long>(q.box.hi[d]) - q.box.lo[d]) +
        1;
    volume *= side;
    if (volume > (static_cast<u128>(1) << 62)) return 0;
  }
  return static_cast<std::uint64_t>(volume);
}

/// Decodes a linear point index into the odometer's delta vector:
/// dimension 0 is the fastest-incrementing digit, matching the scalar
/// walk's visitation order exactly.
void decode_point(const Query& q, std::uint64_t index, std::vector<int>& delta) {
  const std::size_t dims = q.noise_dims();
  delta.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const std::uint64_t side = static_cast<std::uint64_t>(
        static_cast<long long>(q.box.hi[d]) - q.box.lo[d] + 1);
    delta[d] = q.box.lo[d] + static_cast<int>(index % side);
    index /= side;
  }
}

/// Advances `delta` one odometer step; returns false when the walk wraps
/// (every point visited).
[[nodiscard]] bool advance(const Query& q, std::vector<int>& delta) {
  const std::size_t dims = q.noise_dims();
  std::size_t d = 0;
  while (d < dims && ++delta[d] > q.box.hi[d]) {
    delta[d] = q.box.lo[d];
    ++d;
  }
  return d != dims;
}

/// Stages one noise vector as a batch lane (the classify_under_noise
/// algebra: input deltas then the optional bias-node delta).
void stage_lane(const Query& q, std::span<const int> delta,
                nn::BatchEvaluator::Batch& batch) {
  const std::size_t n = q.x.size();
  const int bias_delta = q.bias_node ? delta[n] : 0;
  batch.push_noised(q.x, delta.subspan(0, n), nn::kNoiseDen + bias_delta);
}

/// Label of one evaluated lane, reproducing the scalar path's exception
/// for lanes the batched kernel flagged: the scalar re-run throws the
/// genuine ArithmeticError at exactly the point the scalar walk would.
[[nodiscard]] int lane_label(const Query& q,
                             const nn::BatchEvaluator::Batch& batch,
                             std::size_t lane, std::span<const int> delta) {
  if (batch.overflowed(lane)) return classify_under_noise(q, delta);
  return batch.label(lane);
}

[[nodiscard]] Counterexample make_cex(const Query& q,
                                      std::span<const int> delta, int label) {
  Counterexample cex;
  cex.deltas.assign(delta.begin(),
                    delta.begin() + static_cast<std::ptrdiff_t>(q.x.size()));
  cex.bias_delta = q.bias_node ? delta[q.x.size()] : 0;
  cex.mis_label = label;
  return cex;
}

/// The scalar reference walk — kept verbatim as the oracle the batched
/// paths are validated against (bench_batch_eval, test_batch_eval).
std::uint64_t scalar_stream(
    const Query& q, const std::function<bool(const Counterexample&)>& sink) {
  std::vector<int> delta(q.box.lo.begin(), q.box.lo.end());
  std::uint64_t visited = 0;
  while (true) {
    ++visited;
    const int label = classify_under_noise(q, delta);
    if (label != q.true_label) {
      if (!sink(make_cex(q, delta, label))) return visited;
    }
    if (!advance(q, delta)) return visited;
  }
}

/// Serial batched walk: chunks of lanes in odometer order through the SoA
/// kernel, scanned in order so sink calls, early stops, the visited count,
/// and overflow throws all match the scalar walk bit-for-bit.
std::uint64_t batched_stream(
    const Query& q, const std::function<bool(const Counterexample&)>& sink,
    std::size_t batch_lanes) {
  nn::BatchEvaluator evaluator(*q.net);
  nn::BatchEvaluator::Batch batch = evaluator.make_batch();
  std::vector<std::vector<int>> staged;
  std::vector<int> delta(q.box.lo.begin(), q.box.lo.end());
  std::uint64_t visited = 0;
  std::size_t chunk = std::min(kRampStart, batch_lanes);
  bool exhausted = false;

  while (!exhausted) {
    batch.clear();
    staged.clear();
    while (staged.size() < chunk && !exhausted) {
      stage_lane(q, delta, batch);
      staged.push_back(delta);
      exhausted = !advance(q, delta);
    }
    evaluator.run(batch);
    for (std::size_t t = 0; t < staged.size(); ++t) {
      ++visited;
      const int label = lane_label(q, batch, t, staged[t]);
      if (label != q.true_label) {
        if (!sink(make_cex(q, staged[t], label))) return visited;
      }
    }
    chunk = std::min(chunk * 2, batch_lanes);
  }
  return visited;
}

/// Parallel decision walk: the linearized box is split into fixed blocks
/// of `batch_lanes` points, claimed in ascending order off an atomic
/// cursor.  Each worker batch-evaluates its block and records its first
/// *event* (counterexample or overflow); the globally lowest event index
/// wins, and blocks past the best-so-far event block are skipped (every
/// block below it was claimed earlier, so it is fully processed before the
/// workers drain).  Verdict, witness, and work are therefore the scalar
/// walk's: work = event index + 1 on a hit, the box volume on a proof.
struct BlockEvent {
  std::uint64_t index = 0;
  int label = 0;
  bool overflow = false;
};

/// Scans linear point indices [range_start, range_end) for the lowest
/// event, fanning `batch_lanes`-point blocks across `threads` workers
/// claimed in ascending order (blocks past the best-so-far event block are
/// skipped; every block below it was claimed earlier, so it is fully
/// processed before the workers drain).  Serial when threads == 1 — same
/// blocks, same events, no spawn.  Returns nullopt when the range is
/// event-free.
[[nodiscard]] std::optional<BlockEvent> scan_range(const Query& q,
                                                   std::uint64_t range_start,
                                                   std::uint64_t range_end,
                                                   std::size_t batch_lanes,
                                                   std::size_t threads) {
  const std::uint64_t span = range_end - range_start;
  const std::uint64_t blocks = (span + batch_lanes - 1) / batch_lanes;
  std::atomic<std::uint64_t> next_block{0};
  std::atomic<std::uint64_t> best_block{~static_cast<std::uint64_t>(0)};
  util::Mutex best_mutex;
  bool have_best = false;
  BlockEvent best;
  util::FirstError error;

  const auto worker = [&] {
    try {
      nn::BatchEvaluator evaluator(*q.net);
      nn::BatchEvaluator::Batch batch = evaluator.make_batch();
      std::vector<int> delta;
      while (true) {
        const std::uint64_t blk = next_block.fetch_add(1);
        if (blk >= blocks) return;
        if (blk > best_block.load(std::memory_order_relaxed)) continue;
        const std::uint64_t start = range_start + blk * batch_lanes;
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>(batch_lanes, range_end - start));
        batch.clear();
        decode_point(q, start, delta);
        for (std::size_t t = 0; t < count; ++t) {
          stage_lane(q, delta, batch);
          if (t + 1 < count) (void)advance(q, delta);
        }
        evaluator.run(batch);
        for (std::size_t t = 0; t < count; ++t) {
          const bool overflow = batch.overflowed(t);
          if (!overflow && batch.label(t) == q.true_label) continue;
          const util::MutexLock lock(best_mutex);
          const std::uint64_t index = start + t;
          if (!have_best || index < best.index) {
            have_best = true;
            best = {index, overflow ? 0 : batch.label(t), overflow};
            best_block.store(blk, std::memory_order_relaxed);
          }
          break;  // later lanes of this block are higher indices
        }
      }
    } catch (...) {
      error.capture();
      next_block.store(blocks);  // drain the other workers
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  error.rethrow_if_set();
  if (!have_best) return std::nullopt;
  return best;
}

/// Final result for the lowest event: decode the point, reproduce the
/// scalar walk's exception for overflow lanes (or, defensively, its label
/// if the scalar path disagrees about the overflow), and package the
/// counterexample with work = event index + 1.
[[nodiscard]] VerifyResult event_result(const Query& q, BlockEvent best) {
  std::vector<int> delta;
  decode_point(q, best.index, delta);
  if (best.overflow) best.label = classify_under_noise(q, delta);
  VerifyResult result;
  result.verdict = Verdict::kVulnerable;
  result.counterexample = make_cex(q, delta, best.label);
  result.work = best.index + 1;
  return result;
}

[[nodiscard]] VerifyResult parallel_find_first(const Query& q,
                                               std::uint64_t volume,
                                               std::size_t batch_lanes,
                                               std::size_t threads) {
  const std::optional<BlockEvent> best =
      scan_range(q, 0, volume, batch_lanes, threads);
  if (!best.has_value()) {
    VerifyResult result;
    result.verdict = Verdict::kRobust;
    result.work = volume;
    return result;
  }
  return event_result(q, *best);
}

/// Native resumable task: a linear cursor over the bounded box volume,
/// scanning `max_work` points (rounded up to whole blocks) per step
/// through `scan_range`.  Because blocks are fixed and chunks cover
/// [cursor, end) contiguously, the first event found is the globally
/// lowest one regardless of where step boundaries land — the determinism
/// contract of verify/task.hpp falls out structurally.  Practically
/// unenumerable boxes (bounded_volume() == 0) fall back to a serial
/// scalar odometer slice, which the batched paths are bit-identical to.
class EnumerateTask final : public EngineTask {
 public:
  EnumerateTask(Query query, const EnumerateOptions& options,
                const Budget& budget)
      : EngineTask(budget),
        query_(std::move(query)),
        batch_(nn::BatchEvaluator::resolve_batch(options.batch)),
        threads_(options.threads == 0
                     ? std::max<std::size_t>(
                           1, std::thread::hardware_concurrency())
                     : options.threads),
        volume_(bounded_volume(query_)) {}

 private:
  bool step_impl(std::uint64_t max_work, VerifyResult& out) override {
    if (volume_ == 0) return scalar_slice(max_work, out);
    const std::uint64_t lanes = batch_;
    // Whole blocks covering max_work points, capped at the box's end so an
    // unbounded quota (UINT64_MAX) cannot overflow.
    const std::uint64_t blocks =
        std::min(max_work / lanes + (max_work % lanes != 0 ? 1 : 0),
                 (volume_ - cursor_ + lanes - 1) / lanes);
    const std::uint64_t end = std::min(volume_, cursor_ + blocks * lanes);
    const std::uint64_t chunk_blocks = (end - cursor_ + lanes - 1) / lanes;
    const std::size_t fan = static_cast<std::size_t>(
        std::min<std::uint64_t>(threads_, chunk_blocks));
    const std::optional<BlockEvent> event =
        scan_range(query_, cursor_, end, batch_, fan);
    if (event.has_value()) {
      out = event_result(query_, *event);
      return true;
    }
    cursor_ = end;
    if (cursor_ < volume_) return false;
    out.verdict = Verdict::kRobust;
    out.counterexample.reset();
    out.work = volume_;
    return true;
  }

  /// Serial scalar odometer slice for unenumerable volumes; yields at
  /// 64-point checkpoints so pause/cancel stay prompt.
  bool scalar_slice(std::uint64_t max_work, VerifyResult& out) {
    const Query& q = query_;  // const ref so the odometer helper resolves
    if (!started_) {
      delta_.assign(q.box.lo.begin(), q.box.lo.end());
      started_ = true;
    }
    for (std::uint64_t i = 0; i < max_work; ++i) {
      ++visited_;
      const int label = classify_under_noise(q, delta_);
      if (label != q.true_label) {
        out.verdict = Verdict::kVulnerable;
        out.counterexample = make_cex(q, delta_, label);
        out.work = visited_;
        return true;
      }
      if (!advance(q, delta_)) {
        out.verdict = Verdict::kRobust;
        out.work = visited_;
        return true;
      }
      if ((i & 63u) == 63u && should_yield()) return false;
    }
    return false;
  }

  Query query_;
  std::size_t batch_;
  std::size_t threads_;
  std::uint64_t volume_;
  std::uint64_t cursor_ = 0;
  // Scalar-fallback odometer state.
  std::vector<int> delta_;
  bool started_ = false;
  std::uint64_t visited_ = 0;
};

}  // namespace

std::uint64_t enumerate_stream(
    const Query& q, const std::function<bool(const Counterexample&)>& sink,
    const EnumerateOptions& options) {
  q.validate();
  const std::size_t batch = nn::BatchEvaluator::resolve_batch(options.batch);
  if (batch == 1) return scalar_stream(q, sink);
  return batched_stream(q, sink, batch);
}

VerifyResult enumerate_find_first(const Query& query,
                                  const EnumerateOptions& options) {
  query.validate();
  const std::size_t batch = nn::BatchEvaluator::resolve_batch(options.batch);
  std::size_t threads = options.threads == 0
                            ? std::max(1u, std::thread::hardware_concurrency())
                            : options.threads;
  if (batch > 1 && threads > 1) {
    const std::uint64_t volume = bounded_volume(query);
    // Only fan out when there are enough blocks to go around; tiny boxes
    // (and practically-unenumerable ones) use the serial walk.
    if (volume > 0 && volume / batch >= 2 * threads) {
      return parallel_find_first(query, volume, batch, threads);
    }
  }
  VerifyResult result;
  result.verdict = Verdict::kRobust;
  result.work = enumerate_stream(query,
                                 [&](const Counterexample& cex) {
                                   result.verdict = Verdict::kVulnerable;
                                   result.counterexample = cex;
                                   return false;  // stop at first
                                 },
                                 options);
  return result;
}

std::unique_ptr<EngineTask> make_enumerate_task(const Query& query,
                                                const EnumerateOptions& options,
                                                const Budget& budget) {
  query.validate();
  return std::make_unique<EnumerateTask>(query, options, budget);
}

std::vector<Counterexample> enumerate_collect(const Query& query,
                                              std::size_t max_count,
                                              const EnumerateOptions& options) {
  std::vector<Counterexample> out;
  if (max_count == 0) return out;  // cap checked before push, not after
  enumerate_stream(query,
                   [&](const Counterexample& cex) {
                     out.push_back(cex);
                     return out.size() < max_count;
                   },
                   options);
  return out;
}

}  // namespace fannet::verify
