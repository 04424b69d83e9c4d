#include "verify/enumerate.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "nn/batch_eval.hpp"
#include "util/error.hpp"
#include "verify/task.hpp"

namespace fannet::verify {

namespace {

using u128 = unsigned __int128;

/// Box volume, or 0 if it exceeds ~2^62 (practically unenumerable; the
/// task falls back to the scalar odometer there).
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

[[nodiscard]] Counterexample make_cex(const Query& q,
                                      std::span<const int> delta, int label) {
  Counterexample cex;
  cex.deltas.assign(delta.begin(),
                    delta.begin() + static_cast<std::ptrdiff_t>(q.x.size()));
  cex.bias_delta = q.bias_node ? delta[q.x.size()] : 0;
  cex.mis_label = label;
  return cex;
}

/// The scalar reference walk behind enumerate_stream / enumerate_collect:
/// the oracle the batched decision scan is validated against.
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

/// The batched decision scan: the linearized box is split into fixed
/// blocks of `batch_lanes` points, evaluated in ascending order, and the
/// first *event* (counterexample or overflow) ends the walk, so verdict,
/// witness, and work are the scalar walk's: work = event index + 1 on a
/// hit, the box volume on a proof.
struct BlockEvent {
  std::uint64_t index = 0;
  int label = 0;
  bool overflow = false;
};

/// Scans linear point indices [range_start, range_end) block by block in
/// ascending order through `evaluator` and `batch` (`delta` is scratch).
/// Returns the first event, or nullopt when the range is event-free.
[[nodiscard]] std::optional<BlockEvent> scan_range(
    const Query& q, const nn::BatchEvaluator& evaluator,
    nn::BatchEvaluator::Batch& batch, std::vector<int>& delta,
    std::uint64_t range_start, std::uint64_t range_end,
    std::size_t batch_lanes) {
  decode_point(q, range_start, delta);
  for (std::uint64_t start = range_start; start < range_end;
       start += batch_lanes) {
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch_lanes, range_end - start));
    batch.clear();
    for (std::size_t t = 0; t < count; ++t) {
      stage_lane(q, delta, batch);
      (void)advance(q, delta);  // wraps only past the box's last point
    }
    evaluator.run(batch);
    for (std::size_t t = 0; t < count; ++t) {
      const bool overflow = batch.overflowed(t);
      if (!overflow && batch.label(t) == q.true_label) continue;
      return BlockEvent{start + t, overflow ? 0 : batch.label(t), overflow};
    }
  }
  return std::nullopt;
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

/// Native resumable task: a linear cursor over the bounded box volume,
/// scanning `max_work` points (rounded up to whole blocks) per step
/// through `scan_range` with one SoA evaluator and batch that live as long
/// as the task.  Because blocks are fixed and chunks cover [cursor, end)
/// contiguously, the first event found is the globally lowest one
/// regardless of where step boundaries land — the determinism contract of
/// verify/task.hpp falls out structurally.  `batch = 1` (the scalar
/// reference walk, EnumerateOptions::batch) and practically unenumerable
/// boxes (bounded_volume() == 0) run a scalar odometer slice instead,
/// which the batched scan is bit-identical to.  After every step `work`
/// holds the points walked so far, so an interrupted query reports them.
class EnumerateTask final : public EngineTask {
 public:
  EnumerateTask(Query query, const EnumerateOptions& options,
                const Budget& budget)
      : EngineTask(budget),
        query_(std::move(query)),
        lanes_(nn::BatchEvaluator::resolve_batch(options.batch)),
        volume_(bounded_volume(query_)) {}

 private:
  bool step_impl(std::uint64_t max_work, VerifyResult& out) override {
    if (volume_ == 0 || lanes_ == 1) return scalar_slice(max_work, out);
    if (!evaluator_.has_value()) {
      evaluator_.emplace(*query_.net);
      batch_.emplace(evaluator_->make_batch());
    }
    const std::uint64_t lanes = lanes_;
    // Whole blocks covering max_work points, capped at the box's end so an
    // unbounded quota (UINT64_MAX) cannot overflow.
    const std::uint64_t blocks =
        std::min(max_work / lanes + (max_work % lanes != 0 ? 1 : 0),
                 (volume_ - cursor_ + lanes - 1) / lanes);
    const std::uint64_t end = std::min(volume_, cursor_ + blocks * lanes);
    const std::optional<BlockEvent> event = scan_range(
        query_, *evaluator_, *batch_, delta_, cursor_, end, lanes_);
    if (event.has_value()) {
      out = event_result(query_, *event);
      return true;
    }
    cursor_ = end;
    out.work = cursor_;
    if (cursor_ < volume_) return false;
    out.verdict = Verdict::kRobust;
    out.counterexample.reset();
    return true;
  }

  /// Serial scalar odometer slice (batch = 1, unenumerable volumes);
  /// yields at 64-point checkpoints so pause/cancel stay prompt.
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
      if ((i & 63u) == 63u && should_yield()) break;
    }
    out.work = visited_;
    return false;
  }

  Query query_;
  std::size_t lanes_;  // points per evaluation block
  std::uint64_t volume_;
  std::uint64_t cursor_ = 0;
  // Batched scan state, built on the first batched step.
  std::optional<nn::BatchEvaluator> evaluator_;
  std::optional<nn::BatchEvaluator::Batch> batch_;
  // Odometer position (scalar slice) or decode scratch (batched scan).
  std::vector<int> delta_;
  bool started_ = false;
  std::uint64_t visited_ = 0;
};

}  // namespace

std::uint64_t enumerate_stream(
    const Query& q, const std::function<bool(const Counterexample&)>& sink) {
  q.validate();
  return scalar_stream(q, sink);
}

VerifyResult enumerate_find_first(const Query& query,
                                  const EnumerateOptions& options) {
  const std::unique_ptr<EngineTask> task =
      make_enumerate_task(query, options, Budget{});
  (void)task->run(std::numeric_limits<std::uint64_t>::max());
  return task->result();
}

std::unique_ptr<EngineTask> make_enumerate_task(const Query& query,
                                                const EnumerateOptions& options,
                                                const Budget& budget) {
  query.validate();
  return std::make_unique<EnumerateTask>(query, options, budget);
}

std::vector<Counterexample> enumerate_collect(const Query& query,
                                              std::size_t max_count) {
  std::vector<Counterexample> out;
  if (max_count == 0) return out;  // cap checked before push, not after
  enumerate_stream(query, [&](const Counterexample& cex) {
    out.push_back(cex);
    return out.size() < max_count;
  });
  return out;
}

}  // namespace fannet::verify
