#include "verify/bnb.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "nn/batch_eval.hpp"
#include "util/error.hpp"
#include "verify/interval.hpp"
#include "verify/symbolic.hpp"
#include "verify/task.hpp"

namespace fannet::verify {

namespace {

using Sink = std::function<bool(const Counterexample&)>;

Counterexample make_cex(const Query& q, std::span<const int> deltas,
                        int mis_label) {
  Counterexample cex;
  cex.deltas.assign(deltas.begin(),
                    deltas.begin() + static_cast<std::ptrdiff_t>(q.x.size()));
  cex.bias_delta = q.bias_node ? deltas[q.x.size()] : 0;
  cex.mis_label = mis_label;
  return cex;
}

/// Visits every grid point of `box` in ascending lexicographic order (the
/// full noise vector, first dimension most significant), until `fn`
/// returns false.  Lex order is what makes the top-K early stop sound:
/// once a visited point reaches the prune bound, every later point does.
template <typename Fn>
void for_each_lex(const NoiseBox& box, Fn&& fn) {
  std::vector<int> p(box.lo);
  for (;;) {
    if (!fn(p)) return;
    std::size_t d = box.dims();
    while (d > 0) {
      if (++p[d - 1] <= box.hi[d - 1]) break;
      p[d - 1] = box.lo[d - 1];
      --d;
    }
    if (d == 0) return;
  }
}

/// Margin slack of a box under the kernel's current (parent) margin forms:
/// how far the weakest margin lower bound sits above the flip threshold.
/// Negative slack means the box may flip; the most negative box is the
/// most promising place to look for a witness (best-first policy).
template <typename Row>
Row margin_slack(const MarginKernel<Row>& kernel, const NoiseBox& box) {
  const std::size_t y = kernel.label();
  Row slack = 0;
  bool first = true;
  for (std::size_t k = 0; k < kernel.outputs(); ++k) {
    if (k == y) continue;
    const int needed = (k < y) ? 1 : 0;
    const Row s = form_min(kernel.margin_lo(k), box) - needed;
    if (first || s < slack) slack = s;
    first = false;
  }
  return slack;
}

/// One branch-and-bound search.  The frontier is a stack of boxes, each
/// one flat `[lo | hi]` row of ints, popped from the top; a popped box and
/// its bisection live in scratch boxes, so once the stack has grown to the
/// search's depth the box loop allocates nothing.  The bound kernel is
/// built once per query.
///
/// Top-K mode (`top_k` > 0: bnb_verify with K = 1, bnb_collect) keeps the
/// K lexicographically smallest counterexamples found so far.  Once the
/// set is full its largest member prunes every box whose lex-min corner
/// (box.lo) is at or above it: frontier boxes are disjoint from every
/// region already searched and the set only ever improves, so the result
/// does not depend on the exploration order.  Stream mode (a sink,
/// bnb_stream) hands every counterexample to the sink instead.
class Search {
 public:
  Search(const Query& q, const BnbOptions& o, std::size_t top_k,
         const Sink* sink = nullptr)
      : query_(q),
        options_(o),
        top_k_(top_k),
        sink_(sink),
        y_(static_cast<std::size_t>(q.true_label)),
        sub_(q),
        box_(q.box),
        left_(q.box),
        right_(q.box) {
    if (o.use_symbolic) kernel_.emplace(make_margin_kernel(q));
    push(q.box);
  }

  /// Processes boxes until the frontier drains, the search stops, or
  /// `yield()` — polled after every box — returns true.  A parked search
  /// resumes exactly where it stopped on the next call.
  template <typename Yield>
  void run(Yield&& yield) {
    while (!finished()) {
      pop();
      process(box_);
      if (yield()) return;
    }
  }

  /// True once the frontier drained or the search stopped (budget
  /// exhausted, or the sink asked to stop).
  [[nodiscard]] bool finished() const noexcept {
    return quit_ || rows_.empty();
  }
  /// Boxes processed so far.
  [[nodiscard]] std::uint64_t boxes() const noexcept { return boxes_; }
  /// The box budget, deadline or cancel stopped the search.
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }
  /// The kept counterexamples in ascending lex order: full noise vector ->
  /// mis_label (top-K mode).
  [[nodiscard]] const std::map<std::vector<int>, int>& found() const noexcept {
    return found_;
  }

 private:
  void push(const NoiseBox& box) {
    rows_.insert(rows_.end(), box.lo.begin(), box.lo.end());
    rows_.insert(rows_.end(), box.hi.begin(), box.hi.end());
  }

  /// Moves the newest box into box_.
  void pop() {
    const auto dims = static_cast<std::ptrdiff_t>(box_.dims());
    const auto top = rows_.end() - 2 * dims;
    std::copy(top, top + dims, box_.lo.begin());
    std::copy(top + dims, rows_.end(), box_.hi.begin());
    rows_.erase(top, rows_.end());
  }

  void stop_exhausted() {
    exhausted_ = true;
    quit_ = true;
  }

  /// The largest kept counterexample once the top-K set is full: no point
  /// at or above it can enter the set.  Null in stream mode.
  [[nodiscard]] const std::vector<int>* bound() const {
    if (sink_ != nullptr || found_.size() < top_k_) return nullptr;
    return &std::prev(found_.end())->first;
  }

  /// Delivers one verified counterexample: into the top-K set, or to the
  /// sink (a false return stops the search).
  void emit(const std::vector<int>& point, int mis_label) {
    if (sink_ != nullptr) {
      if (!(*sink_)(make_cex(query_, point, mis_label))) quit_ = true;
      return;
    }
    if (found_.size() == top_k_) {
      const auto last = std::prev(found_.end());
      if (!(point < last->first)) return;
      found_.erase(last);
    }
    found_.emplace(point, mis_label);
  }

  /// True when the next drain point must not be emitted: the search
  /// stopped, the deadline/cancel poll fired, or (lex order) the point
  /// reached the top-K bound, as every later point of the box then does.
  bool drain_stops(const std::vector<int>& point) {
    if (quit_) return true;
    // Strided so the steady_clock read is amortized; an expiry maps onto
    // the exhausted path (witnesses already emitted stay valid).
    if ((++poll_ & 255u) == 0 && options_.budget.interrupted()) {
      stop_exhausted();
      return true;
    }
    const std::vector<int>* limit = bound();
    return limit != nullptr && !(point < *limit);
  }

  void process(const NoiseBox& box) {
    ++boxes_;
    if (boxes_ > options_.max_boxes || options_.budget.interrupted()) {
      stop_exhausted();
      return;
    }
    if (const std::vector<int>* limit = bound();
        limit != nullptr && !(box.lo < *limit)) {
      return;
    }

    if (box.is_singleton()) {
      const int label = classify_under_noise(query_, box.lo);
      if (label != query_.true_label) emit(box.lo, label);
      return;
    }

    // Bound the whole box: certified-safe boxes are dropped, certified
    // flip-everywhere boxes enumerate their (all-counterexample) points in
    // lex order, undecided boxes bisect.
    bool flips_everywhere = false;
    bool all_safe = false;
    if (kernel_.has_value()) {
      std::visit(
          [&](auto& kernel) {
            kernel.bound(box);
            all_safe = true;
            for (std::size_t k = 0; k < kernel.outputs(); ++k) {
              if (k == y_) continue;
              const int needed = (k < y_) ? 1 : 0;
              if (form_min(kernel.margin_lo(k), box) < needed) {
                all_safe = false;
              }
              if (form_max(kernel.margin_hi(k), box) < needed) {
                flips_everywhere = true;  // O_k beats O_y everywhere
                break;
              }
            }
          },
          *kernel_);
    } else {
      sub_.box = box;
      all_safe = interval_verify(sub_).verdict == Verdict::kRobust;
    }
    if (all_safe && !flips_everywhere) return;

    if (flips_everywhere) {
      const std::size_t lanes =
          nn::BatchEvaluator::resolve_batch(options_.batch);
      if (lanes > 1) {
        drain_flips_box_batched(box, lanes);
        return;
      }
      for_each_lex(box, [&](const std::vector<int>& point) {
        if (drain_stops(point)) return false;
        emit(point, classify_under_noise(query_, point));
        return true;
      });
      return;
    }

    // Bisect the longest edge.
    std::size_t dim = 0;
    int best_span = -1;
    for (std::size_t d = 0; d < box.dims(); ++d) {
      const int span = box.hi[d] - box.lo[d];
      if (span > best_span) {
        best_span = span;
        dim = d;
      }
    }
    const int mid = box.lo[dim] + (box.hi[dim] - box.lo[dim]) / 2;
    left_ = box;  // equal sizes: copies reuse the scratch storage
    right_ = box;
    left_.hi[dim] = mid;
    right_.lo[dim] = mid + 1;

    // Box-priority policy: the child pushed *last* is popped first.
    bool left_first = true;
    if (options_.policy == BnbOptions::Policy::kBestFirst &&
        kernel_.has_value()) {
      // The kernel still holds the parent's forms, which stay sound on
      // sub-boxes, so scoring is O(dims) per margin — no re-propagation.
      // Ties keep the depth-first order.
      left_first = std::visit(
          [&](const auto& kernel) {
            return margin_slack(kernel, left_) <= margin_slack(kernel, right_);
          },
          *kernel_);
    }
    push(left_first ? right_ : left_);
    push(left_first ? left_ : right_);
  }

  /// Batched flips-everywhere drain: stages chunks of the box's lex-order
  /// points through the SoA kernel, then replays them in order with the
  /// same stop checks (and the same emissions) as the scalar loop.  Lanes
  /// the kernel flags as overflowing re-run the scalar path, which throws
  /// the genuine ArithmeticError the scalar loop would.
  void drain_flips_box_batched(const NoiseBox& box, std::size_t lanes) {
    if (!evaluator_) {
      evaluator_.emplace(*query_.net);
      batch_.emplace(evaluator_->make_batch());
    }
    nn::BatchEvaluator::Batch& batch = *batch_;
    const std::size_t n = query_.x.size();
    std::vector<int> p(box.lo);
    bool done = false;
    while (!done) {
      batch.clear();
      points_.clear();
      while (points_.size() < lanes && !done) {
        const int bias_delta = query_.bias_node ? p[n] : 0;
        batch.push_noised(query_.x, std::span<const int>(p).subspan(0, n),
                          nn::kNoiseDen + bias_delta);
        points_.push_back(p);
        // Lex advance, last dimension fastest (for_each_lex's order).
        std::size_t d = box.dims();
        while (d > 0) {
          if (++p[d - 1] <= box.hi[d - 1]) break;
          p[d - 1] = box.lo[d - 1];
          --d;
        }
        done = (d == 0);
      }
      evaluator_->run(batch);
      for (std::size_t t = 0; t < points_.size(); ++t) {
        if (drain_stops(points_[t])) return;
        const int label = batch.overflowed(t)
                              ? classify_under_noise(query_, points_[t])
                              : batch.label(t);
        emit(points_[t], label);
      }
    }
  }

  const Query& query_;
  /// `options_.budget` is the deadline/cancel source, polled per box and
  /// every 256 drain points.
  const BnbOptions& options_;
  const std::size_t top_k_;
  const Sink* const sink_;
  const std::size_t y_;

  std::optional<AnyMarginKernel> kernel_;  // symbolic pruning only
  Query sub_;  // IBP only: box rewritten per candidate
  std::vector<int> rows_;  // the frontier, oldest box first
  NoiseBox box_, left_, right_;  // the popped box and its bisection
  std::map<std::vector<int>, int> found_;  // top-K mode
  std::uint64_t boxes_ = 0;
  std::uint32_t poll_ = 0;  // drain_stops stride counter
  bool quit_ = false;
  bool exhausted_ = false;
  std::optional<nn::BatchEvaluator> evaluator_;  // lazy: flips drains only
  std::optional<nn::BatchEvaluator::Batch> batch_;
  std::vector<std::vector<int>> points_;
};

/// Native resumable task: owns the Search across steps.  Each step runs
/// it until the step's box quota is used, the poll after a box finds a
/// pause, cancel or deadline, the frontier drains or the search stops; the
/// checkpoint is just the parked frontier.  After every step `work` holds
/// the boxes processed so far, so an interrupted query reports them.
class BnbTask final : public EngineTask {
 public:
  BnbTask(Query query, BnbOptions options)
      : EngineTask(options.budget),
        query_(std::move(query)),
        options_(std::move(options)) {}

 private:
  bool step_impl(std::uint64_t max_work, VerifyResult& out) override {
    if (!search_.has_value()) search_.emplace(query_, options_, 1);
    // Saturating: an unbounded quota (UINT64_MAX) must not wrap around.
    const std::uint64_t boxes = search_->boxes();
    const std::uint64_t target =
        boxes +
        std::min(max_work, std::numeric_limits<std::uint64_t>::max() - boxes);
    search_->run(
        [&] { return search_->boxes() >= target || should_yield(); });
    out.work = search_->boxes();
    if (!search_->finished()) return false;  // parked on the quota / a pause
    out.resource_limited = search_->exhausted();
    if (!search_->found().empty()) {
      // Sound even under budget exhaustion: every emitted point was
      // exactly evaluated.  Within budget this is the lex-lowest
      // counterexample; exhausted runs may return a non-minimal (still
      // valid) witness, flagged resource_limited so it is never cached as
      // canonical.
      const auto& [point, mis_label] = *search_->found().begin();
      out.verdict = Verdict::kVulnerable;
      out.counterexample = make_cex(query_, point, mis_label);
    } else {
      out.verdict =
          out.resource_limited ? Verdict::kUnknown : Verdict::kRobust;
    }
    return true;
  }

  Query query_;
  BnbOptions options_;
  std::optional<Search> search_;  // constructed on the first step
};

constexpr auto kNeverYield = [] { return false; };

}  // namespace

std::uint64_t bnb_stream(const Query& query, const Sink& sink,
                         BnbOptions options) {
  query.validate();
  Search search(query, options, 0, &sink);
  search.run(kNeverYield);
  if (search.exhausted()) throw ResourceLimit("bnb: box budget exceeded");
  return search.boxes();
}

VerifyResult bnb_verify(const Query& query, BnbOptions options) {
  const std::unique_ptr<EngineTask> task = make_bnb_task(query, options);
  (void)task->run(std::numeric_limits<std::uint64_t>::max());
  return task->result();
}

std::unique_ptr<EngineTask> make_bnb_task(const Query& query,
                                          const BnbOptions& options) {
  query.validate();
  return std::make_unique<BnbTask>(query, options);
}

std::vector<Counterexample> bnb_collect(const Query& query,
                                        std::size_t max_count,
                                        BnbOptions options) {
  std::vector<Counterexample> out;
  if (max_count == 0) return out;
  query.validate();
  Search search(query, options, max_count);
  search.run(kNeverYield);
  if (search.exhausted()) throw ResourceLimit("bnb: box budget exceeded");
  out.reserve(search.found().size());
  for (const auto& [point, mis_label] : search.found()) {
    out.push_back(make_cex(query, point, mis_label));
  }
  return out;  // std::map iteration = ascending lex order
}

}  // namespace fannet::verify
