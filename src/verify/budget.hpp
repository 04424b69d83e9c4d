/// \file
/// \brief Unified resource budget for P2 engine execution (DESIGN.md §12).
///
/// Every ad-hoc limit the engines grew over time — bnb's box cap, the SAT
/// engine's conflict/propagation budgets — plus the two limits a serving
/// layer needs (a wall-clock deadline and cooperative cancellation) live in
/// one `Budget` value threaded scheduler → engines → sat::Solver.  The
/// contract is the paper's: exhausting any budget maps to kUnknown with
/// `VerifyResult::resource_limited` set (or a valid witness already in
/// hand, also flagged) — never a hang and never a wrong verdict.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace fannet::verify {

/// Cooperative cancellation flag, shared between the requester (who calls
/// `cancel()`) and any number of engine workers polling `cancelled()`.
/// All methods are safe to call concurrently.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// Re-arms the token for reuse (e.g. a pooled BatchControl).
  void reset() noexcept { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query resource budget.  Default-constructed = unlimited (engine
/// defaults apply).  A zero cap means "engine default", matching the old
/// per-field conventions it replaces.
struct Budget {
  /// Absolute wall-clock deadline (steady clock).  Armed per query by the
  /// scheduler from `SchedulerOptions::deadline_ms`; engines with native
  /// tasks poll it at checkpoint granularity, so overshoot is bounded by
  /// one checkpoint's work.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Branch-and-bound box cap (0 = the engine's default, 100M).
  std::uint64_t max_boxes = 0;
  /// Cumulative CDCL conflict cap for SAT-backed engines (0 = default).
  std::uint64_t conflicts = 0;
  /// Cumulative unit-propagation cap for SAT-backed engines (0 = default).
  std::uint64_t propagations = 0;
  /// Cooperative cancellation; not owned, may be null.  The pointed-to
  /// token must outlive every dispatch carrying this budget.
  const CancelToken* cancel = nullptr;

  /// `now + ms`, clamped to the clock's last representable time point, so
  /// a deadline past what the clock can hold (from ~292 years on, where
  /// the nanosecond conversion would overflow) never passes.
  [[nodiscard]] static std::chrono::steady_clock::time_point after_ms(
      std::uint64_t ms) {
    using std::chrono::steady_clock;
    const steady_clock::time_point now = steady_clock::now();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        steady_clock::time_point::max() - now);
    if (ms >= static_cast<std::uint64_t>(headroom.count())) {
      return steady_clock::time_point::max();
    }
    return now + std::chrono::milliseconds(ms);
  }

  /// True when the wall-clock deadline exists and has passed (the cancel
  /// token is not consulted).  This is the only clock read the verify layer
  /// performs outside util::Stopwatch — callers that need "did the deadline
  /// fire?" accounting go through here instead of reading the clock
  /// themselves, so fannet-lint can enforce time-independence everywhere
  /// else (docs/static-analysis.md).
  [[nodiscard]] bool deadline_passed() const noexcept {
    return deadline.has_value() &&
           std::chrono::steady_clock::now() >= *deadline;
  }

  /// True when the wall-clock deadline has passed or the cancel token
  /// fired — the "stop now, finalize kUnknown + resource_limited" signal
  /// engines poll between work chunks.  Checks the (cheap) token before
  /// taking a clock reading.
  [[nodiscard]] bool interrupted() const noexcept {
    if (cancel != nullptr && cancel->cancelled()) return true;
    return deadline_passed();
  }

  /// True when nothing in this budget can ever fire.
  [[nodiscard]] bool unlimited() const noexcept {
    return !deadline.has_value() && max_boxes == 0 && conflicts == 0 &&
           propagations == 0 && cancel == nullptr;
  }
};

}  // namespace fannet::verify
