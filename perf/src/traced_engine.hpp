// The traced run's pass-through engine.  It is built on
// verify::CascadeEngine::with_stages with stage wrappers that time and count
// every task step of `interval`, `symbolic` and `bnb`, and it is registered
// through the public verify::registry().add, so the analyses and the server
// reach it by name without any change to src/.  Verdicts, witnesses and
// `work` are the cascade's own: the wrappers only forward.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "verify/query.hpp"

namespace perf {

/// Counters of one wrapped engine (all tasks created through it).
struct StepCounters {
  std::atomic<std::uint64_t> tasks{0};    ///< make_task calls
  std::atomic<std::uint64_t> decided{0};  ///< tasks ending robust/vulnerable
  std::atomic<std::uint64_t> steps{0};    ///< task steps taken
  std::atomic<std::int64_t> step_ns{0};   ///< wall time inside those steps
  std::atomic<std::uint64_t> work{0};     ///< VerifyResult::work, summed

  void reset();
};

/// `dispatch` wraps the whole cascade (one task per scheduler dispatch);
/// the others wrap its stages.
struct EngineCounters {
  StepCounters dispatch, interval, symbolic, bnb;
};
[[nodiscard]] EngineCounters& engine_counters();
void reset_engine_counters();

/// Registry name of the pass-through cascade.
inline constexpr const char* kTracedCascade = "perf-cascade";

/// Registers kTracedCascade (first call only).
void register_traced_cascade();

/// Optional callback run when a pass-through dispatch finishes, with the
/// summed wall time of its steps.  Install it before the window that needs
/// it and clear it (pass {}) before those dispatches stop.
using DispatchHook =
    std::function<void(const fannet::verify::Query&, std::int64_t step_ns)>;
void set_dispatch_hook(DispatchHook hook);

}  // namespace perf
