#include "traced_engine.hpp"

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common.hpp"
#include "trace.hpp"
#include "verify/engine.hpp"
#include "verify/task.hpp"

namespace perf {

namespace fv = fannet::verify;

void StepCounters::reset() {
  tasks = 0;
  decided = 0;
  steps = 0;
  step_ns = 0;
  work = 0;
}

EngineCounters& engine_counters() {
  static EngineCounters counters;
  return counters;
}

void reset_engine_counters() {
  EngineCounters& c = engine_counters();
  c.dispatch.reset();
  c.interval.reset();
  c.symbolic.reset();
  c.bnb.reset();
}

namespace {

DispatchHook g_hook;  // written only while no pass-through dispatch runs

/// Forwards every step to the wrapped task, timing it in `counters` and,
/// when `span_name` is set, as a span.
class TimedTask final : public fv::EngineTask {
 public:
  TimedTask(std::unique_ptr<fv::EngineTask> inner, const fv::Budget& budget,
            StepCounters& counters, const char* span_name,
            const fv::Query* hook_query)
      : fv::EngineTask(budget),
        inner_(std::move(inner)),
        counters_(counters),
        span_name_(span_name) {
    if (hook_query != nullptr) hook_query_ = *hook_query;
  }

 private:
  bool step_impl(std::uint64_t max_work, fv::VerifyResult& out) override {
    const std::int64_t start = now_ns();
    fv::TaskState state;
    if (span_name_ != nullptr) {
      const trace::Scope span(span_name_);
      state = inner_->step(max_work);
    } else {
      state = inner_->step(max_work);
    }
    const std::int64_t elapsed = now_ns() - start;
    total_ns_ += elapsed;
    counters_.steps.fetch_add(1, std::memory_order_relaxed);
    counters_.step_ns.fetch_add(elapsed, std::memory_order_relaxed);
    if (state != fv::TaskState::kDone) return false;
    out = inner_->result();
    if (out.verdict != fv::Verdict::kUnknown) {
      counters_.decided.fetch_add(1, std::memory_order_relaxed);
    }
    counters_.work.fetch_add(out.work, std::memory_order_relaxed);
    if (hook_query_.net != nullptr && g_hook) g_hook(hook_query_, total_ns_);
    return true;
  }

  std::unique_ptr<fv::EngineTask> inner_;
  StepCounters& counters_;
  const char* span_name_;
  fv::Query hook_query_;  // set only when a dispatch hook wants the query
  std::int64_t total_ns_ = 0;
};

/// Stage wrapper: same name, completeness and caps as the wrapped engine.
/// Its steps are timed and counted but not recorded as spans: they are most
/// of a trace's volume, and the per-layer table needs only their totals.
class TimedStage final : public fv::Engine {
 public:
  TimedStage(const fv::Engine& inner, StepCounters& counters)
      : inner_(inner), counters_(counters) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] bool complete() const noexcept override {
    return inner_.complete();
  }
  [[nodiscard]] fv::VerifyResult verify(const fv::Query& query) const override {
    return fv::run_task(*this, query, fv::VerifyContext{});
  }
  [[nodiscard]] fv::VerifyResult verify_with(
      const fv::Query& query, const fv::VerifyContext& context) const override {
    return fv::run_task(*this, query, context);
  }
  [[nodiscard]] fv::EngineCaps caps() const noexcept override {
    return inner_.caps();
  }
  [[nodiscard]] std::unique_ptr<fv::EngineTask> make_task(
      const fv::Query& query, const fv::VerifyContext& context) const override {
    counters_.tasks.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TimedTask>(inner_.make_task(query, context),
                                       context.budget, counters_, nullptr,
                                       nullptr);
  }

 private:
  const fv::Engine& inner_;
  StepCounters& counters_;
};

/// The registered pass-through: a cascade over the timed stages, itself
/// timed per dispatch.
class TracedCascade final : public fv::Engine {
 public:
  TracedCascade()
      : interval_(fv::engine("interval"), engine_counters().interval),
        symbolic_(fv::engine("symbolic"), engine_counters().symbolic),
        bnb_(fv::engine("bnb"), engine_counters().bnb),
        cascade_(fv::CascadeEngine::with_stages(
            {&interval_, &symbolic_, &bnb_})) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return kTracedCascade;
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  [[nodiscard]] fv::VerifyResult verify(const fv::Query& query) const override {
    return fv::run_task(*this, query, fv::VerifyContext{});
  }
  [[nodiscard]] fv::VerifyResult verify_with(
      const fv::Query& query, const fv::VerifyContext& context) const override {
    return fv::run_task(*this, query, context);
  }
  [[nodiscard]] fv::EngineCaps caps() const noexcept override {
    return cascade_->caps();
  }
  [[nodiscard]] std::unique_ptr<fv::EngineTask> make_task(
      const fv::Query& query, const fv::VerifyContext& context) const override {
    engine_counters().dispatch.tasks.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TimedTask>(
        cascade_->make_task(query, context), context.budget,
        engine_counters().dispatch, "verify.step", g_hook ? &query : nullptr);
  }

 private:
  TimedStage interval_, symbolic_, bnb_;
  std::unique_ptr<fv::CascadeEngine> cascade_;
};

}  // namespace

void register_traced_cascade() {
  static std::once_flag once;
  std::call_once(once, [] {
    fv::registry().add(std::make_unique<TracedCascade>());
  });
}

void set_dispatch_hook(DispatchHook hook) { g_hook = std::move(hook); }

}  // namespace perf
