#include "verify/engine.hpp"

#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "verify/bnb.hpp"
#include "verify/enumerate.hpp"
#include "verify/interval.hpp"
#include "verify/symbolic.hpp"
#include "verify/task.hpp"

namespace fannet::verify {

namespace {

// Adapters over the free-function strategies.  Each is stateless, so one
// shared instance serves every thread.
class EnumerateEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "enumerate";
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  [[nodiscard]] EngineCaps caps() const noexcept override {
    return EngineCaps{.complete = true,
                      .deadline = true,
                      .budget = false,
                      .native_task = true};
  }
  [[nodiscard]] std::unique_ptr<EngineTask> make_task(
      const Query& query, const VerifyContext& context) const override {
    return make_enumerate_task(query, {.batch = context.batch_hint},
                               context.budget);
  }
};

class IntervalEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "interval";
  }
  [[nodiscard]] bool complete() const noexcept override { return false; }
  [[nodiscard]] std::unique_ptr<EngineTask> make_task(
      const Query& query, const VerifyContext& context) const override {
    return make_one_shot_task(interval_verify, query, context.budget);
  }
};

class SymbolicEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "symbolic";
  }
  [[nodiscard]] bool complete() const noexcept override { return false; }
  [[nodiscard]] std::unique_ptr<EngineTask> make_task(
      const Query& query, const VerifyContext& context) const override {
    return make_one_shot_task(symbolic_verify, query, context.budget);
  }
};

class BnbEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "bnb";
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  [[nodiscard]] EngineCaps caps() const noexcept override {
    return EngineCaps{.complete = true,
                      .deadline = true,
                      .budget = true,
                      .native_task = true};
  }
  [[nodiscard]] std::unique_ptr<EngineTask> make_task(
      const Query& query, const VerifyContext& context) const override {
    BnbOptions options;
    options.batch = context.batch_hint;
    options.budget = context.budget;
    if (context.budget.max_boxes > 0) {
      options.max_boxes = context.budget.max_boxes;
    }
    return make_bnb_task(query, options);
  }
};

/// Staged pipeline task for the cascade: one sub-task per stage (the
/// stage engine's own task), advanced one bounded sub-step per parent
/// step.  A stage deciding the query (or the last stage finishing)
/// finalizes with work accumulated across every stage that ran.  A
/// deadline/cancel expiry truncates the pipeline instead of starting the
/// next stage (flagged resource_limited, since the skipped stages might
/// have decided).  `work` holds the finished stages' total between
/// steps; a cancel or expiry that stops the cascade mid-stage finalizes
/// the running stage through its own hook and adds its work.
class CascadeTask final : public EngineTask {
 public:
  CascadeTask(std::vector<const Engine*> stages, Query query,
              VerifyContext context)
      : EngineTask(context.budget),
        stages_(std::move(stages)),
        query_(std::move(query)),
        context_(std::move(context)) {}

 private:
  bool step_impl(std::uint64_t max_work, VerifyResult& out) override {
    if (sub_ == nullptr) {
      sub_ = stages_[stage_]->make_task(query_, context_);
    }
    if (sub_->step(max_work) != TaskState::kDone) {
      out.work = work_;
      return false;
    }
    out = sub_->result();
    work_ += out.work;
    const bool last = stage_ + 1 >= stages_.size();
    const bool truncated =
        !last && out.verdict == Verdict::kUnknown && interrupted();
    if (out.verdict != Verdict::kUnknown || last || truncated) {
      out.work = work_;
      if (truncated) out.resource_limited = true;
      return true;
    }
    out.work = work_;
    ++stage_;
    sub_.reset();
    return false;
  }

  void finalize_interrupted(VerifyResult& out) override {
    if (sub_ == nullptr) {
      EngineTask::finalize_interrupted(out);
      return;
    }
    // The running stage finalizes on its next step, keeping what it
    // holds (a witness, the work it did).
    sub_->cancel();
    (void)sub_->step();
    out = sub_->result();
    out.work += work_;
  }

  std::vector<const Engine*> stages_;
  Query query_;
  VerifyContext context_;
  std::size_t stage_ = 0;
  std::unique_ptr<EngineTask> sub_;
  std::uint64_t work_ = 0;
};

}  // namespace

VerifyResult Engine::verify(const Query& query) const {
  return run_task(*this, query, VerifyContext{});
}

VerifyResult Engine::verify_with(const Query& query,
                                 const VerifyContext& context) const {
  return run_task(*this, query, context);
}

void EngineRegistry::add(std::unique_ptr<Engine> engine) {
  if (engine == nullptr) throw InvalidArgument("EngineRegistry::add: null");
  const util::MutexLock lock(mutex_);
  const std::string key(engine->name());
  if (!engines_.emplace(key, std::move(engine)).second) {
    throw InvalidArgument("EngineRegistry::add: duplicate engine '" + key +
                          "'");
  }
}

const Engine& EngineRegistry::get(std::string_view name) const {
  const util::MutexLock lock(mutex_);
  const auto it = engines_.find(name);
  if (it == engines_.end()) {
    std::ostringstream msg;
    msg << "EngineRegistry::get: unknown engine '" << name << "' (known:";
    for (const auto& [key, unused] : engines_) msg << ' ' << key;
    msg << ')';
    throw InvalidArgument(msg.str());
  }
  return *it->second;
}

bool EngineRegistry::contains(std::string_view name) const {
  const util::MutexLock lock(mutex_);
  return engines_.find(name) != engines_.end();
}

std::vector<std::string> EngineRegistry::names() const {
  const util::MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(engines_.size());
  for (const auto& [key, unused] : engines_) out.push_back(key);
  return out;  // std::map iterates in sorted key order
}

EngineRegistry& registry() {
  static EngineRegistry* instance = [] {
    auto* r = new EngineRegistry;
    r->add(std::make_unique<EnumerateEngine>());
    r->add(std::make_unique<IntervalEngine>());
    r->add(std::make_unique<SymbolicEngine>());
    r->add(std::make_unique<BnbEngine>());
    r->add(std::make_unique<CascadeEngine>());
    detail::register_translation_engines(*r);
    return r;  // leaked deliberately: engines outlive every static consumer
  }();
  return *instance;
}

const Engine& engine(std::string_view name) { return registry().get(name); }

CascadeEngine::CascadeEngine(std::vector<std::string> stages)
    : stages_(std::move(stages)) {
  if (stages_.empty()) {
    throw InvalidArgument("CascadeEngine: at least one stage required");
  }
}

std::unique_ptr<CascadeEngine> CascadeEngine::with_stages(
    std::vector<const Engine*> stages) {
  if (stages.empty()) {
    throw InvalidArgument("CascadeEngine: at least one stage required");
  }
  std::vector<std::string> names;
  names.reserve(stages.size());
  for (const Engine* stage : stages) {
    if (stage == nullptr) throw InvalidArgument("CascadeEngine: null stage");
    names.emplace_back(stage->name());
  }
  auto cascade = std::make_unique<CascadeEngine>(std::move(names));
  cascade->preresolved_ = true;
  cascade->resolved_ = std::move(stages);
  return cascade;
}

std::unique_ptr<EngineTask> CascadeEngine::make_task(
    const Query& query, const VerifyContext& context) const {
  if (!preresolved_) resolve_stages();
  return std::make_unique<CascadeTask>(resolved_, query, context);
}

void CascadeEngine::resolve_stages() const {
  std::call_once(resolve_once_, [this] {
    // Built locally and committed atomically: if a stage lookup throws,
    // call_once stays unsatisfied and a later retry must not see (or
    // duplicate) a half-filled cache.
    std::vector<const Engine*> stages;
    stages.reserve(stages_.size());
    for (const std::string& stage : stages_) {
      stages.push_back(&registry().get(stage));
    }
    resolved_ = std::move(stages);
  });
}

}  // namespace fannet::verify
