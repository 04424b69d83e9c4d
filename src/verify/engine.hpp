/// \file
/// \brief Pluggable P2 decision engines (DESIGN.md §4.5).
///
/// Every strategy that can answer the paper's P2 query ("does some noise
/// vector in the box flip the classification?") implements the `Engine`
/// interface and registers itself under a stable string key in the
/// process-wide `EngineRegistry`.  Callers — the FANNet pipeline, the
/// scheduler, benches, tests — select engines by name and never switch on
/// strategy variants, so new backends plug in without touching any
/// consumer.
///
/// An engine is a task factory: `make_task` is the only way it runs
/// (verify/task.hpp, DESIGN.md §12).  `verify` and `verify_with` are
/// conveniences that drive that task to completion.  A task decides its
/// query on the thread that steps it; parallelism lives in the
/// scheduler's batch fan-out (verify/scheduler.hpp).
///
/// Built-in registrations:
///
///     enumerate    exhaustive grid walk                exact    complete
///     interval     interval bound propagation          exact    sound-only
///     symbolic     affine bounds in the noise deltas   exact    sound-only
///     bnb          branch-and-bound input splitting    exact    complete
///     cascade      interval -> symbolic -> bnb         exact    complete
///     explicit-mc  SMV translation + explicit-state MC exact    complete
///     sat          CNF bit-blast + CDCL + inprocessing exact    complete
///
/// The MC/SAT-backed engines live in src/mc (they need the SMV translation
/// layer); the registry pulls them in at startup via
/// `detail::register_translation_engines`.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "verify/budget.hpp"
#include "verify/query.hpp"

namespace fannet::verify {

class EngineTask;

/// Per-call execution context the scheduler threads down to engines
/// through `Engine::make_task`.  Every engine decides one query on one
/// thread; parallelism lives in the scheduler's batch fan-out.  Engines
/// that evaluate grids of noise vectors (enumerate, bnb's flips-everywhere
/// drains) honour `batch_hint` by staging that many SoA lanes per forward
/// pass (DESIGN.md §10); everything else ignores it.  Verdicts, witnesses
/// and `work` are identical for every value — only wall-clock depends on
/// it.
struct VerifyContext {
  /// SoA evaluation lanes per batched forward pass: 0 = auto
  /// (nn::BatchEvaluator::kAutoBatch), 1 = the scalar reference path.
  std::size_t batch_hint = 0;
  /// Unified resource budget (verify/budget.hpp): wall-clock deadline,
  /// box/conflict/propagation caps, cooperative cancellation.  Engines map
  /// the caps they understand onto their own limits and answer kUnknown
  /// with resource_limited set when one fires — never a hang, never a
  /// wrong verdict.  Default = unlimited (engine defaults apply).
  Budget budget = {};
};

/// Capability descriptor for one engine, surfaced by `Engine::caps()` —
/// what the CLI's `engines` table prints and what a serving layer uses for
/// admission control.
struct EngineCaps {
  bool complete = false;     ///< mirrors Engine::complete()
  /// Cooperatively honours Budget::deadline / Budget::cancel with bounded
  /// overshoot (native-task engines).  Engines without it run a one-shot
  /// task: an expired budget still finalizes it before its step, but a
  /// started step runs to completion.
  bool deadline = false;
  bool budget = false;       ///< honours a work cap (boxes / conflicts)
  bool native_task = false;  ///< make_task checkpoints between steps
};

/// One P2 decision strategy.  Implementations must be stateless or
/// internally synchronized: the scheduler calls `make_task` concurrently.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Stable registry key ("bnb", "cascade", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Complete engines never answer kUnknown from the decision procedure
  /// itself (a kUnknown can still surface when a *resource budget* runs
  /// out, e.g. bnb's box cap); sound-only engines answer kRobust or
  /// kUnknown but never produce a wrong verdict.  This flag also selects
  /// the query-cache capability class (verify/query_cache.hpp): all
  /// complete engines share cached verdicts.
  [[nodiscard]] virtual bool complete() const noexcept = 0;

  /// Capability introspection; the default claims nothing beyond
  /// completeness.  Engines with native tasks override.
  [[nodiscard]] virtual EngineCaps caps() const noexcept {
    return EngineCaps{.complete = complete()};
  }

  /// Creates a resumable task for the query (verify/task.hpp) — the one
  /// way an engine runs.  Engines with long-running loops return a native
  /// task that checkpoints between steps; the others return a one-shot
  /// task over their decision function (`make_one_shot_task`).  The query
  /// is copied; the network it points to (and the context's cancel token,
  /// if any) must outlive the task.
  [[nodiscard]] virtual std::unique_ptr<EngineTask> make_task(
      const Query& query, const VerifyContext& context) const = 0;

  /// Decides the query exactly and deterministically by running
  /// `make_task(query, {})` to completion (`run_task`).
  /// \param query a validated P2 query (see Query::validate()).
  /// \return the verdict, a counterexample iff kVulnerable, and the
  ///   engine-specific `work` effort counter.
  [[nodiscard]] virtual VerifyResult verify(const Query& query) const;

  /// `run_task(*this, query, context)`.  No engine in src/ overrides
  /// either convenience; they stay virtual for pass-through wrappers such
  /// as the benchmark's traced engine (perf/src/traced_engine.cpp).
  [[nodiscard]] virtual VerifyResult verify_with(
      const Query& query, const VerifyContext& context) const;
};

/// String-keyed engine registry.  Thread-safe; lookups return references
/// that stay valid for the registry's lifetime.
class EngineRegistry {
 public:
  /// Registers `engine` under `engine->name()`.  Throws InvalidArgument on
  /// a duplicate name.
  void add(std::unique_ptr<Engine> engine);

  /// Throws InvalidArgument (listing the known names) if absent.
  [[nodiscard]] const Engine& get(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable util::Mutex mutex_;
  /// Entries are never removed, so the Engine references handed out by
  /// get() stay valid without the lock; the map structure itself is
  /// touched only under mutex_.
  std::map<std::string, std::unique_ptr<Engine>, std::less<>> engines_
      FANNET_GUARDED_BY(mutex_);
};

/// The process-wide registry, pre-seeded with every built-in engine on
/// first use.
[[nodiscard]] EngineRegistry& registry();

/// Shorthand for `registry().get(name)`.
[[nodiscard]] const Engine& engine(std::string_view name);

/// Portfolio engine: runs cheap sound-only stages in order and falls back
/// to a complete engine only when they answer kUnknown.  Work (and the
/// verdict) is exactly that of the first stage to decide; `work`
/// accumulates across the stages that ran.
class CascadeEngine final : public Engine {
 public:
  /// Stages are registry names, tried in order; the last one should be
  /// complete for the cascade itself to be complete.
  explicit CascadeEngine(std::vector<std::string> stages = {"interval",
                                                            "symbolic",
                                                            "bnb"});

  /// Injected-stage portfolio: the engines are used directly, bypassing
  /// the registry — for portfolios composed outside it (tests, custom
  /// pipelines) so they never have to pollute the process-wide registry.
  /// The pointed-to engines must outlive the cascade.  (A named factory,
  /// not a constructor overload: a braced list of string literals would
  /// otherwise be ambiguous against the registry-name constructor; by
  /// pointer because the resolve-once flag makes the type immovable.)
  [[nodiscard]] static std::unique_ptr<CascadeEngine> with_stages(
      std::vector<const Engine*> stages);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "cascade";
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  /// Deadline/budget support is inherited from the stages (the final bnb
  /// stage polls them natively).
  [[nodiscard]] EngineCaps caps() const noexcept override {
    return EngineCaps{.complete = true,
                      .deadline = true,
                      .budget = true,
                      .native_task = true};
  }
  /// Staged pipeline task: one sub-task per stage (each stage's own task),
  /// advanced on kUnknown with work accumulated across stages.  Every
  /// stage gets the whole context.
  [[nodiscard]] std::unique_ptr<EngineTask> make_task(
      const Query& query, const VerifyContext& context) const override;

  [[nodiscard]] const std::vector<std::string>& stages() const noexcept {
    return stages_;
  }

 private:
  /// Registry lookup of `stages_` into `resolved_` (first call only).
  void resolve_stages() const;

  std::vector<std::string> stages_;
  /// True when the stages were injected as pointers (already resolved).
  bool preresolved_ = false;
  /// Stage engines resolved on first use (registry entries are stable for
  /// the process lifetime), so the per-query hot path takes no lock.
  mutable std::once_flag resolve_once_;
  mutable std::vector<const Engine*> resolved_;
};

namespace detail {
/// Defined in src/mc/engine_adapters.cpp: registers the SMV-translation
/// backed engines ("explicit-mc", "sat").  Declared here so the
/// registry can seed them without a header dependency on the MC layer.
void register_translation_engines(EngineRegistry& registry);
}  // namespace detail

}  // namespace fannet::verify
