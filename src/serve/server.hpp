/// \file
/// \brief `fannet_serve` — the long-running verification service
///   (DESIGN.md §14, docs/serve.md).
///
/// A `Server` owns a fleet of quantized networks loaded once at startup and
/// answers P2 verification queries and analysis requests (tolerance
/// descents, sensitivity probes, weight-fault scans) over a TCP socket
/// speaking the length-prefixed JSON protocol (serve/protocol.hpp).  The
/// pieces that make it a *service* rather than a CLI in a loop:
///
///   - one process-wide `QueryCache` shared by every connection, so a
///     verdict decided for one client answers the next client's identical
///     query from memory;
///   - one process-wide `ThreadBudget`: each in-flight request constructs
///     its own (cheap, fork-join) `verify::Scheduler` but draws its worker
///     grant from the shared budget, so N concurrent clients share the
///     machine instead of oversubscribing it N-fold;
///   - per-request deadlines (`deadline_ms`, falling back to the server
///     default) armed through `SchedulerOptions::deadline_ms` for each
///     dispatched query (each batch item, each tolerance or sensitivity
///     probe) — one slow request expires alone, it never stalls its
///     neighbours;
///   - cancel-on-disconnect: each connection runs a reader thread and a
///     worker thread; when the reader sees EOF it cancels the worker's
///     active `BatchControl`, so a vanished client's request — a verify, a
///     batch, or a tolerance or sensitivity probe chain — stops at the next
///     task-step boundary instead of running to completion;
///   - capability-based admission control: requests that will dispatch a
///     *complete* engine (Engine::caps().complete) are rejected with a
///     structured `saturated` error (and a retry_after_ms hint) once the
///     across-session heavy-request count reaches `max_inflight`;
///     introspection is always admitted;
///   - graceful drain: `request_drain()` stops accepting connections and
///     new requests, lets queued work finish, and `wait()` joins every
///     thread — the SIGTERM path of tools/fannet_serve.cpp.
///
/// Everything here is transport-thin: request execution delegates to the
/// same scheduler/engine/analysis substrate the CLI uses.  One `Dispatch`
/// per engine-dispatching request holds its worker grant and control and
/// decides every query as a `run_all`; the tolerance and sensitivity
/// handlers run the core probe chains (`core::descend_sample`,
/// `core::directional_probe`, `core::solo_flip`) through it, so responses
/// are bit-identical to direct library calls (the serve integration tests
/// and bench_serve gate exactly that).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/casestudy.hpp"
#include "la/matrix.hpp"
#include "nn/quantized.hpp"
#include "serve/protocol.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"

namespace fannet::serve {

/// One served network plus the sample set its set-level analyses
/// (weight_faults) run against.
struct ServeModel {
  std::string name;
  nn::QuantizedNetwork net;
  la::Matrix<util::i64> inputs;  ///< test inputs (weight-fault scans)
  std::vector<int> labels;       ///< test labels, one per input row
};

/// The default fleet: the paper's §V case study under its small-cohort
/// test configuration, registered as "casestudy".  `full` loads the full
/// 7129-gene cohort instead (slower; the daemon's production default).
[[nodiscard]] std::vector<ServeModel> default_fleet(bool full = false);

/// Server construction-time configuration.
struct ServeOptions {
  /// TCP port to bind on 127.0.0.1; 0 = ephemeral (query via
  /// Server::port() — how the in-process test harness connects).
  std::uint16_t port = 0;
  /// Process-wide worker budget shared by all in-flight requests;
  /// 0 = one per hardware thread.
  std::size_t threads = 0;
  /// Admission-control ceiling on concurrently queued-or-executing
  /// complete-engine requests across all connections; 0 = 2x threads.
  std::size_t max_inflight = 0;
  /// Deadline applied to requests that carry no `deadline_ms` of their
  /// own; 0 = none.
  std::uint64_t default_deadline_ms = 0;
  /// Per-frame payload cap; clamped to kDefaultMaxFrameBytes.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Hint returned with `saturated` rejections.
  std::uint64_t retry_after_ms = 100;
  /// Mid-frame stall budget (slowloris defense); 0 disables.
  std::uint64_t stall_ms = 5000;
  /// Upper bound on `batch` request items (and array fields generally).
  std::size_t max_batch_items = 4096;
  /// Shared verdict cache; null runs uncached.  Caller retains ownership.
  verify::QueryCache* cache = nullptr;
  /// Task-step granularity forwarded to every scheduler (0 = default).
  /// Smaller steps tighten deadline overshoot and cancel latency.
  std::uint64_t step_work = 0;
};

/// Monotone counters, snapshotted by Server::stats() (and served to
/// clients by the `stats` request).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests = 0;           ///< well-formed requests admitted
  std::uint64_t results = 0;            ///< `result` frames written
  std::uint64_t errors = 0;             ///< `error` frames written
  std::uint64_t rejected_saturated = 0; ///< admission-control rejections
  std::uint64_t cancelled_disconnect = 0;  ///< requests cancelled by EOF
  std::uint64_t deadline_expired = 0;   ///< queries expired across requests
  std::uint64_t cache_hits = 0;         ///< scheduler-reported, all requests
  std::uint64_t cache_misses = 0;
  std::uint64_t progress_frames = 0;
};

/// Counting semaphore over the server's worker pool: every in-flight
/// request acquires a grant (blocking until at least one worker frees up)
/// and sizes its scheduler to the grant, so concurrent requests divide the
/// machine instead of each assuming it is alone.
class ThreadBudget {
 public:
  explicit ThreadBudget(std::size_t total) : total_(total), free_(total) {}

  /// Blocks until at least one worker is free, then takes
  /// min(want, free, total) workers and returns the grant (>= 1).
  [[nodiscard]] std::size_t acquire(std::size_t want);
  /// Returns `grant` workers to the pool.
  void release(std::size_t grant);

  [[nodiscard]] std::size_t total() const noexcept { return total_; }

 private:
  const std::size_t total_;
  util::Mutex mutex_;
  util::CondVar cv_;
  std::size_t free_ FANNET_GUARDED_BY(mutex_);
};

/// The service.  Construct with a fleet, `start()`, then `wait()` (blocks
/// until a drain completes).  Thread-safe: `request_drain()` and `stats()`
/// may be called from any thread (including a signal-watcher thread).
class Server {
 public:
  Server(std::vector<ServeModel> fleet, ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:port, listens, and spawns the accept loop.  Throws
  /// util::Error when the socket cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0 to the actual
  /// ephemeral port).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Begins a graceful drain: stop accepting connections, answer new
  /// requests on existing connections with `shutting_down`, cancel nothing
  /// already queued — queued work finishes and its responses are written.
  /// Idempotent, safe from any thread.
  void request_drain();

  /// Blocks until the drain completes and every session thread is joined.
  void wait();

  /// request_drain() + wait().  Also runs from the destructor, so a Server
  /// going out of scope never leaks a thread.
  void stop();

  [[nodiscard]] ServerStats stats() const;

 private:
  struct Session;
  /// RAII execution context of one engine-dispatching request: its worker
  /// grant, its BatchControl registered on the session (so the reader
  /// thread can cancel it on disconnect) and its counters (defined in
  /// server.cpp with the Session layout).
  class Dispatch;

  void accept_loop();
  void reader_loop(Session& session);
  void worker_loop(Session& session);

  /// Executes one admitted request and writes its frames.  Never throws:
  /// engine exceptions become `internal` error frames.
  void execute(Session& session, const Request& request);

  /// Request handlers (each returns the `result` body or throws — the
  /// caller maps exceptions onto error frames).
  [[nodiscard]] Json handle_verify(Session& session, const Request& request);
  [[nodiscard]] Json handle_batch(Session& session, const Request& request);
  [[nodiscard]] Json handle_tolerance(Session& session,
                                      const Request& request);
  [[nodiscard]] Json handle_sensitivity(Session& session,
                                        const Request& request);
  [[nodiscard]] Json handle_weight_faults(const Request& request);
  [[nodiscard]] Json handle_models() const;
  [[nodiscard]] Json handle_engines() const;
  [[nodiscard]] Json handle_stats() const;

  [[nodiscard]] const ServeModel& model_or_throw(const std::string& name) const;

  /// Takes a worker grant from the shared budget: `width` (the workers the
  /// request can use at once), capped at the pool divided across the
  /// currently in-flight heavy requests (blocks while all workers are
  /// taken).  Pair with budget_->release(grant).
  [[nodiscard]] std::size_t acquire_grant(std::size_t width);

  /// True when the request's engine dispatch is subject to admission
  /// control (complete engines saturate the queue; sound-only screens and
  /// introspection always pass).
  [[nodiscard]] bool needs_admission(const Request& request) const;

  void reap_finished_sessions();

  std::vector<ServeModel> fleet_;
  ServeOptions options_;
  std::size_t worker_total_ = 1;
  std::unique_ptr<ThreadBudget> budget_;
  std::uint16_t port_ = 0;
  /// Atomic: request_drain() (any thread) shuts it down while the accept
  /// loop reads it; the actual close() waits for the accept thread to
  /// join so the descriptor can never be reused under a racing accept().
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> joined_{false};

  mutable util::Mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_
      FANNET_GUARDED_BY(sessions_mutex_);

  /// Heavy (complete-engine) requests queued or executing, fleet-wide.
  std::atomic<std::size_t> heavy_inflight_{0};

  // stats counters (relaxed; snapshotted by stats())
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> results_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> rejected_saturated_{0};
  std::atomic<std::uint64_t> cancelled_disconnect_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> progress_frames_{0};
};

}  // namespace fannet::serve
