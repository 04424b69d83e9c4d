#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <span>
#include <utility>

#include "core/analysis.hpp"
#include "core/fannet.hpp"
#include "core/faults.hpp"
#include "util/error.hpp"
#include "verify/engine.hpp"

namespace fannet::serve {

using verify::NoiseBox;
using verify::Query;
using verify::Verdict;
using verify::VerifyResult;

namespace {

/// Handler-to-error-frame carrier: handlers throw it to pick the exact
/// wire error code (execute() maps generic exceptions onto kBadRequest /
/// kInternal).
struct ServeError {
  ErrorCode code;
  std::string message;
};

/// SO_RCVTIMEO poll tick: how often a blocked read_frame re-checks its
/// stall budget (and how quickly a drain's SHUT_RD is noticed at worst).
constexpr long kRecvTickMicros = 100000;  // 100 ms

void set_recv_tick(int fd) {
  timeval tv{};
  tv.tv_sec = 0;
  tv.tv_usec = kRecvTickMicros;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  // Result frames are small and latency-bound: without TCP_NODELAY, Nagle
  // against the peer's delayed ACK adds ~40ms to every response.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::string fingerprint_hex(std::uint64_t fp) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[fp & 0xF];
    fp >>= 4;
  }
  return out;
}

}  // namespace

std::vector<ServeModel> default_fleet(bool full) {
  const core::CaseStudyConfig config =
      full ? core::CaseStudyConfig{} : core::small_case_study_config();
  core::CaseStudy study = core::build_case_study(config);
  std::vector<ServeModel> fleet;
  fleet.push_back(ServeModel{.name = "casestudy",
                             .net = std::move(study.qnet),
                             .inputs = std::move(study.test_x),
                             .labels = std::move(study.test_y)});
  return fleet;
}

std::size_t ThreadBudget::acquire(std::size_t want) {
  want = std::clamp<std::size_t>(want, 1, total_);
  const util::MutexLock lock(mutex_);
  cv_.wait(mutex_, [this]() FANNET_REQUIRES(mutex_) { return free_ > 0; });
  const std::size_t grant = std::min(want, free_);
  free_ -= grant;
  return grant;
}

void ThreadBudget::release(std::size_t grant) {
  {
    const util::MutexLock lock(mutex_);
    free_ = std::min(free_ + grant, total_);
  }
  cv_.notify_all();
}

/// Per-connection state: a reader thread (frame parse + admission +
/// enqueue) and a worker thread (execute + write — the connection's single
/// writer).  The reader cancels `active` on EOF so a vanished client's
/// batch stops at the next task-step boundary.
struct Server::Session {
  int fd = -1;
  std::thread reader;
  std::thread worker;

  util::Mutex mutex;
  util::CondVar cv;

  /// One queued unit of work: either an admitted request to execute, or a
  /// pre-rendered frame (protocol error, shutdown notice) to write.
  struct Pending {
    std::optional<Request> request;
    std::string payload;      ///< pre-rendered frame when !request
    bool heavy = false;       ///< holds a heavy_inflight_ slot
    bool close_after = false; ///< stream unusable after this frame
  };
  std::deque<Pending> queue FANNET_GUARDED_BY(mutex);
  bool closed FANNET_GUARDED_BY(mutex) = false;     ///< no more input
  bool peer_gone FANNET_GUARDED_BY(mutex) = false;  ///< stop writing
  /// Client-initiated EOF (as opposed to a server drain): queued and
  /// future work for this session is cancelled, not finished.
  bool disconnected FANNET_GUARDED_BY(mutex) = false;
  verify::BatchControl* active FANNET_GUARDED_BY(mutex) = nullptr;

  std::atomic<bool> finished{false};  ///< both loops done (reap signal)
};

/// The execution context of one request that dispatches an engine (verify,
/// batch, tolerance, sensitivity), alive for the request's lifetime.  It
/// holds the request's worker grant and registers the request's
/// BatchControl on its session, so the reader's disconnect cancel reaches
/// every query the request decides.  Registration and the disconnect check
/// happen under one lock, so a disconnect always lands: either the reader
/// sees `active` and cancels it directly, or the constructor sees
/// `disconnected` and self-cancels.  Every query is decided by a `run_all`
/// under that control on a grant-sized scheduler.  An engine decides one
/// query on one thread, so the grant is sized to `width`, the queries the
/// request decides at once: 1 for a verify request and the one-at-a-time
/// tolerance and sensitivity probe chains, the item count for a batch.
/// The request's cache and deadline counts reach the server counters when
/// it ends, before its result frame is written.
class Server::Dispatch {
 public:
  Dispatch(Server& server, Session& session, const Request& request,
           const verify::Engine& engine, std::size_t width = 1)
      : server_(server),
        session_(session),
        engine_(engine),
        grant_(server.acquire_grant(width)),
        scheduler_({.threads = grant_,
                    .cache = server.options_.cache,
                    .deadline_ms = request.deadline_ms != 0
                                       ? request.deadline_ms
                                       : server.options_.default_deadline_ms,
                    .step_work = server.options_.step_work}) {
    const util::MutexLock lock(session_.mutex);
    session_.active = &control_;
    if (session_.disconnected || session_.peer_gone) {
      // The client vanished while this request waited for a worker grant:
      // the reader found no active control to cancel, so the disconnect is
      // accounted for here instead (the two paths are disjoint — the
      // reader only counts when `active` was already registered).
      control_.cancel();
      server_.cancelled_disconnect_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~Dispatch() {
    {
      const util::MutexLock lock(session_.mutex);
      session_.active = nullptr;
    }
    server_.budget_->release(grant_);
    server_.cache_hits_.fetch_add(hits_, std::memory_order_relaxed);
    server_.cache_misses_.fetch_add(misses_, std::memory_order_relaxed);
    server_.deadline_expired_.fetch_add(expired_, std::memory_order_relaxed);
  }
  Dispatch(const Dispatch&) = delete;
  Dispatch& operator=(const Dispatch&) = delete;

  /// Decides `queries` as one batch under the request's control.
  [[nodiscard]] std::vector<VerifyResult> run(std::span<const Query> queries) {
    verify::BatchStats stats;
    std::vector<VerifyResult> results =
        scheduler_.run_all(queries, engine_, &stats, &control_);
    hits_ += stats.cache_hits;
    misses_ += stats.cache_misses;
    expired_ += stats.deadline_expired;
    return results;
  }

  /// Decides one query: the `core::Decide` of the core probe chains.
  [[nodiscard]] core::Decide decider() {
    return [this](const Query& query) {
      return run(std::span<const Query>(&query, 1)).front();
    };
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return control_.cancelled();
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return misses_;
  }
  [[nodiscard]] std::uint64_t deadline_expired() const noexcept {
    return expired_;
  }

 private:
  Server& server_;
  Session& session_;
  const verify::Engine& engine_;
  const std::size_t grant_;
  verify::BatchControl control_;
  const verify::Scheduler scheduler_;
  std::uint64_t hits_ = 0, misses_ = 0, expired_ = 0;
};

Server::Server(std::vector<ServeModel> fleet, ServeOptions options)
    : fleet_(std::move(fleet)), options_(options) {
  if (fleet_.empty()) throw InvalidArgument("serve: empty model fleet");
  worker_total_ = options_.threads != 0
                      ? options_.threads
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  if (options_.max_inflight == 0) options_.max_inflight = 2 * worker_total_;
  options_.max_frame_bytes =
      std::clamp<std::size_t>(options_.max_frame_bytes, 16,
                              kDefaultMaxFrameBytes);
  budget_ = std::make_unique<ThreadBudget>(worker_total_);
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) {
    throw InvalidArgument("serve: start() called twice");
  }
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) throw Error("serve: socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int err = errno;
    ::close(listen_fd);
    throw Error("serve: bind() failed: " + std::string(std::strerror(err)));
  }
  if (::listen(listen_fd, 64) < 0) {
    ::close(listen_fd);
    throw Error("serve: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_.store(listen_fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd = ::accept(listen_fd_.load(std::memory_order_acquire),
                            reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listen socket closed (drain) or fatal accept error: stop accepting.
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    set_recv_tick(fd);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);

    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session& ref = *session;
    {
      const util::MutexLock lock(sessions_mutex_);
      sessions_.push_back(std::move(session));
    }
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
    ref.worker = std::thread([this, &ref] { worker_loop(ref); });
    reap_finished_sessions();
  }
}

void Server::reap_finished_sessions() {
  std::vector<std::unique_ptr<Session>> done;
  {
    const util::MutexLock lock(sessions_mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& session : done) {
    if (session->reader.joinable()) session->reader.join();
    if (session->worker.joinable()) session->worker.join();
    if (session->fd >= 0) ::close(session->fd);
  }
}

bool Server::needs_admission(const Request& request) const {
  if (request.type == "weight_faults") return true;  // always a full scan
  if (request.type != "verify" && request.type != "batch" &&
      request.type != "tolerance" && request.type != "sensitivity") {
    return false;  // introspection (and unknown types, rejected later)
  }
  if (!verify::registry().contains(request.engine)) return false;
  return verify::engine(request.engine).caps().complete;
}

void Server::reader_loop(Session& session) {
  std::string payload;
  for (;;) {
    const FrameStatus status = read_frame(
        session.fd, options_.max_frame_bytes, options_.stall_ms, payload);

    if (status == FrameStatus::kClosed || status == FrameStatus::kTorn) {
      // EOF.  A *drain* closes the read side server-side: accepted work
      // must still finish and be answered.  A client disconnect means
      // nobody is listening: cancel the active batch and flag the session
      // so later-dequeued requests self-cancel too.
      const bool drain = draining_.load(std::memory_order_acquire);
      const util::MutexLock lock(session.mutex);
      session.closed = true;
      if (status == FrameStatus::kTorn) session.peer_gone = true;
      if (!drain || status == FrameStatus::kTorn) {
        session.disconnected = true;
        if (session.active != nullptr) {
          session.active->cancel();
          cancelled_disconnect_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      session.cv.notify_all();
      return;
    }

    if (status != FrameStatus::kOk) {
      // Protocol violation: answer with a structured error, then close
      // (after an oversized/stalled frame the stream has lost framing).
      Session::Pending item;
      item.close_after = true;
      switch (status) {
        case FrameStatus::kOversized:
          item.payload = make_error(0, ErrorCode::kOversized,
                                    "frame exceeds the server's size cap");
          break;
        case FrameStatus::kBadLength:
          item.payload =
              make_error(0, ErrorCode::kBadFrame, "zero-length frame");
          break;
        default:
          item.payload = make_error(0, ErrorCode::kTimeout,
                                    "stalled mid-frame past the stall budget");
          break;
      }
      const util::MutexLock lock(session.mutex);
      session.closed = true;
      session.queue.push_back(std::move(item));
      session.cv.notify_all();
      return;
    }

    Session::Pending item;
    try {
      item.request = parse_request(payload, options_.max_batch_items);
    } catch (const ParseError& e) {
      const std::string_view what = e.what();
      const ErrorCode code = what.substr(0, 5) == "json:"
                                 ? ErrorCode::kBadJson
                                 : ErrorCode::kBadRequest;
      item.request.reset();
      item.payload = make_error(0, code, what);
    }

    if (item.request.has_value()) {
      if (draining_.load(std::memory_order_acquire)) {
        item.payload = make_error(item.request->id, ErrorCode::kShuttingDown,
                                  "server is draining");
        item.request.reset();
      } else if (needs_admission(*item.request)) {
        const std::size_t inflight =
            heavy_inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (inflight > options_.max_inflight) {
          heavy_inflight_.fetch_sub(1, std::memory_order_acq_rel);
          rejected_saturated_.fetch_add(1, std::memory_order_relaxed);
          item.payload = make_error(
              item.request->id, ErrorCode::kSaturated,
              "complete-engine queue is full", options_.retry_after_ms);
          item.request.reset();
        } else {
          item.heavy = true;
        }
      }
    }
    if (item.request.has_value()) {
      requests_.fetch_add(1, std::memory_order_relaxed);
    }
    const util::MutexLock lock(session.mutex);
    session.queue.push_back(std::move(item));
    session.cv.notify_all();
  }
}

void Server::worker_loop(Session& session) {
  for (;;) {
    Session::Pending item;
    {
      const util::MutexLock lock(session.mutex);
      session.cv.wait(session.mutex, [&]() FANNET_REQUIRES(session.mutex) {
        return !session.queue.empty() || session.closed;
      });
      if (session.queue.empty()) break;  // closed and drained
      item = std::move(session.queue.front());
      session.queue.pop_front();
    }

    bool close_now = item.close_after;
    if (item.request.has_value()) {
      bool skip;
      {
        const util::MutexLock lock(session.mutex);
        skip = session.peer_gone;
      }
      if (!skip) execute(session, *item.request);
      if (item.heavy) {
        heavy_inflight_.fetch_sub(1, std::memory_order_acq_rel);
      }
    } else {
      bool gone;
      {
        const util::MutexLock lock(session.mutex);
        gone = session.peer_gone;
      }
      if (!gone) {
        if (write_frame(session.fd, item.payload)) {
          errors_.fetch_add(1, std::memory_order_relaxed);
        } else {
          const util::MutexLock lock(session.mutex);
          session.peer_gone = true;
        }
      }
    }
    if (close_now) {
      const util::MutexLock lock(session.mutex);
      session.closed = true;
      session.peer_gone = true;
    }
  }
  // All responses are written (this thread is the connection's single
  // writer), so send the client its FIN and force EOF on a reader still
  // parked in recv (e.g. after a close_after error frame), then flag for
  // the reaper.  The fd itself is closed when the session is reaped.
  (void)::shutdown(session.fd, SHUT_RDWR);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  session.finished.store(true, std::memory_order_release);
}

const ServeModel& Server::model_or_throw(const std::string& name) const {
  for (const ServeModel& model : fleet_) {
    if (model.name == name) return model;
  }
  throw ServeError{ErrorCode::kUnknownModel,
                   "unknown model '" + name + "'"};
}

namespace {

const verify::Engine& engine_or_throw(const std::string& name) {
  if (!verify::registry().contains(name)) {
    throw ServeError{ErrorCode::kUnknownEngine,
                     "unknown engine '" + name + "'"};
  }
  return verify::engine(name);
}

/// Resolves a request box against the query's noise dimensionality:
/// explicit lo/hi pass through (Query::validate rejects a shape mismatch),
/// bare `range` expands to the symmetric box.
NoiseBox resolve_box(const RequestBox& box, std::size_t dims) {
  if (!box.lo.empty()) return NoiseBox{box.lo, box.hi};
  return NoiseBox::symmetric(dims, box.range);
}

}  // namespace

std::size_t Server::acquire_grant(std::size_t width) {
  const std::size_t inflight = std::max<std::size_t>(
      1, heavy_inflight_.load(std::memory_order_relaxed));
  const std::size_t share = std::max<std::size_t>(1, worker_total_ / inflight);
  return budget_->acquire(std::min(share, width));
}

void Server::execute(Session& session, const Request& request) {
  std::string frame;
  try {
    if (request.type == "ping") {
      frame = make_pong(request.id);
    } else if (request.type == "models") {
      frame = make_result(request.id, handle_models());
    } else if (request.type == "engines") {
      frame = make_result(request.id, handle_engines());
    } else if (request.type == "stats") {
      frame = make_result(request.id, handle_stats());
    } else if (request.type == "verify") {
      frame = make_result(request.id, handle_verify(session, request));
    } else if (request.type == "batch") {
      frame = make_result(request.id, handle_batch(session, request));
    } else if (request.type == "tolerance") {
      frame = make_result(request.id, handle_tolerance(session, request));
    } else if (request.type == "sensitivity") {
      frame = make_result(request.id, handle_sensitivity(session, request));
    } else if (request.type == "weight_faults") {
      frame = make_result(request.id, handle_weight_faults(request));
    } else {
      throw ServeError{ErrorCode::kBadRequest,
                       "unknown request type '" + request.type + "'"};
    }
  } catch (const ServeError& e) {
    frame = make_error(request.id, e.code, e.message);
  } catch (const InvalidArgument& e) {
    frame = make_error(request.id, ErrorCode::kBadRequest, e.what());
  } catch (const ParseError& e) {
    frame = make_error(request.id, ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    frame = make_error(request.id, ErrorCode::kInternal, e.what());
  }

  bool gone;
  {
    const util::MutexLock lock(session.mutex);
    gone = session.peer_gone;
  }
  if (gone) return;
  // Count before writing: a client holding its reply must find it already
  // reflected in `stats` (the race suite and the smoke driver both snapshot
  // counters right after the last response arrives).  On a failed write the
  // frame was still produced; the disconnect shows up in peer_gone and
  // cancelled_disconnect, not by rolling these back.
  // Crude but adequate: an `error` frame is exactly one whose payload says
  // "type":"error" at the top level (our own serializer wrote it).
  if (frame.find("\"type\":\"error\"") != std::string::npos) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  } else {
    results_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!write_frame(session.fd, frame)) {
    const util::MutexLock lock(session.mutex);
    session.peer_gone = true;
  }
}

Json Server::handle_verify(Session& session, const Request& request) {
  const ServeModel& model = model_or_throw(request.model);
  const verify::Engine& eng = engine_or_throw(request.engine);
  const core::Fannet fannet(model.net);
  const Query query = fannet.make_query(
      request.x, request.true_label,
      resolve_box(request.box, request.x.size() + (request.bias_node ? 1 : 0)),
      request.bias_node);

  Dispatch dispatch(*this, session, request, eng);
  const VerifyResult result =
      dispatch.run(std::span<const Query>(&query, 1)).front();
  Json body = verify_result_json(result, dispatch.cache_hits() == 1);
  body.set("model", Json::string(request.model));
  body.set("engine", Json::string(request.engine));
  body.set("deadline_expired", Json::boolean(dispatch.deadline_expired() > 0));
  body.set("cancelled", Json::boolean(dispatch.cancelled()));
  return body;
}

Json Server::handle_batch(Session& session, const Request& request) {
  const ServeModel& model = model_or_throw(request.model);
  const verify::Engine& eng = engine_or_throw(request.engine);
  const core::Fannet fannet(model.net);
  const std::size_t dims =
      request.x.size() + (request.bias_node ? 1 : 0);

  std::vector<Query> queries;
  queries.reserve(request.items.size());
  for (const RequestBox& box : request.items) {
    queries.push_back(fannet.make_query(request.x, request.true_label,
                                        resolve_box(box, dims),
                                        request.bias_node));
  }

  Dispatch dispatch(*this, session, request, eng, queries.size());
  Json items = Json::array();
  // Chunked execution so long sweeps can stream progress frames between
  // scheduler calls; chunking never changes the per-item results (each
  // query is independent and results are slot-addressed).
  const std::size_t chunk = request.progress_every != 0
                                ? request.progress_every
                                : queries.size();
  for (std::size_t begin = 0; begin < queries.size(); begin += chunk) {
    const std::size_t count = std::min(chunk, queries.size() - begin);
    for (const VerifyResult& r : dispatch.run(
             std::span<const Query>(queries.data() + begin, count))) {
      items.push_back(verify_result_json(r));
    }
    const std::size_t done = begin + count;
    if (request.progress_every != 0 && done < queries.size()) {
      bool gone;
      {
        const util::MutexLock lock(session.mutex);
        gone = session.peer_gone;
      }
      if (!gone &&
          write_frame(session.fd,
                      make_progress(request.id, done, queries.size()))) {
        progress_frames_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  Json body = Json::object();
  body.set("model", Json::string(request.model));
  body.set("engine", Json::string(request.engine));
  body.set("items", std::move(items));
  Json stats = Json::object();
  stats.set("queries",
            Json::integer(static_cast<std::int64_t>(queries.size())));
  stats.set("cache_hits",
            Json::integer(static_cast<std::int64_t>(dispatch.cache_hits())));
  stats.set("cache_misses",
            Json::integer(static_cast<std::int64_t>(dispatch.cache_misses())));
  stats.set("deadline_expired", Json::integer(static_cast<std::int64_t>(
                                    dispatch.deadline_expired())));
  stats.set("cancelled", Json::boolean(dispatch.cancelled()));
  body.set("stats", std::move(stats));
  return body;
}

Json Server::handle_tolerance(Session& session, const Request& request) {
  const ServeModel& model = model_or_throw(request.model);
  const verify::Engine& eng = engine_or_throw(request.engine);
  const core::Fannet fannet(model.net);
  const std::size_t dims =
      request.x.size() + (request.bias_node ? 1 : 0);

  Dispatch dispatch(*this, session, request, eng);
  Json body = Json::object();
  body.set("model", Json::string(request.model));
  body.set("engine", Json::string(request.engine));
  // Base classification first: a sample the net already misclassifies has
  // no tolerance to measure (Fannet::analyze_tolerance's P1 screen).
  const Query base = fannet.make_query(request.x, request.true_label,
                                       NoiseBox::symmetric(dims, 0),
                                       request.bias_node);
  const bool correct =
      verify::classify_under_noise(base, std::vector<int>(dims, 0)) ==
      request.true_label;
  body.set("correct_without_noise", Json::boolean(correct));

  std::uint64_t probes = 0;
  if (correct) {
    const core::DescentOutcome outcome = core::descend_sample(
        fannet, request.x, request.true_label, request.start_range,
        request.bias_node, dispatch.decider());
    probes = outcome.queries;
    if (!outcome.min_flip_range.has_value()) {
      body.set("min_flip_range", Json::null());
    } else {
      body.set("min_flip_range", Json::integer(*outcome.min_flip_range));
      body.set("witness", counterexample_json(*outcome.witness));
      body.set("cancelled", Json::boolean(dispatch.cancelled()));
    }
  }
  body.set("probes", Json::integer(static_cast<std::int64_t>(probes)));
  body.set("cache_hits",
           Json::integer(static_cast<std::int64_t>(dispatch.cache_hits())));
  body.set("deadline_expired", Json::integer(static_cast<std::int64_t>(
                                   dispatch.deadline_expired())));
  return body;
}

Json Server::handle_sensitivity(Session& session, const Request& request) {
  const ServeModel& model = model_or_throw(request.model);
  const verify::Engine& eng = engine_or_throw(request.engine);
  const core::Fannet fannet(model.net);
  const int range = request.box.range;
  if (!request.box.lo.empty()) {
    throw ServeError{ErrorCode::kBadRequest,
                     "sensitivity takes a symmetric 'range', not lo/hi"};
  }
  if (range < 0) {
    throw ServeError{ErrorCode::kBadRequest, "'range' must be >= 0"};
  }

  Dispatch dispatch(*this, session, request, eng);
  Json body = Json::object();
  body.set("model", Json::string(request.model));
  body.set("engine", Json::string(request.engine));
  body.set("node", Json::integer(static_cast<std::int64_t>(request.node)));
  body.set("direction", Json::integer(request.direction));
  if (request.direction != 0) {
    const std::optional<VerifyResult> r = core::directional_probe(
        fannet, request.x, request.true_label, request.node,
        request.direction, range, dispatch.decider());
    body.set("possible", Json::boolean(r.has_value() &&
                                       r->verdict == Verdict::kVulnerable));
    if (r.has_value()) body.set("result", verify_result_json(*r));
  } else {
    const std::optional<int> min_flip =
        core::solo_flip(fannet, request.x, request.true_label, request.node,
                        range, dispatch.decider());
    body.set("min_flip",
             min_flip.has_value() ? Json::integer(*min_flip) : Json::null());
    body.set("cancelled", Json::boolean(dispatch.cancelled()));
  }
  return body;
}

Json Server::handle_weight_faults(const Request& request) {
  const ServeModel& model = model_or_throw(request.model);
  const auto fault_model = core::fault_model_from_name(request.fault_model);
  if (!fault_model.has_value()) {
    throw ServeError{ErrorCode::kBadRequest,
                     "unknown fault_model '" + request.fault_model + "'"};
  }
  if (model.labels.empty()) {
    throw ServeError{ErrorCode::kBadRequest,
                     "model '" + request.model + "' has no sample set"};
  }

  // The fault scan fans its shards across every worker it is granted.
  const std::size_t grant = acquire_grant(worker_total_);
  core::WeightFaultConfig config;
  config.max_percent = request.max_percent;
  config.step = request.step;
  config.model = *fault_model;
  config.threads = grant;
  core::WeightFaultReport report;
  try {
    report = core::analyze_weight_faults(model.net, model.inputs,
                                         model.labels, config);
  } catch (...) {
    budget_->release(grant);
    throw;
  }
  budget_->release(grant);

  Json body = Json::object();
  body.set("model", Json::string(request.model));
  body.set("fault_model",
           Json::string(std::string(core::fault_model_name(*fault_model))));
  body.set("parameters",
           Json::integer(static_cast<std::int64_t>(report.faults.size())));
  body.set("robust_weights",
           Json::integer(static_cast<std::int64_t>(report.robust_weights)));
  body.set("evaluations",
           Json::integer(static_cast<std::int64_t>(report.evaluations)));
  Json fragile = Json::array();
  for (const core::WeightFault& f :
       core::most_fragile_weights(report, 10)) {
    Json entry = Json::object();
    entry.set("layer", Json::integer(static_cast<std::int64_t>(f.layer)));
    entry.set("row", Json::integer(static_cast<std::int64_t>(f.row)));
    if (f.is_bias()) {
      entry.set("col", Json::string("bias"));
    } else {
      entry.set("col", Json::integer(static_cast<std::int64_t>(f.col)));
    }
    entry.set("min_flip_percent", f.min_flip_percent.has_value()
                                      ? Json::integer(*f.min_flip_percent)
                                      : Json::null());
    entry.set("flip_sign", Json::integer(f.flip_sign));
    entry.set("flipped_sample",
              Json::integer(static_cast<std::int64_t>(f.flipped_sample)));
    fragile.push_back(std::move(entry));
  }
  body.set("most_fragile", std::move(fragile));
  return body;
}

Json Server::handle_models() const {
  Json models = Json::array();
  for (const ServeModel& model : fleet_) {
    Json entry = Json::object();
    entry.set("name", Json::string(model.name));
    entry.set("inputs", Json::integer(static_cast<std::int64_t>(
                            model.net.layers().front().in_dim())));
    entry.set("outputs", Json::integer(static_cast<std::int64_t>(
                             model.net.layers().back().out_dim())));
    entry.set("layers",
              Json::integer(static_cast<std::int64_t>(model.net.depth())));
    entry.set("samples",
              Json::integer(static_cast<std::int64_t>(model.labels.size())));
    entry.set("fingerprint",
              Json::string(fingerprint_hex(model.net.fingerprint())));
    // The canonical probe point: the first P1-correct sample, so a wire
    // client can issue meaningful P2 queries (and the CI smoke driver can
    // provoke a real deadline expiry) without shipping the dataset.
    Json probe = Json::null();
    if (!model.labels.empty()) {
      const core::Fannet fannet(model.net);
      const std::vector<std::size_t> bad =
          fannet.validate_p1(model.inputs, model.labels);
      for (std::size_t s = 0; s < model.inputs.rows(); ++s) {
        if (std::find(bad.begin(), bad.end(), s) != bad.end()) continue;
        Json x = Json::array();
        for (const util::i64 v : model.inputs.row(s)) {
          x.push_back(Json::integer(v));
        }
        probe = Json::object();
        probe.set("x", std::move(x));
        probe.set("label", Json::integer(model.labels[s]));
        break;
      }
    }
    entry.set("probe", std::move(probe));
    models.push_back(std::move(entry));
  }
  Json body = Json::object();
  body.set("models", std::move(models));
  return body;
}

Json Server::handle_engines() const {
  Json engines = Json::array();
  for (const std::string& name : verify::registry().names()) {
    const verify::EngineCaps caps = verify::engine(name).caps();
    Json entry = Json::object();
    entry.set("name", Json::string(name));
    entry.set("complete", Json::boolean(caps.complete));
    entry.set("deadline", Json::boolean(caps.deadline));
    entry.set("budget", Json::boolean(caps.budget));
    entry.set("native_task", Json::boolean(caps.native_task));
    engines.push_back(std::move(entry));
  }
  Json body = Json::object();
  body.set("engines", std::move(engines));
  return body;
}

Json Server::handle_stats() const {
  const ServerStats snapshot = stats();
  Json body = Json::object();
  const auto put = [&body](const char* key, std::uint64_t value) {
    body.set(key, Json::integer(static_cast<std::int64_t>(value)));
  };
  put("connections_accepted", snapshot.connections_accepted);
  put("connections_active", snapshot.connections_active);
  put("requests", snapshot.requests);
  put("results", snapshot.results);
  put("errors", snapshot.errors);
  put("rejected_saturated", snapshot.rejected_saturated);
  put("cancelled_disconnect", snapshot.cancelled_disconnect);
  put("deadline_expired", snapshot.deadline_expired);
  put("cache_hits", snapshot.cache_hits);
  put("cache_misses", snapshot.cache_misses);
  put("progress_frames", snapshot.progress_frames);
  put("models", fleet_.size());
  put("threads", worker_total_);
  put("max_inflight", options_.max_inflight);
  body.set("draining",
           Json::boolean(draining_.load(std::memory_order_acquire)));
  if (options_.cache != nullptr) {
    const verify::QueryCache::Stats cache = options_.cache->stats();
    Json entry = Json::object();
    entry.set("entries",
              Json::integer(static_cast<std::int64_t>(cache.entries)));
    entry.set("hits", Json::integer(static_cast<std::int64_t>(cache.hits)));
    entry.set("misses",
              Json::integer(static_cast<std::int64_t>(cache.misses)));
    entry.set("insertions",
              Json::integer(static_cast<std::int64_t>(cache.insertions)));
    body.set("query_cache", std::move(entry));
  }
  return body;
}

ServerStats Server::stats() const {
  ServerStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_active = connections_active_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.results = results_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.rejected_saturated = rejected_saturated_.load(std::memory_order_relaxed);
  out.cancelled_disconnect =
      cancelled_disconnect_.load(std::memory_order_relaxed);
  out.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.progress_frames = progress_frames_.load(std::memory_order_relaxed);
  return out;
}

void Server::request_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Unblock the accept loop: shutdown makes the blocked accept() fail.
  // The fd itself is closed in wait(), after the accept thread joins —
  // closing here would let the kernel reuse the descriptor number while
  // accept_loop still holds it.
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  if (listen_fd >= 0) (void)::shutdown(listen_fd, SHUT_RDWR);
  // Force EOF on every session's read side: readers wake with kClosed,
  // workers drain their queues and exit.  In-flight work is NOT cancelled —
  // drain means "finish what was accepted, answer it, then stop".
  const util::MutexLock lock(sessions_mutex_);
  for (const auto& session : sessions_) {
    (void)::shutdown(session->fd, SHUT_RD);
  }
}

void Server::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (joined_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) ::close(listen_fd);
  std::vector<std::unique_ptr<Session>> sessions;
  {
    const util::MutexLock lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    if (session->reader.joinable()) session->reader.join();
    if (session->worker.joinable()) session->worker.join();
    if (session->fd >= 0) ::close(session->fd);
  }
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  request_drain();
  wait();
}

}  // namespace fannet::serve
