// serve_verify: open loop.  One generator thread sends cascade `verify`
// requests on a fixed-interval schedule (--rate, fixed in BENCHMARK.json),
// round-robin over min(nproc, 4) loopback connections, to an in-process
// serve::Server with the shared QueryCache on and a worker budget of
// nproc / 2, serving the pool's cohorts as models.  The whole workload
// (server, generator and receivers) runs on one CPU; see pin_to_one_cpu.
// kRepeatShare of the requests repeat a key sent earlier in the run; the
// rest are first-seen per-dimension lo/hi boxes, a key space no run
// exhausts.  Most first-seen boxes are small and cheap; every
// kSlowMissEvery-th request is a slow miss, a box that takes bnb 3-11 ms,
// and the requests sent meanwhile queue behind it.  The
// first-seen keys are the same in every run (drawn from kKeyPoolSeed) and
// the slow misses sit in the same slots, so every seed measures the same
// slow misses and the same queueing; the workload seed orders the keys,
// places the repeats and picks the key each repeat sends.  Latency is timed
// from each request's due time; goodput counts requests answered correctly
// within --limit-ms.
// Why: this is the daemon's traffic.  For cache hits, framing, admission,
// queueing and the write are the whole cost.  A cache miss sends one query
// alone to bnb's intra-query frontier, which uses the scheduler and bnb
// differently from fig4_campaign's fan-out.  Cache inserts happen alongside
// cache hits.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/fannet.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_harness.hpp"
#include "trace.hpp"
#include "traced_engine.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"
#include "workloads.hpp"

namespace perf {

namespace {

namespace fs = fannet::serve;
namespace fv = fannet::verify;

/// Above one half so the median request is a cache hit.
constexpr double kRepeatShare = 0.7;
constexpr std::uint64_t kKeyPoolSeed = 0x5e7e;
/// Cheap first-seen boxes: lo in [-kBoxMax, -1], hi in [1, kBoxMax].
constexpr int kBoxMax = 12;
/// Slow misses: the tail is their latency and that of the requests queued
/// behind them.  On a shared host a lone thread stalls for up to about
/// 10 ms now and then; with only cheap misses those stalls would be the tail
/// and would differ from run to run.  Fixed slots keep slow misses from
/// overlapping each other, which made the tail depend on the seed.  With
/// one in 100 the tail (the 11th-slowest request) sat among the 50 slow
/// misses' middle values and moved by up to a third between identical runs;
/// with one in 25 it sits near the top of 200.
constexpr std::size_t kSlowMissEvery = 25;
/// A slow miss is one of these boxes (each vulnerable; found by a scan of
/// first-seen boxes widened to +/-80) with one bound moved 1-kSlowMissMove
/// units toward 0.  The variants take bnb 3-11 ms each, and 15-25 ms in the
/// window's tail, where they queue behind one another.
struct SlowMissBase {
  std::size_t model = 0;  ///< index into kCohortSeeds
  std::size_t row = 0;    ///< a test row the model classifies correctly
  std::array<int, 5> lo, hi;
};
constexpr std::array<SlowMissBase, 3> kSlowMissBases = {{
    {2, 31, {-53, -66, -59, -38, -17}, {17, 71, 57, 46, 52}},
    {2, 31, {-64, -6, -9, -42, -77}, {42, 79, 50, 64, 6}},
    {1, 29, {-15, -50, -66, -21, -51}, {25, 55, 13, 1, 68}},
}};
constexpr int kSlowMissMove = 20;
constexpr std::size_t kWarmupRequests = 64;
/// Admission ceiling: high enough that this commit refuses nothing at the
/// configured rate, so any refusal is a regression.
constexpr std::size_t kMaxInflight = 256;
constexpr std::uint64_t kReplyGraceMs = 30'000;  ///< after the last send

/// One distinct request key.
struct Key {
  std::size_t model = 0;
  std::size_t row = 0;
  std::vector<int> lo, hi;
};

std::string model_name(std::size_t model) {
  return "c" + std::to_string(kCohortSeeds[model]);
}

std::string request_body(std::uint64_t id, const Key& key,
                         const std::vector<Cohort>& cohorts,
                         const char* engine) {
  const auto x = cohorts[key.model].study.test_x.row(key.row);
  fs::Json xs = fs::Json::array();
  for (const auto v : x) xs.push_back(fs::Json::integer(v));
  fs::Json lo = fs::Json::array();
  fs::Json hi = fs::Json::array();
  for (const int v : key.lo) lo.push_back(fs::Json::integer(v));
  for (const int v : key.hi) hi.push_back(fs::Json::integer(v));
  fs::Json box = fs::Json::object();
  box.set("lo", std::move(lo));
  box.set("hi", std::move(hi));
  fs::Json request = fs::Json::object();
  request.set("id", fs::Json::integer(static_cast<std::int64_t>(id)));
  request.set("type", fs::Json::string("verify"));
  request.set("model", fs::Json::string(model_name(key.model)));
  request.set("engine", fs::Json::string(engine));
  request.set("x", std::move(xs));
  request.set("true_label",
              fs::Json::integer(cohorts[key.model].study.test_y[key.row]));
  request.set("box", std::move(box));
  return request.dump();
}

/// Identity of a query as the engine sees it (for the per-request engine
/// time of the traced window).
std::string query_key(const fv::Query& q) {
  std::string s = std::to_string(q.net->fingerprint()) + ":" +
                  std::to_string(q.true_label);
  for (const auto v : q.x) s += "," + std::to_string(v);
  for (std::size_t d = 0; d < q.box.dims(); ++d) {
    s += ";" + std::to_string(q.box.lo[d]) + ":" + std::to_string(q.box.hi[d]);
  }
  return s;
}

fv::Query make_query(const Key& key, const std::vector<Cohort>& cohorts) {
  const fannet::core::CaseStudy& cs = cohorts[key.model].study;
  return fannet::core::Fannet(cs.qnet).make_query(
      cs.test_x.row(key.row), cs.test_y[key.row], fv::NoiseBox{key.lo, key.hi},
      false);
}

/// A running server with its cache and client connections.
struct Service {
  std::unique_ptr<fv::QueryCache> cache;
  std::unique_ptr<fs::Server> server;
  std::vector<std::unique_ptr<fs::harness::ServeClient>> connections;

  ~Service() {
    connections.clear();  // clients leave first; the drain then finds none
    if (server) server->stop();
  }
};

/// `recv_timeout_ms` bounds each receive; it must cover a whole window plus
/// the grace period, since a receiver waits through the window.
std::unique_ptr<Service> start_service(const std::vector<Cohort>& cohorts,
                                       std::size_t connections,
                                       std::uint64_t recv_timeout_ms) {
  auto service = std::make_unique<Service>();
  std::vector<fs::ServeModel> fleet;
  for (std::size_t m = 0; m < cohorts.size(); ++m) {
    const fannet::core::CaseStudy& cs = cohorts[m].study;
    fleet.push_back(fs::ServeModel{.name = model_name(m),
                                   .net = cs.qnet,
                                   .inputs = cs.test_x,
                                   .labels = cs.test_y});
  }
  service->cache = std::make_unique<fv::QueryCache>();
  fs::ServeOptions options;
  options.port = 0;
  options.threads = std::max<std::size_t>(1, nproc() / 2);
  options.max_inflight = kMaxInflight;
  options.cache = service->cache.get();
  service->server = std::make_unique<fs::Server>(std::move(fleet), options);
  service->server->start();
  for (std::size_t c = 0; c < connections; ++c) {
    service->connections.push_back(std::make_unique<fs::harness::ServeClient>(
        service->server->port(), recv_timeout_ms));
    if (!service->connections.back()->connected()) {
      throw std::runtime_error("connect to the in-process server failed");
    }
  }
  return service;
}

/// Warm-up pass: closed-loop requests whose boxes start at 0 in every
/// dimension, a key space the timed sequence (lo <= -1) never sends.
bool warm_up(Service& service, const std::vector<Cohort>& cohorts,
             std::uint64_t seed) {
  fannet::util::Rng rng(seed ^ 0x5eedULL);
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    Key key;
    key.model = i % cohorts.size();
    key.row = cohorts[key.model].correct[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(
                               cohorts[key.model].correct.size()) -
                               1))];
    for (std::size_t d = 0; d < cohorts[key.model].study.test_x.cols(); ++d) {
      key.lo.push_back(0);
      key.hi.push_back(static_cast<int>(rng.uniform_int(1, kBoxMax)));
    }
    fs::harness::ServeClient& conn =
        *service.connections[i % service.connections.size()];
    if (!conn.send_frame(
            request_body(1'000'000 + i, key, cohorts, "cascade")) ||
        !conn.recv_payload()) {
      return false;
    }
  }
  return true;
}

/// Confines this thread, and every thread it or the server starts later, to
/// the CPU it runs on.  A cache hit's latency is the thread wake-ups on its
/// path.  On a 4-vCPU VM, a wake-up that crosses to an idle vCPU waits for
/// the host to run that vCPU, and unpinned the kernel placed the server's
/// threads by recent load: started within about 5 s of a burst of
/// multi-threaded CPU use (the previous run, a build) they stayed spread
/// over every CPU and answered hits in 0.3-0.6 ms, started after an idle
/// spell they shared one CPU and answered in about 0.18 ms.  Pinned, every
/// run measures the server's own path, whatever ran before it.
void pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu < 0 ? 0 : cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    std::printf("warning: could not pin to one CPU; running unpinned\n");
  }
}

/// The seeded request sequence: indices into the distinct keys.
struct Plan {
  std::vector<Key> keys;
  std::vector<std::size_t> key_of;  ///< per request
  std::size_t slow_misses = 0;      ///< slow-miss keys among `keys`
};

/// Every distinct slow-miss key, in a fixed order: a base box with one
/// bound moved k units toward 0 (never reaching it, so keys stay distinct).
std::vector<Key> slow_miss_keys() {
  std::vector<Key> keys;
  for (const SlowMissBase& base : kSlowMissBases) {
    for (std::size_t d = 0; d < base.lo.size(); ++d) {
      for (int k = 1; k <= kSlowMissMove; ++k) {
        for (const bool upper : {false, true}) {
          Key key{base.model, base.row,
                  std::vector<int>(base.lo.begin(), base.lo.end()),
                  std::vector<int>(base.hi.begin(), base.hi.end())};
          int& bound = upper ? key.hi[d] : key.lo[d];
          if (std::abs(bound) <= k) continue;
          bound += upper ? -k : k;
          keys.push_back(std::move(key));
        }
      }
    }
  }
  return keys;
}

Plan make_plan(const std::vector<Cohort>& cohorts, std::uint64_t seed,
               std::size_t requests) {
  fannet::util::Rng pool(kKeyPoolSeed);
  std::vector<Key> slow = slow_miss_keys();
  shuffle(slow, pool);
  slow.resize(std::min(requests / kSlowMissEvery, slow.size()));
  const auto repeats =
      static_cast<std::size_t>(static_cast<double>(requests) * kRepeatShare);
  std::vector<Key> light;
  for (std::size_t k = slow.size() + repeats; k < requests; ++k) {
    Key key;
    key.model = static_cast<std::size_t>(
        pool.uniform_int(0, static_cast<std::int64_t>(cohorts.size()) - 1));
    const std::vector<std::size_t>& rows = cohorts[key.model].correct;
    key.row = rows[static_cast<std::size_t>(
        pool.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1))];
    for (std::size_t d = 0; d < cohorts[key.model].study.test_x.cols(); ++d) {
      key.lo.push_back(-static_cast<int>(pool.uniform_int(1, kBoxMax)));
      key.hi.push_back(static_cast<int>(pool.uniform_int(1, kBoxMax)));
    }
    light.push_back(std::move(key));
  }

  fannet::util::Rng rng(seed);
  shuffle(slow, rng);
  shuffle(light, rng);
  // Repeats go to seeded places among the other slots; the first slot is
  // never a slow miss and must be first-seen, having nothing to repeat.
  std::vector<char> repeat(requests - slow.size(), 0);
  std::fill(repeat.end() - static_cast<std::ptrdiff_t>(repeats), repeat.end(),
            1);
  shuffle(repeat, rng);
  if (repeat[0] != 0) {
    std::swap(repeat[0], *std::find(repeat.begin(), repeat.end(), 0));
  }
  Plan plan;
  plan.slow_misses = slow.size();
  std::size_t next_slow = 0, next_light = 0, slot = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (i % kSlowMissEvery == kSlowMissEvery / 2 && next_slow < slow.size()) {
      plan.key_of.push_back(plan.keys.size());
      plan.keys.push_back(slow[next_slow++]);
    } else if (repeat[slot++] != 0) {
      plan.key_of.push_back(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(plan.keys.size()) - 1)));
    } else {
      plan.key_of.push_back(plan.keys.size());
      plan.keys.push_back(light[next_light++]);
    }
  }
  return plan;
}

/// What came back for one request.
struct Reply {
  std::int64_t due_ns = 0, sent_ns = 0, recv_ns = 0;
  bool ok = false;  ///< a `result` frame arrived
  bool cache_hit = false;
  std::string verdict;
  std::vector<int> deltas;
  int mis_label = -1;
};

void parse_reply(const std::string& payload, std::vector<Reply>& replies,
                 std::int64_t recv_ns) {
  const fs::Json frame = fs::parse_json(payload);
  const fs::Json* id = frame.find("id");
  if (id == nullptr || !id->is_int()) return;
  const auto index = static_cast<std::size_t>(id->as_int() - 1);
  if (index >= replies.size()) return;
  Reply& r = replies[index];
  r.recv_ns = recv_ns;
  const fs::Json* type = frame.find("type");
  const fs::Json* body = frame.find("body");
  if (type == nullptr || !type->is_string() || type->as_string() != "result" ||
      body == nullptr) {
    return;  // an error frame (e.g. saturated): the request failed
  }
  r.ok = true;
  r.verdict = body->find("verdict")->as_string();
  if (const fs::Json* hit = body->find("cache_hit")) r.cache_hit = hit->as_bool();
  if (const fs::Json* cex = body->find("counterexample")) {
    for (const fs::Json& d : cex->find("deltas")->as_array()) {
      r.deltas.push_back(static_cast<int>(d.as_int()));
    }
    r.mis_label = static_cast<int>(cex->find("mis_label")->as_int());
  }
}

/// One open-loop window over `plan`.
struct WindowRun {
  Window window;
  std::vector<Reply> replies;
  double lag_p99_ms = 0, lag_max_ms = 0;
  fv::QueryCache::Stats cache_before, cache_after;
  fs::ServerStats server_before, server_after;
};

WindowRun run_window(Service& service, const std::vector<Cohort>& cohorts,
                     const Plan& plan, double rate, double limit_ms,
                     const char* engine) {
  const std::size_t n = plan.key_of.size();
  std::vector<std::string> bodies(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = request_body(i + 1, plan.keys[plan.key_of[i]], cohorts, engine);
  }
  WindowRun run;
  run.replies.resize(n);
  const std::size_t conns = service.connections.size();
  const auto interval_ns = static_cast<std::int64_t>(1e9 / rate);

  run.cache_before = service.cache->stats();
  run.server_before = service.server->stats();
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    run.replies[i].due_ns = t0 + static_cast<std::int64_t>(i) * interval_ns;
  }

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      const std::size_t expected = n / conns + (c < n % conns ? 1 : 0);
      for (std::size_t got = 0; got < expected; ++got) {
        const std::optional<std::string> payload =
            service.connections[c]->recv_payload();
        if (!payload) return;
        try {
          parse_reply(*payload, run.replies, now_ns());
        } catch (const std::exception&) {
          // malformed reply: the request stays failed
        }
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(run.replies[i].due_ns)));
    run.replies[i].sent_ns = now_ns();
    if (!service.connections[i % conns]->send_frame(bodies[i])) break;
  }
  for (std::thread& t : receivers) t.join();
  std::int64_t last = t0;
  for (const Reply& r : run.replies) last = std::max(last, r.recv_ns);
  run.window.wall_s = static_cast<double>(last - t0) / 1e9;
  run.window.cpu_s = cpu_seconds() - cpu0;
  run.cache_after = service.cache->stats();
  run.server_after = service.server->stats();

  std::vector<double> lag;
  for (const Reply& r : run.replies) {
    ++run.window.attempted;
    lag.push_back(ns_to_ms(r.sent_ns - r.due_ns));
    if (!r.ok) {
      ++run.window.failed;
      continue;
    }
    const double ms = ns_to_ms(r.recv_ns - r.due_ns);
    run.window.latency_ms.push_back(ms);
    if (ms <= limit_ms) ++run.window.good;
  }
  std::sort(lag.begin(), lag.end());
  if (!lag.empty()) {
    run.lag_p99_ms = lag[(lag.size() * 99) / 100];
    run.lag_max_ms = lag.back();
  }
  return run;
}

/// Every served verdict and counterexample must equal a direct
/// verify::Scheduler run of the same query (no cache, registry cascade).
/// Mismatches are counted as failed requests.
std::size_t check_replies(WindowRun& run, const std::vector<Cohort>& cohorts,
                          const Plan& plan, double limit_ms) {
  std::vector<fv::Query> queries;
  for (const Key& key : plan.keys) queries.push_back(make_query(key, cohorts));
  const std::vector<fv::VerifyResult> direct =
      fv::Scheduler(fv::SchedulerOptions{})
          .run_all(queries, fv::engine("cascade"));
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < run.replies.size(); ++i) {
    Reply& r = run.replies[i];
    if (!r.ok) continue;
    const fv::VerifyResult& want = direct[plan.key_of[i]];
    const char* verdict = want.verdict == fv::Verdict::kVulnerable ? "vulnerable"
                          : want.verdict == fv::Verdict::kRobust   ? "robust"
                                                                   : "unknown";
    bool same = r.verdict == verdict &&
                r.deltas.empty() != want.counterexample.has_value();
    if (same && want.counterexample.has_value()) {
      same = r.deltas == want.counterexample->deltas &&
             r.mis_label == want.counterexample->mis_label;
    }
    if (!same) {
      ++mismatches;
      r.ok = false;
      ++run.window.failed;
      if (ns_to_ms(r.recv_ns - r.due_ns) <= limit_ms) --run.window.good;
    }
  }
  return mismatches;
}

void print_properties(const WindowRun& run, const Plan& plan, double rate,
                      std::size_t conns) {
  const auto hits = run.cache_after.hits - run.cache_before.hits;
  const auto misses = run.cache_after.misses - run.cache_before.misses;
  std::printf(
      "properties: rate %.1f/s, %zu connections, %zu requests, repeat share "
      "%.2f configured / cache hit share %.4f measured, %zu distinct keys "
      "(%zu slow misses) vs cache capacity %zu, generator lag p99 %.4f ms "
      "(max %.4f ms)\n",
      rate, conns, plan.key_of.size(), kRepeatShare,
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0,
      plan.keys.size(), plan.slow_misses, fv::QueryCacheOptions{}.capacity,
      run.lag_p99_ms,
      run.lag_max_ms);
}

}  // namespace

Outcome run_serve_verify(const Options& options, Layers& layers) {
  const std::size_t conns = std::min<std::size_t>(nproc(), 4);
  const std::uint64_t recv_timeout_ms =
      static_cast<std::uint64_t>(options.seconds) * 1000 + kReplyGraceMs;
  std::vector<Cohort> cohorts;
  std::unique_ptr<Service> service;
  bool warm = true;
  trace::set_enabled(options.trace);  // data.cohort_build spans
  pin_to_one_cpu();
  const double setup_s = timed_setup([&] {
    service.reset();
    cohorts = build_cohorts();
    service = start_service(cohorts, conns, recv_timeout_ms);
    warm = warm && warm_up(*service, cohorts, options.seed);
  });
  trace::set_enabled(false);
  const auto requests = static_cast<std::size_t>(options.rate *
                                                 options.seconds);
  const Plan plan = make_plan(cohorts, options.seed, requests);

  WindowRun untraced = run_window(*service, cohorts, plan, options.rate,
                                  options.limit_ms, "cascade");
  service.reset();
  const std::size_t untraced_bad =
      check_replies(untraced, cohorts, plan, options.limit_ms);
  print_properties(untraced, plan, options.rate, conns);
  print_window("window", untraced.window);
  std::printf("checks: %zu served results differ from direct execution\n",
              untraced_bad);
  // A generator that runs as late as the limit measures the host, not the
  // server: the run is reported as failed.
  const bool lag_ok = untraced.lag_p99_ms < options.limit_ms;
  if (!lag_ok) {
    std::printf("INVALID: generator lag p99 %.3f ms reached the %.1f ms "
                "limit\n",
                untraced.lag_p99_ms, options.limit_ms);
  }

  Outcome outcome;
  outcome.end_to_end = end_to_end(untraced.window, setup_s);
  outcome.attempted = untraced.window.attempted;
  outcome.failed = untraced.window.failed;
  outcome.correct = warm && lag_ok && untraced.window.failed == 0;
  if (!options.trace) return outcome;

  // Traced run: a fresh server and cache, the same plan, requests naming
  // the pass-through engine.  Each miss's engine time comes from the
  // dispatch hook, keyed by query.
  register_traced_cascade();
  service = start_service(cohorts, conns, recv_timeout_ms);
  warm = warm && warm_up(*service, cohorts, options.seed);
  std::mutex engine_mutex;
  std::map<std::string, std::deque<std::int64_t>> engine_ns;
  set_dispatch_hook([&](const fv::Query& q, std::int64_t ns) {
    const std::lock_guard<std::mutex> lock(engine_mutex);
    engine_ns[query_key(q)].push_back(ns);
  });
  reset_engine_counters();
  trace::set_enabled(true);
  WindowRun traced = run_window(*service, cohorts, plan, options.rate,
                                options.limit_ms, kTracedCascade);
  trace::set_enabled(false);
  fill_engine_layers(layers);
  service.reset();  // every dispatch has finished once the server stopped
  set_dispatch_hook({});
  const std::size_t traced_bad =
      check_replies(traced, cohorts, plan, options.limit_ms);
  print_properties(traced, plan, options.rate, conns);
  print_window("traced window", traced.window);
  std::printf("checks (traced): %zu served results differ\n", traced_bad);
  print_overhead(outcome.end_to_end, end_to_end(traced.window, setup_s));

  std::vector<double> hit_ms;
  std::vector<double> miss_overhead_ms;
  std::vector<fv::Query> queries;
  for (std::size_t i = 0; i < traced.replies.size(); ++i) {
    const Reply& r = traced.replies[i];
    if (!r.ok) continue;
    const double ms = ns_to_ms(r.recv_ns - r.due_ns);
    if (r.cache_hit) {
      hit_ms.push_back(ms);
      continue;
    }
    std::deque<std::int64_t>& q =
        engine_ns[query_key(make_query(plan.keys[plan.key_of[i]], cohorts))];
    if (q.empty()) continue;
    miss_overhead_ms.push_back(ms - ns_to_ms(q.front()));
    q.pop_front();
  }
  const auto hits = traced.cache_after.hits - traced.cache_before.hits;
  const auto misses = traced.cache_after.misses - traced.cache_before.misses;
  layers.data_cohort_build_ms = span_median_ms("data.cohort_build");
  layers.cache_hit_share = hits + misses > 0
                               ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0;
  layers.cache_inserts = static_cast<double>(
      traced.cache_after.insertions - traced.cache_before.insertions);
  layers.cache_evictions = static_cast<double>(
      traced.cache_after.evictions - traced.cache_before.evictions);
  layers.serve_hit_latency_p50_ms = median(hit_ms);
  layers.serve_miss_overhead_ms = median(miss_overhead_ms);
  layers.serve_rejected_saturated =
      static_cast<double>(traced.server_after.rejected_saturated -
                          traced.server_before.rejected_saturated);
  layers.serve_errors = static_cast<double>(traced.server_after.errors -
                                            traced.server_before.errors);
  layers.loadgen_lag_p99_ms = traced.lag_p99_ms;

  outcome.correct = outcome.correct && warm &&
                    traced.lag_p99_ms < options.limit_ms &&
                    traced.window.failed == 0;
  outcome.attempted = traced.window.attempted;
  outcome.failed = traced.window.failed;
  return outcome;
}

}  // namespace perf
