// fannet_serve — the long-running verification service (docs/serve.md).
//
// Loads the model fleet once, binds 127.0.0.1:<port>, and answers P2
// verification queries and analysis requests over the length-prefixed JSON
// protocol (src/serve/protocol.hpp).  All connections share one
// verify::QueryCache and one worker budget; per-request deadlines, streamed
// progress frames, and cancel-on-disconnect come from the serve layer
// (src/serve/server.hpp).  SIGTERM/SIGINT trigger a graceful drain: stop
// accepting, finish and answer queued work, exit 0.
//
// Exit codes: 0 clean shutdown (drain completed), 1 runtime failure,
// 2 usage error.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "verify/query_cache.hpp"

namespace {

using namespace fannet;

struct Options {
  std::uint16_t port = 0;            // 0 = ephemeral (printed at startup)
  std::size_t threads = 0;           // 0 = hardware concurrency
  std::size_t max_inflight = 0;      // 0 = 2x threads
  std::uint64_t deadline_ms = 0;     // default per-request deadline
  std::uint64_t stall_ms = 5000;     // mid-frame stall budget
  std::uint64_t step_work = 0;       // task-step granularity
  std::string cache_dir;             // empty = in-memory cache only
  std::size_t cache_capacity = 1u << 20;
  bool no_cache = false;
  bool full = false;                 // full 7129-gene cohort fleet
};

constexpr const char* kUsage = R"(usage: fannet_serve [flags]

Long-running FANNet verification service: loads the case-study fleet once
and serves P2 / analysis requests over a length-prefixed JSON protocol on
127.0.0.1 (docs/serve.md has the schemas).  SIGTERM or SIGINT drain
gracefully: queued requests finish and are answered before exit 0.

flags
  --port N             TCP port (default 0 = ephemeral; the bound port is
                       printed as "listening on 127.0.0.1:<port>")
  --threads N          shared worker budget, 0 = one per hardware thread
  --max-inflight N     admission-control cap on concurrent complete-engine
                       requests (default 2x threads); excess requests get a
                       structured `saturated` error with retry_after_ms
  --deadline-ms N      default per-request deadline for requests that carry
                       none (0 = unlimited, default)
  --stall-ms N         mid-frame stall budget before a slow client is cut
                       off with a `timeout` error (default 5000)
  --step-work N        engine task-step granularity; smaller = tighter
                       deadline/cancel latency (0 = engine default)
  --cache-dir DIR      persist the shared query cache's disk tier in DIR
  --cache-capacity N   in-memory LRU capacity (default 1048576)
  --no-cache           disable the shared query cache entirely
  --full               serve the full 7129-gene cohort (default: the small
                       fast cohort, same code paths)
  --help               this text

exit codes: 0 clean shutdown, 1 runtime failure, 2 usage error
)";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "fannet_serve: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Digits only: strtoull alone would accept a sign (and wrap "-1" to
/// 2^64 - 1) or leading blanks.  Out-of-range values are rejected too.
std::uint64_t parse_u64(const char* flag, const char* value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(value[0])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    usage_error(std::string(flag) + " needs a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (arg == "--port") {
      const std::uint64_t v = parse_u64("--port", next());
      if (v > 65535) usage_error("--port out of range");
      opts.port = static_cast<std::uint16_t>(v);
    } else if (arg == "--threads") {
      opts.threads = static_cast<std::size_t>(parse_u64("--threads", next()));
    } else if (arg == "--max-inflight") {
      opts.max_inflight =
          static_cast<std::size_t>(parse_u64("--max-inflight", next()));
    } else if (arg == "--deadline-ms") {
      opts.deadline_ms = parse_u64("--deadline-ms", next());
    } else if (arg == "--stall-ms") {
      opts.stall_ms = parse_u64("--stall-ms", next());
    } else if (arg == "--step-work") {
      opts.step_work = parse_u64("--step-work", next());
    } else if (arg == "--cache-dir") {
      opts.cache_dir = next();
    } else if (arg == "--cache-capacity") {
      opts.cache_capacity =
          static_cast<std::size_t>(parse_u64("--cache-capacity", next()));
    } else if (arg == "--no-cache") {
      opts.no_cache = true;
    } else if (arg == "--full") {
      opts.full = true;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  return opts;
}

/// Async-signal-safe drain flag: the handler only sets it; the main thread
/// polls and runs the actual drain outside signal context.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);
  try {
    std::unique_ptr<verify::QueryCache> cache;
    if (!opts.no_cache) {
      verify::QueryCacheOptions cache_options;
      cache_options.capacity = opts.cache_capacity;
      if (!opts.cache_dir.empty()) {
        std::filesystem::create_directories(opts.cache_dir);
        cache_options.disk_path =
            (std::filesystem::path(opts.cache_dir) / "serve_cache.jsonl")
                .string();
      }
      cache = std::make_unique<verify::QueryCache>(cache_options);
    }

    std::fputs("loading model fleet...\n", stderr);
    serve::ServeOptions serve_options;
    serve_options.port = opts.port;
    serve_options.threads = opts.threads;
    serve_options.max_inflight = opts.max_inflight;
    serve_options.default_deadline_ms = opts.deadline_ms;
    serve_options.stall_ms = opts.stall_ms;
    serve_options.step_work = opts.step_work;
    serve_options.cache = cache.get();
    serve::Server server(serve::default_fleet(opts.full), serve_options);

    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGPIPE, SIG_IGN);

    server.start();
    std::printf("listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fputs("draining...\n", stderr);
    server.stop();
    const serve::ServerStats stats = server.stats();
    std::fprintf(stderr,
                 "served %llu requests (%llu results, %llu errors), "
                 "cache %llu/%llu hit/miss\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.results),
                 static_cast<unsigned long long>(stats.errors),
                 static_cast<unsigned long long>(stats.cache_hits),
                 static_cast<unsigned long long>(stats.cache_misses));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fannet_serve: %s\n", e.what());
    return 1;
  }
}
