// Intra-query scaling of the work-stealing parallel branch-and-bound on
// the workload that motivates it: the *hardest* Fig. 4-style P2 query in
// the case-study sweep — the high-noise query whose box tree dwarfs the
// rest of the batch, so across-queries parallelism alone leaves cores
// idle while it runs.
//
// The bench gates determinism (bit-identical verdict + counterexample for
// 1, 2 and 8 frontier workers, both box-priority policies) and *records*
// the multi-thread speedup in BENCH_bnb.json — recorded, not gated,
// because 1-CPU CI containers show a flat curve (docs/bench-format.md).
// It also counts the heap allocations of the 1-thread depth-first stress
// query through a replaced global operator new, and gates them: the box
// loop (bound kernel, frontier, bisection) must not allocate per box.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/casestudy.hpp"
#include "core/fannet.hpp"
#include "nn/network.hpp"
#include "util/benchjson.hpp"
#include "util/stopwatch.hpp"
#include "verify/bnb.hpp"

namespace {

/// Calls of the replaced global operator new below (operator new[]
/// forwards to it).
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace {

using namespace fannet;
using util::i64;

/// Gate on the heap allocations of the 1-thread depth-first stress query:
/// setting up the search allocates, its ~450k boxes must not.
constexpr std::uint64_t kMaxStressAllocations = 1000;

const char* policy_name(verify::BnbOptions::Policy policy) {
  return policy == verify::BnbOptions::Policy::kDepthFirst ? "depth_first"
                                                           : "best_first";
}

/// The stress query: the case-study sweep's trees top out at a few
/// thousand boxes (the 5-20-2 net is small and the symbolic bounds are
/// tight), so the scaling arm uses a wider net at the paper's largest
/// noise — the direction fault-tolerance follow-ups (Duddu et al.) push —
/// where the serial tree runs to ~450k boxes.  Fully deterministic: the
/// net is seeded, the input fixed.
verify::Query stress_query(const nn::QuantizedNetwork& qnet) {
  std::vector<i64> x;
  for (std::size_t i = 0; i < qnet.input_dim(); ++i) {
    x.push_back(static_cast<i64>(10 + 11 * i));
  }
  verify::Query query;
  query.net = &qnet;
  query.x = std::move(x);
  query.true_label = qnet.classify_noised(query.x, {});
  query.box = verify::NoiseBox::symmetric(query.x.size(), 50);
  return query;
}

}  // namespace

int main() {
  const core::CaseStudy cs = core::build_case_study();
  const core::Fannet fannet(cs.qnet);
  util::BenchJson json("bnb");
  std::printf("hardware threads: %u\n\n", std::thread::hardware_concurrency());

  // The Fig. 4 top row: every correctly-classified test sample at the
  // paper's largest noise range (+/-50%).  The serial screen doubles as
  // the baseline and finds the hardest query (most boxes processed).
  const auto bad = fannet.validate_p1(cs.test_x, cs.test_y);
  std::vector<verify::Query> screen;
  for (std::size_t s = 0; s < cs.test_x.rows(); ++s) {
    if (std::find(bad.begin(), bad.end(), s) != bad.end()) continue;
    screen.push_back(fannet.make_query(
        cs.test_x.row(s), cs.test_y[s],
        verify::NoiseBox::symmetric(cs.test_x.cols(), 50), false));
  }

  std::puts("=== Serial screen: every correct sample at +/-50% ===");
  std::uint64_t hard_work = 0;
  std::uint64_t screen_work = 0;
  const util::Stopwatch screen_watch;
  for (const verify::Query& q : screen) {
    const verify::VerifyResult r = verify::bnb_verify(q);
    screen_work += r.work;
    hard_work = std::max(hard_work, r.work);
  }
  const double screen_ms = screen_watch.millis();
  std::printf("  %zu queries, %8.1f ms, total work %llu "
              "(hardest tree: %llu boxes)\n\n",
              screen.size(), screen_ms,
              static_cast<unsigned long long>(screen_work),
              static_cast<unsigned long long>(hard_work));
  json.add("fig4_screen_serial", screen_ms, screen_work, 1);

  // Hard high-noise stress query (see stress_query above).
  const nn::Network stress_net = nn::Network::random({8, 20, 2}, 202);
  const nn::QuantizedNetwork stress_qnet =
      nn::QuantizedNetwork::quantize(stress_net, 100);
  const verify::Query hard_query = stress_query(stress_qnet);
  const verify::VerifyResult reference = verify::bnb_verify(hard_query);

  std::puts("=== Hard-query scaling: work-stealing frontier ===");
  double depth_first_serial_ms = 0.0;
  double depth_first_8t_ms = 0.0;
  std::uint64_t serial_allocations = 0;
  for (const auto policy : {verify::BnbOptions::Policy::kDepthFirst,
                            verify::BnbOptions::Policy::kBestFirst}) {
    double serial_ms = 0.0;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      verify::BnbOptions options;
      options.threads = threads;
      options.policy = policy;
      const std::uint64_t allocations_before = g_allocations.load();
      const util::Stopwatch watch;
      const verify::VerifyResult r = verify::bnb_verify(hard_query, options);
      const double ms = watch.millis();
      const std::uint64_t allocations =
          g_allocations.load() - allocations_before;
      if (threads == 1) serial_ms = ms;

      // Determinism gate: the verdict and the (lex-lowest) counterexample
      // must be bit-identical to the serial depth-first reference for
      // every worker count and policy.
      if (r.verdict != reference.verdict ||
          r.counterexample != reference.counterexample) {
        std::fprintf(stderr,
                     "FAIL: %s result differs at %zu threads from the serial "
                     "reference\n",
                     policy_name(policy), threads);
        return EXIT_FAILURE;
      }
      std::printf("  hard_query_%-11s threads=%zu  %8.1f ms  speedup %.2fx  "
                  "(%llu boxes)\n",
                  policy_name(policy), threads, ms, serial_ms / ms,
                  static_cast<unsigned long long>(r.work));
      json.add(std::string("hard_query_") + policy_name(policy), ms, r.work,
               threads);
      if (policy == verify::BnbOptions::Policy::kDepthFirst) {
        if (threads == 1) {
          depth_first_serial_ms = ms;
          serial_allocations = allocations;
        }
        if (threads == 8) depth_first_8t_ms = ms;
      }
    }
  }

  // Allocation gate (see docs/bench-format.md "Counter records").
  std::printf("\nheap allocations, 1-thread depth-first hard query: %llu "
              "(gate <= %llu)\n",
              static_cast<unsigned long long>(serial_allocations),
              static_cast<unsigned long long>(kMaxStressAllocations));
  json.add("allocations_hard_query_depth_first", 0.0, serial_allocations, 1);
  if (serial_allocations > kMaxStressAllocations) {
    std::fprintf(stderr,
                 "FAIL: the 1-thread depth-first hard query made %llu heap "
                 "allocations (gate <= %llu)\n",
                 static_cast<unsigned long long>(serial_allocations),
                 static_cast<unsigned long long>(kMaxStressAllocations));
    return EXIT_FAILURE;
  }

  // Recorded headline (see docs/bench-format.md "Counter records"): the
  // 8-worker speedup on the hard query, x100 in wall_ms.  ~100 on a 1-CPU
  // container; the scaling shows on real multi-core hardware.
  const double speedup_x100 =
      depth_first_8t_ms > 0.0
          ? 100.0 * depth_first_serial_ms / depth_first_8t_ms
          : 0.0;
  std::printf("\n8-thread speedup on the hard query: %.2fx\n",
              speedup_x100 / 100.0);
  json.add("speedup_x100_8_threads", speedup_x100, 0, 8);

  const std::string path = json.write();
  std::printf("wrote %s\n", path.c_str());
  return EXIT_SUCCESS;
}
