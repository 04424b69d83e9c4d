// Branch-and-bound on the workload that motivates it: every Fig. 4-style
// P2 query of the case-study sweep at the paper's largest noise, plus a
// hard high-noise stress query whose box tree dwarfs them.
//
// The bench gates determinism (the best-first policy's verdict and
// counterexample must equal the depth-first reference: the lex-lowest
// witness does not depend on the exploration order) and records both
// policies' box counts and wall time in BENCH_bnb.json.  It also counts
// the heap allocations of the depth-first stress query through a replaced
// global operator new, and gates them: the box loop (bound kernel,
// frontier, bisection) must not allocate per box.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
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

/// Gate on the heap allocations of the depth-first stress query: setting
/// up the search allocates, its ~450k boxes must not.
constexpr std::uint64_t kMaxStressAllocations = 1000;

const char* policy_name(verify::BnbOptions::Policy policy) {
  return policy == verify::BnbOptions::Policy::kDepthFirst ? "depth_first"
                                                           : "best_first";
}

/// The stress query: the case-study sweep's trees top out at a few
/// thousand boxes (the 5-20-2 net is small and the symbolic bounds are
/// tight), so the stress arm uses a wider net at the paper's largest
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

  std::puts("=== Hard query: both box-priority policies ===");
  std::uint64_t allocations = 0;
  for (const auto policy : {verify::BnbOptions::Policy::kDepthFirst,
                            verify::BnbOptions::Policy::kBestFirst}) {
    verify::BnbOptions options;
    options.policy = policy;
    const std::uint64_t allocations_before = g_allocations.load();
    const util::Stopwatch watch;
    const verify::VerifyResult r = verify::bnb_verify(hard_query, options);
    const double ms = watch.millis();
    if (policy == verify::BnbOptions::Policy::kDepthFirst) {
      allocations = g_allocations.load() - allocations_before;
    }

    // Determinism gate: the verdict and the (lex-lowest) counterexample
    // must be bit-identical to the depth-first reference for both
    // policies.
    if (r.verdict != reference.verdict ||
        r.counterexample != reference.counterexample) {
      std::fprintf(stderr,
                   "FAIL: %s result differs from the depth-first reference\n",
                   policy_name(policy));
      return EXIT_FAILURE;
    }
    std::printf("  hard_query_%-11s %8.1f ms  (%llu boxes)\n",
                policy_name(policy), ms,
                static_cast<unsigned long long>(r.work));
    json.add(std::string("hard_query_") + policy_name(policy), ms, r.work, 1);
  }

  // Allocation gate (see docs/bench-format.md "Counter records").
  std::printf("\nheap allocations, depth-first hard query: %llu "
              "(gate <= %llu)\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(kMaxStressAllocations));
  json.add("allocations_hard_query_depth_first", 0.0, allocations, 1);
  if (allocations > kMaxStressAllocations) {
    std::fprintf(stderr,
                 "FAIL: the depth-first hard query made %llu heap "
                 "allocations (gate <= %llu)\n",
                 static_cast<unsigned long long>(allocations),
                 static_cast<unsigned long long>(kMaxStressAllocations));
    return EXIT_FAILURE;
  }

  const std::string path = json.write();
  std::printf("wrote %s\n", path.c_str());
  return EXIT_SUCCESS;
}
