// Scheduler determinism tests: batch results must be bit-identical and
// identically ordered for 1 vs N worker threads, and exceptions must
// propagate to the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/enumerate.hpp"
#include "verify/scheduler.hpp"

namespace fannet::verify {
namespace {

using util::i64;

nn::QuantizedNetwork& shared_net() {
  static nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(
      nn::Network::random({3, 5, 2}, 77), 100);
  return net;
}

/// A batch mixing robust and vulnerable queries (wrong labels guarantee
/// vulnerability: the zero-noise vector itself flips).
std::vector<Query> mixed_batch(std::size_t count, std::uint64_t seed) {
  const nn::QuantizedNetwork& net = shared_net();
  util::Rng rng(seed);
  std::vector<Query> batch;
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.net = &net;
    q.x = {rng.uniform_int(1, 100), rng.uniform_int(1, 100),
           rng.uniform_int(1, 100)};
    const int actual = net.classify_noised(q.x, {});
    q.true_label = rng.bernoulli(0.4) ? 1 - actual : actual;
    q.box = NoiseBox::symmetric(3, static_cast<int>(rng.uniform_int(1, 3)));
    batch.push_back(std::move(q));
  }
  return batch;
}

/// Three vulnerable queries whose bnb trees run to 5k-33k boxes, a batch
/// smaller than an 8-thread pool.  Their box counts depend on when the
/// lex-lowest-witness prune lands, so a search split across the pool's
/// idle workers would change them.
std::vector<Query> deep_batch() {
  const nn::QuantizedNetwork& net = shared_net();
  std::vector<Query> batch;
  for (const auto& [x, range] :
       {std::pair<std::vector<i64>, int>{{29, 14, 65}, 53},
        {{38, 16, 52}, 58},
        {{76, 42, 90}, 50}}) {
    Query q;
    q.net = &net;
    q.x = x;
    q.true_label = net.classify_noised(q.x, {});
    q.box = NoiseBox::symmetric(3, range);
    batch.push_back(std::move(q));
  }
  return batch;
}

bool same_result(const VerifyResult& a, const VerifyResult& b) {
  return a.verdict == b.verdict && a.work == b.work &&
         a.counterexample == b.counterexample;
}

TEST(Scheduler, RunAllIsIdenticalAndOrderedForOneVsManyThreads) {
  // A full batch, and one smaller than the 8-thread pool (idle workers
  // must not change any result, `work` included).
  const Engine& bnb = engine("bnb");
  for (const std::vector<Query>& batch : {mixed_batch(24, 5), deep_batch()}) {
    BatchStats serial_stats;
    const auto serial =
        Scheduler({.threads = 1}).run_all(batch, bnb, &serial_stats);
    ASSERT_EQ(serial.size(), batch.size());

    for (const std::size_t threads : {2u, 8u}) {
      BatchStats stats;
      const auto parallel =
          Scheduler({.threads = threads}).run_all(batch, bnb, &stats);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(same_result(serial[i], parallel[i]))
            << "batch " << batch.size() << " threads " << threads
            << " index " << i;
      }
      EXPECT_EQ(stats.queries, batch.size());
      EXPECT_EQ(stats.total_work, serial_stats.total_work);
      EXPECT_GE(stats.wall_ms, 0.0);
      EXPECT_GE(stats.threads, 1u);
    }
  }
}

TEST(Scheduler, RunAllAgreesWithDirectEngineCalls) {
  const std::vector<Query> batch = mixed_batch(10, 6);
  const Engine& cascade = engine("cascade");
  const auto results = Scheduler({.threads = 4}).run_all(batch, cascade);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(same_result(results[i], cascade.verify(batch[i]))) << i;
  }
}

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  const Scheduler scheduler({.threads = 8});
  std::vector<std::atomic<int>> hits(997);
  scheduler.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  // Zero-count batches are a no-op.
  scheduler.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(Scheduler, ExceptionsPropagateToCaller) {
  for (const std::size_t threads : {1u, 4u}) {
    const Scheduler scheduler({.threads = threads});
    EXPECT_THROW(scheduler.parallel_for(100,
                                        [](std::size_t i) {
                                          if (i == 37) {
                                            throw InvalidArgument("boom");
                                          }
                                        }),
                 InvalidArgument);
  }
}

TEST(Scheduler, StatsCountEngineDispatchesAsMissesWithoutCache) {
  // With no cache configured every query dispatched the engine: that is
  // `queries` misses (not 0), with `cache_enabled` telling "cache off"
  // apart from "cache cold".
  const std::vector<Query> batch = mixed_batch(8, 9);
  BatchStats stats;
  (void)Scheduler({.threads = 2}).run_all(batch, engine("bnb"), &stats);
  EXPECT_FALSE(stats.cache_enabled);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, batch.size());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(Scheduler, EmptyBatchesAreNoOps) {
  const Scheduler scheduler;
  BatchStats stats;
  EXPECT_TRUE(scheduler.run_all({}, engine("bnb"), &stats).empty());
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_GE(scheduler.threads(), 1u);
}

}  // namespace
}  // namespace fannet::verify
