// Query-cache correctness: canonical keys must separate every distinct
// region (no collisions), capability classes must group exactly the
// engines whose verdicts are interchangeable, scheduler results must be
// bit-identical with the cache on/off and across a cold -> warm disk-tier
// round trip, and the LRU tier must evict deterministically.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "core/fannet.hpp"
#include "nn/network.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"

namespace fannet::verify {
namespace {

using util::i64;

nn::QuantizedNetwork& shared_net() {
  static nn::QuantizedNetwork net = nn::QuantizedNetwork::quantize(
      nn::Network::random({3, 5, 2}, 77), 100);
  return net;
}

Query make_query(const nn::QuantizedNetwork& net, std::vector<i64> x,
                 int true_label, NoiseBox box, bool bias_node = false) {
  Query q;
  q.net = &net;
  q.x = std::move(x);
  q.true_label = true_label;
  q.box = std::move(box);
  q.bias_node = bias_node;
  return q;
}

std::vector<Query> mixed_batch(std::size_t count, std::uint64_t seed) {
  const nn::QuantizedNetwork& net = shared_net();
  util::Rng rng(seed);
  std::vector<Query> batch;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<i64> x = {rng.uniform_int(1, 100), rng.uniform_int(1, 100),
                          rng.uniform_int(1, 100)};
    const int actual = net.classify_noised(x, {});
    const int label = rng.bernoulli(0.4) ? 1 - actual : actual;
    batch.push_back(make_query(
        net, std::move(x), label,
        NoiseBox::symmetric(3, static_cast<int>(rng.uniform_int(1, 3)))));
  }
  return batch;
}

bool same_result(const VerifyResult& a, const VerifyResult& b) {
  return a.verdict == b.verdict && a.work == b.work &&
         a.counterexample == b.counterexample;
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("fannet_cache_test_") + tag);
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string file(const char* name) const {
    return (path / name).string();
  }
};

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

TEST(CanonicalKey, EqualQueriesShareAKeyAcrossObjectIdentity) {
  const nn::QuantizedNetwork& net = shared_net();
  const Query a = make_query(net, {10, 20, 30}, 1, NoiseBox::symmetric(3, 5));
  const Query b = make_query(net, {10, 20, 30}, 1, NoiseBox::symmetric(3, 5));
  EXPECT_EQ(canonical_key(a, "complete"), canonical_key(b, "complete"));

  // A content-identical copy of the network (different address) must map to
  // the same key: the fingerprint is over content, not identity.
  const nn::QuantizedNetwork copy = net;
  Query c = a;
  c.net = &copy;
  EXPECT_EQ(canonical_key(a, "complete"), canonical_key(c, "complete"));
}

TEST(CanonicalKey, DistinctRegionsNeverCollide) {
  const nn::QuantizedNetwork& net = shared_net();
  const Query base =
      make_query(net, {10, 20, 30}, 1, NoiseBox::symmetric(3, 5));

  std::set<std::string> keys;
  keys.insert(canonical_key(base, "complete"));

  // Every single-field mutation must change the key.
  Query q = base;
  q.x[1] = 21;
  EXPECT_TRUE(keys.insert(canonical_key(q, "complete")).second) << "x";

  q = base;
  q.true_label = 0;
  EXPECT_TRUE(keys.insert(canonical_key(q, "complete")).second) << "label";

  q = base;
  q.box.lo[2] = -4;
  EXPECT_TRUE(keys.insert(canonical_key(q, "complete")).second) << "box.lo";

  q = base;
  q.box.hi[0] = 4;
  EXPECT_TRUE(keys.insert(canonical_key(q, "complete")).second) << "box.hi";

  q = base;
  q.bias_node = true;
  q.box = NoiseBox::symmetric(4, 5);
  EXPECT_TRUE(keys.insert(canonical_key(q, "complete")).second) << "bias";

  // Different capability class.
  EXPECT_TRUE(keys.insert(canonical_key(base, "sound-only:interval")).second);

  // Different network content.
  const nn::QuantizedNetwork other = nn::QuantizedNetwork::quantize(
      nn::Network::random({3, 5, 2}, 78), 100);
  q = base;
  q.net = &other;
  EXPECT_TRUE(keys.insert(canonical_key(q, "complete")).second) << "net";

  // Asymmetric regions that happen to share every per-dimension width must
  // still separate (lo/hi are serialized independently, not as widths).
  Query shifted = base;
  shifted.box.lo = {-4, -5, -5};
  shifted.box.hi = {6, 5, 5};
  Query centered = base;
  centered.box.lo = {-5, -5, -5};
  centered.box.hi = {5, 5, 5};
  EXPECT_NE(canonical_key(shifted, "complete"),
            canonical_key(centered, "complete"));
}

TEST(CanonicalKey, CapabilityClassGroupsCompleteEnginesOnly) {
  EXPECT_EQ(capability_class(engine("bnb")), "complete");
  EXPECT_EQ(capability_class(engine("cascade")), "complete");
  EXPECT_EQ(capability_class(engine("enumerate")), "complete");
  EXPECT_EQ(capability_class(engine("interval")), "sound-only:interval");
  EXPECT_EQ(capability_class(engine("symbolic")), "sound-only:symbolic");
  EXPECT_NE(capability_class(engine("interval")),
            capability_class(engine("symbolic")));
}

// ---------------------------------------------------------------------------
// LRU tier
// ---------------------------------------------------------------------------

TEST(QueryCache, MemoizesAndCountsHits) {
  QueryCache cache;
  const Engine& bnb = engine("bnb");
  const std::vector<Query> batch = mixed_batch(4, 21);

  for (const Query& q : batch) {
    EXPECT_FALSE(cache.lookup(q, bnb).has_value());
    cache.insert(q, bnb, bnb.verify(q));
  }
  for (const Query& q : batch) {
    const auto cached = cache.lookup(q, bnb);
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(same_result(*cached, bnb.verify(q)));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, batch.size());
  EXPECT_EQ(stats.misses, batch.size());
  EXPECT_EQ(stats.insertions, batch.size());
  EXPECT_EQ(stats.entries, batch.size());

  // A complete-class entry answers any complete engine, but never a
  // sound-only one (distinct capability class).
  EXPECT_TRUE(cache.lookup(batch[0], engine("cascade")).has_value());
  EXPECT_FALSE(cache.lookup(batch[0], engine("interval")).has_value());
}

TEST(QueryCache, EvictsLeastRecentlyUsedAtCapacity) {
  QueryCache cache({.capacity = 2});
  const Engine& bnb = engine("bnb");
  const std::vector<Query> batch = mixed_batch(3, 22);

  cache.insert(batch[0], bnb, bnb.verify(batch[0]));
  cache.insert(batch[1], bnb, bnb.verify(batch[1]));
  // Touch [0] so [1] is the LRU victim when [2] arrives.
  EXPECT_TRUE(cache.lookup(batch[0], bnb).has_value());
  cache.insert(batch[2], bnb, bnb.verify(batch[2]));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(batch[0], bnb).has_value());
  EXPECT_FALSE(cache.lookup(batch[1], bnb).has_value());
  EXPECT_TRUE(cache.lookup(batch[2], bnb).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// ---------------------------------------------------------------------------
// Scheduler integration: bit-identity cache on/off
// ---------------------------------------------------------------------------

TEST(QueryCache, SchedulerResultsAreBitIdenticalCacheOnVsOff) {
  const std::vector<Query> batch = mixed_batch(24, 31);
  const Engine& cascade = engine("cascade");

  const auto baseline = Scheduler({.threads = 2}).run_all(batch, cascade);

  QueryCache cache;
  const Scheduler cached({.threads = 2, .cache = &cache});
  for (int pass = 0; pass < 2; ++pass) {
    BatchStats stats;
    const auto results = cached.run_all(batch, cascade, &stats);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(same_result(baseline[i], results[i]))
          << "pass " << pass << " index " << i;
    }
    if (pass == 1) {
      EXPECT_EQ(stats.cache_hits, batch.size());
      EXPECT_EQ(stats.cache_misses, 0u);
    }
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, batch.size());
  }
}

TEST(QueryCache, ToleranceAnalysisIsBitIdenticalWithGlobalCache) {
  const nn::QuantizedNetwork& net = shared_net();
  const core::Fannet fannet(net);
  la::Matrix<i64> inputs(6, 3);
  std::vector<int> labels;
  util::Rng rng(55);
  for (std::size_t s = 0; s < inputs.rows(); ++s) {
    for (std::size_t c = 0; c < inputs.cols(); ++c) {
      inputs(s, c) = rng.uniform_int(1, 100);
    }
    labels.push_back(net.classify_noised(inputs.row(s), {}));
  }
  core::ToleranceConfig config;
  config.start_range = 8;
  config.threads = 1;

  const auto baseline = fannet.analyze_tolerance(inputs, labels, config);

  QueryCache cache;
  const ScopedQueryCache guard(&cache);
  for (int pass = 0; pass < 2; ++pass) {
    const auto cached = fannet.analyze_tolerance(inputs, labels, config);
    EXPECT_EQ(cached.noise_tolerance, baseline.noise_tolerance) << pass;
    EXPECT_EQ(cached.queries, baseline.queries) << pass;
    ASSERT_EQ(cached.per_sample.size(), baseline.per_sample.size());
    for (std::size_t i = 0; i < baseline.per_sample.size(); ++i) {
      EXPECT_EQ(cached.per_sample[i].min_flip_range,
                baseline.per_sample[i].min_flip_range);
      EXPECT_EQ(cached.per_sample[i].witness, baseline.per_sample[i].witness);
    }
  }
  // The second analysis repeated the first one's queries exactly.
  EXPECT_GT(cache.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

TEST(QueryCache, DiskTierRoundTripsColdToWarm) {
  const TempDir dir("roundtrip");
  const std::string path = dir.file("cache.jsonl");
  const std::vector<Query> batch = mixed_batch(12, 61);
  const Engine& bnb = engine("bnb");

  std::vector<VerifyResult> cold;
  {
    QueryCache writer({.disk_path = path});
    const Scheduler scheduler({.threads = 2, .cache = &writer});
    cold = scheduler.run_all(batch, bnb);
    EXPECT_EQ(writer.stats().insertions, writer.size());
  }

  QueryCache reader({.disk_path = path});
  EXPECT_EQ(reader.stats().disk_loaded, reader.size());
  EXPECT_GT(reader.size(), 0u);

  BatchStats stats;
  const Scheduler scheduler({.threads = 2, .cache = &reader});
  const auto warm = scheduler.run_all(batch, bnb, &stats);
  EXPECT_EQ(stats.cache_misses, 0u);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(same_result(cold[i], warm[i])) << i;
  }
}

TEST(QueryCache, DiskTierSkipsMalformedLines) {
  const TempDir dir("malformed");
  const std::string path = dir.file("cache.jsonl");
  const std::vector<Query> batch = mixed_batch(3, 62);
  const Engine& bnb = engine("bnb");
  {
    QueryCache writer({.disk_path = path});
    for (const Query& q : batch) writer.insert(q, bnb, bnb.verify(q));
  }
  {
    // Simulate an interrupted run: a garbage line, a syntactically valid
    // line whose key does not encode a real query region, a line whose
    // number would overflow int64, and a truncated tail.
    std::ofstream append(path, std::ios::app);
    append << "not json at all\n";
    append << "{\"key\":\"01020304\",\"verdict\":\"robust\",\"work\":1}\n";
    append << "{\"key\":\"01020304\",\"verdict\":\"robust\","
              "\"work\":99999999999999999999999}\n";
    append << "{\"key\":\"0102\",\"verd";  // no newline, cut mid-field
  }
  QueryCache reader({.disk_path = path});
  EXPECT_EQ(reader.stats().disk_loaded, batch.size());
  EXPECT_EQ(reader.stats().disk_skipped, 4u);
  for (const Query& q : batch) {
    EXPECT_TRUE(reader.lookup(q, bnb).has_value());
  }
}

TEST(QueryCache, CachedVerifyFallsBackWithoutACache) {
  const std::vector<Query> batch = mixed_batch(2, 63);
  const Engine& bnb = engine("bnb");
  bool hit = true;
  const VerifyResult direct = cached_verify(nullptr, batch[0], bnb, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(same_result(direct, bnb.verify(batch[0])));
}

}  // namespace
}  // namespace fannet::verify
