// fannet_serve integration tests, run against a live in-process server via
// the harness (tests/serve_harness.hpp).  The load-bearing properties:
// responses are bit-identical to direct library calls (verdicts,
// counterexamples, tolerance descents, sensitivity probes), the shared
// cache answers across connections, deadlines expire per-request, protocol
// violations produce structured errors (never a crash), disconnects cancel
// in-flight work, and a drain finishes queued work before exiting.
//
// Every suite name starts with "Serve" so the TSan CI job's filter picks
// the whole layer up.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/fannet.hpp"
#include "serve_harness.hpp"
#include "util/stopwatch.hpp"
#include "verify/engine.hpp"
#include "verify/scheduler.hpp"

namespace fannet::serve {
namespace {

using harness::ServeClient;
using harness::TestServer;

/// Polls `predicate` (on the stats snapshot) until true or ~10s elapse.
bool poll_stats(TestServer& server, bool (*predicate)(const ServerStats&)) {
  const util::Stopwatch watch;
  while (watch.millis() < 10000.0) {
    if (predicate(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate(server.stats());
}

const Json& field(const Json& object, std::string_view key) {
  const Json* value = object.find(key);
  EXPECT_NE(value, nullptr) << "missing field '" << key << "'";
  static const Json null_json;
  return value != nullptr ? *value : null_json;
}

TEST(ServeIntrospection, PingEchoesId) {
  TestServer server;
  ServeClient client(server.port());
  ASSERT_TRUE(client.connected());
  const ServeClient::Reply reply = client.call(harness::simple_request(7, "ping"));
  ASSERT_TRUE(reply.final.has_value());
  EXPECT_EQ(reply.final_type(), "pong");
  EXPECT_EQ(field(*reply.final, "id").as_int(), 7);
}

TEST(ServeIntrospection, ModelsReportTheFleetFingerprint) {
  TestServer server;
  ServeClient client(server.port());
  const ServeClient::Reply reply =
      client.call(harness::simple_request(1, "models"));
  ASSERT_EQ(reply.final_type(), "result");
  const Json& models = field(field(*reply.final, "body"), "models");
  ASSERT_EQ(models.as_array().size(), 1u);
  const Json& entry = models.as_array().front();
  EXPECT_EQ(field(entry, "name").as_string(), "casestudy");
  const core::CaseStudy& study = harness::shared_case_study();
  EXPECT_EQ(field(entry, "inputs").as_int(),
            static_cast<std::int64_t>(study.qnet.layers().front().in_dim()));
  EXPECT_EQ(field(entry, "outputs").as_int(),
            static_cast<std::int64_t>(study.qnet.layers().back().out_dim()));
  EXPECT_EQ(field(entry, "samples").as_int(),
            static_cast<std::int64_t>(study.test_y.size()));
  // The fingerprint must identify the exact loaded network, not just its
  // shape: recompute from the shared study.
  char expected[17];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(study.qnet.fingerprint()));
  EXPECT_EQ(field(entry, "fingerprint").as_string(), expected);
  // The advertised probe point is the harness's canonical good sample:
  // the first P1-correct one.  Wire clients (tools/serve_client.py) rely
  // on it to issue meaningful P2 queries without the dataset.
  const Json& probe = field(entry, "probe");
  EXPECT_EQ(field(probe, "label").as_int(), harness::good_sample_label());
  const std::vector<util::i64> good_x = harness::good_sample_x();
  const auto& probe_x = field(probe, "x").as_array();
  ASSERT_EQ(probe_x.size(), good_x.size());
  for (std::size_t i = 0; i < good_x.size(); ++i) {
    EXPECT_EQ(probe_x[i].as_int(), good_x[i]);
  }
}

TEST(ServeIntrospection, EnginesMirrorTheRegistryCaps) {
  TestServer server;
  ServeClient client(server.port());
  const ServeClient::Reply reply =
      client.call(harness::simple_request(2, "engines"));
  ASSERT_EQ(reply.final_type(), "result");
  const Json& engines = field(field(*reply.final, "body"), "engines");
  const auto names = verify::registry().names();
  ASSERT_EQ(engines.as_array().size(), names.size());
  for (const Json& entry : engines.as_array()) {
    const std::string& name = field(entry, "name").as_string();
    const verify::EngineCaps caps = verify::engine(name).caps();
    EXPECT_EQ(field(entry, "complete").as_bool(), caps.complete) << name;
    EXPECT_EQ(field(entry, "deadline").as_bool(), caps.deadline) << name;
  }
}

TEST(ServeIntrospection, StatsCountRequests) {
  TestServer server;
  ServeClient client(server.port());
  (void)client.call(harness::simple_request(1, "ping"));
  const ServeClient::Reply reply =
      client.call(harness::simple_request(2, "stats"));
  ASSERT_EQ(reply.final_type(), "result");
  const Json& body = field(*reply.final, "body");
  EXPECT_GE(field(body, "requests").as_int(), 2);
  EXPECT_GE(field(body, "connections_accepted").as_int(), 1);
  EXPECT_EQ(field(body, "connections_active").as_int(), 1);
}

// --- bit-identity against direct library calls ------------------------------

TEST(ServeVerify, BitIdenticalToDirectSchedulerExecution) {
  TestServer server;
  ServeClient client(server.port());
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();
  const core::Fannet fannet(harness::shared_case_study().qnet);

  for (const int range : {3, 9, 15}) {
    const ServeClient::Reply reply = client.call(
        harness::verify_request(static_cast<std::uint64_t>(range), x, label,
                                range, "cascade"));
    ASSERT_EQ(reply.final_type(), "result") << "range " << range;
    const Json& body = field(*reply.final, "body");

    const verify::Query query = fannet.make_query(
        x, label, verify::NoiseBox::symmetric(x.size(), range), false);
    const verify::VerifyResult direct =
        verify::Scheduler({.threads = 1})
            .verify_one(query, verify::engine("cascade"));

    const char* expected = direct.verdict == verify::Verdict::kVulnerable
                               ? "vulnerable"
                               : (direct.verdict == verify::Verdict::kRobust
                                      ? "robust"
                                      : "unknown");
    EXPECT_EQ(field(body, "verdict").as_string(), expected) << "range " << range;
    const Json* cex = body.find("counterexample");
    if (direct.counterexample.has_value()) {
      ASSERT_NE(cex, nullptr) << "range " << range;
      const Json& deltas = field(*cex, "deltas");
      ASSERT_EQ(deltas.as_array().size(), direct.counterexample->deltas.size());
      for (std::size_t i = 0; i < direct.counterexample->deltas.size(); ++i) {
        EXPECT_EQ(deltas.as_array()[i].as_int(),
                  direct.counterexample->deltas[i]);
      }
      EXPECT_EQ(field(*cex, "mis_label").as_int(),
                direct.counterexample->mis_label);
    } else {
      EXPECT_EQ(cex, nullptr) << "range " << range;
    }
  }
}

TEST(ServeVerify, SharedCacheAnswersAcrossConnections) {
  TestServer server;
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();
  const std::string request = harness::verify_request(1, x, label, 9);

  ServeClient first(server.port());
  const ServeClient::Reply cold = first.call(request);
  ASSERT_EQ(cold.final_type(), "result");
  EXPECT_FALSE(field(field(*cold.final, "body"), "cache_hit").as_bool());

  ServeClient second(server.port());
  const ServeClient::Reply warm = second.call(request);
  ASSERT_EQ(warm.final_type(), "result");
  EXPECT_TRUE(field(field(*warm.final, "body"), "cache_hit").as_bool());
  // Cached and executed answers must agree.
  EXPECT_EQ(field(field(*warm.final, "body"), "verdict").as_string(),
            field(field(*cold.final, "body"), "verdict").as_string());

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
}

TEST(ServeBatch, StreamsProgressAndMatchesDirectVerdicts) {
  TestServer server;
  ServeClient client(server.port());
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();
  std::vector<int> ranges;
  for (int r = 1; r <= 12; ++r) ranges.push_back(r);

  const ServeClient::Reply reply =
      client.call(harness::batch_request(5, x, label, ranges, 4));
  ASSERT_EQ(reply.final_type(), "result");
  // 12 items, progress every 4, no frame after the last chunk: done=4, done=8.
  ASSERT_EQ(reply.progress.size(), 2u);
  EXPECT_EQ(field(reply.progress[0], "done").as_int(), 4);
  EXPECT_EQ(field(reply.progress[1], "done").as_int(), 8);
  EXPECT_EQ(field(reply.progress[0], "total").as_int(), 12);

  const Json& body = field(*reply.final, "body");
  const Json& items = field(body, "items");
  ASSERT_EQ(items.as_array().size(), ranges.size());

  const core::Fannet fannet(harness::shared_case_study().qnet);
  const verify::Scheduler direct({.threads = 1});
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const verify::VerifyResult r = direct.verify_one(
        fannet.make_query(x, label,
                          verify::NoiseBox::symmetric(x.size(), ranges[i]),
                          false),
        verify::engine("cascade"));
    const char* expected =
        r.verdict == verify::Verdict::kVulnerable ? "vulnerable" : "robust";
    EXPECT_EQ(field(items.as_array()[i], "verdict").as_string(), expected)
        << "range " << ranges[i];
  }
  EXPECT_EQ(field(field(body, "stats"), "queries").as_int(), 12);
  EXPECT_GE(server.stats().progress_frames, 2u);
}

TEST(ServeTolerance, MatchesCoreAnalyzeTolerance) {
  TestServer server;
  ServeClient client(server.port());
  const core::CaseStudy& study = harness::shared_case_study();
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();
  // Direct library runs use a one-row matrix of the same sample.
  la::Matrix<util::i64> inputs(1, x.size());
  for (std::size_t c = 0; c < x.size(); ++c) inputs(0, c) = x[c];

  // The bias node adds a noise dimension, so the second pass descends to a
  // different minimal flipping range.
  std::uint64_t id = 8;
  for (const bool bias_node : {false, true}) {
    SCOPED_TRACE(bias_node ? "bias_node" : "no bias_node");
    Json request = harness::request_base(++id, "tolerance");
    request.set("x", harness::int_array(x));
    request.set("true_label", Json::integer(label));
    request.set("start_range", Json::integer(50));
    request.set("bias_node", Json::boolean(bias_node));
    const ServeClient::Reply reply = client.call(request.dump());
    ASSERT_EQ(reply.final_type(), "result");
    const Json& body = field(*reply.final, "body");
    EXPECT_TRUE(field(body, "correct_without_noise").as_bool());

    core::ToleranceConfig config;
    config.start_range = 50;
    config.bias_node = bias_node;
    config.threads = 1;
    const core::ToleranceReport report =
        core::Fannet(study.qnet).analyze_tolerance(inputs, {label}, config);
    ASSERT_EQ(report.per_sample.size(), 1u);
    const core::SampleTolerance& direct = report.per_sample[0];
    EXPECT_EQ(field(body, "probes").as_int(),
              static_cast<std::int64_t>(report.queries));

    const Json& min_flip = field(body, "min_flip_range");
    if (direct.min_flip_range.has_value()) {
      ASSERT_TRUE(min_flip.is_int());
      EXPECT_EQ(min_flip.as_int(), *direct.min_flip_range);
      ASSERT_TRUE(direct.witness.has_value());
      const Json& witness = field(body, "witness");
      const Json& deltas = field(witness, "deltas");
      ASSERT_EQ(deltas.as_array().size(), direct.witness->deltas.size());
      for (std::size_t i = 0; i < direct.witness->deltas.size(); ++i) {
        EXPECT_EQ(deltas.as_array()[i].as_int(), direct.witness->deltas[i]);
      }
      EXPECT_EQ(field(witness, "bias_delta").as_int(),
                direct.witness->bias_delta);
      EXPECT_EQ(field(witness, "mis_label").as_int(),
                direct.witness->mis_label);
    } else {
      EXPECT_TRUE(min_flip.is_null());
    }
  }
}

TEST(ServeSensitivity, MatchesCoreAnalyzeSensitivity) {
  TestServer server;
  ServeClient client(server.port());
  const core::CaseStudy& study = harness::shared_case_study();
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();
  const int range = 20;

  la::Matrix<util::i64> inputs(1, x.size());
  for (std::size_t c = 0; c < x.size(); ++c) inputs(0, c) = x[c];
  core::SensitivityConfig config;
  config.threads = 1;
  const core::NodeSensitivityReport report = core::analyze_sensitivity(
      core::Fannet(study.qnet), inputs, {label}, range, {}, config);

  std::uint64_t id = 100;
  for (const std::size_t node : {std::size_t{0}, std::size_t{2},
                                 std::size_t{4}}) {
    for (const int direction : {1, -1}) {
      Json request = harness::request_base(++id, "sensitivity");
      request.set("x", harness::int_array(x));
      request.set("true_label", Json::integer(label));
      request.set("box", harness::box_json(range));
      request.set("node", Json::integer(static_cast<std::int64_t>(node)));
      request.set("direction", Json::integer(direction));
      const ServeClient::Reply reply = client.call(request.dump());
      ASSERT_EQ(reply.final_type(), "result") << "node " << node;
      const bool expected = direction > 0 ? report.positive_possible[node]
                                          : report.negative_possible[node];
      EXPECT_EQ(field(field(*reply.final, "body"), "possible").as_bool(),
                expected)
          << "node " << node << " direction " << direction;
    }

    Json solo = harness::request_base(++id, "sensitivity");
    solo.set("x", harness::int_array(x));
    solo.set("true_label", Json::integer(label));
    solo.set("box", harness::box_json(range));
    solo.set("node", Json::integer(static_cast<std::int64_t>(node)));
    solo.set("direction", Json::integer(0));
    const ServeClient::Reply reply = client.call(solo.dump());
    ASSERT_EQ(reply.final_type(), "result") << "node " << node;
    const Json& min_flip = field(field(*reply.final, "body"), "min_flip");
    if (report.solo_flip_range[node].has_value()) {
      ASSERT_TRUE(min_flip.is_int()) << "node " << node;
      EXPECT_EQ(min_flip.as_int(), *report.solo_flip_range[node])
          << "node " << node;
    } else {
      EXPECT_TRUE(min_flip.is_null()) << "node " << node;
    }
  }
}

// --- deadlines, errors, framing, disconnect, admission, drain ---------------

TEST(ServeDeadline, ExpiresPerRequestWithoutPoisoningTheConnection) {
  TestServer server;
  ServeClient client(server.port());
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();

  // Enumerate over ±40 on 5 dims is astronomically large; the 50ms deadline
  // must cut it off with a structured unknown, not a hang.
  const ServeClient::Reply expired = client.call(
      harness::verify_request(1, x, label, 40, "enumerate", 50));
  ASSERT_EQ(expired.final_type(), "result");
  const Json& body = field(*expired.final, "body");
  EXPECT_EQ(field(body, "verdict").as_string(), "unknown");
  EXPECT_TRUE(field(body, "resource_limited").as_bool());
  EXPECT_TRUE(field(body, "deadline_expired").as_bool());
  EXPECT_GE(server.stats().deadline_expired, 1u);

  // The connection (and the server) keep answering normally afterwards.
  const ServeClient::Reply next =
      client.call(harness::verify_request(2, x, label, 5, "cascade"));
  ASSERT_EQ(next.final_type(), "result");
  EXPECT_FALSE(field(field(*next.final, "body"), "resource_limited").as_bool());
}

TEST(ServeDeadline, DeadlinePastTheClockRangeDecidesNormally) {
  // INT64_MAX ms lies past what the steady clock can represent: it must
  // never pass, not overflow into an already-expired deadline.
  TestServer server;
  ServeClient client(server.port());
  const ServeClient::Reply reply = client.call(harness::verify_request(
      1, harness::good_sample_x(), harness::good_sample_label(), 5, "cascade",
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())));
  ASSERT_EQ(reply.final_type(), "result");
  const Json& body = field(*reply.final, "body");
  EXPECT_NE(field(body, "verdict").as_string(), "unknown");
  EXPECT_FALSE(field(body, "resource_limited").as_bool());
  EXPECT_FALSE(field(body, "deadline_expired").as_bool());
  EXPECT_EQ(server.stats().deadline_expired, 0u);
}

TEST(ServeErrors, StructuredErrorsKeepTheConnectionUsable) {
  TestServer server;
  ServeClient client(server.port());
  const std::vector<util::i64> x = harness::good_sample_x();

  struct Case {
    std::string payload;
    const char* code;
  };
  // Built without request_base: Json::set appends, and a duplicate "model"
  // key would shadow the bad one (find returns the first).
  Json bad_model = Json::object();
  bad_model.set("id", Json::integer(1));
  bad_model.set("type", Json::string("verify"));
  bad_model.set("model", Json::string("no-such-model"));
  bad_model.set("x", harness::int_array(x));
  bad_model.set("true_label", Json::integer(0));
  bad_model.set("box", harness::box_json(5));
  Json bad_engine = harness::request_base(2, "verify");
  bad_engine.set("x", harness::int_array(x));
  bad_engine.set("true_label", Json::integer(0));
  bad_engine.set("box", harness::box_json(5));
  bad_engine.set("engine", Json::string("no-such-engine"));
  Json no_box = harness::request_base(4, "verify");
  no_box.set("x", harness::int_array(x));
  no_box.set("true_label", Json::integer(0));

  const std::vector<Case> cases = {
      {bad_model.dump(), "unknown_model"},
      {bad_engine.dump(), "unknown_engine"},
      {harness::simple_request(3, "no-such-type"), "bad_request"},
      {no_box.dump(), "bad_request"},
      {"{\"id\": 5, \"type\":", "bad_json"},
      {"[1, 2, 3]", "bad_request"},
  };
  for (const Case& c : cases) {
    const ServeClient::Reply reply = client.call(c.payload);
    ASSERT_EQ(reply.final_type(), "error") << c.payload;
    EXPECT_EQ(reply.error_code(), c.code) << c.payload;
  }
  // Request-level errors never poison the connection.
  EXPECT_EQ(client.call(harness::simple_request(9, "ping")).final_type(),
            "pong");
  EXPECT_EQ(server.stats().errors, cases.size());
}

TEST(ServeFraming, ZeroLengthFrameAnswersBadFrameThenCloses) {
  TestServer server;
  ServeClient client(server.port());
  ASSERT_TRUE(client.send_prefix(0));
  std::optional<Json> frame = client.recv_json();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(field(*frame, "type").as_string(), "error");
  EXPECT_EQ(field(*frame, "code").as_string(), "bad_frame");
  // Stream is unusable afterwards; the server closes.
  EXPECT_FALSE(client.recv_payload().has_value());
}

TEST(ServeFraming, OversizedPrefixAnswersOversizedThenCloses) {
  TestServer server;
  ServeClient client(server.port());
  ASSERT_TRUE(client.send_prefix(static_cast<std::uint32_t>(
      kDefaultMaxFrameBytes + 1)));
  std::optional<Json> frame = client.recv_json();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(field(*frame, "code").as_string(), "oversized");
  EXPECT_FALSE(client.recv_payload().has_value());
}

TEST(ServeFraming, TornFrameIsTreatedAsDisconnect) {
  TestServer server;
  {
    ServeClient client(server.port());
    ASSERT_TRUE(client.send_prefix(100));
    ASSERT_TRUE(client.send_raw("only ten b"));  // 10 of the claimed 100
    client.close();
  }
  // The session must wind down cleanly (no crash, no stuck thread): the
  // server still answers fresh connections.
  ServeClient probe(server.port());
  EXPECT_EQ(probe.call(harness::simple_request(1, "ping")).final_type(),
            "pong");
}

TEST(ServeDisconnect, AbruptCloseCancelsActiveWork) {
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();
  // Three enumerate requests that run for minutes unless cancelled: a
  // verify over ±40; a tolerance descent from ±34, one below the sample's
  // minimal flipping range, so its start-range screen walks the whole grid;
  // and a directional sensitivity probe over ±40.
  Json tolerance = harness::request_base(1, "tolerance");
  tolerance.set("x", harness::int_array(x));
  tolerance.set("true_label", Json::integer(label));
  tolerance.set("start_range", Json::integer(34));
  tolerance.set("engine", Json::string("enumerate"));
  Json sensitivity = harness::request_base(1, "sensitivity");
  sensitivity.set("x", harness::int_array(x));
  sensitivity.set("true_label", Json::integer(label));
  sensitivity.set("box", harness::box_json(40));
  sensitivity.set("node", Json::integer(0));
  sensitivity.set("direction", Json::integer(1));
  sensitivity.set("engine", Json::string("enumerate"));
  const std::vector<std::pair<std::string, std::string>> requests = {
      {"verify", harness::verify_request(1, x, label, 40, "enumerate")},
      {"tolerance", tolerance.dump()},
      {"sensitivity", sensitivity.dump()}};

  for (const auto& [type, request] : requests) {
    SCOPED_TRACE(type);
    TestServer server;
    {
      ServeClient client(server.port());
      ASSERT_TRUE(client.send_frame(request));
      // Let the worker pick it up, then vanish mid-execution.
      (void)poll_stats(server, [](const ServerStats& s) {
        return s.requests >= 1;
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      client.close_abrupt();
    }
    EXPECT_TRUE(poll_stats(server, [](const ServerStats& s) {
      return s.cancelled_disconnect >= 1;
    })) << "disconnect did not cancel the in-flight request";
    // The session's worker exits only once the request's work returned.
    EXPECT_TRUE(poll_stats(server, [](const ServerStats& s) {
      return s.connections_active == 0;
    })) << "cancelled work kept running";
    server.stop();  // must not hang on the cancelled work
  }
}

TEST(ServeAdmission, SaturatesAboveMaxInflightWithRetryHint) {
  ServeOptions options = TestServer::test_options();
  options.max_inflight = 1;
  TestServer server(options);
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();

  ServeClient hog(server.port());
  ASSERT_TRUE(hog.send_frame(
      harness::verify_request(1, x, label, 40, "enumerate")));
  ASSERT_TRUE(poll_stats(server, [](const ServerStats& s) {
    return s.requests >= 1;
  }));

  ServeClient rejected(server.port());
  const ServeClient::Reply reply = rejected.call(
      harness::verify_request(2, x, label, 5, "cascade"));
  ASSERT_EQ(reply.final_type(), "error");
  EXPECT_EQ(reply.error_code(), "saturated");
  EXPECT_GT(field(*reply.final, "retry_after_ms").as_int(), 0);
  // Introspection is exempt from admission control.
  EXPECT_EQ(rejected.call(harness::simple_request(3, "ping")).final_type(),
            "pong");
  EXPECT_GE(server.stats().rejected_saturated, 1u);

  hog.close_abrupt();
  ASSERT_TRUE(poll_stats(server, [](const ServerStats& s) {
    return s.cancelled_disconnect >= 1;
  }));
}

TEST(ServeDrain, FinishesQueuedWorkBeforeExit) {
  TestServer server;
  ServeClient client(server.port());
  const std::vector<util::i64> x = harness::good_sample_x();
  const int label = harness::good_sample_label();
  std::vector<int> ranges;
  for (int r = 1; r <= 8; ++r) ranges.push_back(r);

  ASSERT_TRUE(client.send_frame(
      harness::batch_request(1, x, label, ranges, 2)));
  // Wait until execution demonstrably started, then drain mid-request.
  std::optional<Json> first = client.recv_json();
  ASSERT_TRUE(first.has_value());
  server.server().request_drain();

  // The in-flight batch finishes and its remaining frames arrive.
  std::optional<Json> final_frame;
  for (std::optional<Json> frame = std::move(first); frame.has_value();
       frame = client.recv_json()) {
    if (field(*frame, "type").as_string() != "progress") {
      final_frame = std::move(frame);
      break;
    }
  }
  ASSERT_TRUE(final_frame.has_value());
  EXPECT_EQ(field(*final_frame, "type").as_string(), "result");
  ASSERT_EQ(field(field(*final_frame, "body"), "items").as_array().size(),
            ranges.size());

  // New connections are refused once draining.
  ServeClient late(server.port());
  EXPECT_TRUE(!late.connected() ||
              !late.call(harness::simple_request(9, "ping")).final.has_value());
  server.server().wait();
}

}  // namespace
}  // namespace fannet::serve
