#include "serve/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace fannet::serve {

namespace {

[[noreturn]] void bad(const std::string& what) { throw ParseError(what); }

std::uint64_t get_u64(const Json& obj, std::string_view key,
                      std::uint64_t fallback, bool required = false) {
  const Json* v = obj.find(key);
  if (v == nullptr) {
    if (required) bad("request: missing field '" + std::string(key) + "'");
    return fallback;
  }
  if (!v->is_int() || v->as_int() < 0) {
    bad("request: field '" + std::string(key) +
        "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v->as_int());
}

int get_int(const Json& obj, std::string_view key, int fallback,
            bool required = false) {
  const Json* v = obj.find(key);
  if (v == nullptr) {
    if (required) bad("request: missing field '" + std::string(key) + "'");
    return fallback;
  }
  if (!v->is_int() || v->as_int() < INT32_MIN || v->as_int() > INT32_MAX) {
    bad("request: field '" + std::string(key) + "' must be an integer");
  }
  return static_cast<int>(v->as_int());
}

std::string get_string(const Json& obj, std::string_view key,
                       std::string fallback, bool required = false) {
  const Json* v = obj.find(key);
  if (v == nullptr) {
    if (required) bad("request: missing field '" + std::string(key) + "'");
    return fallback;
  }
  if (!v->is_string()) {
    bad("request: field '" + std::string(key) + "' must be a string");
  }
  return v->as_string();
}

bool get_bool(const Json& obj, std::string_view key, bool fallback) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    bad("request: field '" + std::string(key) + "' must be a boolean");
  }
  return v->as_bool();
}

std::vector<int> get_int_array(const Json& v, std::string_view key) {
  if (!v.is_array()) {
    bad("request: field '" + std::string(key) + "' must be an array");
  }
  std::vector<int> out;
  out.reserve(v.as_array().size());
  for (const Json& e : v.as_array()) {
    if (!e.is_int() || e.as_int() < INT32_MIN || e.as_int() > INT32_MAX) {
      bad("request: field '" + std::string(key) +
          "' must hold exact integers");
    }
    out.push_back(static_cast<int>(e.as_int()));
  }
  return out;
}

RequestBox parse_box(const Json& obj, std::size_t max_dims) {
  RequestBox box;
  const Json* lo = obj.find("lo");
  const Json* hi = obj.find("hi");
  if (lo != nullptr || hi != nullptr) {
    if (lo == nullptr || hi == nullptr) {
      bad("request: box needs both 'lo' and 'hi' (or just 'range')");
    }
    box.lo = get_int_array(*lo, "lo");
    box.hi = get_int_array(*hi, "hi");
    if (box.lo.size() != box.hi.size()) {
      bad("request: 'lo' and 'hi' must have equal length");
    }
    if (box.lo.size() > max_dims) bad("request: box has too many dimensions");
    for (std::size_t d = 0; d < box.lo.size(); ++d) {
      if (box.lo[d] > box.hi[d]) {
        bad("request: box dimension " + std::to_string(d) +
            " has lo > hi");
      }
    }
    return box;
  }
  box.range = get_int(obj, "range", 0, /*required=*/true);
  if (box.range < 0) bad("request: 'range' must be >= 0");
  return box;
}

}  // namespace

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kBadJson: return "bad_json";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownModel: return "unknown_model";
    case ErrorCode::kUnknownEngine: return "unknown_engine";
    case ErrorCode::kSaturated: return "saturated";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

Request parse_request(std::string_view payload, std::size_t max_items) {
  const Json doc = parse_json(payload);
  if (!doc.is_object()) bad("request: payload must be a JSON object");

  Request req;
  req.id = get_u64(doc, "id", 0, /*required=*/true);
  req.type = get_string(doc, "type", {}, /*required=*/true);
  req.model = get_string(doc, "model", {});
  req.engine = get_string(doc, "engine", "cascade");
  req.true_label = get_int(doc, "true_label", 0);
  req.bias_node = get_bool(doc, "bias_node", false);
  req.deadline_ms = get_u64(doc, "deadline_ms", 0);
  req.progress_every =
      static_cast<std::size_t>(get_u64(doc, "progress_every", 0));
  req.start_range = get_int(doc, "start_range", 50);
  req.node = static_cast<std::size_t>(get_u64(doc, "node", 0));
  req.direction = get_int(doc, "direction", 0);
  req.max_percent = get_int(doc, "max_percent", 10);
  req.step = get_int(doc, "step", 1);
  req.fault_model = get_string(doc, "fault_model", "percent");

  if (const Json* x = doc.find("x"); x != nullptr) {
    if (!x->is_array()) bad("request: field 'x' must be an array");
    if (x->as_array().size() > max_items) {
      bad("request: field 'x' has too many entries");
    }
    req.x.reserve(x->as_array().size());
    for (const Json& e : x->as_array()) {
      if (!e.is_int()) bad("request: field 'x' must hold exact integers");
      req.x.push_back(e.as_int());
    }
  }

  const bool needs_query = req.type == "verify" || req.type == "tolerance" ||
                           req.type == "sensitivity" || req.type == "batch";
  if (needs_query) {
    if (req.model.empty()) bad("request: missing field 'model'");
    if (req.x.empty()) bad("request: missing or empty field 'x'");
  }
  if (req.type == "weight_faults" && req.model.empty()) {
    bad("request: missing field 'model'");
  }

  if (req.type == "verify" || req.type == "sensitivity") {
    const Json* box = doc.find("box");
    if (box == nullptr || !box->is_object()) {
      bad("request: missing 'box' object");
    }
    // Dims bound uses x-size (+1 for a bias node); Query::validate does the
    // exact shape check against the network later.
    req.box = parse_box(*box, req.x.size() + 1);
  }
  if (req.type == "batch") {
    const Json* items = doc.find("items");
    if (items == nullptr || !items->is_array() || items->as_array().empty()) {
      bad("request: batch needs a non-empty 'items' array");
    }
    if (items->as_array().size() > max_items) {
      bad("request: batch has too many items (max " +
          std::to_string(max_items) + ")");
    }
    req.items.reserve(items->as_array().size());
    for (const Json& item : items->as_array()) {
      if (!item.is_object()) bad("request: batch items must be objects");
      req.items.push_back(parse_box(item, req.x.size() + 1));
    }
  }
  if (req.type == "tolerance" && req.start_range < 1) {
    bad("request: 'start_range' must be >= 1");
  }
  if (req.type == "sensitivity") {
    if (req.direction != -1 && req.direction != 0 && req.direction != 1) {
      bad("request: 'direction' must be -1, 0 (solo) or 1");
    }
    if (req.node >= req.x.size()) {
      bad("request: 'node' out of range for 'x'");
    }
  }
  if (req.type == "weight_faults") {
    if (req.max_percent < 1) bad("request: 'max_percent' must be >= 1");
    if (req.step < 1) bad("request: 'step' must be >= 1");
  }
  return req;
}

std::string make_pong(std::uint64_t id) {
  Json obj = Json::object();
  obj.set("id", Json::integer(static_cast<std::int64_t>(id)));
  obj.set("type", Json::string("pong"));
  return obj.dump();
}

std::string make_error(std::uint64_t id, ErrorCode code,
                       std::string_view message, std::uint64_t retry_after_ms) {
  Json obj = Json::object();
  obj.set("id", Json::integer(static_cast<std::int64_t>(id)));
  obj.set("type", Json::string("error"));
  obj.set("code", Json::string(std::string(error_code_name(code))));
  obj.set("message", Json::string(std::string(message)));
  if (retry_after_ms > 0) {
    obj.set("retry_after_ms",
            Json::integer(static_cast<std::int64_t>(retry_after_ms)));
  }
  return obj.dump();
}

std::string make_progress(std::uint64_t id, std::size_t done,
                          std::size_t total) {
  Json obj = Json::object();
  obj.set("id", Json::integer(static_cast<std::int64_t>(id)));
  obj.set("type", Json::string("progress"));
  obj.set("done", Json::integer(static_cast<std::int64_t>(done)));
  obj.set("total", Json::integer(static_cast<std::int64_t>(total)));
  return obj.dump();
}

Json counterexample_json(const verify::Counterexample& cex) {
  Json deltas = Json::array();
  for (const int d : cex.deltas) deltas.push_back(Json::integer(d));
  Json obj = Json::object();
  obj.set("deltas", std::move(deltas));
  obj.set("bias_delta", Json::integer(cex.bias_delta));
  obj.set("mis_label", Json::integer(cex.mis_label));
  return obj;
}

Json verify_result_json(const verify::VerifyResult& result,
                        std::optional<bool> cache_hit) {
  Json obj = Json::object();
  const char* verdict = "unknown";
  if (result.verdict == verify::Verdict::kRobust) verdict = "robust";
  if (result.verdict == verify::Verdict::kVulnerable) verdict = "vulnerable";
  obj.set("verdict", Json::string(verdict));
  obj.set("work", Json::integer(static_cast<std::int64_t>(result.work)));
  if (cache_hit.has_value()) obj.set("cache_hit", Json::boolean(*cache_hit));
  obj.set("resource_limited", Json::boolean(result.resource_limited));
  if (result.counterexample.has_value()) {
    obj.set("counterexample", counterexample_json(*result.counterexample));
  }
  return obj;
}

std::string make_result(std::uint64_t id, Json body) {
  Json obj = Json::object();
  obj.set("id", Json::integer(static_cast<std::int64_t>(id)));
  obj.set("type", Json::string("result"));
  obj.set("body", std::move(body));
  return obj.dump();
}

FrameStatus read_frame(int fd, std::size_t max_bytes, std::uint64_t stall_ms,
                       std::string& payload) {
  payload.clear();
  unsigned char header[4];
  std::size_t got = 0;
  // Stall budget: armed by the first byte of a frame.  Idle waits between
  // frames are unlimited — persistent connections are expected to sit
  // quiet — but a started frame must finish within stall_ms.
  std::optional<util::Stopwatch> stall;
  const auto stalled = [&]() {
    return stall_ms != 0 && stall.has_value() &&
           stall->millis() > static_cast<double>(stall_ms);
  };

  const auto recv_some = [&](void* buf, std::size_t want) -> long {
    for (;;) {
      const long n = ::recv(fd, buf, want, 0);
      if (n >= 0) return n;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO tick: keep waiting unless the frame is mid-flight
        // and has blown its stall budget.
        if (stalled()) return -2;
        continue;
      }
      return -1;
    }
  };

  while (got < sizeof header) {
    const long n = recv_some(header + got, sizeof header - got);
    if (n == -2) return FrameStatus::kTimeout;
    if (n < 0) return got == 0 ? FrameStatus::kClosed : FrameStatus::kTorn;
    if (n == 0) return got == 0 ? FrameStatus::kClosed : FrameStatus::kTorn;
    if (got == 0 && !stall.has_value()) stall.emplace();
    got += static_cast<std::size_t>(n);
  }

  const std::size_t length = (static_cast<std::size_t>(header[0]) << 24) |
                             (static_cast<std::size_t>(header[1]) << 16) |
                             (static_cast<std::size_t>(header[2]) << 8) |
                             static_cast<std::size_t>(header[3]);
  if (length == 0) return FrameStatus::kBadLength;
  if (length > max_bytes) return FrameStatus::kOversized;

  payload.resize(length);
  std::size_t have = 0;
  while (have < length) {
    const long n = recv_some(payload.data() + have, length - have);
    if (n == -2) return FrameStatus::kTimeout;
    if (n <= 0) return FrameStatus::kTorn;
    have += static_cast<std::size_t>(n);
  }
  return FrameStatus::kOk;
}

bool write_frame(int fd, std::string_view payload) {
  const std::size_t length = payload.size();
  unsigned char header[4] = {
      static_cast<unsigned char>((length >> 24) & 0xFF),
      static_cast<unsigned char>((length >> 16) & 0xFF),
      static_cast<unsigned char>((length >> 8) & 0xFF),
      static_cast<unsigned char>(length & 0xFF),
  };
  const auto send_all = [fd](const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    std::size_t sent = 0;
    while (sent < n) {
      const long w = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;  // EPIPE / ECONNRESET: peer is gone
      }
      sent += static_cast<std::size_t>(w);
    }
    return true;
  };
  return send_all(header, sizeof header) && send_all(payload.data(), length);
}

}  // namespace fannet::serve
