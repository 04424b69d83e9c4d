/// \file
/// \brief `fannet_serve` wire protocol: length-prefixed JSON frames
///   (DESIGN.md §14, docs/serve.md).
///
/// Every message in either direction is one *frame*: a 4-byte big-endian
/// unsigned payload length followed by exactly that many bytes of UTF-8
/// JSON.  Length 0 and lengths above the server's frame cap are protocol
/// errors (the server answers with a structured `error` frame, then closes).
/// Frames are self-delimiting, so one connection carries any number of
/// requests and interleaved responses/progress frames.
///
/// Requests carry a client-chosen `id` echoed on every frame the server
/// emits for them, so a pipelining client can match responses.  The request
/// surface (docs/serve.md has the full schemas):
///
///   ping | models | engines | stats      introspection, always admitted
///   verify                               one P2 query -> one result frame
///   batch                                many P2 boxes -> progress frames +
///                                        one result frame with all verdicts
///   tolerance                            per-sample min-flip-range descent
///   sensitivity                          directional / solo node probe
///   weight_faults                        parameter-fault scan summary
///
/// Server -> client frame types: `result`, `progress`, `error`, `pong`.
/// `error` frames carry a stable `code` (docs/serve.md lists them) and,
/// for admission-control rejections, a `retry_after_ms` hint.
///
/// This header is transport-free: framing works over any file descriptor
/// (the server's accepted sockets, the test harness's client sockets), and
/// parse/serialize work on strings — which is what lets the protocol fuzz
/// suite attack the decoder without a network in the loop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.hpp"
#include "verify/query.hpp"

namespace fannet::serve {

/// Hard ceiling a frame length prefix may claim by default (1 MiB).  The
/// server's per-instance cap (`ServeOptions::max_frame_bytes`) may lower it
/// but never raise it above this sanity bound.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// Stable error codes carried in `error` frames.  String-typed on the wire;
/// the enum exists so server and tests never drift on spelling.
enum class ErrorCode : std::uint8_t {
  kBadFrame,      ///< zero-length or malformed frame prefix
  kOversized,     ///< length prefix above the server's frame cap
  kBadJson,       ///< payload is not valid JSON
  kBadRequest,    ///< JSON is valid but violates the request schema
  kUnknownModel,  ///< `model` names nothing in the fleet
  kUnknownEngine, ///< `engine` names nothing in the registry
  kSaturated,     ///< admission control rejected (complete-engine queue full)
  kShuttingDown,  ///< server is draining; no new work accepted
  kTimeout,       ///< client stalled mid-frame (slowloris defense)
  kInternal,      ///< engine exception; message carries what()
};

[[nodiscard]] std::string_view error_code_name(ErrorCode code);

/// One P2 box in a request: either a symmetric `range` or explicit
/// per-dimension bounds.  `lo`/`hi` empty means "symmetric(range)".
struct RequestBox {
  int range = 0;
  std::vector<int> lo, hi;
};

/// A parsed, schema-validated client request.  Exactly the fields the
/// session manager needs; unknown JSON fields are ignored (forward
/// compatibility), missing/ill-typed required fields throw ParseError.
struct Request {
  std::uint64_t id = 0;
  std::string type;
  std::string model;             ///< fleet key (verify/batch/analyses)
  std::string engine = "cascade";
  std::vector<util::i64> x;      ///< base input (verify/tolerance/sensitivity)
  int true_label = 0;
  bool bias_node = false;
  RequestBox box;                ///< verify / sensitivity range
  std::vector<RequestBox> items; ///< batch: one box per item (same x/label)
  std::uint64_t deadline_ms = 0; ///< per-request deadline; 0 = server default
  std::size_t progress_every = 0;  ///< batch progress cadence
  int start_range = 50;          ///< tolerance descent start
  std::size_t node = 0;          ///< sensitivity probe node
  int direction = 0;             ///< sensitivity: +1 / -1 directional, 0 solo
  int max_percent = 10;          ///< weight_faults scan limit
  int step = 1;                  ///< weight_faults percent granularity
  std::string fault_model = "percent";
};

/// Parses and validates one request payload.  Throws util::ParseError with
/// a human-readable message (field names included) on any schema violation;
/// the server maps that to a `bad_request` error frame.
[[nodiscard]] Request parse_request(std::string_view payload,
                                    std::size_t max_items = 4096);

// --- response builders (all return complete JSON payloads) -----------------

[[nodiscard]] std::string make_pong(std::uint64_t id);
[[nodiscard]] std::string make_error(std::uint64_t id, ErrorCode code,
                                     std::string_view message,
                                     std::uint64_t retry_after_ms = 0);
[[nodiscard]] std::string make_progress(std::uint64_t id, std::size_t done,
                                        std::size_t total);

/// One counterexample as `{deltas, bias_delta, mis_label}` (a verify
/// result's `counterexample`, a tolerance result's `witness`).
[[nodiscard]] Json counterexample_json(const verify::Counterexample& cex);

/// One VerifyResult as a JSON object value (shared by `result` frames for
/// verify / batch / sensitivity).  `cache_hit` is emitted only when known
/// (single-query requests report it; batch items carry only the batch
/// aggregate).
[[nodiscard]] Json verify_result_json(
    const verify::VerifyResult& result,
    std::optional<bool> cache_hit = std::nullopt);
[[nodiscard]] std::string make_result(std::uint64_t id, Json body);

// --- framing over a file descriptor ----------------------------------------

/// Outcome of read_frame: distinguishes "clean close between frames" from
/// every flavour of torn/oversized/stalled input so the session layer can
/// answer each one correctly.
enum class FrameStatus : std::uint8_t {
  kOk,         ///< payload holds one complete frame
  kClosed,     ///< EOF on a frame boundary (clean close)
  kTorn,       ///< EOF / error mid-frame (torn length prefix or payload)
  kOversized,  ///< length prefix exceeded the cap (stream now unusable)
  kBadLength,  ///< zero-length frame
  kTimeout,    ///< stalled mid-frame past the stall budget (slowloris)
};

/// Reads one frame from `fd`.  Blocks between frames indefinitely (idle
/// persistent connections are legal); once the first byte of a frame
/// arrives, the remainder must land within `stall_ms` milliseconds total
/// (0 = no stall budget).  Requires the fd to have an O(100ms) SO_RCVTIMEO
/// so the stall budget is actually polled; read_frame arranges nothing
/// itself.  On kOk, `payload` holds the frame body.
[[nodiscard]] FrameStatus read_frame(int fd, std::size_t max_bytes,
                                     std::uint64_t stall_ms,
                                     std::string& payload);

/// Writes one frame (4-byte big-endian length + payload) to `fd`.
/// Returns false when the peer is gone (EPIPE/ECONNRESET — the caller
/// treats it as a disconnect, never a crash; SIGPIPE is suppressed).
[[nodiscard]] bool write_frame(int fd, std::string_view payload);

}  // namespace fannet::serve
