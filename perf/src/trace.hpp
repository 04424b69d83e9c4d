// In-memory span recorder for the traced run.  A span records its name,
// start, end, parent span and op id; spans stay in memory and are written
// out as JSON lines when the run ends.  Recording is off (a flag test per
// span) in the untraced run that yields the end-to-end metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perf::trace {

struct Span {
  const char* name = "";
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< enclosing span on the same thread, or -1
  std::int64_t op = -1;      ///< op the span belongs to, or -1
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// The op that spans opened from now on belong to, on every thread (the
/// closed-loop workloads have a single op in flight).
void set_current_op(std::int64_t op);
[[nodiscard]] std::int64_t current_op();

/// RAII span; its parent is the innermost open span on this thread.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Every span recorded so far, in completion order.
[[nodiscard]] std::vector<Span> spans();
/// Writes the spans as JSON lines; returns false if the file cannot be
/// written.
bool write(const std::string& path);

/// Milliseconds covered by the union of [start, end) intervals.
[[nodiscard]] double union_ms(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

}  // namespace perf::trace
