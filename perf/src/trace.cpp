#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include "common.hpp"

namespace perf::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_current_op{-1};
std::atomic<std::int64_t> g_next_id{0};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex
thread_local std::int64_t t_open = -1;

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_current_op(std::int64_t op) {
  g_current_op.store(op, std::memory_order_relaxed);
}
std::int64_t current_op() {
  return g_current_op.load(std::memory_order_relaxed);
}

Scope::Scope(const char* name) {
  if (!enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open;
  span_.op = current_op();
  t_open = span_.id;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_open = span_.parent;
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(span_);
}

std::vector<Span> spans() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

bool write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (const Span& s : g_spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"op\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double union_ms(std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) covered += cur_end - cur_start;
  return static_cast<double>(covered) / 1e6;
}

}  // namespace perf::trace
