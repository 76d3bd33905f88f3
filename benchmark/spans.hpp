// The benchmark's own span recorder.
//
// Spans are recorded by the benchmark around its calls into the library's
// public entry points — nothing inside the library is instrumented.  Each
// span carries a name, the layer it attributes time to (named after the
// library module it calls), the request it belongs to, its parent span, and
// steady-clock start/end.  Spans are kept in memory and written once, after
// the run; when tracing is off a Span costs one relaxed load.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not tied to one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& global() {
    static SpanRecorder r;
    return r;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void add(const SpanRecord& r) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(r);
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  // Self time per layer in ms: each span's duration minus the union of its
  // children's intervals.
  std::map<std::string, double> self_ms() const {
    const std::vector<SpanRecord> all = spans();
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const SpanRecord& s : all) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, double> out;
    for (const SpanRecord& s : all) {
      std::int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t lo = iv.front().first, hi = iv.front().second;
        for (const auto& [a, b] : iv) {
          if (a > hi) {
            covered += hi - lo;
            lo = a;
            hi = b;
          } else {
            hi = std::max(hi, b);
          }
        }
        covered += hi - lo;
      }
      out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    }
    return out;
  }

  // One JSON object per span, as a JSON array.  Returns false when the file
  // cannot be written.
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<SpanRecord> all = spans();
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
      const SpanRecord& s = all[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"layer\": \"%s\", \"id\": %llu, "
                   "\"parent\": %llu, \"request\": %llu, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}%s\n",
                   s.name, s.layer, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   i + 1 == all.size() ? "" : ",");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  SpanRecorder() { spans_.reserve(1 << 16); }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

// RAII span; nests under the enclosing Span of the same thread.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t request = 0) {
    SpanRecorder& r = SpanRecorder::global();
    if (!r.enabled()) return;
    rec_.name = name;
    rec_.layer = layer;
    rec_.request = request;
    rec_.id = r.next_id();
    rec_.parent = current();
    current() = rec_.id;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (rec_.id == 0) return;
    rec_.end_ns = now_ns();
    current() = rec_.parent;
    SpanRecorder::global().add(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }
  SpanRecord rec_;
};

}  // namespace bench
