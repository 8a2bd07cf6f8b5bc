#pragma once
// Shared pieces of the repository benchmark: the run arguments and result,
// the benchmark's own span recorder, seeded input streams, order
// statistics, and machine calibration (STREAM triad, peak RSS).
//
// Spans are recorded only by the benchmark's files, around calls into the
// treecode modules' public APIs; nothing inside src/ is instrumented. A
// span's name is "<layer>.<what>" where <layer> is the module called
// (tree, core, engine, multipole, parallel, bem, linalg, service) or "op"
// for one whole benchmark operation.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;        ///< evaluation threads; 0 = nproc
  std::string trace_out;       ///< where the traced run writes its spans
  std::string source_id = "unknown";
};

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports. `e2e` holds the end-to-end metrics of
/// BENCHMARK.json, `layer` the per-layer ones, `work` the exact work
/// counts, and `detail` workload-specific end-to-end figures that have no
/// BENCHMARK.json slot of their own (printed in the report line).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few check failures, for stderr
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, double> work;
  std::map<std::string, Metric> detail;
  std::vector<double> op_ms;        ///< untraced pass: latency of every op

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void set_e2e(const std::string& name, double v, const char* unit) { e2e[name] = {v, unit}; }
  void set_layer(const std::string& name, double v, const char* unit) {
    layer[name] = {v, unit};
  }
};

// ---------------------------------------------------------------------------
// Span recorder

struct SpanRecord {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int lane = 0;  ///< the recording thread, numbered in order of first span
};

/// Process-wide span store. Disabled (the untraced run) it records
/// nothing and a Span costs one relaxed branch.
class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] static std::int64_t now_ns();

  /// Open a span on the calling thread; its parent is the thread's
  /// innermost open span.
  std::int64_t begin(const char* name);
  void end(std::int64_t id);
  /// Record a finished span of the calling thread with explicit times and
  /// parent (for calls timed before the span could be named).
  std::int64_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                      std::int64_t parent);

  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  /// Write every span as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span on the current thread.
class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::get().enabled() ? Tracer::get().begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::get().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_;
};

/// Per-name statistics of a span set: each span's duration and self time
/// (its duration minus the union of its children's intervals).
struct SpanStats {
  std::vector<double> self_s;   ///< one entry per span
  std::vector<double> total_s;  ///< one entry per span
};
std::map<std::string, SpanStats> span_stats(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Seeded inputs

/// Independent, reproducible random stream for (run seed, purpose, index).
[[nodiscard]] std::mt19937_64 stream(std::uint64_t seed, std::uint64_t purpose,
                                     std::uint64_t index = 0);
/// n values uniform in [0.5, 1.5].
[[nodiscard]] std::vector<double> positive_charges(std::mt19937_64& rng, std::size_t n);

// ---------------------------------------------------------------------------
// Order statistics

[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
[[nodiscard]] double sum(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Machine

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::size_t llc_bytes();
/// STREAM triad a = b + s*c over `threads` threads with arrays of
/// `array_bytes` each; best of a few repetitions, in GB/s (24 bytes per
/// element counted, as STREAM does).
[[nodiscard]] double stream_triad_gbps(std::size_t array_bytes, unsigned threads);

}  // namespace perfbench
