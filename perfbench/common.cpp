#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

namespace perfbench {

namespace {
thread_local std::vector<std::int64_t> t_open;  // this thread's open span ids
std::atomic<int> g_lanes{0};

int this_lane() {
  thread_local const int lane = g_lanes.fetch_add(1);
  return lane;
}
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::begin(const char* name) {
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  const std::int64_t start = now_ns();
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, id, parent, start, start, this_lane()});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t stop = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

std::int64_t Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                            std::int64_t parent) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({name, id, parent, start_ns, end_ns, this_lane()});
  return id;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRecord> spans = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"lane\": %d}%s\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.lane, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {

/// Children of every span, by parent id.
std::vector<std::vector<std::size_t>> children_of(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) kids[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  }
  return kids;
}

/// Nanoseconds of [lo, hi) covered by the union of the child intervals.
std::int64_t covered_ns(const std::vector<SpanRecord>& spans,
                        const std::vector<std::size_t>& kids, std::int64_t lo,
                        std::int64_t hi) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(kids.size());
  for (const std::size_t k : kids) {
    const std::int64_t a = std::max(lo, spans[k].start_ns);
    const std::int64_t b = std::min(hi, spans[k].end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return covered;
}

}  // namespace

std::map<std::string, SpanStats> span_stats(const std::vector<SpanRecord>& spans) {
  const auto kids = children_of(spans);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const std::int64_t self = dur - covered_ns(spans, kids[i], s.start_ns, s.end_ns);
    SpanStats& st = out[s.name];
    st.self_s.push_back(static_cast<double>(self) * 1e-9);
    st.total_s.push_back(static_cast<double>(dur) * 1e-9);
  }
  return out;
}

std::mt19937_64 stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  // splitmix64 finalizer over the three words: distinct purposes and
  // indices give unrelated streams for one run seed.
  auto mix = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  return std::mt19937_64(mix(mix(mix(seed) ^ purpose) ^ index));
}

std::vector<double> positive_charges(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(0.5, 1.5);
  std::vector<double> q(n);
  for (double& x : q) x = u(rng);
  return q;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks (the "inclusive" method).
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{32} << 20;
}

double stream_triad_gbps(std::size_t array_bytes, unsigned threads) {
  const std::size_t n = array_bytes / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const unsigned nt = std::max(1u, threads);
  auto run = [&](auto&& body) {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < nt; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t lo = n * t / nt;
        const std::size_t hi = n * (t + 1) / nt;
        body(lo, hi);
      });
    }
    for (std::thread& w : workers) w.join();
  };
  // First touch on the threads that stream the data later.
  run([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  const double s = 3.0;
  for (int rep = 0; rep < 4; ++rep) {
    const Clock::time_point t0 = Clock::now();
    run([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double secs = seconds_between(t0, Clock::now());
    best = std::max(best, 3.0 * static_cast<double>(array_bytes) / secs / 1e9);
  }
  if (a[n / 2] != 7.0) return 0.0;  // keeps the stores observable
  return best;
}

}  // namespace perfbench
