// Repository benchmark program. Runs one seeded workload and prints one
// JSON report as the last line of standard output; perfbench/run.py builds
// this program, runs it, and turns the report into the result line that
// BENCHMARK.json describes.
//
//   perfbench --workload <bem_gmres|shell_replay|cloud_oneshot|service_mix>
//             --seed N --seconds S --trace 0|1
//             [--threads N] [--trace-out spans.json] [--source-id ID]
//
// A traced run writes its spans to --trace-out; run.py derives the span
// coverage check from that file.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Why this build must not report numbers, or nullptr when it may.
const char* unfit_build() {
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
#ifdef TREECODE_FAULT_INJECT
  return "built with TREECODE_FAULT_INJECT";
#endif
#ifdef TREECODE_CHECK_INVARIANTS
  return "built with TREECODE_CHECK_INVARIANTS";
#endif
#if defined(PERFBENCH_SANITIZE) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with TREECODE_SANITIZE";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) return "CMAKE_BUILD_TYPE is not Release";
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--threads") {
      a.threads = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--source-id") {
      a.source_id = v;
    } else {
      return usage(("unknown flag " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n", why);
    return 3;
  }
  if (!(a.seconds > 0.0)) return usage("--seconds must be positive");
  if (a.trace && a.trace_out.empty()) return usage("--trace 1 needs --trace-out");
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (a.threads == 0) a.threads = nproc;

  Result r;
  try {
    if (a.workload == "bem_gmres") {
      run_bem_gmres(a, r);
    } else if (a.workload == "shell_replay") {
      run_shell_replay(a, r);
    } else if (a.workload == "cloud_oneshot") {
      run_cloud_oneshot(a, r);
    } else if (a.workload == "service_mix") {
      run_service_mix(a, r);
    } else {
      return usage(("unknown workload '" + a.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  Tracer::get().set_enabled(false);

  const double llc_mb = static_cast<double>(llc_bytes()) / 1e6;
  if (a.trace) {
    if (!Tracer::get().write_json(a.trace_out)) {
      r.fail("cannot write spans to " + a.trace_out);
    }
    // STREAM triad with arrays of at least 4x the last-level cache.
    const std::size_t array_bytes = std::max<std::size_t>(4 * llc_bytes(), 64u << 20);
    r.set_layer("machine.stream_gbps", stream_triad_gbps(array_bytes, a.threads), "GB/s");
    r.set_layer("machine.stream_array_mb", static_cast<double>(array_bytes) / 1e6, "MB");
    r.set_layer("machine.llc_mb", llc_mb, "MB");
  }
  r.set_layer("check.failed_frac",
              r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                              : 1.0,
              "ratio");
  for (const std::string& e : r.errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());

  std::string work = "{";
  for (const auto& [name, v] : r.work) {
    if (work.size() > 1) work += ", ";
    work += json_string(name) + ": " + json_number(v);
  }
  work += "}";
  std::string op_ms = "[";
  for (const double v : r.op_ms) op_ms += (op_ms.size() > 1 ? ", " : "") + json_number(v);
  op_ms += "]";
  char prov[512];
  std::snprintf(prov, sizeof prov,
                "{\"source\": %s, \"compiler\": %s, \"build_type\": %s, \"nproc\": %u, "
                "\"threads\": %u, \"llc_mb\": %s}",
                json_string(a.source_id).c_str(), json_string(PERFBENCH_COMPILER).c_str(),
                json_string(PERFBENCH_BUILD_TYPE).c_str(), nproc, a.threads,
                json_number(llc_mb).c_str());
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %llu, \"failed\": %llu, "
      "\"provenance\": %s, \"work\": %s, \"e2e\": %s, \"detail\": %s, \"layer\": %s, "
      "\"op_ms\": %s}\n",
      json_string(a.workload).c_str(), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      static_cast<unsigned long long>(r.attempted), static_cast<unsigned long long>(r.failed),
      prov, work.c_str(), metrics_json(r.e2e).c_str(), metrics_json(r.detail).c_str(),
      metrics_json(r.layer).c_str(), op_ms.c_str());
  return 0;
}
