// Shared helpers for the benchmark harnesses.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "support/telemetry.hpp"

namespace unicon::bench {

/// True when the paper-scale sweep was requested via FTWC_FULL=1.
inline bool full_sweep() {
  const char* env = std::getenv("FTWC_FULL");
  return env != nullptr && env[0] == '1';
}

/// One timed Algorithm-1 (or uniformization) solve for the perf trajectory.
struct ReachabilityRecord {
  std::string bench;       // harness + case label, e.g. "table1_ftwc/N=64/t=100"
  std::size_t states = 0;  // CTMDP/CTMC states swept per iteration
  std::uint64_t k = 0;     // value-iteration steps (Poisson right bound)
  double seconds = 0.0;    // wall-clock solve time
  unsigned threads = 0;    // resolved worker count for the sweep
};

/// Typed facade over the shared telemetry::BenchJson emitter for the solver
/// harnesses: records land in BENCH_reachability.json (override with the
/// BENCH_JSON environment variable) with the keys
///   {"bench": "...", "states": 123, "k": 456, "seconds": 0.789,
///    "threads": 4}
class ReachabilityJson {
 public:
  explicit ReachabilityJson(std::string default_path = "BENCH_reachability.json")
      : out_(std::move(default_path), "BENCH_JSON") {}

  void record(ReachabilityRecord r) {
    telemetry::BenchRecord rec;
    rec.bench = std::move(r.bench);
    rec.add("states", r.states).add("k", r.k).add("seconds", r.seconds).add("threads", r.threads);
    out_.record(std::move(rec));
  }

  /// Wall times of the pipeline stages behind one solve, as
  ///   {"bench": "...", "build_s": ..., "transform_s": ..., "solve_s": ...}
  void record_stages(std::string bench, double build_s, double transform_s, double solve_s) {
    telemetry::BenchRecord rec;
    rec.bench = std::move(bench);
    rec.add("build_s", build_s).add("transform_s", transform_s).add("solve_s", solve_s);
    out_.record(std::move(rec));
  }

  void write() { out_.write(); }

 private:
  telemetry::BenchJson out_;
};

inline std::string human_bytes(std::size_t bytes) {
  char buffer[32];
  if (bytes >= 10ull * 1024 * 1024) {
    std::snprintf(buffer, sizeof buffer, "%.1f MB", static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 10ull * 1024) {
    std::snprintf(buffer, sizeof buffer, "%.1f KB", static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buffer, sizeof buffer, "%zu B", bytes);
  }
  return buffer;
}

}  // namespace unicon::bench
