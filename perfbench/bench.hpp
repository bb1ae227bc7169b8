// Shared vocabulary of the benchmark's workloads: the run configuration,
// the result every workload fills in, and small measurement helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root;        ///< checkout root (model files are read relative to it)
  std::string trace_path;  ///< where the traced mode writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts that must repeat exactly from run to run; run.py compares them
/// across runs of the same workload and seed and flags any drift.
struct Count {
  std::string name;
  std::uint64_t value = 0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, refused or wrong answers
  std::vector<std::string> errors;  ///< one line per failed check
  /// Untraced mode: the end-to-end metrics.  Traced mode: the per-layer
  /// metrics this workload exercises (main.cpp fills in the rest as 0).
  std::vector<Metric> metrics;
  std::vector<Count> counts;
  /// Peak RSS (VmHWM) once the workload has set up and answered its first
  /// query (pipelines) or its timed phase (serve-mixed).  Later answers of
  /// a pipeline run only add allocator fragmentation, which would make the
  /// figure depend on how many answers fit in the run.
  double peak_rss_mb = 0.0;
  std::vector<std::string> notes;  ///< extra lines for people (sample counts)

  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
};

/// Set-up runs kSetupBefore times before the timed phase and kSetupAfter
/// times after it, and setup_s is the median of all of them.  Spreading
/// the repeats over the run keeps one slow phase of a shared host from
/// deciding the figure.
inline constexpr int kSetupBefore = 3;
inline constexpr int kSetupAfter = 2;

/// Peak resident set size of this process so far, in MB (VmHWM).
double peak_rss_mb();

/// Nearest-rank percentile (q in [0, 1]) of @p samples; 0 when empty.
double percentile(std::vector<double> samples, double q);

/// Median of @p samples; 0 when empty.
double median(std::vector<double> samples);

/// The answers of one timed phase, in completion order.
struct Phase {
  double start = 0.0;             ///< phase start (tracer clock, seconds)
  std::vector<double> latencies;  ///< per answer, seconds
  std::vector<double> finished;   ///< per answer, completion time (tracer clock)
};

/// Latency and throughput of a phase's worst window.  The phase is cut into
/// windows of @p window consecutive answers (a shorter tail joins the last
/// window); each figure is the worst any window reached: highest median,
/// highest 99th percentile, fewest answers per second.  On a shared host
/// other tenants slow a run down for seconds at a time, to a level that
/// holds steady, while how much of a run they slow and how quiet its best
/// moments are change from run to run; so the worst window repeats better
/// than the best one or the whole phase.
struct WindowStats {
  double p50 = 0.0;  ///< seconds
  double p99 = 0.0;  ///< seconds
  double qps = 0.0;
  std::size_t windows = 0;
};
WindowStats worst_window(const Phase& phase, std::size_t window);

/// Adds the latency metrics shared by every workload (answer_s,
/// latency_p50_ms, latency_p99_ms, throughput_qps) from worst_window().
void add_latency_metrics(Outcome& out, const Phase& phase, std::size_t window);

/// Reads a file of the checkout; throws std::runtime_error when missing.
std::string read_file(const std::string& path);

// Workloads (pipeline.cpp, serve.cpp).  Each runs its set-up, timed phase
// and answer checks, and fills @p out.
void run_table1(const RunConfig& config, Outcome& out);
void run_long_horizon_ctmdp(const RunConfig& config, Outcome& out);
void run_long_horizon_ctmc(const RunConfig& config, Outcome& out);
void run_serve_mixed(const RunConfig& config, Outcome& out);

}  // namespace perfbench
