// unicon_perfbench: runs one workload of the unicon benchmark and prints
// its metrics.  Normally started through perfbench/run.py, which builds
// it first:
//
//   unicon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--root DIR] [--commit ID]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  With --trace 0 the metrics are
// the end-to-end metrics, with --trace 1 the per-layer metrics (layers a
// workload does not exercise read 0).  Lines before it report the same
// numbers for people, the counts that must repeat exactly ("count ..."),
// and the run metadata ("meta {...}").  A failed answer check makes the
// run exit with status 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/backend.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"

#ifndef UNICON_PERFBENCH_BUILD_TYPE
#define UNICON_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  // VmHWM belongs to this process image.  getrusage's ru_maxrss would also
  // count the launching process: Linux folds the pre-exec address space's
  // high-water mark into it, so under run.py it would never read below the
  // Python interpreter's own footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

WindowStats worst_window(const Phase& phase, std::size_t window) {
  WindowStats worst;
  const std::size_t n = phase.latencies.size();
  const std::size_t count = std::max<std::size_t>(1, n / std::max<std::size_t>(window, 1));
  double window_start = phase.start;
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t first = w * window;
    const std::size_t last = w + 1 == count ? n : first + window;  // one past
    const std::vector<double> sample(phase.latencies.begin() + first,
                                     phase.latencies.begin() + last);
    const double p50 = median(sample);
    const double p99 = percentile(sample, 0.99);
    const double seconds = phase.finished[last - 1] - window_start;
    const double qps = static_cast<double>(last - first) / seconds;
    window_start = phase.finished[last - 1];
    worst.p50 = std::max(worst.p50, p50);
    worst.p99 = std::max(worst.p99, p99);
    worst.qps = w == 0 ? qps : std::min(worst.qps, qps);
  }
  worst.windows = count;
  return worst;
}

void add_latency_metrics(Outcome& out, const Phase& phase, std::size_t window) {
  const WindowStats worst = worst_window(phase, window);
  out.metrics.push_back({"answer_s", worst.p50, "s"});
  out.metrics.push_back({"latency_p50_ms", 1e3 * worst.p50, "ms"});
  out.metrics.push_back({"latency_p99_ms", 1e3 * worst.p99, "ms"});
  out.metrics.push_back({"throughput_qps", worst.qps, "1/s"});
  out.notes.push_back("latency samples " + std::to_string(phase.latencies.size()) + " in " +
                      std::to_string(worst.windows) + " windows");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

namespace {

using unicon::Json;
using unicon::JsonObject;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed keys against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"answer_s", "s"},         {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},   {"throughput_qps", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"ftwc.build_s", "s"},
    {"ftwc.uimc_states", "count"},
    {"core.transform_s", "s"},
    {"core.transform_rss_mb", "MB"},
    {"core.ctmdp_states", "count"},
    {"core.ctmdp_transitions", "count"},
    {"core.markov_states", "count"},
    {"ctmdp.kernel_s", "s"},
    {"ctmdp.solve_s", "s"},
    {"ctmdp.iterations_planned", "count"},
    {"ctmdp.iterations_executed", "count"},
    {"ctmdp.state_updates", "count"},
    {"ctmdp.locked_final", "count"},
    {"ctmdp.k_lyapunov", "count"},
    {"ctmdp.updates_per_s", "1/s"},
    {"ctmdp.kernel_bytes", "bytes"},
    {"ctmc.build_s", "s"},
    {"ctmc.solve_s", "s"},
    {"ctmc.iterations", "count"},
    {"ctmc.state_updates", "count"},
    {"ctmc.updates_per_s", "1/s"},
    {"server.queue_wait_ms.p50", "ms"},
    {"server.queue_wait_ms.p99", "ms"},
    {"server.exec_ms.p50", "ms"},
    {"server.exec_ms.p99", "ms"},
    {"server.batches", "count"},
    {"server.coalesced", "count"},
    {"server.rejected", "count"},
    {"server.cache.source_hits", "count"},
    {"server.cache.canonical_hits", "count"},
    {"server.cache.misses", "count"},
    {"server.cache.evictions", "count"},
    {"server.cache.hit_ratio", "ratio"},
    {"lang.parse_s", "s"},
    {"lang.build_s", "s"},
    {"bisim.minimize_s", "s"},
    {"bisim.states_in", "count"},
    {"bisim.states_out", "count"},
    {"dft.parse_s", "s"},
    {"dft.lower_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage_ratio", "ratio"},
};

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Outcome&);
};

constexpr Workload kWorkloads[] = {
    {"table1-n128", run_table1},
    {"long-horizon-ctmdp", run_long_horizon_ctmdp},
    {"long-horizon-ctmc", run_long_horizon_ctmc},
    {"serve-mixed", run_serve_mixed},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "unicon_perfbench: %s\n"
               "usage: unicon_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--commit ID]\n"
               "workloads: table1-n128 long-horizon-ctmdp long-horizon-ctmc serve-mixed\n",
               why);
  std::exit(2);
}

const Metric* find_metric(const Outcome& out, const char* name) {
  for (const Metric& m : out.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

int run(int argc, char** argv) {
  RunConfig config;
  config.root = ".";
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--root") {
      config.root = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_trace) usage("--seed and --trace are required");
  if (!(config.seconds > 0.0)) usage("--seconds must be positive");

  // These variables silently change what is measured (the solver backend
  // behind Backend::Auto, the bench harness grid), so a run with either
  // set is refused rather than recorded.
  for (const char* var : {"UNICON_BACKEND", "FTWC_FULL"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "unicon_perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload '" + config.workload + "'").c_str());
  config.trace_path = config.root + "/.bench_build/perfbench-trace-" + config.workload + "-" +
                      std::to_string(config.seed) + ".json";

  Outcome out;
  workload->run(config, out);

  Json metrics = JsonObject{};
  std::printf("workload %s seed %llu trace %d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0);
  auto emit = [&](const char* name, double value, const char* unit) {
    std::printf("metric %-28s %.6g %s\n", name, value, unit);
    metrics.set(name, JsonObject{{"value", Json(value)}, {"unit", Json(unit)}});
  };
  if (!config.trace) {
    out.metrics.push_back({"peak_rss_mb", out.peak_rss_mb, "MB"});
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find_metric(out, spec.name);
      if (m == nullptr) throw std::logic_error(std::string("workload missed ") + spec.name);
      emit(spec.name, m->value, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = find_metric(out, spec.name);
      emit(spec.name, m != nullptr ? m->value : 0.0, spec.unit);
    }
    std::printf("trace written to %s\n", config.trace_path.c_str());
  }
  const double failed_ratio = static_cast<double>(out.failed) /
                              static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
  std::printf("failed_ratio %.6g (%llu of %llu answers)\n", failed_ratio,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const std::string& e : out.errors) std::printf("FAILED %s\n", e.c_str());
  for (const Count& c : out.counts) {
    std::printf("count %s %llu\n", c.name.c_str(), static_cast<unsigned long long>(c.value));
  }

  Json meta = JsonObject{};
  meta.set("workload", config.workload);
  meta.set("seed", static_cast<std::uint64_t>(config.seed));
  meta.set("backend", unicon::backend_name(unicon::resolve_backend(unicon::Backend::Auto)));
  meta.set("solver_threads", unicon::resolve_threads(0));
  meta.set("nproc", std::thread::hardware_concurrency());
  meta.set("avx2", unicon::cpu_supports_avx2());
  meta.set("simd_uses_avx2", unicon::simd_uses_avx2());
  meta.set("build_type", UNICON_PERFBENCH_BUILD_TYPE);
  meta.set("commit", commit);
  std::printf("meta %s\n", meta.dump().c_str());

  Json result = JsonObject{};
  result.set("correct", out.failed == 0 && out.attempted > 0);
  result.set("attempted", static_cast<std::uint64_t>(out.attempted));
  result.set("failed", static_cast<std::uint64_t>(out.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unicon_perfbench: %s\n", e.what());
    return 1;
  }
}
