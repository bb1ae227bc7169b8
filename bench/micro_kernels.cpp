// Micro-benchmarks (google-benchmark) for the numeric kernels and the
// pipeline stages: Poisson window computation, the Algorithm-1 value
// iteration, CTMC transient analysis, on-the-fly composition, and the
// uIMC -> uCTMDP transformation.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "core/transform.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "ftwc/ctmc_variant.hpp"
#include "ftwc/direct.hpp"
#include "support/fox_glynn.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

using namespace unicon;

namespace {

void BM_PoissonWindow(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonWindow::compute(lambda, 1e-6));
  }
}
BENCHMARK(BM_PoissonWindow)->Arg(10)->Arg(1000)->Arg(77000);

void BM_PoissonPmfReference(benchmark::State& state) {
  for (auto _ : state) {
    double acc = 0.0;
    for (std::uint64_t i = 900; i < 1100; ++i) acc += poisson_pmf(i, 1000.0);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PoissonPmfReference);

void BM_FtwcGeneration(benchmark::State& state) {
  ftwc::Parameters params;
  params.n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftwc::build_direct(params));
  }
}
BENCHMARK(BM_FtwcGeneration)->Arg(2)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Transformation(benchmark::State& state) {
  ftwc::Parameters params;
  params.n = static_cast<unsigned>(state.range(0));
  const auto built = ftwc::build_direct(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform_to_ctmdp(built.uimc, &built.goal));
  }
}
BENCHMARK(BM_Transformation)->Arg(2)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Algorithm1(benchmark::State& state) {
  ftwc::Parameters params;
  params.n = static_cast<unsigned>(state.range(0));
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  TimedReachabilityOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        timed_reachability(transformed.ctmdp, transformed.goal, 100.0, options));
  }
  state.counters["states"] = static_cast<double>(transformed.ctmdp.num_states());
  state.counters["threads"] = static_cast<double>(resolve_threads(options.threads));
}
BENCHMARK(BM_Algorithm1)
    ->ArgsProduct({{2, 8, 16}, {1, 0}})  // threads: 1 = serial, 0 = hardware_concurrency
    ->ArgNames({"N", "threads"})
    ->Unit(benchmark::kMillisecond);

/// Single-thread backend comparison on the value-iteration sweep: the
/// historical serial engine versus the dense SIMD kernel (AVX2 when
/// compiled in and supported, portable striped lanes otherwise).  The N=64
/// row is the tentpole speedup pin (>=2x, DESIGN.md Sec. 10).
void BM_Algorithm1Backend(benchmark::State& state) {
  ftwc::Parameters params;
  params.n = static_cast<unsigned>(state.range(0));
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  const Backend backends[] = {Backend::Serial, Backend::Simd, Backend::SimdPortable};
  TimedReachabilityOptions options;
  options.threads = 1;
  options.backend = backends[state.range(1)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        timed_reachability(transformed.ctmdp, transformed.goal, 100.0, options));
  }
  state.counters["states"] = static_cast<double>(transformed.ctmdp.num_states());
  state.SetLabel(backend_name(options.backend));
}
BENCHMARK(BM_Algorithm1Backend)
    ->ArgsProduct({{16, 64}, {0, 1, 2}})  // backend: 0 = serial, 1 = simd, 2 = simd-portable
    ->ArgNames({"N", "backend"})
    ->Unit(benchmark::kMillisecond);

void BM_CtmcTransient(benchmark::State& state) {
  ftwc::Parameters params;
  params.n = static_cast<unsigned>(state.range(0));
  const auto built = ftwc::build_ctmc_variant(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(timed_reachability(built.ctmc, built.goal, 100.0));
  }
}
BENCHMARK(BM_CtmcTransient)->Arg(2)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

/// Cost of the execution-control polling in the Algorithm-1 hot loop: an
/// armed-but-idle RunGuard (deadline far away) versus the null-guard path.
/// The contract is <2% overhead — the guard adds one pointer test per
/// iteration plus one sweep check per ~2k states.
void BM_Algorithm1Guarded(benchmark::State& state) {
  ftwc::Parameters params;
  params.n = 16;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  RunGuard guard;
  guard.set_deadline(3600.0);
  TimedReachabilityOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  options.guard = state.range(0) != 0 ? &guard : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        timed_reachability(transformed.ctmdp, transformed.goal, 100.0, options));
  }
}
BENCHMARK(BM_Algorithm1Guarded)
    ->ArgsProduct({{0, 1}, {1, 0}})
    ->ArgNames({"guarded", "threads"})
    ->Unit(benchmark::kMillisecond);

/// Cost of telemetry in the Algorithm-1 hot loop: an attached registry (the
/// "reachability" span plus per-worker row counters) versus the null
/// telemetry path.  Same <2% contract as the guard — instrumentation is one
/// pointer test per solve plus one relaxed fetch_add per worker per sweep;
/// metrics are recorded once outside the loop.
void BM_Algorithm1Telemetry(benchmark::State& state) {
  ftwc::Parameters params;
  params.n = 16;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  Telemetry telemetry;
  TimedReachabilityOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  options.telemetry = state.range(0) != 0 ? &telemetry : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        timed_reachability(transformed.ctmdp, transformed.goal, 100.0, options));
  }
}
BENCHMARK(BM_Algorithm1Telemetry)
    ->ArgsProduct({{0, 1}, {1, 0}})
    ->ArgNames({"telemetry", "threads"})
    ->Unit(benchmark::kMillisecond);

/// One explicitly timed Algorithm-1 solve per thread count for the
/// BENCH_reachability.json perf trajectory (google-benchmark keeps its
/// timings to itself, so the JSON records come from a dedicated run).
void emit_reachability_json() {
  bench::ReachabilityJson json;
  ftwc::Parameters params;
  params.n = 16;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  // The N=16 thread-count and guard records time the serial engine; the
  // N=64 pair below compares it with simd.
  for (unsigned threads : {1u, 0u}) {
    TimedReachabilityOptions options;
    options.threads = threads;
    options.backend = Backend::Serial;
    Stopwatch timer;
    const auto r = timed_reachability(transformed.ctmdp, transformed.goal, 100.0, options);
    json.record({threads == 1 ? "micro_kernels/algorithm1/N=16/serial"
                              : "micro_kernels/algorithm1/N=16/parallel",
                 transformed.ctmdp.num_states(), r.iterations_planned, timer.seconds(),
                 resolve_threads(threads)});
  }
  // Guarded-vs-unguarded record: the same serial solve with an idle guard
  // armed, so the perf trajectory catches polling regressions (>2% over the
  // null-guard record above is a regression).
  RunGuard guard;
  guard.set_deadline(3600.0);
  TimedReachabilityOptions guarded_options;
  guarded_options.threads = 1;
  guarded_options.backend = Backend::Serial;
  guarded_options.guard = &guard;
  Stopwatch timer;
  const auto r =
      timed_reachability(transformed.ctmdp, transformed.goal, 100.0, guarded_options);
  json.record({"micro_kernels/algorithm1/N=16/serial-guarded",
               transformed.ctmdp.num_states(), r.iterations_planned, timer.seconds(), 1});

  // Serial-vs-SIMD pin at N=64, single thread: the two rows share one model
  // and horizon, so serial seconds / simd seconds is the backend speedup the
  // tentpole promises (>=2x; FP tolerance in DESIGN.md Sec. 10).  Best of
  // three solves per backend to keep the record robust against scheduler
  // noise on shared runners.
  ftwc::Parameters big;
  big.n = 64;
  const auto big_built = ftwc::build_direct(big);
  const auto big_transformed = transform_to_ctmdp(big_built.uimc, &big_built.goal);
  double backend_seconds[2] = {0.0, 0.0};
  const Backend backends[] = {Backend::Serial, Backend::Simd};
  const char* labels[] = {"micro_kernels/algorithm1/N=64/serial",
                          "micro_kernels/algorithm1/N=64/simd"};
  for (int bi = 0; bi < 2; ++bi) {
    TimedReachabilityOptions backend_options;
    backend_options.threads = 1;
    backend_options.backend = backends[bi];
    double best = 0.0;
    std::uint64_t k = 0;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch solve_timer;
      const auto solve =
          timed_reachability(big_transformed.ctmdp, big_transformed.goal, 100.0, backend_options);
      const double seconds = solve_timer.seconds();
      if (rep == 0 || seconds < best) best = seconds;
      k = solve.iterations_planned;
    }
    backend_seconds[bi] = best;
    json.record({labels[bi], big_transformed.ctmdp.num_states(), k, best, 1});
  }
  std::fprintf(stderr, "N=64 serial-vs-simd (%s): %.3fs / %.3fs = %.2fx\n",
               simd_uses_avx2() ? "avx2" : "portable", backend_seconds[0], backend_seconds[1],
               backend_seconds[0] / backend_seconds[1]);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_reachability_json();
  return 0;
}
