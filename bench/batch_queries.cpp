// Multi-horizon batch solves vs. repeated single-t runs (DESIGN.md Sec. 11).
//
// Cost model (and why the workload shape matters): the bitwise-equivalence
// contract pins every horizon's per-state arithmetic to its single-t run's,
// so a CTMDP batch executes exactly sum_j k_j sweeps — horizon j's sweeps
// are only the last k_j of the global countdown.  What the batch amortizes
// is everything *around* the sweeps: kernel construction, vector setup, and
// the per-block kernel stream shared by all active horizons.  The ratio
// batch / largest-single is therefore ~ (sum_j k_j) / k_max, and a horizon
// with bound t_j costs its full Poisson window k_j ~ e*t_j + c*sqrt(e*t_j)
// even when t_j is tiny (the sqrt window-width floor).
//
// The acceptance target of the analysis-server work: a *clustered* batch of
// 16 bounds — 15 short probe queries riding along with one t=400 solve, the
// server's coalescing shape — on the FTWC N=64 row costs <= 1.3x the single
// largest-t run, for the serial and the SIMD backend.  That holds exactly
// when the probes' summed windows stay below 0.3 * k_max, which is the
// regime coalescing targets: cheap probes of a hot model drafting behind an
// expensive solve.
//
// A *geometric* ladder (bounds spread multiplicatively up to the same
// largest t) is reported as well, honestly: its mid-sized bounds are active
// for a large share of the steps, so its ratio is workload-dependent and
// NOT covered by the 1.3x target — the 16 separate solves it replaces are
// the real baseline there (see sum16).
//
// Records land in BENCH_batch.json (override with BENCH_JSON):
//   {"bench": "batch_queries/<model>/<workload>/<backend>",
//    "states": ..., "bounds": 16, "k_max": ..., "seconds": ...,
//    "single_seconds": ..., "ratio": ..., "sum_single_seconds": ...}
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/analysis.hpp"
#include "ctmc/transient.hpp"
#include "ftwc/ctmc_variant.hpp"
#include "ftwc/direct.hpp"
#include "support/telemetry.hpp"

using namespace unicon;

namespace {

constexpr double kLargestBound = 400.0;

std::vector<double> clustered_bounds() {
  // 15 short probes (the server's common case: many small-t queries of a
  // hot model) plus the expensive t=400 solve they coalesce with.  At the
  // FTWC N=64 uniform rate the probes' Poisson windows sum to well under
  // 0.3x the big bound's k, which is the regime the 1.3x target covers
  // (see the cost model in the header comment).
  std::vector<double> bounds;
  for (int i = 1; i <= 15; ++i) bounds.push_back(0.05 * i);  // 0.05 .. 0.75
  bounds.push_back(kLargestBound);
  return bounds;
}

std::vector<double> geometric_bounds() {
  // 16 bounds, multiplicative ladder from 1 to the same largest t.
  std::vector<double> bounds;
  for (int i = 0; i < 16; ++i) {
    bounds.push_back(std::pow(kLargestBound, static_cast<double>(i) / 15.0));
  }
  return bounds;
}

struct Comparison {
  double batch_s = 0.0;
  double largest_single_s = 0.0;
  double sum_single_s = 0.0;
  std::uint64_t k_max = 0;
  std::uint64_t k_sum = 0;
};

/// One timed run of @p fn, folded into the running minimum @p best.  The
/// minimum is the noise-robust estimator: scheduler jitter, steal time and
/// frequency excursions only ever add time, so the smallest observation is
/// the closest to the true cost.  Callers alternate the two sides under
/// comparison inside one rep loop so slow machine phases hit both sides
/// rather than biasing whichever happened to run first — one-shot timings
/// on a shared box swing far more than the 1.3x margin this harness gates
/// on.
template <typename Fn>
void fold_min(double& best, Fn&& fn) {
  Stopwatch timer;
  fn();
  const double s = timer.seconds();
  if (best == 0.0 || s < best) best = s;
}

}  // namespace

int main() {
  telemetry::BenchJson json("BENCH_batch.json", "BENCH_JSON");
  const unsigned n = 64;

  std::printf("Batch multi-horizon solves vs single-t runs (FTWC N=%u)\n\n", n);

  ftwc::Parameters params;
  params.n = n;
  const auto built = ftwc::build_direct(params);
  const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
  const Ctmdp& model = transformed.ctmdp;
  const BitVector& goal = transformed.goal;
  std::printf("CTMDP: %zu states, %zu transitions\n\n", model.num_states(),
              model.num_transitions());

  const struct {
    const char* name;
    Backend backend;
  } backends[] = {{"serial", Backend::Serial}, {"simd", Backend::Simd}};
  const struct {
    const char* name;
    std::vector<double> bounds;
    bool target;  ///< covered by the 1.3x acceptance target
  } workloads[] = {{"clustered", clustered_bounds(), true},
                   {"geometric", geometric_bounds(), false}};

  std::printf("%-10s %-10s %10s %12s %12s %10s %8s %12s\n", "workload", "backend", "batch(s)",
              "largest1(s)", "ratio", "ksum/kmax", "target", "sum16(s)");

  bool target_met = true;
  for (const auto& workload : workloads) {
    // The largest bound dominates; find it for the single-solve baseline.
    double t_max = 0.0;
    for (const double t : workload.bounds) t_max = t > t_max ? t : t_max;

    for (const auto& backend : backends) {
      TimedReachabilityOptions options;
      options.epsilon = 1e-6;
      options.threads = 1;
      options.backend = backend.backend;

      Comparison c;
      // The target workload is measured min-of-5 with batch and single
      // interleaved per rep; the informational ones once (the geometric
      // ladder's serial leg alone runs for seconds).
      const int reps = workload.target ? 5 : 1;
      for (int r = 0; r < reps; ++r) {
        fold_min(c.batch_s, [&] {
          const auto results = timed_reachability_batch(model, goal, workload.bounds, options);
          c.k_sum = 0;
          for (const auto& res : results) {
            c.k_max = res.iterations_planned > c.k_max ? res.iterations_planned : c.k_max;
            c.k_sum += res.iterations_planned;
          }
        });
        fold_min(c.largest_single_s,
                 [&] { (void)timed_reachability(model, goal, t_max, options); });
      }
      for (const double t : workload.bounds) {
        Stopwatch timer;
        (void)timed_reachability(model, goal, t, options);
        c.sum_single_s += timer.seconds();
      }

      const double ratio = c.largest_single_s > 0.0 ? c.batch_s / c.largest_single_s : 0.0;
      // Sweep-count ratio: the cost model's prediction for the wall-clock
      // ratio (see header).  A measured ratio far above it means harness or
      // machine trouble, not batching overhead.
      const double k_ratio =
          c.k_max > 0 ? static_cast<double>(c.k_sum) / static_cast<double>(c.k_max) : 0.0;
      const bool ok = !workload.target || ratio <= 1.3;
      if (!ok) target_met = false;
      std::printf("%-10s %-10s %10.3f %12.3f %12.2fx %10.2f %8s %12.3f\n", workload.name,
                  backend.name, c.batch_s, c.largest_single_s, ratio, k_ratio,
                  workload.target ? (ok ? "<=1.3 ok" : "MISSED") : "-", c.sum_single_s);
      std::fflush(stdout);

      telemetry::BenchRecord rec;
      rec.bench = std::string("batch_queries/ftwc_n64/") + workload.name + "/" + backend.name;
      rec.add("states", model.num_states())
          .add("bounds", workload.bounds.size())
          .add("k_max", c.k_max)
          .add("k_sum", c.k_sum)
          .add("seconds", c.batch_s)
          .add("single_seconds", c.largest_single_s)
          .add("ratio", ratio)
          .add("sum_single_seconds", c.sum_single_s);
      json.record(std::move(rec));
    }
  }

  // CTMC side: the shared-sweep batch (one set of step vectors, one
  // accumulator per horizon) on the FTWC CTMC approximation.
  {
    const auto approx = ftwc::build_ctmc_variant(ftwc::Parameters{.n = 8});
    const std::vector<double> bounds = clustered_bounds();
    double t_max = 0.0;
    for (const double t : bounds) t_max = t > t_max ? t : t_max;

    TransientOptions options;
    options.threads = 1;

    Stopwatch batch_timer;
    const auto results = timed_reachability_batch(approx.ctmc, approx.goal, bounds, options);
    const double batch_s = batch_timer.seconds();
    std::uint64_t k_max = 0;
    for (const auto& r : results) k_max = r.iterations > k_max ? r.iterations : k_max;

    Stopwatch single_timer;
    (void)timed_reachability(approx.ctmc, approx.goal, t_max, options);
    const double single_s = single_timer.seconds();
    const double ratio = single_s > 0.0 ? batch_s / single_s : 0.0;

    std::printf("%-10s %-10s %10.3f %12.3f %12.2fx %10s %8s %12s\n", "ctmc_n8", "serial",
                batch_s, single_s, ratio, "-", "-", "-");

    telemetry::BenchRecord rec;
    rec.bench = "batch_queries/ftwc_ctmc_n8/clustered/serial";
    rec.add("states", approx.ctmc.num_states())
        .add("bounds", bounds.size())
        .add("k_max", k_max)
        .add("seconds", batch_s)
        .add("single_seconds", single_s)
        .add("ratio", ratio);
    json.record(std::move(rec));
  }

  std::printf("\n%s\n", target_met
                            ? "Acceptance target met: clustered batch-16 <= 1.3x the largest "
                              "single-t run on both backends."
                            : "ACCEPTANCE TARGET MISSED — see ratios above.");
  return target_met ? 0 : 1;
}
