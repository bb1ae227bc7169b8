// Ablation: truncation-bound provider and convergence locking on
// long-horizon solves (DESIGN.md Sec. 14).
//
// Two model families, each at a horizon where the Poisson window is tens of
// thousands of steps wide:
//
//  * FTWC at t = 30000 h — the paper's slow-mixing worst case.  The
//    Lyapunov certificate probes and disengages (the survival supremum
//    stays near 1), so the win here comes from convergence locking: the
//    bitwise-frozen goal region stops being swept, crushing the number of
//    row relaxations per state ("eff.sweeps" = state_updates / states).
//  * A fast-absorbing drift chain (CTMC and a two-choice CTMDP analog)
//    with lambda*t = 8000 — the certificate's best case: the survival
//    supremum decays geometrically, the series bound certifies after a few
//    dozen steps and the solve stops at k_lyapunov << k_foxglynn.
//
// Three variants per row: fox-glynn without locking (the historical
// baseline), fox-glynn with locking, and auto (Lyapunov engaged) with
// locking.  Values are bit-identical across all variants by construction;
// only the work differs.  Records land in BENCH_reachability.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/analysis.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/ctmdp.hpp"
#include "ctmdp/reachability.hpp"
#include "ftwc/direct.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

using namespace unicon;

namespace {

struct Variant {
  const char* name;
  Truncation truncation;
  bool locking;
};

constexpr Variant kVariants[] = {
    {"fox-glynn", Truncation::FoxGlynn, false},
    {"fox-glynn+locking", Truncation::FoxGlynn, true},
    {"auto+locking", Truncation::Auto, true},
};

struct Measurement {
  std::uint64_t planned = 0;
  std::uint64_t executed = 0;
  std::uint64_t k_lyapunov = 0;
  std::uint64_t state_updates = 0;
  std::uint64_t locked_final = 0;
  double seconds = 0.0;
  double value = 0.0;
};

void report(telemetry::BenchJson& json, const std::string& label, std::size_t states,
            unsigned threads, const Measurement& m, const Measurement& baseline) {
  const double eff = static_cast<double>(m.state_updates) / static_cast<double>(states);
  const double base_eff =
      static_cast<double>(baseline.state_updates) / static_cast<double>(states);
  std::printf("  %-20s k=%6llu/%6llu  lyap=%6llu  locked=%7llu  eff.sweeps=%8.1f (%5.2fx)  %7.3f s\n",
              label.substr(label.rfind('/') + 1).c_str(),
              static_cast<unsigned long long>(m.executed),
              static_cast<unsigned long long>(m.planned),
              static_cast<unsigned long long>(m.k_lyapunov),
              static_cast<unsigned long long>(m.locked_final), eff,
              eff > 0.0 ? base_eff / eff : 0.0, m.seconds);
  telemetry::BenchRecord rec;
  rec.bench = label;
  rec.add("states", states)
      .add("k", m.executed)
      .add("k_planned", m.planned)
      .add("k_lyapunov", m.k_lyapunov)
      .add("state_updates", m.state_updates)
      .add("updates_per_state", eff)
      .add("seconds", m.seconds)
      .add("threads", threads);
  json.record(std::move(rec));
}

Measurement run_ctmdp(const Ctmdp& model, const BitVector& goal, double t,
                      const Variant& variant) {
  TimedReachabilityOptions options;
  options.truncation = variant.truncation;
  options.locking = variant.locking;
  // The FTWC rows measure what locking saves by freezing the goal region,
  // which only the serial engine sweeps: the default dense kernel folds
  // the goal states into one scalar and never relaxes their rows.
  options.backend = Backend::Serial;
  Stopwatch timer;
  const TimedReachabilityResult r = timed_reachability(model, goal, t, options);
  Measurement m;
  m.seconds = timer.seconds();
  m.planned = r.iterations_planned;
  m.executed = r.iterations_executed;
  m.k_lyapunov = r.k_lyapunov;
  m.state_updates = r.state_updates;
  m.locked_final = r.locked_final;
  m.value = r.values[model.initial()];
  return m;
}

Measurement run_ctmc(const Ctmc& chain, const BitVector& goal, double t,
                     const Variant& variant) {
  TransientOptions options;
  options.truncation = variant.truncation;
  options.locking = variant.locking;
  Stopwatch timer;
  const TransientResult r = timed_reachability(chain, goal, t, options);
  Measurement m;
  m.seconds = timer.seconds();
  m.planned = r.iterations;
  m.executed = r.iterations_executed;
  m.k_lyapunov = r.k_lyapunov;
  m.state_updates = r.state_updates;
  m.locked_final = r.locked_final;
  m.value = r.probabilities[chain.initial()];
  return m;
}

/// Fast-absorbing drift chain: every state feeds the absorbing goal at rate
/// 3 and the next state at rate 1, so the survival supremum decays by ~4x
/// per uniformized jump and the Lyapunov certificate fires almost at once.
Ctmc drift_ctmc(std::size_t n) {
  CtmcBuilder b(n);
  const StateId goal = static_cast<StateId>(n - 1);
  for (StateId s = 0; s + 1 < n; ++s) {
    b.add_transition(s, 3.0, goal);
    b.add_transition(s, 1.0, std::min<StateId>(s + 1, goal));
  }
  b.set_initial(0);
  return b.build();
}

/// The two-choice CTMDP analog (uniform rate 4): choice "a" drains to the
/// goal faster, choice "b" drifts further — a real decision per state.
Ctmdp drift_ctmdp(std::size_t n) {
  CtmdpBuilder b;
  b.ensure_states(n);
  const StateId goal = static_cast<StateId>(n - 1);
  for (StateId s = 0; s + 1 < n; ++s) {
    b.begin_transition(s, "a");
    b.add_rate(goal, 3.0);
    b.add_rate(std::min<StateId>(s + 1, goal), 1.0);
    b.begin_transition(s, "b");
    b.add_rate(goal, 2.5);
    b.add_rate(std::min<StateId>(s + 1, goal), 1.5);
  }
  b.set_initial(0);
  return b.build();
}

}  // namespace

int main() {
  const bool full = bench::full_sweep();
  telemetry::BenchJson json("BENCH_reachability.json", "BENCH_JSON");
  const unsigned auto_threads = resolve_threads(0);

  std::printf("Ablation — truncation provider x convergence locking (precision 1e-6)\n");

  std::vector<unsigned> ns{4, 8, 16};
  if (full) ns.push_back(32);
  for (const unsigned n : ns) {
    ftwc::Parameters params;
    params.n = n;
    const auto built = ftwc::build_direct(params);
    const auto transformed = transform_to_ctmdp(built.uimc, &built.goal);
    const std::size_t states = transformed.ctmdp.num_states();
    std::printf("\nFTWC N=%u (%zu states), t=30000:\n", n, states);
    Measurement baseline;
    for (const Variant& variant : kVariants) {
      const Measurement m =
          run_ctmdp(transformed.ctmdp, transformed.goal, 30000.0, variant);
      if (variant.truncation == Truncation::FoxGlynn && !variant.locking) baseline = m;
      report(json,
             "ablation_truncation/ftwc/N=" + std::to_string(n) + "/t=30000/" + variant.name,
             states, auto_threads, m, baseline);
    }
    std::fflush(stdout);
  }

  const std::size_t drift_states = 20000;
  const double drift_t = 2000.0;  // lambda * t = 8000

  {
    const Ctmc chain = drift_ctmc(drift_states);
    BitVector goal(drift_states, false);
    goal[drift_states - 1] = true;
    std::printf("\nDrift CTMC (%zu states), t=%g:\n", drift_states, drift_t);
    Measurement baseline;
    for (const Variant& variant : kVariants) {
      const Measurement m = run_ctmc(chain, goal, drift_t, variant);
      if (variant.truncation == Truncation::FoxGlynn && !variant.locking) baseline = m;
      report(json, std::string("ablation_truncation/drift_ctmc/t=2000/") + variant.name,
             drift_states, auto_threads, m, baseline);
    }
  }

  {
    const Ctmdp model = drift_ctmdp(drift_states);
    BitVector goal(drift_states, false);
    goal[drift_states - 1] = true;
    std::printf("\nDrift CTMDP (%zu states, 2 choices/state), t=%g:\n", drift_states, drift_t);
    Measurement baseline;
    for (const Variant& variant : kVariants) {
      const Measurement m = run_ctmdp(model, goal, drift_t, variant);
      if (variant.truncation == Truncation::FoxGlynn && !variant.locking) baseline = m;
      report(json, std::string("ablation_truncation/drift_ctmdp/t=2000/") + variant.name,
             drift_states, auto_threads, m, baseline);
    }
  }

  std::printf(
      "\nAll variants return bit-identical probabilities; only the work differs.\n"
      "On FTWC the certificate disengages (slow mixing) and locking carries the\n"
      "win; on the drift models the certificate stops the solve outright at\n"
      "k_lyapunov << k_foxglynn.\n");
  return 0;
}
