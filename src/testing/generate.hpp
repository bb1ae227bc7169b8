// Seeded random-model generators for the differential verification
// subsystem (and the unit-test suite, which re-exports them).
//
// Three families are produced, mirroring the pipeline stages of the paper:
//
//  * random_uniform_imc      — a direct random *closed* uniform IMC whose
//    uniformity is arranged state-by-state (Markov rows normalized to E,
//    stable interactive states padded with self-loops like the elapse
//    operator's idle states).  Controllable fan-out, rate spread, tau share
//    and — for exercising the Zeno detector — tau-cycle density.
//  * random_composed_uimc    — a uIMC built the way the paper builds them:
//    random LTS skeletons with per-action phase-type time constraints,
//    composed via elapse/compose/hide, so uniformity holds *by
//    construction* (Lemmas 1-3) rather than by normalization.
//  * random_uniform_ctmdp / random_ctmc — direct random models for the
//    solver and io layers, bypassing the transformation.
//  * slow_drift_model — an adversarial solver shape the random families
//    never produce: a chain that creeps toward its goal at a tiny rate.
//
// All generators are deterministic functions of the supplied Rng: replaying
// a seed replays the model bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmdp/ctmdp.hpp"
#include "imc/imc.hpp"
#include "support/bit_vector.hpp"
#include "support/rng.hpp"

namespace unicon::testing {

struct RandomImcConfig {
  std::size_t num_states = 12;
  double uniform_rate = 3.0;
  /// Probability that a state is interactive (otherwise Markov).
  double interactive_bias = 0.4;
  /// Max outgoing transitions per state.
  unsigned max_fanout = 3;
  /// Emit only one interactive transition per interactive state, making the
  /// scheduler trivial (used for Theorem-1 style cross checks).
  bool deterministic = false;
  /// Share of tau labels among interactive transitions (the rest draw from
  /// a small visible alphabet).
  double tau_bias = 0.5;
  /// Spread of the Markov branching weights: weights are drawn from
  /// [0.1, 0.1 + rate_spread] before normalization to the uniform rate, so
  /// larger values produce more skewed branching distributions.
  double rate_spread = 1.0;
  /// Probability per interactive state of an additional *backward* tau
  /// transition.  Any such edge closes a cycle of interactive transitions,
  /// i.e. injects Zeno behaviour that transform_to_ctmdp must reject.
  /// Leave at 0 for well-formed models.
  double tau_cycle_density = 0.0;
};

/// Generates a random *closed* uniform IMC that is reachable from state 0,
/// free of interactive cycles (interactive transitions only lead to
/// strictly larger state ids, the last state is Markov — unless
/// tau_cycle_density kicks in) and free of zero-time deadlocks.  Every
/// stable state has exit rate exactly config.uniform_rate, so the model is
/// uniform in both views.
Imc random_uniform_imc(Rng& rng, const RandomImcConfig& config = {});

struct RandomComposedConfig {
  /// Length of the action ring of the sequential component (>= 2): LTS
  /// states s_0..s_{m-1} with s_i --act_i--> s_{i+1 mod m}, each act_i
  /// delayed by its own time constraint triggered by act_{i-1} — the m-ary
  /// generalization of the paper's workstation loop (Fig. 2/3).
  unsigned ring_length = 3;
  /// Number of additional self-triggered constrained actions wired into a
  /// second, randomly shaped LTS component that is interleaved with the
  /// ring (0 disables the second component).  Self-triggered constraints
  /// (fire == trigger) can never block, so any LTS shape is sound.
  unsigned extra_actions = 2;
  /// States of the random second component.
  unsigned extra_states = 3;
  /// Max phases per phase-type delay (1 = exponential).
  unsigned max_phases = 2;
  double min_rate = 0.25;
  double max_rate = 2.5;
  /// Hide all visible actions of the composed system (Lemma 1 road).
  bool hide = true;
  /// Density of the random goal mask over composite states.
  double goal_density = 0.25;
  /// Abort exploration beyond this many composite states.
  std::size_t max_states = 20000;
};

struct ComposedModel {
  Imc system;
  BitVector goal;
  /// Common uniform rate the construction guarantees (sum of the
  /// constraint rates) — what Imc::uniform_rate must rediscover.
  double expected_rate = 0.0;
};

/// Builds a closed uIMC via the compositional route: random LTS skeletons,
/// one elapse-generated time constraint per action, parallel composition
/// and optional hiding.  Uniformity holds by construction.
ComposedModel random_composed_uimc(Rng& rng, const RandomComposedConfig& config = {});

struct RandomCtmdpConfig {
  std::size_t num_states = 10;
  double uniform_rate = 2.0;
  /// Max nondeterministic transitions per state (fan-out of the decision).
  unsigned max_transitions_per_state = 3;
  /// Max sparse rate entries per transition.
  unsigned max_entries = 3;
  /// Branching-weight spread as in RandomImcConfig::rate_spread.
  double rate_spread = 3.0;
  /// Probability that a state has no transitions at all (absorbing).
  double absorbing_density = 0.1;
};

/// Generates a random uniform CTMDP: every transition's rate row is
/// normalized to the uniform rate.  State 0 is initial.
Ctmdp random_uniform_ctmdp(Rng& rng, const RandomCtmdpConfig& config = {});

struct RandomCtmcConfig {
  std::size_t num_states = 10;
  unsigned max_fanout = 3;
  double min_rate = 0.2;
  double max_rate = 3.0;
  /// Probability that a state is absorbing (no outgoing rates).
  double absorbing_density = 0.15;
  /// Probability that a state carries a Markov self-loop.
  double self_loop_density = 0.2;
};

/// Generates a random CTMC (not necessarily uniform; exit rates vary within
/// [min_rate, max_fanout * max_rate]).  State 0 is initial.
Ctmc random_ctmc(Rng& rng, const RandomCtmcConfig& config = {});

struct SlowDriftConfig {
  /// Chain states; the absorbing goal is one extra (last) state.
  std::size_t num_states = 4;
  /// Max nondeterministic transitions per chain state (CTMDP only).
  unsigned max_transitions_per_state = 2;
};

/// Uniform rate E of every slow-drift model.
inline constexpr double kSlowDriftUniformRate = 2.0;

struct SlowDriftModel {
  /// Uniform at kSlowDriftUniformRate.
  Ctmdp ctmdp;
  /// The same chain without nondeterminism (every state's first CTMDP
  /// transition), uniform at the same rate.
  Ctmc chain;
  /// The last state only.
  BitVector goal;
};

/// Slow drift: chain states 0..n-1 and an absorbing goal n.  One chain
/// state (the exit) leaves toward the goal at a rate drawn log-uniformly
/// from [1e-13 E, 1e-6 E] (per transition, within a factor 2); every
/// other rate is a self-loop or stays inside the chain, and the first
/// transition of each state steps around a ring so every state reaches
/// the exit.  The reachability iterate then moves by ~drift per sweep for
/// ~E t sweeps — a stop judged on the sweep delta alone mistakes that for
/// convergence and ends far from the truth.
SlowDriftModel slow_drift_model(Rng& rng, const SlowDriftConfig& config = {});

/// Random goal mask with roughly the given density (at least one goal
/// state, never the initial state).
BitVector random_goal(Rng& rng, std::size_t num_states, double density = 0.25);

}  // namespace unicon::testing
