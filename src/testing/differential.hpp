// The differential driver: per seed, generate models, run the optimized
// pipeline in several variants, and cross-check every result against the
// independent oracles of oracle.hpp.
//
// Variants exercised per seed (four model families):
//  * direct uIMC      — Def.-4 audit, transform vs. brute-force oracle,
//    Algorithm 1 vs. dense value iteration (sup and inf), serial vs.
//    parallel bit-identity, hide_all invariance,
//    branching-bisimulation minimization, step-bounded vs. naive oracle,
//    extracted scheduler <= sup, induced-CTMC cross-check, Monte-Carlo
//    estimate inside its confidence interval;
//  * composed uIMC    — uniformity *by construction* (elapse/compose/hide)
//    audited against the constructed rate, then transform + solver checks;
//  * direct uCTMDP    — solver-only checks, bypassing the transformation;
//  * CTMC             — transient uniformization vs. Algorithm 1 on the
//    embedded chain vs. the dense oracle;
// plus a Zeno family (tau-cycle injection) where the optimized transform
// and the brute-force oracle must agree on acceptance/rejection.
//
// Failing seeds are shrunk by re-running the same seed on a ladder of
// smaller generator configurations; the smallest failing instance can be
// dumped as .imc/.ctmdp/.tra/.lab artifacts for replay.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "support/backend.hpp"

namespace unicon::testing {

/// Deliberate bugs injected into the optimized solve path, used to verify
/// that the differential checks actually have teeth (mutation testing).
enum class Mutation : std::uint8_t {
  None,
  /// Adds 1e-6 to the computed value at the initial state.
  PerturbValue,
  /// Solves the opposite objective (inf instead of sup and vice versa).
  SwapObjective,
  /// Truncates the Poisson series at precision 1e-2 regardless of config.
  CoarsePoisson,
  /// Drops one goal state from the mask before solving.
  StaleGoal,
};

const char* mutation_name(Mutation m);
std::optional<Mutation> parse_mutation(const std::string& name);

struct DifferentialConfig {
  std::uint64_t base_seed = 1;
  std::uint64_t num_seeds = 50;
  /// Time bound of the reachability queries.
  double time = 1.5;
  /// Truncation precision for both the optimized solver and the oracle.
  double epsilon = 1e-12;
  /// Agreement tolerance between optimized results and oracle / variant
  /// results (serial-vs-parallel comparisons remain bitwise).
  double tolerance = 1e-9;
  /// Monte-Carlo runs of the first attempt; a failed CI check is retried
  /// once with 4x the runs and a fresh derived seed before counting.
  std::uint64_t mc_runs = 4000;
  /// Compute backend forced into every solver run (Auto = UNICON_BACKEND /
  /// serial).  Lets the self-check corpus exercise each kernel
  /// implementation against the oracles (unicon_fuzz --backend).
  Backend backend = Backend::Auto;
  /// CI z-score (2.5758 = 99%).
  double mc_z = 2.5758;
  /// Batch mode (unicon_fuzz --batch): instead of the five standard
  /// scenarios, run the multi-horizon differential — random CTMDP and CTMC
  /// instances solved through timed_reachability_batch with a randomly
  /// drawn bound set (unsorted, duplicates, zeros), cross-checked bitwise
  /// against independent single-t solves and, when small enough, against
  /// the dense oracle.  Shrinking and artifacts work as in normal mode.
  bool batch = false;
  /// Truncation mode (unicon_fuzz --truncation): random CTMDP and CTMC
  /// instances solved at a short and a deliberately long horizon under
  /// every truncation provider (fox-glynn, lyapunov, auto) with
  /// convergence locking on and off.  Locking must be observably invisible
  /// (bitwise-equal values per provider), the providers must agree within
  /// tolerance, and every variant must match the dense oracle.  A
  /// slow-drift model (slow_drift_model, lambda*t = 1e5) runs the same
  /// providers x locking grid, CTMDP and CTMC, and each answer's distance
  /// to the oracle must lie inside its reported residual bound.  Shrinking
  /// and artifacts work as in normal mode.
  bool truncation = false;
  /// Shrink failing seeds down the config ladder.
  bool shrink = true;
  /// Directory for counterexample artifacts ("" disables writing).
  std::string artifact_dir;
  Mutation mutation = Mutation::None;
};

struct Failure {
  std::uint64_t seed = 0;
  std::string scenario;  // "imc" | "composed" | "ctmdp" | "ctmc" | "zeno" | "batch" | "truncation"
  /// Which check tripped, with the observed discrepancy.
  std::string message;
  /// Shrink level the failure was reduced to (0 = full-size config).
  int level = 0;
  /// Artifact files written for replay (empty unless artifact_dir set).
  std::vector<std::string> artifacts;
};

struct DifferentialReport {
  std::uint64_t seeds_run = 0;
  std::uint64_t checks_run = 0;
  std::vector<Failure> failures;
  bool ok() const { return failures.empty(); }
};

using LogFn = std::function<void(const std::string&)>;

/// Runs every scenario for one seed at shrink level @p level (0 = full
/// size).  Returns the first failure, or nullopt when all checks pass.
/// @p checks_run is incremented per executed check.
std::optional<Failure> run_seed(std::uint64_t seed, const DifferentialConfig& config, int level,
                                std::uint64_t& checks_run);

/// Runs seeds base_seed .. base_seed + num_seeds - 1, shrinking and dumping
/// artifacts for failures.  @p log (optional) receives progress lines.
DifferentialReport run_differential(const DifferentialConfig& config, const LogFn& log = {});

}  // namespace unicon::testing
