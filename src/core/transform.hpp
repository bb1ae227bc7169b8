// The uIMC -> uCTMDP transformation (Sec. 4.1 of the paper).
//
// The paper normalizes a closed IMC into a *strictly alternating* IMC in
// three steps, each preserving the scheduler-indexed path probability
// measures (Theorem 1):
//
//  (1) make_alternating       — hybrid states lose their Markov transitions
//                               (urgency: in a closed system every
//                               interactive transition preempts delays);
//  (2) make_markov_alternating — Markov->Markov sequences are broken by a
//                               fresh interactive state (s,s') reached with
//                               the original rate and left by tau;
//  (3) strictly alternating    — maximal sequences of interactive
//                               transitions are compressed into single
//                               transitions labeled by *words* over
//                               Act+_{\tau} u {tau}; interactive states
//                               without Markov predecessors disappear.
//
// The result is interpreted as a CTMDP whose states are the remaining
// interactive states and whose transitions correspond one-to-one to the
// (source, word, Markov state) edges; the rate function of a transition is
// the Markov state's outgoing rate vector.
//
// transform_to_ctmdp does all three steps in one pass over the input IMC
// without building the intermediate IMCs: step (1) is a state predicate,
// step (2) numbers the pair state of the distinct Markov->Markov edge
// (s, s') n + its rank in the sorted Markov relation, and step (3) runs on
// flat arrays, mapping each Markov state's rate row to CTMDP ids once.
// make_alternating and make_markov_alternating remain as the step-by-step
// reference route (transform_to_ctmdp of their composition yields the same
// CTMDP up to the summation order of parallel Markov edges).
#pragma once

#include <cstdint>
#include <vector>

#include "ctmdp/ctmdp.hpp"
#include "imc/imc.hpp"
#include "support/bit_vector.hpp"
#include "support/run_guard.hpp"

namespace unicon {

class Telemetry;

/// Step (1): cut the Markov transitions of hybrid states.  Closed view
/// only — do not compose the result further.
Imc make_alternating(const Imc& m);

/// Step (2): ensure every Markov transition ends in an interactive state by
/// splitting Markov->Markov edges with fresh tau states.  Requires an
/// alternating IMC.
Imc make_markov_alternating(const Imc& m);

/// Statistics of the strictly alternating representation — the columns of
/// the paper's Table 1.
struct TransformStats {
  std::size_t interactive_states = 0;      // = CTMDP states
  std::size_t markov_states = 0;           // = distinct rate functions
  std::size_t interactive_transitions = 0; // = CTMDP transitions (word edges)
  std::size_t markov_transitions = 0;      // rate entries of the Markov states
  std::size_t memory_bytes = 0;            // strictly alternating storage
  /// Word edges suppressed because another word already connected the same
  /// (source, Markov state) pair — such duplicates carry identical rate
  /// functions and are indistinguishable to time-abstract schedulers.
  std::size_t words_deduplicated = 0;
  double seconds = 0.0;                    // wall time of the transformation
};

struct TransformResult {
  Ctmdp ctmdp;
  TransformStats stats;
  /// Per CTMDP state: the original IMC state it stems from.  Fresh states
  /// introduced by step (2) map to the Markov state they lead into (their
  /// sojourn time is spent there); a fresh initial state maps to the
  /// original initial state.
  std::vector<StateId> origin_of;
  /// Transferred goal sets (empty when no goal was supplied):
  /// goal[x] — some zero-time interactive path from x hits the original
  /// goal set (correct for sup/maximal reachability);
  /// goal_universal[x] — every zero-time resolution from x hits it
  /// (correct for inf/minimal reachability).
  BitVector goal;
  BitVector goal_universal;
};

/// Full transformation pipeline: steps (1)-(3) plus CTMDP interpretation.
/// @p m must be a closed IMC (it is restricted to its reachable part
/// internally).  Throws ZenoError when a cycle of interactive transitions
/// is reachable, and ModelError on zero-time deadlocks (absorbing
/// interactive states), which the paper's setting excludes.
///
/// If @p goal is non-null it must have one entry per state of @p m; the
/// transferred goal masks are returned in the result.
///
/// @p guard (optional) is checked once per closure entry; the
/// transformation has no partial-result story, so a budget stop raises
/// BudgetError.
///
/// @p telemetry (optional) records a "transform" span with the
/// TransformStats quantities plus the hybrid Markov transitions cut in
/// step (1) and the fresh tau states added in step (2), and a
/// "transform.word_length" histogram of the emitted closure words.
TransformResult transform_to_ctmdp(const Imc& m, const BitVector* goal = nullptr,
                                   RunGuard* guard = nullptr, Telemetry* telemetry = nullptr);

}  // namespace unicon
