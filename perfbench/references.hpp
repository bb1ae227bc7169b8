// Pinned answers the benchmark checks every run against.
//
// Probabilities were computed once with the same public pipeline at a
// tighter precision than the library default (epsilon 1e-10 where the
// Poisson window allows it; at the long horizons double precision caps it
// at the values given).  A run's answer must lie within its own
// residual_bound plus the reference's bound of the value here, so a solver
// change that only reassociates floating-point sums still passes while a
// wrong answer does not.
#pragma once

#include <cstdint>

namespace perfbench {

struct Reference {
  double value = 0.0;
  double residual_bound = 0.0;
};

/// FTWC direct route, N=128, t=100, maximal probability (epsilon 1e-10).
inline constexpr Reference kTable1N128T100{0.0391069654574729, 1e-10};
/// FTWC direct route, N=2, t=30000, maximal probability (epsilon 1e-9).
inline constexpr Reference kFtwcN2T30000{0.25460090749498243, 5e-10};
/// Figure 4 Gamma-race CTMC, N=1, t=1000 (epsilon 2e-9).
inline constexpr Reference kFig4CtmcN1T1000{0.0090377218316372299, 1e-9};
/// Figure 4 Gamma-race CTMC, N=4, t=1000 (epsilon 2e-9).
inline constexpr Reference kFig4CtmcN4T1000{0.019114708213866106, 1e-9};
/// Figure 4 faithful CTMDP, N=4, t=1000, maximal probability (epsilon 1e-10).
inline constexpr Reference kFig4CtmdpN4T1000{0.019076240405185782, 5e-11};

/// The four structural columns of the paper's Table 1 (alternating uIMC).
struct Table1Columns {
  std::uint64_t interactive_states = 0;
  std::uint64_t markov_states = 0;
  std::uint64_t interactive_transitions = 0;
  std::uint64_t markov_transitions = 0;
  bool operator==(const Table1Columns&) const = default;
};

inline constexpr Table1Columns kTable1N128Columns{597010, 463885, 927763, 2444312};
inline constexpr Table1Columns kTable1N2Columns{274, 205, 403, 920};

}  // namespace perfbench
