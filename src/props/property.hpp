// A small CSL-style query layer over CTMDPs and CTMCs.
//
// Queries are written in a PRISM-like concrete syntax and evaluated against
// a model plus a LabelSet mapping proposition names to state masks:
//
//   Pmax=? [ F<=100 "unsafe" ]          timed reachability (Algorithm 1)
//   Pmin=? [ "up" U<=50 "goal" ]        timed until (avoid !"up")
//   Pmax=? [ F "goal" ]                 unbounded reachability
//   Pmax=? [ "up" U "goal" ]            unbounded until
//   P=?   [ F[10,20] "goal" ]           interval reachability (CTMC only)
//   Tmin=? [ F "goal" ]                 expected reachability time
//   S=?   [ "goal" ]                    steady-state probability (CTMC only)
//
// Labels may be quoted or bare identifiers; `true` denotes all states.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmdp/ctmdp.hpp"
#include "ctmdp/reachability.hpp"

namespace unicon {

/// Named state masks ("atomic propositions").
class LabelSet {
 public:
  explicit LabelSet(std::size_t num_states) : num_states_(num_states) {}

  /// Defines (or replaces) label @p name.  Mask size must match.
  void define(const std::string& name, std::vector<bool> mask);

  /// Mask of @p name.  "true" is predefined (all states).
  std::vector<bool> mask(const std::string& name) const;

  bool contains(const std::string& name) const;
  std::size_t num_states() const { return num_states_; }

 private:
  std::size_t num_states_;
  std::unordered_map<std::string, std::vector<bool>> masks_;
};

/// A parsed query.
struct Query {
  enum class Kind : std::uint8_t {
    ProbBounded,    // P{max,min}=? [ left U<=t goal ]   (F == true U)
    ProbInterval,   // P=? [ F[t1,t2] goal ]             (CTMC only)
    ProbUnbounded,  // P{max,min}=? [ left U goal ]
    ExpectedTime,   // T{max,min}=? [ F goal ]
    SteadyState,    // S=? [ goal ]                      (CTMC only)
  };
  Kind kind = Kind::ProbBounded;
  Objective objective = Objective::Maximize;
  std::string left = "true";  // until's left argument
  std::string goal;
  double t1 = 0.0;
  double t2 = 0.0;
};

/// Parses the concrete syntax above; throws ParseError with a message
/// pointing at the offending token.
Query parse_query(const std::string& text);

struct QueryResult {
  double value = 0.0;
  /// Per-state values where the query produces them (empty for S=?).
  std::vector<double> values;
  std::uint64_t iterations = 0;
};

struct EvaluationOptions {
  double epsilon = 1e-6;
};

/// Evaluates @p query on a CTMDP.  Interval and steady-state queries are
/// rejected (ModelError) — they are only meaningful without nondeterminism.
QueryResult evaluate(const Ctmdp& model, const LabelSet& labels, const Query& query,
                     const EvaluationOptions& options = {});

/// Evaluates @p query on a CTMC (the objective is ignored; unbounded and
/// expected-time queries run on the deterministic CTMDP embedding).
QueryResult evaluate(const Ctmc& chain, const LabelSet& labels, const Query& query,
                     const EvaluationOptions& options = {});

/// Convenience: parse and evaluate in one call.
QueryResult check(const Ctmdp& model, const LabelSet& labels, const std::string& query,
                  const EvaluationOptions& options = {});
QueryResult check(const Ctmc& chain, const LabelSet& labels, const std::string& query,
                  const EvaluationOptions& options = {});

}  // namespace unicon
