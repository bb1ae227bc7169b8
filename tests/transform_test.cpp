#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/analysis.hpp"
#include "core/transform.hpp"
#include "ctmc/transient.hpp"
#include "ftwc/direct.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"

namespace unicon {
namespace {

// ------------------------------------------------------------ step (1)

TEST(MakeAlternating, CutsMarkovTransitionsOfHybridStates) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_interactive(0, "a", 1);
  b.add_markov(0, 3.0, 2);  // urgency: cut
  b.add_markov(1, 1.0, 2);
  const Imc m = make_alternating(b.build());
  EXPECT_FALSE(m.has_markov(0));
  EXPECT_TRUE(m.has_markov(1));
  EXPECT_EQ(m.num_markov_transitions(), 1u);
  for (StateId s = 0; s < m.num_states(); ++s) EXPECT_NE(m.kind(s), StateKind::Hybrid);
}

TEST(MakeAlternating, PureModelsUntouched) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 0);
  const Imc before = b.build();
  const Imc after = make_alternating(before);
  EXPECT_EQ(after.num_markov_transitions(), before.num_markov_transitions());
  EXPECT_EQ(after.num_interactive_transitions(), before.num_interactive_transitions());
}

// ------------------------------------------------------------ step (2)

TEST(MakeMarkovAlternating, SplitsMarkovToMarkovEdges) {
  // 0 (Markov) --1.0--> 1 (Markov) --2.0--> 2 (interactive).
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 2.0, 2);
  b.add_interactive(2, kTau, 0);
  const Imc m = make_markov_alternating(b.build());
  // One fresh state (0,1) with a tau to 1.
  EXPECT_EQ(m.num_states(), 4u);
  const StateId fresh = 3;
  EXPECT_TRUE(m.has_interactive(fresh));
  EXPECT_DOUBLE_EQ(m.rate(0, fresh), 1.0);
  EXPECT_DOUBLE_EQ(m.rate(0, 1), 0.0);
  // Every Markov transition now ends in an interactive state.
  for (const MarkovTransition& t : m.markov_transitions()) {
    EXPECT_TRUE(m.has_interactive(t.to));
  }
}

TEST(MakeMarkovAlternating, ParallelEdgesShareOneFreshState) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(0, 2.0, 1);
  b.add_markov(1, 1.0, 0);
  const Imc m = make_markov_alternating(b.build());
  // Fresh states (0,1) and (1,0): 2 + 2 = 4.
  EXPECT_EQ(m.num_states(), 4u);
}

TEST(MakeMarkovAlternating, SelfLoopsAreSplitToo) {
  // A Markov self-loop is a Markov->Markov edge and gains a pair state —
  // this is how uniformization self-loops thread through the pipeline.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 0);
  const Imc m = make_markov_alternating(b.build());
  EXPECT_EQ(m.num_states(), 3u);
  EXPECT_DOUBLE_EQ(m.rate(0, 2), 1.0);  // via pair state (0,0)
}

TEST(MakeMarkovAlternating, HybridInputRejected) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_interactive(0, "a", 1);
  b.add_markov(0, 1.0, 1);
  EXPECT_THROW(make_markov_alternating(b.build()), ModelError);
}

// --------------------------------------------- step (3) and the CTMDP

TEST(Transform, WordCompression) {
  // Markov 0 --> interactive chain 1 -a-> 2 -b-> 3 (Markov).
  ImcBuilder b;
  for (int i = 0; i < 4; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_interactive(2, "b", 3);
  b.add_markov(3, 1.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  // States: fresh initial (for the Markov initial state) and 1.
  EXPECT_EQ(c.num_states(), 2u);
  bool found_ab = false;
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    if (c.words().str(c.label(t), c.actions()) == "a.b") found_ab = true;
  }
  EXPECT_TRUE(found_ab);
}

TEST(Transform, TauOnlyPathsYieldTauWord) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 2.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_markov(2, 2.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    EXPECT_EQ(c.words().str(c.label(t), c.actions()), "tau");
  }
}

TEST(Transform, BranchingChoicesBecomeSeparateTransitions) {
  // An interactive state with two distinct zero-time resolutions gives the
  // CTMDP state two transitions (the scheduler's choice).
  ImcBuilder b;
  for (int i = 0; i < 5; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_interactive(1, "b", 3);
  b.add_markov(2, 1.0, 1);
  b.add_markov(3, 4.0, 4);
  b.add_interactive(4, kTau, 1);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  const StateId s1 = 1;  // interactive state 1 keeps its role as a CTMDP state
  bool found_two = false;
  for (StateId s = 0; s < c.num_states(); ++s) {
    if (c.num_transitions_of(s) == 2) found_two = true;
  }
  EXPECT_TRUE(found_two);
  (void)s1;
}

TEST(Transform, DuplicateWordsToSameMarkovStateAreDeduplicated) {
  // Two tau paths from the same entry to the same Markov state carry the
  // same rate function; only one transition is emitted.
  ImcBuilder b;
  for (int i = 0; i < 5; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_interactive(1, kTau, 3);
  b.add_interactive(2, kTau, 4);
  b.add_interactive(3, kTau, 4);
  b.add_markov(4, 1.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  EXPECT_EQ(result.stats.words_deduplicated, 1u);
  EXPECT_EQ(result.ctmdp.num_transitions(), 2u);  // fresh-initial tau + entry
}

TEST(Transform, ZenoCycleDetected) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_interactive(2, kTau, 1);
  EXPECT_THROW(transform_to_ctmdp(b.build()), ZenoError);
}

TEST(Transform, ZeroTimeDeadlockDetected) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);  // state 2 is absorbing
  EXPECT_THROW(transform_to_ctmdp(b.build()), ModelError);
}

TEST(Transform, AbsorbingInitialRejected) {
  ImcBuilder b;
  b.add_state();
  EXPECT_THROW(transform_to_ctmdp(b.build()), ModelError);
}

TEST(Transform, MarkovInitialGetsFreshPreInitial) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 0);
  const auto result = transform_to_ctmdp(b.build());
  const Ctmdp& c = result.ctmdp;
  EXPECT_EQ(c.num_transitions_of(c.initial()), 1u);
  EXPECT_EQ(result.origin_of[c.initial()], 0u);
}

TEST(Transform, StatsCountStrictlyAlternatingSizes) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_markov(2, 1.0, 1);
  const auto result = transform_to_ctmdp(b.build());
  EXPECT_EQ(result.stats.interactive_states, result.ctmdp.num_states());
  EXPECT_EQ(result.stats.interactive_transitions, result.ctmdp.num_transitions());
  EXPECT_EQ(result.stats.markov_states, 2u);
  EXPECT_GT(result.stats.memory_bytes, 0u);
  EXPECT_GE(result.stats.seconds, 0.0);
}

// ----------------------------------------------------- goal transfer

TEST(Transform, GoalTransferExistentialAndUniversal) {
  // From entry 1 the scheduler may go to goal Markov state 3 or non-goal 4.
  ImcBuilder b;
  for (int i = 0; i < 5; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, "a", 3);
  b.add_interactive(1, "b", 4);
  b.add_markov(3, 1.0, 1);
  b.add_markov(4, 1.0, 1);
  const BitVector goal{false, false, false, true, false};
  const auto result = transform_to_ctmdp(b.build(), &goal);
  ASSERT_EQ(result.goal.size(), result.ctmdp.num_states());
  // Find the CTMDP state for original state 1.
  StateId one = kNoState;
  for (StateId s = 0; s < result.ctmdp.num_states(); ++s) {
    if (result.origin_of[s] == 1) one = s;
  }
  ASSERT_NE(one, kNoState);
  EXPECT_TRUE(result.goal[one]);            // can zero-reach the goal
  EXPECT_FALSE(result.goal_universal[one]);  // but is not forced to
}

TEST(Transform, GoalOnInteractiveEntryState) {
  ImcBuilder b;
  for (int i = 0; i < 3; ++i) b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_interactive(1, kTau, 2);
  b.add_markov(2, 1.0, 1);
  const BitVector goal{false, true, false};
  const auto result = transform_to_ctmdp(b.build(), &goal);
  StateId one = kNoState;
  for (StateId s = 0; s < result.ctmdp.num_states(); ++s) {
    if (result.origin_of[s] == 1) one = s;
  }
  ASSERT_NE(one, kNoState);
  EXPECT_TRUE(result.goal[one]);
  EXPECT_TRUE(result.goal_universal[one]);
}

TEST(Transform, GoalSizeMismatchThrows) {
  ImcBuilder b;
  b.add_state();
  b.add_markov(0, 1.0, 0);
  const Imc m = b.build();
  const BitVector goal{true, false};
  EXPECT_THROW(transform_to_ctmdp(m, &goal), ModelError);
}

// --------------------------- Theorem 1 style cross-checks (properties)

class TransformCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformCrossCheck, DeterministicUimcMatchesCtmcAnalysis) {
  // For a closed uIMC without any scheduler choice, the transformed CTMDP
  // is deterministic and timed reachability must equal plain CTMC
  // analysis of the induced chain (Theorem 1 collapses to an equality).
  Rng rng(GetParam());
  testutil::RandomImcConfig config;
  config.num_states = 15;
  config.deterministic = true;
  config.uniform_rate = 2.0;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const BitVector goal = testutil::random_goal(rng, m.num_states());

  const auto transformed = transform_to_ctmdp(m, &goal);
  const Ctmc chain = testutil::ctmc_from_deterministic_ctmdp(transformed.ctmdp);

  for (double t : {0.4, 1.5, 6.0}) {
    TimedReachabilityOptions options;
    options.epsilon = 1e-9;
    const auto via_mdp = timed_reachability(transformed.ctmdp, transformed.goal, t, options);
    const auto via_ctmc = timed_reachability(chain, transformed.goal, t, TransientOptions{1e-9});
    EXPECT_NEAR(via_mdp.values[transformed.ctmdp.initial()],
                via_ctmc.probabilities[chain.initial()], 1e-6)
        << "t=" << t;
  }
}

TEST_P(TransformCrossCheck, SupIsAtLeastInf) {
  Rng rng(GetParam() + 300);
  testutil::RandomImcConfig config;
  config.num_states = 14;
  const Imc m = testutil::random_uniform_imc(rng, config);
  const BitVector goal = testutil::random_goal(rng, m.num_states());
  UimcAnalysisOptions options;
  const double sup = analyze_timed_reachability(m, goal, 2.0, options).value;
  options.reachability.objective = Objective::Minimize;
  const double inf = analyze_timed_reachability(m, goal, 2.0, options).value;
  EXPECT_GE(sup + 1e-9, inf);
}

TEST_P(TransformCrossCheck, TransformedModelIsUniform) {
  Rng rng(GetParam() + 600);
  const Imc m = testutil::random_uniform_imc(rng);
  const auto result = transform_to_ctmdp(m);
  EXPECT_TRUE(result.ctmdp.is_uniform(1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformCrossCheck, ::testing::Range<std::uint64_t>(0, 15));

// ------------------------------------------------- bitwise output pins

/// FNV-1a over the bytes of every field the transformation produces.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// @p values = false leaves out the rate and exit-rate bits.
void digest_ctmdp(Digest& d, const Ctmdp& c, bool values = true) {
  d.u64(c.num_states());
  d.u64(c.num_transitions());
  d.u64(c.num_rate_entries());
  d.u64(c.initial());
  for (StateId s = 0; s < c.num_states(); ++s) d.u64(c.transition_range(s).first);
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    d.u64(c.source(t));
    d.u64(c.label(t));
    d.u64(c.rates(t).size());
    for (const SparseEntry& e : c.rates(t)) {
      d.u64(e.col);
      if (values) d.f64(e.value);
    }
    if (values) d.f64(c.exit_rate(t));
  }
  d.u64(c.words().size());
  for (WordId w = 0; w < c.words().size(); ++w) {
    const auto actions = c.words().actions(w);
    d.u64(actions.size());
    for (Action a : actions) d.u64(a);
  }
}

void digest_mask(Digest& d, const BitVector& mask) {
  d.u64(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i) d.u64(mask[i] ? 1 : 0);
}

/// Digest of the whole TransformResult (minus wall time) plus the
/// "transform" span metrics and the word-length histogram.
std::uint64_t transform_digest(const Imc& m, const BitVector& goal) {
  Telemetry telemetry;
  const TransformResult r = transform_to_ctmdp(m, &goal, nullptr, &telemetry);
  Digest d;
  digest_ctmdp(d, r.ctmdp);
  d.u64(r.origin_of.size());
  for (StateId s : r.origin_of) d.u64(s);
  digest_mask(d, r.goal);
  digest_mask(d, r.goal_universal);
  const TransformStats& st = r.stats;
  for (std::size_t v : {st.interactive_states, st.markov_states, st.interactive_transitions,
                        st.markov_transitions, st.memory_bytes, st.words_deduplicated}) {
    d.u64(v);
  }
  const Json json = Json::parse(telemetry.to_json());
  const JsonArray& spans = json.find("spans")->as_array();
  EXPECT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.at(0).find("name")->as_string(), "transform");
  d.str(spans.at(0).find("metrics")->dump());
  d.str(json.find("histograms")->find("transform.word_length")->dump());
  return d.value();
}

std::string read_example_model(const std::string& name) {
  std::ifstream in(std::string(UNICON_MODELS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Generator models with Markov->Markov chains, Markov initial states and
/// parallel Markov edges (several of them to one target).
Imc pinned_random_imc(std::uint64_t seed, std::size_t states, BitVector* goal) {
  Rng rng(seed);
  testutil::RandomImcConfig config;
  config.num_states = states;
  config.max_fanout = 6;
  config.interactive_bias = 0.35;
  Imc m = testutil::random_uniform_imc(rng, config);
  *goal = testutil::random_goal(rng, m.num_states());
  return m;
}

struct PinnedCase {
  std::string name;
  std::uint64_t digest;
};

void expect_pinned(const PinnedCase& pin, std::uint64_t actual) {
  EXPECT_EQ(actual, pin.digest) << pin.name << ": digest 0x" << std::hex << actual;
}

TEST(Transform, OutputPinned) {
  // Digests of the output of the former three-copy implementation of steps
  // (1)-(3), which the single pass reproduces bit for bit.  Two pins differ
  // from that implementation's: ftwc.uni and random/40/2 have parallel
  // Markov edges, whose rates are now summed (into the merged rate and the
  // exit rate) in the order of the input relation rather than the order two
  // unstable sorts of the intermediate copies left them in.  Their
  // structure is unchanged, their values moved by at most 4.3e-16 relative
  // (see TransformStepwise).
  const PinnedCase ftwc_pins[] = {
      {"ftwc/N=1", 0x1a842953f3c65a8dull}, {"ftwc/N=2", 0x7b64443a32555a66ull},
      {"ftwc/N=4", 0xea0700a5663d00c0ull}, {"ftwc/N=8", 0x7363fdd87dd86f10ull},
      {"ftwc/N=16", 0x70d54a64e2de1f55ull},
  };
  const unsigned ns[] = {1, 2, 4, 8, 16};
  for (std::size_t i = 0; i < std::size(ns); ++i) {
    ftwc::Parameters params;
    params.n = ns[i];
    const auto built = ftwc::build_direct(params);
    expect_pinned(ftwc_pins[i], transform_digest(built.uimc, built.goal));
  }

  const PinnedCase uni_pins[] = {
      {"quickstart.uni", 0x5007670c6df5f712ull},
      {"erlang_job_shop.uni", 0x0d5ba4baa9b8e126ull},
      {"ftwc.uni", 0x298c81a4db8ec616ull},
  };
  for (const PinnedCase& pin : uni_pins) {
    const lang::BuiltModel built =
        lang::build_model(lang::parse_and_check(read_example_model(pin.name), pin.name));
    expect_pinned(pin, transform_digest(built.system, BitVector(built.mask("goal"))));
  }

  const PinnedCase random_pins[] = {
      {"random/40/1", 0x4257431802f16c7eull},  {"random/40/2", 0xfe912836a95a4487ull},
      {"random/40/3", 0xc62d8194bfa010acull},  {"random/40/4", 0x64def1b57bacdbf1ull},
      {"random/40/5", 0xb662fe078451d9fcull},  {"random/40/6", 0x0926543f1e225247ull},
      {"random/400/7", 0xce09363c78344946ull}, {"random/400/8", 0xd62335418d15cc37ull},
  };
  bool markov_initial = false, markov_to_markov = false, triple_parallel = false;
  for (std::size_t i = 0; i < std::size(random_pins); ++i) {
    const std::uint64_t seed = i + 1;
    BitVector goal;
    const Imc m = pinned_random_imc(seed, i < 6 ? 40 : 400, &goal);
    expect_pinned(random_pins[i], transform_digest(m, goal));
    auto markov = [&](StateId s) { return m.kind(s) == StateKind::Markov; };
    markov_initial = markov_initial || markov(m.initial());
    for (StateId s = 0; s < m.num_states(); ++s) {
      const auto row = m.out_markov(s);
      for (std::size_t j = 0; j < row.size(); ++j) {
        markov_to_markov = markov_to_markov || (markov(s) && markov(row[j].to));
        if (j >= 2 && row[j].to == row[j - 2].to) triple_parallel = true;
      }
    }
  }
  // The generator inputs really exercise the shapes the pins are for.
  EXPECT_TRUE(markov_initial);
  EXPECT_TRUE(markov_to_markov);
  EXPECT_TRUE(triple_parallel);
}

bool has_parallel_markov_edges(const Imc& m) {
  const auto ts = m.markov_transitions();
  for (std::size_t i = 1; i < ts.size(); ++i) {
    if (ts[i].from == ts[i - 1].from && ts[i].to == ts[i - 1].to) return true;
  }
  return false;
}

/// The single pass equals the step-by-step route through the two public
/// step functions: the same CTMDP arrays, words and goal masks, and the
/// same origins once the pair states of step (2) are mapped to the Markov
/// states they lead into.  Rates and exit rates are bitwise equal unless
/// the model has parallel Markov edges: the order in which those are
/// summed is the one of the input relation in the single pass and the one
/// two unstable sorts leave in the step functions' copies.
void expect_matches_stepwise(const Imc& m, const BitVector& goal) {
  const TransformResult direct = transform_to_ctmdp(m, &goal);

  const Imc stepwise = make_markov_alternating(make_alternating(m));
  BitVector stepwise_goal(stepwise.num_states(), false);
  for (StateId s = 0; s < m.num_states(); ++s) stepwise_goal[s] = goal[s];
  const TransformResult reference = transform_to_ctmdp(stepwise, &stepwise_goal);

  const bool exact = !has_parallel_markov_edges(m);
  Digest a, b;
  digest_ctmdp(a, direct.ctmdp, exact);
  digest_ctmdp(b, reference.ctmdp, exact);
  EXPECT_EQ(a.value(), b.value());
  if (!exact && a.value() == b.value()) {
    const Ctmdp& x = direct.ctmdp;
    const Ctmdp& y = reference.ctmdp;
    for (std::uint64_t t = 0; t < x.num_transitions(); ++t) {
      EXPECT_NEAR(x.exit_rate(t), y.exit_rate(t), 1e-15 * y.exit_rate(t)) << "transition " << t;
      for (std::size_t i = 0; i < x.rates(t).size(); ++i) {
        const double v = y.rates(t)[i].value;
        EXPECT_NEAR(x.rates(t)[i].value, v, 1e-15 * v) << "transition " << t;
      }
    }
  }
  ASSERT_EQ(direct.origin_of.size(), reference.origin_of.size());
  for (std::size_t x = 0; x < direct.origin_of.size(); ++x) {
    StateId origin = reference.origin_of[x];
    // A pair state's only transition is (tau, s').
    if (origin >= m.num_states()) origin = stepwise.out_interactive(origin)[0].to;
    EXPECT_EQ(direct.origin_of[x], origin) << "CTMDP state " << x;
  }
  EXPECT_TRUE(direct.goal == reference.goal);
  EXPECT_TRUE(direct.goal_universal == reference.goal_universal);
}

class TransformStepwise : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransformStepwise, SinglePassMatchesStepFunctions) {
  BitVector goal;
  const Imc small = pinned_random_imc(GetParam() + 100, 30, &goal);
  expect_matches_stepwise(small, goal);
  const Imc large = pinned_random_imc(GetParam() + 200, 300, &goal);
  expect_matches_stepwise(large, goal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformStepwise, ::testing::Range<std::uint64_t>(0, 20));

TEST(TransformStepwise, FtwcMatchesStepFunctionsBitwise) {
  for (unsigned n : {1u, 4u}) {
    ftwc::Parameters params;
    params.n = n;
    const auto built = ftwc::build_direct(params);
    ASSERT_FALSE(has_parallel_markov_edges(built.uimc));
    expect_matches_stepwise(built.uimc, built.goal);
  }
}

TEST(TransformStepwise, ExampleModelsMatchStepFunctions) {
  for (const char* name : {"quickstart.uni", "erlang_job_shop.uni", "ftwc.uni"}) {
    SCOPED_TRACE(name);
    const lang::BuiltModel built =
        lang::build_model(lang::parse_and_check(read_example_model(name), name));
    expect_matches_stepwise(built.system, BitVector(built.mask("goal")));
  }
}

}  // namespace
}  // namespace unicon
