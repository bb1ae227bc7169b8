#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "imc/imc.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace unicon {
namespace {

/// A small IMC covering all four state kinds:
/// 0 hybrid (tau + rate), 1 interactive (visible), 2 Markov, 3 absorbing.
Imc all_kinds_imc() {
  ImcBuilder b;
  b.add_state("hybrid");
  b.add_state("interactive");
  b.add_state("markov");
  b.add_state("absorbing");
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_markov(0, 1.0, 2);
  b.add_interactive(1, "a", 2);
  b.add_markov(2, 2.0, 3);
  return b.build();
}

TEST(Imc, StateKinds) {
  const Imc m = all_kinds_imc();
  EXPECT_EQ(m.kind(0), StateKind::Hybrid);
  EXPECT_EQ(m.kind(1), StateKind::Interactive);
  EXPECT_EQ(m.kind(2), StateKind::Markov);
  EXPECT_EQ(m.kind(3), StateKind::Absorbing);
}

TEST(Imc, StabilityIsTauBased) {
  const Imc m = all_kinds_imc();
  EXPECT_FALSE(m.stable(0));  // has tau
  EXPECT_TRUE(m.stable(1));   // visible action only: stable per Def. 4
  EXPECT_TRUE(m.stable(2));
  EXPECT_TRUE(m.stable(3));
}

TEST(Imc, ExitAndCumulativeRates) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_markov(0, 1.0, 1);
  b.add_markov(0, 2.0, 1);  // parallel Markov transitions coexist
  b.add_markov(0, 0.5, 0);
  const Imc m = b.build();
  EXPECT_EQ(m.num_markov_transitions(), 3u);
  EXPECT_DOUBLE_EQ(m.exit_rate(0), 3.5);
  EXPECT_DOUBLE_EQ(m.rate(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.rate(0, 0), 0.5);
}

TEST(Imc, RejectsBadRatesAndIds) {
  ImcBuilder b;
  b.add_state();
  EXPECT_THROW(b.add_markov(0, 0.0, 0), ModelError);
  b.add_interactive(0, kTau, 7);
  EXPECT_THROW(b.build(), ModelError);
}

TEST(Imc, UniformityOpenView) {
  // Stable states 1 (rate 2) and 2 (rate 2): uniform.  Unstable state 0's
  // rate is unconstrained.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_markov(0, 17.0, 1);  // irrelevant: 0 is unstable
  b.add_markov(1, 2.0, 2);
  b.add_markov(2, 2.0, 1);
  const Imc m = b.build();
  EXPECT_TRUE(m.is_uniform(UniformityView::Open));
  EXPECT_DOUBLE_EQ(*m.uniform_rate(UniformityView::Open), 2.0);
}

TEST(Imc, UniformityClosedViewIgnoresVisibleActionStates) {
  // State 1 has a visible action -> closed view exempts it, open view
  // does not.
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 2.0, 1);
  b.add_interactive(1, "a", 2);
  b.add_markov(1, 99.0, 2);  // hybrid with visible action
  b.add_markov(2, 2.0, 0);
  const Imc m = b.build();
  EXPECT_FALSE(m.is_uniform(UniformityView::Open));
  EXPECT_TRUE(m.is_uniform(UniformityView::Closed));
}

TEST(Imc, UniformityIgnoresUnreachableStates) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_state("unreachable");
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 1.0, 0);
  b.add_markov(2, 123.0, 0);  // unreachable, arbitrary rate
  const Imc m = b.build();
  EXPECT_TRUE(m.is_uniform(UniformityView::Open));
  EXPECT_DOUBLE_EQ(*m.uniform_rate(UniformityView::Open), 1.0);
}

TEST(Imc, LtsEmbeddingIsUniformAtZero) {
  LtsBuilder lb;
  lb.add_state();
  lb.add_state();
  lb.add_transition(0, "a", 1);
  const Imc m = imc_from_lts(lb.build());
  EXPECT_TRUE(m.is_uniform());
  EXPECT_DOUBLE_EQ(*m.uniform_rate(), 0.0);
  EXPECT_EQ(m.num_markov_transitions(), 0u);
}

TEST(Imc, CtmcEmbeddingHasNoInteractive) {
  CtmcBuilder cb(2);
  cb.ensure_states(2);
  cb.add_transition(0, 1.5, 1);
  const Imc m = imc_from_ctmc(cb.build());
  EXPECT_EQ(m.num_interactive_transitions(), 0u);
  EXPECT_DOUBLE_EQ(m.exit_rate(0), 1.5);
}

TEST(Imc, UniformizePadsSelfLoops) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.set_initial(0);
  b.add_markov(0, 1.0, 1);
  b.add_markov(1, 3.0, 0);
  const Imc u = b.build().uniformize(0.0, UniformityView::Closed);
  EXPECT_TRUE(u.is_uniform(UniformityView::Closed));
  EXPECT_DOUBLE_EQ(*u.uniform_rate(UniformityView::Closed), 3.0);
  EXPECT_DOUBLE_EQ(u.rate(0, 0), 2.0);
}

TEST(Imc, UniformizeBelowExitRateThrows) {
  ImcBuilder b;
  b.add_state();
  b.add_markov(0, 3.0, 0);
  EXPECT_THROW(b.build().uniformize(1.0, UniformityView::Closed), UniformityError);
}

TEST(Imc, HidePreservesMarkovTransitions) {
  const Imc m = all_kinds_imc();
  const Action a = m.actions().id("a");
  const Imc h = m.hide({a});
  EXPECT_EQ(h.num_markov_transitions(), m.num_markov_transitions());
  EXPECT_TRUE(h.has_tau(1));
}

TEST(Imc, HideAllLeavesOnlyTau) {
  const Imc h = all_kinds_imc().hide_all();
  for (const LtsTransition& t : h.interactive_transitions()) EXPECT_EQ(t.action, kTau);
}

TEST(Imc, RelabelChangesVisibleActions) {
  const Imc m = all_kinds_imc();
  const Action a = m.actions().id("a");
  ImcBuilder helper(m.action_table());
  const Action c = helper.intern("c");
  const Imc r = m.relabel({{a, c}});
  bool found = false;
  for (const LtsTransition& t : r.interactive_transitions()) {
    if (t.action == c) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Imc, ReachableDropsUnreachable) {
  ImcBuilder b;
  b.add_state("a");
  b.add_state("b");
  b.add_state("island");
  b.set_initial(0);
  b.add_interactive(0, kTau, 1);
  b.add_markov(2, 1.0, 0);
  const Imc m = b.build().reachable();
  EXPECT_EQ(m.num_states(), 2u);
}

TEST(Imc, VisibleAlphabet) {
  const Imc m = all_kinds_imc();
  const auto alphabet = m.visible_alphabet();
  ASSERT_EQ(alphabet.size(), 1u);
  EXPECT_EQ(m.actions().name(alphabet[0]), "a");
}

TEST(Imc, RenameStates) {
  const Imc m = all_kinds_imc().rename_states({"w", "x", "y", "z"});
  EXPECT_EQ(m.state_name(2), "y");
  EXPECT_THROW(all_kinds_imc().rename_states({"too", "few"}), ModelError);
}

TEST(Imc, MemoryBytesTracksTransitions) {
  const Imc m = all_kinds_imc();
  EXPECT_GT(m.memory_bytes(), 0u);
}

TEST(Imc, DuplicateInteractiveTransitionsCollapse) {
  ImcBuilder b;
  b.add_state();
  b.add_state();
  b.add_interactive(0, "a", 1);
  b.add_interactive(0, "a", 1);
  EXPECT_EQ(b.build().num_interactive_transitions(), 1u);
}

TEST(ImcBuilder, MixedNamedAndUnnamedStates) {
  ImcBuilder b;
  EXPECT_EQ(b.add_state(), 0u);
  EXPECT_EQ(b.add_state("one"), 1u);
  EXPECT_EQ(b.add_state(), 2u);
  b.ensure_states(5);
  EXPECT_EQ(b.add_state("five"), 5u);
  EXPECT_EQ(b.add_state(), 6u);
  EXPECT_EQ(b.num_states(), 7u);
  b.set_initial(0);
  b.add_markov(0, 1.0, 6);
  b.add_interactive(6, kTau, 5);
  const Imc m = b.build();
  ASSERT_EQ(m.num_states(), 7u);
  const std::vector<std::string> names = {"", "one", "", "", "", "five", ""};
  const Imc uniform = m.uniformize(2.0, UniformityView::Closed);
  const Imc hidden = m.hide_all();
  for (StateId s = 0; s < names.size(); ++s) {
    EXPECT_EQ(m.state_name(s), names[s]) << s;
    EXPECT_EQ(uniform.state_name(s), names[s]) << s;
    EXPECT_EQ(hidden.state_name(s), names[s]) << s;
  }
  EXPECT_EQ(m.state_name(99), "");
  // reachable() renumbers: 0 -> 0, 6 -> 1, 5 -> 2.
  const Imc reach = m.reachable();
  ASSERT_EQ(reach.num_states(), 3u);
  EXPECT_EQ(reach.state_name(0), "");
  EXPECT_EQ(reach.state_name(1), "");
  EXPECT_EQ(reach.state_name(2), "five");
  // The builder starts over unnamed after build().
  b.add_state();
  b.add_state();
  const Imc again = b.build();
  EXPECT_EQ(again.state_name(0), "");
  EXPECT_EQ(again.state_name(1), "");
}

// --------------------------------------------- uniformization reference

/// A non-uniform IMC with interactive, hybrid, Markov and absorbing
/// states, parallel Markov edges and Markov self-loops, its transitions
/// added out of order.
Imc messy_imc(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  ImcBuilder b;
  const Action visible = b.intern("a");
  for (std::size_t s = 0; s < n; ++s) b.add_state();
  b.set_initial(0);
  std::vector<MarkovTransition> markov;
  for (StateId s = 0; s < n; ++s) {
    const double kind = rng.next_double();
    if (kind < 0.4) {
      const unsigned fanout = 1 + static_cast<unsigned>(rng.next_below(2));
      for (unsigned i = 0; i < fanout; ++i) {
        b.add_interactive(s, rng.next_double() < 0.5 ? kTau : visible,
                          static_cast<StateId>(rng.next_below(n)));
      }
    }
    if (kind < 0.2 || kind >= 0.9) continue;
    const unsigned fanout = 1 + static_cast<unsigned>(rng.next_below(4));
    for (unsigned i = 0; i < fanout; ++i) {
      StateId to = static_cast<StateId>(rng.next_below(n));
      const double shape = rng.next_double();
      if (shape < 0.25) to = s;  // self-loop
      if (shape > 0.7 && !markov.empty() && markov.back().from == s) {
        to = markov.back().to;  // parallel edge
      }
      markov.push_back(MarkovTransition{s, 0.1 + 3.0 * rng.next_double(), to});
    }
  }
  for (std::size_t i = markov.size(); i > 1; --i) {
    std::swap(markov[i - 1], markov[rng.next_below(i)]);
  }
  for (const MarkovTransition& t : markov) b.add_markov(t.from, t.rate, t.to);
  return b.build();
}

bool constrained(const Imc& m, StateId s, UniformityView view) {
  return view == UniformityView::Open ? m.stable(s) : !m.has_interactive(s);
}

/// Uniformization as copy, append the pads, re-index with a full sort.
Imc append_and_sort(const Imc& m, double rate, UniformityView view) {
  double target = rate;
  if (target == 0.0) {
    for (StateId s = 0; s < m.num_states(); ++s) {
      if (constrained(m, s, view)) target = std::max(target, m.exit_rate(s));
    }
  }
  ImcBuilder b(m.action_table());
  for (StateId s = 0; s < m.num_states(); ++s) b.add_state(m.state_name(s));
  b.set_initial(m.initial());
  for (const LtsTransition& t : m.interactive_transitions()) {
    b.add_interactive(t.from, t.action, t.to);
  }
  for (const MarkovTransition& t : m.markov_transitions()) b.add_markov(t.from, t.rate, t.to);
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (!constrained(m, s, view)) continue;
    const double pad = target - m.exit_rate(s);
    if (pad > 1e-12) b.add_markov(s, pad, s);
  }
  return b.build();
}

void expect_bitwise_equal(const Imc& a, const Imc& b, const std::string& what) {
  ASSERT_EQ(a.num_states(), b.num_states()) << what;
  EXPECT_EQ(a.initial(), b.initial()) << what;
  EXPECT_EQ(a.action_table(), b.action_table()) << what;
  ASSERT_EQ(a.num_interactive_transitions(), b.num_interactive_transitions()) << what;
  for (std::size_t i = 0; i < a.num_interactive_transitions(); ++i) {
    ASSERT_EQ(a.interactive_transitions()[i], b.interactive_transitions()[i]) << what << " " << i;
  }
  ASSERT_EQ(a.num_markov_transitions(), b.num_markov_transitions()) << what;
  for (std::size_t i = 0; i < a.num_markov_transitions(); ++i) {
    const MarkovTransition& x = a.markov_transitions()[i];
    const MarkovTransition& y = b.markov_transitions()[i];
    ASSERT_EQ(x.from, y.from) << what << " " << i;
    ASSERT_EQ(x.to, y.to) << what << " " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x.rate), std::bit_cast<std::uint64_t>(y.rate))
        << what << " " << i;
  }
  for (StateId s = 0; s < a.num_states(); ++s) {
    ASSERT_EQ(a.out_interactive(s).size(), b.out_interactive(s).size()) << what << " " << s;
    ASSERT_EQ(a.out_markov(s).size(), b.out_markov(s).size()) << what << " " << s;
    ASSERT_EQ(a.state_name(s), b.state_name(s)) << what << " " << s;
  }
}

std::string read_example_model(const std::string& name) {
  std::ifstream in(std::string(UNICON_MODELS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ImcUniformize, MatchesAppendAndSort) {
  std::vector<std::pair<std::string, Imc>> cases;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.emplace_back("random/" + std::to_string(seed), messy_imc(seed, seed <= 8 ? 30 : 300));
  }
  for (const char* name : {"quickstart.uni", "erlang_job_shop.uni", "ftwc.uni"}) {
    cases.emplace_back(name,
                       lang::build_model(lang::parse_and_check(read_example_model(name), name))
                           .system);
  }
  bool parallel_edges = false, padded_self_loop = false;
  for (const auto& [name, m] : cases) {
    double max_exit = 0.0;
    for (StateId s = 0; s < m.num_states(); ++s) max_exit = std::max(max_exit, m.exit_rate(s));
    for (const UniformityView view : {UniformityView::Open, UniformityView::Closed}) {
      for (const double rate : {0.0, 1.5 * max_exit + 1.0}) {
        const std::string what = name + (view == UniformityView::Open ? "/open/" : "/closed/") +
                                 std::to_string(rate);
        const Imc expected = append_and_sort(m, rate, view);
        expect_bitwise_equal(m.uniformize(rate, view), expected, what);
        for (StateId s = 0; s < m.num_states(); ++s) {
          if (expected.out_markov(s).size() <= m.out_markov(s).size()) continue;
          for (const MarkovTransition& t : m.out_markov(s)) {
            padded_self_loop = padded_self_loop || t.to == s;
          }
        }
      }
    }
    for (StateId s = 0; s < m.num_states(); ++s) {
      const auto row = m.out_markov(s);
      for (std::size_t j = 1; j < row.size(); ++j) {
        parallel_edges = parallel_edges || row[j].to == row[j - 1].to;
      }
    }
  }
  // The inputs really contain the shapes that force the sorted fallback.
  EXPECT_TRUE(parallel_edges);
  EXPECT_TRUE(padded_self_loop);
}

}  // namespace
}  // namespace unicon
