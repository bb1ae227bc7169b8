#include <gtest/gtest.h>

#include "ctmdp/ctmdp.hpp"
#include "support/errors.hpp"

namespace unicon {
namespace {

/// Two states; state 0 has two transitions (fast/slow), state 1 loops.
Ctmdp two_choice_model() {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.set_initial(0);
  b.begin_transition(0, "fast");
  b.add_rate(1, 3.0);
  b.begin_transition(0, "slow");
  b.add_rate(0, 2.0);
  b.add_rate(1, 1.0);
  b.begin_transition(1, "loop");
  b.add_rate(1, 3.0);
  return b.build();
}

TEST(Ctmdp, BuilderBasics) {
  const Ctmdp c = two_choice_model();
  EXPECT_EQ(c.num_states(), 2u);
  EXPECT_EQ(c.num_transitions(), 3u);
  EXPECT_EQ(c.num_transitions_of(0), 2u);
  EXPECT_EQ(c.num_transitions_of(1), 1u);
  EXPECT_EQ(c.initial(), 0u);
}

TEST(Ctmdp, ExitRatesCached) {
  const Ctmdp c = two_choice_model();
  const auto [first, last] = c.transition_range(0);
  ASSERT_EQ(last - first, 2u);
  EXPECT_DOUBLE_EQ(c.exit_rate(first), 3.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(first + 1), 3.0);
}

TEST(Ctmdp, SourcesAndLabels) {
  const Ctmdp c = two_choice_model();
  EXPECT_EQ(c.source(0), 0u);
  EXPECT_EQ(c.source(2), 1u);
  EXPECT_EQ(c.words().str(c.label(0), c.actions()), "fast");
  EXPECT_EQ(c.words().str(c.label(2), c.actions()), "loop");
}

TEST(Ctmdp, DuplicateTargetsMergeWithinTransition) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.add_rate(1, 2.0);
  const Ctmdp c = b.build();
  ASSERT_EQ(c.rates(0).size(), 1u);
  EXPECT_DOUBLE_EQ(c.rates(0)[0].value, 3.0);
  EXPECT_DOUBLE_EQ(c.exit_rate(0), 3.0);
}

TEST(Ctmdp, EmptyTransitionRejected) {
  CtmdpBuilder b;
  b.ensure_states(1);
  b.begin_transition(0, "a");
  EXPECT_THROW(b.build(), ModelError);
}

TEST(Ctmdp, RateWithoutTransitionRejected) {
  CtmdpBuilder b;
  EXPECT_THROW(b.add_rate(0, 1.0), ModelError);
}

TEST(Ctmdp, NonPositiveRateRejected) {
  CtmdpBuilder b;
  b.begin_transition(0, "a");
  EXPECT_THROW(b.add_rate(1, 0.0), ModelError);
  EXPECT_THROW(b.add_rate(1, -2.0), ModelError);
}

TEST(Ctmdp, UniformRateDetection) {
  EXPECT_TRUE(two_choice_model().is_uniform());
  EXPECT_DOUBLE_EQ(*two_choice_model().uniform_rate(), 3.0);

  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.begin_transition(1, "a");
  b.add_rate(0, 2.0);
  EXPECT_FALSE(b.build().is_uniform());
}

TEST(Ctmdp, EmptyModelUniformAtZero) {
  CtmdpBuilder b;
  b.ensure_states(1);
  EXPECT_DOUBLE_EQ(*b.build().uniform_rate(), 0.0);
}

TEST(Ctmdp, UniformizePadsPerTransitionSelfLoops) {
  CtmdpBuilder b;
  b.ensure_states(2);
  b.set_initial(0);
  b.begin_transition(0, "a");
  b.add_rate(1, 1.0);
  b.begin_transition(1, "b");
  b.add_rate(0, 4.0);
  const Ctmdp u = b.build().uniformize();
  EXPECT_TRUE(u.is_uniform());
  EXPECT_DOUBLE_EQ(*u.uniform_rate(), 4.0);
  // Transition 0 gained a self-loop of rate 3 at its source.
  bool found = false;
  for (const SparseEntry& e : u.rates(0)) {
    if (e.col == u.source(0)) {
      found = true;
      EXPECT_DOUBLE_EQ(e.value, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Ctmdp, UniformizeBelowExitThrows) {
  EXPECT_THROW(two_choice_model().uniformize(2.0), UniformityError);
}

TEST(Ctmdp, MemoryBytesPositive) {
  EXPECT_GT(two_choice_model().memory_bytes(), 0u);
}

TEST(Ctmdp, WordLabelsSupported) {
  CtmdpBuilder b;
  b.ensure_states(2);
  const Action r = b.intern_action("r_wsL");
  const Action g = b.intern_action("g_bb");
  const std::vector<Action> word{r, g};
  b.begin_transition(0, b.intern_word(word));
  b.add_rate(1, 1.0);
  const Ctmdp c = b.build();
  EXPECT_EQ(c.words().str(c.label(0), c.actions()), "r_wsL.g_bb");
}

TEST(Ctmdp, TransitionsGroupedBySource) {
  // Insertion order interleaves sources; build() groups them.
  CtmdpBuilder b;
  b.ensure_states(3);
  b.begin_transition(2, "x");
  b.add_rate(0, 1.0);
  b.begin_transition(0, "y");
  b.add_rate(1, 1.0);
  b.begin_transition(2, "z");
  b.add_rate(1, 1.0);
  const Ctmdp c = b.build();
  EXPECT_EQ(c.num_transitions_of(0), 1u);
  EXPECT_EQ(c.num_transitions_of(1), 0u);
  EXPECT_EQ(c.num_transitions_of(2), 2u);
  const auto [first, last] = c.transition_range(2);
  for (std::uint64_t t = first; t < last; ++t) EXPECT_EQ(c.source(t), 2u);
}

TEST(Ctmdp, OutOfOrderSourcesKeepInsertionOrderWithinASource) {
  CtmdpBuilder b;
  b.ensure_states(3);
  const std::pair<StateId, const char*> added[] = {{2, "a"}, {0, "b"}, {2, "c"}, {1, "d"},
                                                   {0, "e"}, {2, "f"}};
  double rate = 1.0;
  for (const auto& [source, action] : added) {
    b.begin_transition(source, action);
    b.add_rate(0, rate);
    b.add_rate(2, 0.5 * rate);
    rate += 1.0;
  }
  const Ctmdp c = b.build();
  // Grouped by source; within a source in insertion order, each with its
  // own rate function.
  const std::pair<const char*, double> expected[] = {{"b", 2.0}, {"e", 5.0}, {"d", 4.0},
                                                     {"a", 1.0}, {"c", 3.0}, {"f", 6.0}};
  const StateId expected_source[] = {0, 0, 1, 2, 2, 2};
  ASSERT_EQ(c.num_transitions(), std::size(expected));
  for (std::uint64_t t = 0; t < c.num_transitions(); ++t) {
    EXPECT_EQ(c.source(t), expected_source[t]);
    EXPECT_EQ(c.words().str(c.label(t), c.actions()), expected[t].first);
    ASSERT_EQ(c.rates(t).size(), 2u);
    EXPECT_EQ(c.rates(t)[0].col, 0u);
    EXPECT_EQ(c.rates(t)[0].value, expected[t].second);
    EXPECT_EQ(c.rates(t)[1].col, 2u);
    EXPECT_EQ(c.rates(t)[1].value, 0.5 * expected[t].second);
    EXPECT_EQ(c.exit_rate(t), 1.5 * expected[t].second);
  }
  EXPECT_EQ(c.transition_range(0), std::make_pair(std::uint64_t{0}, std::uint64_t{2}));
  EXPECT_EQ(c.transition_range(1), std::make_pair(std::uint64_t{2}, std::uint64_t{3}));
  EXPECT_EQ(c.transition_range(2), std::make_pair(std::uint64_t{3}, std::uint64_t{6}));
}

TEST(Ctmdp, ExitRateSumsTheUnmergedSortedEntries) {
  // Sorted by target the entries are 1.0, 1e-16, 1e-16.  Summed one by one
  // each tiny entry rounds away; summed after merging they do not.
  CtmdpBuilder b;
  b.ensure_states(2);
  b.begin_transition(1, "late");
  b.add_rate(0, 1.0);
  b.begin_transition(0, "a");
  b.add_rate(1, 1e-16);
  b.add_rate(0, 1.0);
  b.add_rate(1, 1e-16);
  const Ctmdp c = b.build();
  ASSERT_EQ(c.num_transitions(), 2u);
  EXPECT_EQ(c.words().str(c.label(0), c.actions()), "a");
  ASSERT_EQ(c.rates(0).size(), 2u);
  EXPECT_EQ(c.rates(0)[0].col, 0u);
  EXPECT_EQ(c.rates(0)[0].value, 1.0);
  EXPECT_EQ(c.rates(0)[1].col, 1u);
  EXPECT_EQ(c.rates(0)[1].value, 2e-16);
  EXPECT_EQ(c.exit_rate(0), 1.0);
  EXPECT_NE(c.rates(0)[0].value + c.rates(0)[1].value, 1.0);
  EXPECT_EQ(c.exit_rate(1), 1.0);
}

TEST(Ctmdp, BadInitialRejected) {
  CtmdpBuilder b;
  b.ensure_states(1);
  b.set_initial(5);
  EXPECT_THROW(b.build(), ModelError);
}

}  // namespace
}  // namespace unicon
