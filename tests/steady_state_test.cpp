#include <gtest/gtest.h>

#include <cmath>

#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "support/errors.hpp"

namespace unicon {
namespace {

Ctmc birth_death(double lambda, double mu) {
  CtmcBuilder b(2);
  b.ensure_states(2);
  b.set_initial(0);
  b.add_transition(0, lambda, 1);
  b.add_transition(1, mu, 0);
  return b.build();
}

TEST(SteadyState, TwoStateClosedForm) {
  // pi = (mu, lambda) / (lambda + mu).
  const double lambda = 1.5, mu = 0.5;
  const auto r = steady_state(birth_death(lambda, mu));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.distribution[0], mu / (lambda + mu), 1e-9);
  EXPECT_NEAR(r.distribution[1], lambda / (lambda + mu), 1e-9);
}

TEST(SteadyState, AbsorbingChainConcentratesOnAbsorbingState) {
  CtmcBuilder b(2);
  b.ensure_states(2);
  b.set_initial(0);
  b.add_transition(0, 2.0, 1);
  const auto r = steady_state(b.build());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.distribution[1], 1.0, 1e-9);
}

TEST(SteadyState, SingleStateIsTrivial) {
  CtmcBuilder b(1);
  b.ensure_states(1);
  const auto r = steady_state(b.build());
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.distribution[0], 1.0);
}

TEST(SteadyState, AgreesWithLongHorizonTransient) {
  // Three-state cycle with distinct rates.
  CtmcBuilder b(3);
  b.ensure_states(3);
  b.set_initial(0);
  b.add_transition(0, 1.0, 1);
  b.add_transition(1, 2.0, 2);
  b.add_transition(2, 4.0, 0);
  const Ctmc c = b.build();

  const auto pi = steady_state(c);
  ASSERT_TRUE(pi.converged);
  TransientOptions options;
  options.epsilon = 1e-10;
  const auto late = transient_distribution(c, 500.0, options);
  for (StateId s = 0; s < 3; ++s) {
    EXPECT_NEAR(pi.distribution[s], late.probabilities[s], 1e-6) << s;
  }
  // Balance check: pi_i * rate_i equal around the cycle.
  EXPECT_NEAR(pi.distribution[0] * 1.0, pi.distribution[1] * 2.0, 1e-9);
  EXPECT_NEAR(pi.distribution[1] * 2.0, pi.distribution[2] * 4.0, 1e-9);
}

TEST(SteadyState, DistributionIsNormalized) {
  CtmcBuilder b(4);
  b.ensure_states(4);
  b.set_initial(0);
  b.add_transition(0, 1.0, 1);
  b.add_transition(1, 1.0, 2);
  b.add_transition(2, 1.0, 3);
  b.add_transition(3, 1.0, 0);
  const auto r = steady_state(b.build());
  double total = 0.0;
  for (double p : r.distribution) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (double p : r.distribution) EXPECT_NEAR(p, 0.25, 1e-8);
}

TEST(SteadyState, ExplicitRateBelowMaxThrows) {
  SteadyStateOptions options;
  options.uniform_rate = 0.1;
  EXPECT_THROW(steady_state(birth_death(1.0, 2.0), options), UniformityError);
}

}  // namespace
}  // namespace unicon
