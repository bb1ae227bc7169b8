#include "testing/generate.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/time_constraint.hpp"
#include "ctmc/phase_type.hpp"
#include "imc/compose.hpp"
#include "lts/lts.hpp"
#include "support/errors.hpp"

namespace unicon::testing {

Imc random_uniform_imc(Rng& rng, const RandomImcConfig& config) {
  const std::size_t n = std::max<std::size_t>(config.num_states, 2);
  ImcBuilder b;
  const Action visible_a = b.intern("a");
  const Action visible_b = b.intern("b");
  for (std::size_t s = 0; s < n; ++s) b.add_state("s" + std::to_string(s));
  b.set_initial(0);

  // Decide kinds: last state is Markov so interactive chains terminate.
  BitVector interactive(n, false);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    interactive[s] = rng.next_double() < config.interactive_bias;
  }

  for (std::size_t s = 0; s < n; ++s) {
    if (interactive[s]) {
      // Interactive transitions lead strictly forward (no Zeno cycles).
      const unsigned fanout =
          config.deterministic ? 1u : 1u + static_cast<unsigned>(rng.next_below(config.max_fanout));
      bool has_tau = false;
      for (unsigned i = 0; i < fanout; ++i) {
        const StateId to = static_cast<StateId>(s + 1 + rng.next_below(n - s - 1));
        const Action a = rng.next_double() < config.tau_bias
                             ? kTau
                             : (rng.next_double() < 0.5 ? visible_a : visible_b);
        has_tau = has_tau || a == kTau;
        b.add_interactive(static_cast<StateId>(s), a, to);
      }
      // Optionally close an interactive cycle with a backward tau edge —
      // this deliberately injects Zeno behaviour for detector tests.  Only
      // draws from the Rng when enabled so that default-config streams stay
      // identical to the historical generator.
      if (config.tau_cycle_density > 0.0 && s > 0 &&
          rng.next_double() < config.tau_cycle_density) {
        const StateId back = static_cast<StateId>(rng.next_below(s + 1));
        b.add_interactive(static_cast<StateId>(s), kTau, back);
        has_tau = true;
      }
      // A visible-only interactive state is *stable* (Def. 4) and must
      // carry exit rate E to keep the model uniform — the same device the
      // elapse operator uses for its idle/done states.
      if (!has_tau) {
        b.add_markov(static_cast<StateId>(s), config.uniform_rate, static_cast<StateId>(s));
      }
    } else {
      // Markov state: random targets anywhere, rates normalized to the
      // uniform rate.
      const unsigned fanout = 1u + static_cast<unsigned>(rng.next_below(config.max_fanout));
      std::vector<double> weights(fanout);
      double total = 0.0;
      for (double& w : weights) {
        w = 0.1 + config.rate_spread * rng.next_double();
        total += w;
      }
      for (unsigned i = 0; i < fanout; ++i) {
        const StateId to = static_cast<StateId>(rng.next_below(n));
        b.add_markov(static_cast<StateId>(s), config.uniform_rate * weights[i] / total, to);
      }
    }
  }

  return b.build().reachable();
}

namespace {

double random_rate(Rng& rng, double lo, double hi) { return lo + (hi - lo) * rng.next_double(); }

PhaseType random_phase_type(Rng& rng, const RandomComposedConfig& config) {
  const unsigned phases =
      1u + static_cast<unsigned>(rng.next_below(std::max(config.max_phases, 1u)));
  if (phases == 1) return PhaseType::exponential(random_rate(rng, config.min_rate, config.max_rate));
  if (rng.next_double() < 0.5) {
    return PhaseType::erlang(phases, random_rate(rng, config.min_rate, config.max_rate));
  }
  std::vector<double> rates(phases);
  for (double& r : rates) r = random_rate(rng, config.min_rate, config.max_rate);
  return PhaseType::hypoexponential(rates);
}

}  // namespace

ComposedModel random_composed_uimc(Rng& rng, const RandomComposedConfig& config) {
  const unsigned m = std::max(config.ring_length, 2u);
  auto actions = std::make_shared<ActionTable>();
  // The elapse operator uniformizes each constraint at its maximal phase
  // exit rate; by Lemmas 1-3 the composite is uniform at the sum of those
  // rates.  Accumulated here so callers can audit the construction claim
  // against Imc::uniform_rate without circularity.
  double expected_rate = 0.0;

  // Sequential component: an m-ring of delayed actions, each triggered by
  // its predecessor; constraint 0 runs from time zero so the system moves.
  LtsBuilder ring(actions);
  for (unsigned i = 0; i < m; ++i) ring.add_state("r" + std::to_string(i));
  ring.set_initial(0);
  std::vector<TimeConstraint> ring_constraints;
  for (unsigned i = 0; i < m; ++i) {
    const std::string act = "ring" + std::to_string(i);
    const std::string prev = "ring" + std::to_string((i + m - 1) % m);
    ring.add_transition(i, act, (i + 1) % m);
    PhaseType ph = random_phase_type(rng, config);
    expected_rate += ph.max_exit_rate();
    ring_constraints.emplace_back(std::move(ph), act, prev, /*running=*/i == 0);
  }
  CompositionExpr expr = time_constrained_expr(ring.build(), ring_constraints);

  // Optional second component: a random LTS over self-triggered actions
  // (fire == trigger never blocks: the constraint offers the action from
  // both its idle and done states, and merely delays it while running).
  if (config.extra_actions > 0 && config.extra_states > 0) {
    LtsBuilder extra(actions);
    const unsigned k = std::max(config.extra_states, 2u);
    for (unsigned i = 0; i < k; ++i) extra.add_state("x" + std::to_string(i));
    extra.set_initial(0);
    std::vector<TimeConstraint> extra_constraints;
    for (unsigned a = 0; a < config.extra_actions; ++a) {
      const std::string act = "extra" + std::to_string(a);
      PhaseType ph = random_phase_type(rng, config);
      expected_rate += ph.max_exit_rate();
      extra_constraints.emplace_back(std::move(ph), act, act,
                                     /*running=*/rng.next_double() < 0.5);
      // Wire 1-2 transitions with this action into the component; forward
      // or backward edges are both fine (self-triggered constraints cannot
      // deadlock, at worst an action is never offered again).
      const unsigned uses = 1u + static_cast<unsigned>(rng.next_below(2));
      for (unsigned u = 0; u < uses; ++u) {
        const StateId from = static_cast<StateId>(rng.next_below(k));
        StateId to = static_cast<StateId>(rng.next_below(k));
        if (to == from) to = static_cast<StateId>((to + 1) % k);
        extra.add_transition(from, act, to);
      }
    }
    expr = CompositionExpr::interleave(std::move(expr),
                                       time_constrained_expr(extra.build(), extra_constraints));
  }

  if (config.hide) expr = CompositionExpr::hide_all(std::move(expr));

  ExploreOptions explore;
  explore.urgent = true;
  explore.max_states = config.max_states;
  ComposedModel model;
  model.system = expr.explore(explore);
  model.expected_rate = expected_rate;
  model.goal = random_goal(rng, model.system.num_states(), config.goal_density);
  return model;
}

Ctmdp random_uniform_ctmdp(Rng& rng, const RandomCtmdpConfig& config) {
  const std::size_t n = std::max<std::size_t>(config.num_states, 2);
  CtmdpBuilder b;
  b.ensure_states(n);
  b.set_initial(0);
  const char* const alphabet[] = {"a", "b", "c", "d"};
  for (std::size_t s = 0; s < n; ++s) {
    // State 0 keeps its transitions so the initial state is never trivially
    // absorbing.
    if (s > 0 && rng.next_double() < config.absorbing_density) continue;
    const unsigned fanout =
        1u + static_cast<unsigned>(rng.next_below(std::max(config.max_transitions_per_state, 1u)));
    for (unsigned tr = 0; tr < fanout; ++tr) {
      b.begin_transition(static_cast<StateId>(s), alphabet[tr % 4]);
      const unsigned entries =
          1u + static_cast<unsigned>(rng.next_below(std::max(config.max_entries, 1u)));
      std::vector<double> weights(entries);
      double total = 0.0;
      for (double& w : weights) {
        w = 0.1 + config.rate_spread * rng.next_double();
        total += w;
      }
      for (unsigned j = 0; j < entries; ++j) {
        const StateId to = static_cast<StateId>(rng.next_below(n));
        b.add_rate(to, config.uniform_rate * weights[j] / total);
      }
    }
  }
  return b.build();
}

Ctmc random_ctmc(Rng& rng, const RandomCtmcConfig& config) {
  const std::size_t n = std::max<std::size_t>(config.num_states, 1);
  CtmcBuilder b(n);
  b.ensure_states(n);
  b.set_initial(0);
  for (std::size_t s = 0; s < n; ++s) {
    if (s > 0 && rng.next_double() < config.absorbing_density) continue;
    const unsigned fanout =
        1u + static_cast<unsigned>(rng.next_below(std::max(config.max_fanout, 1u)));
    for (unsigned i = 0; i < fanout; ++i) {
      StateId to = static_cast<StateId>(rng.next_below(n));
      if (to == s && rng.next_double() >= config.self_loop_density) {
        to = static_cast<StateId>((to + 1) % n);
      }
      if (to == s && n == 1) continue;
      b.add_transition(static_cast<StateId>(s), random_rate(rng, config.min_rate, config.max_rate),
                       to);
    }
  }
  return b.build();
}

SlowDriftModel slow_drift_model(Rng& rng, const SlowDriftConfig& config) {
  const std::size_t chain_states = std::max<std::size_t>(config.num_states, 1);
  const StateId goal_state = static_cast<StateId>(chain_states);
  const std::size_t n = chain_states + 1;
  const double e = kSlowDriftUniformRate;
  const double drift = std::pow(10.0, -13.0 + 7.0 * rng.next_double());  // 1e-13 .. 1e-6
  const StateId exit = static_cast<StateId>(rng.next_below(chain_states));

  CtmdpBuilder mdp;
  mdp.ensure_states(n);
  mdp.set_initial(0);
  CtmcBuilder mc(n);
  mc.ensure_states(n);
  mc.set_initial(0);
  const char* const alphabet[] = {"a", "b", "c", "d"};
  for (StateId s = 0; s < chain_states; ++s) {
    const unsigned fanout =
        1u + static_cast<unsigned>(rng.next_below(std::max(config.max_transitions_per_state, 1u)));
    for (unsigned tr = 0; tr < fanout; ++tr) {
      const double out = s == exit ? drift * e * (0.5 + 0.5 * rng.next_double()) : 0.0;
      const StateId to = tr == 0 ? static_cast<StateId>((s + 1) % chain_states)
                                 : static_cast<StateId>(rng.next_below(chain_states));
      const double step = (e - out) * (0.1 + 0.9 * rng.next_double());
      mdp.begin_transition(s, alphabet[tr % 4]);
      mdp.add_rate(to, step);
      mdp.add_rate(s, e - out - step);
      if (out > 0.0) mdp.add_rate(goal_state, out);
      if (tr == 0) {
        mc.add_transition(s, step, to);
        mc.add_transition(s, e - out - step, s);
        if (out > 0.0) mc.add_transition(s, out, goal_state);
      }
    }
  }
  mdp.begin_transition(goal_state, "stay");
  mdp.add_rate(goal_state, e);
  mc.add_transition(goal_state, e, goal_state);

  SlowDriftModel model{mdp.build(), mc.build(), BitVector(n, false)};
  model.goal.set(goal_state);
  return model;
}

BitVector random_goal(Rng& rng, std::size_t num_states, double density) {
  BitVector goal(num_states, false);
  bool any = false;
  for (std::size_t s = 1; s < num_states; ++s) {
    if (rng.next_double() < density) {
      goal[s] = true;
      any = true;
    }
  }
  if (!any && num_states > 1) goal[num_states - 1] = true;
  return goal;
}

}  // namespace unicon::testing
