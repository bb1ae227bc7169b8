#include "ftwc/direct.hpp"

#include <string>
#include <vector>

#include "support/errors.hpp"

namespace unicon::ftwc {

namespace {

/// Repair-unit status: idle, repairing component class c, or holding a
/// freshly repaired c while the release handshake is pending.
struct RuStatus {
  enum Kind : std::uint8_t { Idle, Busy, Releasing } kind = Idle;
  Component component = Component::WsLeft;
};

struct SemState {
  Config config;
  RuStatus ru;
};

/// Dense index of a semantic state in the configuration lattice
/// (n+1) x (n+1) x 2^3 configurations x 15 repair-unit statuses (kind x
/// component; Idle always carries WsLeft).  Every reachable state has a
/// slot, and the lattice is about twice the reachable state space.
class StateIndex {
 public:
  explicit StateIndex(unsigned n)
      : side_(static_cast<std::size_t>(n) + 1), ids_(side_ * side_ * 8 * 15, kNoState) {}

  StateId& operator[](const SemState& s) {
    std::size_t slot = s.config.failed_left * side_ + s.config.failed_right;
    slot = slot * 8 + (s.config.sw_left_up ? 4 : 0) + (s.config.sw_right_up ? 2 : 0) +
           (s.config.backbone_up ? 1 : 0);
    slot = slot * 15 + static_cast<std::size_t>(s.ru.kind) * kNumComponents +
           static_cast<std::size_t>(s.ru.component);
    return ids_[slot];
  }

 private:
  std::size_t side_;
  std::vector<StateId> ids_;
};

bool class_failed(const Config& c, Component comp, unsigned /*n*/) {
  switch (comp) {
    case Component::WsLeft: return c.failed_left > 0;
    case Component::WsRight: return c.failed_right > 0;
    case Component::SwLeft: return !c.sw_left_up;
    case Component::SwRight: return !c.sw_right_up;
    case Component::Backbone: return !c.backbone_up;
  }
  return false;
}

void repair_one(Config& c, Component comp) {
  switch (comp) {
    case Component::WsLeft: --c.failed_left; break;
    case Component::WsRight: --c.failed_right; break;
    case Component::SwLeft: c.sw_left_up = true; break;
    case Component::SwRight: c.sw_right_up = true; break;
    case Component::Backbone: c.backbone_up = true; break;
  }
}

std::string name_of(const SemState& s) {
  std::string name = "(" + std::to_string(s.config.failed_left) + "," +
                     std::to_string(s.config.failed_right) + "," +
                     (s.config.sw_left_up ? "o" : "d") + "," +
                     (s.config.sw_right_up ? "o" : "d") + "," +
                     (s.config.backbone_up ? "o" : "d") + ",";
  switch (s.ru.kind) {
    case RuStatus::Idle: name += "idle"; break;
    case RuStatus::Busy: name += std::string("busy_") + tag(s.ru.component); break;
    case RuStatus::Releasing: name += std::string("rel_") + tag(s.ru.component); break;
  }
  return name + ")";
}

}  // namespace

DirectResult build_direct(const Parameters& params, bool record_names) {
  const unsigned n = params.n;
  if (n == 0) throw ModelError("ftwc: n must be positive");

  ImcBuilder builder;
  Action grab[kNumComponents];
  Action release[kNumComponents];
  for (int i = 0; i < kNumComponents; ++i) {
    const std::string t = tag(static_cast<Component>(i));
    grab[i] = builder.intern("g_" + t);
    release[i] = builder.intern("r_" + t);
  }

  DirectResult result;
  StateIndex ids(n);
  // Ids are assigned in discovery order, so the FIFO frontier is the state
  // list itself and the state at its head has the head's index as its id.
  std::vector<SemState> frontier;

  auto intern_state = [&](const SemState& s) -> StateId {
    StateId& id = ids[s];
    if (id != kNoState) return id;
    id = builder.add_state(record_names ? name_of(s) : std::string());
    result.configs.push_back(s.config);
    result.goal.push_back(!premium(s.config, n));
    frontier.push_back(s);
    return id;
  };

  const SemState initial{};  // everything up, repair unit idle
  builder.set_initial(intern_state(initial));

  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const SemState s = frontier[head];
    const auto from = static_cast<StateId>(head);

    // --- Interactive states (urgency: no Markov transitions) ------------
    if (s.ru.kind == RuStatus::Releasing) {
      SemState next = s;
      next.ru = RuStatus{RuStatus::Idle, Component::WsLeft};
      builder.add_interactive(from, release[static_cast<int>(s.ru.component)],
                              intern_state(next));
      continue;
    }
    bool any_failed = false;
    for (int i = 0; i < kNumComponents; ++i) {
      any_failed = any_failed || class_failed(s.config, static_cast<Component>(i), n);
    }
    if (s.ru.kind == RuStatus::Idle && any_failed) {
      // The nondeterministic repair-unit assignment.
      for (int i = 0; i < kNumComponents; ++i) {
        const auto c = static_cast<Component>(i);
        if (!class_failed(s.config, c, n)) continue;
        SemState next = s;
        next.ru = RuStatus{RuStatus::Busy, c};
        builder.add_interactive(from, grab[i], intern_state(next));
      }
      continue;
    }

    // --- Markov states ---------------------------------------------------
    // Failures of operational components.
    if (s.config.failed_left < n) {
      SemState next = s;
      ++next.config.failed_left;
      builder.add_markov(from, (n - s.config.failed_left) * params.ws_fail, intern_state(next));
    }
    if (s.config.failed_right < n) {
      SemState next = s;
      ++next.config.failed_right;
      builder.add_markov(from, (n - s.config.failed_right) * params.ws_fail, intern_state(next));
    }
    if (s.config.sw_left_up) {
      SemState next = s;
      next.config.sw_left_up = false;
      builder.add_markov(from, params.sw_fail, intern_state(next));
    }
    if (s.config.sw_right_up) {
      SemState next = s;
      next.config.sw_right_up = false;
      builder.add_markov(from, params.sw_fail, intern_state(next));
    }
    if (s.config.backbone_up) {
      SemState next = s;
      next.config.backbone_up = false;
      builder.add_markov(from, params.bb_fail, intern_state(next));
    }
    // Repair completion.
    if (s.ru.kind == RuStatus::Busy) {
      SemState next = s;
      repair_one(next.config, s.ru.component);
      next.ru = params.with_release ? RuStatus{RuStatus::Releasing, s.ru.component}
                                    : RuStatus{RuStatus::Idle, Component::WsLeft};
      builder.add_markov(from, params.repair_rate(s.ru.component), intern_state(next));
    }
  }

  result.uimc = builder.build().uniformize(0.0, UniformityView::Closed);
  const auto rate = result.uimc.uniform_rate(UniformityView::Closed, 1e-9);
  if (!rate) throw UniformityError("ftwc: uniformization failed unexpectedly");
  result.uniform_rate = *rate;
  return result;
}

}  // namespace unicon::ftwc
