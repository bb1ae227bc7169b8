#include "ctmdp/ctmdp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ctmc/ctmc.hpp"
#include "support/errors.hpp"

namespace unicon {

Ctmdp ctmdp_from_ctmc(const Ctmc& chain) {
  CtmdpBuilder b;
  b.ensure_states(chain.num_states());
  b.set_initial(chain.initial());
  const WordId tau_word = b.word_table()->intern_single(kTau);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    const auto row = chain.out(s);
    if (row.empty()) continue;
    b.begin_transition(s, tau_word);
    for (const SparseEntry& e : row) b.add_rate(e.col, e.value);
  }
  return b.build();
}

std::optional<double> Ctmdp::uniform_rate(double tol) const {
  if (exit_.empty()) return 0.0;
  const double e0 = exit_[0];
  for (double e : exit_) {
    if (std::fabs(e - e0) > tol) return std::nullopt;
  }
  return e0;
}

Ctmdp Ctmdp::uniformize(double rate) const {
  double target = rate;
  if (target == 0.0) {
    for (double e : exit_) target = std::max(target, e);
  }
  CtmdpBuilder b(actions_, words_);
  b.ensure_states(num_states());
  b.set_initial(initial_);
  for (std::uint64_t t = 0; t < num_transitions(); ++t) {
    const StateId s = source_[t];
    b.begin_transition(s, labels_[t]);
    for (const SparseEntry& e : rates(t)) b.add_rate(e.col, e.value);
    const double pad = target - exit_[t];
    if (pad < -1e-9) throw UniformityError("Ctmdp::uniformize: rate below a transition exit rate");
    if (pad > 1e-12) b.add_rate(s, pad);
  }
  return b.build();
}

std::size_t Ctmdp::memory_bytes() const {
  return state_row_.size() * sizeof(std::uint64_t) + source_.size() * sizeof(StateId) +
         labels_.size() * sizeof(WordId) + trans_row_.size() * sizeof(std::uint64_t) +
         entries_.size() * sizeof(SparseEntry) + exit_.size() * sizeof(double);
}

CtmdpBuilder::CtmdpBuilder(std::shared_ptr<ActionTable> actions, std::shared_ptr<WordTable> words)
    : actions_(actions ? std::move(actions) : std::make_shared<ActionTable>()),
      words_(words ? std::move(words) : std::make_shared<WordTable>()) {}

StateId CtmdpBuilder::add_state() { return static_cast<StateId>(num_states_++); }

void CtmdpBuilder::ensure_states(std::size_t n) {
  if (n > num_states_) num_states_ = n;
}

void CtmdpBuilder::reserve(std::size_t transitions, std::size_t entries) {
  sources_.reserve(transitions);
  labels_.reserve(transitions);
  first_.reserve(transitions + 1);
  entries_.reserve(entries);
}

void CtmdpBuilder::check_current() const {
  if (!first_.empty() && first_.back() == entries_.size()) {
    throw ModelError("Ctmdp: transition without rate entries");
  }
}

void CtmdpBuilder::begin_transition(StateId from, WordId word) {
  check_current();
  ensure_states(from + 1);
  sources_sorted_ = sources_sorted_ && (sources_.empty() || sources_.back() <= from);
  sources_.push_back(from);
  labels_.push_back(word);
  first_.push_back(entries_.size());
}

void CtmdpBuilder::begin_transition(StateId from, std::string_view action) {
  begin_transition(from, words_->intern_single(actions_->intern(action)));
}

void CtmdpBuilder::add_rate(StateId to, double rate) {
  if (first_.empty()) throw ModelError("Ctmdp: add_rate before begin_transition");
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw ModelError("Ctmdp: rate must be positive and finite");
  }
  ensure_states(to + 1);
  entries_.push_back(SparseEntry{to, rate});
}

Ctmdp CtmdpBuilder::build() {
  check_current();
  if (num_states_ == 0) throw ModelError("Ctmdp: at least one state required");
  if (initial_ >= num_states_) throw ModelError("Ctmdp: initial state out of range");

  const std::size_t num_transitions = sources_.size();
  first_.push_back(entries_.size());
  if (!sources_sorted_) {
    // Group the transitions by source, keeping insertion order within one.
    std::vector<std::uint64_t> order(num_transitions);
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
      return sources_[a] < sources_[b];
    });
    std::vector<StateId> sources;
    std::vector<WordId> labels;
    std::vector<std::uint64_t> first;
    std::vector<SparseEntry> entries;
    sources.reserve(num_transitions);
    labels.reserve(num_transitions);
    first.reserve(num_transitions + 1);
    entries.reserve(entries_.size());
    for (const std::uint64_t t : order) {
      sources.push_back(sources_[t]);
      labels.push_back(labels_[t]);
      first.push_back(entries.size());
      entries.insert(entries.end(), entries_.begin() + static_cast<std::ptrdiff_t>(first_[t]),
                     entries_.begin() + static_cast<std::ptrdiff_t>(first_[t + 1]));
    }
    first.push_back(entries.size());
    sources_ = std::move(sources);
    labels_ = std::move(labels);
    first_ = std::move(first);
    entries_ = std::move(entries);
  }

  Ctmdp c;
  c.actions_ = actions_;
  c.words_ = words_;
  c.initial_ = initial_;
  c.state_row_.assign(num_states_ + 1, 0);
  for (StateId s : sources_) ++c.state_row_[s + 1];
  for (std::size_t s = 0; s < num_states_; ++s) c.state_row_[s + 1] += c.state_row_[s];
  c.exit_.reserve(num_transitions);

  // Sort and merge every rate function in place: the merged entries of
  // transition t never extend past its unmerged range, so first_ becomes
  // the transition row index as it is overwritten.
  std::size_t out = 0;
  for (std::size_t t = 0; t < num_transitions; ++t) {
    const auto begin = entries_.begin() + static_cast<std::ptrdiff_t>(first_[t]);
    const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(first_[t + 1]);
    std::sort(begin, end,
              [](const SparseEntry& a, const SparseEntry& b) { return a.col < b.col; });
    const std::size_t row = out;
    double exit = 0.0;
    for (auto it = begin; it != end; ++it) {
      const SparseEntry e = *it;
      if (out > row && entries_[out - 1].col == e.col) {
        entries_[out - 1].value += e.value;
      } else {
        entries_[out++] = e;
      }
      exit += e.value;
    }
    first_[t] = row;
    c.exit_.push_back(exit);
  }
  first_[num_transitions] = out;
  entries_.resize(out);

  c.source_ = std::move(sources_);
  c.labels_ = std::move(labels_);
  c.trans_row_ = std::move(first_);
  c.entries_ = std::move(entries_);

  num_states_ = 0;
  initial_ = 0;
  sources_.clear();
  labels_.clear();
  first_.clear();
  entries_.clear();
  sources_sorted_ = true;
  return c;
}

}  // namespace unicon
