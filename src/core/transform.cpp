#include "core/transform.hpp"

#include <algorithm>
#include <optional>

#include "support/errors.hpp"
#include "support/telemetry.hpp"

namespace unicon {

Imc make_alternating(const Imc& m) {
  ImcBuilder b(m.action_table());
  for (StateId s = 0; s < m.num_states(); ++s) b.add_state(m.state_name(s));
  b.set_initial(m.initial());
  for (const LtsTransition& t : m.interactive_transitions()) {
    b.add_interactive(t.from, t.action, t.to);
  }
  for (const MarkovTransition& t : m.markov_transitions()) {
    // Urgency: any interactive transition preempts the delays of a hybrid
    // state, so its Markov transitions are cut.
    if (!m.has_interactive(t.from)) b.add_markov(t.from, t.rate, t.to);
  }
  return b.build();
}

Imc make_markov_alternating(const Imc& m) {
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (m.kind(s) == StateKind::Hybrid) {
      throw ModelError("make_markov_alternating: input has hybrid states; run step (1) first");
    }
  }

  ImcBuilder b(m.action_table());
  for (StateId s = 0; s < m.num_states(); ++s) b.add_state(m.state_name(s));
  b.set_initial(m.initial());
  for (const LtsTransition& t : m.interactive_transitions()) {
    b.add_interactive(t.from, t.action, t.to);
  }

  // Break every Markov->Markov sequence with a fresh interactive state;
  // parallel edges (s, s') share one.  The Markov transitions are sorted by
  // (from, to), so a repeated pair is always the previous one.
  StateId last_from = kNoState, last_to = kNoState, fresh = kNoState;
  for (const MarkovTransition& t : m.markov_transitions()) {
    if (m.kind(t.to) != StateKind::Markov) {
      b.add_markov(t.from, t.rate, t.to);
      continue;
    }
    if (t.from != last_from || t.to != last_to) {
      fresh = b.add_state();
      b.add_interactive(fresh, kTau, t.to);
      last_from = t.from;
      last_to = t.to;
    }
    b.add_markov(t.from, t.rate, fresh);
  }
  return b.build();
}

namespace {

/// Open-addressing map (node, action) -> child node of the word trie.
class TrieChildren {
 public:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  std::uint32_t find(std::uint32_t node, Action action) const {
    if (keys_.empty()) return kNone;
    const std::uint64_t key = pack(node, action);
    for (std::size_t i = slot(key);; i = (i + 1) & (keys_.size() - 1)) {
      if (keys_[i] == key) return values_[i];
      if (keys_[i] == kEmpty) return kNone;
    }
  }

  void insert(std::uint32_t node, Action action, std::uint32_t child) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    place(pack(node, action), child);
    ++size_;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;

  static std::uint64_t pack(std::uint32_t node, Action action) {
    return (static_cast<std::uint64_t>(node) << 32) | action;
  }
  std::size_t slot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & (keys_.size() - 1);
  }
  void place(std::uint64_t key, std::uint32_t value) {
    std::size_t i = slot(key);
    while (keys_[i] != kEmpty) i = (i + 1) & (keys_.size() - 1);
    keys_[i] = key;
    values_[i] = value;
  }
  void grow() {
    std::vector<std::uint64_t> keys = std::move(keys_);
    std::vector<std::uint32_t> values = std::move(values_);
    keys_.assign(std::max<std::size_t>(64, 2 * keys.size()), kEmpty);
    values_.assign(keys_.size(), 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] != kEmpty) place(keys[i], values[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t size_ = 0;
};

}  // namespace

TransformResult transform_to_ctmdp(const Imc& m, const BitVector* goal,
                                   RunGuard* guard, Telemetry* telemetry) {
  if (goal != nullptr && goal->size() != m.num_states()) {
    throw ModelError("transform_to_ctmdp: goal vector size mismatch");
  }
  Stopwatch timer;
  std::optional<Telemetry::Span> span;
  Histogram* word_lengths = nullptr;
  if (telemetry != nullptr) {
    span.emplace(telemetry->span("transform"));
    word_lengths = &telemetry->histogram("transform.word_length");
  }

  const std::size_t n = m.num_states();

  // --- Step (1) as a predicate -------------------------------------------
  // Urgency cuts the Markov transitions of hybrid states: a state with an
  // interactive transition is interactive, otherwise it is Markov if it
  // has a Markov transition and absorbing if not.
  auto is_markov = [&](StateId s) { return !m.has_interactive(s) && m.has_markov(s); };
  auto original_goal = [&](StateId s) { return goal != nullptr && (*goal)[s]; };

  // --- Step (2) as a numbering -------------------------------------------
  // The fresh state (s, s') splitting a Markov->Markov edge gets id
  // n + (rank of the distinct edge (s, s') in the sorted Markov relation),
  // the id make_markov_alternating gives it.  pair_first[s] is the rank of
  // the first such edge of s.
  std::uint64_t markov_cut = 0;
  std::vector<StateId> pair_first(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    StateId pairs = 0;
    if (m.has_interactive(s)) {
      markov_cut += m.out_markov(s).size();
    } else {
      StateId last = kNoState;
      for (const MarkovTransition& t : m.out_markov(s)) {
        if (is_markov(t.to) && t.to != last) {
          ++pairs;
          last = t.to;
        }
      }
    }
    pair_first[s + 1] = pair_first[s] + pairs;
  }
  const std::size_t num_pairs = pair_first[n];

  // --- Zero-time closure bookkeeping over the interactive states ---------
  // For every interactive state v (memoized):
  //   exists_hit(v): some zero-time resolution from v hits the goal set.
  //   all_hit(v):    every zero-time resolution from v hits it.
  // A back edge during this DFS is a cycle of interactive transitions,
  // i.e. Zeno behaviour; an interactive successor without any transitions
  // is a zero-time deadlock.  Both are rejected (Sec. 4.1).  A pair state
  // (s, s') has the single successor s', so its flags are goal(s').
  enum class Color : std::uint8_t { White, Grey, Black };
  std::vector<Color> color(n, Color::White);
  BitVector exists_hit(n, false), all_hit(n, false);

  auto successor_hits = [&](StateId w, bool& ex, bool& all) {
    // Contribution of successor w (any kind) to its predecessor's flags.
    if (m.has_interactive(w)) {
      ex = exists_hit[w];
      all = all_hit[w];
    } else if (m.has_markov(w)) {
      ex = all = original_goal(w);
    } else {
      throw ModelError("transform_to_ctmdp: zero-time deadlock (absorbing interactive path)");
    }
  };

  struct Frame {
    StateId v;
    std::size_t edge = 0;
  };
  std::vector<Frame> stack;
  auto closure_dfs = [&](StateId root) {
    if (color[root] != Color::White) return;
    stack.assign(1, Frame{root});
    color[root] = Color::Grey;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto ts = m.out_interactive(f.v);
      if (f.edge < ts.size()) {
        const StateId w = ts[f.edge++].to;
        if (!m.has_interactive(w)) continue;  // Markov/absorbing handled at fold time
        if (color[w] == Color::Grey) {
          throw ZenoError("transform_to_ctmdp: cycle of interactive transitions (Zeno behaviour)");
        }
        if (color[w] == Color::White) {
          color[w] = Color::Grey;
          stack.push_back(Frame{w});
        }
        continue;
      }
      // Fold successors.
      bool ex = original_goal(f.v);
      bool all = ts.empty() ? original_goal(f.v) : true;
      for (const LtsTransition& t : ts) {
        bool sex = false, sall = false;
        successor_hits(t.to, sex, sall);
        ex = ex || sex;
        all = all && sall;
      }
      all = all || original_goal(f.v);
      exists_hit[f.v] = ex;
      all_hit[f.v] = all;
      color[f.v] = Color::Black;
      stack.pop_back();
    }
  };

  // --- Step (3): word closure and CTMDP interpretation -------------------
  CtmdpBuilder builder(m.action_table(), nullptr);
  const WordId tau_word = builder.word_table()->intern_single(kTau);

  TransformResult result;
  TransformStats& stats = result.stats;

  // CTMDP states are the interactive states (ids < n) and the pair states
  // (ids >= n), numbered in FIFO discovery order.
  std::vector<StateId> ctmdp_id(n + num_pairs, kNoState);
  std::vector<StateId> worklist;
  std::size_t worklist_head = 0;
  auto intern_entry = [&](StateId v, StateId origin) -> StateId {
    if (ctmdp_id[v] != kNoState) return ctmdp_id[v];
    const StateId id = builder.add_state();
    ctmdp_id[v] = id;
    worklist.push_back(v);
    // Sojourn-wise origin: pair states live in the Markov state they lead
    // into.
    result.origin_of.push_back(origin);
    bool ex = original_goal(origin), all = ex;
    if (v < n) {
      closure_dfs(v);  // also detects Zeno cycles and zero-time deadlocks
      ex = exists_hit[v];
      all = all_hit[v];
    }
    if (goal != nullptr) {
      result.goal.push_back(ex);
      result.goal_universal.push_back(all);
    }
    return id;
  };

  // Entry point: the initial state, prefixed by a fresh tau word when it is
  // not interactive.
  const StateId init = m.initial();
  StateId ctmdp_initial;
  bool initial_is_markov = false;
  if (m.has_interactive(init)) {
    ctmdp_initial = intern_entry(init, init);
  } else if (m.has_markov(init)) {
    // Fresh interactive pre-initial state with a single tau-word transition
    // whose rate function is the initial Markov state's.
    initial_is_markov = true;
    ctmdp_initial = builder.add_state();
    result.origin_of.push_back(init);
    if (goal != nullptr) {
      result.goal.push_back(original_goal(init));
      result.goal_universal.push_back(original_goal(init));
    }
  } else {
    throw ModelError("transform_to_ctmdp: initial state is absorbing");
  }
  builder.set_initial(ctmdp_initial);

  // Rate rows of the Markov states, mapped to CTMDP ids once, at first
  // use; interning their targets discovers new entries.  The row order is
  // the one of the split Markov relation: targets that stay (interactive or
  // absorbing) first, then the pair states in rank order.
  constexpr std::uint64_t kNoRow = ~0ull;
  std::vector<std::uint64_t> row_of(n, kNoRow);
  std::vector<SparseEntry> rows;
  auto map_row = [&](StateId markov_state) {
    if (row_of[markov_state] != kNoRow) return;
    const auto out = m.out_markov(markov_state);
    row_of[markov_state] = rows.size();
    for (const MarkovTransition& t : out) {
      if (!is_markov(t.to)) rows.push_back(SparseEntry{intern_entry(t.to, t.to), t.rate});
    }
    StateId pair = static_cast<StateId>(n + pair_first[markov_state]) - 1, last = kNoState;
    for (const MarkovTransition& t : out) {
      if (!is_markov(t.to)) continue;
      if (t.to != last) {
        ++pair;
        last = t.to;
      }
      rows.push_back(SparseEntry{intern_entry(pair, t.to), t.rate});
    }
    ++stats.markov_states;
    stats.markov_transitions += out.size();
  };

  // The CTMDP transitions (source, word, Markov state) in emission order.
  // Their rate entries go to the builder at the end, when the total is
  // known and the builder's arrays can be allocated once.
  struct Edge {
    StateId from;
    WordId label;
    StateId markov_state;
  };
  std::vector<Edge> edges;
  std::size_t num_entries = 0;
  auto emit = [&](StateId from, WordId label, StateId markov_state) {
    map_row(markov_state);
    edges.push_back(Edge{from, label, markov_state});
    num_entries += m.out_markov(markov_state).size();
  };

  if (initial_is_markov) emit(ctmdp_initial, tau_word, init);

  // Per-entry BFS over the zero-time interactive closure.  Words grow in a
  // trie (node 0 = the empty word) and are interned into the word table at
  // their first emission, so word ids follow first-emission order.
  struct TrieNode {
    std::uint32_t parent;
    Action action;
    std::uint32_t depth;
    WordId word;
  };
  constexpr WordId kNoWord = static_cast<WordId>(-1);
  std::vector<TrieNode> trie{TrieNode{0, kTau, 0, tau_word}};
  TrieChildren children;
  std::vector<Action> word;
  auto word_of = [&](std::uint32_t node) {
    if (trie[node].word == kNoWord) {
      word.resize(trie[node].depth);
      for (std::uint32_t v = node; v != 0; v = trie[v].parent) {
        word[trie[v].depth - 1] = trie[v].action;
      }
      trie[node].word = builder.intern_word(word);
    }
    return trie[node].word;
  };
  auto extend = [&](std::uint32_t node, Action action) {
    if (action == kTau) return node;
    std::uint32_t child = children.find(node, action);
    if (child == TrieChildren::kNone) {
      child = static_cast<std::uint32_t>(trie.size());
      trie.push_back(TrieNode{node, action, trie[node].depth + 1, kNoWord});
      children.insert(node, action, child);
    }
    return child;
  };

  // Epoch stamps: visited[v] == epoch iff v was queued for the current
  // entry; linked[s] == epoch iff Markov state s is already a target of it.
  std::vector<std::uint32_t> visited(n, 0), linked(n, 0);
  std::uint32_t epoch = 0;
  struct QueueItem {
    StateId state;
    std::uint32_t node;  // trie node of the visible actions so far
  };
  std::vector<QueueItem> queue;

  while (worklist_head < worklist.size()) {
    if (guard != nullptr) guard->check("transform");
    const StateId entry = worklist[worklist_head++];
    const StateId from = ctmdp_id[entry];

    if (entry >= n) {
      // A pair state's only transition is (tau, R(s')).
      const StateId target = result.origin_of[from];
      if (word_lengths != nullptr) word_lengths->observe(0);
      emit(from, tau_word, target);
      continue;
    }

    ++epoch;
    queue.clear();
    visited[entry] = epoch;
    queue.push_back(QueueItem{entry, 0});

    for (std::size_t head = 0; head < queue.size(); ++head) {
      const QueueItem item = queue[head];
      for (const LtsTransition& t : m.out_interactive(item.state)) {
        if (m.has_interactive(t.to)) {
          if (visited[t.to] != epoch) {
            visited[t.to] = epoch;
            queue.push_back(QueueItem{t.to, extend(item.node, t.action)});
          }
          continue;
        }
        if (!m.has_markov(t.to)) {
          throw ModelError("transform_to_ctmdp: zero-time deadlock (absorbing interactive path)");
        }
        // Maximal interactive sequence ends: emit one CTMDP transition per
        // (entry, Markov target) pair.
        if (linked[t.to] == epoch) {
          ++stats.words_deduplicated;
          continue;
        }
        linked[t.to] = epoch;
        const std::uint32_t node = extend(item.node, t.action);
        const WordId label = word_of(node);
        if (word_lengths != nullptr) word_lengths->observe(trie[node].depth);
        emit(from, label, t.to);
      }
    }
  }

  builder.reserve(edges.size(), num_entries);
  for (const Edge& e : edges) {
    builder.begin_transition(e.from, e.label);
    const std::size_t first = row_of[e.markov_state];
    const std::size_t last = first + m.out_markov(e.markov_state).size();
    for (std::size_t i = first; i < last; ++i) builder.add_rate(rows[i].col, rows[i].value);
  }
  stats.interactive_transitions = edges.size();
  result.ctmdp = builder.build();
  stats.interactive_states = result.ctmdp.num_states();
  // Strictly alternating storage estimate: interactive word edges
  // (source, word, target) and Markov rate edges (source, rate, target).
  stats.memory_bytes = stats.interactive_transitions * (3 * sizeof(std::uint32_t)) +
                       stats.markov_transitions * (2 * sizeof(std::uint32_t) + sizeof(double)) +
                       (stats.interactive_states + stats.markov_states) * sizeof(std::uint64_t);
  stats.seconds = timer.seconds();
  if (span) {
    span->metric("input_states", m.num_states());
    span->metric("interactive_states", stats.interactive_states);
    span->metric("markov_states", stats.markov_states);
    span->metric("interactive_transitions", stats.interactive_transitions);
    span->metric("markov_transitions", stats.markov_transitions);
    span->metric("words_deduplicated", stats.words_deduplicated);
    span->metric("markov_transitions_cut", markov_cut);
    span->metric("pair_states_added", num_pairs);
    span->metric("memory_bytes", stats.memory_bytes);
  }
  return result;
}

}  // namespace unicon
