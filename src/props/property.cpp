#include "props/property.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "ctmdp/unbounded.hpp"
#include "support/errors.hpp"

namespace unicon {

void LabelSet::define(const std::string& name, std::vector<bool> mask) {
  if (mask.size() != num_states_) throw ModelError("LabelSet: mask size mismatch");
  if (name == "true") throw ModelError("LabelSet: 'true' is reserved");
  masks_[name] = std::move(mask);
}

std::vector<bool> LabelSet::mask(const std::string& name) const {
  if (name == "true") return std::vector<bool>(num_states_, true);
  auto it = masks_.find(name);
  if (it == masks_.end()) throw ModelError("LabelSet: unknown label '" + name + "'");
  return it->second;
}

bool LabelSet::contains(const std::string& name) const {
  return name == "true" || masks_.count(name) != 0;
}

// ------------------------------------------------------------- parsing

namespace {

/// A minimal tokenizer: identifiers, quoted identifiers, numbers, and the
/// punctuation of the query syntax.
class Tokens {
 public:
  explicit Tokens(const std::string& text) : text_(text) {}

  std::string next() {
    skip_space();
    if (pos_ >= text_.size()) return "";
    const char c = text_[pos_];
    if (c == '"') {
      const std::size_t end = text_.find('"', pos_ + 1);
      if (end == std::string::npos) throw ParseError("query: unterminated quote");
      std::string token = text_.substr(pos_ + 1, end - pos_ - 1);
      pos_ = end + 1;
      return token.empty() ? std::string("\"\"") : token;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-') {
      std::size_t end = pos_;
      while (end < text_.size()) {
        const char e = text_[end];
        if (std::isalnum(static_cast<unsigned char>(e)) || e == '_' || e == '.' || e == '-') {
          ++end;
        } else {
          break;
        }
      }
      std::string token = text_.substr(pos_, end - pos_);
      pos_ = end;
      return token;
    }
    if (c == '<' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
      pos_ += 2;
      return "<=";
    }
    if (c == '=' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '?') {
      pos_ += 2;
      return "=?";
    }
    ++pos_;
    return std::string(1, c);
  }

  std::string peek() {
    const std::size_t saved = pos_;
    std::string token = next();
    pos_ = saved;
    return token;
  }

  void expect(const std::string& token) {
    const std::string got = next();
    if (got != token) {
      throw ParseError("query: expected '" + token + "', got '" + got + "'");
    }
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  const std::string& text_;
  std::size_t pos_ = 0;
};

double parse_number(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    throw ParseError("query: expected a number, got '" + token + "'");
  }
  return value;
}

bool is_label_token(const std::string& token) {
  return !token.empty() && token != "F" && token != "U" && token != "[" && token != "]";
}

}  // namespace

Query parse_query(const std::string& text) {
  Tokens tokens(text);
  Query q;

  const std::string head = tokens.next();
  bool is_time = false, is_steady = false;
  if (head == "Pmax" || head == "P") {
    q.objective = Objective::Maximize;
  } else if (head == "Pmin") {
    q.objective = Objective::Minimize;
  } else if (head == "Tmax") {
    q.objective = Objective::Maximize;
    is_time = true;
  } else if (head == "Tmin") {
    q.objective = Objective::Minimize;
    is_time = true;
  } else if (head == "S") {
    is_steady = true;
  } else {
    throw ParseError("query: expected Pmax/Pmin/P/Tmax/Tmin/S, got '" + head + "'");
  }
  tokens.expect("=?");
  tokens.expect("[");

  if (is_steady) {
    q.kind = Query::Kind::SteadyState;
    q.goal = tokens.next();
    if (!is_label_token(q.goal)) throw ParseError("query: S=? expects a label");
    tokens.expect("]");
    return q;
  }

  std::string token = tokens.next();
  if (token != "F" && is_label_token(token)) {
    // "left U ... goal" form.
    q.left = token;
    tokens.expect("U");
    token = tokens.next();
  } else if (token == "F") {
    q.left = "true";
    token = tokens.next();
  } else {
    throw ParseError("query: expected 'F' or a label, got '" + token + "'");
  }

  // Optional bound: "<= t" or "[t1,t2]".
  if (token == "<=") {
    q.kind = Query::Kind::ProbBounded;
    q.t1 = 0.0;
    q.t2 = parse_number(tokens.next());
    token = tokens.next();
  } else if (token == "[") {
    q.kind = Query::Kind::ProbInterval;
    q.t1 = parse_number(tokens.next());
    tokens.expect(",");
    q.t2 = parse_number(tokens.next());
    tokens.expect("]");
    token = tokens.next();
  } else {
    q.kind = Query::Kind::ProbUnbounded;
  }

  if (!is_label_token(token)) throw ParseError("query: expected goal label, got '" + token + "'");
  q.goal = token;
  tokens.expect("]");

  if (is_time) {
    if (q.kind != Query::Kind::ProbUnbounded || q.left != "true") {
      throw ParseError("query: T queries support only the form T{max,min}=? [ F goal ]");
    }
    q.kind = Query::Kind::ExpectedTime;
  }
  if (q.kind == Query::Kind::ProbInterval && q.left != "true") {
    throw ParseError("query: interval bounds require the F form");
  }
  return q;
}

// ---------------------------------------------------------- evaluation

namespace {

std::vector<bool> negate(const std::vector<bool>& mask) {
  std::vector<bool> out(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i) out[i] = !mask[i];
  return out;
}

}  // namespace

QueryResult evaluate(const Ctmdp& model, const LabelSet& labels, const Query& query,
                     const EvaluationOptions& options) {
  if (labels.num_states() != model.num_states()) {
    throw ModelError("evaluate: label set size does not match the model");
  }
  const std::vector<bool> goal = labels.mask(query.goal);
  QueryResult result;

  switch (query.kind) {
    case Query::Kind::ProbBounded: {
      TimedReachabilityOptions reach;
      reach.epsilon = options.epsilon;
      reach.objective = query.objective;
      if (query.left != "true") reach.avoid = negate(labels.mask(query.left));
      const auto r = timed_reachability(model, goal, query.t2, reach);
      result.values = r.values;
      result.iterations = r.iterations_executed;
      break;
    }
    case Query::Kind::ProbUnbounded: {
      UnboundedOptions unbounded;
      unbounded.objective = query.objective;
      if (query.left != "true") unbounded.avoid = negate(labels.mask(query.left));
      const auto r = unbounded_reachability(model, goal, unbounded);
      result.values = r.values;
      result.iterations = r.iterations;
      break;
    }
    case Query::Kind::ExpectedTime: {
      UnboundedOptions unbounded;
      unbounded.objective = query.objective;
      const auto r = expected_reachability_time(model, goal, unbounded);
      result.values = r.values;
      result.iterations = r.iterations;
      break;
    }
    case Query::Kind::ProbInterval:
      throw ModelError("evaluate: interval queries require a CTMC (no nondeterminism)");
    case Query::Kind::SteadyState:
      throw ModelError("evaluate: steady-state queries require a CTMC");
  }
  result.value = result.values[model.initial()];
  return result;
}

QueryResult evaluate(const Ctmc& chain, const LabelSet& labels, const Query& query,
                     const EvaluationOptions& options) {
  if (labels.num_states() != chain.num_states()) {
    throw ModelError("evaluate: label set size does not match the model");
  }
  const std::vector<bool> goal = labels.mask(query.goal);
  QueryResult result;

  switch (query.kind) {
    case Query::Kind::ProbBounded: {
      TransientOptions transient;
      transient.epsilon = options.epsilon;
      // left U<=t goal: states outside `left` lose — make them absorbing.
      const Ctmc constrained =
          query.left == "true" ? chain : chain.make_absorbing(negate(labels.mask(query.left)));
      auto r = timed_reachability(constrained, goal, query.t2, transient);
      // Absorbed non-left, non-goal states report their (useless) sticky
      // value 0 already; non-left goal states count as immediate hits,
      // matching the CSL convention.
      result.values = std::move(r.probabilities);
      result.iterations = r.iterations_executed;
      break;
    }
    case Query::Kind::ProbInterval: {
      TransientOptions transient;
      transient.epsilon = options.epsilon;
      auto r = interval_reachability(chain, goal, query.t1, query.t2, transient);
      result.values = std::move(r.probabilities);
      result.iterations = r.iterations_executed;
      break;
    }
    case Query::Kind::ProbUnbounded:
    case Query::Kind::ExpectedTime: {
      // Expected-time analysis runs on uniform models only; uniformization
      // preserves hitting times, so apply it before embedding.
      const Ctmdp embedded = ctmdp_from_ctmc(
          query.kind == Query::Kind::ExpectedTime ? chain.uniformize() : chain);
      LabelSet relabels(embedded.num_states());
      if (query.left != "true") relabels.define(query.left, labels.mask(query.left));
      if (query.goal != "true") relabels.define(query.goal, goal);
      return evaluate(embedded, relabels, query, options);
    }
    case Query::Kind::SteadyState: {
      SteadyStateOptions steady;
      const auto r = steady_state(chain, steady);
      double mass = 0.0;
      for (StateId s = 0; s < chain.num_states(); ++s) {
        if (goal[s]) mass += r.distribution[s];
      }
      result.value = mass;
      result.iterations = r.iterations;
      return result;
    }
  }
  result.value = result.values[chain.initial()];
  return result;
}

QueryResult check(const Ctmdp& model, const LabelSet& labels, const std::string& query,
                  const EvaluationOptions& options) {
  return evaluate(model, labels, parse_query(query), options);
}

QueryResult check(const Ctmc& chain, const LabelSet& labels, const std::string& query,
                  const EvaluationOptions& options) {
  return evaluate(chain, labels, parse_query(query), options);
}

}  // namespace unicon
