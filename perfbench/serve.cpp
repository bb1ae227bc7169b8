// The serve-mixed workload: an in-process AnalysisService with the
// unicon_serve defaults (two workers), driven by kClients virtual clients
// in a closed loop.  Each client sends its next request only when the
// previous one was answered; all clients are multiplexed on the benchmark
// thread through the service's completion callbacks.
//
// The request stream is generated from the seed over the shipped example
// models (examples/models/*.uni, examples/dft/*.dft):
//
//  - kHitShare byte-identical resubmissions of a base model (source-key
//    cache hits; the hot set is warmed during set-up);
//  - kRespellShare respellings (a fresh comment line), which go through
//    full lowering and then hit the canonical-key dedup;
//  - the rest rate edits (one rate literal scaled by a seeded factor):
//    true misses that lower, transform and build kernels, and evict under
//    kCacheBudget.
//
// Each request asks for 1-4 horizons of its model, with the maximal or
// minimal objective.  After the timed phase every answer is checked
// against a direct pipeline solve of the same model.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/transform.hpp"
#include "ctmdp/reachability.hpp"
#include "dft/lower.hpp"
#include "dft/sema.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "server/service.hpp"
#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

using namespace unicon;
using server::ModelKind;

namespace {

constexpr std::size_t kClients = 4;
constexpr unsigned kWorkers = 2;  // the unicon_serve default
constexpr double kHitShare = 0.80;
constexpr double kRespellShare = 0.12;
/// Holds the warmed hot set (0.9 MB with both objectives' kernels) plus a
/// few edited models, so edits evict.
constexpr std::uint64_t kCacheBudget = 2u << 20;
/// A run answers at least this many requests, so its 99th percentile has
/// at least ten samples beyond it.
constexpr std::size_t kMinRequests = 1000;
/// Latency figures come from windows of this many consecutive requests
/// (worst_window): long enough that a window's 99th percentile rests on
/// 40 samples; a 20-second run holds one or two windows.
constexpr std::size_t kWindow = 4000;

struct BaseModel {
  const char* file;
  ModelKind kind;
  std::vector<double> horizons;
  std::string text;
  /// [begin, end) offsets of the rate literals an edit may scale.
  std::vector<std::pair<std::size_t, std::size_t>> rates;
};

std::vector<BaseModel> base_models() {
  const std::vector<double> short_horizons = {0.5, 1.0, 2.0, 4.0};
  return {
      {"examples/models/quickstart.uni", ModelKind::Uni, {24.0, 48.0, 96.0, 168.0}, {}, {}},
      {"examples/models/erlang_job_shop.uni", ModelKind::Uni, short_horizons, {}, {}},
      {"examples/models/ftwc.uni", ModelKind::Uni, {10.0, 50.0, 100.0, 200.0}, {}, {}},
      {"examples/dft/and2.dft", ModelKind::Dft, short_horizons, {}, {}},
      {"examples/dft/vot23.dft", ModelKind::Dft, short_horizons, {}, {}},
      {"examples/dft/pand.dft", ModelKind::Dft, short_horizons, {}, {}},
      {"examples/dft/spare_cold.dft", ModelKind::Dft, short_horizons, {}, {}},
      {"examples/dft/spare_warm.dft", ModelKind::Dft, short_horizons, {}, {}},
      {"examples/dft/fdep_pand.dft", ModelKind::Dft, short_horizons, {}, {}},
      {"examples/dft/cas.dft", ModelKind::Dft, short_horizons, {}, {}},
  };
}

/// Offsets of the numbers following each @p prefix, up to @p stop.
void find_literals(const std::string& text, const std::string& prefix, const char* stop,
                   std::vector<std::pair<std::size_t, std::size_t>>& out) {
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    std::size_t begin = at + prefix.size();
    if (prefix == "erlang(") begin = text.find(',', begin) + 1;
    while (text[begin] == ' ') ++begin;
    const std::size_t end = text.find_first_of(stop, begin);
    out.emplace_back(begin, end);
  }
}

void load_models(const std::string& root, std::vector<BaseModel>& models) {
  for (BaseModel& m : models) {
    m.text = read_file(root + "/" + m.file);
    if (m.kind == ModelKind::Uni) {
      find_literals(m.text, "exponential(", ")", m.rates);
      find_literals(m.text, "erlang(", ")", m.rates);
    } else {
      find_literals(m.text, "lambda=", " \t\r\n;", m.rates);
    }
    if (m.rates.empty()) throw std::runtime_error(std::string("no rate literal in ") + m.file);
  }
}

/// splitmix64: a small, portable generator, so a seed names the same
/// stream on every platform.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

enum class Variant { Original, Respelled, Edited };

/// A generated request.  The model text is rendered on demand
/// (source_of), so a request stays small while it is tracked.
struct RequestSpec {
  std::size_t model = 0;
  Variant variant = Variant::Original;
  std::uint64_t respell_token = 0;  ///< Respelled: the comment's token
  std::size_t edit_literal = 0;     ///< Edited: index into BaseModel::rates
  std::string edit_value;           ///< Edited: the replacement literal
  Objective objective = Objective::Maximize;
  std::vector<double> times;
};

std::string source_of(const RequestSpec& spec, const BaseModel& m) {
  switch (spec.variant) {
    case Variant::Original:
      return m.text;
    case Variant::Respelled:
      return "// respelled " + std::to_string(spec.respell_token) + "\n" + m.text + "\n";
    case Variant::Edited: {
      const auto [begin, end] = m.rates[spec.edit_literal];
      return m.text.substr(0, begin) + spec.edit_value + m.text.substr(end);
    }
  }
  return m.text;
}

/// One client's seeded request sequence.
class Stream {
 public:
  Stream(std::uint64_t seed, std::size_t client, const std::vector<BaseModel>& models)
      : rng_{seed * 0x9E3779B97F4A7C15ull + client + 1}, models_(models) {}

  RequestSpec next() {
    RequestSpec r;
    r.model = rng_.below(models_.size());
    const BaseModel& m = models_[r.model];
    const double u = rng_.uniform();
    if (u >= kHitShare + kRespellShare) {
      r.variant = Variant::Edited;
      r.edit_literal = rng_.below(m.rates.size());
      const auto [begin, end] = m.rates[r.edit_literal];
      const double old_rate = std::stod(m.text.substr(begin, end - begin));
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.9g", old_rate * (0.5 + 1.5 * rng_.uniform()));
      r.edit_value = buf;
    } else if (u >= kHitShare) {
      r.variant = Variant::Respelled;
      r.respell_token = rng_.next();
    }
    r.objective = rng_.below(2) == 0 ? Objective::Maximize : Objective::Minimize;
    std::vector<double> pool = m.horizons;
    const std::size_t count = 1 + rng_.below(pool.size());
    for (std::size_t i = 0; i < count; ++i) {
      std::swap(pool[i], pool[i + rng_.below(pool.size() - i)]);
      r.times.push_back(pool[i]);
    }
    return r;
  }

 private:
  Rng rng_;
  const std::vector<BaseModel>& models_;
};

server::QueryRequest to_request(const RequestSpec& spec, const BaseModel& model,
                                std::size_t client, std::uint64_t serial) {
  server::QueryRequest q;
  q.client = "c" + std::to_string(client);
  q.id = std::to_string(serial);
  q.kind = model.kind;
  q.source = source_of(spec, model);
  q.times = spec.times;
  q.objective = spec.objective;
  return q;
}

/// The verification key of a request's model: originals and respellings
/// share their base model, every edit is a model of its own.
std::string model_key(const RequestSpec& spec) {
  std::string key = "base:" + std::to_string(spec.model);
  if (spec.variant == Variant::Edited) {
    key += " edit:" + std::to_string(spec.edit_literal) + "=" + spec.edit_value;
  }
  return key;
}

/// What the post-run check needs from the answers, folded in as they
/// complete so the harness's memory does not grow with the request count
/// (it would show in peak_rss_mb): per model and (objective, time), each
/// distinct (value, residual bound) the server answered and how often.
/// The solver is deterministic, so a key normally holds one entry.
/// Every horizon answer is one attempted answer.
struct Ledger {
  struct Seen {
    double value = 0.0;
    double bound = 0.0;
    std::uint64_t answers = 0;
  };
  struct Model {
    RequestSpec spec;  ///< renders the model's source (times unused)
    std::map<std::pair<Objective, double>, std::vector<Seen>> seen;
  };
  static constexpr std::size_t kMaxErrorLines = 20;

  std::map<std::string, Model> models;
  std::uint64_t answers = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::uint64_t count, const std::string& what) {
    failed += count;
    if (errors.size() < kMaxErrorLines) errors.push_back(what);
  }

  void add(const RequestSpec& spec, const server::QueryResponse& r) {
    answers += spec.times.size();
    if (r.error != ErrorCode::Ok) {
      fail(spec.times.size(),
           "request " + r.id + ": " + error_code_name(r.error) + " " + r.message);
      return;
    }
    if (r.results.size() != spec.times.size()) {
      fail(spec.times.size(), "request " + r.id + ": wrong number of horizon answers");
      return;
    }
    Model& model = models[model_key(spec)];
    if (model.seen.empty()) model.spec = spec;
    for (std::size_t j = 0; j < r.results.size(); ++j) {
      const server::HorizonAnswer& h = r.results[j];
      if (h.time != spec.times[j] || h.status != RunStatus::Converged) {
        fail(1, "request " + r.id + ": horizon " + std::to_string(spec.times[j]) +
                    " not answered or not converged");
        continue;
      }
      std::vector<Seen>& seen = model.seen[{spec.objective, h.time}];
      auto it = std::find_if(seen.begin(), seen.end(), [&](const Seen& x) {
        return x.value == h.value && x.bound == h.residual_bound;
      });
      if (it == seen.end()) it = seen.insert(seen.end(), Seen{h.value, h.residual_bound, 0});
      ++it->answers;
    }
  }
};

struct ServePhase : Phase {
  std::vector<double> exec;  ///< traced only: serve.query span seconds
};

/// Seconds of the request's serve.query span, read from its telemetry.
double serve_query_seconds(const Telemetry& telemetry) {
  const Json doc = Json::parse(telemetry.to_json());
  for (const Json& span : doc.find("spans")->as_array()) {
    if (span.get_string("name", "") == "serve.query") return span.get_number("seconds", 0.0);
  }
  throw std::runtime_error("request telemetry has no serve.query span");
}

/// The closed loop: every client keeps one request in flight until the
/// phase has run @p seconds and answered at least kMinRequests.
ServePhase closed_loop(server::AnalysisService& service, std::vector<Stream>& streams,
                        const std::vector<BaseModel>& models, double seconds, Tracer& tracer,
                        std::uint64_t& serial, Ledger& ledger) {
  struct Completion {
    std::size_t client;
    server::QueryResponse response;
    double at;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Completion> done;

  struct InFlight {
    RequestSpec spec;
    double sent = 0.0;
    std::string id;
    std::unique_ptr<Telemetry> telemetry;
  };
  std::vector<InFlight> slots(streams.size());

  auto send = [&](std::size_t client) {
    InFlight& slot = slots[client];
    slot.spec = streams[client].next();
    server::QueryRequest request = to_request(slot.spec, models[slot.spec.model], client, serial++);
    slot.id = request.id;
    if (tracer.enabled()) {
      slot.telemetry = std::make_unique<Telemetry>();
      request.telemetry = slot.telemetry.get();
    }
    slot.sent = tracer.now();
    service.submit(std::move(request), [&, client](server::QueryResponse response) {
      const double at = tracer.now();
      std::lock_guard<std::mutex> lock(mutex);
      done.push_back({client, std::move(response), at});
      ready.notify_one();
    });
  };

  ServePhase phase;
  phase.start = tracer.now();
  for (std::size_t c = 0; c < streams.size(); ++c) send(c);
  std::size_t in_flight = streams.size();
  while (in_flight > 0) {
    Completion completion;
    {
      std::unique_lock<std::mutex> lock(mutex);
      ready.wait(lock, [&] { return !done.empty(); });
      completion = std::move(done.front());
      done.pop_front();
    }
    InFlight& slot = slots[completion.client];
    phase.latencies.push_back(completion.at - slot.sent);
    phase.finished.push_back(completion.at);
    if (slot.telemetry != nullptr) {
      const double exec = serve_query_seconds(*slot.telemetry);
      phase.exec.push_back(exec);
      const int parent = tracer.record("serve.request", slot.sent, completion.at,
                                       Tracer::kNoParent, slot.id);
      tracer.record("serve.query", completion.at - exec, completion.at, parent, slot.id);
    }
    ledger.add(slot.spec, completion.response);
    if (tracer.now() - phase.start < seconds || phase.latencies.size() < kMinRequests) {
      send(completion.client);
    } else {
      --in_flight;
    }
  }
  return phase;
}

/// Hot-set warm-up: every base model's original text, both objectives,
/// all horizons, answered synchronously.
void warm(server::AnalysisService& service, const std::vector<BaseModel>& models) {
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (Objective objective : {Objective::Maximize, Objective::Minimize}) {
      RequestSpec spec;
      spec.model = m;
      spec.objective = objective;
      spec.times = models[m].horizons;
      const server::QueryResponse r = service.query(to_request(spec, models[m], 0, 0));
      if (r.error != ErrorCode::Ok) {
        throw std::runtime_error(std::string("warm-up failed on ") + models[m].file + ": " +
                                 r.message);
      }
    }
  }
}

/// Cache misses of a fixed, seeded request sequence: the first
/// kReplayRequests requests of client 0's stream, answered one at a time
/// by a freshly warmed service.  Unlike the timed phase (whose length and
/// interleaving depend on timing), this count must repeat exactly for a
/// seed.  The replayed answers are checked too.
constexpr std::size_t kReplayRequests = 200;

std::uint64_t replay_misses(const std::vector<BaseModel>& models,
                            const server::ServiceOptions& options, std::uint64_t seed,
                            Ledger& ledger) {
  server::AnalysisService service(options);
  warm(service, models);
  const std::uint64_t before = service.stats().cache.misses;
  Stream stream(seed, 0, models);
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const RequestSpec spec = stream.next();
    server::QueryResponse response =
        service.query(to_request(spec, models[spec.model], 0, i + 1));
    response.id = "replay-" + response.id;
    ledger.add(spec, response);
  }
  return service.stats().cache.misses - before;
}

/// A model lowered by the direct pipeline (the server's lowering stages,
/// called one by one through the public frontends).
struct Lowered {
  Ctmdp ctmdp;
  BitVector goal;
  BitVector goal_universal;
};

struct FrontendCounts {
  std::uint64_t states_in = 0;
  std::uint64_t states_out = 0;
};

Lowered lower_direct(ModelKind kind, const std::string& source, Tracer& tracer,
                     FrontendCounts& counts) {
  std::optional<lang::BuiltModel> built;
  if (kind == ModelKind::Uni) {
    std::optional<lang::Model> ast;
    {
      auto span = tracer.span("lang.parse");
      ast.emplace(lang::parse_and_check(source, "<stream>"));
    }
    auto span = tracer.span("lang.build");
    built.emplace(lang::build_model(*ast));
  } else {
    std::optional<dft::CheckedDft> checked;
    {
      auto span = tracer.span("dft.parse");
      checked.emplace(dft::parse_and_check_dft(source, "<stream>"));
    }
    auto span = tracer.span("dft.lower");
    built.emplace(dft::lower_dft(*checked));
  }
  counts.states_in += built->system.num_states();
  {
    auto span = tracer.span("bisim.minimize");
    built.emplace(lang::minimize_model(*built));
  }
  counts.states_out += built->system.num_states();
  const BitVector goal = built->mask(kind == ModelKind::Uni ? "goal" : "failed");
  TransformResult t = transform_to_ctmdp(built->system, &goal);
  return {std::move(t.ctmdp), std::move(t.goal), std::move(t.goal_universal)};
}

/// Checks every answer in @p ledger against a direct solve of its model.
/// Every base model is lowered, with @p tracer (the frontend layer
/// metrics); edited models untraced.
void verify(const std::vector<BaseModel>& models, const Ledger& ledger, Tracer& tracer,
            FrontendCounts& counts, Outcome& out) {
  out.attempted += ledger.answers;
  out.failed += ledger.failed;
  out.errors.insert(out.errors.end(), ledger.errors.begin(), ledger.errors.end());

  std::map<std::string, Ledger::Model> all = ledger.models;
  for (std::size_t m = 0; m < models.size(); ++m) {
    RequestSpec base;
    base.model = m;
    all.try_emplace(model_key(base), Ledger::Model{base, {}});
  }
  Tracer off(false);
  FrontendCounts uncounted;
  for (const auto& [key, model] : all) {
    const bool base = model.spec.variant != Variant::Edited;
    const BaseModel& m = models[model.spec.model];
    const Lowered lowered = lower_direct(m.kind, source_of(model.spec, m), base ? tracer : off,
                                         base ? counts : uncounted);
    std::map<Objective, std::vector<double>> times;
    for (const auto& [at, seen] : model.seen) times[at.first].push_back(at.second);
    for (const auto& [objective, horizon] : times) {
      TimedReachabilityOptions options;
      options.objective = objective;
      options.threads = 1;
      const BitVector& goal =
          objective == Objective::Minimize ? lowered.goal_universal : lowered.goal;
      const auto results = timed_reachability_batch(lowered.ctmdp, goal, horizon, options);
      for (std::size_t j = 0; j < horizon.size(); ++j) {
        const double want = results[j].values[lowered.ctmdp.initial()];
        const double want_bound = results[j].residual_bound;
        for (const Ledger::Seen& got : model.seen.at({objective, horizon[j]})) {
          if (std::fabs(got.value - want) > got.bound + want_bound) {
            char buf[256];
            std::snprintf(buf, sizeof buf, "%s (%s) t=%g: served %.17g, direct solve %.17g",
                          m.file, key.c_str(), horizon[j], got.value, want);
            out.failed += got.answers;
            out.errors.push_back(buf);
          }
        }
      }
    }
  }
}

}  // namespace

void run_serve_mixed(const RunConfig& config, Outcome& out) {
  std::vector<BaseModel> models = base_models();
  load_models(config.root, models);

  server::ServiceOptions options;
  options.workers = kWorkers;
  options.cache_budget = kCacheBudget;

  // Set-up: construct a service and warm the hot set.  The last set-up
  // before the timed phase serves it; the ones after only measure.
  std::unique_ptr<server::AnalysisService> service;
  std::vector<double> setup_times;
  auto setup = [&](int times) {
    Tracer clock(false);
    for (int i = 0; i < times; ++i) {
      const double start = clock.now();
      service.reset();
      service = std::make_unique<server::AnalysisService>(options);
      warm(*service, models);
      setup_times.push_back(clock.now() - start);
    }
  };
  setup(kSetupBefore);

  std::vector<Stream> streams;
  for (std::size_t c = 0; c < kClients; ++c) streams.emplace_back(config.seed, c, models);
  std::uint64_t serial = 1;
  Ledger ledger;

  const server::ServiceStats before = service->stats();
  Tracer tracer(config.trace);
  const ServePhase phase =
      closed_loop(*service, streams, models, config.seconds, tracer, serial, ledger);
  const server::ServiceStats after = service->stats();
  out.peak_rss_mb = peak_rss_mb();
  const std::uint64_t misses = after.cache.misses - before.cache.misses;

  if (!config.trace) {
    setup(kSetupAfter);
    service.reset();
    out.counts.push_back(
        {"server.replay_cache_misses", replay_misses(models, options, config.seed, ledger)});
    FrontendCounts counts;
    verify(models, ledger, tracer, counts, out);
    out.metrics.push_back({"setup_s", median(setup_times), "s"});
    add_latency_metrics(out, phase, kWindow);
    return;
  }

  std::vector<double> queue_wait_ms;
  std::vector<double> exec_ms;
  for (std::size_t i = 0; i < phase.latencies.size(); ++i) {
    exec_ms.push_back(1e3 * phase.exec[i]);
    queue_wait_ms.push_back(1e3 * (phase.latencies[i] - phase.exec[i]));
  }
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  const double hits = delta(after.cache.source_hits, before.cache.source_hits) +
                      delta(after.cache.canonical_hits, before.cache.canonical_hits);
  out.metrics.push_back({"server.queue_wait_ms.p50", median(queue_wait_ms), "ms"});
  out.metrics.push_back({"server.queue_wait_ms.p99", percentile(queue_wait_ms, 0.99), "ms"});
  out.metrics.push_back({"server.exec_ms.p50", median(exec_ms), "ms"});
  out.metrics.push_back({"server.exec_ms.p99", percentile(exec_ms, 0.99), "ms"});
  out.metrics.push_back({"server.batches", delta(after.batches, before.batches), "count"});
  out.metrics.push_back({"server.coalesced", delta(after.coalesced, before.coalesced), "count"});
  out.metrics.push_back({"server.rejected", delta(after.rejected, before.rejected), "count"});
  out.metrics.push_back({"server.cache.source_hits",
                         delta(after.cache.source_hits, before.cache.source_hits), "count"});
  out.metrics.push_back({"server.cache.canonical_hits",
                         delta(after.cache.canonical_hits, before.cache.canonical_hits), "count"});
  out.metrics.push_back({"server.cache.misses", static_cast<double>(misses), "count"});
  out.metrics.push_back(
      {"server.cache.evictions", delta(after.cache.evictions, before.cache.evictions), "count"});
  out.metrics.push_back({"server.cache.hit_ratio", hits / (hits + static_cast<double>(misses)),
                         "ratio"});
  out.metrics.push_back(
      {"trace.coverage_ratio",
       (tracer.total("serve.request") - tracer.self("serve.request")) /
           tracer.total("serve.request"),
       "ratio"});

  Tracer off(false);
  const ServePhase untraced =
      closed_loop(*service, streams, models, config.seconds, off, serial, ledger);
  out.metrics.push_back({"trace.overhead_ratio",
                         worst_window(phase, kWindow).p50 / worst_window(untraced, kWindow).p50,
                         "ratio"});
  service.reset();
  out.counts.push_back(
      {"server.replay_cache_misses", replay_misses(models, options, config.seed, ledger)});

  // The miss path's frontends, once per base model of the stream.
  FrontendCounts counts;
  verify(models, ledger, tracer, counts, out);
  std::size_t uni = 0;
  for (const BaseModel& m : models) uni += m.kind == ModelKind::Uni ? 1 : 0;
  const double n_uni = static_cast<double>(uni);
  const double n_dft = static_cast<double>(models.size() - uni);
  out.metrics.push_back({"lang.parse_s", tracer.self("lang.parse") / n_uni, "s"});
  out.metrics.push_back({"lang.build_s", tracer.self("lang.build") / n_uni, "s"});
  out.metrics.push_back({"bisim.minimize_s",
                         tracer.self("bisim.minimize") / static_cast<double>(models.size()), "s"});
  out.metrics.push_back({"bisim.states_in", static_cast<double>(counts.states_in), "count"});
  out.metrics.push_back({"bisim.states_out", static_cast<double>(counts.states_out), "count"});
  out.metrics.push_back({"dft.parse_s", tracer.self("dft.parse") / n_dft, "s"});
  out.metrics.push_back({"dft.lower_s", tracer.self("dft.lower") / n_dft, "s"});
  if (!tracer.write_json(config.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.trace_path.c_str());
  }
}

}  // namespace perfbench
