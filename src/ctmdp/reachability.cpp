#include "ctmdp/reachability.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "ctmdp/backend.hpp"
#include "support/errors.hpp"
#include "support/fox_glynn.hpp"
#include "support/numerics.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace unicon {

namespace {

void check_inputs(const Ctmdp& model, const BitVector& goal) {
  if (goal.size() != model.num_states()) {
    throw ModelError("timed_reachability: goal vector size mismatch");
  }
}

/// States checked per should_abort_sweep() probe inside a parallel sweep;
/// the strip-mined block structure leaves the per-state arithmetic (and
/// hence bit-identical results) untouched.  Sized so the probe (an atomic
/// load plus, with a deadline armed, a clock read) stays under ~2% of the
/// sweep cost while still stopping a sweep within tens of microseconds.
constexpr std::size_t kGuardBlock = 4096;

/// Sound per-state error bound when the backward iteration stops before
/// executing step index @p next_i, leaving the iterate q_{next_i+1} in hand.
/// Unrolling the recurrence, q_{next_i+1} weights the m-th future jump by
/// psi(m + next_i) where the completed iteration q_1 weights it by psi(m):
/// the partial iterate is a *shifted-weight* sum, not a truncated prefix,
/// so the naive "unconsumed mass" sum_{m <= next_i} psi(m) is NOT sound
/// (the fault-injection harness exhibits mid-run cancellations violating
/// it).  The per-scheduler deviation is bounded by the total weight
/// displacement plus the dropped window tail plus the outside-window
/// epsilon, capped at the trivial bound 1:
///   sum_{m=1}^{k-next_i} |psi(m) - psi(m+next_i)| + tail_mass(k-next_i+1)
///   + epsilon.
double partial_residual(const PoissonWindow& psi, std::uint64_t next_i, double epsilon) {
  if (next_i == 0) return epsilon;
  const std::uint64_t k = psi.right();
  double bound = epsilon + psi.tail_mass(k - next_i + 1);
  for (std::uint64_t m = 1; m + next_i <= k; ++m) {
    bound += std::abs(psi.psi(m) - psi.psi(m + next_i));
  }
  return std::min(bound, 1.0);
}

/// Pre-resolved per-worker row counters ("<prefix><worker>"), so the sweep
/// lambdas touch the registry lock-free: one relaxed fetch_add per worker
/// per sweep.  Empty (nullptr data) when telemetry is off.
std::vector<Counter*> worker_row_counters(Telemetry* telemetry, const std::string& prefix,
                                          unsigned workers) {
  std::vector<Counter*> out;
  if (telemetry == nullptr) return out;
  out.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    out.push_back(&telemetry->counter(prefix + std::to_string(w)));
  }
  return out;
}

void require_finite_values(const std::vector<double>& values, const char* where) {
  for (std::size_t s = 0; s < values.size(); ++s) {
    if (!std::isfinite(values[s])) {
      throw NumericError(std::string(where) + ": non-finite value in iterate at state " +
                         std::to_string(s));
    }
  }
}

/// The dense (simd) engine's bridge between its compacted iterate and the
/// full-state vectors of the external contract (checkpoint spans, resume
/// iterates, final values).  The dense iterate holds only the relaxed rows;
/// all goal states share the scalar goal value G (uniform by construction,
/// see DenseKernel's header comment) and avoided states are pinned 0.0.
struct DenseBridge {
  const DenseKernel& kernel;
  const BitVector& goal;

  /// full[s] = G for goal states, dq[row(s)] for dense states, 0 otherwise.
  void materialize(const std::vector<double>& dq, double goal_value,
                   std::vector<double>& full) const {
    const std::size_t n = kernel.dense_index.size();
    for (std::size_t s = 0; s < n; ++s) full[s] = goal[s] ? goal_value : 0.0;
    for (std::uint64_t r = 0; r < kernel.num_rows(); ++r) {
      full[kernel.dense_state[r]] = dq[r];
    }
  }

  /// Inverse of materialize on an externally writable full vector (resume
  /// input, post-checkpoint iterate).  The goal value is read back from the
  /// lowest-indexed goal state: the engine maintains the goal iterate as a
  /// single scalar, so a checkpoint writer that splits the goal states
  /// apart is collapsed onto that representative (the serial engine would
  /// propagate such a split per state; DESIGN.md Sec. 10 records this
  /// contract difference).
  double ingest(const std::vector<double>& full, std::vector<double>& dq) const {
    for (std::uint64_t r = 0; r < kernel.num_rows(); ++r) {
      dq[r] = full[kernel.dense_state[r]];
    }
    const std::size_t g0 = goal.next_set(0);
    return g0 == BitVector::npos ? 0.0 : full[g0];
  }

  /// Scatters a dense decision row (original transition ids) into a
  /// full-state row; goal/avoided states keep kNoTransition.
  std::vector<std::uint64_t> expand_decisions(const std::vector<std::uint64_t>& ddec) const {
    std::vector<std::uint64_t> full(kernel.dense_index.size(), kNoTransition);
    for (std::uint64_t r = 0; r < kernel.num_rows(); ++r) {
      full[kernel.dense_state[r]] = ddec[r];
    }
    return full;
  }
};

/// Bit-exact double comparison for the locking criterion.  `==` is not
/// enough: +0.0 == -0.0 compares true while the two buffers would hold
/// different bit patterns, breaking the no-copy invariant that a locked
/// row's value is identical in both double-buffers forever after.
bool same_bits(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// NaN-latching max over per-worker slots.  WorkerPool::reduce_max drops
/// NaN (a > comparison); the survival sup must propagate it so a poisoned
/// certificate can never certify a stop.
double reduce_max_latch(const std::vector<WorkerPool::Slot>& slots) {
  double value = 0.0;
  for (const WorkerPool::Slot& slot : slots) {
    if (!(slot.value <= value)) value = slot.value;
  }
  return value;
}

/// Advances the Lyapunov survival iterate u <- N u over the serial kernel
/// and returns sup u.  N maximizes over every transition regardless of the
/// solve's objective: |opt_a f_a - opt_a g_a| <= max_a |f_a - g_a| for
/// both optimizations, so the max operator dominates the displacement
/// either one can propagate.  Goal/avoided entries stay exactly 0 (their
/// rows are pinned and u starts 0 there).
double survival_step_serial(const DiscreteKernel& kernel, const BitVector& goal,
                            const BitVector& avoid, WorkerPool& pool,
                            std::vector<WorkerPool::Slot>& slots, const std::vector<double>& u,
                            std::vector<double>& u_next) {
  pool.run(u.size(), [&](unsigned worker, std::size_t begin, std::size_t end) {
    const double* x = u.data();
    double local = 0.0;
    for (std::size_t s = begin; s < end; ++s) {
      if (goal[s] || (!avoid.empty() && avoid[s])) {
        u_next[s] = 0.0;
        continue;
      }
      const std::uint64_t first = kernel.state_first[s];
      const std::uint64_t last = kernel.state_first[s + 1];
      double best = 0.0;
      for (std::uint64_t tr = first; tr < last; ++tr) {
        const double acc = kernel.transition_value(tr, 0.0, x);
        if (!(acc <= best)) best = acc;  // NaN-latching
      }
      u_next[s] = best;
      if (!(best <= local)) local = best;
    }
    slots[worker].value = local;
  });
  return reduce_max_latch(slots);
}

/// Dense-engine survival step: relax with zero goal weight, always
/// maximizing, then sup-reduce the advanced iterate (relax_rows reports a
/// delta, not a sup, hence the explicit pass).
double survival_step_dense(const KernelOps& ops, const DenseKernelView& view, WorkerPool& pool,
                           std::vector<WorkerPool::Slot>& slots, const std::vector<double>& u,
                           std::vector<double>& u_next) {
  pool.run(u.size(), [&](unsigned worker, std::size_t begin, std::size_t end) {
    if (begin < end) {
      ops.relax_rows(view, 0.0, true, u.data(), u_next.data(), nullptr, begin, end);
    }
    double local = 0.0;
    for (std::size_t r = begin; r < end; ++r) {
      if (!(u_next[r] <= local)) local = u_next[r];
    }
    slots[worker].value = local;
  });
  return reduce_max_latch(slots);
}

/// Closure half of the locking criterion for a serial row: every successor
/// lies in locked or is the row itself.  Together with bitwise value
/// equality (and a zero Poisson weight below the window) the row's next
/// relaxation provably reproduces the same bits, so it can be skipped.
bool serial_row_closed(const DiscreteKernel& kernel, const BitVector& locked, StateId s) {
  const std::uint64_t t_first = kernel.state_first[s];
  const std::uint64_t t_last = kernel.state_first[s + 1];
  for (std::uint64_t tr = t_first; tr < t_last; ++tr) {
    const std::uint64_t last = kernel.entry_first[tr + 1];
    for (std::uint64_t j = kernel.entry_first[tr]; j < last; ++j) {
      const std::uint32_t c = kernel.col[j];
      if (c != s && !locked[c]) return false;
    }
  }
  return true;
}

/// Dense-row variant of serial_row_closed (columns are dense indices).
bool dense_row_closed(const DenseKernelView& view, const BitVector& locked, std::size_t r) {
  const std::uint64_t t_first = view.row_first[r];
  const std::uint64_t t_last = view.row_first[r + 1];
  for (std::uint64_t tr = t_first; tr < t_last; ++tr) {
    const std::uint64_t last = view.entry_first[tr + 1];
    for (std::uint64_t j = view.entry_first[tr]; j < last; ++j) {
      const std::uint32_t c = view.col[j];
      if (c != r && !locked[c]) return false;
    }
  }
  return true;
}

/// Relaxes the unlocked rows of [blk, blk_end), splitting the block around
/// locked runs — skipped rows get no writes at all (the no-copy invariant
/// keeps both buffers on their frozen bits) and contribute exactly 0 to
/// the delta.  Per-row results are unchanged by the split: the kernels
/// process rows independently, exactly as the existing guard blocks and
/// worker partitions already assume.  When @p cand is non-null (a
/// below-window sweep with locking on), rows meeting the locking criterion
/// are appended for the post-barrier application.
double relax_dense_block(const KernelOps& ops, const DenseKernelView& view, double gval,
                         bool maximize, const double* q, double* out, std::uint64_t* dec,
                         std::size_t blk, std::size_t blk_end, const BitVector* locked,
                         std::vector<StateId>* cand, std::uint64_t& swept) {
  double local = 0.0;
  std::size_t r = blk;
  while (r < blk_end) {
    if (locked != nullptr && (*locked)[r]) {
      ++r;
      continue;
    }
    std::size_t run_end = r + 1;
    if (locked != nullptr) {
      while (run_end < blk_end && !(*locked)[run_end]) ++run_end;
    } else {
      run_end = blk_end;
    }
    const double d = ops.relax_rows(view, gval, maximize, q, out, dec, r, run_end);
    if (!(d <= local)) local = d;  // NaN-capturing max
    swept += run_end - r;
    if (cand != nullptr) {
      for (std::size_t x = r; x < run_end; ++x) {
        if (same_bits(out[x], q[x]) && dense_row_closed(view, *locked, x)) {
          cand->push_back(static_cast<StateId>(x));
        }
      }
    }
    r = run_end;
  }
  return local;
}

/// The one Algorithm-1 engine behind timed_reachability and
/// timed_reachability_batch.  @p single selects the single-horizon call's
/// error prefix and its flat "reachability" span; the arithmetic is the
/// same either way, so a single-t solve is literally a batch of one.
std::vector<TimedReachabilityResult> solve_horizons(const Ctmdp& model, const BitVector& goal,
                                                    const std::vector<double>& times,
                                                    const TimedReachabilityOptions& options,
                                                    bool single) {
  const std::string fn = single ? "timed_reachability" : "timed_reachability_batch";
  check_inputs(model, goal);
  const std::size_t num_horizons = times.size();
  const TimedReachabilityResult* const prior = options.resume;
  if (prior != nullptr && num_horizons != 1) {
    throw ModelError(fn +
                     ": resume needs a batch of exactly one horizon; resume the interrupted "
                     "horizon on its own");
  }
  for (const double t : times) {
    if (!(t >= 0.0)) throw ModelError(fn + ": negative time bound");
  }
  const auto uniform = model.uniform_rate(1e-6);
  if (!uniform) {
    throw UniformityError(fn +
                          ": model is not uniform; construct it uniformly or uniformize first");
  }
  const double e = *uniform;
  const std::size_t n = model.num_states();
  const bool maximize = options.objective == Objective::Maximize;
  const Backend backend = resolve_backend(options.backend);
  if (!options.avoid.empty() && options.avoid.size() != n) {
    throw ModelError(fn + ": avoid vector size mismatch");
  }
  auto avoided = [&](StateId s) {
    return !options.avoid.empty() && options.avoid[s] && !goal[s];
  };

  std::vector<TimedReachabilityResult> results(num_horizons);
  if (num_horizons == 0) return results;

  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) {
    span.emplace(options.telemetry->span(single ? "reachability" : "reachability_batch"));
  }

  // Every horizon keeps its own window and iterate: the iterate of a larger
  // horizon is *not* reusable for a smaller one (it weights the m-th future
  // jump by psi(m + i, lambda_max) where the smaller bound needs
  // psi(m, lambda_j) — a shifted-weight sum, the same observation behind
  // partial_residual above).  What the batch shares is everything around
  // the per-horizon arithmetic: the kernel (built and streamed once per
  // block for all active horizons), the worker pool, and the guard.
  struct Horizon {
    std::size_t idx = 0;  // position in `times` (and the delta-slot index)
    PoissonWindow psi;
    std::uint64_t k = 0;
    bool record_all = false;
    bool done = false;
    std::uint64_t executed = 0;
    double weight = 0.0;      // serial: psi(g); dense: G_g
    double goal_value = 0.0;  // dense engine: G_{g+1}
    std::vector<double> q_next, q_cur;    // per-horizon iterates
    std::vector<std::uint64_t> decision;  // per-sweep scheduler scratch
    // Per-horizon truncation plan (each horizon has its own window and may
    // or may not engage the certificate) — see DESIGN.md Sec. 14.
    double window_epsilon = 0.0;
    std::uint64_t fox_glynn_right = 0;
    bool engaged = false;
    bool cert_ok = true;  // certificate still live for this horizon
    bool lyap_fired = false;
    double lyap_error = 0.0;
    bool fixpoint = false;
    // Per-horizon locking state (each horizon has its own iterate, hence
    // its own frozen set).
    BitVector locked;
    std::size_t locked_count = 0;
    std::vector<std::vector<StateId>> cand;  // per-worker staging
  };

  // Truncation policy (DESIGN.md Sec. 14).  extract_scheduler pins the
  // pure Fox-Glynn schedule: the decision table must hold one faithful row
  // per planned step, which a certified stop would leave unfilled.  The
  // plan owns the epsilon split; every engaged plan of this solve carries
  // the same stop budget, so one survival record serves them all.
  std::vector<Horizon> horizons(num_horizons);
  std::uint64_t k_max = 0;
  double stop_epsilon = 0.0;
  bool any_engaged = false;
  for (std::size_t j = 0; j < num_horizons; ++j) {
    Horizon& h = horizons[j];
    h.idx = j;
    const TruncationPlan hplan = plan_truncation(
        options.extract_scheduler ? Truncation::FoxGlynn : options.truncation, e * times[j],
        options.epsilon);
    h.psi = hplan.window;
    h.k = h.psi.right();
    h.window_epsilon = hplan.window_epsilon;
    h.fox_glynn_right = hplan.fox_glynn_right;
    h.engaged = hplan.engaged();
    if (h.engaged) {
      stop_epsilon = hplan.stop_epsilon;
      any_engaged = true;
    }
    k_max = std::max(k_max, h.k);
    // The product k * n can overflow for pathological horizons (k grows
    // with lambda without bound); a wrapped product below the cap would
    // commit to allocating the astronomically large true table, so
    // saturate instead.
    h.record_all =
        options.extract_scheduler &&
        saturating_mul(h.k, static_cast<std::uint64_t>(n)) <= options.max_decision_entries;
    TimedReachabilityResult& r = results[j];
    r.truncation = hplan.resolved;
    r.uniform_rate = e;
    r.lambda = e * times[j];
    r.iterations_planned = h.k;
    if (options.extract_scheduler) {
      r.initial_decision.assign(n, kNoTransition);
      if (h.record_all) r.decisions.resize(h.k);
    }
  }

  // A batch of one is the single-horizon solve, so it alone may resume a
  // prior partial result (validated via iterations_planned and the iterate
  // size) and publish guard checkpoints — there is exactly one iterate to
  // hand over.  The resumed run sweeps g = k - executed .. 1; the decision
  // rows the prior run already recorded are merged, or the resumed
  // scheduler artifact would silently lose every pre-interruption row.
  // The survival record needs no replay: its lazy advance below catches up
  // to the first below-window age on its own.
  std::uint64_t g_start = k_max;
  if (prior != nullptr) {
    Horizon& h = horizons[0];
    if (prior->status == RunStatus::Converged || prior->iterate.size() != n) {
      throw ModelError(fn + ": resume requires a partial result for this model");
    }
    if (prior->iterations_planned != h.k || prior->iterations_executed >= h.k) {
      throw ModelError(fn + ": resume horizon mismatch (model, t or epsilon changed)");
    }
    h.executed = prior->iterations_executed;
    g_start = h.k - h.executed;
    if (h.record_all && prior->decisions.size() == h.k) {
      for (std::uint64_t j = g_start; j < h.k; ++j) results[0].decisions[j] = prior->decisions[j];
    }
  }
  RunGuard* const guard = options.guard;
  RunGuard* const publisher = num_horizons == 1 ? guard : nullptr;

  // Bottom-aligned fusion: all horizons end at step 1 together, so horizon
  // j participates in global steps g = k_j .. 1 and its local step index
  // *is* g — its per-state operation sequence is exactly its single-t
  // run's.  Descending-k order makes the set of started horizons a prefix.
  std::vector<Horizon*> by_k(num_horizons);
  for (std::size_t j = 0; j < num_horizons; ++j) by_k[j] = &horizons[j];
  std::stable_sort(by_k.begin(), by_k.end(),
                   [](const Horizon* a, const Horizon* b) { return a->k > b->k; });

  // Kernels.  The serial engine streams the flat DiscreteKernel over all n
  // states with strictly sequential per-transition accumulation.  The
  // dense (simd) engine sweeps only the non-goal, non-avoided rows, with
  // the branching mass into B folded into a per-horizon scalar goal
  // iterate G_g = psi(g) + G_{g+1} (see DenseKernel); the external
  // contract (values, resume iterates, checkpoint spans) stays in
  // full-state vectors via DenseBridge, so partial results interoperate
  // across backends.
  const bool dense = backend != Backend::Serial;
  std::optional<DiscreteKernel> own_discrete;
  std::optional<DenseKernel> own_dense;
  const DiscreteKernel* discrete = options.discrete_kernel;
  const DenseKernel* dkernel = options.dense_kernel;
  if (!dense) {
    if (discrete == nullptr) discrete = &own_discrete.emplace(model, goal);
    if (discrete->state_first.size() != n + 1) {
      throw ModelError(fn + ": injected discrete kernel does not fit the model");
    }
  } else {
    if (dkernel == nullptr) dkernel = &own_dense.emplace(model, goal, options.avoid);
    if (dkernel->dense_index.size() != n) {
      throw ModelError(fn + ": injected dense kernel does not fit the model");
    }
  }
  const KernelOps* const ops = dense ? &kernel_ops(backend) : nullptr;
  const DenseKernelView view = dense ? dkernel->view() : DenseKernelView{};
  std::optional<DenseBridge> bridge;
  if (dense) bridge.emplace(DenseBridge{*dkernel, goal});
  const std::size_t rows = dense ? dkernel->num_rows() : n;  // iterate length

  for (Horizon& h : horizons) {
    h.q_next.assign(rows, 0.0);
    h.q_cur.assign(rows, 0.0);
    if (options.extract_scheduler) h.decision.assign(rows, kNoTransition);
  }
  if (prior != nullptr) {
    // A resume iterate is external input just like a checkpoint write; a
    // non-finite entry would corrupt the result without tripping the
    // per-sweep delta check (see the checkpoint validation below).
    require_finite_values(prior->iterate, "timed_reachability resume");
    if (dense) {
      horizons[0].goal_value = bridge->ingest(prior->iterate, horizons[0].q_next);
    } else {
      horizons[0].q_next = prior->iterate;
    }
  }
  // Full-state scratch for the dense engine's checkpoint hand-over.
  std::vector<double> q_full(dense && publisher != nullptr ? n : 0, 0.0);

  WorkerPool pool = make_worker_pool(options.threads, rows);
  std::vector<std::vector<WorkerPool::Slot>> delta_slot(num_horizons);
  for (auto& slots : delta_slot) slots.resize(pool.size());
  const std::vector<Counter*> row_counters =
      worker_row_counters(options.telemetry, "reachability.rows.worker", pool.size());
  Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

  // On-the-fly convergence locking (DESIGN.md Sec. 14), per horizon (each
  // has its own iterate, hence its own frozen set): below the window a row
  // whose value came back bit-identical with every successor already
  // locked is an exact fixpoint of its own update.  At lock time both
  // double-buffers hold the same bits, so skipped rows need no copies,
  // contribute exactly 0 to the sweep delta, and reported values are
  // bit-identical with locking on or off.  Candidates are staged per
  // worker and applied after the barrier, so the locked set is a
  // deterministic function of the iterate for every thread count.  Over
  // dense rows the goal plateau is never swept at all, and below the
  // window the folded goal value stays constant (psi == 0), so the same
  // criterion holds.
  const bool locking = options.locking && !options.extract_scheduler;
  for (Horizon& h : horizons) {
    if (locking) {
      h.locked.assign(rows, false);
      h.cand.resize(pool.size());
    }
  }
  std::vector<std::vector<std::uint64_t>> upd_slots(
      num_horizons, std::vector<std::uint64_t>(pool.size() * std::size_t{8}, 0));

  // Lyapunov certificate: the survival sup sequence is a pure function of
  // the kernel, not of the horizon, so one survival iterate u serves every
  // engaged horizon at its own age (left_h - g).  Stop decisions are
  // therefore bit-identical to each horizon's single-t run.
  LyapunovSeries series(stop_epsilon);
  bool cert_disengaged = false;
  std::vector<double> u;
  std::vector<double> u_next;
  std::vector<WorkerPool::Slot> u_slot;
  if (any_engaged) {
    u.assign(rows, 1.0);  // dense rows are exactly the non-goal, non-avoided states
    if (!dense) {
      for (StateId s = 0; s < n; ++s) u[s] = (goal[s] || avoided(s)) ? 0.0 : 1.0;
    }
    u_next.assign(rows, 0.0);
    u_slot.resize(pool.size());
  }

  std::atomic<bool> sweep_aborted{false};
  bool stopped = false;
  std::uint64_t stop_step = 0;
  std::vector<Horizon*> active;
  active.reserve(num_horizons);
  std::size_t started = 0;  // prefix of by_k with k >= g
  for (std::uint64_t g = g_start; g >= 1; --g) {
    while (started < num_horizons && by_k[started]->k >= g) ++started;
    active.clear();
    for (std::size_t a = 0; a < started; ++a) {
      if (!by_k[a]->done) active.push_back(by_k[a]);
    }
    if (active.empty()) {
      // Everything in flight stopped early; fast-forward to the next
      // (strictly smaller) horizon start, or stop when none remain.
      if (started == num_horizons) break;
      g = by_k[started]->k + 1;
      continue;
    }
    if (guard != nullptr && guard->poll() != RunStatus::Converged) {
      stopped = true;
      stop_step = g;
      break;
    }
    for (Horizon* h : active) {
      h->weight = dense ? h->psi.psi(g) + h->goal_value : h->psi.psi(g);
    }
    Horizon* const* const act = active.data();
    const std::size_t num_active = active.size();
    if (!dense) {
      const DiscreteKernel& kernel = *discrete;
      pool.run(n, [&](unsigned worker, std::size_t begin, std::size_t end) {
        std::uint64_t swept = 0;
        for (std::size_t a = 0; a < num_active; ++a) {
          delta_slot[act[a]->idx][worker].value = 0.0;
        }
        for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
          if (guard != nullptr && guard->should_abort_sweep()) {
            sweep_aborted.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t blk_end = std::min(end, blk + kGuardBlock);
          // Kernel rows for this block stay cache-hot across the horizon
          // loop — the batch streams the kernel once per block, not once
          // per horizon.
          for (std::size_t a = 0; a < num_active; ++a) {
            Horizon& h = *act[a];
            const double w = h.weight;
            const double* q = h.q_next.data();
            double* out = h.q_cur.data();
            std::uint64_t* dec = options.extract_scheduler ? h.decision.data() : nullptr;
            const bool skip_locked = h.locked_count != 0;
            // Candidacy only below the window: there w == 0, so a row's
            // update no longer depends on the step index and
            // bitwise-stable means stable forever.
            std::vector<StateId>* const my_cand =
                locking && g < h.psi.left() ? &h.cand[worker] : nullptr;
            double local_delta = delta_slot[h.idx][worker].value;
            std::uint64_t h_rows = 0;
            for (StateId s = blk; s < blk_end; ++s) {
              if (skip_locked && h.locked[s]) continue;  // frozen: both buffers agree
              ++h_rows;
              if (goal[s]) {
                out[s] = w + q[s];
                if (dec != nullptr) dec[s] = kNoTransition;
                if (my_cand != nullptr && same_bits(out[s], q[s])) my_cand->push_back(s);
              } else if (avoided(s)) {
                out[s] = 0.0;
                if (dec != nullptr) dec[s] = kNoTransition;
                if (my_cand != nullptr && same_bits(0.0, q[s])) my_cand->push_back(s);
              } else {
                const std::uint64_t first = kernel.state_first[s];
                const std::uint64_t last = kernel.state_first[s + 1];
                double best = first == last ? 0.0 : (maximize ? -1.0 : 2.0);
                std::uint64_t best_t = kNoTransition;
                for (std::uint64_t tr = first; tr < last; ++tr) {
                  const double acc = kernel.transition_value(tr, w, q);
                  if (maximize ? acc > best : acc < best) {
                    best = acc;
                    best_t = tr;
                  }
                }
                // NaN-capturing max: identical to std::max for finite
                // deltas (bit-identical results) but latches NaN, which
                // std::max would silently drop.
                const double dev = std::fabs(best - q[s]);
                if (!(dev <= local_delta)) local_delta = dev;
                out[s] = best;
                if (dec != nullptr) dec[s] = best_t;
                if (my_cand != nullptr && same_bits(best, q[s]) &&
                    serial_row_closed(kernel, h.locked, s)) {
                  my_cand->push_back(s);
                }
              }
            }
            delta_slot[h.idx][worker].value = local_delta;
            upd_slots[h.idx][worker * std::size_t{8}] += h_rows;
            swept += h_rows;
          }
        }
        if (rows_out != nullptr) rows_out[worker]->add(swept);
      });
    } else {
      pool.run(rows, [&](unsigned worker, std::size_t begin, std::size_t end) {
        std::uint64_t swept = 0;
        for (std::size_t a = 0; a < num_active; ++a) {
          delta_slot[act[a]->idx][worker].value = 0.0;
        }
        for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
          if (guard != nullptr && guard->should_abort_sweep()) {
            sweep_aborted.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t blk_end = std::min(end, blk + kGuardBlock);
          for (std::size_t a = 0; a < num_active; ++a) {
            Horizon& h = *act[a];
            std::uint64_t* const dec = options.extract_scheduler ? h.decision.data() : nullptr;
            const bool lock_sweep_h = locking && g < h.psi.left();
            double d;
            std::uint64_t h_swept = 0;
            if (h.locked_count != 0 || lock_sweep_h) {
              d = relax_dense_block(*ops, view, h.weight, maximize, h.q_next.data(),
                                    h.q_cur.data(), dec, blk, blk_end, &h.locked,
                                    lock_sweep_h ? &h.cand[worker] : nullptr, h_swept);
            } else {
              h_swept = blk_end - blk;
              d = ops->relax_rows(view, h.weight, maximize, h.q_next.data(), h.q_cur.data(), dec,
                                  blk, blk_end);
            }
            WorkerPool::Slot& slot = delta_slot[h.idx][worker];
            if (!(d <= slot.value)) slot.value = d;  // NaN-capturing max
            upd_slots[h.idx][worker * std::size_t{8}] += h_swept;
            swept += h_swept;
          }
        }
        if (rows_out != nullptr) rows_out[worker]->add(swept);
      });
    }
    if (guard != nullptr && sweep_aborted.load(std::memory_order_relaxed)) {
      // The sweep for step g was abandoned mid-flight: q_cur is partially
      // written, so each partial result is the last *completed* iterate in
      // q_next and step g counts as unconsumed.
      stopped = true;
      stop_step = g;
      break;
    }
    // Advance the shared survival record to the deepest age any engaged
    // horizon checks this step.  Entries are horizon-independent, so the
    // record (and the probe-cap disengage at its tail) replays exactly
    // what each single-t run would compute — a resumed run included.
    if (any_engaged && !cert_disengaged && g > 1) {
      std::uint64_t needed = 0;
      for (Horizon* hp : active) {
        const Horizon& h = *hp;
        if (h.engaged && h.cert_ok && g < h.psi.left()) {
          needed = std::max(needed, h.psi.left() - g);
        }
      }
      while (!cert_disengaged && series.size() < needed) {
        series.record(dense ? survival_step_dense(*ops, view, pool, u_slot, u, u_next)
                            : survival_step_serial(*discrete, goal, options.avoid, pool, u_slot,
                                                   u, u_next));
        u.swap(u_next);
        if (series.should_disengage(series.size())) {
          cert_disengaged = true;
          u = std::vector<double>();
          u_next = std::vector<double>();
        }
      }
    }
    for (Horizon* hp : active) {
      Horizon& h = *hp;
      TimedReachabilityResult& r = results[h.idx];
      const double delta = WorkerPool::reduce_max(delta_slot[h.idx]);
      if (!std::isfinite(delta)) {
        throw NumericError("timed_reachability: non-finite update at step " + std::to_string(g) +
                           " (NaN/Inf reached the iterate)");
      }
      h.q_cur.swap(h.q_next);  // q_next now holds q_g for the next round
      if (dense) h.goal_value = h.weight;
      ++h.executed;
      if (locking && g < h.psi.left()) {
        // Applied only after the barrier and the NaN check: candidacy was
        // judged against the pre-sweep locked set on every worker, so the
        // resulting set is identical for every thread count.
        for (std::vector<StateId>& c : h.cand) {
          for (const StateId s : c) h.locked.set(s);
          h.locked_count += c.size();
          c.clear();
        }
      }
      if (options.extract_scheduler && (h.record_all || g == 1)) {
        std::vector<std::uint64_t> row = dense ? bridge->expand_decisions(h.decision) : h.decision;
        if (g == 1) r.initial_decision = row;
        if (h.record_all) r.decisions[g - 1] = std::move(row);
      }
      if (publisher != nullptr && publisher->wants_checkpoint(h.executed)) {
        // The callback writes through the span (checkpoint persistence,
        // fault injection), so the iterate is untrusted on return.  A
        // non-finite entry would be silently dropped by the action
        // comparisons above — NaN compares false both ways — leaving
        // finite wrong values, so it must be rejected here at the trust
        // boundary.  The writer may also have changed a locked row, whose
        // twin buffer would then be stale: drop every lock and let
        // candidacy re-establish them from the (possibly rewritten)
        // iterate.
        std::vector<double>& published = dense ? q_full : h.q_next;
        if (dense) bridge->materialize(h.q_next, h.goal_value, q_full);
        publisher->checkpoint("timed_reachability", h.executed, h.k,
                              partial_residual(h.psi, g - 1, h.window_epsilon),
                              std::span<double>(published.data(), published.size()));
        require_finite_values(published, "timed_reachability checkpoint");
        if (dense) h.goal_value = bridge->ingest(q_full, h.q_next);
        if (h.locked_count != 0) {
          h.locked.assign(rows, false);
          h.locked_count = 0;
        }
      }
      // Exact fixpoint below the window: delta == 0 means q_g and q_{g+1}
      // are bit-identical, and with w == 0 (dense: G constant) every
      // remaining sweep applies the same operator to the same vector —
      // provable no-ops.  Zero extra error, so the converged residual
      // stays untouched.
      if (locking && g > 1 && g <= h.psi.left() && delta == 0.0) {
        h.fixpoint = true;
        h.done = true;
      }
      // Lyapunov certificate: below the window, stop once the forfeited
      // tail delta * series_bound fits under the stop budget.  g == 1 is
      // excluded (nothing left to skip).
      if (!h.done && h.engaged && h.cert_ok && g > 1 && g < h.psi.left()) {
        const std::uint64_t age = h.psi.left() - g;
        if (age > series.size() || series.should_disengage(age)) {
          // The record stopped at the probe cap (or this age is past it):
          // the single-t run disengaged at exactly this point too.
          h.cert_ok = false;
        } else if (series.certifies(delta, age)) {
          h.lyap_fired = true;
          h.lyap_error = series.stop_error(delta, age);
          r.k_lyapunov = h.executed;
          h.done = true;
        }
      }
    }
  }

  for (Horizon& h : horizons) {
    TimedReachabilityResult& r = results[h.idx];
    r.iterations_executed = h.executed;
    r.exact_fixpoint = h.fixpoint;
    r.locked_final = h.locked_count;
    for (std::size_t wkr = 0; wkr < pool.size(); ++wkr) {
      r.state_updates += upd_slots[h.idx][wkr * std::size_t{8}];
    }
    const bool partial = !h.done && stopped;
    if (partial) {
      r.status = guard->status();
      r.residual_bound = partial_residual(h.psi, std::min(stop_step, h.k), h.window_epsilon);
    } else {
      r.residual_bound = h.window_epsilon + (h.lyap_fired ? h.lyap_error : 0.0);
    }
    if (!dense || partial) {
      std::vector<double> full;
      if (dense) {
        full.assign(n, 0.0);
        bridge->materialize(h.q_next, h.goal_value, full);
      } else {
        full = std::move(h.q_next);
      }
      require_finite_values(full, "timed_reachability");
      if (partial) r.iterate = full;  // full-state raw iterate, resumable by any backend
      r.values = std::move(full);
      for (StateId s = 0; s < n; ++s) {
        r.values[s] = goal[s] ? 1.0 : clamp01(r.values[s]);
      }
    } else {
      // Finite check on the dense iterate plus the goal scalar covers every
      // value the fused write below composes, at dense-row cost instead of
      // full-state cost.
      require_finite_values(h.q_next, "timed_reachability");
      if (!std::isfinite(h.goal_value)) {
        throw NumericError("timed_reachability: non-finite goal iterate");
      }
      // Fused materialize + clamp.  Every state is goal, avoided or a
      // dense row (DenseKernel's partition), so: fill 1.0 (the clamped
      // goal value — a vectorized store stream, and on goal-heavy models
      // like FTWC that is nearly the whole vector), scatter the clamped
      // dense iterate, then zero the avoided states if a mask exists.
      // Per converged horizon this is the only full-state pass of the
      // batch, which matters when 16 horizons finalize against a dense
      // sweep that touched a few percent of the states.
      r.values.assign(n, 1.0);
      double* const out = r.values.data();
      const std::uint32_t* const dense_state = dkernel->dense_state.data();
      const double* const dq = h.q_next.data();
      for (std::uint64_t row = 0; row < rows; ++row) {
        out[dense_state[row]] = clamp01(dq[row]);
      }
      if (!options.avoid.empty()) {
        for (StateId s = 0; s < n; ++s) {
          if (options.avoid[s] && !goal[s]) out[s] = 0.0;
        }
      }
    }
    h.q_next = std::vector<double>();
    h.q_cur = std::vector<double>();
  }

  if (span) {
    if (dense) span->metric("dense_rows", rows);
    span->metric("states", n);
    span->metric("transitions", model.num_transitions());
    span->metric("uniform_rate", e);
  }
  if (span && single) {
    const Horizon& h = horizons[0];
    const TimedReachabilityResult& r = results[0];
    span->metric("lambda", r.lambda);
    span->metric("poisson_left", h.psi.left());
    span->metric("poisson_right", h.k);
    span->metric("poisson_width", h.k - h.psi.left() + 1);
    span->metric("iterations_planned", h.k);
    span->metric("iterations_executed", h.executed);
    span->metric("threads", pool.size());
    span->metric("residual_bound", r.residual_bound);
    span->metric("truncation.k_fox_glynn", h.fox_glynn_right);
    span->metric("truncation.k_effective", h.executed);
    span->metric("truncation.k_lyapunov", r.k_lyapunov);
    span->metric("truncation.locked_final", r.locked_final);
    span->metric("truncation.state_updates", r.state_updates);
  } else if (span) {
    span->metric("horizons", num_horizons);
    span->metric("iterations_planned_max", k_max);
    span->metric("threads", pool.size());
    // Per-horizon child spans in input order, emitted after the fused loop
    // (the registry's span stack is coordinating-thread-only, so horizon
    // spans must not interleave with sweeps).
    for (std::size_t j = 0; j < num_horizons; ++j) {
      const Horizon& h = horizons[j];
      Telemetry::Span hspan = options.telemetry->span("reachability_batch.horizon");
      hspan.metric("t", times[j]);
      hspan.metric("lambda", results[j].lambda);
      hspan.metric("poisson_left", h.psi.left());
      hspan.metric("poisson_right", h.k);
      hspan.metric("iterations_planned", h.k);
      hspan.metric("iterations_executed", h.executed);
      hspan.metric("residual_bound", results[j].residual_bound);
      hspan.metric("truncation.k_fox_glynn", h.fox_glynn_right);
      hspan.metric("truncation.k_effective", h.executed);
      hspan.metric("truncation.k_lyapunov", results[j].k_lyapunov);
      hspan.metric("truncation.locked_final", h.locked_count);
      hspan.metric("truncation.state_updates", results[j].state_updates);
    }
  }
  return results;
}

}  // namespace

TimedReachabilityResult timed_reachability(const Ctmdp& model, const BitVector& goal,
                                           double t, const TimedReachabilityOptions& options) {
  return std::move(solve_horizons(model, goal, {t}, options, true).front());
}

std::vector<TimedReachabilityResult> timed_reachability_batch(
    const Ctmdp& model, const BitVector& goal, const std::vector<double>& times,
    const TimedReachabilityOptions& options) {
  return solve_horizons(model, goal, times, options, false);
}

TimedReachabilityResult evaluate_scheduler(const Ctmdp& model, const BitVector& goal,
                                           double t, const std::vector<std::uint64_t>& choice,
                                           const TimedReachabilityOptions& options) {
  check_inputs(model, goal);
  if (choice.size() != model.num_states()) {
    throw ModelError("evaluate_scheduler: choice vector size mismatch");
  }
  const auto uniform = model.uniform_rate(1e-6);
  if (!uniform) throw UniformityError("evaluate_scheduler: model is not uniform");
  const double e = *uniform;
  const std::size_t n = model.num_states();
  const Backend backend = resolve_backend(options.backend);

  for (StateId s = 0; s < n; ++s) {
    if (goal[s]) continue;
    const auto [first, last] = model.transition_range(s);
    if (first == last) continue;
    if (choice[s] < first || choice[s] >= last) {
      throw ModelError("evaluate_scheduler: choice out of range for state");
    }
  }

  TimedReachabilityResult result;
  result.uniform_rate = e;
  result.lambda = e * t;

  std::optional<Telemetry::Span> span;
  if (options.telemetry != nullptr) span.emplace(options.telemetry->span("evaluate_scheduler"));

  const PoissonWindow psi = PoissonWindow::compute(e * t, options.epsilon);
  const std::uint64_t k = psi.right();
  result.iterations_planned = k;

  RunGuard* const guard = options.guard;
  std::atomic<bool> sweep_aborted{false};
  bool stopped = false;
  std::uint64_t executed = 0;
  unsigned pool_size = 0;

  if (backend == Backend::Serial) {
    const DiscreteKernel kernel(model, goal);

    std::vector<double> q_next(n, 0.0);
    std::vector<double> q_cur(n, 0.0);

    WorkerPool pool = make_worker_pool(options.threads, n);
    pool_size = pool.size();
    std::vector<WorkerPool::Slot> delta_slot(pool.size());
    const std::vector<Counter*> row_counters =
        worker_row_counters(options.telemetry, "evaluate_scheduler.rows.worker", pool.size());
    Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

    for (std::uint64_t i = k; i >= 1; --i) {
      if (guard != nullptr && guard->poll() != RunStatus::Converged) {
        stopped = true;
        result.residual_bound = partial_residual(psi, i, options.epsilon);
        break;
      }
      const double w = psi.psi(i);
      pool.run(n, [&](unsigned worker, std::size_t begin, std::size_t end) {
        const double* q = q_next.data();
        double local_delta = 0.0;
        std::uint64_t rows = 0;
        for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
          if (guard != nullptr && guard->should_abort_sweep()) {
            sweep_aborted.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t blk_end = std::min(end, blk + kGuardBlock);
          rows += blk_end - blk;
          for (StateId s = blk; s < blk_end; ++s) {
            if (goal[s]) {
              q_cur[s] = w + q[s];
              continue;
            }
            if (kernel.state_first[s] == kernel.state_first[s + 1]) {
              q_cur[s] = 0.0;
              continue;
            }
            const double acc = kernel.transition_value(choice[s], w, q);
            const double dev = std::fabs(acc - q[s]);
            if (!(dev <= local_delta)) local_delta = dev;  // NaN-capturing max
            q_cur[s] = acc;
          }
        }
        delta_slot[worker].value = local_delta;
        if (rows_out != nullptr) rows_out[worker]->add(rows);
      });
      if (guard != nullptr && sweep_aborted.load(std::memory_order_relaxed)) {
        stopped = true;
        result.residual_bound = partial_residual(psi, i, options.epsilon);
        break;
      }
      const double delta = WorkerPool::reduce_max(delta_slot);
      if (!std::isfinite(delta)) {
        throw NumericError("evaluate_scheduler: non-finite update at step " + std::to_string(i) +
                           " (NaN/Inf reached the iterate)");
      }
      q_cur.swap(q_next);
      ++executed;
      if (guard != nullptr && guard->wants_checkpoint(executed)) {
        guard->checkpoint("evaluate_scheduler", executed, k,
                          partial_residual(psi, i - 1, options.epsilon),
                          std::span<double>(q_next.data(), q_next.size()));
        // Same trust boundary as in timed_reachability: the span is writable
        // by external code, so reject non-finite entries immediately.
        require_finite_values(q_next, "evaluate_scheduler checkpoint");
      }
    }
    result.iterations_executed = executed;
    if (stopped) {
      result.status = guard->status();
      result.iterate = q_next;
    } else {
      result.residual_bound = options.epsilon;
    }
    require_finite_values(q_next, "evaluate_scheduler");
    result.values = std::move(q_next);
  } else {
    // Dense engine: evaluate ignores `avoid` exactly as the serial path
    // does, so the kernel is built without an avoid mask.
    const DenseKernel kernel(model, goal, BitVector{});
    const KernelOps& ops = kernel_ops(backend);
    const DenseKernelView view = kernel.view();
    const DenseBridge bridge{kernel, goal};
    const std::uint64_t rows = kernel.num_rows();

    // Map the per-state choice onto dense transition indices once;
    // transitionless states keep the 0-pinned sentinel.
    std::vector<std::uint64_t> dchoice(rows, kNoTransition);
    for (std::uint64_t r = 0; r < rows; ++r) {
      const StateId s = kernel.dense_state[r];
      const auto [first, last] = model.transition_range(s);
      if (first == last) continue;
      dchoice[r] = kernel.row_first[r] + (choice[s] - first);
    }

    std::vector<double> dq_next(rows, 0.0);
    std::vector<double> dq_cur(rows, 0.0);
    std::vector<double> q_full(n, 0.0);
    double goal_value = 0.0;

    WorkerPool pool = make_worker_pool(options.threads, rows);
    pool_size = pool.size();
    std::vector<WorkerPool::Slot> delta_slot(pool.size());
    const std::vector<Counter*> row_counters =
        worker_row_counters(options.telemetry, "evaluate_scheduler.rows.worker", pool.size());
    Counter* const* const rows_out = row_counters.empty() ? nullptr : row_counters.data();

    for (std::uint64_t i = k; i >= 1; --i) {
      if (guard != nullptr && guard->poll() != RunStatus::Converged) {
        stopped = true;
        result.residual_bound = partial_residual(psi, i, options.epsilon);
        break;
      }
      const double gi = psi.psi(i) + goal_value;
      pool.run(rows, [&](unsigned worker, std::size_t begin, std::size_t end) {
        const double* q = dq_next.data();
        double local_delta = 0.0;
        std::uint64_t swept = 0;
        for (std::size_t blk = begin; blk < end; blk += kGuardBlock) {
          if (guard != nullptr && guard->should_abort_sweep()) {
            sweep_aborted.store(true, std::memory_order_relaxed);
            break;
          }
          const std::size_t blk_end = std::min(end, blk + kGuardBlock);
          swept += blk_end - blk;
          const double d =
              ops.choice_rows(view, gi, q, dchoice.data(), dq_cur.data(), blk, blk_end);
          if (!(d <= local_delta)) local_delta = d;  // NaN-capturing max
        }
        delta_slot[worker].value = local_delta;
        if (rows_out != nullptr) rows_out[worker]->add(swept);
      });
      if (guard != nullptr && sweep_aborted.load(std::memory_order_relaxed)) {
        stopped = true;
        result.residual_bound = partial_residual(psi, i, options.epsilon);
        break;
      }
      const double delta = WorkerPool::reduce_max(delta_slot);
      if (!std::isfinite(delta)) {
        throw NumericError("evaluate_scheduler: non-finite update at step " + std::to_string(i) +
                           " (NaN/Inf reached the iterate)");
      }
      dq_cur.swap(dq_next);
      goal_value = gi;
      ++executed;
      if (guard != nullptr && guard->wants_checkpoint(executed)) {
        bridge.materialize(dq_next, goal_value, q_full);
        guard->checkpoint("evaluate_scheduler", executed, k,
                          partial_residual(psi, i - 1, options.epsilon),
                          std::span<double>(q_full.data(), q_full.size()));
        require_finite_values(q_full, "evaluate_scheduler checkpoint");
        goal_value = bridge.ingest(q_full, dq_next);
      }
    }
    result.iterations_executed = executed;
    bridge.materialize(dq_next, goal_value, q_full);
    if (stopped) {
      result.status = guard->status();
      result.iterate = q_full;
    } else {
      result.residual_bound = options.epsilon;
    }
    require_finite_values(q_full, "evaluate_scheduler");
    result.values = std::move(q_full);
    if (span) span->metric("dense_rows", rows);
  }

  for (StateId s = 0; s < n; ++s) {
    result.values[s] = goal[s] ? 1.0 : clamp01(result.values[s]);
  }
  if (span) {
    span->metric("states", n);
    span->metric("transitions", model.num_transitions());
    span->metric("uniform_rate", e);
    span->metric("lambda", result.lambda);
    span->metric("poisson_left", psi.left());
    span->metric("poisson_right", k);
    span->metric("poisson_width", k - psi.left() + 1);
    span->metric("iterations_planned", k);
    span->metric("iterations_executed", executed);
    span->metric("threads", pool_size);
    span->metric("residual_bound", result.residual_bound);
  }
  return result;
}

std::vector<double> step_bounded_reachability(const Ctmdp& model, const BitVector& goal,
                                              std::uint64_t steps, Objective objective,
                                              unsigned threads, RunGuard* guard,
                                              Backend backend_option) {
  check_inputs(model, goal);
  const std::size_t n = model.num_states();
  const bool maximize = objective == Objective::Maximize;
  const Backend backend = resolve_backend(backend_option);

  if (backend == Backend::Serial) {
    const DiscreteKernel kernel(model, goal);

    std::vector<double> v(n, 0.0);
    std::vector<double> next(n, 0.0);
    for (StateId s = 0; s < n; ++s) v[s] = goal[s] ? 1.0 : 0.0;

    WorkerPool pool = make_worker_pool(threads, n);
    for (std::uint64_t step = 0; step < steps; ++step) {
      if (guard != nullptr) guard->check("step_bounded_reachability");
      pool.run(n, [&](unsigned, std::size_t begin, std::size_t end) {
        const double* q = v.data();
        for (StateId s = begin; s < end; ++s) {
          if (goal[s]) {
            next[s] = 1.0;
            continue;
          }
          const std::uint64_t first = kernel.state_first[s];
          const std::uint64_t last = kernel.state_first[s + 1];
          double best = first == last ? 0.0 : (maximize ? -1.0 : 2.0);
          for (std::uint64_t tr = first; tr < last; ++tr) {
            const double acc = kernel.transition_value(tr, 0.0, q);
            best = maximize ? std::max(best, acc) : std::min(best, acc);
          }
          next[s] = best;
        }
      });
      v.swap(next);
    }
    return v;
  }

  // Dense engine: goal states are pinned at 1.0 for every step, so the goal
  // iterate is the constant 1 and the psi weight is 0 — relax with
  // gval = 1.0 reproduces transition_value(tr, 0.0, q) with the goal mass
  // folded.
  const DenseKernel kernel(model, goal, BitVector{});
  const KernelOps& ops = kernel_ops(backend);
  const DenseKernelView view = kernel.view();
  const DenseBridge bridge{kernel, goal};
  const std::uint64_t rows = kernel.num_rows();

  std::vector<double> dq(rows, 0.0);
  std::vector<double> dnext(rows, 0.0);

  WorkerPool pool = make_worker_pool(threads, rows);
  for (std::uint64_t step = 0; step < steps; ++step) {
    if (guard != nullptr) guard->check("step_bounded_reachability");
    pool.run(rows, [&](unsigned, std::size_t begin, std::size_t end) {
      ops.relax_rows(view, 1.0, maximize, dq.data(), dnext.data(), nullptr, begin, end);
    });
    dq.swap(dnext);
  }

  std::vector<double> v(n, 0.0);
  bridge.materialize(dq, 1.0, v);
  return v;
}

}  // namespace unicon
