#pragma once

/// \file probes.hpp
/// Per-layer probes of the traced runs.  Every workload reports every
/// per-layer metric: a layer the workload drives is measured on the
/// workload's own operations, and the others by a probe at the workload's
/// shape (its block size n and its track), so each figure answers "what
/// does this layer cost on this workload's inputs".

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "kalman/model.hpp"
#include "pitk/serve.hpp"

namespace perfbench {

/// Median seconds of `reps` calls of `fn`.
template <class Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// la.gemm_ns (n x n x n) and la.qr_ns (2n x n) at block size `n`.
void probe_kernels(pitk::la::index n, Tracer& tr, Report& rep);

/// The core solvers called directly on all lanes and on one:
/// core.oddeven.*, core.paige_saunders.*, core.selinv_s,
/// core.associative_s and core.filter.step_us.  `p` is the QR form of the
/// track; `q` with `prior` is the same posterior in prior form (what the
/// associative smoother takes).  Each phase is timed `reps` times.
void probe_core(const pitk::kalman::Problem& p, const pitk::kalman::Problem& q,
                const pitk::kalman::GaussianPrior& prior, int reps, Tracer& tr, Report& rep);

/// engine.session.*: a session on `eng` fed every step of `p` but the last
/// `appends`, one cold smooth_async, then "append one step, smooth_into
/// with covariances" for each remaining step.  Fails the report when the
/// final smooth is not optimal for `p`.
void probe_session(pitk::engine::SmootherEngine& eng, const pitk::kalman::Problem& p,
                   int appends, Tracer& tr, Report& rep);

/// serve.*: `requests` copies of `p` through a one-shard ServingTier from a
/// Standard tenant, `window` outstanding at a time.
void probe_serve(const pitk::kalman::Problem& p, int requests, int window, Tracer& tr,
                 Report& rep);

/// The serve.* metrics from tier counters before (`ts0`) and after (`ts`)
/// `requests` completed requests and the per-request samples: seconds
/// inside submit, submit to future-ready, and that latency minus the
/// engine's queue and solve time.  Flush counts are per request.
void report_serve(const pitk::serve::TierStats& ts, const pitk::serve::TierStats& ts0,
                  double requests, const std::vector<double>& admit,
                  const std::vector<double>& latency, const std::vector<double>& buffer_wait,
                  Report& rep);

/// Feed step `i` of `p` (evolution, then observation) into a session or
/// filter.  Only square (H = I) evolutions are replayed.
template <class Sink>
void replay_step(Sink& s, const pitk::kalman::Problem& p, pitk::la::index i) {
  const pitk::kalman::TimeStep& st = p.step(i);
  if (st.evolution) s.evolve(st.evolution->F, st.evolution->c, st.evolution->noise);
  if (st.observation) s.observe(st.observation->G, st.observation->o, st.observation->noise);
}

}  // namespace perfbench
