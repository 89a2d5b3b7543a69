/// \file paper.cpp
/// paper_n6 / paper_n48: one long Section 5.2 track smoothed with
/// covariances through SmootherEngine::submit with Backend::Auto, on a
/// kLanes-lane engine and on a 1-lane engine, alternating.  latency_s is
/// the kLanes-lane smooth, rate_per_s the 1-lane engine's smooths per
/// second.  The traced run reports the engine/parallel counters of the
/// timed smooths and probes the other layers on the same track: the la
/// kernels at its block shape, the core solvers called directly (Table 1's
/// work ratio and Fig. 3's speed-up), a streaming session and a serving
/// tier.

#include <cstdio>
#include <optional>

#include "checks.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "kalman/rts.hpp"
#include "kalman/simulate.hpp"
#include "la/random.hpp"
#include "la/types.hpp"
#include "layer_metrics.hpp"
#include "probes.hpp"

namespace perfbench {

using namespace pitk;
using engine::Backend;
using engine::JobMetrics;
using engine::SmootherEngine;
using kalman::SmootherResult;
using la::index;

namespace {

/// Smooths per engine before timing: the first covers every lazily built
/// pool, solver cache and result storage, the second confirms them warm.
constexpr int kWarmups = 2;
/// The timed loop runs whole rounds until --seconds have passed, and never
/// fewer than this many.
constexpr std::uint64_t kMinRounds = 5;
/// The reported smooth times are means over every timed smooth without the
/// fastest and slowest kTrim share: single smooths fall near one of two
/// levels, so a median jumps between them while the mean follows their mix
/// smoothly.
constexpr double kTrim = 0.1;
/// Traced-run probes: repetitions of each core phase, steps appended to
/// the session probe, requests sent through the serve probe.
constexpr int kProbeReps = 3;
constexpr int kProbeAppends = 64;
constexpr int kProbeRequests = 4;

/// One engine of the workload and what its route must be.
struct Lane {
  SmootherEngine& eng;
  SmootherResult out;        ///< warm caller-owned result storage
  Backend route;             ///< backend Auto must pick
  bool large;                ///< intra-parallel path expected
  const char* span;
  std::vector<double> wall;  ///< timed smooths, seconds
  std::vector<JobMetrics> metrics;
  std::uint64_t allocs = 0;  ///< la::aligned_alloc_count delta over timed smooths
  std::uint64_t tasks = 0;   ///< pool tasks over timed smooths
  double busy = 0.0;         ///< pool busy seconds over timed smooths
};

/// One Auto smooth of `p` on `lane`, into its warm storage.  The problem
/// copy the by-value submit consumes is made before the clock starts.
/// Returns false (and counts nothing) when the job failed.
bool smooth_once(Lane& lane, const kalman::Problem& p, bool record, Tracer& tr,
                 Report& rep) {
  kalman::Problem copy = p;
  engine::JobOptions o;
  o.into = &lane.out;
  const std::uint64_t a0 = la::aligned_alloc_count();
  const std::uint64_t t0_tasks = lane.eng.pool().tasks_executed();
  const double b0 = lane.eng.pool().busy_seconds();
  const auto t0 = Clock::now();
  engine::JobResult jr;
  try {
    Span s(tr, lane.span);
    auto fut = lane.eng.submit(std::move(copy), o);
    lane.eng.wait_idle();
    jr = fut.get();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: smooth failed: %s\n", e.what());
    return false;
  }
  const double wall = seconds_since(t0);
  if (jr.metrics.backend != lane.route || jr.metrics.intra_parallel != lane.large)
    rep.fail(std::string("routing: ") + lane.span + " served by " +
             engine::backend_info(jr.metrics.backend).name +
             (jr.metrics.intra_parallel ? " (large)" : " (small)"));
  if (record) {
    lane.wall.push_back(wall);
    lane.metrics.push_back(jr.metrics);
    lane.allocs += la::aligned_alloc_count() - a0;
    lane.tasks += lane.eng.pool().tasks_executed() - t0_tasks;
    lane.busy += lane.eng.pool().busy_seconds() - b0;
  }
  return true;
}

void check_result(const kalman::Problem& p, const SmootherResult& r, const char* what,
                  CheckTally& opt, Report& rep) {
  if (!opt.add(optimality_residual(p, std::nullopt, r.means)))
    rep.fail(std::string(what) + ": means violate the least-squares optimality condition");
  std::string why;
  if (!covariances_well_formed(r.covariances, &why) ||
      static_cast<index>(r.covariances.size()) != p.num_states())
    rep.fail(std::string(what) + ": " + (why.empty() ? "covariance count" : why));
}

}  // namespace

void run_paper(const Args& a, long n_in, long k_in, Report& rep, Tracer& tr) {
  const auto n = static_cast<index>(n_in);
  const auto k = static_cast<index>(k_in);
  Span root(tr, n == 6 ? "bench.paper_n6" : "bench.paper_n48");

  const auto gen0 = Clock::now();
  la::Rng rng(a.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(n));
  const kalman::Problem p = kalman::make_paper_benchmark(rng, n, k);
  const double gen_s = seconds_since(gen0);

  engine::EngineOptions mo;
  mo.threads = kLanes;
  engine::EngineOptions so;
  so.threads = 1;
  SmootherEngine multi(mo);
  SmootherEngine single(so);
  Lane lanes[2] = {
      {multi, {}, Backend::OddEven, true, "engine.smooth", {}, {}},
      {single, {}, Backend::PaigeSaunders, false, "engine.smooth_1lane", {}, {}},
  };
  for (int w = 0; w < kWarmups; ++w)
    for (Lane& l : lanes)
      if (!smooth_once(l, p, false, tr, rep)) rep.fail("warm-up smooth failed");
  const double setup_s = seconds_since(process_start) - gen_s;
  std::fprintf(stderr, "perfbench: %s n=%ld k=%ld lanes=%u+1 setup %.3fs (inputs %.3fs)\n",
               n == 6 ? "paper_n6" : "paper_n48", n_in, k_in, kLanes, setup_s, gen_s);

  const engine::EngineStats st0[2] = {multi.stats(), single.stats()};
  CheckTally opt{"optimality", kOptimalityTol};
  std::uint64_t rounds = 0;
  std::uint64_t failed = 0;
  // The traced run spends its first half untraced and its second half
  // traced, so the ratio of the two medians is the tracing overhead.
  const bool trace = tr.enabled();
  const double untraced_until = trace ? a.seconds / 2 : a.seconds;
  std::size_t untraced_samples = 0;
  tr.set_enabled(false);
  const auto tm0 = Clock::now();
  while (rounds < kMinRounds || seconds_since(tm0) < a.seconds) {
    if (trace && untraced_samples == 0 && seconds_since(tm0) >= untraced_until &&
        rounds >= kMinRounds / 2) {
      untraced_samples = lanes[0].wall.size();
      tr.set_enabled(true);
    }
    for (Lane& l : lanes) {
      if (!smooth_once(l, p, true, tr, rep)) {
        ++failed;
        continue;
      }
      check_result(p, l.out, l.span, opt, rep);
    }
    ++rounds;
  }
  const double peak = peak_rss_mb();
  tr.set_enabled(trace);
  rep.attempted(2 * rounds);
  rep.failed(failed);

  // Reference: RTS on the exact prior-form of the same problem.
  {
    const auto [q, prior] = observation_as_prior(p);
    const SmootherResult ref = kalman::rts_smooth(q, prior);
    for (Lane& l : lanes) {
      const double dm = max_deviation(l.out.means, ref.means);
      const double dc = max_deviation(l.out.covariances, ref.covariances);
      std::fprintf(stderr, "perfbench: %s vs RTS: means %.2e covariances %.2e\n", l.span, dm,
                   dc);
      if (!(dm <= kReferenceTol) || !(dc <= kReferenceTol))
        rep.fail(std::string(l.span) + " disagrees with RTS");
    }
  }
  std::fprintf(stderr, "perfbench: %llu rounds, worst optimality residual %.2e\n",
               static_cast<unsigned long long>(rounds), opt.worst);
  for (const Lane& l : lanes)
    std::fprintf(stderr, "perfbench: %s q10 %.4fs q50 %.4fs q90 %.4fs\n", l.span,
                 quantile(l.wall, 0.1), quantile(l.wall, 0.5), quantile(l.wall, 0.9));

  if (!trace) {
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak, "MB");
    rep.metric("latency_s", trimmed_mean(lanes[0].wall, kTrim), "s");
    rep.metric("rate_per_s", 1.0 / trimmed_mean(lanes[1].wall, kTrim), "1/s");
    return;
  }

  Lane& m = lanes[0];
  const double ops = static_cast<double>(m.wall.size());
  const std::vector<double> untraced(m.wall.begin(),
                                     m.wall.begin() + static_cast<long>(untraced_samples));
  const std::vector<double> traced(m.wall.begin() + static_cast<long>(untraced_samples),
                                   m.wall.end());
  double wall_total = 0.0;
  for (double w : m.wall) wall_total += w;
  std::vector<double> solve, queue;
  for (const JobMetrics& jm : m.metrics) {
    solve.push_back(jm.solve_seconds);
    queue.push_back(jm.queue_seconds);
  }
  rep.metric("la.gflops", engine::estimated_flops(p, true) / median(solve) * 1e-9, "GFLOP/s");
  rep.metric("la.allocs_per_op", static_cast<double>(m.allocs) / ops, "count");
  rep.metric("parallel.utilization", m.busy / (wall_total * kLanes), "ratio");
  rep.metric("parallel.tasks_per_op", static_cast<double>(m.tasks) / ops, "count");
  rep.metric("engine.queue_s", median(queue), "s");
  rep.metric("engine.solve_s", median(solve), "s");
  report_engine_jobs({multi.stats(), single.stats()}, {st0[0], st0[1]}, rounds, rep);
  rep.metric("trace.overhead", median(traced) / median(untraced), "ratio");
  rep.metric("core.gauss_newton.iterations", 0.0, "count");  // no nonlinear jobs
  probe_kernels(n, tr, rep);
  {
    const auto [q, prior] = observation_as_prior(p);
    probe_core(p, q, prior, kProbeReps, tr, rep);
  }
  probe_session(multi, p, kProbeAppends, tr, rep);
  probe_serve(p, kProbeRequests, 2, tr, rep);
}

}  // namespace perfbench
