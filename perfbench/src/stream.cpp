/// \file stream.cpp
/// stream: kSessions linear streaming sessions at n=6 (the Section 5.2 model
/// fed step by step).  One epoch opens the sessions, feeds each to
/// kColdStates states (the write half), smooths each once with a cold
/// smooth_async (the >= 4096-state odd-even route), then runs kRounds
/// rounds of "append one step, then smooth_into with covariances" on every
/// session (the read half, served by the truncated delta path).  A run
/// repeats whole epochs, rebuilding its sessions each time, and reports
/// over all of them, so no single memory layout decides the figures.
/// latency_s is the time of one append-plus-smooth_into, rate_per_s the
/// ingest steps (evolve+observe) per second.

#include <cstdio>
#include <utility>

#include "checks.hpp"
#include "common.hpp"
#include "engine/session.hpp"
#include "kalman/rts.hpp"
#include "la/random.hpp"
#include "la/types.hpp"
#include "layer_metrics.hpp"
#include "probes.hpp"

namespace perfbench {

using namespace pitk;
using engine::Backend;
using engine::Session;
using kalman::CovFactor;
using kalman::SmootherResult;
using la::index;

namespace {

constexpr int kSessions = 8;
constexpr index kN = 6;
constexpr index kColdStates = 4097;  ///< states fed before the cold smooth
constexpr int kRounds = 640;         ///< append+resmooth rounds per epoch
constexpr std::uint64_t kMinEpochs = 3;
/// Both end-to-end figures are means over the run's epochs without the
/// fastest and slowest kTrim share: an epoch's rates fall near one of two
/// levels ~30% apart (the level changes with the fresh sessions' memory),
/// so a median over epochs jumps between the levels while the mean follows
/// their mix smoothly.
constexpr double kTrim = 0.1;
/// Traced-run probes: repetitions of each core phase, requests sent
/// through the serve probe.
constexpr int kProbeReps = 5;
constexpr int kProbeRequests = 8;
/// One session's stream: the model and every observation it will see.
struct Track {
  la::Matrix f, g;
  std::vector<la::Vector> obs;  ///< kColdStates + kRounds observations
  kalman::Problem prefix, full;  ///< batch forms of the cold and final tracks
  SmootherResult prefix_ref, full_ref;
};

void feed(Session& s, const Track& t, index i) {
  if (i > 0) s.evolve(t.f, la::Vector(), CovFactor::identity(kN));
  s.observe(t.g, t.obs[static_cast<std::size_t>(i)], CovFactor::identity(kN));
}

kalman::Problem batch_form(const Track& t, index states) {
  kalman::Problem p;
  p.start(kN);
  for (index i = 0; i < states; ++i) {
    if (i > 0) p.evolve(t.f, la::Vector(), CovFactor::identity(kN));
    p.observe(t.g, t.obs[static_cast<std::size_t>(i)], CovFactor::identity(kN));
  }
  return p;
}

/// Reference answers: RTS (a different algorithm) on the exact prior form
/// of each batch problem.
SmootherResult rts_reference(const kalman::Problem& p) {
  const auto [q, prior] = observation_as_prior(p);
  return kalman::rts_smooth(q, prior);
}

struct Totals {
  std::vector<double> ingest_rate;  ///< steps per second, one per epoch
  std::vector<double> cold;        ///< seconds per cold smooth
  std::vector<double> cold_queue, cold_solve;  ///< JobMetrics of the cold smooths
  double resmooth_s = 0.0;            ///< the current epoch's read half
  std::vector<double> resmooth_rate;  ///< operations per second, one per epoch
  std::vector<double> smooth_into; ///< seconds per smooth_into (traced runs)
  std::vector<double> windows;     ///< states updated per truncated pass
  std::uint64_t truncated = 0, misses = 0;
  std::uint64_t allocs = 0;        ///< la allocations inside smooth_into
  std::uint64_t cold_oddeven = 0;
  std::uint64_t failed = 0;
  double first_sync_s = 0.0;       ///< first smooth_into after the cold smooth
};

/// One epoch.  With `check`, every cold and final result is compared with
/// the references.
void epoch(engine::SmootherEngine& eng, const std::vector<Track>& tracks, bool check,
           bool detail, Totals& tot, CheckTally& agree, CheckTally& opt, Tracer& tr,
           Report& rep) {
  std::vector<Session> sessions;
  for (int s = 0; s < kSessions; ++s) sessions.push_back(eng.open_session(kN));
  std::vector<SmootherResult> cold(kSessions), out(kSessions);

  auto t0 = Clock::now();
  {
    Span sp(tr, "engine.session.ingest");
    for (index i = 0; i < kColdStates; ++i)
      for (int s = 0; s < kSessions; ++s) feed(sessions[s], tracks[s], i);
  }
  tot.ingest_rate.push_back(static_cast<double>(kSessions * kColdStates) / seconds_since(t0));

  for (int s = 0; s < kSessions; ++s) {
    t0 = Clock::now();
    engine::JobResult jr;
    try {
      Span sp(tr, "engine.session.smooth_async");
      auto fut = sessions[s].smooth_async(true, &cold[s]);
      eng.wait_idle();
      jr = fut.get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: cold smooth failed: %s\n", e.what());
      ++tot.failed;
      continue;
    }
    tot.cold.push_back(seconds_since(t0));
    tot.cold_queue.push_back(jr.metrics.queue_seconds);
    tot.cold_solve.push_back(jr.metrics.solve_seconds);
    if (jr.metrics.backend == Backend::OddEven && jr.metrics.intra_parallel)
      ++tot.cold_oddeven;
    else
      rep.fail(std::string("routing: cold session smooth served by ") +
               engine::backend_info(jr.metrics.backend).name);
  }

  // The first synchronous smooth after the async one splices the whole
  // track into the separate sync cache; it is set-up for the read half.
  t0 = Clock::now();
  for (int s = 0; s < kSessions; ++s) sessions[s].smooth_into(out[s], true);
  tot.first_sync_s += seconds_since(t0);

  tot.resmooth_s = 0.0;
  std::vector<engine::SessionStats> st0(kSessions);
  for (int s = 0; s < kSessions; ++s) st0[s] = sessions[s].stats();
  for (int r = 0; r < kRounds; ++r) {
    const index i = kColdStates + r;
    for (int s = 0; s < kSessions; ++s) {
      const auto a0 = Clock::now();
      {
        Span sp(tr, "engine.session.append");
        feed(sessions[s], tracks[s], i);
      }
      if (!detail) {
        sessions[s].smooth_into(out[s], true);
        tot.resmooth_s += seconds_since(a0);
        continue;
      }
      const engine::SessionStats before = sessions[s].stats();
      const std::uint64_t al0 = la::aligned_alloc_count();
      const auto b0 = Clock::now();
      {
        Span sp(tr, "engine.session.smooth_into");
        sessions[s].smooth_into(out[s], true);
      }
      const auto b1 = Clock::now();
      tot.allocs += la::aligned_alloc_count() - al0;
      tot.resmooth_s += seconds_between(a0, b1);
      tot.smooth_into.push_back(seconds_between(b0, b1));
      const engine::SessionStats after = sessions[s].stats();
      if (after.truncated_resmooths > before.truncated_resmooths)
        tot.windows.push_back(static_cast<double>(
            i + 1 - static_cast<index>(after.steps_truncation_skipped -
                                       before.steps_truncation_skipped)));
    }
  }
  tot.resmooth_rate.push_back(static_cast<double>(kSessions * kRounds) / tot.resmooth_s);
  for (int s = 0; s < kSessions; ++s) {
    const engine::SessionStats st = sessions[s].stats();
    tot.truncated += st.truncated_resmooths - st0[s].truncated_resmooths;
    tot.misses += st.resmooth_misses - st0[s].resmooth_misses;
  }

  if (!check) return;
  Span sp(tr, "bench.check");
  for (int s = 0; s < kSessions; ++s) {
    const Track& t = tracks[s];
    const struct {
      const char* what;
      const SmootherResult& got;
      const kalman::Problem& p;
      const SmootherResult& ref;
    } cases[2] = {{"cold smooth", cold[s], t.prefix, t.prefix_ref},
                  {"final smooth", out[s], t.full, t.full_ref}};
    for (const auto& c : cases) {
      if (!agree.add(std::max(max_deviation(c.got.means, c.ref.means),
                              max_deviation(c.got.covariances, c.ref.covariances))))
        rep.fail(std::string("session ") + c.what + " disagrees with a cold batch smooth");
      if (!opt.add(optimality_residual(c.p, std::nullopt, c.got.means)))
        rep.fail(std::string("session ") + c.what + " violates the optimality condition");
    }
  }
}

}  // namespace

void run_stream(const Args& a, Report& rep, Tracer& tr) {
  Span root(tr, "bench.stream");
  const auto gen0 = Clock::now();
  la::Rng rng(a.seed * 0xA0761D6478BD642FULL + 0x5E55);
  std::vector<Track> tracks(kSessions);
  for (Track& t : tracks) {
    t.f = la::random_orthonormal(rng, kN);
    t.g = la::random_orthonormal(rng, kN);
    for (index i = 0; i < kColdStates + kRounds; ++i)
      t.obs.push_back(la::random_gaussian_vector(rng, kN));
  }
  const double gen_s = seconds_since(gen0);

  engine::EngineOptions eo;
  eo.threads = kLanes;
  engine::SmootherEngine eng(eo);
  CheckTally agree{"session agreement", kSessionTol};
  CheckTally opt{"optimality", kOptimalityTol};
  {
    Totals warm;
    epoch(eng, tracks, false, false, warm, agree, opt, tr, rep);
  }
  const double setup_s = seconds_since(process_start) - gen_s;
  std::fprintf(stderr,
               "perfbench: stream %d sessions x %ld states + %d appends, %u lanes; setup %.3fs "
               "(inputs %.3fs)\n",
               kSessions, static_cast<long>(kColdStates), kRounds, kLanes, setup_s, gen_s);

  {
    Span sp(tr, "bench.reference");
    for (Track& t : tracks) {
      t.prefix = batch_form(t, kColdStates);
      t.full = batch_form(t, kColdStates + kRounds);
      t.prefix_ref = rts_reference(t.prefix);
      t.full_ref = rts_reference(t.full);
    }
  }

  const engine::EngineStats st0 = eng.stats();
  const double busy0 = eng.pool().busy_seconds();
  const std::uint64_t tasks0 = eng.pool().tasks_executed();
  const bool trace = tr.enabled();
  tr.set_enabled(false);
  Totals tot;
  std::uint64_t epochs = 0;
  std::size_t untraced_ops = 0;
  double peak = 0.0;
  const auto tm0 = Clock::now();
  while (epochs < kMinEpochs || seconds_since(tm0) < a.seconds) {
    // The traced run's first half is untraced; the ratio of the halves'
    // smooth_into medians is the tracing overhead.
    if (trace && !tr.enabled() && seconds_since(tm0) >= a.seconds / 2 && epochs >= 1) {
      untraced_ops = tot.smooth_into.size();
      tr.set_enabled(true);
    }
    epoch(eng, tracks, true, trace, tot, agree, opt, tr, rep);
    ++epochs;
    peak = std::max(peak, peak_rss_mb());
  }
  const double wall = seconds_since(tm0);
  tr.set_enabled(trace);
  rep.attempted(epochs * kSessions * (1 + kRounds));
  rep.failed(tot.failed);
  std::fprintf(stderr,
               "perfbench: %llu epochs; worst session deviation %.2e (bound %.2e), "
               "optimality %.2e; first smooth_into after a cold smooth %.4fs per epoch\n",
               static_cast<unsigned long long>(epochs), agree.worst, kSessionTol, opt.worst,
               tot.first_sync_s / static_cast<double>(epochs));
  for (const auto& [what, v] : {std::pair{"ingest steps/s", &tot.ingest_rate},
                                std::pair{"resmooths/s", &tot.resmooth_rate}})
    std::fprintf(stderr, "perfbench: %s per epoch q10 %.0f q50 %.0f q90 %.0f\n", what,
                 quantile(*v, 0.1), quantile(*v, 0.5), quantile(*v, 0.9));

  if (!trace) {
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak, "MB");
    rep.metric("latency_s", 1.0 / trimmed_mean(tot.resmooth_rate, kTrim), "s");
    rep.metric("rate_per_s", trimmed_mean(tot.ingest_rate, kTrim), "1/s");
    return;
  }

  const double ops = static_cast<double>(tot.smooth_into.size());
  rep.metric("la.allocs_per_op", static_cast<double>(tot.allocs) / ops, "count");
  report_engine_jobs({eng.stats()}, {st0}, epochs, rep);
  rep.metric("engine.session.window_states", [&] {
    double s = 0.0;
    for (double w : tot.windows) s += w;
    return tot.windows.empty() ? 0.0 : s / static_cast<double>(tot.windows.size());
  }(), "count");
  rep.metric("engine.session.truncated_share",
             static_cast<double>(tot.truncated) / static_cast<double>(tot.misses), "ratio");
  rep.metric("engine.session.resmooth_us", median(tot.smooth_into) * 1e6, "us");
  rep.metric("engine.session.cold_oddeven",
             static_cast<double>(tot.cold_oddeven) / static_cast<double>(epochs), "count");
  rep.metric("engine.session.cold_smooth_s", median(tot.cold), "s");
  const std::vector<double> untraced(tot.smooth_into.begin(),
                                     tot.smooth_into.begin() + static_cast<long>(untraced_ops));
  const std::vector<double> traced(tot.smooth_into.begin() + static_cast<long>(untraced_ops),
                                   tot.smooth_into.end());
  rep.metric("trace.overhead", median(traced) / median(untraced), "ratio");
  rep.metric("la.gflops",
             engine::estimated_flops(tracks[0].prefix, true) / median(tot.cold_solve) * 1e-9,
             "GFLOP/s");
  rep.metric("parallel.utilization",
             (eng.pool().busy_seconds() - busy0) / (wall * eng.concurrency()), "ratio");
  rep.metric("parallel.tasks_per_op",
             static_cast<double>(eng.pool().tasks_executed() - tasks0) /
                 static_cast<double>(epochs * kSessions * (1 + kRounds)),
             "count");
  rep.metric("engine.queue_s", median(tot.cold_queue), "s");
  rep.metric("engine.solve_s", median(tot.cold_solve), "s");
  rep.metric("core.gauss_newton.iterations", 0.0, "count");  // no nonlinear jobs

  // Layers the sessions do not reach on their own (the kernels, the core
  // solvers called directly, a serving tier), probed on session 0's cold
  // track.
  probe_kernels(kN, tr, rep);
  {
    const auto [q, prior] = observation_as_prior(tracks[0].prefix);
    probe_core(tracks[0].prefix, q, prior, kProbeReps, tr, rep);
  }
  probe_serve(tracks[0].prefix, kProbeRequests, 2, tr, rep);
}

}  // namespace perfbench
