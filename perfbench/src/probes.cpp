/// \file probes.cpp
/// Per-layer probes shared by the workloads' traced runs (see probes.hpp).

#include "probes.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "core/associative.hpp"
#include "core/filter.hpp"
#include "core/oddeven.hpp"
#include "core/paige_saunders.hpp"
#include "core/selinv.hpp"
#include "engine/session.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/random.hpp"
#include "la/types.hpp"
#include "pitk/serve.hpp"

namespace perfbench {

using namespace pitk;
using kalman::SmootherResult;
using la::index;

namespace {

/// Nanoseconds per call of `fn`, median over batches of `batch` calls.
template <class Fn>
double ns_per_call(int batch, Fn&& fn) {
  return 1e9 / batch * time_median(31, [&] {
           for (int i = 0; i < batch; ++i) fn();
         });
}

}  // namespace

void probe_kernels(index n, Tracer& tr, Report& rep) {
  la::Rng rng(0xB10C5);
  const la::Matrix a = la::random_gaussian(rng, n, n);
  const la::Matrix b = la::random_gaussian(rng, n, n);
  la::Matrix c(n, n);
  const la::Matrix stacked = la::random_gaussian(rng, 2 * n, n);
  la::Matrix work(2 * n, n);
  std::vector<double> tau(static_cast<std::size_t>(n));
  {
    Span s(tr, "la.gemm");
    rep.metric("la.gemm_ns", ns_per_call(256, [&] {
                 la::gemm(1.0, a, la::Trans::No, b, la::Trans::No, 0.0, c);
               }), "ns");
  }
  {
    Span s(tr, "la.qr");
    rep.metric("la.qr_ns", ns_per_call(256, [&] {
                 work.assign_from(stacked);
                 la::qr_factor(work, tau);
               }), "ns");
  }
}

void probe_core(const kalman::Problem& p, const kalman::Problem& q,
                const kalman::GaussianPrior& prior, int reps, Tracer& tr, Report& rep) {
  par::ThreadPool all(kLanes);
  par::ThreadPool one(1);
  const index grain = par::default_grain;
  // Odd-even phases, median seconds each, on `pool`.
  const auto oddeven_phases = [&](par::ThreadPool& pool, const char* factor_span,
                                  const char* solve_span, const char* selinv_span) {
    std::vector<la::Vector> sol;
    std::vector<la::Matrix> covs;
    kalman::OddEvenCovScratch scratch;
    std::vector<double> tf, ts, tc;
    for (int r = 0; r < reps; ++r) {
      auto t0 = Clock::now();
      const kalman::OddEvenFactor f = [&] {
        Span s(tr, factor_span);
        return kalman::oddeven_factor(p, pool, grain);
      }();
      tf.push_back(seconds_since(t0));
      t0 = Clock::now();
      {
        Span s(tr, solve_span);
        kalman::oddeven_solve_into(f, pool, grain, sol);
      }
      ts.push_back(seconds_since(t0));
      t0 = Clock::now();
      {
        Span s(tr, selinv_span);
        kalman::oddeven_covariances_into(f, pool, grain, scratch, covs);
      }
      tc.push_back(seconds_since(t0));
    }
    return std::array<double, 3>{median(tf), median(ts), median(tc)};
  };
  const auto oe_all = oddeven_phases(all, "core.oddeven.factor", "core.oddeven.solve",
                                     "core.oddeven.selinv");
  const auto oe_one = oddeven_phases(one, "core.oddeven.factor_1lane",
                                     "core.oddeven.solve_1lane", "core.oddeven.selinv_1lane");
  const double oe_lane1 = oe_one[0] + oe_one[1] + oe_one[2];
  rep.metric("core.oddeven.factor_s", oe_all[0], "s");
  rep.metric("core.oddeven.solve_s", oe_all[1], "s");
  rep.metric("core.oddeven.selinv_s", oe_all[2], "s");
  rep.metric("core.oddeven.1lane_s", oe_lane1, "s");
  rep.metric("core.oddeven.speedup", oe_lane1 / (oe_all[0] + oe_all[1] + oe_all[2]), "x");

  kalman::BidiagonalFactor bf;
  std::vector<la::Vector> u;
  std::vector<la::Matrix> s;
  const double ps_factor = time_median(reps, [&] {
    Span sp(tr, "core.paige_saunders.factor");
    kalman::paige_saunders_factor_into(p, bf);
  });
  const double ps_solve = time_median(reps, [&] {
    Span sp(tr, "core.paige_saunders.solve");
    kalman::paige_saunders_solve_into(bf, u);
  });
  const double ps_selinv = time_median(reps, [&] {
    Span sp(tr, "core.selinv");
    kalman::selinv_bidiagonal_into(bf, s);
  });
  rep.metric("core.paige_saunders.factor_s", ps_factor, "s");
  rep.metric("core.paige_saunders.solve_s", ps_solve, "s");
  rep.metric("core.selinv_s", ps_selinv, "s");
  rep.metric("core.oddeven.work_ratio", oe_lane1 / (ps_factor + ps_solve + ps_selinv), "x");

  SmootherResult assoc;
  kalman::AssociativeScratch ascratch;
  kalman::AssociativeOptions aopts;
  aopts.scratch = &ascratch;
  rep.metric("core.associative_s", time_median(reps, [&] {
               Span sp(tr, "core.associative");
               kalman::associative_smooth_into(q, prior, all, aopts, assoc);
             }), "s");

  // The filter underneath a session, driven directly over the whole track.
  const index n0 = p.state_dim(0);
  kalman::IncrementalFilter f(n0);
  const double filter_s = time_median(reps, [&] {
    Span sp(tr, "core.filter");
    f.reset(n0);
    for (index i = 0; i < p.num_states(); ++i) replay_step(f, p, i);
  });
  rep.metric("core.filter.step_us", filter_s / static_cast<double>(p.num_states()) * 1e6, "us");
}

void probe_session(engine::SmootherEngine& eng, const kalman::Problem& p, int appends,
                   Tracer& tr, Report& rep) {
  Span root(tr, "engine.session.probe");
  const index k = p.num_states();
  const index cold_states = k - appends;
  engine::Session s = eng.open_session(p.state_dim(0));
  for (index i = 0; i < cold_states; ++i) replay_step(s, p, i);

  SmootherResult cold, out;
  engine::JobResult jr;
  const auto t0 = Clock::now();
  {
    Span sp(tr, "engine.session.smooth_async");
    auto fut = s.smooth_async(true, &cold);
    eng.wait_idle();
    jr = fut.get();
  }
  const double cold_s = seconds_since(t0);
  // The first synchronous smooth after the async one splices the whole
  // track into the separate sync cache; it is not a steady-state re-smooth.
  s.smooth_into(out, true);

  std::vector<double> resmooth, windows;
  const engine::SessionStats st0 = s.stats();
  for (index i = cold_states; i < k; ++i) {
    {
      Span sp(tr, "engine.session.append");
      replay_step(s, p, i);
    }
    const engine::SessionStats before = s.stats();
    const auto b0 = Clock::now();
    {
      Span sp(tr, "engine.session.smooth_into");
      s.smooth_into(out, true);
    }
    resmooth.push_back(seconds_since(b0));
    const engine::SessionStats after = s.stats();
    if (after.truncated_resmooths > before.truncated_resmooths)
      windows.push_back(static_cast<double>(
          i + 1 - static_cast<index>(after.steps_truncation_skipped -
                                     before.steps_truncation_skipped)));
  }
  const engine::SessionStats st = s.stats();
  if (!(optimality_residual(p, std::nullopt, out.means) <= kOptimalityTol))
    rep.fail("session probe: final smooth violates the optimality condition");

  double window_sum = 0.0;
  for (double w : windows) window_sum += w;
  const auto misses = static_cast<double>(st.resmooth_misses - st0.resmooth_misses);
  rep.metric("engine.session.window_states",
             windows.empty() ? 0.0 : window_sum / static_cast<double>(windows.size()), "count");
  rep.metric("engine.session.truncated_share",
             misses > 0 ? static_cast<double>(st.truncated_resmooths - st0.truncated_resmooths) /
                              misses
                        : 0.0,
             "ratio");
  rep.metric("engine.session.resmooth_us", median(resmooth) * 1e6, "us");
  rep.metric("engine.session.cold_oddeven",
             jr.metrics.backend == engine::Backend::OddEven && jr.metrics.intra_parallel ? 1.0
                                                                                          : 0.0,
             "count");
  rep.metric("engine.session.cold_smooth_s", cold_s, "s");
}

void probe_serve(const kalman::Problem& p, int requests, int window, Tracer& tr, Report& rep) {
  Span root(tr, "serve.probe");
  serve::ServeOptions so;
  so.shards = 1;
  so.threads_per_shard = 2;
  // The probe's window bounds the backlog; admission must never shed.
  for (serve::ClassOptions& c : so.classes) c.max_queue_wait_seconds = 60.0;
  serve::ServingTier tier(so);
  const serve::TenantHandle h = tier.tenant("probe", serve::TenantClass::Standard);
  {
    // Warm-up: the shard's pool, solver caches and kernel-rate calibration.
    serve::Request req;
    req.problem = p;
    auto fut = tier.submit(h, std::move(req));
    tier.flush();
    fut.get();
  }
  const serve::TierStats ts0 = tier.stats();

  struct Slot {
    std::future<engine::JobResult> fut;
    SmootherResult out;
    Clock::time_point submitted;
    bool busy = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(window));
  std::vector<double> admit, latency, buffer_wait;
  int issued = 0, done = 0;
  while (done < requests) {
    bool progressed = false;
    for (Slot& s : slots) {
      if (s.busy && s.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        const double lat = seconds_since(s.submitted);
        s.busy = false;
        ++done;
        progressed = true;
        try {
          const engine::JobResult jr = s.fut.get();
          latency.push_back(lat);
          buffer_wait.push_back(lat - jr.metrics.queue_seconds - jr.metrics.solve_seconds);
        } catch (const std::exception& e) {
          rep.fail(std::string("serve probe: request failed: ") + e.what());
        }
      }
      if (!s.busy && issued < requests) {
        serve::Request req;
        req.problem = p;  // copied before the clock starts: submit takes it by value
        engine::SubmitOptions o;
        o.into = &s.out;
        s.submitted = Clock::now();
        {
          Span sp(tr, "serve.submit");
          s.fut = tier.submit(h, std::move(req), o);
        }
        admit.push_back(seconds_since(s.submitted));
        s.busy = true;
        ++issued;
        progressed = true;
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  report_serve(tier.stats(), ts0, static_cast<double>(requests), admit, latency, buffer_wait,
               rep);
}

void report_serve(const serve::TierStats& ts, const serve::TierStats& ts0, double requests,
                  const std::vector<double>& admit, const std::vector<double>& latency,
                  const std::vector<double>& buffer_wait, Report& rep) {
  std::uint64_t batched = 0;
  for (int c = 0; c < serve::num_tenant_classes; ++c)
    batched += ts.classes[c].batched - ts0.classes[c].batched;
  const std::uint64_t size_flushes = ts.size_flushes - ts0.size_flushes;
  const std::uint64_t deadline_flushes = ts.deadline_flushes - ts0.deadline_flushes;
  rep.metric("serve.buffer_wait_s", median(buffer_wait), "s");
  rep.metric("serve.batch_size",
             static_cast<double>(batched) /
                 static_cast<double>(std::max<std::uint64_t>(1, size_flushes + deadline_flushes)),
             "count");
  rep.metric("serve.size_flushes", static_cast<double>(size_flushes) / requests, "count");
  rep.metric("serve.deadline_flushes", static_cast<double>(deadline_flushes) / requests,
             "count");
  rep.metric("serve.admit_us", median(admit) * 1e6, "us");
  rep.metric("serve.request_p99_s", quantile(latency, 0.99), "s");
}

}  // namespace perfbench
