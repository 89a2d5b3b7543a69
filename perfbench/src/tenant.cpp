/// \file tenant.cpp
/// tenant_mix: short tracks from a fixed tenant population driven through
/// ServingTier::submit / submit_nonlinear in a closed loop that keeps a
/// fixed window of requests outstanding.
///
/// Tenants: kTenants, four per kind block, classes Interactive / Standard /
/// Standard / BestEffort within each block.  Kinds: linear constant-velocity
/// tracks with a prior (the RTS route), without one (Paige-Saunders), and
/// nonlinear pendulum tracks (Gauss-Newton through submit_nonlinear).  A
/// round is two requests per tenant in tenant order; every run issues whole
/// rounds.  Completion is detected by polling the window every ~20 us, so a
/// request's latency (submit to future-ready) includes up to one poll
/// interval.  latency_s is the median request latency, rate_per_s the
/// completed requests per second.

#include <cstdio>
#include <future>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "core/gauss_newton.hpp"
#include "kalman/dense_reference.hpp"
#include "kalman/simulate.hpp"
#include "la/random.hpp"
#include "la/types.hpp"
#include "layer_metrics.hpp"
#include "probes.hpp"
#include "pitk/serve.hpp"

namespace perfbench {

using namespace pitk;
using engine::Backend;
using kalman::SmootherResult;
using la::index;
using serve::TenantClass;

namespace {

constexpr int kTenants = 24;
constexpr int kRequestsPerTenantPerRound = 2;
constexpr int kRoundSize = kTenants * kRequestsPerTenantPerRound;
constexpr int kWindow = 32;          ///< requests outstanding at all times
constexpr int kProblemsPerTenant = 4;
constexpr index kSteps = 96;         ///< evolutions per track (k)
constexpr int kWarmupRounds = 4;
/// Lanes of the tier's one shard: one pool worker (nobody helps in
/// wait_idle while the loop runs).  With the pump thread and the generator
/// that is three threads; a second worker made throughput swing with the
/// allocator's arena contention (the tenant routes allocate per request).
constexpr unsigned kShardLanes = 2;
constexpr std::uint64_t kMinRounds = 20;
/// One request in kSampleEvery (chosen by a seeded hash) is kept and checked
/// against the reference solvers after the timed phase.
constexpr std::uint64_t kSampleEvery = 64;
/// Throughput is taken per window of this many seconds and reported as the
/// mean over the run's whole windows without the fastest and slowest kTrim
/// share, so a few seconds of interference from outside the process move it
/// less.
constexpr double kWindowSeconds = 1.0;
constexpr double kTrim = 0.1;
/// Traced-run probes: repetitions of each core phase on one tenant track,
/// steps appended to the session probe.
constexpr int kProbeReps = 31;
constexpr int kProbeAppends = 32;

enum class Kind { Prior, NoPrior, Nonlinear };

constexpr Kind kind_of(int tenant) {
  constexpr Kind kinds[6] = {Kind::Prior, Kind::Prior, Kind::NoPrior,
                             Kind::NoPrior, Kind::NoPrior, Kind::Nonlinear};
  return kinds[(tenant / 4) % 6];
}
constexpr TenantClass class_of(int tenant) {
  constexpr TenantClass classes[4] = {TenantClass::Interactive, TenantClass::Standard,
                                      TenantClass::Standard, TenantClass::BestEffort};
  return classes[tenant % 4];
}

struct Tenant {
  Kind kind;
  serve::TenantHandle handle;
  std::vector<kalman::Problem> problems;               // linear kinds
  std::vector<double> flops;  ///< engine::estimated_flops of each problem
  std::optional<kalman::GaussianPrior> prior;          // Kind::Prior
  std::vector<engine::NonlinearJob> jobs;              // Kind::Nonlinear
  std::uint64_t issued = 0;
};

struct Slot {
  std::future<engine::JobResult> fut;
  SmootherResult out;  ///< warm caller-owned result storage
  Clock::time_point submitted;
  int tenant = -1;
  int problem = -1;
  std::uint64_t seq = 0;
  bool busy = false;
};

struct Sample {
  int tenant;
  int problem;
  SmootherResult result;
  bool converged;
};

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

engine::NonlinearJobOptions nonlinear_options() {
  engine::NonlinearJobOptions o;
  o.gn.levenberg_marquardt = true;
  return o;
}

/// The closed-loop driver: the window, the round sequence, and everything
/// measured per completed request.
class Loop {
 public:
  Loop(serve::ServingTier& tier, std::vector<Tenant>& tenants, std::uint64_t seed, Tracer& tr)
      : tier_(tier), tenants_(tenants), seed_(seed), tr_(tr), slots_(kWindow) {}

  /// Issue at least `min_rounds` whole rounds, more while fewer than
  /// `seconds` have passed (when seconds > 0), then drain the window.
  /// Returns the rounds issued.
  std::uint64_t run(std::uint64_t min_rounds, double seconds, bool record, Report& rep) {
    record_ = record;
    t0_ = Clock::now();
    issue_end_ = 0.0;
    std::uint64_t rounds = 0;
    int in_round = 0;  // requests of the current round already issued
    bool issuing = true;
    int busy = 0;
    while (issuing || busy > 0) {
      bool progressed = false;
      for (Slot& s : slots_) {
        if (s.busy && s.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          complete(s, rep);
          --busy;
          progressed = true;
        }
        if (!s.busy && issuing) {
          issue(s, in_round);
          ++busy;
          progressed = true;
          if (++in_round == kRoundSize) {
            in_round = 0;
            ++rounds;
            issuing = rounds < min_rounds || (seconds > 0 && seconds_since(t0_) < seconds);
            if (!issuing) issue_end_ = seconds_since(t0_);
          }
        }
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    wall_ = seconds_since(t0_);
    return rounds;
  }

  /// Completions per second in every whole kWindowSeconds window of the
  /// last run() before issuing stopped.
  [[nodiscard]] std::vector<double> window_rates() const {
    std::vector<double> rate(static_cast<std::size_t>(issue_end_ / kWindowSeconds), 0.0);
    for (double t : done_at) {
      const auto w = static_cast<std::size_t>(t / kWindowSeconds);
      if (w < rate.size()) rate[w] += 1.0 / kWindowSeconds;
    }
    return rate;
  }

  std::vector<double> latency, queue, solve, buffer_wait, admit, iterations;
  std::vector<double> gflops;  ///< estimated_flops / solve time, linear requests
  std::vector<double> done_at;  ///< completion time since run() started
  std::vector<Sample> samples;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  [[nodiscard]] double wall() const noexcept { return wall_; }

 private:
  void issue(Slot& s, int in_round) {
    const int t = in_round % kTenants;
    Tenant& ten = tenants_[static_cast<std::size_t>(t)];
    s.tenant = t;
    s.problem = static_cast<int>(ten.issued++ % kProblemsPerTenant);
    s.seq = seq_++;
    s.busy = true;
    // Inputs are copied before the clock starts: submit takes them by value.
    if (ten.kind == Kind::Nonlinear) {
      engine::NonlinearJob job = ten.jobs[static_cast<std::size_t>(s.problem)];
      engine::NonlinearJobOptions o = nonlinear_options();
      o.into = &s.out;
      s.submitted = Clock::now();
      Span sp(tr_, "serve.submit_nonlinear");
      s.fut = tier_.submit_nonlinear(ten.handle, std::move(job), std::move(o));
    } else {
      serve::Request req;
      req.problem = ten.problems[static_cast<std::size_t>(s.problem)];
      req.prior = ten.prior;
      engine::SubmitOptions o;
      o.into = &s.out;
      s.submitted = Clock::now();
      Span sp(tr_, "serve.submit");
      s.fut = tier_.submit(ten.handle, std::move(req), o);
    }
    if (record_) admit.push_back(seconds_since(s.submitted));
  }

  void complete(Slot& s, Report& rep) {
    const double lat = seconds_since(s.submitted);
    s.busy = false;
    engine::JobResult jr;
    try {
      jr = s.fut.get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
      if (record_) ++failed;
      return;
    }
    const Tenant& ten = tenants_[static_cast<std::size_t>(s.tenant)];
    const Backend route = ten.kind == Kind::Prior ? Backend::Rts : Backend::PaigeSaunders;
    if (jr.metrics.backend != route || jr.metrics.intra_parallel)
      rep.fail(std::string("routing: tenant request served by ") +
               engine::backend_info(jr.metrics.backend).name);
    if (!record_) return;
    ++completed;
    latency.push_back(lat);
    done_at.push_back(seconds_since(t0_));
    queue.push_back(jr.metrics.queue_seconds);
    solve.push_back(jr.metrics.solve_seconds);
    buffer_wait.push_back(lat - jr.metrics.queue_seconds - jr.metrics.solve_seconds);
    if (ten.kind == Kind::Nonlinear)
      iterations.push_back(static_cast<double>(jr.metrics.outer_iterations));
    else
      gflops.push_back(ten.flops[static_cast<std::size_t>(s.problem)] /
                       jr.metrics.solve_seconds * 1e-9);
    if (mix64(seed_ ^ s.seq) % kSampleEvery == 0)
      samples.push_back({s.tenant, s.problem, s.out, jr.metrics.nonlinear_converged});
  }

  serve::ServingTier& tier_;
  std::vector<Tenant>& tenants_;
  std::uint64_t seed_;
  Tracer& tr_;
  std::vector<Slot> slots_;
  std::uint64_t seq_ = 0;
  bool record_ = false;
  Clock::time_point t0_;
  double issue_end_ = 0.0;  ///< seconds into run() when issuing stopped
  double wall_ = 0.0;
};

std::vector<Tenant> make_tenants(std::uint64_t seed) {
  la::Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x7E4A47);
  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Tenant& ten = tenants[static_cast<std::size_t>(t)];
    ten.kind = kind_of(t);
    for (int j = 0; j < kProblemsPerTenant; ++j) {
      la::Rng r = rng.split();
      if (ten.kind == Kind::Nonlinear) {
        kalman::NonlinearModel m =
            kalman::make_pendulum_benchmark(r, kSteps, 0.4 + 0.2 * r.uniform());
        ten.jobs.push_back({std::move(m), std::vector<la::Vector>(
                                              static_cast<std::size_t>(kSteps + 1),
                                              la::Vector({0.1, 0.0}))});
        continue;
      }
      la::Vector x0({r.uniform(-10, 10), r.uniform(-1, 1), r.uniform(-10, 10), r.uniform(-1, 1)});
      const kalman::SimSpec spec = kalman::constant_velocity_spec(2, kSteps, 0.1, 0.3, 1.0, x0);
      kalman::Simulation sim = kalman::simulate(r, spec);
      ten.flops.push_back(engine::estimated_flops(sim.problem, true));
      ten.problems.push_back(std::move(sim.problem));
      if (ten.kind == Kind::Prior && !ten.prior) {
        kalman::GaussianPrior prior;
        prior.mean = x0;
        prior.cov = la::Matrix::identity(4);
        for (index d = 0; d < 4; ++d) prior.cov(d, d) = 4.0;
        ten.prior = std::move(prior);
      }
    }
  }
  return tenants;
}

void check_samples(const std::vector<Tenant>& tenants, const std::vector<Sample>& samples,
                   Report& rep) {
  CheckTally opt{"optimality", kOptimalityTol};
  CheckTally dense{"dense", kReferenceTol};
  CheckTally gn{"gauss-newton", kGaussNewtonTol};
  // Reference answers, computed once per (tenant, problem).
  std::vector<std::optional<SmootherResult>> refs(kTenants * kProblemsPerTenant);
  par::ThreadPool serial(1);
  for (const Sample& s : samples) {
    const Tenant& ten = tenants[static_cast<std::size_t>(s.tenant)];
    auto& ref = refs[static_cast<std::size_t>(s.tenant * kProblemsPerTenant + s.problem)];
    if (ten.kind == Kind::Nonlinear) {
      const engine::NonlinearJob& job = ten.jobs[static_cast<std::size_t>(s.problem)];
      if (!ref) {
        kalman::GaussNewtonResult g =
            kalman::gauss_newton_smooth(job.model, job.init, serial, nonlinear_options().gn);
        if (!g.converged) rep.fail("reference Gauss-Newton run did not converge");
        ref = SmootherResult{std::move(g.states), {}, 0};
      }
      if (!s.converged) rep.fail("nonlinear request did not converge");
      if (!gn.add(max_deviation(s.result.means, ref->means)))
        rep.fail("nonlinear request disagrees with a direct serial gauss_newton_smooth");
      continue;
    }
    const kalman::Problem& p = ten.problems[static_cast<std::size_t>(s.problem)];
    if (!opt.add(optimality_residual(p, ten.prior, s.result.means)))
      rep.fail("tenant request means violate the least-squares optimality condition");
    if (!ref)
      ref = kalman::dense_smooth(ten.prior ? kalman::with_prior_observation(p, *ten.prior) : p,
                                 true);
    std::string why;
    if (!covariances_well_formed(s.result.covariances, &why)) rep.fail("tenant request " + why);
    if (!dense.add(std::max(max_deviation(s.result.means, ref->means),
                            max_deviation(s.result.covariances, ref->covariances))))
      rep.fail("tenant request disagrees with the dense reference");
  }
  std::fprintf(stderr,
               "perfbench: %zu sampled requests: optimality %.2e, vs dense %.2e, vs serial "
               "Gauss-Newton %.2e\n",
               samples.size(), opt.worst, dense.worst, gn.worst);
  if (dense.samples == 0 || gn.samples == 0) rep.fail("sample missed a request kind");
}

}  // namespace

void run_tenant_mix(const Args& a, Report& rep, Tracer& tr) {
  Span root(tr, "bench.tenant_mix");
  const auto gen0 = Clock::now();
  std::vector<Tenant> tenants = make_tenants(a.seed);
  const double gen_s = seconds_since(gen0);

  serve::ServeOptions so;
  so.shards = 1;
  so.threads_per_shard = kShardLanes;
  // The closed loop bounds the backlog by its window, so admission must
  // never shed: budgets are widened well past the window's worst queue wait.
  for (serve::ClassOptions& c : so.classes) c.max_queue_wait_seconds = 0.05;
  serve::ServingTier tier(so);
  for (int t = 0; t < kTenants; ++t)
    tenants[static_cast<std::size_t>(t)].handle =
        tier.tenant("tenant-" + std::to_string(t), class_of(t));
  Loop loop(tier, tenants, a.seed, tr);
  loop.run(kWarmupRounds, 0.0, false, rep);
  const double setup_s = seconds_since(process_start) - gen_s;
  std::fprintf(stderr,
               "perfbench: tenant_mix %d tenants, window %d, 1 shard x %u lanes (+pump, "
               "+generator), nproc %u; setup %.3fs (inputs %.3fs)\n",
               kTenants, kWindow, kShardLanes, std::thread::hardware_concurrency(), setup_s, gen_s);

  engine::SmootherEngine& eng = tier.shard_engine(0);
  const engine::EngineStats st0 = eng.stats();
  const serve::TierStats ts0 = tier.stats();
  const std::uint64_t a0 = la::aligned_alloc_count();
  const std::uint64_t a0_self = la::aligned_alloc_count_this_thread();
  const double busy0 = eng.pool().busy_seconds();
  const std::uint64_t tasks0 = eng.pool().tasks_executed();

  // The traced run measures its first half untraced, its second traced.
  const bool trace = tr.enabled();
  tr.set_enabled(false);
  std::uint64_t rounds = loop.run(kMinRounds, trace ? a.seconds / 2 : a.seconds, true, rep);
  const std::size_t untraced = loop.latency.size();
  const double untraced_wall = loop.wall();
  if (trace) {
    tr.set_enabled(true);
    rounds += loop.run(kMinRounds, a.seconds / 2, true, rep);
  }
  const double wall = trace ? untraced_wall + loop.wall() : loop.wall();
  const double peak = peak_rss_mb();
  rep.attempted(static_cast<std::uint64_t>(kRoundSize) * rounds);
  rep.failed(loop.failed);
  if (loop.completed + loop.failed != static_cast<std::uint64_t>(kRoundSize) * rounds)
    rep.fail("request accounting: completed + failed != issued");

  check_samples(tenants, loop.samples, rep);
  const double n_req = static_cast<double>(loop.completed);
  std::fprintf(stderr, "perfbench: %llu rounds, %.0f requests in %.3fs\n",
               static_cast<unsigned long long>(rounds), n_req, wall);

  if (!trace) {
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak, "MB");
    rep.metric("latency_s", quantile(loop.latency, 0.5), "s");
    rep.metric("rate_per_s", trimmed_mean(loop.window_rates(), kTrim), "1/s");
    return;
  }

  const std::uint64_t generator_allocs = la::aligned_alloc_count_this_thread() - a0_self;
  const serve::TierStats ts = tier.stats();
  rep.metric("la.allocs_per_op",
             static_cast<double>(la::aligned_alloc_count() - a0 - generator_allocs) / n_req,
             "count");
  rep.metric("parallel.utilization",
             (eng.pool().busy_seconds() - busy0) / (wall * eng.concurrency()), "ratio");
  rep.metric("parallel.tasks_per_op",
             static_cast<double>(eng.pool().tasks_executed() - tasks0) / n_req, "count");
  rep.metric("core.gauss_newton.iterations", median(loop.iterations), "count");
  rep.metric("engine.queue_s", median(loop.queue), "s");
  rep.metric("engine.solve_s", median(loop.solve), "s");
  report_engine_jobs({eng.stats()}, {st0}, rounds, rep);
  report_serve(ts, ts0, n_req, loop.admit, loop.latency, loop.buffer_wait, rep);
  const std::vector<double> lat_untraced(loop.latency.begin(),
                                         loop.latency.begin() + static_cast<long>(untraced));
  const std::vector<double> lat_traced(loop.latency.begin() + static_cast<long>(untraced),
                                       loop.latency.end());
  rep.metric("trace.overhead", median(lat_traced) / median(lat_untraced), "ratio");
  rep.metric("la.gflops", median(loop.gflops), "GFLOP/s");

  // Layers the tier does not reach on its own (the kernels, the core
  // solvers called directly, a streaming session), probed on tenant 0's
  // first track with its prior.
  const Tenant& t0 = tenants[0];
  const kalman::Problem with_prior = kalman::with_prior_observation(t0.problems[0], *t0.prior);
  probe_kernels(4, tr, rep);
  probe_core(with_prior, t0.problems[0], *t0.prior, kProbeReps, tr, rep);
  probe_session(eng, with_prior, kProbeAppends, tr, rep);
}

}  // namespace perfbench
