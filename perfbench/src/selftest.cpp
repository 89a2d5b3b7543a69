/// \file selftest.cpp
/// Checker self-test (perfbench --selftest): every correctness check the
/// workloads apply must accept a correct answer and reject a corrupted one.
/// The corruptions are one perturbed mean, one perturbed covariance block
/// (and an asymmetric entry), a nonlinear trajectory off the fixed point,
/// and a session result served from a stale prefix.

#include <cstdio>
#include <functional>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "core/gauss_newton.hpp"
#include "core/paige_saunders.hpp"
#include "engine/session.hpp"
#include "kalman/dense_reference.hpp"
#include "kalman/rts.hpp"
#include "kalman/simulate.hpp"
#include "la/random.hpp"

namespace perfbench {

using namespace pitk;
using kalman::SmootherResult;
using la::index;

namespace {

int failures = 0;

/// `accepts` must hold on the correct answer and fail on the corrupted one.
void expect(const char* check, const char* corruption, bool accepts_correct,
            bool accepts_corrupted) {
  const bool ok = accepts_correct && !accepts_corrupted;
  std::printf("selftest: %-34s correct %-8s %-34s %s\n", check,
              accepts_correct ? "accepted" : "REJECTED", corruption,
              accepts_corrupted ? "ACCEPTED (check cannot fail)" : "rejected");
  if (!ok) ++failures;
}

void perturb_mean(SmootherResult& r) {
  la::Vector& v = r.means[r.means.size() / 2];
  v[1] += 1e-6 * (1.0 + std::abs(v[1]));
}

void perturb_covariance_block(SmootherResult& r) {
  la::Matrix& c = r.covariances[r.covariances.size() / 3];
  for (index j = 0; j < c.cols(); ++j)
    for (index i = 0; i < c.rows(); ++i) c(i, j) *= 1.0 + 1e-6;
}

void paper_checks() {
  la::Rng rng(0x5E1F7E57);
  const kalman::Problem p = kalman::make_paper_benchmark(rng, 6, 200);
  const SmootherResult good = kalman::paige_saunders_smooth(p);
  const auto [q, prior] = observation_as_prior(p);
  const SmootherResult ref = kalman::rts_smooth(q, prior);

  const auto optimal = [&](const SmootherResult& r) {
    return optimality_residual(p, std::nullopt, r.means) <= kOptimalityTol;
  };
  const auto means_agree = [&](const SmootherResult& r) {
    return max_deviation(r.means, ref.means) <= kReferenceTol;
  };
  const auto covs_agree = [&](const SmootherResult& r) {
    return max_deviation(r.covariances, ref.covariances) <= kReferenceTol;
  };
  const auto well_formed = [&](const SmootherResult& r) {
    return covariances_well_formed(r.covariances, nullptr);
  };

  SmootherResult bad_mean = good;
  perturb_mean(bad_mean);
  expect("paper: optimality", "one perturbed mean", optimal(good), optimal(bad_mean));
  expect("paper: means vs RTS", "one perturbed mean", means_agree(good), means_agree(bad_mean));

  SmootherResult bad_cov = good;
  perturb_covariance_block(bad_cov);
  expect("paper: covariances vs RTS", "one perturbed covariance block", covs_agree(good),
         covs_agree(bad_cov));

  SmootherResult asym = good;
  asym.covariances[7](0, 1) += 1e-6;
  expect("paper: covariance symmetry", "one asymmetric entry", well_formed(good),
         well_formed(asym));
  SmootherResult negative = good;
  negative.covariances[9](2, 2) = -negative.covariances[9](2, 2);
  expect("paper: covariance diagonal", "one negative variance", well_formed(good),
         well_formed(negative));
}

void tenant_checks() {
  la::Rng rng(0x7E4A47);
  la::Vector x0({1.0, 0.5, -2.0, 0.1});
  kalman::Simulation sim =
      kalman::simulate(rng, kalman::constant_velocity_spec(2, 96, 0.1, 0.3, 1.0, x0));
  kalman::GaussianPrior prior{x0, la::Matrix::identity(4)};
  const kalman::Problem with_prior = kalman::with_prior_observation(sim.problem, prior);
  const SmootherResult good = kalman::paige_saunders_smooth(with_prior);
  const SmootherResult ref = kalman::dense_smooth(with_prior, true);

  const auto optimal = [&](const SmootherResult& r) {
    return optimality_residual(sim.problem, prior, r.means) <= kOptimalityTol;
  };
  const auto agrees = [&](const SmootherResult& r) {
    return std::max(max_deviation(r.means, ref.means),
                    max_deviation(r.covariances, ref.covariances)) <= kReferenceTol;
  };
  SmootherResult bad_mean = good;
  perturb_mean(bad_mean);
  expect("tenant: optimality with prior", "one perturbed mean", optimal(good),
         optimal(bad_mean));
  // The prior term is part of the condition: dropping it must fail.
  expect("tenant: optimality needs the prior", "prior term left out", optimal(good),
         optimality_residual(sim.problem, std::nullopt, good.means) <= kOptimalityTol);
  expect("tenant: vs dense reference", "one perturbed mean", agrees(good), agrees(bad_mean));
  SmootherResult bad_cov = good;
  perturb_covariance_block(bad_cov);
  expect("tenant: vs dense reference", "one perturbed covariance block", agrees(good),
         agrees(bad_cov));

  // Nonlinear: the engine result against a direct serial Gauss-Newton run.
  kalman::NonlinearModel m = kalman::make_pendulum_benchmark(rng, 96, 0.5);
  const std::vector<la::Vector> init(97, la::Vector({0.1, 0.0}));
  kalman::GaussNewtonOptions gn;
  gn.levenberg_marquardt = true;
  par::ThreadPool serial(1);
  const kalman::GaussNewtonResult direct = kalman::gauss_newton_smooth(m, init, serial, gn);
  engine::SmootherEngine eng(engine::EngineOptions{.threads = 1});
  engine::NonlinearJobOptions o;
  o.gn = gn;
  const engine::JobResult jr = eng.submit_nonlinear({m, init}, o).get();
  std::vector<la::Vector> off = jr.result.means;
  off[40][0] += 1e-5;
  expect("tenant: nonlinear vs serial GN", "one state off the fixed point",
         jr.metrics.nonlinear_converged &&
             max_deviation(jr.result.means, direct.states) <= kGaussNewtonTol,
         max_deviation(off, direct.states) <= kGaussNewtonTol);
}

void session_checks() {
  constexpr index n = 6, k = 600;
  la::Rng rng(0x5E55);
  const la::Matrix f = la::random_orthonormal(rng, n);
  const la::Matrix g = la::random_orthonormal(rng, n);
  std::vector<la::Vector> obs;
  for (index i = 0; i <= k; ++i) obs.push_back(la::random_gaussian_vector(rng, n));

  engine::SmootherEngine eng(engine::EngineOptions{.threads = 1});
  engine::Session s = eng.open_session(n);
  kalman::Problem p;
  p.start(n);
  SmootherResult stale, fresh;
  for (index i = 0; i <= k; ++i) {
    if (i > 0) {
      s.evolve(f, la::Vector(), kalman::CovFactor::identity(n));
      p.evolve(f, la::Vector(), kalman::CovFactor::identity(n));
    }
    s.observe(g, obs[static_cast<std::size_t>(i)], kalman::CovFactor::identity(n));
    p.observe(g, obs[static_cast<std::size_t>(i)], kalman::CovFactor::identity(n));
    if (i == k - 1) s.smooth_into(stale, true);
  }
  s.smooth_into(fresh, true);
  // The stale result covers one state fewer; extend it by the prediction
  // F u_{k-1} (and the last covariance) so only its values can betray it.
  la::Vector pred(n);
  for (index r = 0; r < n; ++r)
    for (index c = 0; c < n; ++c) pred[r] += f(r, c) * stale.means.back()[c];
  stale.means.push_back(pred);
  stale.covariances.push_back(stale.covariances.back());

  const auto [q, prior] = observation_as_prior(p);
  const SmootherResult ref = kalman::rts_smooth(q, prior);
  const auto agrees = [&](const SmootherResult& r) {
    return std::max(max_deviation(r.means, ref.means),
                    max_deviation(r.covariances, ref.covariances)) <= kSessionTol;
  };
  expect("stream: session vs cold batch", "result from a stale prefix", agrees(fresh),
         agrees(stale));
  expect("stream: session optimality", "result from a stale prefix",
         optimality_residual(p, std::nullopt, fresh.means) <= kOptimalityTol,
         optimality_residual(p, std::nullopt, stale.means) <= kOptimalityTol);
}

}  // namespace

int run_selftest() {
  try {
    paper_checks();
    tenant_checks();
    session_checks();
  } catch (const std::exception& e) {
    std::printf("selftest: aborted: %s\n", e.what());
    return 1;
  }
  std::printf("selftest: %s (%d check%s failed)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
