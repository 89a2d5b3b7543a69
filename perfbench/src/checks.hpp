#pragma once

/// \file checks.hpp
/// Correctness checks that do not trust the solver under test.
///
/// The optimality check is computed here, from the raw problem data, with
/// this file's own arithmetic: a smoothed trajectory is the weighted
/// least-squares solution exactly when the gradient A^T W (A u - b) of the
/// problem's cost (plus the prior term, if any) vanishes.  The remaining
/// checks compare against answers produced by *other* algorithms (RTS, the
/// dense QR oracle, a direct serial Gauss-Newton run) and check structural
/// properties of covariances.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "kalman/model.hpp"

namespace perfbench {

using pitk::kalman::GaussianPrior;
using pitk::kalman::Problem;
using pitk::la::Matrix;
using pitk::la::Vector;

/// Largest |g_ij| / s_ij over every state component, where g is the cost
/// gradient at `means` and s the same sum taken over absolute values
/// (|A|^T |W| (|A| |u| + |b|)), i.e. the size of the terms that cancel.  A
/// backward-stable solve leaves ~1e-15; an error in any mean shows as the
/// relative size of that error.  Infinity on a shape mismatch.
[[nodiscard]] double optimality_residual(const Problem& p, const std::optional<GaussianPrior>& prior,
                                         const std::vector<Vector>& means);

/// Acceptance bound on optimality_residual.
inline constexpr double kOptimalityTol = 1e-9;
/// Agreement bound (max_deviation) with a reference from another algorithm:
/// RTS on paper tracks, the dense QR oracle on tenant requests.
inline constexpr double kReferenceTol = 1e-9;
/// Agreement of a nonlinear request with a direct serial Gauss-Newton run:
/// both stop once the correction is below 1e-10, so their fixed points may
/// differ by a little more than that.
inline constexpr double kGaussNewtonTol = 1e-7;
/// Agreement of a streaming session with a cold batch smooth of the same
/// steps: a truncated re-smooth neglects at most kDefaultResmoothTolerance
/// per state and pass and is refreshed by a full pass every 512 truncated
/// ones, so at most 512 * 1e-13 accumulates; plus the library-wide 1e-10.
inline constexpr double kSessionTol = 512 * pitk::engine::kDefaultResmoothTolerance + 1e-10;

/// max |a - b| / max(1, |b|) over every entry; infinity on a shape mismatch.
[[nodiscard]] double max_deviation(const std::vector<Vector>& a, const std::vector<Vector>& b);
[[nodiscard]] double max_deviation(const std::vector<Matrix>& a, const std::vector<Matrix>& b);

/// Every covariance is square, symmetric to 1e-12 relative and has a strictly
/// positive diagonal; on failure `why` names the first offending state.
[[nodiscard]] bool covariances_well_formed(const std::vector<Matrix>& covs, std::string* why);

/// The RTS-equivalent form of a problem whose step-0 observation alone
/// determines u_0 (square, invertible G_0): the observation o_0 = G_0 u_0 +
/// delta becomes the exact Gaussian prior N(G_0^{-1} o_0, G_0^{-1} L_0
/// G_0^{-T}) and is removed from step 0.  Both forms have the same
/// posterior, so RTS on the returned pair must reproduce the QR smoothers'
/// answer on `p` without any diffuse-prior approximation.
[[nodiscard]] std::pair<Problem, GaussianPrior> observation_as_prior(const Problem& p);

/// Collects check verdicts of one kind: the worst value seen and how many
/// samples exceeded the bound.
struct CheckTally {
  const char* name;
  double bound;
  double worst = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;

  /// Record one value; returns true when it is within the bound.  NaN fails.
  bool add(double value) {
    ++samples;
    if (!(value <= worst)) worst = value;
    if (value <= bound) return true;
    ++violations;
    return false;
  }
};

}  // namespace perfbench
