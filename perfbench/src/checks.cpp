#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

using pitk::kalman::CovFactor;
using pitk::la::index;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dense inverse by Gauss-Jordan elimination with partial pivoting (the
/// checks do their own arithmetic rather than call the library's kernels).
Matrix inverse(const Matrix& a) {
  const index n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("inverse: matrix is not square");
  Matrix w = a;
  Matrix inv = Matrix::identity(n);
  for (index c = 0; c < n; ++c) {
    index piv = c;
    for (index r = c + 1; r < n; ++r)
      if (std::abs(w(r, c)) > std::abs(w(piv, c))) piv = r;
    if (w(piv, c) == 0.0) throw std::invalid_argument("inverse: matrix is singular");
    for (index j = 0; j < n; ++j) {
      std::swap(w(c, j), w(piv, j));
      std::swap(inv(c, j), inv(piv, j));
    }
    const double d = 1.0 / w(c, c);
    for (index j = 0; j < n; ++j) {
      w(c, j) *= d;
      inv(c, j) *= d;
    }
    for (index r = 0; r < n; ++r) {
      if (r == c || w(r, c) == 0.0) continue;
      const double f = w(r, c);
      for (index j = 0; j < n; ++j) {
        w(r, j) -= f * w(c, j);
        inv(r, j) -= f * inv(c, j);
      }
    }
  }
  return inv;
}

/// The weight W = cov^{-1} of one noise block, applied to a vector.
class Weight {
 public:
  explicit Weight(const CovFactor& c) : kind_(c.kind()), dim_(c.dim()) {
    if (kind_ == CovFactor::Kind::Diagonal) {
      diag_.resize(static_cast<std::size_t>(dim_));
      for (index j = 0; j < dim_; ++j) {
        const double s = c.diag_std()[j];
        diag_[static_cast<std::size_t>(j)] = 1.0 / (s * s);
      }
    } else if (kind_ == CovFactor::Kind::Dense) {
      full_ = inverse(c.covariance());
    }
  }
  explicit Weight(const Matrix& cov) : kind_(CovFactor::Kind::Dense), dim_(cov.rows()) {
    full_ = inverse(cov);
  }

  /// out = W r, or |W| r with `absval` (r is then already non-negative).
  void apply(const std::vector<double>& r, std::vector<double>& out, bool absval) const {
    out.assign(static_cast<std::size_t>(dim_), 0.0);
    for (index i = 0; i < dim_; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      switch (kind_) {
        case CovFactor::Kind::Identity: out[ui] = r[ui]; break;
        case CovFactor::Kind::Diagonal: out[ui] = diag_[ui] * r[ui]; break;
        case CovFactor::Kind::Dense: {
          double s = 0.0;
          for (index j = 0; j < dim_; ++j) {
            const double w = absval ? std::abs(full_(i, j)) : full_(i, j);
            s += w * r[static_cast<std::size_t>(j)];
          }
          out[ui] = s;
          break;
        }
      }
    }
  }

 private:
  CovFactor::Kind kind_;
  index dim_;
  std::vector<double> diag_;
  Matrix full_;
};

/// y (+)= op(M) x with op = transpose or not, optionally over |M|.
void matvec(const Matrix& m, const double* x, std::vector<double>& y, bool transpose,
            bool absval, double sign) {
  const index rows = transpose ? m.cols() : m.rows();
  const index cols = transpose ? m.rows() : m.cols();
  for (index i = 0; i < rows; ++i) {
    double s = 0.0;
    for (index j = 0; j < cols; ++j) {
      const double v = transpose ? m(j, i) : m(i, j);
      s += (absval ? std::abs(v) : v) * x[j];
    }
    y[static_cast<std::size_t>(i)] += sign * s;
  }
}

/// The identity-or-explicit H block of an evolution, applied like matvec.
void apply_h(const pitk::kalman::Evolution& e, const double* x, std::vector<double>& y,
             bool transpose, bool absval, double sign, index n) {
  if (!e.identity_h()) {
    matvec(e.H, x, y, transpose, absval, sign);
    return;
  }
  for (index i = 0; i < n; ++i) y[static_cast<std::size_t>(i)] += sign * x[i];
}

std::vector<double> abs_of(const double* x, index n) {
  std::vector<double> out(static_cast<std::size_t>(n));
  for (index i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = std::abs(x[i]);
  return out;
}

}  // namespace

double optimality_residual(const Problem& p, const std::optional<GaussianPrior>& prior,
                           const std::vector<Vector>& means) {
  const index k1 = p.num_states();
  if (static_cast<index>(means.size()) != k1) return kInf;
  for (index i = 0; i < k1; ++i)
    if (means[static_cast<std::size_t>(i)].size() != p.state_dim(i)) return kInf;

  std::vector<std::vector<double>> g(static_cast<std::size_t>(k1));
  std::vector<std::vector<double>> s(static_cast<std::size_t>(k1));
  for (index i = 0; i < k1; ++i) {
    g[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(p.state_dim(i)), 0.0);
    s[static_cast<std::size_t>(i)].assign(static_cast<std::size_t>(p.state_dim(i)), 0.0);
  }
  std::vector<double> r, ra, w, wa;

  // One equation block  J_a u_a (+ J_b u_b) - rhs  with weight W: adds
  // J^T W r to g and |J|^T |W| (|J||u| + |rhs|) to s for each unknown.
  for (index i = 0; i < k1; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const pitk::kalman::TimeStep& st = p.step(i);
    const double* u = means[ui].data();
    const std::vector<double> au = abs_of(u, st.n);
    if (st.observation) {
      const auto& ob = *st.observation;
      const index m = ob.rows();
      r.assign(static_cast<std::size_t>(m), 0.0);
      ra.assign(static_cast<std::size_t>(m), 0.0);
      matvec(ob.G, u, r, false, false, 1.0);
      matvec(ob.G, au.data(), ra, false, true, 1.0);
      for (index j = 0; j < m; ++j) {
        r[static_cast<std::size_t>(j)] -= ob.o[j];
        ra[static_cast<std::size_t>(j)] += std::abs(ob.o[j]);
      }
      const Weight wt(ob.noise);
      wt.apply(r, w, false);
      wt.apply(ra, wa, true);
      matvec(ob.G, w.data(), g[ui], true, false, 1.0);
      matvec(ob.G, wa.data(), s[ui], true, true, 1.0);
    }
    if (st.evolution) {
      const auto& ev = *st.evolution;
      const index l = ev.rows();
      const double* up = means[ui - 1].data();
      const std::vector<double> aup = abs_of(up, p.state_dim(i - 1));
      r.assign(static_cast<std::size_t>(l), 0.0);
      ra.assign(static_cast<std::size_t>(l), 0.0);
      apply_h(ev, u, r, false, false, 1.0, st.n);
      apply_h(ev, au.data(), ra, false, true, 1.0, st.n);
      matvec(ev.F, up, r, false, false, -1.0);
      matvec(ev.F, aup.data(), ra, false, true, 1.0);
      if (!ev.c.empty())
        for (index j = 0; j < l; ++j) {
          r[static_cast<std::size_t>(j)] -= ev.c[j];
          ra[static_cast<std::size_t>(j)] += std::abs(ev.c[j]);
        }
      const Weight wt(ev.noise);
      wt.apply(r, w, false);
      wt.apply(ra, wa, true);
      apply_h(ev, w.data(), g[ui], true, false, 1.0, st.n);
      apply_h(ev, wa.data(), s[ui], true, true, 1.0, st.n);
      matvec(ev.F, w.data(), g[ui - 1], true, false, -1.0);
      matvec(ev.F, wa.data(), s[ui - 1], true, true, 1.0);
    }
  }
  if (prior) {
    const index n0 = p.state_dim(0);
    if (prior->mean.size() != n0) return kInf;
    r.assign(static_cast<std::size_t>(n0), 0.0);
    ra.assign(static_cast<std::size_t>(n0), 0.0);
    for (index j = 0; j < n0; ++j) {
      r[static_cast<std::size_t>(j)] = means[0][j] - prior->mean[j];
      ra[static_cast<std::size_t>(j)] = std::abs(means[0][j]) + std::abs(prior->mean[j]);
    }
    const Weight wt(prior->cov);
    wt.apply(r, w, false);
    wt.apply(ra, wa, true);
    for (index j = 0; j < n0; ++j) {
      g[0][static_cast<std::size_t>(j)] += w[static_cast<std::size_t>(j)];
      s[0][static_cast<std::size_t>(j)] += wa[static_cast<std::size_t>(j)];
    }
  }

  double worst = 0.0;
  for (index i = 0; i < k1; ++i)
    for (std::size_t j = 0; j < g[static_cast<std::size_t>(i)].size(); ++j) {
      const double gi = g[static_cast<std::size_t>(i)][j];
      const double si = s[static_cast<std::size_t>(i)][j];
      const double rel = std::abs(gi) / std::max(si, std::numeric_limits<double>::min());
      if (!(rel <= worst)) worst = std::isnan(rel) ? kInf : rel;
    }
  return worst;
}

double max_deviation(const std::vector<Vector>& a, const std::vector<Vector>& b) {
  if (a.size() != b.size()) return kInf;
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return kInf;
    for (index j = 0; j < a[i].size(); ++j) {
      const double e = std::abs(a[i][j] - b[i][j]) / std::max(1.0, std::abs(b[i][j]));
      if (!(e <= d)) d = std::isnan(e) ? kInf : e;
    }
  }
  return d;
}

double max_deviation(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return kInf;
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols()) return kInf;
    for (index c = 0; c < a[i].cols(); ++c)
      for (index r = 0; r < a[i].rows(); ++r) {
        const double e = std::abs(a[i](r, c) - b[i](r, c)) / std::max(1.0, std::abs(b[i](r, c)));
        if (!(e <= d)) d = std::isnan(e) ? kInf : e;
      }
  }
  return d;
}

bool covariances_well_formed(const std::vector<Matrix>& covs, std::string* why) {
  for (std::size_t i = 0; i < covs.size(); ++i) {
    const Matrix& c = covs[i];
    const auto bad = [&](const char* what) {
      if (why) *why = "covariance " + std::to_string(i) + ": " + what;
      return false;
    };
    if (c.rows() != c.cols()) return bad("not square");
    for (index r = 0; r < c.rows(); ++r) {
      if (!(c(r, r) > 0.0)) return bad("non-positive diagonal");
      for (index q = r + 1; q < c.cols(); ++q) {
        const double scale = std::sqrt(c(r, r) * c(q, q));
        if (!(std::abs(c(r, q) - c(q, r)) <= 1e-12 * scale)) return bad("not symmetric");
      }
    }
  }
  return true;
}

std::pair<Problem, GaussianPrior> observation_as_prior(const Problem& p) {
  if (p.num_states() == 0 || !p.step(0).observation)
    throw std::invalid_argument("observation_as_prior: step 0 has no observation");
  Problem q = p;
  const pitk::kalman::Observation ob = std::move(*q.step(0).observation);
  q.step(0).observation.reset();
  const Matrix ginv = inverse(ob.G);  // throws unless G_0 is square and invertible
  const index n = ginv.rows();
  GaussianPrior prior;
  prior.mean = Vector(n);
  std::vector<double> mean(static_cast<std::size_t>(n), 0.0);
  matvec(ginv, ob.o.data(), mean, false, false, 1.0);
  for (index j = 0; j < n; ++j) prior.mean[j] = mean[static_cast<std::size_t>(j)];
  const Matrix l = ob.noise.covariance();
  // cov = G^{-1} L G^{-T}
  Matrix t(n, n);
  for (index r = 0; r < n; ++r)
    for (index c = 0; c < n; ++c) {
      double s = 0.0;
      for (index j = 0; j < n; ++j) s += ginv(r, j) * l(j, c);
      t(r, c) = s;
    }
  prior.cov = Matrix(n, n);
  for (index r = 0; r < n; ++r)
    for (index c = 0; c < n; ++c) {
      double s = 0.0;
      for (index j = 0; j < n; ++j) s += t(r, j) * ginv(c, j);
      prior.cov(r, c) = s;
    }
  for (index r = 0; r < n; ++r)
    for (index c = r + 1; c < n; ++c)
      prior.cov(r, c) = prior.cov(c, r) = 0.5 * (prior.cov(r, c) + prior.cov(c, r));
  return {std::move(q), std::move(prior)};
}

}  // namespace perfbench
