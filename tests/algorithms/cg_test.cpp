// Conjugate gradient on the 27-point stencil against a plain C++ CG that
// builds the same operator from the grid directly.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "tests/grb_test_util.hpp"

namespace {

// Row-major CSR of the 27-point stencil, built from grid coordinates.
struct Csr {
  std::vector<GrB_Index> ptr, col;
  std::vector<double> val;
};

Csr stencil_reference(int nx, int ny, int nz) {
  Csr a;
  a.ptr.push_back(0);
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        for (int dz = -1; dz <= 1; ++dz)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) {
              const int xx = x + dx, yy = y + dy, zz = z + dz;
              if (xx < 0 || yy < 0 || zz < 0 || xx >= nx || yy >= ny ||
                  zz >= nz)
                continue;
              a.col.push_back(xx + nx * (yy + ny * zz));
              a.val.push_back(dx == 0 && dy == 0 && dz == 0 ? 26.0 : -1.0);
            }
        a.ptr.push_back(a.col.size());
      }
  return a;
}

std::vector<double> matvec(const Csr& a, const std::vector<double>& v) {
  std::vector<double> out(a.ptr.size() - 1, 0.0);
  for (size_t i = 0; i + 1 < a.ptr.size(); ++i)
    for (GrB_Index k = a.ptr[i]; k < a.ptr[i + 1]; ++k)
      out[i] += a.val[k] * v[a.col[k]];
  return out;
}

double dot(const std::vector<double>& u, const std::vector<double>& v) {
  double s = 0.0;
  for (size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
  return s;
}

std::vector<double> cg_reference(const Csr& a, const std::vector<double>& b,
                                 int max_iters, double tol) {
  std::vector<double> x(b.size(), 0.0), r = b, p = b;
  double rr = dot(r, r);
  const double stop = tol * std::sqrt(rr);
  for (int k = 0; k < max_iters && std::sqrt(rr) > stop; ++k) {
    std::vector<double> q = matvec(a, p);
    const double alpha = rr / dot(p, q);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    rr = rr_new;
    for (size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
  }
  return x;
}

double residual_norm(const Csr& a, const std::vector<double>& x,
                     const std::vector<double>& b) {
  std::vector<double> ax = matvec(a, x);
  double s = 0.0;
  for (size_t i = 0; i < b.size(); ++i) s += (b[i] - ax[i]) * (b[i] - ax[i]);
  return std::sqrt(s);
}

TEST(CgTest, StencilMatchesGridConstruction) {
  const int nx = 5, ny = 4, nz = 3;
  const Csr want = stencil_reference(nx, ny, nz);
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb_algo::stencil27(&a, nx, ny, nz), GrB_SUCCESS);
  GrB_Index n, nv;
  ASSERT_EQ(GrB_Matrix_nrows(&n, a), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  ASSERT_EQ(n, GrB_Index(nx * ny * nz));
  ASSERT_EQ(nv, want.col.size());
  std::vector<GrB_Index> ri(nv), ci(nv);
  std::vector<double> vals(nv);
  ASSERT_EQ(GrB_Matrix_extractTuples(ri.data(), ci.data(), vals.data(), &nv,
                                     a),
            GrB_SUCCESS);
  for (GrB_Index k = 0; k < nv; ++k) {
    EXPECT_GE(k, want.ptr[ri[k]]);
    EXPECT_LT(k, want.ptr[ri[k] + 1]);
    EXPECT_EQ(ci[k], want.col[k]);
    EXPECT_EQ(vals[k], want.val[k]);
  }
  GrB_free(&a);
}

TEST(CgTest, ResidualMatchesPlainCg) {
  const int nx = 6, ny = 5, nz = 4;
  const Csr ref = stencil_reference(nx, ny, nz);
  const GrB_Index n = nx * ny * nz;
  std::vector<double> bv(n);
  for (GrB_Index i = 0; i < n; ++i) bv[i] = 1.0 + static_cast<double>(i % 7);

  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb_algo::stencil27(&a, nx, ny, nz), GrB_SUCCESS);
  GrB_Vector b = nullptr;
  ASSERT_EQ(GrB_Vector_new(&b, GrB_FP64, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    ASSERT_EQ(GrB_Vector_setElement(b, bv[i], i), GrB_SUCCESS);

  const double tol = 1e-10;
  GrB_Vector x = nullptr;
  int iters = -1;
  ASSERT_EQ(grb_algo::cg(&x, &iters, a, b, 500, tol), GrB_SUCCESS);
  EXPECT_GT(iters, 0);
  EXPECT_LT(iters, 500);
  std::vector<double> got(n);
  for (GrB_Index i = 0; i < n; ++i)
    ASSERT_EQ(GrB_Vector_extractElement(&got[i], x, i), GrB_SUCCESS);

  const std::vector<double> want = cg_reference(ref, bv, 500, tol);
  const double bnorm = std::sqrt(dot(bv, bv));
  EXPECT_LE(residual_norm(ref, got, bv), 10 * tol * bnorm);
  EXPECT_LE(residual_norm(ref, want, bv), 10 * tol * bnorm);
  for (GrB_Index i = 0; i < n; ++i)
    EXPECT_NEAR(got[i], want[i], 1e-9 * (1.0 + std::fabs(want[i]))) << i;

  // A capped solve stops at exactly max_iters.
  GrB_Vector x2 = nullptr;
  ASSERT_EQ(grb_algo::cg(&x2, &iters, a, b, 3, 0.0), GrB_SUCCESS);
  EXPECT_EQ(iters, 3);
  GrB_free(&x2);
  GrB_free(&x);
  GrB_free(&b);
  GrB_free(&a);
}

TEST(CgTest, RejectsBadArguments) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb_algo::stencil27(&a, 2, 2, 2), GrB_SUCCESS);
  GrB_Vector b = nullptr, x = nullptr;
  ASSERT_EQ(GrB_Vector_new(&b, GrB_FP64, 7), GrB_SUCCESS);
  EXPECT_EQ(grb_algo::cg(&x, nullptr, a, b, 10, 1e-8),
            GrB_DIMENSION_MISMATCH);
  EXPECT_EQ(grb_algo::cg(nullptr, nullptr, a, b, 10, 1e-8),
            GrB_NULL_POINTER);
  EXPECT_EQ(grb_algo::stencil27(&a, 0, 2, 2), GrB_INVALID_VALUE);
  GrB_free(&b);
  GrB_free(&a);
}

}  // namespace
