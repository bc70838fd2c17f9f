// Conjugate gradient on the HPCG operator (Scolari and Yzelman,
// "Effective implementation of HPCG on GraphBLAS"): each iteration is
// one mxv, two dot products and three axpy updates over full vectors.
//
// The 27-point stencil is generated in process, row by row in CSR
// order, and imported in one call, so no input file is needed.
#include <cmath>
#include <vector>

#include "algorithms/algo_util.hpp"
#include "algorithms/algorithms.hpp"

namespace grb_algo {
namespace {

// s = u . v  (eWiseMult into a scratch vector, then a PLUS reduce).
GrB_Info dot(double* s, GrB_Vector t, GrB_Vector u, GrB_Vector v) {
  ALGO_TRY(GrB_eWiseMult(t, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, u, v,
                         GrB_NULL));
  return GrB_reduce(s, GrB_NULL, GrB_PLUS_MONOID_FP64, t, GrB_NULL);
}

}  // namespace

GrB_Info stencil27(GrB_Matrix* a, GrB_Index nx, GrB_Index ny,
                   GrB_Index nz) {
  if (a == nullptr) return GrB_NULL_POINTER;
  if (nx == 0 || ny == 0 || nz == 0) return GrB_INVALID_VALUE;
  const GrB_Index n = nx * ny * nz;
  std::vector<GrB_Index> ptr(n + 1, 0), col;
  std::vector<double> val;
  col.reserve(27 * n);
  val.reserve(27 * n);
  // Row r = x + nx*(y + ny*z).  Visiting the neighbours with dz outer
  // and dx inner yields each row's columns in ascending order.
  for (GrB_Index z = 0; z < nz; ++z) {
    for (GrB_Index y = 0; y < ny; ++y) {
      for (GrB_Index x = 0; x < nx; ++x) {
        const GrB_Index r = x + nx * (y + ny * z);
        for (int dz = -1; dz <= 1; ++dz) {
          if ((z == 0 && dz < 0) || (z + 1 == nz && dz > 0)) continue;
          for (int dy = -1; dy <= 1; ++dy) {
            if ((y == 0 && dy < 0) || (y + 1 == ny && dy > 0)) continue;
            for (int dx = -1; dx <= 1; ++dx) {
              if ((x == 0 && dx < 0) || (x + 1 == nx && dx > 0)) continue;
              const GrB_Index c = (x + dx) + nx * ((y + dy) + ny * (z + dz));
              col.push_back(c);
              val.push_back(c == r ? 26.0 : -1.0);
            }
          }
        }
        ptr[r + 1] = col.size();
      }
    }
  }
  return GrB_Matrix_import(a, GrB_FP64, n, n, ptr.data(), col.data(),
                           val.data(), n + 1, col.size(), val.size(),
                           GrB_CSR_MATRIX);
}

GrB_Info cg(GrB_Vector* x_out, int* iters, GrB_Matrix a, GrB_Vector b,
            int max_iters, double tol) {
  if (x_out == nullptr || a == nullptr || b == nullptr)
    return GrB_NULL_POINTER;
  if (max_iters < 0 || tol < 0.0) return GrB_INVALID_VALUE;
  GrB_Index n, nc, nb;
  ALGO_TRY(GrB_Matrix_nrows(&n, a));
  ALGO_TRY(GrB_Matrix_ncols(&nc, a));
  ALGO_TRY(GrB_Vector_size(&nb, b));
  if (n != nc || n != nb) return GrB_DIMENSION_MISMATCH;

  GrB_Vector x = nullptr, r = nullptr, p = nullptr, q = nullptr,
             t = nullptr;
  auto fail = [&](GrB_Info i) {
    GrB_free(&x);
    GrB_free(&r);
    GrB_free(&p);
    GrB_free(&q);
    GrB_free(&t);
    return i;
  };
  // x = 0, r = b - A*0 = b, p = r.
  ALGO_TRY_OR(GrB_Vector_new(&x, GrB_FP64, n), fail);
  ALGO_TRY_OR(GrB_assign(x, GrB_NULL, GrB_NULL, 0.0, GrB_ALL, n, GrB_NULL),
              fail);
  ALGO_TRY_OR(GrB_Vector_dup(&r, b), fail);
  ALGO_TRY_OR(GrB_Vector_dup(&p, b), fail);
  ALGO_TRY_OR(GrB_Vector_new(&q, GrB_FP64, n), fail);
  ALGO_TRY_OR(GrB_Vector_new(&t, GrB_FP64, n), fail);

  double rr = 0.0;
  ALGO_TRY_OR(dot(&rr, t, r, r), fail);
  const double stop = tol * std::sqrt(rr);
  int k = 0;
  for (; k < max_iters && std::sqrt(rr) > stop; ++k) {
    // q = A p; alpha = rr / (p . q).
    ALGO_TRY_OR(GrB_mxv(q, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                        a, p, GrB_NULL),
                fail);
    double pq = 0.0;
    ALGO_TRY_OR(dot(&pq, t, p, q), fail);
    if (pq == 0.0) break;
    const double alpha = rr / pq;
    // x += alpha p; r -= alpha q.  x is completed every iteration so its
    // sequence never holds more than one step's operand snapshots.
    ALGO_TRY_OR(GrB_apply(t, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, alpha, p,
                          GrB_NULL),
                fail);
    ALGO_TRY_OR(GrB_eWiseAdd(x, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, x, t,
                             GrB_NULL),
                fail);
    ALGO_TRY_OR(GrB_wait(x, GrB_COMPLETE), fail);
    ALGO_TRY_OR(GrB_apply(t, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, alpha, q,
                          GrB_NULL),
                fail);
    ALGO_TRY_OR(GrB_eWiseAdd(r, GrB_NULL, GrB_NULL, GrB_MINUS_FP64, r, t,
                             GrB_NULL),
                fail);
    // p = r + beta p, with beta = rr_new / rr.
    double rr_new = 0.0;
    ALGO_TRY_OR(dot(&rr_new, t, r, r), fail);
    const double beta = rr_new / rr;
    rr = rr_new;
    ALGO_TRY_OR(GrB_apply(p, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, p, beta,
                          GrB_NULL),
                fail);
    ALGO_TRY_OR(GrB_eWiseAdd(p, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, r, p,
                             GrB_NULL),
                fail);
  }
  ALGO_TRY_OR(GrB_wait(x, GrB_MATERIALIZE), fail);
  GrB_free(&r);
  GrB_free(&p);
  GrB_free(&q);
  GrB_free(&t);
  if (iters != nullptr) *iters = k;
  *x_out = x;
  return GrB_SUCCESS;
}

}  // namespace grb_algo
