// k-truss: iteratively keep edges supported by >= k-2 triangles.
// Uses the GraphBLAS 2.0 select operation with GrB_VALUEGE each round —
// the "functional input mask" of paper §VIII.C — and counts support
// with the 2.0 <PLUS, ONEB> semiring, which ignores its operands: B
// keeps the previous round's support and needs no reset to ones.
#include "algorithms/algo_util.hpp"
#include "algorithms/algorithms.hpp"

namespace grb_algo {

GrB_Info ktruss(GrB_Matrix* truss, GrB_Matrix a, uint32_t k) {
  if (truss == nullptr || a == nullptr) return GrB_NULL_POINTER;
  if (k < 3) return GrB_INVALID_VALUE;
  GrB_Index n;
  ALGO_TRY(GrB_Matrix_nrows(&n, a));

  GrB_Semiring plus_oneb = nullptr;
  GrB_Matrix b = nullptr, c = nullptr;
  auto fail = [&](GrB_Info i) {
    GrB_free(&plus_oneb);
    GrB_free(&b);
    GrB_free(&c);
    return i;
  };
  ALGO_TRY(GrB_Semiring_new(&plus_oneb, GrB_PLUS_MONOID_INT64,
                            GrB_ONEB_INT64));
  // b = pattern of A minus the diagonal; its values do not matter.
  ALGO_TRY_OR(GrB_Matrix_new(&b, GrB_INT64, n, n), fail);
  ALGO_TRY_OR(GrB_select(b, GrB_NULL, GrB_NULL, GrB_OFFDIAG, a,
                         static_cast<int64_t>(0), GrB_NULL),
              fail);
  ALGO_TRY_OR(GrB_Matrix_new(&c, GrB_INT64, n, n), fail);

  int64_t support = static_cast<int64_t>(k) - 2;
  GrB_Index last_nvals = ~GrB_Index{0};
  for (;;) {
    // c<b, structure, replace> = b * b: per-edge triangle support.  b is
    // symmetric, so b' = b and no round transposes.
    ALGO_TRY_OR(GrB_mxm(c, b, GrB_NULL, plus_oneb, b, b, GrB_DESC_RS), fail);
    // b = select(c, support >= k-2), keeping the support as the value.
    ALGO_TRY_OR(GrB_select(b, GrB_NULL, GrB_NULL, GrB_VALUEGE_INT64, c,
                           support, GrB_NULL),
                fail);
    GrB_Index nv = 0;
    ALGO_TRY_OR(GrB_Matrix_nvals(&nv, b), fail);
    if (nv == last_nvals || nv == 0) break;
    last_nvals = nv;
  }
  GrB_free(&plus_oneb);
  GrB_free(&c);
  *truss = b;
  return GrB_SUCCESS;
}

}  // namespace grb_algo
