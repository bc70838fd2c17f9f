// Triangle counting (Sandia LL): ntri = sum(C) where C<L,struct> = L*L'
// and L is the strict lower triangle of the (symmetric) adjacency
// matrix.  L is produced with the GraphBLAS 2.0 select/GrB_TRIL
// operation — the paper's §VIII.C flagship use case — and C counts with
// the 2.0 <PLUS, ONEB> semiring, so A's values do not matter.
#include "algorithms/algo_util.hpp"
#include "algorithms/algorithms.hpp"

namespace grb_algo {

GrB_Info triangle_count(uint64_t* count, GrB_Matrix a) {
  if (count == nullptr || a == nullptr) return GrB_NULL_POINTER;
  GrB_Index n;
  ALGO_TRY(GrB_Matrix_nrows(&n, a));

  GrB_Semiring plus_oneb = nullptr;
  GrB_Matrix l = nullptr, c = nullptr;
  auto fail = [&](GrB_Info i) {
    GrB_free(&plus_oneb);
    GrB_free(&l);
    GrB_free(&c);
    return i;
  };
  ALGO_TRY(GrB_Semiring_new(&plus_oneb, GrB_PLUS_MONOID_INT64,
                            GrB_ONEB_INT64));
  // l = strict lower triangle: select TRIL with s = -1 (j <= i - 1).
  ALGO_TRY_OR(GrB_Matrix_new(&l, GrB_INT64, n, n), fail);
  ALGO_TRY_OR(GrB_select(l, GrB_NULL, GrB_NULL, GrB_TRIL, a,
                         static_cast<int64_t>(-1), GrB_NULL),
              fail);
  // c<l, structure> = l * l'
  ALGO_TRY_OR(GrB_Matrix_new(&c, GrB_INT64, n, n), fail);
  ALGO_TRY_OR(GrB_mxm(c, l, GrB_NULL, plus_oneb, l, l, GrB_DESC_ST1), fail);
  int64_t ntri = 0;
  ALGO_TRY_OR(
      GrB_reduce(&ntri, GrB_NULL, GrB_PLUS_MONOID_INT64, c, GrB_NULL),
      fail);
  GrB_free(&plus_oneb);
  GrB_free(&l);
  GrB_free(&c);
  *count = static_cast<uint64_t>(ntri);
  return GrB_SUCCESS;
}

}  // namespace grb_algo
