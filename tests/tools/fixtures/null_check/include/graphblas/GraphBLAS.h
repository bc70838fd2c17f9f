// Fixture: null-check-before-deref.  Seeded violations:
//  * GrB_Matrix_nrows writes through `nrows` and reads through `A`
//    before either is checked against nullptr (two findings);
//  * the first GrB_Matrix_nvals overload never checks `nvals` (one).
// The second GrB_Matrix_nvals overload and GrB_Matrix_ncols check
// before they dereference and must produce no finding.
typedef int GrB_Info;
typedef unsigned long GrB_Index;
typedef struct GrB_Matrix_opaque* GrB_Matrix;
#define GrB_SUCCESS 0
#define GrB_NULL_POINTER (-2)

namespace grb_detail {
template <typename F>
GrB_Info guarded(F f) {
  return f();
}
}  // namespace grb_detail

inline GrB_Info GrB_Matrix_nrows(GrB_Index* nrows, const GrB_Matrix A) {
  return grb_detail::guarded([&]() -> GrB_Info {
    *nrows = A->nrows;
    if (nrows == nullptr || A == nullptr) return GrB_NULL_POINTER;
    return GrB_SUCCESS;
  });
}

inline GrB_Info GrB_Matrix_ncols(GrB_Index* ncols, const GrB_Matrix A) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (ncols == nullptr || A == nullptr) return GrB_NULL_POINTER;
    *ncols = A->ncols;
    return GrB_SUCCESS;
  });
}

inline GrB_Info GrB_Matrix_nvals(GrB_Index* nvals, const GrB_Matrix A) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (A == nullptr) return GrB_NULL_POINTER;
    *nvals = A->nvals;
    return GrB_SUCCESS;
  });
}

inline GrB_Info GrB_Matrix_nvals(GrB_Index* nvals, const GrB_Matrix A,
                                 int unused) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (nvals == nullptr || A == nullptr) return GrB_NULL_POINTER;
    *nvals = A->nvals + unused;
    return GrB_SUCCESS;
  });
}
