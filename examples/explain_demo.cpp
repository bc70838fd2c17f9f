// Explain-your-plan demo: enable the decision audit, run a small mxm,
// then ask the library why it executed the way it did.
//
//   $ ./explain_demo
//
// GxB_Explain prints every adaptive choice the library made — SpGEMM
// accumulator selection, masked-dot strategy, serial-vs-parallel
// dispatch — with the predicted cost next to what was actually
// measured, so a mispredicting heuristic is visible instead of just
// slow.
#include <cstdio>
#include <string>

#include "graphblas/GraphBLAS.h"

#define TRY(expr)                                                     \
  do {                                                                \
    GrB_Info info_ = (expr);                                          \
    if (info_ != GrB_SUCCESS) {                                       \
      std::fprintf(stderr, "%s failed: %d\n", #expr, (int)info_);     \
      return 1;                                                       \
    }                                                                 \
  } while (0)

int main() {
  TRY(GrB_init(GrB_NONBLOCKING));
  TRY(GxB_Stats_enable(1));  // stats imply the decision audit

  // A directed cycle plus chords: enough structure that mxm exercises
  // the adaptive SpGEMM path without drowning the explain output.
  const GrB_Index n = 16;
  GrB_Index src[2 * 16], dst[2 * 16];
  double w[2 * 16];
  GrB_Index nnz = 0;
  for (GrB_Index v = 0; v < n; ++v) {
    src[nnz] = v, dst[nnz] = (v + 1) % n, w[nnz] = 1.0, ++nnz;
    src[nnz] = v, dst[nnz] = (v + 5) % n, w[nnz] = 1.0, ++nnz;
  }

  GrB_Matrix a, c;
  TRY(GrB_Matrix_new(&a, GrB_FP64, n, n));
  TRY(GrB_Matrix_build(a, src, dst, w, nnz, GrB_PLUS_FP64));
  TRY(GrB_Matrix_new(&c, GrB_FP64, n, n));
  TRY(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
              GrB_NULL));
  GrB_Index nv;
  TRY(GrB_Matrix_nvals(&nv, c));  // force materialization (nonblocking)
  std::printf("C = A*A has %llu entries\n", (unsigned long long)nv);

  // Two-call sizing protocol, same as GxB_Stats_json: first call with a
  // null buffer reports the needed length, second call fills it.
  GrB_Index len = 0;
  TRY(GxB_Explain(GrB_NULL, GrB_NULL, &len));
  std::string text(len, '\0');
  TRY(GxB_Explain(GrB_NULL, text.data(), &len));
  std::printf("%s", text.c_str());

  TRY(GrB_free(&a));
  TRY(GrB_free(&c));
  TRY(GrB_finalize());
  return 0;
}
