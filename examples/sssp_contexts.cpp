// SSSP under hierarchical execution contexts (paper §IV / Figure 2).
//
// Creates a nested GrB_Context with an explicit thread budget via the
// documented grb::ContextConfig `exec` structure, homes the graph in it
// with the context-taking constructor, runs Bellman-Ford, then re-homes
// the result into the top-level context with GrB_Context_switch.
#include <cstdio>
#include <cstdlib>

#include "algorithms/algorithms.hpp"
#include "graphblas/GraphBLAS.h"
#include "util/generator.hpp"
#include "util/timer.hpp"

#define TRY(expr)                                                     \
  do {                                                                \
    GrB_Info info_ = (expr);                                          \
    if (info_ != GrB_SUCCESS) {                                       \
      std::fprintf(stderr, "%s failed: %d\n", #expr, (int)info_);     \
      return 1;                                                       \
    }                                                                 \
  } while (0)

int main(int argc, char** argv) {
  int scale = argc > 1 ? std::atoi(argv[1]) : 11;
  int nthreads = argc > 2 ? std::atoi(argv[2]) : 2;

  TRY(GrB_init(GrB_NONBLOCKING));

  // Nested context with an explicit resource budget (Figure 2's `exec`).
  GrB_ContextConfig config;
  config.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  TRY(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &config));

  GrB_Matrix a = nullptr;
  TRY(static_cast<GrB_Info>(
      grb::rmat_matrix(&a, scale, 8, grb::RmatParams{}, ctx)));
  GrB_Index n;
  TRY(GrB_Matrix_nrows(&n, a));
  std::printf("graph homed in a %d-thread nested context (%llu vertices)\n",
              nthreads, (unsigned long long)n);

  // The distance vector must share the matrix's context (paper §IV:
  // "all the GraphBLAS matrices and vectors in a method share a
  // context").  bfs/sssp allocate outputs in the top-level context, so
  // run the kernel loop here with context-matched temporaries.
  GrB_Vector d = nullptr, t = nullptr;
  TRY(GrB_Vector_new(&d, GrB_FP64, n, ctx));
  TRY(GrB_Vector_new(&t, GrB_FP64, n, ctx));
  TRY(GrB_Vector_setElement(d, 0.0, 0));
  grb::Timer timer;
  for (GrB_Index iter = 0; iter < n; ++iter) {
    TRY(GrB_vxm(t, GrB_NULL, GrB_NULL, GrB_MIN_PLUS_SEMIRING_FP64, d, a,
                GrB_NULL));
    TRY(GrB_eWiseAdd(t, GrB_NULL, GrB_NULL, GrB_MIN_FP64, t, d, GrB_NULL));
    GrB_Index nd, nt;
    TRY(GrB_Vector_nvals(&nd, d));
    TRY(GrB_Vector_nvals(&nt, t));
    std::swap(d, t);
    if (nd == nt && iter > 2) break;  // settled (structure stabilized)
  }
  TRY(GrB_wait(d, GrB_MATERIALIZE));
  std::printf("relaxation loop: %.1f ms\n", timer.millis());

  GrB_Index reached = 0;
  TRY(GrB_Vector_nvals(&reached, d));
  double total = 0;
  TRY(GrB_reduce(&total, GrB_NULL, GrB_PLUS_MONOID_FP64, d, GrB_NULL));
  std::printf("reached %llu vertices, distance mass %.2f\n",
              (unsigned long long)reached, total);

  // Re-home the result into the top-level context and free the nested
  // context; the object remains usable afterwards.
  TRY(GrB_Context_switch(d, GrB_NULL));
  TRY(GrB_free(&t));
  TRY(GrB_free(&a));
  TRY(GrB_free(&ctx));
  double check = 0;
  TRY(GrB_reduce(&check, GrB_NULL, GrB_PLUS_MONOID_FP64, d, GrB_NULL));
  std::printf("after context switch, distance mass still %.2f\n", check);
  TRY(GrB_free(&d));
  TRY(GrB_finalize());
  std::printf("sssp_contexts OK\n");
  return 0;
}
