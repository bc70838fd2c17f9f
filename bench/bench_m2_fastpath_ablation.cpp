// Experiment M2 (Motivation §II): "a function pointer call required for
// each scalar operation" is a real performance penalty.  The same
// kernels (mxm/mxv/vxm, and the vector op layer's eWiseAdd, apply,
// reduce and scalar assign) run with the statically typed fast path and
// with the generic function-pointer path; user-defined operators can
// only ever get the latter, which is why 2.0 adds predefined index ops
// instead of making users write unpacking operators.
#include "bench/bench_util.hpp"

#include "ops/mxm.hpp"

namespace {

struct FastpathGuard {
  explicit FastpathGuard(bool enabled) { grb::set_fastpath_enabled(enabled); }
  ~FastpathGuard() { grb::set_fastpath_enabled(true); }
};

void run_mxm(benchmark::State& state, bool fast) {
  FastpathGuard guard(fast);
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, GrB_FP64, n, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, a, GrB_NULL));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  state.counters["fastpath"] = fast ? 1 : 0;
  GrB_free(&a);
  GrB_free(&c);
}

void BM_Mxm_TypedFastPath(benchmark::State& state) { run_mxm(state, true); }
void BM_Mxm_FunctionPointerPath(benchmark::State& state) {
  run_mxm(state, false);
}
BENCHMARK(BM_Mxm_TypedFastPath)->Arg(10)->Arg(12)->Arg(14);
BENCHMARK(BM_Mxm_FunctionPointerPath)->Arg(10)->Arg(12)->Arg(14);

void run_mxv(benchmark::State& state, bool fast) {
  FastpathGuard guard(fast);
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Vector u = benchutil::dense_vector(n, 3);
  GrB_Vector w = nullptr;
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_NULL));
    BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  state.counters["fastpath"] = fast ? 1 : 0;
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

void BM_Mxv_TypedFastPath(benchmark::State& state) { run_mxv(state, true); }
void BM_Mxv_FunctionPointerPath(benchmark::State& state) {
  run_mxv(state, false);
}
BENCHMARK(BM_Mxv_TypedFastPath)->Arg(12)->Arg(15)->Arg(17);
BENCHMARK(BM_Mxv_FunctionPointerPath)->Arg(12)->Arg(15)->Arg(17);

void run_vxm(benchmark::State& state, bool fast) {
  FastpathGuard guard(fast);
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Vector u = benchutil::sparse_vector(n, n / 16, 4);
  GrB_Vector w = nullptr;
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_vxm(w, GrB_NULL, GrB_NULL, GrB_MIN_PLUS_SEMIRING_FP64, u,
                      a, GrB_NULL));
    BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * (nnz / 16));
  state.counters["fastpath"] = fast ? 1 : 0;
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

void BM_Vxm_TypedFastPath(benchmark::State& state) { run_vxm(state, true); }
void BM_Vxm_FunctionPointerPath(benchmark::State& state) {
  run_vxm(state, false);
}
BENCHMARK(BM_Vxm_TypedFastPath)->Arg(12)->Arg(15)->Arg(17);
BENCHMARK(BM_Vxm_FunctionPointerPath)->Arg(12)->Arg(15)->Arg(17);

// The vector op layer: full FP64 vectors of n = 2^14..2^18, each leg
// through the same kernel with the typed runner (inlined scalar body)
// and with the generic runner (a function-pointer call per scalar).
enum class VecLeg { kEwiseAdd, kApplyBind2nd, kReduce, kAssignAccum };

void run_vec(benchmark::State& state, VecLeg leg, bool fast) {
  FastpathGuard guard(fast);
  const GrB_Index n = GrB_Index{1} << state.range(0);
  GrB_Vector u = benchutil::dense_vector(n, 5);
  GrB_Vector v = benchutil::dense_vector(n, 6);
  GrB_Vector w = nullptr;
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, n));
  for (auto _ : state) {
    switch (leg) {
      case VecLeg::kEwiseAdd:
        BENCH_TRY(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, v,
                               GrB_NULL));
        BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
        break;
      case VecLeg::kApplyBind2nd:
        BENCH_TRY(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, u, 0.85,
                            GrB_NULL));
        BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
        break;
      case VecLeg::kReduce: {
        double sum = 0.0;
        BENCH_TRY(GrB_reduce(&sum, GrB_NULL, GrB_PLUS_MONOID_FP64, u,
                             GrB_NULL));
        benchmark::DoNotOptimize(sum);
        break;
      }
      case VecLeg::kAssignAccum:
        BENCH_TRY(GrB_assign(w, GrB_NULL, GrB_PLUS_FP64, 0.5, GrB_ALL, n,
                             GrB_NULL));
        BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
        break;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["fastpath"] = fast ? 1 : 0;
  GrB_free(&u);
  GrB_free(&v);
  GrB_free(&w);
}

#define GRB_VEC_LEG(NAME, LEG)                                         \
  void BM_##NAME##_TypedFastPath(benchmark::State& state) {            \
    run_vec(state, VecLeg::LEG, true);                                 \
  }                                                                    \
  void BM_##NAME##_FunctionPointerPath(benchmark::State& state) {      \
    run_vec(state, VecLeg::LEG, false);                                \
  }                                                                    \
  BENCHMARK(BM_##NAME##_TypedFastPath)->DenseRange(14, 18, 2);         \
  BENCHMARK(BM_##NAME##_FunctionPointerPath)->DenseRange(14, 18, 2);
GRB_VEC_LEG(VecEwiseAdd, kEwiseAdd)
GRB_VEC_LEG(VecApplyBind2nd, kApplyBind2nd)
GRB_VEC_LEG(VecReduce, kReduce)
GRB_VEC_LEG(VecAssignAccum, kAssignAccum)
#undef GRB_VEC_LEG

// The fully user-defined semiring: always on the function-pointer path,
// whatever the dispatcher does — the §II floor for custom algebra.
void user_plus(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, 8);
  std::memcpy(&b, y, 8);
  double r = a + b;
  std::memcpy(z, &r, 8);
}
void user_times(void* z, const void* x, const void* y) {
  double a, b;
  std::memcpy(&a, x, 8);
  std::memcpy(&b, y, 8);
  double r = a * b;
  std::memcpy(z, &r, 8);
}

void BM_Mxm_UserDefinedSemiring(benchmark::State& state) {
  GrB_BinaryOp plus = nullptr, times = nullptr;
  BENCH_TRY(GrB_BinaryOp_new(&plus, &user_plus, GrB_FP64, GrB_FP64,
                             GrB_FP64));
  BENCH_TRY(GrB_BinaryOp_new(&times, &user_times, GrB_FP64, GrB_FP64,
                             GrB_FP64));
  GrB_Monoid add = nullptr;
  BENCH_TRY(GrB_Monoid_new(&add, plus, 0.0));
  GrB_Semiring ring = nullptr;
  BENCH_TRY(GrB_Semiring_new(&ring, add, times));
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, GrB_FP64, n, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, GrB_NULL, GrB_NULL, ring, a, a, GrB_NULL));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
  GrB_free(&c);
  GrB_free(&ring);
  GrB_free(&add);
  GrB_free(&plus);
  GrB_free(&times);
}
BENCHMARK(BM_Mxm_UserDefinedSemiring)->Arg(10)->Arg(12)->Arg(14);

}  // namespace

GRB_BENCH_MAIN()
