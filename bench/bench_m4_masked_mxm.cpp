// Experiment M4 (ablation, DESIGN.md): the two masked mxm strategies for
// a structural mask — masked dot products vs. the mask-driven saxpy
// (Gustavson folding only products that land in the mask) — and the
// auto cost model choosing between them, on three mask shapes: the
// triangle-counting pattern C<L,struct> = L*L', the k-truss support
// count C<B,struct,replace> = B*B' on a symmetric graph, and a
// one-entry-per-row point-query mask.  Masked dot's work is the exact
// sum over M of |A(i,:)| + |B'(j,:)|, so it wins as the mask gets
// sparser relative to the full product.  The TcCount and KtrussCount
// legs run the first two shapes over INT64 <PLUS, ONEB>, the counting
// semiring whose masked saxpy takes the count fold (DESIGN.md §10).
#include "bench/bench_util.hpp"

#include "ops/mxm.hpp"

namespace {

struct StrategyGuard {
  explicit StrategyGuard(grb::MxmStrategy s) { grb::set_mxm_strategy(s); }
  ~StrategyGuard() { grb::set_mxm_strategy(grb::MxmStrategy::kAuto); }
};

// <PLUS, ONEB> over INT64 for the count legs, PLUS_TIMES otherwise.
struct Ring {
  GrB_Semiring s = nullptr;
  explicit Ring(bool count) {
    if (count) {
      BENCH_TRY(GrB_Semiring_new(&s, GrB_PLUS_MONOID_INT64, GrB_ONEB_INT64));
    }
  }
  ~Ring() { GrB_free(&s); }
};

GrB_Matrix lower_triangle(int scale, GrB_Type type) {
  GrB_Matrix g = benchutil::rmat(scale, 8, /*symmetrize=*/true);
  GrB_Index n;
  BENCH_TRY(GrB_Matrix_nrows(&n, g));
  GrB_Matrix l = nullptr;
  BENCH_TRY(GrB_Matrix_new(&l, type, n, n));
  BENCH_TRY(GrB_select(l, GrB_NULL, GrB_NULL, GrB_TRIL, g, int64_t{-1},
                       GrB_NULL));
  BENCH_TRY(GrB_wait(l, GrB_MATERIALIZE));
  GrB_free(&g);
  return l;
}

void run_tc_mxm(benchmark::State& state, grb::MxmStrategy strategy,
                bool count = false) {
  StrategyGuard guard(strategy);
  Ring ring(count);
  const GrB_Type type = count ? GrB_INT64 : GrB_FP64;
  GrB_Matrix l = lower_triangle(static_cast<int>(state.range(0)), type);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, l));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, l));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, type, n, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, l, GrB_NULL,
                      count ? ring.s : GrB_PLUS_TIMES_SEMIRING_FP64, l, l,
                      GrB_DESC_RST1));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&l);
  GrB_free(&c);
}

void BM_TcMxm_Gustavson(benchmark::State& state) {
  run_tc_mxm(state, grb::MxmStrategy::kGustavson);
}
void BM_TcMxm_MaskedDot(benchmark::State& state) {
  run_tc_mxm(state, grb::MxmStrategy::kMaskedDot);
}
void BM_TcMxm_Auto(benchmark::State& state) {
  run_tc_mxm(state, grb::MxmStrategy::kAuto);
}
BENCHMARK(BM_TcMxm_Gustavson)->Arg(9)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcMxm_MaskedDot)->Arg(9)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcMxm_Auto)->Arg(9)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_TcCountMxm_Gustavson(benchmark::State& state) {
  run_tc_mxm(state, grb::MxmStrategy::kGustavson, /*count=*/true);
}
void BM_TcCountMxm_Auto(benchmark::State& state) {
  run_tc_mxm(state, grb::MxmStrategy::kAuto, /*count=*/true);
}
BENCHMARK(BM_TcCountMxm_Gustavson)->Arg(9)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TcCountMxm_Auto)->Arg(9)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);

// k-truss support count: C<B,struct,replace> = B*B' with B the INT64
// pattern of a symmetric R-MAT graph (no diagonal), exactly the multiply
// each k-truss peeling round runs.  The mask is as dense as the graph,
// so on skewed degrees the saxpy's sum of deg(k)^2 undercuts the dot's
// two-sided sum over every edge.
void run_ktruss_mxm(benchmark::State& state, grb::MxmStrategy strategy,
                    bool count = false) {
  StrategyGuard guard(strategy);
  Ring ring(count);
  GrB_Matrix g = benchutil::rmat(static_cast<int>(state.range(0)), 8,
                                 /*symmetrize=*/true);
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, g));
  GrB_Matrix b = nullptr;
  BENCH_TRY(GrB_Matrix_new(&b, GrB_INT64, n, n));
  BENCH_TRY(GrB_select(b, GrB_NULL, GrB_NULL, GrB_OFFDIAG, g, int64_t{0},
                       GrB_NULL));
  BENCH_TRY(GrB_apply(b, GrB_NULL, GrB_NULL, GrB_ONEB_INT64, b, int64_t{1},
                      GrB_NULL));
  BENCH_TRY(GrB_wait(b, GrB_MATERIALIZE));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, b));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, GrB_INT64, n, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, b, GrB_NULL,
                      count ? ring.s : GrB_PLUS_TIMES_SEMIRING_INT64, b, b,
                      GrB_DESC_RST1));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&g);
  GrB_free(&b);
  GrB_free(&c);
}

void BM_KtrussMxm_Gustavson(benchmark::State& state) {
  run_ktruss_mxm(state, grb::MxmStrategy::kGustavson);
}
void BM_KtrussMxm_MaskedDot(benchmark::State& state) {
  run_ktruss_mxm(state, grb::MxmStrategy::kMaskedDot);
}
void BM_KtrussMxm_Auto(benchmark::State& state) {
  run_ktruss_mxm(state, grb::MxmStrategy::kAuto);
}
BENCHMARK(BM_KtrussMxm_Gustavson)->Arg(10)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KtrussMxm_MaskedDot)->Arg(10)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KtrussMxm_Auto)->Arg(10)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_KtrussCountMxm_Gustavson(benchmark::State& state) {
  run_ktruss_mxm(state, grb::MxmStrategy::kGustavson, /*count=*/true);
}
void BM_KtrussCountMxm_Auto(benchmark::State& state) {
  run_ktruss_mxm(state, grb::MxmStrategy::kAuto, /*count=*/true);
}
BENCHMARK(BM_KtrussCountMxm_Gustavson)->Arg(10)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KtrussCountMxm_Auto)->Arg(10)->Arg(11)->Arg(12)->Unit(benchmark::kMillisecond);

// Sparse point-query mask: the extreme case masked-dot exists for.
void run_point_mask(benchmark::State& state, grb::MxmStrategy strategy) {
  StrategyGuard guard(strategy);
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index n;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  // Mask with one entry per row: "what is C(i, pi(i))?"
  GrB_Matrix m = nullptr;
  BENCH_TRY(GrB_Matrix_new(&m, GrB_BOOL, n, n));
  grb::Prng rng(5);
  for (GrB_Index i = 0; i < n; ++i)
    BENCH_TRY(GrB_Matrix_setElement(m, true, i, rng.below(n)));
  BENCH_TRY(GrB_wait(m, GrB_MATERIALIZE));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, GrB_FP64, n, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, m, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                      GrB_DESC_RS));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  state.SetItemsProcessed(state.iterations() * n);
  GrB_free(&a);
  GrB_free(&m);
  GrB_free(&c);
}

void BM_PointMaskMxm_Gustavson(benchmark::State& state) {
  run_point_mask(state, grb::MxmStrategy::kGustavson);
}
void BM_PointMaskMxm_MaskedDot(benchmark::State& state) {
  run_point_mask(state, grb::MxmStrategy::kMaskedDot);
}
void BM_PointMaskMxm_Auto(benchmark::State& state) {
  run_point_mask(state, grb::MxmStrategy::kAuto);
}
BENCHMARK(BM_PointMaskMxm_Gustavson)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PointMaskMxm_MaskedDot)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PointMaskMxm_Auto)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);

}  // namespace

GRB_BENCH_MAIN()
