// Experiment A1: end-to-end graph algorithms on the public API — the
// GraphBLAS's reason to exist, and a workout for the 2.0 features
// (select in TC/k-truss, ROWINDEX apply in BFS-parent/CC).
#include "bench/bench_util.hpp"

#include "algorithms/algorithms.hpp"

namespace {

void BM_BfsLevel(benchmark::State& state) {
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Vector level = nullptr;
    BENCH_TRY(grb_algo::bfs_level(&level, a, 0));
    GrB_free(&level);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_BfsLevel)->Arg(10)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_BfsParent(benchmark::State& state) {
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Vector parent = nullptr;
    BENCH_TRY(grb_algo::bfs_parent(&parent, a, 0));
    GrB_free(&parent);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_BfsParent)->Arg(10)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_Sssp(benchmark::State& state) {
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Vector dist = nullptr;
    BENCH_TRY(grb_algo::sssp(&dist, a, 0));
    GrB_free(&dist);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_Sssp)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_PageRank(benchmark::State& state) {
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Vector rank = nullptr;
    BENCH_TRY(grb_algo::pagerank(&rank, a, 0.85, 20, 1e-7));
    GrB_free(&rank);
  }
  state.SetItemsProcessed(state.iterations() * nnz * 20);
  GrB_free(&a);
}
BENCHMARK(BM_PageRank)->Arg(10)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_TriangleCount(benchmark::State& state) {
  GrB_Matrix a =
      benchutil::rmat(static_cast<int>(state.range(0)), 8, true);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    uint64_t count = 0;
    BENCH_TRY(grb_algo::triangle_count(&count, a));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_TriangleCount)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_ConnectedComponents(benchmark::State& state) {
  GrB_Matrix a =
      benchutil::rmat(static_cast<int>(state.range(0)), 4, true);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Vector comp = nullptr;
    BENCH_TRY(grb_algo::connected_components(&comp, a));
    GrB_free(&comp);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_ConnectedComponents)
    ->Arg(10)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_Mis(benchmark::State& state) {
  GrB_Matrix a =
      benchutil::rmat(static_cast<int>(state.range(0)), 4, true);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Vector iset = nullptr;
    BENCH_TRY(grb_algo::mis(&iset, a, 12345));
    GrB_free(&iset);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_Mis)->Arg(10)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_KTruss(benchmark::State& state) {
  GrB_Matrix a =
      benchutil::rmat(static_cast<int>(state.range(0)), 8, true);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Matrix truss = nullptr;
    BENCH_TRY(grb_algo::ktruss(&truss, a, 4));
    GrB_free(&truss);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_KTruss)->Arg(9)->Arg(11)->Unit(benchmark::kMillisecond);

void BM_BetweennessCentrality(benchmark::State& state) {
  GrB_Matrix a = benchutil::rmat(static_cast<int>(state.range(0)), 8);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  const GrB_Index sources[] = {0, 1, 2, 3};
  for (auto _ : state) {
    GrB_Vector bc = nullptr;
    BENCH_TRY(grb_algo::betweenness_centrality(&bc, a, sources, 4));
    GrB_free(&bc);
  }
  state.SetItemsProcessed(state.iterations() * nnz * 4);
  GrB_free(&a);
}
BENCHMARK(BM_BetweennessCentrality)
    ->Arg(9)
    ->Arg(11)
    ->Unit(benchmark::kMillisecond);

void BM_Lcc(benchmark::State& state) {
  GrB_Matrix a =
      benchutil::rmat(static_cast<int>(state.range(0)), 8, true);
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  for (auto _ : state) {
    GrB_Vector lcc = nullptr;
    BENCH_TRY(grb_algo::local_clustering_coefficient(&lcc, a));
    GrB_free(&lcc);
  }
  state.SetItemsProcessed(state.iterations() * nnz);
  GrB_free(&a);
}
BENCHMARK(BM_Lcc)->Arg(9)->Arg(11)->Unit(benchmark::kMillisecond);

// Conjugate gradient on the 27-point stencil of an n^3 grid, a fixed
// kCgIters iterations per solve (tol = 0).  ms_per_iter is one CG step:
// an mxv, two dots and three axpys over full vectors.
constexpr int kCgIters = 20;

void BM_Cg(benchmark::State& state) {
  const auto side = static_cast<GrB_Index>(state.range(0));
  GrB_Matrix a = nullptr;
  BENCH_TRY(grb_algo::stencil27(&a, side, side, side));
  GrB_Index n, nnz;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  GrB_Vector b = nullptr;
  BENCH_TRY(GrB_Vector_new(&b, GrB_FP64, n));
  BENCH_TRY(GrB_assign(b, GrB_NULL, GrB_NULL, 1.0, GrB_ALL, n, GrB_NULL));
  BENCH_TRY(GrB_wait(b, GrB_MATERIALIZE));
  int iters = 0;
  for (auto _ : state) {
    GrB_Vector x = nullptr;
    BENCH_TRY(grb_algo::cg(&x, &iters, a, b, kCgIters, 0.0));
    benchmark::DoNotOptimize(x);
    GrB_free(&x);
  }
  state.SetItemsProcessed(state.iterations() * nnz * iters);
  state.counters["ms_per_iter"] = benchmark::Counter(
      1e-3 * static_cast<double>(state.iterations() * iters),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  GrB_free(&b);
  GrB_free(&a);
}
BENCHMARK(BM_Cg)->Arg(64)->Arg(128)->UseRealTime()->Unit(
    benchmark::kMillisecond);

}  // namespace

GRB_BENCH_MAIN()
