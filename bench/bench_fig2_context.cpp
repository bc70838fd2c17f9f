// Experiment F2 (paper Figure 2 / §IV): execution contexts.
//  * mxm under contexts configured with 1..8 threads (the resource knob
//    the GrB_Context exists to expose);
//  * context lifecycle micro-costs (new/switch/free) and nesting depth;
//  * the fork/join round trip of a context's thread pool.
#include <chrono>
#include <functional>

#include "bench/bench_util.hpp"
#include "exec/context.hpp"
#include "exec/thread_pool.hpp"

namespace {

void BM_MxmUnderContextThreads(benchmark::State& state) {
  GrB_ContextConfig cfg;
  cfg.nthreads = static_cast<int>(state.range(0));
  GrB_Context ctx = nullptr;
  BENCH_TRY(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg));
  grb::RmatParams params;
  GrB_Matrix a = nullptr;
  // Scale 14 x factor 8 ~ 130k edges: comfortably above the serial-fallback
  // threshold, so every thread count exercises the parallel kernels.
  BENCH_TRY((GrB_Info)grb::rmat_matrix(&a, 14, 8, params, ctx));
  GrB_Index n;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  GrB_Matrix c = nullptr;
  BENCH_TRY(GrB_Matrix_new(&c, GrB_FP64, n, n, ctx));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, a, GrB_NULL));
    BENCH_TRY(GrB_wait(c, GrB_COMPLETE));
  }
  GrB_Index nnz;
  BENCH_TRY(GrB_Matrix_nvals(&nnz, a));
  state.SetItemsProcessed(state.iterations() * nnz);
  state.counters["threads"] = static_cast<double>(cfg.nthreads);
  GrB_free(&a);
  GrB_free(&c);
  GrB_free(&ctx);
}
BENCHMARK(BM_MxmUnderContextThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ContextNewFree(benchmark::State& state) {
  GrB_ContextConfig cfg;
  cfg.nthreads = 2;
  for (auto _ : state) {
    GrB_Context ctx = nullptr;
    BENCH_TRY(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg));
    benchmark::DoNotOptimize(ctx);
    BENCH_TRY(GrB_free(&ctx));
  }
}
BENCHMARK(BM_ContextNewFree);

void BM_ContextSwitch(benchmark::State& state) {
  GrB_Context ctx = nullptr;
  BENCH_TRY(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, GrB_NULL));
  GrB_Vector v = nullptr;
  BENCH_TRY(GrB_Vector_new(&v, GrB_FP64, 1024));
  BENCH_TRY(GrB_Vector_setElement(v, 1.0, 3));
  bool in_top = true;
  for (auto _ : state) {
    BENCH_TRY(GrB_Context_switch(v, in_top ? ctx : GrB_NULL));
    in_top = !in_top;
  }
  BENCH_TRY(GrB_Context_switch(v, GrB_NULL));
  GrB_free(&v);
  GrB_free(&ctx);
}
BENCHMARK(BM_ContextSwitch);

void BM_NestedContextResolution(benchmark::State& state) {
  // Thread-count resolution walks the ancestor chain: measure depth cost.
  const int depth = static_cast<int>(state.range(0));
  std::vector<GrB_Context> chain;
  GrB_Context parent = GrB_NULL;
  for (int d = 0; d < depth; ++d) {
    GrB_Context ctx = nullptr;
    BENCH_TRY(GrB_Context_new(&ctx, GrB_NONBLOCKING, parent, GrB_NULL));
    chain.push_back(ctx);
    parent = ctx;
  }
  GrB_Context leaf = chain.empty() ? GrB_NULL : chain.back();
  GrB_Vector v = nullptr;
  BENCH_TRY(GrB_Vector_new(&v, GrB_FP64, 64, leaf));
  GrB_Vector w = nullptr;
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, 64, leaf));
  BENCH_TRY(GrB_Vector_setElement(v, 1.0, 1));
  for (auto _ : state) {
    BENCH_TRY(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, v,
                        GrB_NULL));
    BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
  }
  GrB_free(&v);
  GrB_free(&w);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    GrB_Context c = *it;
    BENCH_TRY(GrB_free(&c));
  }
}
BENCHMARK(BM_NestedContextResolution)->Arg(0)->Arg(2)->Arg(8);

void BM_BlockingVsNonblockingDispatch(benchmark::State& state) {
  // Per-call dispatch overhead of the two modes on a tiny operation.
  const bool blocking = state.range(0) == 1;
  GrB_Context ctx = nullptr;
  BENCH_TRY(GrB_Context_new(&ctx, blocking ? GrB_BLOCKING : GrB_NONBLOCKING,
                            GrB_NULL, GrB_NULL));
  GrB_Vector u = nullptr, w = nullptr;
  BENCH_TRY(GrB_Vector_new(&u, GrB_FP64, 16, ctx));
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, 16, ctx));
  BENCH_TRY(GrB_Vector_setElement(u, 1.0, 5));
  BENCH_TRY(GrB_wait(u, GrB_COMPLETE));
  for (auto _ : state) {
    BENCH_TRY(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, u, GrB_NULL));
    if (!blocking) BENCH_TRY(GrB_wait(w, GrB_COMPLETE));
  }
  state.counters["blocking"] = blocking ? 1 : 0;
  GrB_free(&u);
  GrB_free(&w);
  GrB_free(&ctx);
}
BENCHMARK(BM_BlockingVsNonblockingDispatch)->Arg(0)->Arg(1);

// One empty-body parallel_for on a 4-thread context's pool: the cost of
// handing chunks to the workers and joining them, with no work to hide
// it.  Arg 0 submits jobs back to back, so the workers are still inside
// their spin window; arg 1 sleeps 20 windows between jobs, so every job
// wakes parked workers.  Only the parallel_for itself is timed.
void BM_PoolForkJoin(benchmark::State& state) {
  const bool idle_between = state.range(0) == 1;
  GrB_ContextConfig cfg;
  cfg.nthreads = 4;
  GrB_Context ctx = nullptr;
  BENCH_TRY(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg));
  grb::ThreadPool* pool = ctx->pool();
  if (pool == nullptr || pool->nthreads() != 4) {
    state.SkipWithError("context has no 4-thread pool");
    GrB_free(&ctx);
    return;
  }
  const std::function<void(grb::Index, grb::Index)> body =
      [](grb::Index lo, grb::Index hi) { benchmark::DoNotOptimize(lo + hi); };
  const grb::Index n = 64;  // 16 chunks of 4
  for (auto _ : state) {
    if (idle_between)
      std::this_thread::sleep_for(grb::ThreadPool::kSpinWindow * 20);
    auto t0 = std::chrono::steady_clock::now();
    pool->parallel_for(0, n, 1, body);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
  state.counters["idle_between"] = idle_between ? 1 : 0;
  GrB_free(&ctx);
}
BENCHMARK(BM_PoolForkJoin)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

GRB_BENCH_MAIN()
