// The row-parallel kernels (mxm two-phase, eWise, select, apply,
// write-back, mask pass) must produce identical results regardless of
// the context's thread count.  These tests run the same workloads in a
// 1-thread and a 4-thread context and compare.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "core/global.hpp"
#include "exec/thread_pool.hpp"
#include "ops/common.hpp"
#include "tests/grb_test_util.hpp"
#include "algorithms/algorithms.hpp"
#include "util/generator.hpp"

namespace {

// Forces every gated kernel onto its parallel path for the test's scope
// (these instances are far below the default parallel threshold).
struct ThresholdGuard {
  size_t saved;
  ThresholdGuard() : saved(grb::parallel_threshold()) {
    grb::set_parallel_threshold(1);
  }
  ~ThresholdGuard() { grb::set_parallel_threshold(saved); }
};

// Target of the pool's thread-observer hook: records which OS threads
// execute parallel_for chunks.
std::mutex g_ids_mu;
std::set<std::thread::id>* g_ids = nullptr;
void record_thread(std::thread::id id) {
  std::lock_guard<std::mutex> lock(g_ids_mu);
  if (g_ids != nullptr) g_ids->insert(id);
}

GrB_Context threaded_context(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

// Runs a representative op pipeline in `ctx`, returns the final matrix.
ref::Mat run_pipeline(const ref::Mat& ra, const ref::Mat& rb,
                      const ref::Mat& rm, GrB_Context ctx) {
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  GrB_Matrix m = testutil::make_matrix(rm, ctx);
  GrB_Matrix x = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&x, GrB_FP64, ra.nrows, ra.ncols, ctx),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(x, m, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, b,
                    GrB_DESC_S),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(x, GrB_NULL, GrB_PLUS_FP64, GrB_MIN_FP64, x, a,
                         GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_select(x, GrB_NULL, GrB_NULL, GrB_OFFDIAG, x, int64_t{0},
                       GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_apply(x, GrB_NULL, GrB_NULL, GrB_AINV_FP64, x, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_transpose(x, m, GrB_PLUS_FP64, x, GrB_DESC_S),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(x, GrB_MATERIALIZE), GrB_SUCCESS);
  ref::Mat out = testutil::to_ref(x);
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&m);
  GrB_free(&x);
  return out;
}

TEST(ParallelContextTest, PipelineMatchesSingleThread) {
  ThresholdGuard guard;
  GrB_Context one = threaded_context(1);
  GrB_Context four = threaded_context(4);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ref::Mat ra = testutil::random_mat(40, 40, 0.2, seed * 11 + 1);
    ref::Mat rb = testutil::random_mat(40, 40, 0.2, seed * 11 + 2);
    ref::Mat rm = testutil::random_mat(40, 40, 0.3, seed * 11 + 3);
    ref::Mat serial = run_pipeline(ra, rb, rm, one);
    ref::Mat parallel = run_pipeline(ra, rb, rm, four);
    EXPECT_TRUE(testutil::mats_equal(serial, parallel)) << "seed " << seed;
  }
  GrB_free(&one);
  GrB_free(&four);
}

TEST(ParallelContextTest, LargeMxmMatchesAcrossThreadCounts) {
  ThresholdGuard guard;
  GrB_Matrix g = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&g, 9, 8, grb::RmatParams{}, nullptr),
            grb::Info::kSuccess);
  ref::Mat rg = testutil::to_ref(g);
  GrB_free(&g);

  ref::Mat want;
  bool first = true;
  for (int nthreads : {1, 2, 4, 8}) {
    GrB_Context ctx = threaded_context(nthreads);
    GrB_Matrix a = testutil::make_matrix(rg, ctx);
    GrB_Matrix c = nullptr;
    ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, rg.nrows, rg.ncols, ctx),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, a, GrB_NULL),
              GrB_SUCCESS);
    ref::Mat got = testutil::to_ref(c);
    if (first) {
      want = got;
      first = false;
    } else {
      EXPECT_TRUE(testutil::mats_equal(want, got))
          << "nthreads " << nthreads;
    }
    GrB_free(&a);
    GrB_free(&c);
    GrB_free(&ctx);
  }
}

TEST(ParallelContextTest, ReduceAndKroneckerUnderThreads) {
  ThresholdGuard guard;
  GrB_Context ctx = threaded_context(4);
  ref::Mat ra = testutil::random_mat(30, 30, 0.3, 77);
  ref::Mat rb = testutil::random_mat(4, 4, 0.7, 78);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  // Parallel full reduce.
  double sum = 0;
  ASSERT_EQ(GrB_reduce(&sum, GrB_NULL, GrB_PLUS_MONOID_FP64, a, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(sum, ref::reduce_all(ra, testutil::fn_plus).value_or(0.0));
  // Parallel row reduce.
  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 30, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_reduce(w, GrB_NULL, GrB_NULL, GrB_PLUS_MONOID_FP64, a,
                       GrB_NULL),
            GrB_SUCCESS);
  EXPECT_VECTOR_EQ(w, ref::reduce_rows(ra, testutil::fn_plus));
  // Parallel kronecker.
  GrB_Matrix k = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&k, GrB_FP64, 120, 120, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_kronecker(k, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, a, b,
                          GrB_NULL),
            GrB_SUCCESS);
  EXPECT_MATRIX_EQ(k, ref::kronecker(ra, rb, testutil::fn_times));
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&w);
  GrB_free(&k);
  GrB_free(&ctx);
}

TEST(ParallelContextTest, AlgorithmsRunInThreadedContext) {
  // End-to-end: BFS on a graph homed in a 4-thread context; the outputs
  // the algorithm allocates live in the top-level context, so re-home
  // the graph instead.
  GrB_Matrix g = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&g, 8, 8, grb::RmatParams{}, nullptr),
            grb::Info::kSuccess);
  // Compute the expected level structure in the default context first.
  GrB_Vector w1 = nullptr;
  GrB_Matrix gc = nullptr;
  ASSERT_EQ(GrB_Matrix_dup(&gc, g), GrB_SUCCESS);
  GrB_Context ctx = threaded_context(4);
  // Run the same vxm expansion manually inside the threaded context.
  ASSERT_EQ(GrB_Context_switch(gc, ctx), GrB_SUCCESS);
  GrB_Vector q = nullptr, v = nullptr;
  GrB_Index n;
  ASSERT_EQ(GrB_Matrix_nrows(&n, gc), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&q, GrB_BOOL, n, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&v, GrB_INT32, n, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(q, true, 0), GrB_SUCCESS);
  for (int32_t depth = 0;; ++depth) {
    GrB_Index nq = 0;
    ASSERT_EQ(GrB_Vector_nvals(&nq, q), GrB_SUCCESS);
    if (nq == 0) break;
    ASSERT_EQ(GrB_assign(v, q, GrB_NULL, depth, GrB_ALL, n, GrB_DESC_S),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_vxm(q, v, GrB_NULL, GrB_LOR_LAND_SEMIRING_BOOL, q, gc,
                      GrB_DESC_RSC),
              GrB_SUCCESS);
  }
  // Reference BFS in the default context via the algorithm library.
  ASSERT_EQ(grb_algo::bfs_level(&w1, g, 0), GrB_SUCCESS);
  ref::Vec want = testutil::to_ref(w1);
  ref::Vec got = testutil::to_ref(v);
  EXPECT_TRUE(testutil::vecs_equal(want, got));
  GrB_free(&g);
  GrB_free(&gc);
  GrB_free(&q);
  GrB_free(&v);
  GrB_free(&w1);
  GrB_free(&ctx);
}

TEST(ParallelContextTest, NestedContextBudgetIsHierarchical) {
  GrB_Context parent = threaded_context(4);
  // A child asking for less gets what it asked for...
  GrB_ContextConfig modest;
  modest.nthreads = 2;
  GrB_Context child = nullptr;
  ASSERT_EQ(GrB_Context_new(&child, GrB_NONBLOCKING, parent, &modest),
            GrB_SUCCESS);
  EXPECT_EQ(child->effective_nthreads(), 2);
  // ...one asking for more is capped by the parent's budget...
  GrB_ContextConfig greedy;
  greedy.nthreads = 8;
  GrB_Context wide = nullptr;
  ASSERT_EQ(GrB_Context_new(&wide, GrB_NONBLOCKING, parent, &greedy),
            GrB_SUCCESS);
  EXPECT_EQ(wide->effective_nthreads(), 4);
  // ...and a grandchild is capped by every ancestor on the chain.
  GrB_Context grand = nullptr;
  ASSERT_EQ(GrB_Context_new(&grand, GrB_NONBLOCKING, child, &greedy),
            GrB_SUCCESS);
  EXPECT_EQ(grand->effective_nthreads(), 2);
  GrB_free(&grand);
  GrB_free(&wide);
  GrB_free(&child);
  GrB_free(&parent);
}

TEST(ParallelContextTest, NestedContextCapsWorkerThreads) {
  // Operations homed in a 2-thread child of a 4-thread parent must never
  // touch more than 2 distinct OS threads, however many the parent owns.
  ThresholdGuard guard;
  GrB_Context parent = threaded_context(4);
  GrB_ContextConfig ccfg;
  ccfg.nthreads = 2;
  GrB_Context child = nullptr;
  ASSERT_EQ(GrB_Context_new(&child, GrB_NONBLOCKING, parent, &ccfg),
            GrB_SUCCESS);

  ref::Mat ra = testutil::random_mat(40, 40, 0.3, 901);
  ref::Mat rb = testutil::random_mat(40, 40, 0.3, 902);
  GrB_Matrix a = testutil::make_matrix(ra, child);
  GrB_Matrix b = testutil::make_matrix(rb, child);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 40, 40, child), GrB_SUCCESS);

  std::set<std::thread::id> ids;
  {
    std::lock_guard<std::mutex> lock(g_ids_mu);
    g_ids = &ids;
  }
  grb::set_thread_observer(&record_thread);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, b, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  grb::set_thread_observer(nullptr);
  {
    std::lock_guard<std::mutex> lock(g_ids_mu);
    g_ids = nullptr;
  }

  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u) << "child context leaked past its budget";

  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
  GrB_free(&child);
  GrB_free(&parent);
}

TEST(ParallelContextTest, PoolWorkersParticipate) {
  // Rendezvous: the first thread into the loop waits (bounded) for a
  // second distinct thread, proving chunks really fan out to the pool
  // rather than all running on the caller.
  GrB_Context ctx = threaded_context(4);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> seen;
  ctx->parallel_for(0, 64, [&](grb::Index, grb::Index) {
    std::unique_lock<std::mutex> lk(mu);
    seen.insert(std::this_thread::get_id());
    if (seen.size() >= 2) {
      cv.notify_all();
    } else {
      cv.wait_for(lk, std::chrono::seconds(10),
                  [&] { return seen.size() >= 2; });
    }
  });
  EXPECT_GE(seen.size(), 2u);
  GrB_free(&ctx);
}

// Regression: row loops once split by a fixed 4096-row grain, so every
// kernel over a matrix under 4096 rows ran inline even after the serial
// gate chose the parallel path.  On a 1024-row matrix with 16k+ entries
// (above the default parallel threshold) in a 4-thread context, matrix
// select, matrix apply and a masked, accumulated write-back merge must
// each hand chunks to the pool.
TEST(ParallelContextTest, SmallMatrixKernelsFanOut) {
  GrB_Context ctx = threaded_context(4);
  grb::RmatParams params;
  params.symmetrize = true;
  GrB_Matrix g = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&g, 10, 16, params, ctx), grb::Info::kSuccess);
  GrB_Index n = 0, nvals = 0;
  ASSERT_EQ(GrB_Matrix_nrows(&n, g), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_nvals(&nvals, g), GrB_SUCCESS);
  ASSERT_EQ(n, 1024u);
  ASSERT_GE(nvals, 16384u);
  // FP64 like g, so select and apply publish their T directly.
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, n, n, ctx), GrB_SUCCESS);

  auto chunks_of = [&](const char* what, auto&& run) {
    ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
    ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
    run();
    EXPECT_GT(testutil::pool_chunks(), 0u) << what << " ran inline";
    ASSERT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
  };
  chunks_of("select", [&] {
    ASSERT_EQ(GrB_select(c, GrB_NULL, GrB_NULL, GrB_TRIL, g, int64_t{0},
                         GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  });
  chunks_of("apply", [&] {
    ASSERT_EQ(GrB_apply(c, GrB_NULL, GrB_NULL, GrB_AINV_FP64, g, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  });
  // The merge alone, so the op's own kernel cannot supply the chunks:
  // an accumulator rules out publishing T directly.
  std::shared_ptr<const grb::MatrixData> sg;
  ASSERT_EQ(g->snapshot(&sg), grb::Info::kSuccess);
  grb::WritebackSpec spec{GrB_PLUS_FP64, /*have_mask=*/true,
                          /*mask_structure=*/true, /*mask_comp=*/false,
                          /*replace=*/false};
  chunks_of("writeback_matrix", [&] {
    auto merged = grb::writeback_matrix(ctx, *sg, *sg, sg.get(), spec);
    EXPECT_EQ(merged->nvals(), nvals);
  });
  GrB_free(&c);
  GrB_free(&g);
  GrB_free(&ctx);
}

}  // namespace
