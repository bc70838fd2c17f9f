// The masked mxm strategies (dot product and mask-driven saxpy) must be
// indistinguishable from the unmasked Gustavson path for every
// structural-mask multiply, and must fan out over a parallel context.
#include <gtest/gtest.h>

#include <atomic>

#include "ops/mxm.hpp"
#include "tests/grb_test_util.hpp"
#include "util/generator.hpp"

namespace {

struct StrategyGuard {
  explicit StrategyGuard(grb::MxmStrategy s) { grb::set_mxm_strategy(s); }
  ~StrategyGuard() { grb::set_mxm_strategy(grb::MxmStrategy::kAuto); }
};

ref::Mat run_masked_mxm(const ref::Mat& ra, const ref::Mat& rb,
                        const ref::Mat& rm, GrB_Semiring ring,
                        GrB_Descriptor desc, grb::MxmStrategy strategy) {
  StrategyGuard guard(strategy);
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Matrix b = testutil::make_matrix(rb);
  GrB_Matrix m = testutil::make_matrix(rm);
  GrB_Matrix c = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&c, GrB_FP64, ra.nrows,
                           desc == GrB_DESC_ST1 ? rb.nrows : rb.ncols),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c, m, GrB_NULL, ring, a, b, desc), GrB_SUCCESS);
  ref::Mat out = testutil::to_ref(c);
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
  GrB_free(&m);
  return out;
}

TEST(MaskedMxmTest, DotMatchesGustavsonRandom) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ref::Mat ra = testutil::random_mat(18, 18, 0.25, seed * 3 + 1);
    ref::Mat rb = testutil::random_mat(18, 18, 0.25, seed * 3 + 2);
    ref::Mat rm = testutil::random_mat(18, 18, 0.15, seed * 3 + 3);
    for (GrB_Semiring ring :
         {GrB_PLUS_TIMES_SEMIRING_FP64, GrB_MIN_PLUS_SEMIRING_FP64}) {
      ref::Mat dot = run_masked_mxm(ra, rb, rm, ring, GrB_DESC_S,
                                    grb::MxmStrategy::kMaskedDot);
      ref::Mat gus = run_masked_mxm(ra, rb, rm, ring, GrB_DESC_S,
                                    grb::MxmStrategy::kGustavson);
      EXPECT_TRUE(testutil::mats_equal(gus, dot)) << "seed " << seed;
    }
  }
}

TEST(MaskedMxmTest, DotMatchesOnTrianglePattern) {
  // The C<L,struct> = L * L' shape triangle counting uses.
  grb::RmatParams params;
  params.symmetrize = true;
  GrB_Matrix g = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&g, 7, 4, params, nullptr),
            grb::Info::kSuccess);
  GrB_Index n;
  ASSERT_EQ(GrB_Matrix_nrows(&n, g), GrB_SUCCESS);
  GrB_Matrix l = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&l, GrB_FP64, n, n), GrB_SUCCESS);
  ASSERT_EQ(GrB_select(l, GrB_NULL, GrB_NULL, GrB_TRIL, g, int64_t{-1},
                       GrB_NULL),
            GrB_SUCCESS);
  ref::Mat rl = testutil::to_ref(l);
  ref::Mat dot = run_masked_mxm(rl, rl, rl, GrB_PLUS_TIMES_SEMIRING_FP64,
                                GrB_DESC_ST1, grb::MxmStrategy::kMaskedDot);
  ref::Mat gus = run_masked_mxm(rl, rl, rl, GrB_PLUS_TIMES_SEMIRING_FP64,
                                GrB_DESC_ST1, grb::MxmStrategy::kGustavson);
  EXPECT_TRUE(testutil::mats_equal(gus, dot));
  GrB_free(&g);
  GrB_free(&l);
}

TEST(MaskedMxmTest, AutoStrategyIsCorrectEitherWay) {
  // Whatever Auto picks must match the reference oracle.
  ref::Mat ra = testutil::random_mat(15, 15, 0.3, 41);
  ref::Mat rb = testutil::random_mat(15, 15, 0.3, 42);
  ref::Mat rm = testutil::random_mat(15, 15, 0.08, 43);  // sparse mask
  ref::Mat got = run_masked_mxm(ra, rb, rm, GrB_PLUS_TIMES_SEMIRING_FP64,
                                GrB_DESC_S, grb::MxmStrategy::kAuto);
  ref::Mat t = ref::mxm(ra, rb, testutil::fn_plus, testutil::fn_times);
  ref::Spec spec;
  spec.have_mask = true;
  spec.structure = true;
  ref::Mat c_empty(15, 15);
  ref::Mat want = ref::writeback(c_empty, t, &rm, spec);
  EXPECT_TRUE(testutil::mats_equal(want, got));
}

TEST(MaskedMxmTest, DotPathHonorsUserDefinedSemiring) {
  // The generic (function-pointer) masked-dot kernel path.
  GrB_BinaryOp plus = nullptr, times = nullptr;
  auto plus_fn = [](void* z, const void* x, const void* y) {
    double a, b;
    std::memcpy(&a, x, 8);
    std::memcpy(&b, y, 8);
    double r = a + b;
    std::memcpy(z, &r, 8);
  };
  auto times_fn = [](void* z, const void* x, const void* y) {
    double a, b;
    std::memcpy(&a, x, 8);
    std::memcpy(&b, y, 8);
    double r = a * b;
    std::memcpy(z, &r, 8);
  };
  ASSERT_EQ(GrB_BinaryOp_new(&plus, plus_fn, GrB_FP64, GrB_FP64, GrB_FP64),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_BinaryOp_new(&times, times_fn, GrB_FP64, GrB_FP64,
                             GrB_FP64),
            GrB_SUCCESS);
  GrB_Monoid add = nullptr;
  ASSERT_EQ(GrB_Monoid_new(&add, plus, 0.0), GrB_SUCCESS);
  GrB_Semiring ring = nullptr;
  ASSERT_EQ(GrB_Semiring_new(&ring, add, times), GrB_SUCCESS);

  ref::Mat ra = testutil::random_mat(12, 12, 0.3, 51);
  ref::Mat rb = testutil::random_mat(12, 12, 0.3, 52);
  ref::Mat rm = testutil::random_mat(12, 12, 0.2, 53);
  ref::Mat dot = run_masked_mxm(ra, rb, rm, ring, GrB_DESC_S,
                                grb::MxmStrategy::kMaskedDot);
  ref::Mat gus = run_masked_mxm(ra, rb, rm, ring, GrB_DESC_S,
                                grb::MxmStrategy::kGustavson);
  EXPECT_TRUE(testutil::mats_equal(gus, dot));
  GrB_free(&ring);
  GrB_free(&add);
  GrB_free(&plus);
  GrB_free(&times);
}

TEST(MaskedMxmTest, ValueMaskNeverUsesDotPath) {
  // A VALUE mask (no GrB_DESC_S) must not take the structural-dot path:
  // falsy mask entries would otherwise be computed.  Force kMaskedDot and
  // check results still honor the value mask (the dispatch condition
  // requires structure, so the force is ignored).
  StrategyGuard guard(grb::MxmStrategy::kMaskedDot);
  ref::Mat ra = testutil::random_mat(10, 10, 0.4, 61);
  ref::Mat rb = testutil::random_mat(10, 10, 0.4, 62);
  ref::Mat rm(10, 10);
  for (GrB_Index i = 0; i < 10; ++i)
    for (GrB_Index j = 0; j < 10; ++j)
      rm.at(i, j) = (i + j) % 3 == 0 ? 0.0 : 1.0;  // falsy entries present
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Matrix b = testutil::make_matrix(rb);
  GrB_Matrix m = testutil::make_matrix(rm);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 10, 10), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, m, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, b,
                    GrB_NULL),
            GrB_SUCCESS);
  ref::Mat t = ref::mxm(ra, rb, testutil::fn_plus, testutil::fn_times);
  ref::Spec spec;
  spec.have_mask = true;  // value mask
  ref::Mat c_empty(10, 10);
  EXPECT_MATRIX_EQ(c, ref::writeback(c_empty, t, &rm, spec));
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
  GrB_free(&m);
}

// The write-back bypass publishes a masked kernel's T directly only when
// C keeps nothing outside M.  Each case here runs C<M,struct> = A*B on a
// C that starts with entries inside and outside M (or empty), with and
// without replace, under both masked strategies.
TEST(MaskedMxmTest, WritebackBypassOnlyWhenCKeepsNothingOutsideMask) {
  ref::Mat ra = testutil::random_mat(16, 16, 0.3, 71);
  ref::Mat rb = testutil::random_mat(16, 16, 0.3, 72);
  ref::Mat rm = testutil::random_mat(16, 16, 0.25, 73);
  ref::Mat full = testutil::random_mat(16, 16, 0.4, 74);
  ref::Mat empty(16, 16);
  ref::Mat t = ref::mxm(ra, rb, testutil::fn_plus, testutil::fn_times);
  for (grb::MxmStrategy strategy :
       {grb::MxmStrategy::kGustavson, grb::MxmStrategy::kMaskedDot}) {
    StrategyGuard guard(strategy);
    for (const ref::Mat* c0 : {&full, &empty}) {
      for (bool replace : {false, true}) {
        GrB_Matrix a = testutil::make_matrix(ra);
        GrB_Matrix b = testutil::make_matrix(rb);
        GrB_Matrix m = testutil::make_matrix(rm);
        GrB_Matrix c = testutil::make_matrix(*c0);
        ASSERT_EQ(GrB_mxm(c, m, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, b,
                          replace ? GrB_DESC_RS : GrB_DESC_S),
                  GrB_SUCCESS);
        ref::Spec spec;
        spec.have_mask = true;
        spec.structure = true;
        spec.replace = replace;
        EXPECT_TRUE(testutil::mats_equal(ref::writeback(*c0, t, &rm, spec),
                                         testutil::to_ref(c)))
            << "strategy=" << static_cast<int>(strategy)
            << " c0=" << (c0 == &full ? "full" : "empty")
            << " replace=" << replace;
        GrB_free(&a);
        GrB_free(&b);
        GrB_free(&m);
        GrB_free(&c);
      }
    }
  }
}

// With no mask, GrB_DESC_C complements the implicit all-true mask: the
// product writes nothing, so C keeps its old entries (or, with replace,
// is cleared).  The identity write-back must not publish T here.
TEST(MaskedMxmTest, ComplementedMissingMaskWritesNothing) {
  ref::Mat ra = testutil::random_mat(10, 10, 0.4, 81);
  ref::Mat rc0 = testutil::random_mat(10, 10, 0.3, 82);
  for (bool replace : {false, true}) {
    GrB_Matrix a = testutil::make_matrix(ra);
    GrB_Matrix c = testutil::make_matrix(rc0);
    ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                      a, replace ? GrB_DESC_RC : GrB_DESC_C),
              GrB_SUCCESS);
    EXPECT_TRUE(testutil::mats_equal(replace ? ref::Mat(10, 10) : rc0,
                                     testutil::to_ref(c)))
        << "replace=" << replace;
    GrB_free(&a);
    GrB_free(&c);
  }
}

// Regression: the masked kernels once split rows by the context's
// default 4096-row grain, so any mask under 4096 rows ran inline even
// after the serial gate chose the parallel path.  A k-truss-shaped
// multiply on a 1024-row graph in a 4-thread context must hand chunks
// to the pool under both masked strategies, and each kernel's own row
// loop must split: every chunk of it builds one runner, so an inline
// loop builds exactly one.
TEST(MaskedMxmTest, StructuralMaskFansOutToPool) {
  GrB_ContextConfig cfg;
  cfg.nthreads = 4;
  GrB_Context ctx = nullptr;
  ASSERT_EQ(GrB_Context_new(&ctx, GrB_BLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  grb::RmatParams params;
  params.symmetrize = true;
  GrB_Matrix g = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&g, 10, 16, params, ctx), grb::Info::kSuccess);
  GrB_Index n = 0;
  ASSERT_EQ(GrB_Matrix_nrows(&n, g), GrB_SUCCESS);
  ASSERT_EQ(n, 1024u);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, n, n, ctx), GrB_SUCCESS);
  for (grb::MxmStrategy strategy :
       {grb::MxmStrategy::kGustavson, grb::MxmStrategy::kMaskedDot}) {
    StrategyGuard guard(strategy);
    ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
    ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
    ASSERT_EQ(GrB_mxm(c, g, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, g, g,
                      GrB_DESC_RST1),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
    EXPECT_GT(testutil::pool_chunks(), 0u) << "strategy=" << static_cast<int>(strategy);
    ASSERT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
  }

  // g is symmetric, so its snapshot is also B' for the dot kernel.
  std::shared_ptr<const grb::MatrixData> sg;
  ASSERT_EQ(g->snapshot(&sg), grb::Info::kSuccess);
  const grb::Semiring* ring = GrB_PLUS_TIMES_SEMIRING_FP64;
  const grb::Type* z = ring->mul()->ztype();
  std::atomic<int> runners{0};
  auto make_runner = [&] {
    runners.fetch_add(1);
    return grb::SemiringRunner(ring, sg->type, sg->type);
  };
  grb::mxm_masked_saxpy_kernel(ctx, *sg, *sg, *sg, z,
                               *grb::spgemm_row_costs(ctx, sg, sg), make_runner);
  EXPECT_GT(runners.load(), 1) << "masked saxpy ran inline";
  runners = 0;
  grb::mxm_masked_dot_kernel(ctx, *sg, *sg, *sg, z, make_runner);
  EXPECT_GT(runners.load(), 1) << "masked dot ran inline";
  GrB_free(&g);
  GrB_free(&c);
  GrB_free(&ctx);
}

}  // namespace
