// GrB_DESC_T0/T1 differential: a descriptor transpose must equal the
// explicit GrB_transpose composition bitwise, at every thread count.
// This is the contract that lets the cached transpose view (DESIGN.md
// §15) replace per-call recomputation: the view is built from the same
// counting sort, so descriptor reads see byte-identical operands whether
// the cache hits or misses.
//
// Square (non-symmetric, real-valued) inputs keep every T0/T1/T0T1
// combination shape-valid; a missed or spurious transpose still shows,
// since A != A' for these matrices and the values are fold-order
// sensitive doubles.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/global.hpp"
#include "tests/grb_test_util.hpp"
#include "util/prng.hpp"

namespace {

constexpr GrB_Index kN = 34;

struct ThresholdGuard {
  size_t saved;
  ThresholdGuard() : saved(grb::parallel_threshold()) {
    grb::set_parallel_threshold(1);
  }
  ~ThresholdGuard() { grb::set_parallel_threshold(saved); }
};

GrB_Context make_ctx(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_BLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

ref::Mat real_mat(double density, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(kN, kN);
  for (auto& c : m.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return m;
}

ref::Vec real_vec(double density, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Vec v(kN);
  for (auto& c : v.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return v;
}

// The explicit transpose of m, built from its own copy of m: a
// transpose of the operand itself would be its cached view, the very
// block the descriptor reads get.
GrB_Matrix transposed(const ref::Mat& m, GrB_Context ctx) {
  GrB_Matrix src = testutil::make_matrix(m, ctx);
  GrB_Matrix at = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&at, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_transpose(at, GrB_NULL, GrB_NULL, src, GrB_NULL),
            GrB_SUCCESS);
  GrB_free(&src);
  return at;
}

void expect_mats(GrB_Matrix want, GrB_Matrix got, const std::string& tag) {
  EXPECT_TRUE(
      testutil::mats_equal(testutil::to_ref(want), testutil::to_ref(got)))
      << tag;
}

void expect_vecs(GrB_Vector want, GrB_Vector got, const std::string& tag) {
  EXPECT_TRUE(
      testutil::vecs_equal(testutil::to_ref(want), testutil::to_ref(got)))
      << tag;
}

// One full sweep at a fixed nthreads: every op with a
// descriptor transpose vs the same op over the explicit transpose.
void check_desc_transpose(int nthreads, const std::string& tag) {
  GrB_Context ctx = make_ctx(nthreads);
  ref::Mat ra = real_mat(0.3, 6101);
  ref::Mat rb = real_mat(0.25, 6102);
  ref::Vec ru = real_vec(0.6, 6103);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  GrB_Vector u = testutil::make_vector(ru, ctx);
  GrB_Matrix at = transposed(ra, ctx);
  GrB_Matrix bt = transposed(rb, ctx);

  GrB_Matrix c1 = nullptr, c2 = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c1, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c2, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
  // mxm T0, run twice: the second descriptor read of the same snapshot
  // must hit the cached transpose view and stay byte-identical.
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(GrB_mxm(c1, GrB_NULL, GrB_NULL,
                      GrB_PLUS_TIMES_SEMIRING_FP64, a, b, GrB_DESC_T0),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_mxm(c2, GrB_NULL, GrB_NULL,
                      GrB_PLUS_TIMES_SEMIRING_FP64, at, b, GrB_NULL),
              GrB_SUCCESS);
    expect_mats(c2, c1, "mxm T0 rep=" + std::to_string(rep) + " " + tag);
  }
  // mxm T1: AB' == A(B').
  EXPECT_EQ(GrB_mxm(c1, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, b, GrB_DESC_T1),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c2, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, bt, GrB_NULL),
            GrB_SUCCESS);
  expect_mats(c2, c1, "mxm T1 " + tag);
  // mxm T0T1: A'B' == (A')(B').
  EXPECT_EQ(GrB_mxm(c1, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, b, GrB_DESC_T0T1),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c2, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    at, bt, GrB_NULL),
            GrB_SUCCESS);
  expect_mats(c2, c1, "mxm T0T1 " + tag);
  GrB_free(&c1);
  GrB_free(&c2);

  // mxv T0: A'u == (A')u.
  GrB_Vector w1 = nullptr, w2 = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w1, GrB_FP64, kN, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w2, GrB_FP64, kN, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxv(w1, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, u, GrB_DESC_T0),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_mxv(w2, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    at, u, GrB_NULL),
            GrB_SUCCESS);
  expect_vecs(w2, w1, "mxv T0 " + tag);

  // vxm T1 (the matrix is input 1): uA' == u(A').
  EXPECT_EQ(GrB_vxm(w1, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    u, a, GrB_DESC_T1),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_vxm(w2, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    u, at, GrB_NULL),
            GrB_SUCCESS);
  expect_vecs(w2, w1, "vxm T1 " + tag);
  GrB_free(&w1);
  GrB_free(&w2);

  // eWiseAdd T0 (A' + B) and eWiseMult T1 (A .* B').
  GrB_Matrix e1 = nullptr, e2 = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&e1, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&e2, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(e1, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, a, b,
                         GrB_DESC_T0),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(e2, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, at, b,
                         GrB_NULL),
            GrB_SUCCESS);
  expect_mats(e2, e1, "eWiseAdd T0 " + tag);
  EXPECT_EQ(GrB_eWiseMult(e1, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, a, b,
                          GrB_DESC_T1),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseMult(e2, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, a, bt,
                          GrB_NULL),
            GrB_SUCCESS);
  expect_mats(e2, e1, "eWiseMult T1 " + tag);
  GrB_free(&e1);
  GrB_free(&e2);

  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&u);
  GrB_free(&at);
  GrB_free(&bt);
  GrB_free(&ctx);
}

// In each sweep the first descriptor read of a (mxm T0 rep 0) and of b
// (mxm T1) builds the transpose (a miss) and every later read of them
// gets the cached view (a hit); both are checked against the explicit
// composition at 1 and 8 threads.  A matrix is always CSR: every format
// value is an accepted no-op, and the sweep runs under each of them.
TEST(DescTranspose, AllFormatsAllThreads) {
  ThresholdGuard threshold;
  const struct {
    const char* name;
    GxB_Format format;
  } legs[] = {
      {"csr", GxB_FORMAT_CSR},       {"hyper", GxB_FORMAT_HYPER},
      {"bitmap", GxB_FORMAT_BITMAP}, {"dense", GxB_FORMAT_DENSE},
      {"auto", GxB_FORMAT_AUTO},
  };
  for (const auto& leg : legs) {
    ASSERT_EQ(GxB_Format_set(leg.format), GrB_SUCCESS);
    for (int nthreads : {1, 8}) {
      check_desc_transpose(
          nthreads,
          std::string(leg.name) + " nthreads=" + std::to_string(nthreads));
    }
  }
  ASSERT_EQ(GxB_Format_set(GxB_FORMAT_AUTO), GrB_SUCCESS);
}

uint64_t stat(const char* name) {
  uint64_t v = ~uint64_t{0};
  EXPECT_EQ(GxB_Stats_get(name, &v), GrB_SUCCESS) << name;
  return v;
}

// The transpose cache is always on, so the uncached path is a
// descriptor read of a fresh snapshot, which always rebuilds.  Every
// descriptor op runs once on fresh copies of its operands (cache off:
// misses only) and twice on one pair of operands (the second pass is
// cache on: hits only); all results must be the same bytes.
TEST(DescTranspose, CacheOffMatchesCacheOn) {
  ThresholdGuard threshold;
  GrB_Context ctx = make_ctx(1);
  const ref::Mat ra = real_mat(0.3, 6101);
  const ref::Mat rb = real_mat(0.25, 6102);
  GrB_Vector u = testutil::make_vector(real_vec(0.6, 6103), ctx);
  const GrB_Descriptor descs[] = {GrB_DESC_T0, GrB_DESC_T1, GrB_DESC_T0T1};

  // Every descriptor op over (a, b): mxm under each descriptor, mxv T0
  // and vxm T1.
  auto sweep = [&](GrB_Matrix a, GrB_Matrix b, int op) {
    if (op < 3) {
      GrB_Matrix c = nullptr;
      EXPECT_EQ(GrB_Matrix_new(&c, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
      EXPECT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                        a, b, descs[op]),
                GrB_SUCCESS);
      ref::Mat r = testutil::to_ref(c);
      GrB_free(&c);
      return std::make_pair(r, ref::Vec());
    }
    GrB_Vector w = nullptr;
    EXPECT_EQ(GrB_Vector_new(&w, GrB_FP64, kN, ctx), GrB_SUCCESS);
    if (op == 3) {
      EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                        a, u, GrB_DESC_T0),
                GrB_SUCCESS);
    } else {
      EXPECT_EQ(GrB_vxm(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                        u, a, GrB_DESC_T1),
                GrB_SUCCESS);
    }
    ref::Vec r = testutil::to_ref(w);
    GrB_free(&w);
    return std::make_pair(ref::Mat(), r);
  };
  constexpr int kOps = 5;

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  std::vector<std::pair<ref::Mat, ref::Vec>> off;
  for (int op = 0; op < kOps; ++op) {
    GrB_Matrix a = testutil::make_matrix(ra, ctx);
    GrB_Matrix b = testutil::make_matrix(rb, ctx);
    off.push_back(sweep(a, b, op));
    GrB_free(&a);
    GrB_free(&b);
  }
  EXPECT_EQ(stat("format.transpose_cache_hits"), 0u);
  EXPECT_GE(stat("format.transpose_cache_misses"), uint64_t{kOps});

  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  for (int rep = 0; rep < 2; ++rep) {
    ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
    for (int op = 0; op < kOps; ++op) {
      const auto on = sweep(a, b, op);
      const std::string tag =
          "op=" + std::to_string(op) + " rep=" + std::to_string(rep);
      EXPECT_TRUE(testutil::mats_equal(off[op].first, on.first)) << tag;
      EXPECT_TRUE(testutil::vecs_equal(off[op].second, on.second)) << tag;
    }
  }
  EXPECT_EQ(stat("format.transpose_cache_misses"), 0u);
  EXPECT_GE(stat("format.transpose_cache_hits"), uint64_t{kOps});
  EXPECT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
  EXPECT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&u);
  GrB_free(&ctx);
}

}  // namespace
