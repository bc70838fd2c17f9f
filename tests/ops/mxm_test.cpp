// mxm / mxv / vxm against the dense reference: semirings, masks, accum,
// transposes, casting, and fast-path/generic-path agreement.
#include <gtest/gtest.h>

#include <limits>

#include "ops/mxm.hpp"
#include "tests/grb_test_util.hpp"

namespace {

using testutil::fn_min;
using testutil::fn_plus;
using testutil::fn_second;
using testutil::fn_times;

struct SemiringCase {
  const char* name;
  GrB_Semiring semiring;
  ref::BinFn add;
  ref::BinFn mul;
};

// Print the case by name: gtest otherwise dumps the raw bytes, pointers
// included, into the listed test name, which then changes with every build.
void PrintTo(const SemiringCase& c, std::ostream* os) { *os << c.name; }

std::vector<SemiringCase> semiring_cases() {
  return {
      {"PlusTimes", GrB_PLUS_TIMES_SEMIRING_FP64, testutil::fn_plus,
       testutil::fn_times},
      {"MinPlus", GrB_MIN_PLUS_SEMIRING_FP64, testutil::fn_min,
       testutil::fn_plus},
      {"MaxPlus", GrB_MAX_PLUS_SEMIRING_FP64, testutil::fn_max,
       testutil::fn_plus},
      {"MinTimes", GrB_MIN_TIMES_SEMIRING_FP64, testutil::fn_min,
       testutil::fn_times},
      {"MinSecond", GrB_MIN_SECOND_SEMIRING_FP64, testutil::fn_min,
       testutil::fn_second},
      {"PlusMin", GrB_PLUS_MIN_SEMIRING_FP64, testutil::fn_plus,
       testutil::fn_min},
  };
}

class SemiringSweep : public ::testing::TestWithParam<SemiringCase> {};

TEST_P(SemiringSweep, MxmUnmasked) {
  const SemiringCase& sc = GetParam();
  ref::Mat ra = testutil::random_mat(11, 14, 0.35, 1);
  ref::Mat rb = testutil::random_mat(14, 9, 0.35, 2);
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Matrix b = testutil::make_matrix(rb);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 11, 9), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, sc.semiring, a, b, GrB_NULL),
            GrB_SUCCESS);
  ref::Mat want = ref::mxm(ra, rb, sc.add, sc.mul);
  EXPECT_MATRIX_EQ(c, want);
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
}

TEST_P(SemiringSweep, MxvAndVxm) {
  const SemiringCase& sc = GetParam();
  ref::Mat ra = testutil::random_mat(13, 10, 0.4, 3);
  ref::Vec ru = testutil::random_vec(10, 0.6, 4);
  ref::Vec rt = testutil::random_vec(13, 0.6, 5);
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Vector u = testutil::make_vector(ru);
  GrB_Vector t = testutil::make_vector(rt);
  GrB_Vector w = nullptr, z = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 13), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&z, GrB_FP64, 10), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, sc.semiring, a, u, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_vxm(z, GrB_NULL, GrB_NULL, sc.semiring, t, a, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_VECTOR_EQ(w, ref::mxv(ra, ru, sc.add, sc.mul));
  EXPECT_VECTOR_EQ(z, ref::vxm(rt, ra, sc.add, sc.mul));
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&t);
  GrB_free(&w);
  GrB_free(&z);
}

INSTANTIATE_TEST_SUITE_P(
    Semirings, SemiringSweep, ::testing::ValuesIn(semiring_cases()),
    [](const ::testing::TestParamInfo<SemiringCase>& info) {
      return info.param.name;
    });

TEST(MxmTest, MaskedAccumReplaceCombos) {
  ref::Mat ra = testutil::random_mat(12, 12, 0.3, 7);
  ref::Mat rb = testutil::random_mat(12, 12, 0.3, 8);
  ref::Mat rc = testutil::random_mat(12, 12, 0.2, 9);
  ref::Mat rm = testutil::random_mat(12, 12, 0.5, 10);
  ref::Mat t = ref::mxm(ra, rb, fn_plus, fn_times);

  struct Combo {
    GrB_Descriptor desc;
    bool structure, comp, replace, accum;
  };
  const Combo combos[] = {
      {GrB_NULL, false, false, false, false},
      {GrB_NULL, false, false, false, true},
      {GrB_DESC_R, false, false, true, false},
      {GrB_DESC_S, true, false, false, false},
      {GrB_DESC_C, false, true, false, true},
      {GrB_DESC_RSC, true, true, true, false},
  };
  for (const Combo& cb : combos) {
    GrB_Matrix a = testutil::make_matrix(ra);
    GrB_Matrix b = testutil::make_matrix(rb);
    GrB_Matrix c = testutil::make_matrix(rc);
    GrB_Matrix m = testutil::make_matrix(rm);
    ASSERT_EQ(GrB_mxm(c, m, cb.accum ? GrB_PLUS_FP64 : GrB_NULL,
                      GrB_PLUS_TIMES_SEMIRING_FP64, a, b, cb.desc),
              GrB_SUCCESS);
    ref::Spec spec;
    spec.have_mask = true;
    spec.structure = cb.structure;
    spec.comp = cb.comp;
    spec.replace = cb.replace;
    if (cb.accum) spec.accum = fn_plus;
    EXPECT_MATRIX_EQ(c, ref::writeback(rc, t, &rm, spec));
    GrB_free(&a);
    GrB_free(&b);
    GrB_free(&c);
    GrB_free(&m);
  }
}

TEST(MxmTest, TransposedInputs) {
  ref::Mat ra = testutil::random_mat(8, 11, 0.4, 20);
  ref::Mat rb = testutil::random_mat(8, 9, 0.4, 21);
  // c = A' * B : (11x8)' x ... A is 8x11 so A' is 11x8; B 8x9 -> 11x9.
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Matrix b = testutil::make_matrix(rb);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 11, 9), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    b, GrB_DESC_T0),
            GrB_SUCCESS);
  EXPECT_MATRIX_EQ(c, ref::mxm(ref::transpose(ra), rb, fn_plus, fn_times));
  GrB_free(&c);

  // c2 = A * A'
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_DESC_T1),
            GrB_SUCCESS);
  EXPECT_MATRIX_EQ(c, ref::mxm(ra, ref::transpose(ra), fn_plus, fn_times));
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
}

TEST(MxmTest, FastpathMatchesGenericPath) {
  // The typed fast path and the function-pointer path must agree bit for
  // bit on every registered semiring (the M2 ablation depends on it).
  ref::Mat ra = testutil::random_mat(20, 20, 0.3, 30);
  ref::Mat rb = testutil::random_mat(20, 20, 0.3, 31);
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Matrix b = testutil::make_matrix(rb);
  const GrB_Semiring rings[] = {
      GrB_PLUS_TIMES_SEMIRING_FP64, GrB_MIN_PLUS_SEMIRING_FP64,
      GrB_MAX_PLUS_SEMIRING_FP64, GrB_MIN_SECOND_SEMIRING_FP64};
  for (GrB_Semiring ring : rings) {
    GrB_Matrix c_fast = nullptr, c_slow = nullptr;
    ASSERT_EQ(GrB_Matrix_new(&c_fast, GrB_FP64, 20, 20), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_new(&c_slow, GrB_FP64, 20, 20), GrB_SUCCESS);
    grb::set_fastpath_enabled(true);
    ASSERT_EQ(GrB_mxm(c_fast, GrB_NULL, GrB_NULL, ring, a, b, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(c_fast, GrB_COMPLETE), GrB_SUCCESS);
    grb::set_fastpath_enabled(false);
    ASSERT_EQ(GrB_mxm(c_slow, GrB_NULL, GrB_NULL, ring, a, b, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(c_slow, GrB_COMPLETE), GrB_SUCCESS);
    grb::set_fastpath_enabled(true);
    EXPECT_TRUE(
        testutil::mats_equal(testutil::to_ref(c_fast),
                             testutil::to_ref(c_slow)));
    GrB_free(&c_fast);
    GrB_free(&c_slow);
  }
  GrB_free(&a);
  GrB_free(&b);
}

// Regression: the typed MIN/MAX adders once computed a < b ? a : b, so a
// NaN product won where the operator (fmin/fmax) drops it.
// u = [1, 1], A = [5; NaN]: w(0) = min(1 + 5, 1 + NaN) = 6 on both paths.
TEST(VxmTest, MinMaxPlusNaNMatchesOperatorOnBothPaths) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 2, 1), GrB_SUCCESS);
  const GrB_Index rows[] = {0, 1}, cols[] = {0, 0};
  const double vals[] = {5.0, std::numeric_limits<double>::quiet_NaN()};
  ASSERT_EQ(GrB_Matrix_build(a, rows, cols, vals, 2, GrB_NULL), GrB_SUCCESS);
  GrB_Vector u = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_assign(u, GrB_NULL, GrB_NULL, 1.0, GrB_ALL, 2, GrB_NULL),
            GrB_SUCCESS);
  const GrB_Semiring rings[] = {GrB_MIN_PLUS_SEMIRING_FP64,
                                GrB_MAX_PLUS_SEMIRING_FP64};
  for (GrB_Semiring ring : rings) {
    for (bool fast : {true, false}) {
      grb::set_fastpath_enabled(fast);
      GrB_Vector w = nullptr;
      ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 1), GrB_SUCCESS);
      ASSERT_EQ(GrB_vxm(w, GrB_NULL, GrB_NULL, ring, u, a, GrB_NULL),
                GrB_SUCCESS);
      double x = 0.0;
      ASSERT_EQ(GrB_Vector_extractElement(&x, w, 0), GrB_SUCCESS);
      EXPECT_EQ(x, 6.0) << (fast ? "typed" : "generic") << " path";
      GrB_free(&w);
    }
  }
  grb::set_fastpath_enabled(true);
  GrB_free(&a);
  GrB_free(&u);
}

// Integer semirings wrap on overflow on both paths (the operators compute
// in unsigned arithmetic; the typed kernels evaluate the same bodies).
TEST(MxmTest, Int64OverflowWrapsOnBothPaths) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_INT64, 1, 2), GrB_SUCCESS);
  const GrB_Index rows[] = {0, 0}, cols[] = {0, 1};
  const int64_t vals[] = {std::numeric_limits<int64_t>::max(), 3};
  ASSERT_EQ(GrB_Matrix_build(a, rows, cols, vals, 2, GrB_NULL), GrB_SUCCESS);
  GrB_Vector u = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_INT64, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_assign(u, GrB_NULL, GrB_NULL, int64_t{2}, GrB_ALL, 2,
                       GrB_NULL),
            GrB_SUCCESS);
  const int64_t expect = static_cast<int64_t>(
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) * 2 + 6);
  for (bool fast : {true, false}) {
    grb::set_fastpath_enabled(fast);
    GrB_Vector w = nullptr;
    ASSERT_EQ(GrB_Vector_new(&w, GrB_INT64, 1), GrB_SUCCESS);
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_INT64,
                      a, u, GrB_NULL),
              GrB_SUCCESS);
    int64_t x = 0;
    ASSERT_EQ(GrB_Vector_extractElement(&x, w, 0), GrB_SUCCESS);
    EXPECT_EQ(x, expect) << (fast ? "typed" : "generic") << " path";
    GrB_free(&w);
  }
  grb::set_fastpath_enabled(true);
  GrB_free(&a);
  GrB_free(&u);
}

TEST(MxmTest, IntTypedSemiring) {
  ref::Mat ra = testutil::random_mat(10, 10, 0.4, 40);
  ref::Mat rb = testutil::random_mat(10, 10, 0.4, 41);
  GrB_Matrix a = testutil::make_matrix(ra);  // FP64 with integer values
  GrB_Matrix b = testutil::make_matrix(rb);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_INT64, 10, 10), GrB_SUCCESS);
  // FP64 inputs cast into the INT64 semiring; result in INT64.
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_INT64, a,
                    b, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_MATRIX_EQ(c, ref::mxm(ra, rb, fn_plus, fn_times));
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
}

TEST(MxmTest, EmptyOperands) {
  GrB_Matrix a = nullptr, b = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 5, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&b, GrB_FP64, 5, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 5, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    b, GrB_NULL),
            GrB_SUCCESS);
  GrB_Index nv = 1;
  EXPECT_EQ(GrB_Matrix_nvals(&nv, c), GrB_SUCCESS);
  EXPECT_EQ(nv, 0u);
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
}

TEST(MxmTest, DimensionErrors) {
  GrB_Matrix a = nullptr, b = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 5, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&b, GrB_FP64, 5, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 5, 5), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    b, GrB_NULL),
            GrB_DIMENSION_MISMATCH);
  // But fine with A transposed.
  GrB_Matrix c2 = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c2, GrB_FP64, 4, 5), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c2, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    b, GrB_DESC_T0),
            GrB_SUCCESS);
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
  GrB_free(&c2);
}

TEST(MxvTest, MaskedMxv) {
  ref::Mat ra = testutil::random_mat(10, 10, 0.4, 50);
  ref::Vec ru = testutil::random_vec(10, 0.7, 51);
  ref::Vec rw = testutil::random_vec(10, 0.3, 52);
  ref::Vec rm = testutil::random_vec(10, 0.5, 53);
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Vector u = testutil::make_vector(ru);
  GrB_Vector w = testutil::make_vector(rw);
  GrB_Vector m = testutil::make_vector(rm);
  ASSERT_EQ(GrB_mxv(w, m, GrB_PLUS_FP64, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                    GrB_NULL),
            GrB_SUCCESS);
  ref::Spec spec;
  spec.have_mask = true;
  spec.accum = fn_plus;
  ref::Vec t = ref::mxv(ra, ru, fn_plus, fn_times);
  EXPECT_VECTOR_EQ(w, ref::writeback(rw, t, &rm, spec));
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
  GrB_free(&m);
}

TEST(VxmTest, TransposedMatrixEqualsMxv) {
  // vxm(u, A') == mxv(A, u) structurally and numerically.
  ref::Mat ra = testutil::random_mat(9, 13, 0.45, 60);
  ref::Vec ru = testutil::random_vec(13, 0.6, 61);
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Vector u = testutil::make_vector(ru);
  GrB_Vector w1 = nullptr, w2 = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w1, GrB_FP64, 9), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w2, GrB_FP64, 9), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxv(w1, GrB_NULL, GrB_NULL, GrB_MIN_PLUS_SEMIRING_FP64, a,
                    u, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_vxm(w2, GrB_NULL, GrB_NULL, GrB_MIN_PLUS_SEMIRING_FP64, u,
                    a, GrB_DESC_T1),
            GrB_SUCCESS);
  EXPECT_TRUE(testutil::vecs_equal(testutil::to_ref(w1),
                                   testutil::to_ref(w2)));
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w1);
  GrB_free(&w2);
}

}  // namespace
