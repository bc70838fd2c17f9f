// GrB_Matrix container: lifecycle, build, element access, pending
// tuples, resize, dup, diag, and API error paths.
#include <gtest/gtest.h>

#include "tests/grb_test_util.hpp"

namespace {

TEST(MatrixTest, NewDimsNvals) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 4, 9), GrB_SUCCESS);
  GrB_Index nr = 0, nc = 0, nv = 1;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&nc, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  EXPECT_EQ(nr, 4u);
  EXPECT_EQ(nc, 9u);
  EXPECT_EQ(nv, 0u);
  GrB_free(&a);
}

TEST(MatrixTest, BuildSortsRowsAndColumns) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 3, 3), GrB_SUCCESS);
  GrB_Index ri[] = {2, 0, 2, 1};
  GrB_Index ci[] = {1, 2, 0, 1};
  double vals[] = {21, 2, 20, 11};
  ASSERT_EQ(GrB_Matrix_build(a, ri, ci, vals, 4, GrB_NULL), GrB_SUCCESS);
  GrB_Index orow[4], ocol[4];
  double ovals[4];
  GrB_Index n = 4;
  ASSERT_EQ(GrB_Matrix_extractTuples(orow, ocol, ovals, &n, a),
            GrB_SUCCESS);
  ASSERT_EQ(n, 4u);
  // Row-major sorted order.
  EXPECT_EQ(orow[0], 0u);
  EXPECT_EQ(ocol[0], 2u);
  EXPECT_EQ(ovals[0], 2.0);
  EXPECT_EQ(orow[1], 1u);
  EXPECT_EQ(ocol[1], 1u);
  EXPECT_EQ(orow[2], 2u);
  EXPECT_EQ(ocol[2], 0u);
  EXPECT_EQ(orow[3], 2u);
  EXPECT_EQ(ocol[3], 1u);
  GrB_free(&a);
}

TEST(MatrixTest, BuildWithDupAndErrors) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_INT64, 2, 2), GrB_SUCCESS);
  GrB_Index ri[] = {0, 0, 0};
  GrB_Index ci[] = {1, 1, 1};
  int64_t vals[] = {1, 2, 4};
  ASSERT_EQ(GrB_Matrix_build(a, ri, ci, vals, 3, GrB_PLUS_INT64),
            GrB_SUCCESS);
  int64_t out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 1), GrB_SUCCESS);
  EXPECT_EQ(out, 7);
  // Non-empty output rejected.
  EXPECT_EQ(GrB_Matrix_build(a, ri, ci, vals, 3, GrB_PLUS_INT64),
            GrB_OUTPUT_NOT_EMPTY);
  GrB_free(&a);

  // NULL dup + duplicates -> execution error (paper §IX).
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_INT64, 2, 2), GrB_SUCCESS);
  GrB_Info info = GrB_Matrix_build(a, ri, ci, vals, 3, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(a, GrB_MATERIALIZE);
  EXPECT_EQ(info, GrB_INVALID_VALUE);
  GrB_free(&a);

  // Out-of-range coordinate -> execution error.
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_INT64, 2, 2), GrB_SUCCESS);
  GrB_Index bad_ri[] = {5};
  GrB_Index bad_ci[] = {0};
  info = GrB_Matrix_build(a, bad_ri, bad_ci, vals, 1, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(a, GrB_MATERIALIZE);
  EXPECT_EQ(info, GrB_INDEX_OUT_OF_BOUNDS);
  GrB_free(&a);
}

// A count above GrB_INDEX_MAX is rejected before the caller's arrays
// are read, in either mode: at 2^61 the end of the index range and the
// value array's byte size both wrap to 0.
TEST(MatrixTest, BuildRejectsCountAboveIndexMax) {
  for (GrB_Context ctx :
       {GrB_Context{GrB_NULL}, testutil::blocking_context()}) {
    // GrB_INDEX_MAX passes the count check, but its index copy asks for
    // more elements than a vector can hold: out of memory, not a panic.
    for (GrB_Index n :
         {GrB_INDEX_MAX, GrB_INDEX_MAX + 1, GrB_Index{1} << 61}) {
      SCOPED_TRACE(n);
      const GrB_Info want =
          n == GrB_INDEX_MAX ? GrB_OUT_OF_MEMORY : GrB_INVALID_VALUE;
      GrB_Matrix a = nullptr;
      ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 4, 4, ctx), GrB_SUCCESS);
      GrB_Index ri[] = {0, 2};
      GrB_Index ci[] = {1, 3};
      double vals[] = {1, 2};
      EXPECT_EQ(GrB_Matrix_build(a, ri, ci, vals, n, GrB_NULL), want);
      GrB_Index nv = 1;
      EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
      EXPECT_EQ(nv, 0u);
      EXPECT_EQ(GrB_Matrix_build(a, ri, ci, vals, 2, GrB_NULL), GrB_SUCCESS);
      EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
      EXPECT_EQ(nv, 2u);
      GrB_free(&a);
    }
  }
}

TEST(MatrixTest, SetGetRemoveElement) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 4, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 1.5, 1, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 2.5, 3, 0), GrB_SUCCESS);
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 1.5);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 2, 2), GrB_NO_VALUE);
  ASSERT_EQ(GrB_Matrix_setElement(a, 9.0, 1, 2), GrB_SUCCESS);  // overwrite
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 9.0);
  ASSERT_EQ(GrB_Matrix_removeElement(a, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 1, 2), GrB_NO_VALUE);
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  EXPECT_EQ(nv, 1u);
  // Bounds.
  EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, 4, 0), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, 0, 4), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 9), GrB_INVALID_INDEX);
  GrB_free(&a);
}

TEST(MatrixTest, PendingTupleBurst) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 32, 32), GrB_SUCCESS);
  // Writes + overwrites + deletes, folded once at the nvals query.
  for (GrB_Index i = 0; i < 32; ++i)
    for (GrB_Index j = 0; j < 32; ++j)
      ASSERT_EQ(GrB_Matrix_setElement(a, double(i + j), i, j), GrB_SUCCESS);
  for (GrB_Index i = 0; i < 32; ++i)
    ASSERT_EQ(GrB_Matrix_removeElement(a, i, i), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 123.0, 0, 0), GrB_SUCCESS);
  GrB_Index nv = 0;
  ASSERT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  EXPECT_EQ(nv, 32u * 32u - 31u);
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 123.0);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 5, 5), GrB_NO_VALUE);
  GrB_free(&a);
}

TEST(MatrixTest, DupIsIndependent) {
  GrB_Matrix a = nullptr, b = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, 0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_dup(&b, a), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(b, 2.0, 1, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_removeElement(b, 0, 0), GrB_SUCCESS);
  GrB_Index na = 0, nb = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&na, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nb, b), GrB_SUCCESS);
  EXPECT_EQ(na, 1u);
  EXPECT_EQ(nb, 1u);
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 1.0);
  GrB_free(&a);
  GrB_free(&b);
}

TEST(MatrixTest, ResizeShrinkDropsOutside) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 4, 4), GrB_SUCCESS);
  for (GrB_Index i = 0; i < 4; ++i)
    ASSERT_EQ(GrB_Matrix_setElement(a, double(i), i, i), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_resize(a, 2, 3), GrB_SUCCESS);
  GrB_Index nr, nc, nv;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&nc, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  EXPECT_EQ(nr, 2u);
  EXPECT_EQ(nc, 3u);
  EXPECT_EQ(nv, 2u);
  ASSERT_EQ(GrB_Matrix_resize(a, 5, 5), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  EXPECT_EQ(nv, 2u);
  EXPECT_EQ(GrB_Matrix_setElement(a, 7.0, 4, 4), GrB_SUCCESS);
  GrB_free(&a);
}

TEST(MatrixTest, ClearKeepsDims) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 3, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, 2, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_clear(a), GrB_SUCCESS);
  GrB_Index nr, nc, nv;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&nc, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  EXPECT_EQ(nr, 3u);
  EXPECT_EQ(nc, 5u);
  EXPECT_EQ(nv, 0u);
  GrB_free(&a);
}

TEST(MatrixTest, DiagBuildsOffsets) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 2.0, 2), GrB_SUCCESS);

  GrB_Matrix d0 = nullptr, dpos = nullptr, dneg = nullptr;
  ASSERT_EQ(GrB_Matrix_diag(&d0, v, 0), GrB_SUCCESS);
  GrB_Index nr;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, d0), GrB_SUCCESS);
  EXPECT_EQ(nr, 3u);
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, d0, 0, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 1.0);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, d0, 2, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 2.0);

  ASSERT_EQ(GrB_Matrix_diag(&dpos, v, 1), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nrows(&nr, dpos), GrB_SUCCESS);
  EXPECT_EQ(nr, 4u);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, dpos, 0, 1), GrB_SUCCESS);
  EXPECT_EQ(out, 1.0);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, dpos, 2, 3), GrB_SUCCESS);
  EXPECT_EQ(out, 2.0);

  ASSERT_EQ(GrB_Matrix_diag(&dneg, v, -2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nrows(&nr, dneg), GrB_SUCCESS);
  EXPECT_EQ(nr, 5u);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, dneg, 2, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 1.0);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, dneg, 4, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 2.0);

  GrB_free(&v);
  GrB_free(&d0);
  GrB_free(&dpos);
  GrB_free(&dneg);
}

TEST(MatrixTest, RandomRoundTripThroughTuples) {
  // Property: build(extractTuples(A)) == A for random matrices.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ref::Mat m = testutil::random_mat(17, 23, 0.2, seed);
    GrB_Matrix a = testutil::make_matrix(m);
    EXPECT_MATRIX_EQ(a, m);
    GrB_free(&a);
  }
}

}  // namespace
