// GrB_Vector container: lifecycle, build, element access, pending-tuple
// semantics, resize, duplication, and API error paths.
#include <gtest/gtest.h>

#include "tests/grb_test_util.hpp"

namespace {

TEST(VectorTest, NewSizeNvals) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 10), GrB_SUCCESS);
  GrB_Index n = 0, nvals = 99;
  EXPECT_EQ(GrB_Vector_size(&n, v), GrB_SUCCESS);
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(GrB_Vector_nvals(&nvals, v), GrB_SUCCESS);
  EXPECT_EQ(nvals, 0u);
  GrB_free(&v);
}

TEST(VectorTest, BuildAndExtractTuples) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  GrB_Index idx[] = {6, 1, 3};  // unsorted on purpose
  double vals[] = {6.5, 1.5, 3.5};
  ASSERT_EQ(GrB_Vector_build(v, idx, vals, 3, GrB_NULL), GrB_SUCCESS);
  GrB_Index out_idx[3];
  double out_vals[3];
  GrB_Index n = 3;
  ASSERT_EQ(GrB_Vector_extractTuples(out_idx, out_vals, &n, v),
            GrB_SUCCESS);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(out_idx[0], 1u);
  EXPECT_EQ(out_idx[1], 3u);
  EXPECT_EQ(out_idx[2], 6u);
  EXPECT_EQ(out_vals[0], 1.5);
  EXPECT_EQ(out_vals[1], 3.5);
  EXPECT_EQ(out_vals[2], 6.5);
  GrB_free(&v);
}

TEST(VectorTest, BuildWithDupCombinesInInputOrder) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {2, 2, 2, 0};
  double vals[] = {1, 10, 100, 5};
  ASSERT_EQ(GrB_Vector_build(v, idx, vals, 4, GrB_PLUS_FP64), GrB_SUCCESS);
  double out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 111.0);
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 5.0);
  GrB_free(&v);
}

TEST(VectorTest, BuildNullDupDuplicatesAreExecutionError) {
  // Paper §IX: dup is optional in 2.0; with GrB_NULL duplicates become an
  // execution error.
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {1, 1};
  double vals[] = {1, 2};
  GrB_Info info = GrB_Vector_build(v, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) {
    // Deferred in nonblocking mode; materialize reports it.
    info = GrB_wait(v, GrB_MATERIALIZE);
  }
  EXPECT_EQ(info, GrB_INVALID_VALUE);
  GrB_free(&v);
}

TEST(VectorTest, BuildOutOfRangeIndexIsError) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {4};
  double vals[] = {1};
  GrB_Info info = GrB_Vector_build(v, idx, vals, 1, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(v, GrB_MATERIALIZE);
  EXPECT_EQ(info, GrB_INDEX_OUT_OF_BOUNDS);
  GrB_free(&v);
}

// A count above GrB_INDEX_MAX is rejected before the caller's arrays
// are read, in either mode: at 2^61 the end of the index range and the
// value array's byte size both wrap to 0.
TEST(VectorTest, BuildRejectsCountAboveIndexMax) {
  for (GrB_Context ctx :
       {GrB_Context{GrB_NULL}, testutil::blocking_context()}) {
    // GrB_INDEX_MAX passes the count check, but its index copy asks for
    // more elements than a vector can hold: out of memory, not a panic.
    for (GrB_Index n :
         {GrB_INDEX_MAX, GrB_INDEX_MAX + 1, GrB_Index{1} << 61}) {
      SCOPED_TRACE(n);
      const GrB_Info want =
          n == GrB_INDEX_MAX ? GrB_OUT_OF_MEMORY : GrB_INVALID_VALUE;
      GrB_Vector v = nullptr;
      ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4, ctx), GrB_SUCCESS);
      GrB_Index idx[] = {1, 3};
      double vals[] = {1, 2};
      EXPECT_EQ(GrB_Vector_build(v, idx, vals, n, GrB_NULL), want);
      GrB_Index nv = 1;
      EXPECT_EQ(GrB_Vector_nvals(&nv, v), GrB_SUCCESS);
      EXPECT_EQ(nv, 0u);
      EXPECT_EQ(GrB_Vector_build(v, idx, vals, 2, GrB_NULL), GrB_SUCCESS);
      EXPECT_EQ(GrB_Vector_nvals(&nv, v), GrB_SUCCESS);
      EXPECT_EQ(nv, 2u);
      GrB_free(&v);
    }
  }
}

TEST(VectorTest, BuildOnNonEmptyIsOutputNotEmpty) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_SUCCESS);
  GrB_Index idx[] = {1};
  double vals[] = {1};
  EXPECT_EQ(GrB_Vector_build(v, idx, vals, 1, GrB_NULL),
            GrB_OUTPUT_NOT_EMPTY);
  GrB_free(&v);
}

TEST(VectorTest, SetGetRemoveElement) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_INT32, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 11, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 22, 4), GrB_SUCCESS);
  int32_t out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 11);
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 3), GrB_NO_VALUE);
  // Overwrite wins.
  ASSERT_EQ(GrB_Vector_setElement(v, 33, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 33);
  // Remove.
  ASSERT_EQ(GrB_Vector_removeElement(v, 2), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 2), GrB_NO_VALUE);
  GrB_Index nvals = 0;
  EXPECT_EQ(GrB_Vector_nvals(&nvals, v), GrB_SUCCESS);
  EXPECT_EQ(nvals, 1u);
  // Removing an absent element is fine.
  EXPECT_EQ(GrB_Vector_removeElement(v, 0), GrB_SUCCESS);
  GrB_free(&v);
}

TEST(VectorTest, PendingTuplesInterleaveSetAndRemove) {
  // A burst of O(1) pending updates must fold in program order.
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 100), GrB_SUCCESS);
  for (int round = 0; round < 3; ++round) {
    for (GrB_Index i = 0; i < 100; ++i) {
      ASSERT_EQ(GrB_Vector_setElement(v, double(round * 1000 + i), i),
                GrB_SUCCESS);
    }
  }
  for (GrB_Index i = 0; i < 100; i += 2) {
    ASSERT_EQ(GrB_Vector_removeElement(v, i), GrB_SUCCESS);
  }
  ASSERT_EQ(GrB_Vector_setElement(v, -1.0, 0), GrB_SUCCESS);
  GrB_Index nvals = 0;
  ASSERT_EQ(GrB_Vector_nvals(&nvals, v), GrB_SUCCESS);
  EXPECT_EQ(nvals, 51u);  // 50 odd survivors + re-set index 0
  double out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 0), GrB_SUCCESS);
  EXPECT_EQ(out, -1.0);
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 1), GrB_SUCCESS);
  EXPECT_EQ(out, 2001.0);
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 2), GrB_NO_VALUE);
  GrB_free(&v);
}

TEST(VectorTest, SetElementErrors) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 5), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_setElement(v, 1.0, 5), GrB_INVALID_INDEX);
  double out;
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 5), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Vector_removeElement(v, 99), GrB_INVALID_INDEX);
  GrB_free(&v);
}

TEST(VectorTest, DomainMismatchWithUdt) {
  GrB_Type udt = nullptr;
  ASSERT_EQ(GrB_Type_new(&udt, 8), GrB_SUCCESS);
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, udt, 5), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_DOMAIN_MISMATCH);
  uint64_t raw = 7;
  EXPECT_EQ(GrB_Vector_setElement_UDT(v, &raw, udt, 0), GrB_SUCCESS);
  uint64_t back = 0;
  EXPECT_EQ(GrB_Vector_extractElement_UDT(&back, udt, v, 0), GrB_SUCCESS);
  EXPECT_EQ(back, 7u);
  GrB_free(&v);
  GrB_free(&udt);
}

TEST(VectorTest, DupIsIndependent) {
  GrB_Vector v = nullptr, d = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_dup(&d, v), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(d, 2.0, 2), GrB_SUCCESS);
  GrB_Index nv = 0, nd = 0;
  EXPECT_EQ(GrB_Vector_nvals(&nv, v), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_nvals(&nd, d), GrB_SUCCESS);
  EXPECT_EQ(nv, 1u);
  EXPECT_EQ(nd, 2u);
  GrB_free(&v);
  GrB_free(&d);
}

TEST(VectorTest, ResizeGrowAndShrink) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 6), GrB_SUCCESS);
  for (GrB_Index i = 0; i < 6; ++i)
    ASSERT_EQ(GrB_Vector_setElement(v, double(i), i), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_resize(v, 3), GrB_SUCCESS);
  GrB_Index n = 0, nvals = 0;
  EXPECT_EQ(GrB_Vector_size(&n, v), GrB_SUCCESS);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(GrB_Vector_nvals(&nvals, v), GrB_SUCCESS);
  EXPECT_EQ(nvals, 3u);
  ASSERT_EQ(GrB_Vector_resize(v, 10), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_size(&n, v), GrB_SUCCESS);
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(GrB_Vector_nvals(&nvals, v), GrB_SUCCESS);
  EXPECT_EQ(nvals, 3u);  // truncated entries stay gone
  // New tail indices are now valid.
  EXPECT_EQ(GrB_Vector_setElement(v, 9.0, 9), GrB_SUCCESS);
  GrB_free(&v);
}

TEST(VectorTest, ClearKeepsSize) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 7), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_clear(v), GrB_SUCCESS);
  GrB_Index n = 0, nvals = 9;
  EXPECT_EQ(GrB_Vector_size(&n, v), GrB_SUCCESS);
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(GrB_Vector_nvals(&nvals, v), GrB_SUCCESS);
  EXPECT_EQ(nvals, 0u);
  GrB_free(&v);
}

TEST(VectorTest, ExtractTuplesInsufficientSpace) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 2.0, 1), GrB_SUCCESS);
  GrB_Index idx[1];
  double vals[1];
  GrB_Index n = 1;
  EXPECT_EQ(GrB_Vector_extractTuples(idx, vals, &n, v),
            GrB_INSUFFICIENT_SPACE);
  GrB_free(&v);
}

TEST(VectorTest, CastOnSetAndExtract) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_INT8, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1000, 0), GrB_SUCCESS);  // wraps
  int32_t out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, v, 0), GrB_SUCCESS);
  EXPECT_EQ(out, int32_t(int8_t(1000)));
  GrB_free(&v);
}

}  // namespace
