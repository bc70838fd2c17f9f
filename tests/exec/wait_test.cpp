// GrB_wait and the error model (paper §III, §V):
//  * completion resolves a deferred sequence;
//  * API errors are never deferred;
//  * execution errors of deferred methods are reported by later methods
//    on the same object ("poisoning") and cleared only by MATERIALIZE;
//  * GrB_error returns a per-object diagnostic string.
#include <gtest/gtest.h>

#include "tests/grb_test_util.hpp"

namespace {

TEST(WaitTest, CompleteResolvesSequence) {
  GrB_Matrix a = nullptr, b = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 6, 6), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&b, GrB_FP64, 6, 6), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 6, 6), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 2.0, 0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(b, 3.0, 1, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    b, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_TRUE(c->has_pending_ops());
  ASSERT_EQ(GrB_wait(c, GrB_COMPLETE), GrB_SUCCESS);
  EXPECT_FALSE(c->has_pending_ops());
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, c, 0, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 6.0);
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&c);
}

TEST(WaitTest, SequenceChainsExecuteInProgramOrder) {
  // w = u + u; then w += u; then wait: result reflects both steps.
  GrB_Vector u = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(u, 5.0, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, u,
                         GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_PLUS_FP64, GrB_PLUS_FP64, u, u,
                         GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(w, 1.0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_COMPLETE), GrB_SUCCESS);
  double out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, w, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 20.0);  // (5+5) accum (5+5)
  EXPECT_EQ(GrB_Vector_extractElement(&out, w, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 1.0);
  GrB_free(&u);
  GrB_free(&w);
}

TEST(WaitTest, InputSnapshotsAreStable) {
  // A deferred op must see its inputs as of call time, even if the input
  // is modified afterwards (COW snapshot semantics).
  GrB_Vector u = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(u, 7.0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_IDENTITY_FP64, u,
                      GrB_NULL),
            GrB_SUCCESS);  // deferred: w = u (u has 7 at index 1)
  ASSERT_EQ(GrB_Vector_setElement(u, 100.0, 1), GrB_SUCCESS);  // after
  ASSERT_EQ(GrB_wait(w, GrB_COMPLETE), GrB_SUCCESS);
  double out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, w, 1), GrB_SUCCESS);
  EXPECT_EQ(out, 7.0);  // snapshot value, not 100
  GrB_free(&u);
  GrB_free(&w);
}

TEST(ErrorModelTest, ApiErrorsAreImmediateAndNonDestructive) {
  GrB_Vector u = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(w, 9.0, 0), GrB_SUCCESS);
  // Dimension mismatch is an API error: immediate, and w is untouched.
  EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, u,
                         GrB_NULL),
            GrB_DIMENSION_MISMATCH);
  double out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, w, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 9.0);
  // And the object is NOT poisoned: later valid calls succeed.
  EXPECT_EQ(GrB_Vector_setElement(w, 1.0, 1), GrB_SUCCESS);
  GrB_free(&u);
  GrB_free(&w);
}

TEST(ErrorModelTest, DeferredExecutionErrorPoisonsObject) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {1, 1};
  double vals[] = {1, 2};
  // Duplicates with NULL dup: execution error, deferred in nonblocking
  // mode (build returns SUCCESS now, fails later).
  GrB_Info info = GrB_Vector_build(v, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) {
    // §V: "any method invocation ... can report an error from any of the
    // previous methods in the sequence".
    GrB_Index nv = 0;
    info = GrB_Vector_nvals(&nv, v);
  }
  EXPECT_EQ(info, GrB_INVALID_VALUE);
  // The error sticks for further methods...
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Vector_nvals(&nv, v), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_INVALID_VALUE);
  // ...and GrB_error describes it.
  const char* msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, v), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_NE(std::string(msg).find("GrB_INVALID_VALUE"), std::string::npos);
  // MATERIALIZE reports the error one final time and clears it (§V: no
  // more errors can be generated from those methods).
  EXPECT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Vector_nvals(&nv, v), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_SUCCESS);
  GrB_free(&v);
}

// setElement/removeElement check the stored error, the domain and the
// index under one lock, in that order: a poisoned object reports its
// execution error ahead of GrB_DOMAIN_MISMATCH and GrB_INVALID_INDEX,
// and the later checks come back once MATERIALIZE clears it.
TEST(ErrorModelTest, PoisonedElementCallsReportStoredErrorFirst) {
  GrB_Type udt = nullptr;
  ASSERT_EQ(GrB_Type_new(&udt, 24), GrB_SUCCESS);
  const unsigned char blob[24] = {};
  GrB_Index idx[] = {1, 1};
  double vals[] = {1, 2};

  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 3, 3), GrB_SUCCESS);
  GrB_Info info = GrB_Matrix_build(a, idx, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(a, GrB_COMPLETE);
  ASSERT_EQ(info, GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, 99, 0), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Matrix_setElement_UDT(a, blob, udt, 99, 0),
            GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Matrix_removeElement(a, 99, 0), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, 0, 0), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Matrix_setElement_UDT(a, blob, udt, 99, 0),
            GrB_DOMAIN_MISMATCH);
  EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, 99, 0), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Matrix_removeElement(a, 0, 99), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, 0, 0), GrB_SUCCESS);
  GrB_free(&a);

  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 3), GrB_SUCCESS);
  info = GrB_Vector_build(v, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(v, GrB_COMPLETE);
  ASSERT_EQ(info, GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Vector_setElement(v, 1.0, 99), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Vector_setElement_UDT(v, blob, udt, 99), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Vector_removeElement(v, 99), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Vector_setElement_UDT(v, blob, udt, 99),
            GrB_DOMAIN_MISMATCH);
  EXPECT_EQ(GrB_Vector_setElement(v, 1.0, 99), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Vector_removeElement(v, 99), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_SUCCESS);
  GrB_free(&v);
  GrB_free(&udt);
}

// In blocking mode setElement and removeElement fold before they return:
// the published block already holds the change, with no completion
// forced by a later read.  Nonblocking mode leaves it pending.
TEST(ErrorModelTest, BlockingElementCallsFoldBeforeReturning) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 4, 4, testutil::blocking_context()),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 2.0, 1, 3), GrB_SUCCESS);
  EXPECT_EQ(a->current_data()->nvals(), 1u);
  ASSERT_EQ(GrB_Matrix_removeElement(a, 1, 3), GrB_SUCCESS);
  EXPECT_EQ(a->current_data()->nvals(), 0u);
  GrB_free(&a);

  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4, testutil::blocking_context()),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 2.0, 3), GrB_SUCCESS);
  EXPECT_EQ(v->current_data()->nvals(), 1u);
  ASSERT_EQ(GrB_Vector_removeElement(v, 3), GrB_SUCCESS);
  EXPECT_EQ(v->current_data()->nvals(), 0u);
  GrB_free(&v);

  GrB_Matrix lazy = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&lazy, GrB_FP64, 4, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(lazy, 2.0, 1, 3), GrB_SUCCESS);
  EXPECT_EQ(lazy->current_data()->nvals(), 0u);
  GrB_Index nv = 0;
  ASSERT_EQ(GrB_Matrix_nvals(&nv, lazy), GrB_SUCCESS);
  EXPECT_EQ(nv, 1u);
  GrB_free(&lazy);
}

TEST(ErrorModelTest, PoisonedInputReportsInOtherOps) {
  GrB_Vector bad = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&bad, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {0, 0};
  double vals[] = {1, 2};
  ASSERT_EQ(GrB_Vector_build(bad, idx, vals, 2, GrB_NULL), GrB_SUCCESS);
  // Using the poisoned object as an INPUT surfaces the deferred error.
  GrB_Info info =
      GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, bad, bad, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(w, GrB_MATERIALIZE);
  EXPECT_EQ(info, GrB_INVALID_VALUE);
  GrB_free(&bad);
  GrB_free(&w);
}

TEST(ErrorModelTest, BlockingModeReportsImmediately) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4, testutil::blocking_context()),
            GrB_SUCCESS);
  GrB_Index idx[] = {2, 2};
  double vals[] = {1, 2};
  EXPECT_EQ(GrB_Vector_build(v, idx, vals, 2, GrB_NULL), GrB_INVALID_VALUE);
  GrB_free(&v);
}

TEST(ErrorModelTest, MaterializeOnCleanObjectSucceeds) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, 0, 0), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_COMPLETE), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);  // idempotent
  GrB_free(&a);
}

TEST(ErrorModelTest, ErrorStringIsEmptyWithoutError) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 3, 3), GrB_SUCCESS);
  const char* msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, a), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_STREQ(msg, "");  // "always legal to return an empty string" (§V)
  GrB_free(&a);
}

TEST(WaitTest, WaitOnScalarSequence) {
  // Scalars participate in the deferred-sequence machinery too (§VI).
  GrB_Vector u = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, 6), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(u, 2.5, 3), GrB_SUCCESS);
  GrB_Scalar s = nullptr;
  ASSERT_EQ(GrB_Scalar_new(&s, GrB_FP64), GrB_SUCCESS);
  ASSERT_EQ(GrB_reduce(s, GrB_NULL, GrB_PLUS_MONOID_FP64, u, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(s, GrB_COMPLETE), GrB_SUCCESS);
  double out = 0;
  EXPECT_EQ(GrB_Scalar_extractElement(&out, s), GrB_SUCCESS);
  EXPECT_EQ(out, 2.5);
  GrB_free(&u);
  GrB_free(&s);
}

}  // namespace
