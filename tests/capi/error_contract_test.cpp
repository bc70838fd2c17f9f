// Table-driven negative-path coverage of the API-error contract (paper §V):
// API errors are eager and deterministic — a malformed call returns the
// documented code immediately, regardless of the execution mode, without
// modifying its arguments — and every live object keeps a queryable
// GrB_error diagnostic string.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "tests/grb_test_util.hpp"

namespace {

struct NegativeCase {
  const char* name;
  GrB_Info expected;
  std::function<GrB_Info()> call;
};

class ErrorContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(GrB_Matrix_new(&a_, GrB_FP64, 3, 3), GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_new(&v_, GrB_FP64, 3), GrB_SUCCESS);
    ASSERT_EQ(GrB_Scalar_new(&s_, GrB_FP64), GrB_SUCCESS);
  }
  void TearDown() override {
    if (a_ != nullptr) GrB_free(&a_);
    if (v_ != nullptr) GrB_free(&v_);
    if (s_ != nullptr) GrB_free(&s_);
  }

  GrB_Matrix a_ = nullptr;
  GrB_Vector v_ = nullptr;
  GrB_Scalar s_ = nullptr;
};

TEST_F(ErrorContractTest, NegativePathsReturnDocumentedCodes) {
  GrB_Matrix null_m = nullptr;
  GrB_Vector null_v = nullptr;
  GrB_Scalar null_s = nullptr;
  GrB_Index n = 0;
  double x = 0;
  unsigned ver = 0;
  const char* msg = nullptr;
  GrB_Monoid mono = nullptr;
  GrB_Matrix out_m = nullptr;
  GrB_Vector out_v = nullptr;
  GrB_Scalar out_s = nullptr;

  const std::vector<NegativeCase> cases = {
      // ---- GrB_UNINITIALIZED_OBJECT: a null handle argument ------------
      {"Matrix_clear(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_clear(null_m); }},
      {"Vector_clear(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Vector_clear(null_v); }},
      {"Scalar_clear(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Scalar_clear(null_s); }},
      {"Matrix_nvals(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_nvals(&n, null_m); }},
      {"Vector_nvals(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Vector_nvals(&n, null_v); }},
      {"Scalar_nvals(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Scalar_nvals(&n, null_s); }},
      {"Matrix_nrows(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_nrows(&n, null_m); }},
      {"Matrix_ncols(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_ncols(&n, null_m); }},
      {"Vector_size(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Vector_size(&n, null_v); }},
      {"Matrix_resize(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_resize(null_m, 2, 2); }},
      {"Vector_resize(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Vector_resize(null_v, 2); }},
      {"Matrix_setElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_setElement(null_m, 1.0, 0, 0); }},
      {"Vector_setElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Vector_setElement(null_v, 1.0, 0); }},
      {"Scalar_setElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Scalar_setElement(null_s, 1.0); }},
      {"Matrix_removeElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_removeElement(null_m, 0, 0); }},
      {"Vector_removeElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Vector_removeElement(null_v, 0); }},
      {"Matrix_extractElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Matrix_extractElement(&x, null_m, 0, 0); }},
      {"Vector_extractElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Vector_extractElement(&x, null_v, 0); }},
      {"Scalar_extractElement(null)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Scalar_extractElement(&x, null_s); }},
      {"wait(null matrix)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_wait(null_m, GrB_COMPLETE); }},
      {"wait(null vector)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_wait(null_v, GrB_MATERIALIZE); }},
      {"wait(null scalar)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_wait(null_s, GrB_COMPLETE); }},
      {"error(null matrix)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_error(&msg, null_m); }},
      {"error(null vector)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_error(&msg, null_v); }},
      {"Descriptor_set(null)", GrB_UNINITIALIZED_OBJECT,
       [&] {
         return GrB_Descriptor_set(nullptr, GrB_OUTP, GrB_REPLACE);
       }},
      {"Context_switch(null matrix)", GrB_UNINITIALIZED_OBJECT,
       [&] { return GrB_Context_switch(null_m, nullptr); }},

      // ---- GrB_NULL_POINTER: a null non-handle (output/data) pointer ---
      {"Matrix_new(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Matrix_new(nullptr, GrB_FP64, 2, 2); }},
      {"Matrix_new(null type)", GrB_NULL_POINTER,
       [&] {
         return GrB_Matrix_new(&out_m, static_cast<GrB_Type>(nullptr), 2, 2);
       }},
      {"Vector_new(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Vector_new(nullptr, GrB_FP64, 2); }},
      {"Vector_new(null type)", GrB_NULL_POINTER,
       [&] {
         return GrB_Vector_new(&out_v, static_cast<GrB_Type>(nullptr), 2);
       }},
      {"Scalar_new(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Scalar_new(nullptr, GrB_FP64); }},
      {"Scalar_new(null type)", GrB_NULL_POINTER,
       [&] {
         return GrB_Scalar_new(&out_s, static_cast<GrB_Type>(nullptr));
       }},
      {"Matrix_dup(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Matrix_dup(nullptr, a_); }},
      {"Vector_dup(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Vector_dup(nullptr, v_); }},
      {"free(null matrix handle ptr)", GrB_NULL_POINTER,
       [&] { return GrB_free(static_cast<GrB_Matrix*>(nullptr)); }},
      {"free(null vector handle ptr)", GrB_NULL_POINTER,
       [&] { return GrB_free(static_cast<GrB_Vector*>(nullptr)); }},
      {"Matrix_nrows(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Matrix_nrows(nullptr, a_); }},
      {"Vector_size(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Vector_size(nullptr, v_); }},
      {"Matrix_nvals(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Matrix_nvals(nullptr, a_); }},
      {"error(null out)", GrB_NULL_POINTER,
       [&] { return GrB_error(nullptr, a_); }},
      {"getVersion(null)", GrB_NULL_POINTER,
       [&] { return GrB_getVersion(nullptr, &ver); }},
      {"Type_new(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Type_new(nullptr, 8); }},
      {"Descriptor_new(null out)", GrB_NULL_POINTER,
       [&] { return GrB_Descriptor_new(nullptr); }},
      {"Monoid_new(null op)", GrB_NULL_POINTER,
       [&] {
         return GrB_Monoid_new(&mono, static_cast<GrB_BinaryOp>(nullptr),
                               0.0);
       }},
  };

  for (const NegativeCase& c : cases) {
    EXPECT_EQ(c.call(), c.expected) << c.name;
    // §V: API errors are deterministic — the same malformed call reports
    // the same code again.
    EXPECT_EQ(c.call(), c.expected) << c.name << " (repeat)";
  }

  // None of the malformed calls above may have disturbed the fixtures.
  GrB_Index nv = ~GrB_Index{0};
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a_), GrB_SUCCESS);
  EXPECT_EQ(nv, 0u);
  EXPECT_EQ(GrB_Vector_nvals(&nv, v_), GrB_SUCCESS);
  EXPECT_EQ(nv, 0u);
}

TEST_F(ErrorContractTest, ErrorStringPopulatedOnHealthyObjects) {
  // GrB_error is defined on every live object, error or not: the string
  // must be non-null and NUL-terminated even before any failure.
  const char* msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, a_), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, v_), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, s_), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
}

TEST_F(ErrorContractTest, ApiErrorDoesNotPoisonTheObject) {
  // An eager API error must not stick to the object: the next valid call
  // succeeds and GrB_error keeps returning a valid (possibly empty) string.
  EXPECT_EQ(GrB_Matrix_setElement(a_, 1.0, 99, 0), GrB_INVALID_INDEX);
  EXPECT_EQ(GrB_Matrix_setElement(a_, 1.0, 1, 1), GrB_SUCCESS);
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a_), GrB_SUCCESS);
  EXPECT_EQ(nv, 1u);
  const char* msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, a_), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
}

TEST_F(ErrorContractTest, DeferredErrorRegistersDiagnosticString) {
  // A deferred execution failure must both surface its code on a later
  // method and register a human-readable GrB_error string naming it
  // (the "deferring operations register a GrB_error string" contract
  // tools/grb_analyze.py checks statically as poison-has-message).
  GrB_Index idx[] = {1, 1};
  double vals[] = {1, 2};
  // Duplicate indices with a NULL dup operator: an execution error that
  // nonblocking mode may defer past the build call itself.
  GrB_Info info = GrB_Vector_build(v_, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) {
    GrB_Index nv = 0;
    info = GrB_Vector_nvals(&nv, v_);
  }
  EXPECT_EQ(info, GrB_INVALID_VALUE);

  const char* msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, v_), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  EXPECT_FALSE(std::string(msg).empty());
  EXPECT_NE(std::string(msg).find("GrB_INVALID_VALUE"), std::string::npos);

  // MATERIALIZE reports the stored error once more and clears it.
  EXPECT_EQ(GrB_wait(v_, GrB_MATERIALIZE), GrB_INVALID_VALUE);
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Vector_nvals(&nv, v_), GrB_SUCCESS);
}

}  // namespace
