// A NULL mask under GrB_DESC_C is an all-false mask: the operation
// computes T and writes none of it.  Under GrB_DESC_C the output must
// stay exactly as it was; under GrB_DESC_RC it must be cleared.  Every
// operation that takes a mask is run against the dense reference
// write-back, on a pre-filled output and on an empty one.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "tests/grb_test_util.hpp"

namespace {

constexpr GrB_Index kN = 6;

struct MatrixCase {
  std::string name;
  std::function<GrB_Info(GrB_Matrix c, GrB_Descriptor d)> run;
};

struct VectorCase {
  std::string name;
  std::function<GrB_Info(GrB_Vector w, GrB_Descriptor d)> run;
};

// The reference result of any op under a complemented NULL mask: the
// mask is false everywhere, so T is never read.
ref::Spec null_comp_spec(GrB_Descriptor d) {
  ref::Spec s;
  s.comp = true;
  s.replace = d == GrB_DESC_RC;
  return s;
}

class NullMaskComplementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ra_ = testutil::random_mat(kN, kN, 0.5, 11);
    rb_ = testutil::random_mat(kN, kN, 0.5, 12);
    ru_ = testutil::random_vec(kN, 0.6, 13);
    rv_ = testutil::random_vec(kN, 0.6, 14);
    a_ = testutil::make_matrix(ra_);
    b_ = testutil::make_matrix(rb_);
    // kron(2x2, 3x3) is 6x6, the shape of every matrix output here.
    k1_ = testutil::make_matrix(testutil::random_mat(2, 2, 0.75, 15));
    k2_ = testutil::make_matrix(testutil::random_mat(3, 3, 0.6, 16));
    u_ = testutil::make_vector(ru_);
    v_ = testutil::make_vector(rv_);
  }
  void TearDown() override {
    for (GrB_Matrix* m : {&a_, &b_, &k1_, &k2_}) GrB_free(m);
    for (GrB_Vector* v : {&u_, &v_}) GrB_free(v);
  }

  std::vector<MatrixCase> matrix_cases() {
    return {
        {"mxm",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_mxm(c, GrB_NULL, GrB_NULL,
                          GrB_PLUS_TIMES_SEMIRING_FP64, a_, b_, d);
         }},
        {"eWiseAdd",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_eWiseAdd(c, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, a_, b_,
                               d);
         }},
        {"eWiseMult",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_eWiseMult(c, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, a_,
                                b_, d);
         }},
        {"apply",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_apply(c, GrB_NULL, GrB_NULL, GrB_AINV_FP64, a_, d);
         }},
        {"select",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_select(c, GrB_NULL, GrB_NULL, GrB_VALUEGT_FP64, a_,
                             0.0, d);
         }},
        {"assign",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_assign(c, GrB_NULL, GrB_NULL, a_, GrB_ALL, kN,
                             GrB_ALL, kN, d);
         }},
        {"extract",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_extract(c, GrB_NULL, GrB_NULL, a_, GrB_ALL, kN,
                              GrB_ALL, kN, d);
         }},
        {"transpose",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_transpose(c, GrB_NULL, GrB_NULL, a_, d);
         }},
        {"kronecker",
         [&](GrB_Matrix c, GrB_Descriptor d) {
           return GrB_kronecker(c, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, k1_,
                                k2_, d);
         }},
    };
  }

  std::vector<VectorCase> vector_cases() {
    return {
        {"mxv",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_mxv(w, GrB_NULL, GrB_NULL,
                          GrB_PLUS_TIMES_SEMIRING_FP64, a_, u_, d);
         }},
        {"vxm",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_vxm(w, GrB_NULL, GrB_NULL,
                          GrB_PLUS_TIMES_SEMIRING_FP64, u_, a_, d);
         }},
        {"eWiseAdd",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u_, v_,
                               d);
         }},
        {"eWiseMult",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_eWiseMult(w, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, u_,
                                v_, d);
         }},
        {"apply",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, u_, d);
         }},
        {"select",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_select(w, GrB_NULL, GrB_NULL, GrB_VALUEGT_FP64, u_,
                             0.0, d);
         }},
        {"assign",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_assign(w, GrB_NULL, GrB_NULL, u_, GrB_ALL, kN, d);
         }},
        {"extract",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_extract(w, GrB_NULL, GrB_NULL, u_, GrB_ALL, kN, d);
         }},
        {"extract_col",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_extract(w, GrB_NULL, GrB_NULL, a_, GrB_ALL, kN, 2, d);
         }},
        {"reduce",
         [&](GrB_Vector w, GrB_Descriptor d) {
           return GrB_reduce(w, GrB_NULL, GrB_NULL, GrB_PLUS_MONOID_FP64, a_,
                             d);
         }},
    };
  }

  ref::Mat ra_, rb_;
  ref::Vec ru_, rv_;
  GrB_Matrix a_ = nullptr, b_ = nullptr, k1_ = nullptr, k2_ = nullptr;
  GrB_Vector u_ = nullptr, v_ = nullptr;
};

TEST_F(NullMaskComplementTest, MatrixOutputsMatchReferenceWriteback) {
  const ref::Mat filled = testutil::random_mat(kN, kN, 0.4, 21);
  const ref::Mat empty(kN, kN);
  for (const MatrixCase& op : matrix_cases()) {
    for (GrB_Descriptor d : {GrB_DESC_C, GrB_DESC_RC}) {
      for (const ref::Mat* c0 : {&filled, &empty}) {
        SCOPED_TRACE(op.name + (d == GrB_DESC_RC ? " RC" : " C") +
                     (c0 == &empty ? " empty" : " filled"));
        GrB_Matrix c = testutil::make_matrix(*c0);
        ASSERT_EQ(op.run(c, d), GrB_SUCCESS);
        const ref::Mat want =
            ref::writeback(*c0, ref::Mat(kN, kN), nullptr, null_comp_spec(d));
        EXPECT_TRUE(testutil::mats_equal(want, testutil::to_ref(c)));
        GrB_free(&c);
      }
    }
  }
}

TEST_F(NullMaskComplementTest, VectorOutputsMatchReferenceWriteback) {
  const ref::Vec filled = testutil::random_vec(kN, 0.5, 22);
  const ref::Vec empty(kN);
  for (const VectorCase& op : vector_cases()) {
    for (GrB_Descriptor d : {GrB_DESC_C, GrB_DESC_RC}) {
      for (const ref::Vec* w0 : {&filled, &empty}) {
        SCOPED_TRACE(op.name + (d == GrB_DESC_RC ? " RC" : " C") +
                     (w0 == &empty ? " empty" : " filled"));
        GrB_Vector w = testutil::make_vector(*w0);
        ASSERT_EQ(op.run(w, d), GrB_SUCCESS);
        const ref::Vec want =
            ref::writeback(*w0, ref::Vec(kN), nullptr, null_comp_spec(d));
        EXPECT_TRUE(testutil::vecs_equal(want, testutil::to_ref(w)));
        GrB_free(&w);
      }
    }
  }
}

}  // namespace
