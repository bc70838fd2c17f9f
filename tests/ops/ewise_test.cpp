// eWiseAdd / eWiseMult vs. the dense reference, swept over every
// combination of {mask kind} x {accum} x {replace} via TEST_P.
#include <gtest/gtest.h>

#include "tests/grb_test_util.hpp"

namespace {

using testutil::fn_max;
using testutil::fn_min;
using testutil::fn_plus;
using testutil::fn_times;

struct WritebackCase {
  bool have_mask;
  bool structure;
  bool comp;
  bool replace;
  bool accum;
};

// All 2*2*2*2 mask/accum/replace combinations (mask flags only matter
// when a mask is present, so 16 + the 2 no-mask accum cases suffice; the
// redundant ones are cheap and kept for clarity).
std::vector<WritebackCase> all_cases() {
  std::vector<WritebackCase> cases;
  for (int have_mask = 0; have_mask < 2; ++have_mask)
    for (int structure = 0; structure < 2; ++structure)
      for (int comp = 0; comp < 2; ++comp)
        for (int replace = 0; replace < 2; ++replace)
          for (int accum = 0; accum < 2; ++accum)
            cases.push_back({have_mask != 0, structure != 0, comp != 0,
                             replace != 0, accum != 0});
  return cases;
}

GrB_Descriptor make_desc(const WritebackCase& c) {
  unsigned bits = (c.replace ? 1u : 0u) | (c.comp ? 2u : 0u) |
                  (c.structure ? 4u : 0u);
  return bits == 0 ? GrB_NULL : grb::predefined_descriptor(bits);
}

ref::Spec make_spec(const WritebackCase& c) {
  ref::Spec s;
  s.have_mask = c.have_mask;
  s.structure = c.structure;
  s.comp = c.comp;
  s.replace = c.replace;
  if (c.accum) s.accum = testutil::fn_plus;
  return s;
}

class EwiseSweep : public ::testing::TestWithParam<WritebackCase> {};

// A mask whose values include explicit zeros (so structure vs. value
// masking differ).
ref::Vec mask_vec(GrB_Index n, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Vec m(n);
  for (auto& c : m.cells) {
    double r = rng.uniform();
    if (r < 0.4) {
      c = 1.0;
    } else if (r < 0.6) {
      c = 0.0;  // present but falsy
    }
  }
  return m;
}

ref::Mat mask_mat(GrB_Index nr, GrB_Index nc, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells) {
    double r = rng.uniform();
    if (r < 0.4) {
      c = 1.0;
    } else if (r < 0.6) {
      c = 0.0;
    }
  }
  return m;
}

TEST_P(EwiseSweep, VectorAddAndMult) {
  const WritebackCase c = GetParam();
  const GrB_Index n = 29;
  ref::Vec ru = testutil::random_vec(n, 0.5, 101);
  ref::Vec rv = testutil::random_vec(n, 0.5, 202);
  ref::Vec rw = testutil::random_vec(n, 0.3, 303);
  ref::Vec rm = mask_vec(n, 404);
  ref::Spec spec = make_spec(c);

  for (bool add : {true, false}) {
    GrB_Vector u = testutil::make_vector(ru);
    GrB_Vector v = testutil::make_vector(rv);
    GrB_Vector w = testutil::make_vector(rw);
    GrB_Vector m = c.have_mask ? testutil::make_vector(rm) : GrB_NULL;
    GrB_BinaryOp accum = c.accum ? GrB_PLUS_FP64 : GrB_NULL;
    GrB_Info info =
        add ? GrB_eWiseAdd(w, m, accum, GrB_TIMES_FP64, u, v, make_desc(c))
            : GrB_eWiseMult(w, m, accum, GrB_TIMES_FP64, u, v,
                            make_desc(c));
    ASSERT_EQ(info, GrB_SUCCESS);
    ref::Vec t = add ? ref::ewise_add(ru, rv, fn_times)
                     : ref::ewise_mult(ru, rv, fn_times);
    ref::Vec want =
        ref::writeback(rw, t, c.have_mask ? &rm : nullptr, spec);
    EXPECT_VECTOR_EQ(w, want);
    GrB_free(&u);
    GrB_free(&v);
    GrB_free(&w);
    if (m != GrB_NULL) GrB_free(&m);
  }
}

TEST_P(EwiseSweep, MatrixAddAndMult) {
  const WritebackCase c = GetParam();
  const GrB_Index nr = 13, nc = 17;
  ref::Mat ra = testutil::random_mat(nr, nc, 0.4, 111);
  ref::Mat rb = testutil::random_mat(nr, nc, 0.4, 222);
  ref::Mat rc = testutil::random_mat(nr, nc, 0.25, 333);
  ref::Mat rm = mask_mat(nr, nc, 444);
  ref::Spec spec = make_spec(c);

  for (bool add : {true, false}) {
    GrB_Matrix a = testutil::make_matrix(ra);
    GrB_Matrix b = testutil::make_matrix(rb);
    GrB_Matrix out = testutil::make_matrix(rc);
    GrB_Matrix m = c.have_mask ? testutil::make_matrix(rm) : GrB_NULL;
    GrB_BinaryOp accum = c.accum ? GrB_PLUS_FP64 : GrB_NULL;
    GrB_Info info =
        add ? GrB_eWiseAdd(out, m, accum, GrB_MIN_FP64, a, b, make_desc(c))
            : GrB_eWiseMult(out, m, accum, GrB_MIN_FP64, a, b,
                            make_desc(c));
    ASSERT_EQ(info, GrB_SUCCESS);
    ref::Mat t = add ? ref::ewise_add(ra, rb, fn_min)
                     : ref::ewise_mult(ra, rb, fn_min);
    ref::Mat want =
        ref::writeback(rc, t, c.have_mask ? &rm : nullptr, spec);
    EXPECT_MATRIX_EQ(out, want);
    GrB_free(&a);
    GrB_free(&b);
    GrB_free(&out);
    if (m != GrB_NULL) GrB_free(&m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWritebackModes, EwiseSweep, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<WritebackCase>& info) {
      const WritebackCase& c = info.param;
      std::string name;
      name += c.have_mask ? "Mask" : "NoMask";
      if (c.have_mask) {
        name += c.structure ? "Struct" : "Value";
        name += c.comp ? "Comp" : "";
      } else {
        name += c.structure ? "S" : "";  // keep names unique
        name += c.comp ? "C" : "";
      }
      name += c.replace ? "Replace" : "Merge";
      name += c.accum ? "Accum" : "NoAccum";
      return name;
    });

TEST(EwiseTest, MatrixTransposedInputs) {
  ref::Mat ra = testutil::random_mat(9, 12, 0.4, 11);
  ref::Mat rb = testutil::random_mat(12, 9, 0.4, 22);
  ref::Mat rc(9, 12);
  GrB_Matrix a = testutil::make_matrix(ra);
  GrB_Matrix b = testutil::make_matrix(rb);
  GrB_Matrix out = testutil::make_matrix(rc);
  // out = A + B' (T1).
  ASSERT_EQ(GrB_eWiseAdd(out, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, a, b,
                         GrB_DESC_T1),
            GrB_SUCCESS);
  ref::Mat want = ref::ewise_add(ra, ref::transpose(rb), fn_plus);
  EXPECT_MATRIX_EQ(out, want);
  // out2 = A' + B (T0), shape flips.
  ref::Mat rc2(12, 9);
  GrB_Matrix out2 = testutil::make_matrix(rc2);
  ASSERT_EQ(GrB_eWiseAdd(out2, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, a, b,
                         GrB_DESC_T0),
            GrB_SUCCESS);
  ref::Mat want2 = ref::ewise_add(ref::transpose(ra), rb, fn_plus);
  EXPECT_MATRIX_EQ(out2, want2);
  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&out);
  GrB_free(&out2);
}

TEST(EwiseTest, MonoidAndSemiringVariants) {
  ref::Vec ru = testutil::random_vec(15, 0.6, 5);
  ref::Vec rv = testutil::random_vec(15, 0.6, 6);
  GrB_Vector u = testutil::make_vector(ru);
  GrB_Vector v = testutil::make_vector(rv);
  GrB_Vector w1 = nullptr, w2 = nullptr, w3 = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w1, GrB_FP64, 15), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w2, GrB_FP64, 15), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w3, GrB_FP64, 15), GrB_SUCCESS);
  ASSERT_EQ(GrB_eWiseAdd(w1, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, v,
                         GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_eWiseAdd(w2, GrB_NULL, GrB_NULL, GrB_PLUS_MONOID_FP64, u, v,
                         GrB_NULL),
            GrB_SUCCESS);
  // Semiring variant uses the MULTIPLY op (TIMES for PLUS_TIMES).
  ASSERT_EQ(GrB_eWiseAdd(w3, GrB_NULL, GrB_NULL,
                         GrB_PLUS_TIMES_SEMIRING_FP64, u, v, GrB_NULL),
            GrB_SUCCESS);
  ref::Vec want_plus = ref::ewise_add(ru, rv, fn_plus);
  ref::Vec want_times = ref::ewise_add(ru, rv, fn_times);
  EXPECT_VECTOR_EQ(w1, want_plus);
  EXPECT_VECTOR_EQ(w2, want_plus);
  EXPECT_VECTOR_EQ(w3, want_times);
  GrB_free(&u);
  GrB_free(&v);
  GrB_free(&w1);
  GrB_free(&w2);
  GrB_free(&w3);
}

TEST(EwiseTest, TypecastAcrossDomains) {
  // INT32 inputs, FP64 op, INT8 output: values cast on the way in/out.
  GrB_Vector u = nullptr, v = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_INT32, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&v, GrB_INT32, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_INT8, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(u, 100, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 50, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, v,
                         GrB_NULL),
            GrB_SUCCESS);
  int32_t out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, w, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 127);  // FP64 150 saturates to INT8's max
  GrB_free(&u);
  GrB_free(&v);
  GrB_free(&w);
}

TEST(EwiseTest, DimensionAndDomainErrors) {
  GrB_Vector u = nullptr, v = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 4), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, v,
                         GrB_NULL),
            GrB_DIMENSION_MISMATCH);
  GrB_Type udt = nullptr;
  ASSERT_EQ(GrB_Type_new(&udt, 8), GrB_SUCCESS);
  GrB_Vector x = nullptr;
  ASSERT_EQ(GrB_Vector_new(&x, udt, 4), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, x,
                         GrB_NULL),
            GrB_DOMAIN_MISMATCH);
  EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL,
                         static_cast<GrB_BinaryOp>(nullptr), u, u, GrB_NULL),
            GrB_NULL_POINTER);
  GrB_free(&u);
  GrB_free(&v);
  GrB_free(&w);
  GrB_free(&x);
  GrB_free(&udt);
}

}  // namespace
