// Storage formats (DESIGN.md §15): a matrix is always CSR and a vector a
// sorted coordinate list.  The GxB format options stay source-compatible:
// every accepted value is a no-op, the getters report CSR, and
// out-of-range values are rejected.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "tests/grb_test_util.hpp"
#include "util/generator.hpp"

namespace {

using testutil::random_mat;
using testutil::random_vec;

GxB_Format matrix_format(GrB_Matrix a) {
  GxB_Format f = GxB_FORMAT_AUTO;
  EXPECT_EQ(GxB_Matrix_Option_get(a, GxB_FORMAT, &f), GrB_SUCCESS);
  return f;
}

GxB_Format vector_format(GrB_Vector v) {
  GxB_Format f = GxB_FORMAT_AUTO;
  EXPECT_EQ(GxB_Vector_Option_get(v, GxB_FORMAT, &f), GrB_SUCCESS);
  return f;
}

// A matrix's stored tuples, compared bitwise (values by memcmp).
struct MatTuples {
  std::vector<GrB_Index> rows, cols;
  std::vector<double> vals;
  bool operator==(const MatTuples& o) const {
    return rows == o.rows && cols == o.cols &&
           vals.size() == o.vals.size() &&
           std::memcmp(vals.data(), o.vals.data(),
                       vals.size() * sizeof(double)) == 0;
  }
};

MatTuples tuples_of(GrB_Matrix a) {
  MatTuples t;
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  t.rows.resize(nv);
  t.cols.resize(nv);
  t.vals.resize(nv);
  EXPECT_EQ(GrB_Matrix_extractTuples(t.rows.data(), t.cols.data(),
                                     t.vals.data(), &nv, a),
            GrB_SUCCESS);
  EXPECT_EQ(nv, t.rows.size());
  return t;
}

// Every accepted value succeeds on the global and the per-matrix setter,
// both getters keep reporting CSR, the tuples stay bitwise unchanged,
// and an out-of-range value is rejected by both setters.
TEST(FormatTest, MatrixOptionsAreAcceptedNoOps) {
  ref::Mat rm(12, 9);
  grb::Prng rng(157);
  for (auto& c : rm.cells)
    if (rng.uniform() < 0.5) c = rng.uniform() * 1e3 - 500.0;
  GrB_Matrix a = testutil::make_matrix(rm);
  ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  const MatTuples before = tuples_of(a);
  ASSERT_FALSE(before.rows.empty());
  GxB_Format got = GxB_FORMAT_AUTO;
  for (GxB_Format f : {GxB_FORMAT_CSR, GxB_FORMAT_HYPER, GxB_FORMAT_BITMAP,
                       GxB_FORMAT_DENSE, GxB_FORMAT_AUTO}) {
    ASSERT_EQ(GxB_Format_set(f), GrB_SUCCESS);
    ASSERT_EQ(GxB_Format_get(&got), GrB_SUCCESS);
    EXPECT_EQ(got, GxB_FORMAT_CSR);
    ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, f), GrB_SUCCESS);
    EXPECT_EQ(matrix_format(a), GxB_FORMAT_CSR);
    EXPECT_TRUE(tuples_of(a) == before);
  }
  // A matrix published after the settings is CSR too.
  GrB_Matrix b = testutil::make_matrix(random_mat(8, 8, 1.1, 152));
  ASSERT_EQ(GrB_wait(b, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(matrix_format(b), GxB_FORMAT_CSR);

  EXPECT_EQ(GxB_Format_set(static_cast<GxB_Format>(99)), GrB_INVALID_VALUE);
  EXPECT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT,
                                  static_cast<GxB_Format>(99)),
            GrB_INVALID_VALUE);
  EXPECT_EQ(GxB_Format_get(&got), GrB_SUCCESS);
  EXPECT_EQ(got, GxB_FORMAT_CSR);
  EXPECT_TRUE(tuples_of(a) == before);
  GrB_free(&a);
  GrB_free(&b);
}

// A matrix is always CSR: every per-matrix pin succeeds, the getter
// keeps reporting CSR, and the contents survive every pin unchanged.
TEST(FormatTest, MatrixPinRoundTripsEveryFormat) {
  ref::Mat rm = random_mat(20, 16, 0.3, 151);
  GrB_Matrix a = testutil::make_matrix(rm);
  ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(matrix_format(a), GxB_FORMAT_CSR);
  const MatTuples before = tuples_of(a);
  ASSERT_FALSE(before.rows.empty());

  for (GxB_Format f : {GxB_FORMAT_HYPER, GxB_FORMAT_BITMAP, GxB_FORMAT_CSR,
                       GxB_FORMAT_DENSE, GxB_FORMAT_HYPER,
                       GxB_FORMAT_AUTO}) {
    ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, f), GrB_SUCCESS);
    EXPECT_EQ(matrix_format(a), GxB_FORMAT_CSR);
    EXPECT_MATRIX_EQ(a, rm);
    EXPECT_TRUE(tuples_of(a) == before);
  }
  GrB_free(&a);
}

// CSR holds a full block and one with holes alike, so the DENSE pin is
// an accepted no-op on both: it reports CSR and keeps the contents.
TEST(FormatTest, MatrixDensePinNeedsFullBlock) {
  ref::Mat full = random_mat(8, 8, 1.1, 152);
  ASSERT_EQ(full.nvals(), 64u);
  GrB_Matrix a = testutil::make_matrix(full);
  ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, GxB_FORMAT_DENSE),
            GrB_SUCCESS);
  EXPECT_EQ(matrix_format(a), GxB_FORMAT_CSR);
  EXPECT_MATRIX_EQ(a, full);
  GrB_free(&a);

  ref::Mat part = random_mat(8, 8, 0.5, 153);
  ASSERT_LT(part.nvals(), 64u);
  GrB_Matrix b = testutil::make_matrix(part);
  ASSERT_EQ(GxB_Matrix_Option_set(b, GxB_FORMAT, GxB_FORMAT_DENSE),
            GrB_SUCCESS);
  EXPECT_EQ(matrix_format(b), GxB_FORMAT_CSR);
  EXPECT_MATRIX_EQ(b, part);
  GrB_free(&b);
}

TEST(FormatTest, ExtractElementEveryMatrixFormat) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 6, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 2.5, 1, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, -4.0, 4, 0), GrB_SUCCESS);
  for (GxB_Format f : {GxB_FORMAT_CSR, GxB_FORMAT_HYPER, GxB_FORMAT_BITMAP,
                       GxB_FORMAT_DENSE}) {
    ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, f), GrB_SUCCESS);
    double out = 0.0;
    EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 1, 3), GrB_SUCCESS);
    EXPECT_EQ(out, 2.5);
    EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 4, 0), GrB_SUCCESS);
    EXPECT_EQ(out, -4.0);
    EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 0), GrB_NO_VALUE);
    GrB_Index nv = 0;
    EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
    EXPECT_EQ(nv, 2u);
  }
  GrB_free(&a);
}

// A vector's stored tuples, compared bitwise (values by memcmp).
struct Tuples {
  std::vector<GrB_Index> ind;
  std::vector<double> vals;
  bool operator==(const Tuples& o) const {
    return ind == o.ind && vals.size() == o.vals.size() &&
           std::memcmp(vals.data(), o.vals.data(),
                       vals.size() * sizeof(double)) == 0;
  }
};

Tuples tuples_of(GrB_Vector v) {
  Tuples t;
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Vector_nvals(&nv, v), GrB_SUCCESS);
  t.ind.resize(nv);
  t.vals.resize(nv);
  EXPECT_EQ(GrB_Vector_extractTuples(t.ind.data(), t.vals.data(), &nv, v),
            GrB_SUCCESS);
  EXPECT_EQ(nv, t.ind.size());
  return t;
}

// Vectors have one layout: every accepted pin succeeds, reports CSR, and
// leaves the stored tuples bitwise unchanged.
TEST(FormatTest, VectorPinRoundTripsEveryFormat) {
  GrB_Vector u = testutil::make_vector(random_vec(40, 0.4, 154));
  const Tuples before = tuples_of(u);
  ASSERT_FALSE(before.ind.empty());
  EXPECT_EQ(vector_format(u), GxB_FORMAT_CSR);
  for (GxB_Format f : {GxB_FORMAT_BITMAP, GxB_FORMAT_DENSE, GxB_FORMAT_CSR,
                       GxB_FORMAT_AUTO}) {
    ASSERT_EQ(GxB_Vector_Option_set(u, GxB_FORMAT, f), GrB_SUCCESS);
    EXPECT_EQ(vector_format(u), GxB_FORMAT_CSR);
    EXPECT_TRUE(tuples_of(u) == before);
  }
  GrB_free(&u);
}

// PageRank's vectors are full, the case a density-driven format would
// store dense.  The removed format counters stay out of the stats
// surface, and the ranks are bitwise equal whatever format value is set.
TEST(FormatTest, PagerankVectorsNeverSwitchFormat) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&a, 11, 8, grb::RmatParams{}, nullptr),
            grb::Info::kSuccess);
  auto ranks = [&] {
    GrB_Vector r = nullptr;
    EXPECT_EQ(grb_algo::pagerank(&r, a, 0.85, 20, 0.0), GrB_SUCCESS);
    Tuples t = tuples_of(r);
    GrB_free(&r);
    return t;
  };
  ASSERT_EQ(GxB_Format_set(GxB_FORMAT_AUTO), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  const Tuples by_auto = ranks();
  for (const char* gone : {"format.switches", "format.csr_conversions"}) {
    uint64_t v = 0;
    EXPECT_EQ(GxB_Stats_get(gone, &v), GrB_NO_VALUE) << gone;
  }
  EXPECT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
  EXPECT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  EXPECT_EQ(by_auto.ind.size(), GrB_Index{2048});

  for (GxB_Format f : {GxB_FORMAT_DENSE, GxB_FORMAT_CSR}) {
    ASSERT_EQ(GxB_Format_set(f), GrB_SUCCESS);
    EXPECT_TRUE(ranks() == by_auto);
  }
  ASSERT_EQ(GxB_Format_set(GxB_FORMAT_AUTO), GrB_SUCCESS);
  GrB_free(&a);
}

TEST(FormatTest, OptionErrorPaths) {
  GrB_Matrix a = nullptr;
  GrB_Vector u = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 2, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, 2), GrB_SUCCESS);
  GxB_Format f = GxB_FORMAT_AUTO;
  EXPECT_EQ(GxB_Matrix_Option_set(nullptr, GxB_FORMAT, GxB_FORMAT_CSR),
            GrB_UNINITIALIZED_OBJECT);
  EXPECT_EQ(GxB_Matrix_Option_get(a, GxB_FORMAT, nullptr),
            GrB_NULL_POINTER);
  EXPECT_EQ(GxB_Matrix_Option_set(a, static_cast<GxB_Option_Field>(99),
                                  GxB_FORMAT_CSR),
            GrB_INVALID_VALUE);
  EXPECT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT,
                                  static_cast<GxB_Format>(99)),
            GrB_INVALID_VALUE);
  // Vectors have no hypersparse form.
  EXPECT_EQ(GxB_Vector_Option_set(u, GxB_FORMAT, GxB_FORMAT_HYPER),
            GrB_INVALID_VALUE);
  EXPECT_EQ(GxB_Vector_Option_get(u, GxB_FORMAT, &f), GrB_SUCCESS);
  EXPECT_EQ(f, GxB_FORMAT_CSR);
  GrB_free(&a);
  GrB_free(&u);
}

// The global setting no longer forces a format: every accepted value
// succeeds, GxB_Format_get reports CSR, a matrix published under any of
// them is CSR with its contents intact, and 99 is rejected.
TEST(FormatTest, GlobalPolicyForcesPublishedFormat) {
  ref::Mat rm = random_mat(10, 10, 0.4, 156);
  GxB_Format got = GxB_FORMAT_AUTO;
  for (GxB_Format f : {GxB_FORMAT_BITMAP, GxB_FORMAT_HYPER, GxB_FORMAT_DENSE,
                       GxB_FORMAT_CSR, GxB_FORMAT_AUTO}) {
    ASSERT_EQ(GxB_Format_set(f), GrB_SUCCESS);
    ASSERT_EQ(GxB_Format_get(&got), GrB_SUCCESS);
    EXPECT_EQ(got, GxB_FORMAT_CSR);
    GrB_Matrix a = testutil::make_matrix(rm);
    ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
    EXPECT_EQ(matrix_format(a), GxB_FORMAT_CSR);
    EXPECT_MATRIX_EQ(a, rm);
    GrB_free(&a);
  }
  EXPECT_EQ(GxB_Format_set(static_cast<GxB_Format>(99)), GrB_INVALID_VALUE);
  ASSERT_EQ(GxB_Format_get(&got), GrB_SUCCESS);
  EXPECT_EQ(got, GxB_FORMAT_CSR);
}

// The format a block gets at publish: with the cost model gone every
// shape it used to send elsewhere (full -> dense, three quarters full ->
// bitmap, rows confined to a sixteenth of a tall matrix -> hypersparse)
// is published CSR, as is a tiny block, and stores its tuples exactly.
TEST(FormatTest, CostModelChoices) {
  // An n x n block whose row r holds column j * stride for each
  // j < width that present(r, j) keeps.
  struct Shape {
    const char* name;
    GrB_Index n, width, stride;
    bool (*present)(GrB_Index r, GrB_Index j);
  };
  const Shape shapes[] = {
      {"full", 64, 64, 1, [](GrB_Index, GrB_Index) { return true; }},
      {"three-quarters", 64, 64, 1,
       [](GrB_Index r, GrB_Index j) { return (r * 64 + j) % 4 != 3; }},
      {"hypersparse", 8192, 4, 97,
       [](GrB_Index r, GrB_Index) { return r % 16 == 0; }},
      {"tiny", 10, 10, 1, [](GrB_Index r, GrB_Index j) { return r == j; }},
  };
  for (const Shape& sh : shapes) {
    MatTuples want;
    for (GrB_Index r = 0; r < sh.n; ++r) {
      for (GrB_Index j = 0; j < sh.width; ++j) {
        if (!sh.present(r, j)) continue;
        want.rows.push_back(r);
        want.cols.push_back(j * sh.stride);
        want.vals.push_back(static_cast<double>(want.vals.size()) * 0.37 -
                            11.0);
      }
    }
    GrB_Matrix a = nullptr;
    ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, sh.n, sh.n), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_build(a, want.rows.data(), want.cols.data(),
                               want.vals.data(), want.vals.size(), GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
    EXPECT_EQ(matrix_format(a), GxB_FORMAT_CSR) << sh.name;
    EXPECT_TRUE(tuples_of(a) == want) << sh.name;
    GrB_free(&a);
  }
}

// Pins convert nothing, so values come back bitwise after every one
// (checked by extractTuples equality on irrational-ish doubles).
TEST(FormatTest, ConversionRoundTripIsExact) {
  ref::Mat rm(12, 9);
  grb::Prng rng(157);
  for (auto& c : rm.cells)
    if (rng.uniform() < 0.5) c = rng.uniform() * 1e3 - 500.0;
  GrB_Matrix a = testutil::make_matrix(rm);
  const MatTuples before = tuples_of(a);
  ASSERT_FALSE(before.rows.empty());
  ref::Mat ref_before = testutil::to_ref(a);
  for (GxB_Format f : {GxB_FORMAT_BITMAP, GxB_FORMAT_HYPER,
                       GxB_FORMAT_BITMAP, GxB_FORMAT_CSR}) {
    ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, f), GrB_SUCCESS);
    EXPECT_TRUE(testutil::mats_equal(ref_before, testutil::to_ref(a)));
    EXPECT_TRUE(tuples_of(a) == before);
  }
  GrB_free(&a);
}

}  // namespace
