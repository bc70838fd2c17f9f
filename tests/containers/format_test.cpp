// Storage formats (DESIGN.md §15): per-object matrix pins via
// GxB_Matrix_Option_set, the vector pins (one layout, so each is a
// no-op), the global GxB_Format policy, format introspection,
// conversion round-trips, format-aware element access, and the cost
// model's direct choices.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "containers/format.hpp"
#include "tests/grb_test_util.hpp"
#include "util/generator.hpp"

namespace {

using testutil::random_mat;
using testutil::random_vec;

// Restores the global policy (tests here force it).
struct PolicyGuard {
  grb::FormatPolicy saved;
  PolicyGuard() : saved(grb::format_policy()) {}
  ~PolicyGuard() { grb::set_format_policy(saved); }
};

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

TEST(FormatTest, MatrixPinRoundTripsEveryFormat) {
  PolicyGuard guard;  // env-independent: assert the auto policy
  grb::set_format_policy(grb::FormatPolicy::kAuto);
  ref::Mat rm = random_mat(20, 16, 0.3, 151);
  GrB_Matrix a = testutil::make_matrix(rm);
  ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(matrix_format(a), GxB_FORMAT_CSR);  // small blocks stay csr

  for (GxB_Format f : {GxB_FORMAT_HYPER, GxB_FORMAT_BITMAP,
                       GxB_FORMAT_CSR, GxB_FORMAT_HYPER}) {
    ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, f), GrB_SUCCESS);
    EXPECT_EQ(matrix_format(a), f);
    EXPECT_MATRIX_EQ(a, rm);  // contents survive every conversion
  }
  // Unpin: the cost model re-adapts (small block keeps current format).
  ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, GxB_FORMAT_AUTO),
            GrB_SUCCESS);
  EXPECT_MATRIX_EQ(a, rm);
  GrB_free(&a);
}

TEST(FormatTest, MatrixDensePinNeedsFullBlock) {
  // Full block: dense sticks.
  ref::Mat full = random_mat(8, 8, 1.1, 152);
  GrB_Matrix a = testutil::make_matrix(full);
  ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, GxB_FORMAT_DENSE),
            GrB_SUCCESS);
  EXPECT_EQ(matrix_format(a), GxB_FORMAT_DENSE);
  EXPECT_MATRIX_EQ(a, full);
  GrB_free(&a);

  // Partial block: dense cannot represent a hole; degrades to bitmap.
  ref::Mat part = random_mat(8, 8, 0.5, 153);
  ASSERT_LT(part.nvals(), 64u);
  GrB_Matrix b = testutil::make_matrix(part);
  ASSERT_EQ(GxB_Matrix_Option_set(b, GxB_FORMAT, GxB_FORMAT_DENSE),
            GrB_SUCCESS);
  EXPECT_EQ(matrix_format(b), GxB_FORMAT_BITMAP);
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

// PageRank's vectors are full, the case a density-driven vector format
// would store dense.  With one vector layout no publish or read of them
// converts (n = 2048 is past any small-block work gate), and the ranks
// match a forced-CSR run bitwise.
TEST(FormatTest, PagerankVectorsNeverSwitchFormat) {
  PolicyGuard guard;
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
  auto counter = [](const char* name) {
    uint64_t v = ~uint64_t{0};
    EXPECT_EQ(GxB_Stats_get(name, &v), GrB_SUCCESS) << name;
    return v;
  };

  ASSERT_EQ(GxB_Format_set(GxB_FORMAT_AUTO), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  const Tuples by_auto = ranks();
  EXPECT_EQ(counter("format.switches"), 0u);
  EXPECT_EQ(counter("format.csr_conversions"), 0u);
  EXPECT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
  EXPECT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  EXPECT_EQ(by_auto.ind.size(), GrB_Index{2048});

  ASSERT_EQ(GxB_Format_set(GxB_FORMAT_CSR), GrB_SUCCESS);
  EXPECT_TRUE(ranks() == by_auto);
  GrB_free(&a);
}

TEST(FormatTest, GlobalPolicyForcesPublishedFormat) {
  PolicyGuard guard;
  GxB_Format got = GxB_FORMAT_AUTO;
  ASSERT_EQ(GxB_Format_set(GxB_FORMAT_BITMAP), GrB_SUCCESS);
  ASSERT_EQ(GxB_Format_get(&got), GrB_SUCCESS);
  EXPECT_EQ(got, GxB_FORMAT_BITMAP);

  ref::Mat rm = random_mat(10, 10, 0.4, 156);
  GrB_Matrix a = testutil::make_matrix(rm);
  ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(matrix_format(a), GxB_FORMAT_BITMAP);
  EXPECT_MATRIX_EQ(a, rm);
  GrB_free(&a);

  ASSERT_EQ(GxB_Format_set(GxB_FORMAT_AUTO), GrB_SUCCESS);
  ASSERT_EQ(GxB_Format_get(&got), GrB_SUCCESS);
  EXPECT_EQ(got, GxB_FORMAT_AUTO);
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

// Direct cost-model checks on hand-built blocks: the thresholds the
// auto policy promises (DESIGN.md §15).
TEST(FormatTest, CostModelChoices) {
  // Full 64x64 (nnz = 4096 >= min work): dense.
  grb::MatrixData full(GrB_FP64, 64, 64);
  full.vals.resize(64 * 64);
  full.col.resize(64 * 64);
  for (grb::Index r = 0; r < 64; ++r) {
    for (grb::Index j = 0; j < 64; ++j) full.col[r * 64 + j] = j;
    full.ptr[r + 1] = (r + 1) * 64;
  }
  EXPECT_EQ(grb::choose_matrix_format(full, 0), grb::MatFormat::kDense);

  // Three of four cells present: memory-smaller as bitmap than CSR.
  grb::MatrixData most(GrB_FP64, 64, 64);
  for (grb::Index r = 0; r < 64; ++r) {
    for (grb::Index j = 0; j < 64; ++j) {
      if ((r * 64 + j) % 4 == 3) continue;
      most.col.push_back(j);
    }
    most.ptr[r + 1] = most.col.size();
  }
  most.vals.resize(most.col.size());
  EXPECT_EQ(grb::choose_matrix_format(most, 0), grb::MatFormat::kBitmap);

  // 8192 rows, entries confined to 512 of them: hypersparse.
  grb::MatrixData hyper(GrB_FP64, 8192, 8192);
  for (grb::Index r = 0; r < 8192; ++r) {
    if (r % 16 == 0) {
      for (grb::Index j = 0; j < 4; ++j) hyper.col.push_back(j * 97);
    }
    hyper.ptr[r + 1] = hyper.col.size();
  }
  hyper.vals.resize(hyper.col.size());
  EXPECT_EQ(grb::choose_matrix_format(hyper, 0), grb::MatFormat::kHyper);

  // Tiny block (below min work): keeps its current format.
  grb::MatrixData tiny(GrB_FP64, 10, 10);
  EXPECT_EQ(grb::choose_matrix_format(tiny, 0), grb::MatFormat::kCsr);
}

// Conversions are exact: values round-trip bitwise through every format
// (checked via extractTuples equality on irrational-ish doubles).
TEST(FormatTest, ConversionRoundTripIsExact) {
  ref::Mat rm(12, 9);
  grb::Prng rng(157);
  for (auto& c : rm.cells)
    if (rng.uniform() < 0.5) c = rng.uniform() * 1e3 - 500.0;
  GrB_Matrix a = testutil::make_matrix(rm);
  ref::Mat before = testutil::to_ref(a);
  for (GxB_Format f : {GxB_FORMAT_BITMAP, GxB_FORMAT_HYPER,
                       GxB_FORMAT_BITMAP, GxB_FORMAT_CSR}) {
    ASSERT_EQ(GxB_Matrix_Option_set(a, GxB_FORMAT, f), GrB_SUCCESS);
    EXPECT_TRUE(testutil::mats_equal(before, testutil::to_ref(a)));
  }
  GrB_free(&a);
}

}  // namespace
