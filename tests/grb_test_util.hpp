// Shared test scaffolding: library lifecycle, conversions between
// GraphBLAS containers and the dense reference engine, comparisons, and
// deterministic random instance generation.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "tests/reference/dense_ref.hpp"
#include "util/prng.hpp"

namespace testutil {

// The library is initialized once per process in GrB_NONBLOCKING mode;
// tests that need blocking semantics home objects in a blocking context
// (mode is a per-context property).
class GrbEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  }
  void TearDown() override { ASSERT_EQ(GrB_finalize(), GrB_SUCCESS); }
};

// A per-process blocking context (never freed; GrB_finalize reclaims it).
inline GrB_Context blocking_context() {
  static GrB_Context ctx = [] {
    GrB_Context c = nullptr;
    EXPECT_EQ(GrB_Context_new(&c, GrB_BLOCKING, GrB_NULL, GrB_NULL),
              GrB_SUCCESS);
    return c;
  }();
  return ctx;
}

// ---- construction helpers ---------------------------------------------------

inline GrB_Matrix make_matrix(const ref::Mat& m,
                              GrB_Context ctx = GrB_NULL) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&a, GrB_FP64, m.nrows, m.ncols, ctx),
            GrB_SUCCESS);
  std::vector<GrB_Index> ri, ci;
  std::vector<double> vals;
  for (GrB_Index i = 0; i < m.nrows; ++i)
    for (GrB_Index j = 0; j < m.ncols; ++j)
      if (m.at(i, j)) {
        ri.push_back(i);
        ci.push_back(j);
        vals.push_back(*m.at(i, j));
      }
  EXPECT_EQ(GrB_Matrix_build(a, ri.data(), ci.data(), vals.data(),
                             ri.size(), GrB_NULL),
            GrB_SUCCESS);
  return a;
}

inline GrB_Vector make_vector(const ref::Vec& v,
                              GrB_Context ctx = GrB_NULL) {
  GrB_Vector u = nullptr;
  EXPECT_EQ(GrB_Vector_new(&u, GrB_FP64, v.n, ctx), GrB_SUCCESS);
  std::vector<GrB_Index> idx;
  std::vector<double> vals;
  for (GrB_Index i = 0; i < v.n; ++i)
    if (v.at(i)) {
      idx.push_back(i);
      vals.push_back(*v.at(i));
    }
  EXPECT_EQ(GrB_Vector_build(u, idx.data(), vals.data(), idx.size(),
                             GrB_NULL),
            GrB_SUCCESS);
  return u;
}

inline ref::Mat to_ref(GrB_Matrix a) {
  GrB_Index nr, nc, nv;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&nc, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  std::vector<GrB_Index> ri(nv), ci(nv);
  std::vector<double> vals(nv);
  GrB_Index got = nv;
  EXPECT_EQ(
      GrB_Matrix_extractTuples(ri.data(), ci.data(), vals.data(), &got, a),
      GrB_SUCCESS);
  ref::Mat m(nr, nc);
  for (GrB_Index k = 0; k < got; ++k) m.at(ri[k], ci[k]) = vals[k];
  return m;
}

inline ref::Vec to_ref(GrB_Vector u) {
  GrB_Index n, nv;
  EXPECT_EQ(GrB_Vector_size(&n, u), GrB_SUCCESS);
  EXPECT_EQ(GrB_Vector_nvals(&nv, u), GrB_SUCCESS);
  std::vector<GrB_Index> idx(nv);
  std::vector<double> vals(nv);
  GrB_Index got = nv;
  EXPECT_EQ(GrB_Vector_extractTuples(idx.data(), vals.data(), &got, u),
            GrB_SUCCESS);
  ref::Vec v(n);
  for (GrB_Index k = 0; k < got; ++k) v.at(idx[k]) = vals[k];
  return v;
}

// ---- comparisons -------------------------------------------------------------

inline ::testing::AssertionResult mats_equal(const ref::Mat& want,
                                             const ref::Mat& got) {
  if (want.nrows != got.nrows || want.ncols != got.ncols)
    return ::testing::AssertionFailure()
           << "shape " << got.nrows << "x" << got.ncols << " != "
           << want.nrows << "x" << want.ncols;
  for (GrB_Index i = 0; i < want.nrows; ++i) {
    for (GrB_Index j = 0; j < want.ncols; ++j) {
      const ref::Cell& w = want.at(i, j);
      const ref::Cell& g = got.at(i, j);
      if (w.has_value() != g.has_value())
        return ::testing::AssertionFailure()
               << "(" << i << "," << j << ") presence "
               << g.has_value() << " != " << w.has_value();
      if (w && *w != *g)
        return ::testing::AssertionFailure()
               << "(" << i << "," << j << ") " << *g << " != " << *w;
    }
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult vecs_equal(const ref::Vec& want,
                                             const ref::Vec& got) {
  if (want.n != got.n)
    return ::testing::AssertionFailure()
           << "size " << got.n << " != " << want.n;
  for (GrB_Index i = 0; i < want.n; ++i) {
    const ref::Cell& w = want.at(i);
    const ref::Cell& g = got.at(i);
    if (w.has_value() != g.has_value())
      return ::testing::AssertionFailure()
             << "(" << i << ") presence " << g.has_value()
             << " != " << w.has_value();
    if (w && *w != *g)
      return ::testing::AssertionFailure()
             << "(" << i << ") " << *g << " != " << *w;
  }
  return ::testing::AssertionSuccess();
}

#define EXPECT_MATRIX_EQ(grb_matrix, want) \
  EXPECT_TRUE(::testutil::mats_equal((want), ::testutil::to_ref(grb_matrix)))
#define EXPECT_VECTOR_EQ(grb_vector, want) \
  EXPECT_TRUE(::testutil::vecs_equal((want), ::testutil::to_ref(grb_vector)))

// ---- random instances ---------------------------------------------------------

// Random matrix with integer-valued doubles in [1, 9] (exact arithmetic
// under +,*,min,max regardless of evaluation order).
inline ref::Mat random_mat(GrB_Index nrows, GrB_Index ncols, double density,
                           uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nrows, ncols);
  for (auto& c : m.cells)
    if (rng.uniform() < density)
      c = static_cast<double>(1 + rng.below(9));
  return m;
}

inline ref::Vec random_vec(GrB_Index n, double density, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Vec v(n);
  for (auto& c : v.cells)
    if (rng.uniform() < density)
      c = static_cast<double>(1 + rng.below(9));
  return v;
}

// ---- telemetry ----------------------------------------------------------------

// Sum of the "chunks" counters of every pool in the GxB_Stats_json
// report: how many parallel_for chunks ran since the last stats reset.
inline uint64_t pool_chunks() {
  std::vector<char> buf(1 << 20);
  GrB_Index len = buf.size();
  EXPECT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  const std::string json(buf.data());
  const size_t begin = json.find("\"pools\":{");
  const size_t end = json.find("\"contexts\":", begin);
  EXPECT_NE(begin, std::string::npos);
  uint64_t total = 0;
  const std::string key = "\"chunks\":";
  for (size_t at = json.find(key, begin); at < end;
       at = json.find(key, at + 1)) {
    total += std::stoull(json.substr(at + key.size()));
  }
  return total;
}

// Common binary functions for the reference engine.
inline double fn_plus(double a, double b) { return a + b; }
inline double fn_times(double a, double b) { return a * b; }
inline double fn_min(double a, double b) { return a < b ? a : b; }
inline double fn_max(double a, double b) { return a > b ? a : b; }
inline double fn_first(double a, double) { return a; }
inline double fn_second(double, double b) { return b; }
inline double fn_minus(double a, double b) { return a - b; }

}  // namespace testutil
