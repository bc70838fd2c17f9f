// Differential oracle for polymorphic storage formats (DESIGN.md §15).
//
// Every storage format promises bitwise-identical results: conversions
// copy value bytes verbatim and the format-aware fast paths (hyper mxv,
// dense×dense eWise) fold in exactly the canonical kernel's order.
// This harness fixes random real-valued inputs — where any fold-order
// change would show — forces each GRB_FORMAT policy in turn, and
// requires exact equality of mxm / mxv / vxm / eWiseAdd / eWiseMult
// against the forced-CSR run, serially and with 4 threads.
#include <gtest/gtest.h>

#include <string>

#include "containers/format.hpp"
#include "core/global.hpp"
#include "tests/grb_test_util.hpp"
#include "util/prng.hpp"

namespace {

struct ThresholdGuard {
  size_t saved;
  ThresholdGuard() : saved(grb::parallel_threshold()) {
    grb::set_parallel_threshold(1);
  }
  ~ThresholdGuard() { grb::set_parallel_threshold(saved); }
};

struct PolicyGuard {
  grb::FormatPolicy saved;
  explicit PolicyGuard(grb::FormatPolicy p) : saved(grb::format_policy()) {
    grb::set_format_policy(p);
  }
  ~PolicyGuard() { grb::set_format_policy(saved); }
};

GrB_Context make_ctx(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_BLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

ref::Mat real_mat(GrB_Index nr, GrB_Index nc, double density,
                  uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return m;
}

ref::Vec real_vec(GrB_Index n, double density, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Vec v(n);
  for (auto& c : v.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return v;
}

struct Outputs {
  ref::Mat mxm, ewise_add;
  ref::Vec mxv, vxm, ewise_mult;
};

// Runs the op battery under the current format policy and returns every
// result.  Inputs are built inside so their publishes (and all
// intermediate publishes) adapt under the policy being tested.
Outputs run_battery(int nthreads, const ref::Mat& ra, const ref::Mat& rb,
                    const ref::Vec& ru, const ref::Vec& rv) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  GrB_Vector u = testutil::make_vector(ru, ctx);
  GrB_Vector v = testutil::make_vector(rv, ctx);

  Outputs out;
  GrB_Matrix c = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&c, GrB_FP64, ra.nrows, rb.ncols, ctx),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, b, GrB_NULL),
            GrB_SUCCESS);
  out.mxm = testutil::to_ref(c);
  GrB_free(&c);

  GrB_Matrix e = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&e, GrB_FP64, ra.nrows, ra.ncols, ctx),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(e, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, a, a,
                         GrB_NULL),
            GrB_SUCCESS);
  out.ewise_add = testutil::to_ref(e);
  GrB_free(&e);

  GrB_Vector w = nullptr;
  EXPECT_EQ(GrB_Vector_new(&w, GrB_FP64, ra.nrows, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, v, GrB_NULL),
            GrB_SUCCESS);
  out.mxv = testutil::to_ref(w);
  GrB_free(&w);

  GrB_Vector x = nullptr;
  EXPECT_EQ(GrB_Vector_new(&x, GrB_FP64, ra.ncols, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_vxm(x, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    u, a, GrB_NULL),
            GrB_SUCCESS);
  out.vxm = testutil::to_ref(x);
  GrB_free(&x);

  GrB_Vector y = nullptr;
  EXPECT_EQ(GrB_Vector_new(&y, GrB_FP64, ra.nrows, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseMult(y, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, u, u,
                          GrB_NULL),
            GrB_SUCCESS);
  out.ewise_mult = testutil::to_ref(y);
  GrB_free(&y);

  GrB_free(&a);
  GrB_free(&b);
  GrB_free(&u);
  GrB_free(&v);
  GrB_free(&ctx);
  return out;
}

void sweep_formats(double density, uint64_t seed) {
  ThresholdGuard threshold;
  ref::Mat ra = real_mat(36, 44, density, seed + 1);
  ref::Mat rb = real_mat(44, 28, density, seed + 2);
  ref::Vec ru = real_vec(36, density, seed + 3);
  ref::Vec rv = real_vec(44, density, seed + 4);

  Outputs expect;
  {
    PolicyGuard policy(grb::FormatPolicy::kCsr);
    expect = run_battery(1, ra, rb, ru, rv);
  }
  const struct {
    const char* name;
    grb::FormatPolicy policy;
  } legs[] = {
      {"hyper", grb::FormatPolicy::kHyper},
      {"bitmap", grb::FormatPolicy::kBitmap},
      {"dense", grb::FormatPolicy::kDense},
      {"auto", grb::FormatPolicy::kAuto},
  };
  for (const auto& leg : legs) {
    PolicyGuard policy(leg.policy);
    for (int nthreads : {1, 4}) {
      Outputs got = run_battery(nthreads, ra, rb, ru, rv);
      std::string tag =
          std::string(leg.name) + " nthreads=" + std::to_string(nthreads);
      EXPECT_TRUE(testutil::mats_equal(expect.mxm, got.mxm))
          << "mxm " << tag;
      EXPECT_TRUE(testutil::mats_equal(expect.ewise_add, got.ewise_add))
          << "eWiseAdd " << tag;
      EXPECT_TRUE(testutil::vecs_equal(expect.mxv, got.mxv))
          << "mxv " << tag;
      EXPECT_TRUE(testutil::vecs_equal(expect.vxm, got.vxm))
          << "vxm " << tag;
      EXPECT_TRUE(testutil::vecs_equal(expect.ewise_mult, got.ewise_mult))
          << "eWiseMult " << tag;
    }
  }
}

TEST(FormatDiff, SparseInputsAllPolicies) { sweep_formats(0.2, 5100); }

// Full inputs: the dense policy actually stores dense blocks, so this
// leg drives the dense×dense eWise fast path and the dense bitmap/CSR
// conversions through real op traffic.
TEST(FormatDiff, FullInputsAllPolicies) { sweep_formats(1.1, 5200); }

// Hypersparse shape: row dimension far above occupancy, the regime the
// hyper format (and its compact-row mxv kernel) exists for.  The auto
// policy's choice and the forced-hyper leg must both match forced-CSR.
TEST(FormatDiff, HypersparseMxv) {
  ThresholdGuard threshold;
  constexpr GrB_Index kRows = 8192, kCols = 64;
  grb::Prng rng(5300);
  ref::Mat ra(kRows, kCols);
  for (GrB_Index r = 0; r < kRows; r += 37)  // ~221 nonempty rows
    for (GrB_Index j = 0; j < kCols; ++j)
      if (rng.uniform() < 0.5) ra.at(r, j) = rng.uniform() * 4.0 - 2.0;
  ref::Vec rv = real_vec(kCols, 0.8, 5301);
  ref::Vec ru = real_vec(kRows, 0.01, 5302);
  ref::Mat rb = real_mat(kCols, 24, 0.4, 5303);

  Outputs expect;
  {
    PolicyGuard policy(grb::FormatPolicy::kCsr);
    expect = run_battery(1, ra, rb, ru, rv);
  }
  for (grb::FormatPolicy p :
       {grb::FormatPolicy::kHyper, grb::FormatPolicy::kAuto}) {
    PolicyGuard policy(p);
    for (int nthreads : {1, 4}) {
      Outputs got = run_battery(nthreads, ra, rb, ru, rv);
      EXPECT_TRUE(testutil::vecs_equal(expect.mxv, got.mxv));
      EXPECT_TRUE(testutil::vecs_equal(expect.vxm, got.vxm));
      EXPECT_TRUE(testutil::mats_equal(expect.mxm, got.mxm));
    }
  }
}

}  // namespace
