// Differential serial-vs-parallel oracle for the parallelized kernels.
//
// Every hot kernel (mxm, mxv, vxm, eWise matrix/vector, reduce, apply,
// select) promises results *bitwise-identical* to its serial path no
// matter how many threads the calling context grants.  This harness runs
// each op on real-valued (non-integer) random data -- where any change
// in floating-point fold order would show -- in a 1-thread context and
// in 2/4/8-thread contexts, across masks
// (none / ~30%-dense valued / structural), accumulate on/off, and
// replace on/off, and requires exact equality.
//
// The parallel threshold is forced to 1 for the duration so even these
// small instances take the parallel paths.
#include <gtest/gtest.h>

#include <vector>

#include "core/global.hpp"
#include "tests/grb_test_util.hpp"
#include "util/prng.hpp"

namespace {

// Forces every gated kernel onto its parallel path for the test's scope.
struct ThresholdGuard {
  size_t saved;
  ThresholdGuard() : saved(grb::parallel_threshold()) {
    grb::set_parallel_threshold(1);
  }
  ~ThresholdGuard() { grb::set_parallel_threshold(saved); }
};

GrB_Context make_ctx(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_BLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

// Real-valued entries in (-5, 5): sums of these are exact only when the
// parallel path folds in exactly the serial order.
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

// ~30%-dense mask whose stored values are a coin flip of 0.0 / 1.0, so
// valued and structural interpretations genuinely differ.
ref::Mat mask_mat(GrB_Index nr, GrB_Index nc, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells)
    if (rng.uniform() < 0.3) c = rng.below(2) ? 1.0 : 0.0;
  return m;
}

ref::Vec mask_vec(GrB_Index n, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Vec v(n);
  for (auto& c : v.cells)
    if (rng.uniform() < 0.3) c = rng.below(2) ? 1.0 : 0.0;
  return v;
}

struct Config {
  bool mask;
  bool structural;
  bool accum;
  bool replace;
};

std::vector<Config> all_configs() {
  return {
      {false, false, false, false},  // plain
      {false, false, true, false},   // accum only
      {true, false, false, false},   // valued mask
      {true, true, false, false},    // structural mask
      {true, false, true, false},    // valued mask + accum
      {true, true, true, false},     // structural mask + accum
      {true, false, false, true},    // valued mask + replace
      {true, true, true, true},      // structural mask + accum + replace
  };
}

GrB_Descriptor desc_for(const Config& c) {
  if (c.replace && c.structural) return GrB_DESC_RS;
  if (c.replace) return GrB_DESC_R;
  if (c.structural) return GrB_DESC_S;
  return GrB_NULL;
}

std::string config_name(const Config& c) {
  std::string s;
  s += c.mask ? (c.structural ? "maskS" : "maskV") : "nomask";
  s += c.accum ? "+accum" : "";
  s += c.replace ? "+replace" : "";
  return s;
}

constexpr GrB_Index kDim = 48;   // matrices: 48x48
constexpr GrB_Index kVDim = 300; // vectors

// Runs `op` on fresh copies of the inputs homed in an nthreads-context;
// returns the final contents of the output matrix.
template <class Fn>
ref::Mat run_mat_op(int nthreads, const Config& cfg, const ref::Mat& rc0,
                    const ref::Mat& ra, const ref::Mat& rb,
                    const ref::Mat& rm, Fn&& op) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Matrix c = testutil::make_matrix(rc0, ctx);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  GrB_Matrix m = cfg.mask ? testutil::make_matrix(rm, ctx) : nullptr;
  op(c, m, cfg.accum ? GrB_PLUS_FP64 : GrB_NULL, a, b, desc_for(cfg));
  ref::Mat out = testutil::to_ref(c);
  GrB_free(&c);
  GrB_free(&a);
  GrB_free(&b);
  if (m != nullptr) GrB_free(&m);
  GrB_free(&ctx);
  return out;
}

template <class Fn>
ref::Vec run_vec_op(int nthreads, const Config& cfg, const ref::Vec& rw0,
                    const ref::Mat& ra, const ref::Vec& ru,
                    const ref::Vec& rv, const ref::Vec& rm, Fn&& op) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Vector w = testutil::make_vector(rw0, ctx);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Vector u = testutil::make_vector(ru, ctx);
  GrB_Vector v = testutil::make_vector(rv, ctx);
  GrB_Vector m = cfg.mask ? testutil::make_vector(rm, ctx) : nullptr;
  op(w, m, cfg.accum ? GrB_PLUS_FP64 : GrB_NULL, a, u, v, desc_for(cfg));
  ref::Vec out = testutil::to_ref(w);
  GrB_free(&w);
  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&v);
  if (m != nullptr) GrB_free(&m);
  GrB_free(&ctx);
  return out;
}

// Sweeps configs x thread counts, comparing every parallel run against
// the 1-thread run on identical inputs.
template <class Fn>
void sweep_mat_op(uint64_t seed, Fn&& op) {
  ThresholdGuard guard;
  ref::Mat rc0 = real_mat(kDim, kDim, 0.25, seed + 1);
  ref::Mat ra = real_mat(kDim, kDim, 0.2, seed + 2);
  ref::Mat rb = real_mat(kDim, kDim, 0.2, seed + 3);
  ref::Mat rm = mask_mat(kDim, kDim, seed + 4);
  for (const Config& cfg : all_configs()) {
    ref::Mat serial = run_mat_op(1, cfg, rc0, ra, rb, rm, op);
    for (int nthreads : {2, 4, 8}) {
      ref::Mat parallel = run_mat_op(nthreads, cfg, rc0, ra, rb, rm, op);
      EXPECT_TRUE(testutil::mats_equal(serial, parallel))
          << config_name(cfg) << " nthreads=" << nthreads;
    }
  }
}

template <class Fn>
void sweep_vec_op(uint64_t seed, Fn&& op) {
  ThresholdGuard guard;
  ref::Vec rw0 = real_vec(kVDim, 0.3, seed + 1);
  ref::Mat ra = real_mat(kVDim, kVDim, 0.05, seed + 2);
  ref::Vec ru = real_vec(kVDim, 0.4, seed + 3);
  ref::Vec rv = real_vec(kVDim, 0.4, seed + 4);
  ref::Vec rm = mask_vec(kVDim, seed + 5);
  for (const Config& cfg : all_configs()) {
    ref::Vec serial = run_vec_op(1, cfg, rw0, ra, ru, rv, rm, op);
    for (int nthreads : {2, 4, 8}) {
      ref::Vec parallel =
          run_vec_op(nthreads, cfg, rw0, ra, ru, rv, rm, op);
      EXPECT_TRUE(testutil::vecs_equal(serial, parallel))
          << config_name(cfg) << " nthreads=" << nthreads;
    }
  }
}

TEST(DiffOracle, Mxm) {
  sweep_mat_op(100, [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Matrix b, GrB_Descriptor d) {
    ASSERT_EQ(GrB_mxm(c, m, accum, GrB_PLUS_TIMES_SEMIRING_FP64, a, b, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, MxmMinPlus) {
  sweep_mat_op(200, [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Matrix b, GrB_Descriptor d) {
    ASSERT_EQ(GrB_mxm(c, m, accum, GrB_MIN_PLUS_SEMIRING_FP64, a, b, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, EwiseAddMatrix) {
  sweep_mat_op(300, [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Matrix b, GrB_Descriptor d) {
    ASSERT_EQ(GrB_eWiseAdd(c, m, accum, GrB_PLUS_FP64, a, b, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, EwiseMultMatrix) {
  sweep_mat_op(400, [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Matrix b, GrB_Descriptor d) {
    ASSERT_EQ(GrB_eWiseMult(c, m, accum, GrB_TIMES_FP64, a, b, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, ApplyMatrix) {
  sweep_mat_op(500, [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Matrix, GrB_Descriptor d) {
    ASSERT_EQ(GrB_apply(c, m, accum, GrB_AINV_FP64, a, d), GrB_SUCCESS);
  });
}

TEST(DiffOracle, SelectMatrix) {
  sweep_mat_op(600, [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Matrix, GrB_Descriptor d) {
    ASSERT_EQ(GrB_select(c, m, accum, GrB_VALUEGT_FP64, a, 0.0, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, ReduceMatrixToVector) {
  sweep_vec_op(700, [](GrB_Vector w, GrB_Vector m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Vector, GrB_Vector,
                       GrB_Descriptor d) {
    ASSERT_EQ(GrB_reduce(w, m, accum, GrB_PLUS_MONOID_FP64, a, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, Mxv) {
  sweep_vec_op(800, [](GrB_Vector w, GrB_Vector m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Vector u, GrB_Vector,
                       GrB_Descriptor d) {
    ASSERT_EQ(GrB_mxv(w, m, accum, GrB_PLUS_TIMES_SEMIRING_FP64, a, u, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, Vxm) {
  sweep_vec_op(900, [](GrB_Vector w, GrB_Vector m, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Vector u, GrB_Vector,
                       GrB_Descriptor d) {
    ASSERT_EQ(GrB_vxm(w, m, accum, GrB_PLUS_TIMES_SEMIRING_FP64, u, a, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, EwiseAddVector) {
  sweep_vec_op(1000, [](GrB_Vector w, GrB_Vector m, GrB_BinaryOp accum,
                        GrB_Matrix, GrB_Vector u, GrB_Vector v,
                        GrB_Descriptor d) {
    ASSERT_EQ(GrB_eWiseAdd(w, m, accum, GrB_PLUS_FP64, u, v, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, EwiseMultVector) {
  sweep_vec_op(1100, [](GrB_Vector w, GrB_Vector m, GrB_BinaryOp accum,
                        GrB_Matrix, GrB_Vector u, GrB_Vector v,
                        GrB_Descriptor d) {
    ASSERT_EQ(GrB_eWiseMult(w, m, accum, GrB_TIMES_FP64, u, v, d),
              GrB_SUCCESS);
  });
}

TEST(DiffOracle, ApplyVector) {
  sweep_vec_op(1200, [](GrB_Vector w, GrB_Vector m, GrB_BinaryOp accum,
                        GrB_Matrix, GrB_Vector u, GrB_Vector,
                        GrB_Descriptor d) {
    ASSERT_EQ(GrB_apply(w, m, accum, GrB_AINV_FP64, u, d), GrB_SUCCESS);
  });
}

TEST(DiffOracle, SelectVector) {
  sweep_vec_op(1300, [](GrB_Vector w, GrB_Vector m, GrB_BinaryOp accum,
                        GrB_Matrix, GrB_Vector u, GrB_Vector,
                        GrB_Descriptor d) {
    ASSERT_EQ(GrB_select(w, m, accum, GrB_VALUEGT_FP64, u, 0.0, d),
              GrB_SUCCESS);
  });
}

// Kernels at the size where the grain rule matters: 1024 rows and 16k+
// entries clear the default parallel threshold without forcing it, so
// the multi-thread runs split rows per thread across the pool and must
// still match the 1-thread run bit for bit.
template <class Fn>
void sweep_rows1024(uint64_t seed, const Config& cfg, Fn&& op) {
  constexpr GrB_Index kRows = 1024;
  ref::Mat rc0 = real_mat(kRows, kRows, 0.01, seed + 1);
  ref::Mat ra = real_mat(kRows, kRows, 0.02, seed + 2);
  ASSERT_GE(ra.nvals(), 16384u);
  ref::Mat rm = real_mat(kRows, kRows, 0.02, seed + 3);
  ref::Mat serial = run_mat_op(1, cfg, rc0, ra, ra, rm, op);
  for (int nthreads : {2, 4, 8}) {
    ref::Mat parallel = run_mat_op(nthreads, cfg, rc0, ra, ra, rm, op);
    EXPECT_TRUE(testutil::mats_equal(serial, parallel))
        << config_name(cfg) << " nthreads=" << nthreads;
  }
}

TEST(DiffOracle, SelectMatrix1024Rows) {
  sweep_rows1024(1500, {false, false, false, false},
                 [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                    GrB_Matrix a, GrB_Matrix, GrB_Descriptor d) {
                   ASSERT_EQ(GrB_select(c, m, accum, GrB_VALUEGT_FP64, a,
                                        0.0, d),
                             GrB_SUCCESS);
                 });
}

TEST(DiffOracle, ApplyMatrix1024Rows) {
  sweep_rows1024(1600, {false, false, false, false},
                 [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                    GrB_Matrix a, GrB_Matrix, GrB_Descriptor d) {
                   ASSERT_EQ(GrB_apply(c, m, accum, GrB_AINV_FP64, a, d),
                             GrB_SUCCESS);
                 });
}

// A structural mask plus an accumulator: the write-back runs its merge.
TEST(DiffOracle, MaskedAccumWriteback1024Rows) {
  sweep_rows1024(1700, {true, true, true, false},
                 [](GrB_Matrix c, GrB_Matrix m, GrB_BinaryOp accum,
                    GrB_Matrix a, GrB_Matrix, GrB_Descriptor d) {
                   ASSERT_EQ(GrB_apply(c, m, accum, GrB_AINV_FP64, a, d),
                             GrB_SUCCESS);
                 });
}

// Scalar reductions: the blocked fold must give the same bits for every
// thread count.
TEST(DiffOracle, ReduceToScalar) {
  ThresholdGuard guard;
  ref::Mat ra = real_mat(kDim, kDim, 0.4, 1400);
  ref::Vec ru = real_vec(20000, 0.5, 1401);  // > one reduce block
  double want_m = 0, want_v = 0;
  bool first = true;
  for (int nthreads : {1, 2, 4, 8}) {
    GrB_Context ctx = make_ctx(nthreads);
    GrB_Matrix a = testutil::make_matrix(ra, ctx);
    GrB_Vector u = testutil::make_vector(ru, ctx);
    double sm = 0, sv = 0;
    ASSERT_EQ(GrB_reduce(&sm, GrB_NULL, GrB_PLUS_MONOID_FP64, a, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_reduce(&sv, GrB_NULL, GrB_PLUS_MONOID_FP64, u, GrB_NULL),
              GrB_SUCCESS);
    if (first) {
      want_m = sm;
      want_v = sv;
      first = false;
    } else {
      EXPECT_EQ(want_m, sm) << "matrix reduce, nthreads=" << nthreads;
      EXPECT_EQ(want_v, sv) << "vector reduce, nthreads=" << nthreads;
    }
    GrB_free(&a);
    GrB_free(&u);
    GrB_free(&ctx);
  }
}

}  // namespace
