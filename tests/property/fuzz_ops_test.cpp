// Differential fuzzing: long pseudo-random operation sequences over
// matrices AND vectors, executed in lock-step against the dense
// reference engine.  Any divergence in structure or values fails.
#include <gtest/gtest.h>

#include "core/global.hpp"
#include "tests/grb_test_util.hpp"
#include "util/prng.hpp"

namespace {

using testutil::fn_max;
using testutil::fn_min;
using testutil::fn_plus;
using testutil::fn_times;

struct World {
  static constexpr GrB_Index kN = 14;
  // Two matrices, two vectors, both live in GraphBLAS and the oracle.
  GrB_Matrix ma = nullptr, mb = nullptr;
  GrB_Vector va = nullptr, vb = nullptr;
  ref::Mat ra, rb;
  ref::Vec qa, qb;

  explicit World(uint64_t seed) {
    ra = testutil::random_mat(kN, kN, 0.3, seed * 17 + 1);
    rb = testutil::random_mat(kN, kN, 0.3, seed * 17 + 2);
    qa = testutil::random_vec(kN, 0.5, seed * 17 + 3);
    qb = testutil::random_vec(kN, 0.5, seed * 17 + 4);
    ma = testutil::make_matrix(ra);
    mb = testutil::make_matrix(rb);
    va = testutil::make_vector(qa);
    vb = testutil::make_vector(qb);
  }
  ~World() {
    GrB_free(&ma);
    GrB_free(&mb);
    GrB_free(&va);
    GrB_free(&vb);
  }

  void check() const {
    ASSERT_TRUE(testutil::mats_equal(ra, testutil::to_ref(ma)));
    ASSERT_TRUE(testutil::mats_equal(rb, testutil::to_ref(mb)));
    ASSERT_TRUE(testutil::vecs_equal(qa, testutil::to_ref(va)));
    ASSERT_TRUE(testutil::vecs_equal(qb, testutil::to_ref(vb)));
  }
};

class FuzzOps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzOps, LockStepAgainstOracle) {
  const uint64_t seed = GetParam();
  grb::Prng rng(seed);
  World w(seed);
  constexpr GrB_Index kN = World::kN;

  for (int step = 0; step < 60; ++step) {
    switch (rng.below(12)) {
      case 0: {  // mb = ma * mb (plus/times)
        ASSERT_EQ(GrB_mxm(w.mb, GrB_NULL, GrB_NULL,
                          GrB_PLUS_TIMES_SEMIRING_FP64, w.ma, w.mb,
                          GrB_NULL),
                  GrB_SUCCESS);
        w.rb = ref::mxm(w.ra, w.rb, fn_plus, fn_times);
        break;
      }
      case 1: {  // ma = eWiseAdd(ma, mb, min)
        ASSERT_EQ(GrB_eWiseAdd(w.ma, GrB_NULL, GrB_NULL, GrB_MIN_FP64,
                               w.ma, w.mb, GrB_NULL),
                  GrB_SUCCESS);
        w.ra = ref::ewise_add(w.ra, w.rb, fn_min);
        break;
      }
      case 2: {  // mb = eWiseMult(ma, mb, times), masked by ma (struct)
        ASSERT_EQ(GrB_eWiseMult(w.mb, w.ma, GrB_NULL, GrB_TIMES_FP64,
                                w.ma, w.mb, GrB_DESC_S),
                  GrB_SUCCESS);
        ref::Spec spec;
        spec.have_mask = true;
        spec.structure = true;
        w.rb = ref::writeback(w.rb, ref::ewise_mult(w.ra, w.rb, fn_times),
                              &w.ra, spec);
        break;
      }
      case 3: {  // va = mxv(ma, vb) min.plus with accum
        ASSERT_EQ(GrB_mxv(w.va, GrB_NULL, GrB_PLUS_FP64,
                          GrB_MIN_PLUS_SEMIRING_FP64, w.ma, w.vb,
                          GrB_NULL),
                  GrB_SUCCESS);
        ref::Spec spec;
        spec.accum = fn_plus;
        w.qa = ref::writeback(w.qa, ref::mxv(w.ra, w.qb, fn_min, fn_plus),
                              nullptr, spec);
        break;
      }
      case 4: {  // vb = vxm(va, mb)
        ASSERT_EQ(GrB_vxm(w.vb, GrB_NULL, GrB_NULL,
                          GrB_PLUS_TIMES_SEMIRING_FP64, w.va, w.mb,
                          GrB_NULL),
                  GrB_SUCCESS);
        w.qb = ref::vxm(w.qa, w.rb, fn_plus, fn_times);
        break;
      }
      case 5: {  // ma = select TRIU(ma, s)
        int64_t s = static_cast<int64_t>(rng.below(5)) - 2;
        ASSERT_EQ(GrB_select(w.ma, GrB_NULL, GrB_NULL, GrB_TRIU, w.ma, s,
                             GrB_NULL),
                  GrB_SUCCESS);
        w.ra = ref::select(w.ra, [s](GrB_Index i, GrB_Index j, double) {
          return static_cast<int64_t>(j) >= static_cast<int64_t>(i) + s;
        });
        break;
      }
      case 6: {  // va = apply ainv(va)
        ASSERT_EQ(GrB_apply(w.va, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w.va,
                            GrB_NULL),
                  GrB_SUCCESS);
        w.qa = ref::apply(w.qa, [](double x) { return -x; });
        break;
      }
      case 7: {  // setElement / removeElement on ma
        GrB_Index i = rng.below(kN), j = rng.below(kN);
        if (rng.below(2) == 0) {
          double v = static_cast<double>(1 + rng.below(9));
          ASSERT_EQ(GrB_Matrix_setElement(w.ma, v, i, j), GrB_SUCCESS);
          w.ra.at(i, j) = v;
        } else {
          ASSERT_EQ(GrB_Matrix_removeElement(w.ma, i, j), GrB_SUCCESS);
          w.ra.at(i, j).reset();
        }
        break;
      }
      case 8: {  // mb = transpose(ma) with accum plus
        ASSERT_EQ(GrB_transpose(w.mb, GrB_NULL, GrB_PLUS_FP64, w.ma,
                                GrB_NULL),
                  GrB_SUCCESS);
        ref::Spec spec;
        spec.accum = fn_plus;
        w.rb =
            ref::writeback(w.rb, ref::transpose(w.ra), nullptr, spec);
        break;
      }
      case 9: {  // vb = extract(va, shuffled indices)
        std::vector<GrB_Index> idx(kN);
        for (GrB_Index k = 0; k < kN; ++k) idx[k] = rng.below(kN);
        ASSERT_EQ(GrB_extract(w.vb, GrB_NULL, GrB_NULL, w.va, idx.data(),
                              kN, GrB_NULL),
                  GrB_SUCCESS);
        w.qb = ref::extract(w.qa, idx);
        break;
      }
      case 10: {  // assign scalar into a row band of ma
        GrB_Index r = rng.below(kN);
        double v = static_cast<double>(1 + rng.below(9));
        std::vector<GrB_Index> rows = {r};
        std::vector<GrB_Index> cols(kN);
        for (GrB_Index k = 0; k < kN; ++k) cols[k] = k;
        ASSERT_EQ(GrB_assign(w.ma, GrB_NULL, GrB_NULL, v, rows.data(), 1,
                             cols.data(), kN, GrB_NULL),
                  GrB_SUCCESS);
        for (GrB_Index k = 0; k < kN; ++k) w.ra.at(r, k) = v;
        break;
      }
      case 11: {  // va = reduce rows of ma (max monoid)
        ASSERT_EQ(GrB_reduce(w.va, GrB_NULL, GrB_NULL,
                             GrB_MAX_MONOID_FP64, w.ma, GrB_NULL),
                  GrB_SUCCESS);
        w.qa = ref::reduce_rows(w.ra, fn_max);
        break;
      }
    }
    if (step % 15 == 14) w.check();  // periodic deep compare
  }
  w.check();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzOps,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// ---- parallel-vs-serial differential fuzz ---------------------------------
//
// The same pseudo-random op sequence is applied to twin worlds, one homed
// in a 1-thread context and one in a multi-thread context, with the
// parallel threshold forced to 1 so every op takes its parallel
// path.  Results must match EXACTLY after every step; a failure prints
// the seed so the run can be replayed with
//   --gtest_filter='*FuzzParallel*/<seed-1>'.

struct ThresholdGuard {
  size_t saved;
  ThresholdGuard() : saved(grb::parallel_threshold()) {
    grb::set_parallel_threshold(1);
  }
  ~ThresholdGuard() { grb::set_parallel_threshold(saved); }
};

GrB_Context fuzz_context(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_BLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

// Real-valued data so any change in floating-point fold order diverges.
ref::Mat fuzz_mat(GrB_Index nr, GrB_Index nc, double density,
                  uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return m;
}

ref::Vec fuzz_vec(GrB_Index n, double density, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Vec v(n);
  for (auto& c : v.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return v;
}

// A world of containers homed in one context.
struct CtxWorld {
  static constexpr GrB_Index kN = 24;
  GrB_Context ctx;
  GrB_Matrix ma = nullptr, mb = nullptr, mm = nullptr;
  GrB_Vector va = nullptr, vb = nullptr, vm = nullptr;

  CtxWorld(uint64_t seed, GrB_Context c) : ctx(c) {
    ma = testutil::make_matrix(fuzz_mat(kN, kN, 0.3, seed * 13 + 1), ctx);
    mb = testutil::make_matrix(fuzz_mat(kN, kN, 0.3, seed * 13 + 2), ctx);
    mm = testutil::make_matrix(fuzz_mat(kN, kN, 0.3, seed * 13 + 3), ctx);
    va = testutil::make_vector(fuzz_vec(kN, 0.5, seed * 13 + 4), ctx);
    vb = testutil::make_vector(fuzz_vec(kN, 0.5, seed * 13 + 5), ctx);
    vm = testutil::make_vector(fuzz_vec(kN, 0.4, seed * 13 + 6), ctx);
  }
  ~CtxWorld() {
    GrB_free(&ma);
    GrB_free(&mb);
    GrB_free(&mm);
    GrB_free(&va);
    GrB_free(&vb);
    GrB_free(&vm);
  }
};

class FuzzParallel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzParallel, MultiThreadMatchesSerialExactly) {
  const uint64_t seed = GetParam();
  ThresholdGuard guard;
  GrB_Context serial_ctx = fuzz_context(1);
  GrB_Context par_ctx = fuzz_context(static_cast<int>(2 + seed % 7));
  CtxWorld ws(seed, serial_ctx);
  CtxWorld wp(seed, par_ctx);
  grb::Prng rng(seed * 31 + 7);

  // Applies one drawn op to a world; the draw is fixed before the call
  // so both worlds see identical parameters.
  GrB_Descriptor descs[] = {GrB_NULL,    GrB_DESC_R, GrB_DESC_S,
                            GrB_DESC_RS, GrB_DESC_C, GrB_DESC_SC};
  for (int step = 0; step < 40; ++step) {
    uint64_t op = rng.below(8);
    GrB_Descriptor d = descs[rng.below(6)];
    bool use_mask = rng.below(2) == 0;
    bool use_accum = rng.below(2) == 0;
    GrB_BinaryOp accum = use_accum ? GrB_PLUS_FP64 : GrB_NULL;
    double thresh = rng.uniform() * 4.0 - 2.0;
    auto apply_op = [&](CtxWorld& w) {
      GrB_Matrix m = use_mask ? w.mm : nullptr;
      GrB_Vector vm = use_mask ? w.vm : nullptr;
      switch (op) {
        case 0:
          ASSERT_EQ(GrB_mxm(w.mb, m, accum, GrB_PLUS_TIMES_SEMIRING_FP64,
                            w.ma, w.mb, d),
                    GrB_SUCCESS);
          break;
        case 1:
          ASSERT_EQ(GrB_eWiseAdd(w.ma, m, accum, GrB_PLUS_FP64, w.ma,
                                 w.mb, d),
                    GrB_SUCCESS);
          break;
        case 2:
          ASSERT_EQ(GrB_eWiseMult(w.vb, vm, accum, GrB_TIMES_FP64, w.va,
                                  w.vb, d),
                    GrB_SUCCESS);
          break;
        case 3:
          ASSERT_EQ(GrB_mxv(w.va, vm, accum, GrB_PLUS_TIMES_SEMIRING_FP64,
                            w.ma, w.vb, d),
                    GrB_SUCCESS);
          break;
        case 4:
          ASSERT_EQ(GrB_vxm(w.vb, vm, accum, GrB_PLUS_TIMES_SEMIRING_FP64,
                            w.va, w.mb, d),
                    GrB_SUCCESS);
          break;
        case 5:
          ASSERT_EQ(GrB_apply(w.va, vm, accum, GrB_AINV_FP64, w.va, d),
                    GrB_SUCCESS);
          break;
        case 6:
          ASSERT_EQ(GrB_select(w.ma, m, accum, GrB_VALUEGT_FP64, w.ma,
                               thresh, d),
                    GrB_SUCCESS);
          break;
        case 7:
          ASSERT_EQ(GrB_reduce(w.va, vm, accum, GrB_PLUS_MONOID_FP64,
                               w.ma, d),
                    GrB_SUCCESS);
          break;
      }
    };
    apply_op(ws);
    apply_op(wp);
    ASSERT_TRUE(testutil::mats_equal(testutil::to_ref(ws.ma),
                                     testutil::to_ref(wp.ma)))
        << "FAILING SEED " << seed << " at step " << step;
    ASSERT_TRUE(testutil::mats_equal(testutil::to_ref(ws.mb),
                                     testutil::to_ref(wp.mb)))
        << "FAILING SEED " << seed << " at step " << step;
    ASSERT_TRUE(testutil::vecs_equal(testutil::to_ref(ws.va),
                                     testutil::to_ref(wp.va)))
        << "FAILING SEED " << seed << " at step " << step;
    ASSERT_TRUE(testutil::vecs_equal(testutil::to_ref(ws.vb),
                                     testutil::to_ref(wp.vb)))
        << "FAILING SEED " << seed << " at step " << step;
  }
  GrB_free(&serial_ctx);
  GrB_free(&par_ctx);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParallel,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
