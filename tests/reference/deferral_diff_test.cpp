// Differential oracle for nonblocking-mode deferral.
//
// A method sequence queued on an object and run at completion must give
// bitwise-identical container contents AND identical mid-chain read
// results (extractElement / nvals / reduce) to the same sequence with
// GrB_wait after every call, at any thread count.  This harness
// interprets random op programs — apply (unary / bind1st / bind2nd),
// eWiseAdd/eWiseMult with self and distinct operands, mxv with and
// without transpose, scalar assign, setElement bursts, clear, and
// mid-chain reads, decorated with random masks, accumulators, and
// descriptors — queued and waited, at 1 and 8 threads, and requires
// exact agreement.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

GrB_Context make_ctx(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

constexpr GrB_Index kN = 48;

// Fixed inputs shared by both legs of a differential pair.
struct Instance {
  ref::Vec w0, u0, mk;
  ref::Mat a;
};

Instance make_instance(uint64_t seed) {
  Instance in{testutil::random_vec(kN, 0.6, seed + 1),
              testutil::random_vec(kN, 0.5, seed + 2),
              testutil::random_vec(kN, 0.4, seed + 3),
              testutil::random_mat(kN, kN, 0.15, seed + 4)};
  return in;
}

// Every value observed by a mid-chain read, in program order.  Reads
// drain (a prefix of) the queue, so agreement here proves the read
// barrier shows the same fully-applied state in both modes.
struct Trace {
  std::vector<double> reads;

  ::testing::AssertionResult equals(const Trace& other) const {
    if (reads.size() != other.reads.size())
      return ::testing::AssertionFailure()
             << "trace length " << other.reads.size() << " != "
             << reads.size();
    for (size_t k = 0; k < reads.size(); ++k)
      if (reads[k] != other.reads[k])
        return ::testing::AssertionFailure()
               << "read[" << k << "] " << other.reads[k] << " != "
               << reads[k];
    return ::testing::AssertionSuccess();
  }
};

// Interprets the op program derived from `seed` against fresh copies of
// the instance.  The program depends only on the PRNG stream, never on
// computed values, so both legs replay the identical op sequence.
ref::Vec run_program(const Instance& in, uint64_t seed, int steps,
                     int nthreads, bool wait_each, Trace* trace) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Vector w = testutil::make_vector(in.w0, ctx);
  GrB_Vector u = testutil::make_vector(in.u0, ctx);
  GrB_Vector mk = testutil::make_vector(in.mk, ctx);
  GrB_Matrix a = testutil::make_matrix(in.a, ctx);
  grb::Prng rng(seed * 0x9E3779B97F4A7C15ull + 11);

  auto maybe_mask = [&]() -> GrB_Vector {
    return rng.below(4) == 0 ? mk : nullptr;
  };
  auto maybe_accum = [&]() -> GrB_BinaryOp {
    return rng.below(4) == 0 ? GrB_PLUS_FP64 : GrB_NULL;
  };
  auto maybe_desc = [&](bool has_mask) -> GrB_Descriptor {
    switch (rng.below(4)) {
      case 0:
        return GrB_DESC_R;
      case 1:
        return has_mask ? GrB_DESC_S : GrB_NULL;
      case 2:
        return has_mask ? GrB_DESC_SC : GrB_NULL;
      default:
        return GrB_NULL;
    }
  };

  for (int step = 0; step < steps; ++step) {
    switch (rng.below(13)) {
      case 0: {  // unary apply, self input (read lazily when plain)
        const GrB_UnaryOp ops[] = {GrB_ABS_FP64, GrB_AINV_FP64,
                                   GrB_MINV_FP64, GrB_AINV_INT32};
        GrB_UnaryOp op = ops[rng.below(4)];
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_apply(w, m, maybe_accum(), op, w,
                            maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 1: {  // unary apply from the distinct source (snapshot)
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_apply(w, m, maybe_accum(), GrB_ABS_FP64, u,
                            maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 2: {  // bind2nd: w = w + s
        double s = static_cast<double>(1 + rng.below(5));
        EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, w, s,
                            GrB_NULL),
                  GrB_SUCCESS);
        break;
      }
      case 3: {  // bind1st: w = s * w, occasionally masked
        double s = rng.below(2) ? 0.5 : 3.0;
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_apply(w, m, maybe_accum(), GrB_TIMES_FP64, s, w,
                            maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 4: {  // union, self on the x side
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_eWiseAdd(w, m, maybe_accum(), GrB_PLUS_FP64, w, u,
                               maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 5: {  // intersection, self on the y side
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_eWiseMult(w, m, maybe_accum(), GrB_TIMES_FP64, u, w,
                                maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 6: {  // both operands self
        EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_MAX_FP64, w, w,
                               GrB_NULL),
                  GrB_SUCCESS);
        break;
      }
      case 7: {  // plain mxv from the distinct source: overwrites w
        GrB_Descriptor d = rng.below(2) ? GrB_DESC_T0 : GrB_NULL;
        EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL,
                          GrB_PLUS_TIMES_SEMIRING_FP64, a, u, d),
                  GrB_SUCCESS);
        break;
      }
      case 8: {  // self-input mxv (snapshot forces prefix completion)
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_mxv(w, m, maybe_accum(),
                          GrB_PLUS_TIMES_SEMIRING_FP64, a, w,
                          maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 9: {  // setElement burst: pending tuples between queued ops
        int burst = 1 + static_cast<int>(rng.below(3));
        for (int b = 0; b < burst; ++b) {
          double val = static_cast<double>(1 + rng.below(9));
          GrB_Index i = rng.below(kN);
          EXPECT_EQ(GrB_Vector_setElement(w, val, i), GrB_SUCCESS);
          if (wait_each) {
            EXPECT_EQ(GrB_wait(w, GrB_COMPLETE), GrB_SUCCESS);
          }
        }
        break;
      }
      case 10: {  // scalar assign over a contiguous range
        GrB_Index lo = rng.below(kN);
        GrB_Index len = 1 + rng.below(kN - lo);
        std::vector<GrB_Index> idx(len);
        for (GrB_Index k = 0; k < len; ++k) idx[k] = lo + k;
        double val = static_cast<double>(1 + rng.below(9));
        GrB_BinaryOp accum = rng.below(2) ? GrB_PLUS_FP64 : GrB_NULL;
        EXPECT_EQ(GrB_assign(w, GrB_NULL, accum, val, idx.data(), len,
                             GrB_NULL),
                  GrB_SUCCESS);
        break;
      }
      case 11: {  // mid-chain read: must observe the fully-applied prefix
        switch (rng.below(3)) {
          case 0: {
            double x = 0.0;
            GrB_Index i = rng.below(kN);
            GrB_Info info = GrB_Vector_extractElement(&x, w, i);
            EXPECT_TRUE(info == GrB_SUCCESS || info == GrB_NO_VALUE);
            trace->reads.push_back(info == GrB_SUCCESS ? x : -12345.0);
            break;
          }
          case 1: {
            GrB_Index nv = 0;
            EXPECT_EQ(GrB_Vector_nvals(&nv, w), GrB_SUCCESS);
            trace->reads.push_back(static_cast<double>(nv));
            break;
          }
          default: {
            double sum = 0.0;
            EXPECT_EQ(GrB_reduce(&sum, GrB_NULL, GrB_PLUS_MONOID_FP64, w,
                                 GrB_NULL),
                      GrB_SUCCESS);
            trace->reads.push_back(sum);
            break;
          }
        }
        break;
      }
      default: {  // clear: the simplest overwrite
        EXPECT_EQ(GrB_Vector_clear(w), GrB_SUCCESS);
        break;
      }
    }
    if (wait_each) {
      EXPECT_EQ(GrB_wait(w, GrB_COMPLETE), GrB_SUCCESS);
    }
  }

  EXPECT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  ref::Vec out = testutil::to_ref(w);
  GrB_free(&w);
  GrB_free(&u);
  GrB_free(&mk);
  GrB_free(&a);
  GrB_free(&ctx);
  return out;
}

// Seed corpus: chain lengths sweep 2..12 calls; every seed runs queued
// and waited at 1 and 8 threads, and all four executions must agree
// exactly.
TEST(DeferralDiff, RandomChainsMatchWaitAfterEveryCall) {
  ThresholdGuard threshold;
  for (uint64_t seed = 6100; seed < 6148; ++seed) {
    Instance in = make_instance(seed);
    int steps = 2 + static_cast<int>(seed % 11);
    Trace queued1;
    ref::Vec expect = run_program(in, seed, steps, 1, false, &queued1);
    for (int nthreads : {1, 8}) {
      for (bool wait_each : {false, true}) {
        if (nthreads == 1 && !wait_each) continue;  // the baseline itself
        Trace t;
        ref::Vec got = run_program(in, seed, steps, nthreads, wait_each, &t);
        EXPECT_TRUE(testutil::vecs_equal(expect, got))
            << "seed=" << seed << " steps=" << steps
            << " nthreads=" << nthreads << " wait_each=" << wait_each;
        EXPECT_TRUE(queued1.equals(t))
            << "seed=" << seed << " steps=" << steps
            << " nthreads=" << nthreads << " wait_each=" << wait_each;
      }
    }
  }
}

// Longer programs: more calls queue between the barriers a read or the
// final wait imposes, so one completion drains a longer sequence.
TEST(DeferralDiff, LongUnbrokenChains) {
  ThresholdGuard threshold;
  for (uint64_t seed = 6200; seed < 6212; ++seed) {
    Instance in = make_instance(seed);
    for (int nthreads : {1, 8}) {
      Trace tq, tw;
      ref::Vec queued = run_program(in, seed, 12, nthreads, false, &tq);
      ref::Vec waited = run_program(in, seed, 12, nthreads, true, &tw);
      EXPECT_TRUE(testutil::vecs_equal(queued, waited))
          << "seed=" << seed << " nthreads=" << nthreads;
      EXPECT_TRUE(tq.equals(tw)) << "seed=" << seed;
    }
  }
}

// Pending setElement tuples keep program order around a method that
// overwrites the vector without reading it: a tuple set before the
// overwrite is folded first and then overwritten, a tuple set after it
// lands in the result and goes through the later apply exactly once.
TEST(DeferralDiff, PendingTuplesAcrossOverwrite) {
  ThresholdGuard threshold;
  Instance in = make_instance(6500);

  auto program = [&](bool wait_each) -> ref::Vec {
    GrB_Context ctx = make_ctx(4);
    GrB_Vector w = testutil::make_vector(in.w0, ctx);
    GrB_Vector u = testutil::make_vector(in.u0, ctx);
    GrB_Matrix a = testutil::make_matrix(in.a, ctx);
    auto step = [&](GrB_Info info) {
      EXPECT_EQ(info, GrB_SUCCESS);
      if (wait_each) {
        EXPECT_EQ(GrB_wait(w, GrB_COMPLETE), GrB_SUCCESS);
      }
    };
    step(GrB_Vector_setElement(w, 99.0, 3));
    // The self-input apply queues a fold of the tuple above first; the
    // plain mxv then overwrites w.
    step(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_ABS_FP64, w, GrB_NULL));
    step(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                 GrB_NULL));
    step(GrB_Vector_setElement(w, 77.0, 5));
    step(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w, GrB_NULL));
    EXPECT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
    ref::Vec out = testutil::to_ref(w);
    GrB_free(&w);
    GrB_free(&u);
    GrB_free(&a);
    GrB_free(&ctx);
    return out;
  };

  ref::Vec queued = program(false);
  ref::Vec waited = program(true);
  EXPECT_TRUE(testutil::vecs_equal(queued, waited));
  // The tuple set after the overwrite went through AINV exactly once.
  ASSERT_TRUE(queued.at(5).has_value());
  EXPECT_EQ(*queued.at(5), -77.0);
}

}  // namespace
