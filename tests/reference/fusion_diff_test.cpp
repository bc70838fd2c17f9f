// Differential oracle for the nonblocking-mode fusion planner.
//
// The planner promises that fusing elementwise chains, eliminating dead
// writes, and batching pending-tuple flushes is invisible: every program
// of queued ops must produce bitwise-identical container contents AND
// identical mid-chain read results (extractElement / nvals / reduce)
// whether fusion is on or off, at any thread count.  This harness
// interprets random op programs — apply (unary / bind1st / bind2nd),
// eWiseAdd/eWiseMult with self and distinct operands, mxv with and
// without transpose, scalar assign, setElement bursts, clear, and
// mid-chain reads, decorated with random masks, accumulators, and
// descriptors — twice per thread count with only the fusion knob
// flipped, and requires exact agreement.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exec/fusion.hpp"
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

// Pins the fusion knob through the public ablation API so the test also
// exercises GxB_Fusion_set/get round-tripping.
struct FusionGuard {
  int saved;
  explicit FusionGuard(bool on) {
    EXPECT_EQ(GxB_Fusion_get(&saved), GrB_SUCCESS);
    EXPECT_EQ(GxB_Fusion_set(on ? 1 : 0), GrB_SUCCESS);
  }
  ~FusionGuard() { GxB_Fusion_set(saved); }
};

struct StatsGuard {
  StatsGuard() {
    GxB_Stats_enable(1);
    GxB_Stats_reset();
  }
  ~StatsGuard() { GxB_Stats_enable(0); }
};

uint64_t counter(const char* name) {
  uint64_t v = 0;
  EXPECT_EQ(GxB_Stats_get(name, &v), GrB_SUCCESS);
  return v;
}

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
                     int nthreads, bool fused, Trace* trace) {
  FusionGuard fusion(fused);
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
      case 0: {  // unary apply, self input (fusable map when plain)
        const GrB_UnaryOp ops[] = {GrB_ABS_FP64, GrB_AINV_FP64,
                                   GrB_MINV_FP64, GrB_AINV_INT32};
        GrB_UnaryOp op = ops[rng.below(4)];
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_apply(w, m, maybe_accum(), op, w,
                            maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 1: {  // unary apply from the distinct source (snapshot head)
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
      case 4: {  // union zip, self on the x side
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_eWiseAdd(w, m, maybe_accum(), GrB_PLUS_FP64, w, u,
                               maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 5: {  // intersection zip, self on the y side
        GrB_Vector m = maybe_mask();
        EXPECT_EQ(GrB_eWiseMult(w, m, maybe_accum(), GrB_TIMES_FP64, u, w,
                                maybe_desc(m != nullptr)),
                  GrB_SUCCESS);
        break;
      }
      case 6: {  // both-self zip (degenerates to a map)
        EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_MAX_FP64, w, w,
                               GrB_NULL),
                  GrB_SUCCESS);
        break;
      }
      case 7: {  // plain mxv from the distinct source: a dead-write killer
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
      default: {  // clear: the simplest killer
        EXPECT_EQ(GrB_Vector_clear(w), GrB_SUCCESS);
        break;
      }
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

// Seed corpus: chain lengths sweep the full 2..12 range the planner can
// see in one batch; every seed runs at 1 and 8 threads with fusion on
// and off, and all four executions must agree exactly.
TEST(FusionDiff, RandomChainsMatchEager) {
  ThresholdGuard threshold;
  for (uint64_t seed = 6100; seed < 6148; ++seed) {
    Instance in = make_instance(seed);
    int steps = 2 + static_cast<int>(seed % 11);
    Trace eager1;
    ref::Vec expect = run_program(in, seed, steps, 1, false, &eager1);
    for (int nthreads : {1, 8}) {
      for (bool fused : {false, true}) {
        if (nthreads == 1 && !fused) continue;  // the baseline itself
        Trace t;
        ref::Vec got = run_program(in, seed, steps, nthreads, fused, &t);
        EXPECT_TRUE(testutil::vecs_equal(expect, got))
            << "seed=" << seed << " steps=" << steps
            << " nthreads=" << nthreads << " fused=" << fused;
        EXPECT_TRUE(eager1.equals(t))
            << "seed=" << seed << " steps=" << steps
            << " nthreads=" << nthreads << " fused=" << fused;
      }
    }
  }
}

// Read-free chains maximize the batch the planner sees at the final
// wait: no mid-chain barrier ever splits the queue, so fusable runs and
// killers coexist in one plan.
TEST(FusionDiff, LongUnbrokenChains) {
  ThresholdGuard threshold;
  for (uint64_t seed = 6200; seed < 6212; ++seed) {
    Instance in = make_instance(seed);
    GrB_Index touched = 0;
    for (int nthreads : {1, 8}) {
      Trace te, tf;
      // Steps land on read-free kinds only because the seed stream is
      // identical across legs; a read in the program is fine too — the
      // point of this corpus is simply longer chains.
      ref::Vec eager = run_program(in, seed, 12, nthreads, false, &te);
      ref::Vec fused = run_program(in, seed, 12, nthreads, true, &tf);
      EXPECT_TRUE(testutil::vecs_equal(eager, fused))
          << "seed=" << seed << " nthreads=" << nthreads;
      EXPECT_TRUE(te.equals(tf)) << "seed=" << seed;
      for (GrB_Index i = 0; i < kN; ++i) touched += eager.at(i) ? 1 : 0;
    }
    (void)touched;
  }
}

// A deterministic all-fusable chain must actually engage the fused
// executor (fusion.ops_fused > 0) — guarding against the planner
// silently falling back to eager and this whole suite testing nothing.
TEST(FusionDiff, FusedChainEngagesAndMatches) {
  ThresholdGuard threshold;
  Instance in = make_instance(6300);

  auto chain = [&](bool fused) -> ref::Vec {
    FusionGuard fusion(fused);
    GrB_Context ctx = make_ctx(4);
    GrB_Vector w = testutil::make_vector(in.w0, ctx);
    GrB_Vector u = testutil::make_vector(in.u0, ctx);
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_ABS_FP64, w, GrB_NULL),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, w, 2.0,
                        GrB_NULL),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, w, u,
                           GrB_NULL),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w, GrB_NULL),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
    ref::Vec out = testutil::to_ref(w);
    GrB_free(&w);
    GrB_free(&u);
    GrB_free(&ctx);
    return out;
  };

  ref::Vec eager = chain(false);
  uint64_t chains, fused_ops;
  {
    StatsGuard stats;
    ref::Vec fused = chain(true);
    chains = counter("fusion.chains");
    fused_ops = counter("fusion.ops_fused");
    EXPECT_TRUE(testutil::vecs_equal(eager, fused));
  }
  EXPECT_GE(chains, 1u);
  EXPECT_GE(fused_ops, 4u);
}

// Two plain mxv's back to back: the planner must drop the first (its
// output is overwritten wholesale before anyone reads it) and still
// match the eager leg, which runs both.
TEST(FusionDiff, DeadWriteEliminationMatches) {
  ThresholdGuard threshold;
  Instance in = make_instance(6400);

  auto overwrite = [&](bool fused) -> ref::Vec {
    FusionGuard fusion(fused);
    GrB_Context ctx = make_ctx(4);
    GrB_Vector w = testutil::make_vector(in.w0, ctx);
    GrB_Vector u = testutil::make_vector(in.u0, ctx);
    GrB_Matrix a = testutil::make_matrix(in.a, ctx);
    EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_NULL),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_DESC_T0),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
    ref::Vec out = testutil::to_ref(w);
    GrB_free(&w);
    GrB_free(&u);
    GrB_free(&a);
    GrB_free(&ctx);
    return out;
  };

  ref::Vec eager = overwrite(false);
  uint64_t dead;
  {
    StatsGuard stats;
    ref::Vec fused = overwrite(true);
    dead = counter("fusion.dead_writes_eliminated");
    EXPECT_TRUE(testutil::vecs_equal(eager, fused));
  }
  EXPECT_GE(dead, 1u);
}

// Pending setElement tuples must survive dead-write elimination
// correctly: a flush queued before a killer dies with it (the tuples it
// would have folded are overwritten anyway), while a flush after the
// killer still applies.
TEST(FusionDiff, PendingTuplesAcrossKillers) {
  ThresholdGuard threshold;
  Instance in = make_instance(6500);

  auto program = [&](bool fused) -> ref::Vec {
    FusionGuard fusion(fused);
    GrB_Context ctx = make_ctx(4);
    GrB_Vector w = testutil::make_vector(in.w0, ctx);
    GrB_Vector u = testutil::make_vector(in.u0, ctx);
    GrB_Matrix a = testutil::make_matrix(in.a, ctx);
    EXPECT_EQ(GrB_Vector_setElement(w, 99.0, 3), GrB_SUCCESS);
    // Self-input apply queues a flush for the tuple above, then the
    // plain mxv kills both.
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_ABS_FP64, w, GrB_NULL),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_NULL),
              GrB_SUCCESS);
    // Tuples queued after the killer must land in the final result.
    EXPECT_EQ(GrB_Vector_setElement(w, 77.0, 5), GrB_SUCCESS);
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w, GrB_NULL),
              GrB_SUCCESS);
    EXPECT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
    ref::Vec out = testutil::to_ref(w);
    GrB_free(&w);
    GrB_free(&u);
    GrB_free(&a);
    GrB_free(&ctx);
    return out;
  };

  ref::Vec eager = program(false);
  ref::Vec fused = program(true);
  EXPECT_TRUE(testutil::vecs_equal(eager, fused));
  // The post-killer tuple went through AINV exactly once.
  ASSERT_TRUE(fused.at(5).has_value());
  EXPECT_EQ(*fused.at(5), -77.0);
}

}  // namespace
