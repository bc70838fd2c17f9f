// Nonblocking-mode read barrier: any C-API entry point that observes
// container state (extractElement, nvals, reduce-to-scalar, export,
// extractTuples) must first complete the deferred-op queue, so a caller
// can never see a half-applied chain.
#include <gtest/gtest.h>

#include <vector>

#include "tests/grb_test_util.hpp"

namespace {

GrB_Context nonblocking_ctx() {
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, GrB_NULL),
            GrB_SUCCESS);
  return ctx;
}

GrB_Vector iota_vector(GrB_Index n, GrB_Context ctx) {
  GrB_Vector v = nullptr;
  EXPECT_EQ(GrB_Vector_new(&v, GrB_FP64, n, ctx), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    EXPECT_EQ(GrB_Vector_setElement(v, static_cast<double>(i + 1), i),
              GrB_SUCCESS);
  return v;
}

// extractElement mid-queue: both queued applies must be visible even
// though nothing has explicitly waited.
TEST(ReadBarrier, ExtractElementSeesQueuedApplies) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = iota_vector(8, ctx);
  ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_NULL, GrB_AINV_FP64, v, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, v, 10.0,
                      GrB_NULL),
            GrB_SUCCESS);
  double x = 0.0;
  ASSERT_EQ(GrB_Vector_extractElement(&x, v, 4), GrB_SUCCESS);
  EXPECT_EQ(x, -5.0 + 10.0);
  GrB_free(&v);
  GrB_free(&ctx);
}

// nvals mid-queue: a queued clear (a dead-write killer for the planner)
// followed by a queued rebuild must both be reflected in the count.
TEST(ReadBarrier, NvalsSeesClearAndRebuild) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = iota_vector(8, ctx);
  GrB_Vector u = iota_vector(8, ctx);
  ASSERT_EQ(GrB_Vector_clear(v), GrB_SUCCESS);
  GrB_Index nv = 99;
  ASSERT_EQ(GrB_Vector_nvals(&nv, v), GrB_SUCCESS);
  EXPECT_EQ(nv, 0u);
  ASSERT_EQ(GrB_eWiseAdd(v, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, v, u,
                         GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_nvals(&nv, v), GrB_SUCCESS);
  EXPECT_EQ(nv, 8u);
  GrB_free(&v);
  GrB_free(&u);
  GrB_free(&ctx);
}

// reduce-to-scalar is itself an op, but reads its input through the
// barrier: the queued chain on v must be fully applied in the sum.
TEST(ReadBarrier, ReduceSeesQueuedChain) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = iota_vector(4, ctx);  // 1 2 3 4
  ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, 2.0, v,
                      GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, v, 1.0,
                      GrB_NULL),
            GrB_SUCCESS);
  double sum = 0.0;
  ASSERT_EQ(GrB_reduce(&sum, GrB_NULL, GrB_PLUS_MONOID_FP64, v, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(sum, 2.0 * (1 + 2 + 3 + 4) + 4.0);
  GrB_free(&v);
  GrB_free(&ctx);
}

// export mid-queue: the non-opaque snapshot must contain the applied
// chain, and exportSize must agree with the post-chain structure.
TEST(ReadBarrier, ExportSeesQueuedChain) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = iota_vector(5, ctx);
  ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_NULL, GrB_AINV_FP64, v, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 42.0, 2), GrB_SUCCESS);
  GrB_Index ilen = 0, vlen = 0;
  ASSERT_EQ(GrB_Vector_exportSize(&ilen, &vlen, GrB_SPARSE_VECTOR, v),
            GrB_SUCCESS);
  ASSERT_EQ(ilen, 5u);
  std::vector<GrB_Index> idx(ilen);
  std::vector<double> vals(vlen);
  ASSERT_EQ(GrB_Vector_export(idx.data(), vals.data(), GrB_SPARSE_VECTOR, v),
            GrB_SUCCESS);
  for (GrB_Index k = 0; k < 5; ++k) {
    EXPECT_EQ(idx[k], k);
    EXPECT_EQ(vals[k], k == 2 ? 42.0 : -static_cast<double>(k + 1));
  }
  GrB_free(&v);
  GrB_free(&ctx);
}

// Overwrite-then-read: the read must return the overwriting op's value,
// not the stale pre-chain value, even when the planner eliminates the
// first write as dead.
TEST(ReadBarrier, OverwriteThenRead) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = iota_vector(6, ctx);
  GrB_Vector u = iota_vector(6, ctx);
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 6, 6, ctx), GrB_SUCCESS);
  for (GrB_Index i = 0; i < 6; ++i)
    ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, i, i), GrB_SUCCESS);
  // First write: v = A*u (identity, so v = u).  Second write overwrites
  // it wholesale: v = 3*u.  The first is dead; the read sees the second.
  ASSERT_EQ(GrB_mxv(v, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, u, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, 3.0, u,
                      GrB_NULL),
            GrB_SUCCESS);
  double x = 0.0;
  ASSERT_EQ(GrB_Vector_extractElement(&x, v, 3), GrB_SUCCESS);
  EXPECT_EQ(x, 12.0);
  GrB_free(&v);
  GrB_free(&u);
  GrB_free(&a);
  GrB_free(&ctx);
}

// Accumulate loop: each iteration reads the running value mid-queue and
// the next iteration's accumulation builds on the fully-applied state.
TEST(ReadBarrier, AccumulateLoopObservesEachStep) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = iota_vector(4, ctx);
  double expect = 2.0;  // element 1 starts at 2
  for (int round = 0; round < 5; ++round) {
    ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_PLUS_FP64, GrB_ABS_FP64, v,
                        GrB_NULL),
              GrB_SUCCESS);
    expect *= 2.0;  // v + |v| doubles positive entries
    double x = 0.0;
    ASSERT_EQ(GrB_Vector_extractElement(&x, v, 1), GrB_SUCCESS);
    EXPECT_EQ(x, expect) << "round " << round;
  }
  GrB_free(&v);
  GrB_free(&ctx);
}

// setElement interleaved with queued ops: tuples added before an op are
// folded in before it runs; tuples after it survive.  extractTuples
// (through to_ref) is the reading barrier here.
TEST(ReadBarrier, SetElementInterleaving) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 5.0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_apply(v, GrB_NULL, GrB_NULL, GrB_AINV_FP64, v, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 7.0, 1), GrB_SUCCESS);
  ref::Vec out = testutil::to_ref(v);
  ASSERT_TRUE(out.at(0).has_value());
  EXPECT_EQ(*out.at(0), -5.0);  // folded before the apply
  ASSERT_TRUE(out.at(1).has_value());
  EXPECT_EQ(*out.at(1), 7.0);  // added after it, untouched
  GrB_free(&v);
  GrB_free(&ctx);
}

// A read on one container must not disturb another container's pending
// queue: u's chain stays queued (and correct) across reads of v.
TEST(ReadBarrier, ReadIsPerContainer) {
  GrB_Context ctx = nonblocking_ctx();
  GrB_Vector v = iota_vector(4, ctx);
  GrB_Vector u = iota_vector(4, ctx);
  ASSERT_EQ(GrB_apply(u, GrB_NULL, GrB_NULL, GrB_AINV_FP64, u, GrB_NULL),
            GrB_SUCCESS);
  double x = 0.0;
  ASSERT_EQ(GrB_Vector_extractElement(&x, v, 0), GrB_SUCCESS);
  EXPECT_EQ(x, 1.0);
  ASSERT_EQ(GrB_Vector_extractElement(&x, u, 0), GrB_SUCCESS);
  EXPECT_EQ(x, -1.0);
  GrB_free(&v);
  GrB_free(&u);
  GrB_free(&ctx);
}

}  // namespace
