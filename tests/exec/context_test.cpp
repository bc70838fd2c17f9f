// GrB_Context (paper §IV): hierarchy, resource resolution, object
// homing, context agreement rules, and lifecycle.
#include <gtest/gtest.h>

#include "exec/context.hpp"
#include "tests/grb_test_util.hpp"

namespace {

TEST(ContextTest, TopLevelExists) {
  ASSERT_NE(grb::top_context(), nullptr);
  EXPECT_EQ(grb::top_context()->parent(), nullptr);
  EXPECT_EQ(grb::top_context()->depth(), 0);
  EXPECT_EQ(grb::top_context()->mode(), grb::Mode::kNonblocking);
}

TEST(ContextTest, NestedCreation) {
  GrB_ContextConfig cfg;
  cfg.nthreads = 3;
  GrB_Context ctx = nullptr;
  ASSERT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  EXPECT_EQ(ctx->parent(), grb::top_context());
  EXPECT_EQ(ctx->depth(), 1);
  EXPECT_EQ(ctx->effective_nthreads(), 3);
  // A grandchild inheriting threads (nthreads == 0).
  GrB_Context inner = nullptr;
  ASSERT_EQ(GrB_Context_new(&inner, GrB_BLOCKING, ctx, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(inner->parent(), ctx);
  EXPECT_EQ(inner->depth(), 2);
  EXPECT_EQ(inner->effective_nthreads(), 3);  // inherited from parent
  EXPECT_EQ(inner->mode(), grb::Mode::kBlocking);
  EXPECT_EQ(GrB_free(&inner), GrB_SUCCESS);
  EXPECT_EQ(GrB_free(&ctx), GrB_SUCCESS);
}

TEST(ContextTest, CannotFreeParentWithLiveChildren) {
  GrB_Context parent = nullptr, child = nullptr;
  ASSERT_EQ(GrB_Context_new(&parent, GrB_NONBLOCKING, GrB_NULL, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Context_new(&child, GrB_NONBLOCKING, parent, GrB_NULL),
            GrB_SUCCESS);
  GrB_Context p = parent;
  EXPECT_EQ(GrB_free(&p), GrB_INVALID_VALUE);  // documented rule
  EXPECT_EQ(GrB_free(&child), GrB_SUCCESS);
  EXPECT_EQ(GrB_free(&parent), GrB_SUCCESS);
}

TEST(ContextTest, DoubleFreeIsUninitialized) {
  GrB_Context ctx = nullptr;
  ASSERT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, GrB_NULL),
            GrB_SUCCESS);
  GrB_Context alias = ctx;
  EXPECT_EQ(GrB_free(&ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_free(&alias), GrB_UNINITIALIZED_OBJECT);
}

TEST(ContextTest, ObjectsMustShareContext) {
  // Paper §IV: "We require that all the GraphBLAS matrices and Vectors in
  // a GraphBLAS method share a context."
  GrB_Context ctx = nullptr;
  ASSERT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, GrB_NULL),
            GrB_SUCCESS);
  GrB_Vector in_top = nullptr, in_ctx = nullptr, out = nullptr;
  ASSERT_EQ(GrB_Vector_new(&in_top, GrB_FP64, 4), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&in_ctx, GrB_FP64, 4, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&out, GrB_FP64, 4), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(out, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, in_top,
                         in_ctx, GrB_NULL),
            GrB_INVALID_VALUE);
  // Re-homing fixes it.
  ASSERT_EQ(GrB_Context_switch(in_ctx, GrB_NULL), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(out, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, in_top,
                         in_ctx, GrB_NULL),
            GrB_SUCCESS);
  GrB_free(&in_top);
  GrB_free(&in_ctx);
  GrB_free(&out);
  GrB_free(&ctx);
}

TEST(ContextTest, BlockingContextExecutesEagerly) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8, testutil::blocking_context()),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 2.0, 1), GrB_SUCCESS);
  // In blocking mode the sequence is always resolved: no pending work.
  EXPECT_FALSE(v->has_pending_ops());
  GrB_free(&v);
}

TEST(ContextTest, NonblockingContextDefers) {
  GrB_Vector v = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 2.0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, v, v,
                         GrB_NULL),
            GrB_SUCCESS);
  // The eWiseAdd is sitting in w's sequence until completion forces it.
  EXPECT_TRUE(w->has_pending_ops());
  ASSERT_EQ(GrB_wait(w, GrB_COMPLETE), GrB_SUCCESS);
  EXPECT_FALSE(w->has_pending_ops());
  double out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, w, 1), GrB_SUCCESS);
  EXPECT_EQ(out, 4.0);
  GrB_free(&v);
  GrB_free(&w);
}

TEST(ContextTest, ParallelForPartitionIsExact) {
  GrB_ContextConfig cfg;
  cfg.nthreads = 4;
  GrB_Context ctx = nullptr;
  ASSERT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  std::vector<std::atomic<int>> hits(1000);
  std::atomic<int> pieces{0};
  ctx->parallel_for(0, 1000, [&](grb::Index lo, grb::Index hi) {
    pieces.fetch_add(1, std::memory_order_relaxed);
    for (grb::Index i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The grainless loop splits per thread, not by a fixed row count.
  EXPECT_GT(pieces.load(), 1);
  GrB_free(&ctx);
}

TEST(ContextTest, InvalidArguments) {
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(nullptr, GrB_NONBLOCKING, GrB_NULL, GrB_NULL),
            GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Context_new(&ctx, static_cast<GrB_Mode>(7), GrB_NULL,
                            GrB_NULL),
            GrB_INVALID_VALUE);
  GrB_Context null_ctx = nullptr;
  EXPECT_EQ(GrB_free(&null_ctx), GrB_NULL_POINTER);
}

}  // namespace
