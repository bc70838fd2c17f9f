// Typed-vs-generic differential oracle for the vector op layer.
//
// Every hot (operator, domain) pair has a typed runner that inlines the
// operator's scalar body (ops/op_apply.hpp); set_fastpath_enabled(false)
// forces the generic function-pointer runner through the same kernels.
// This harness runs one op program per (domain, binary op, operand
// shapes) -- eWiseAdd/eWiseMult over distinct and self operands, apply
// (unary, bind1st, bind2nd), reduce to scalar (monoid and plain binary
// op), scalar assign to GrB_ALL with and without an accumulator -- at
// {1, 4} threads, once per path, and requires bitwise-identical
// results.  Operand values include NaN, +-Inf, -0.0, INT64 extremes (for
// overflow, x/0 and INT64_MIN/-1) and both booleans.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/global.hpp"
#include "ops/op_apply.hpp"
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

struct FastpathGuard {
  bool saved;
  explicit FastpathGuard(bool on) : saved(grb::fastpath_enabled()) {
    grb::set_fastpath_enabled(on);
  }
  ~FastpathGuard() { grb::set_fastpath_enabled(saved); }
};

GrB_Context make_ctx(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

// Above one reduce block (4096) and several value tiles.
constexpr GrB_Index kN = 4500;

enum class Shape { kFull, kPartial, kEmpty };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kFull: return "full";
    case Shape::kPartial: return "partial";
    default: return "empty";
  }
}

// Per-domain test data: the value pool operands draw from, the scalars
// bound or assigned, the domain's operators and monoids.
template <class T>
struct Domain;

template <>
struct Domain<double> {
  static GrB_Type type() { return GrB_FP64; }
  static std::vector<double> pool() {
    const double inf = std::numeric_limits<double>::infinity();
    return {std::numeric_limits<double>::quiet_NaN(), inf, -inf, -0.0, 0.0,
            1.0, -1.0, 2.5, -3.75, 1e308, -1e308, 5e-324, 0.1};
  }
  static std::vector<double> scalars() {
    return {std::numeric_limits<double>::quiet_NaN(), -0.0, 2.5};
  }
  static std::vector<GrB_BinaryOp> binops() {
    return {GrB_PLUS_FP64,  GrB_MINUS_FP64,  GrB_TIMES_FP64, GrB_DIV_FP64,
            GrB_FIRST_FP64, GrB_SECOND_FP64, GrB_MIN_FP64,   GrB_MAX_FP64};
  }
  static std::vector<GrB_UnaryOp> unops() {
    return {GrB_ABS_FP64, GrB_AINV_FP64, GrB_IDENTITY_FP64};
  }
  static GrB_Monoid monoid(GrB_BinaryOp op) {
    if (op == GrB_PLUS_FP64) return GrB_PLUS_MONOID_FP64;
    if (op == GrB_TIMES_FP64) return GrB_TIMES_MONOID_FP64;
    if (op == GrB_MIN_FP64) return GrB_MIN_MONOID_FP64;
    if (op == GrB_MAX_FP64) return GrB_MAX_MONOID_FP64;
    return nullptr;
  }
};

template <>
struct Domain<int64_t> {
  static GrB_Type type() { return GrB_INT64; }
  static std::vector<int64_t> pool() {
    const int64_t lo = std::numeric_limits<int64_t>::min();
    const int64_t hi = std::numeric_limits<int64_t>::max();
    return {lo, hi, -1, 0, 1, 2, -2, 7, int64_t{1} << 40, -(int64_t{1} << 40),
            3};
  }
  static std::vector<int64_t> scalars() {
    return {-1, 0, std::numeric_limits<int64_t>::min()};
  }
  static std::vector<GrB_BinaryOp> binops() {
    return {GrB_PLUS_INT64,  GrB_MINUS_INT64,  GrB_TIMES_INT64,
            GrB_DIV_INT64,   GrB_FIRST_INT64,  GrB_SECOND_INT64,
            GrB_MIN_INT64,   GrB_MAX_INT64};
  }
  static std::vector<GrB_UnaryOp> unops() {
    return {GrB_ABS_INT64, GrB_AINV_INT64, GrB_IDENTITY_INT64};
  }
  static GrB_Monoid monoid(GrB_BinaryOp op) {
    if (op == GrB_PLUS_INT64) return GrB_PLUS_MONOID_INT64;
    if (op == GrB_TIMES_INT64) return GrB_TIMES_MONOID_INT64;
    if (op == GrB_MIN_INT64) return GrB_MIN_MONOID_INT64;
    if (op == GrB_MAX_INT64) return GrB_MAX_MONOID_INT64;
    return nullptr;
  }
};

template <>
struct Domain<bool> {
  static GrB_Type type() { return GrB_BOOL; }
  static std::vector<bool> pool() { return {true, false}; }
  static std::vector<bool> scalars() { return {true, false}; }
  static std::vector<GrB_BinaryOp> binops() {
    return {GrB_PLUS_BOOL,  GrB_MINUS_BOOL,  GrB_TIMES_BOOL, GrB_DIV_BOOL,
            GrB_FIRST_BOOL, GrB_SECOND_BOOL, GrB_MIN_BOOL,   GrB_MAX_BOOL};
  }
  static std::vector<GrB_UnaryOp> unops() {
    return {GrB_ABS_BOOL, GrB_AINV_BOOL, GrB_IDENTITY_BOOL, GrB_LNOT};
  }
  // BOOL PLUS/MAX are LOR, TIMES/MIN are LAND, MINUS is LXOR.
  static GrB_Monoid monoid(GrB_BinaryOp op) {
    if (op == GrB_PLUS_BOOL || op == GrB_MAX_BOOL) return GrB_LOR_MONOID_BOOL;
    if (op == GrB_TIMES_BOOL || op == GrB_MIN_BOOL)
      return GrB_LAND_MONOID_BOOL;
    if (op == GrB_MINUS_BOOL) return GrB_LXOR_MONOID_BOOL;
    return nullptr;
  }
};

template <class T>
GrB_Vector make_operand(Shape shape, uint64_t seed, GrB_Context ctx) {
  GrB_Vector v = nullptr;
  EXPECT_EQ(GrB_Vector_new(&v, Domain<T>::type(), kN, ctx), GrB_SUCCESS);
  if (shape == Shape::kEmpty) return v;
  const std::vector<T> pool = Domain<T>::pool();
  grb::Prng rng(seed);
  std::vector<GrB_Index> idx;
  std::unique_ptr<T[]> vals(new T[kN]);
  for (GrB_Index i = 0; i < kN; ++i) {
    if (shape == Shape::kPartial && rng.below(2) == 0) continue;
    vals[idx.size()] = pool[rng.below(pool.size())];
    idx.push_back(i);
  }
  EXPECT_EQ(GrB_Vector_build(v, idx.data(), vals.get(), idx.size(), GrB_NULL),
            GrB_SUCCESS);
  return v;
}

// Appends a vector's tuples (count, indices, value bytes) to `out`.
template <class T>
void record(std::string* out, GrB_Vector v) {
  GrB_Index n = 0;
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  std::vector<GrB_Index> idx(n);
  std::unique_ptr<T[]> vals(new T[n + 1]);
  GrB_Index got = n;
  ASSERT_EQ(GrB_Vector_extractTuples(idx.data(), vals.get(), &got, v),
            GrB_SUCCESS);
  out->append(reinterpret_cast<const char*>(&got), sizeof(got));
  out->append(reinterpret_cast<const char*>(idx.data()),
              got * sizeof(GrB_Index));
  out->append(reinterpret_cast<const char*>(vals.get()), got * sizeof(T));
}

template <class T>
void record_value(std::string* out, T x) {
  out->append(reinterpret_cast<const char*>(&x), sizeof(T));
}

// Every result of the op program, as tagged byte strings.
using Results = std::vector<std::pair<std::string, std::string>>;

template <class T>
Results run_program(GrB_BinaryOp op, Shape us, Shape vs, int nthreads,
                    bool fast) {
  FastpathGuard fp(fast);
  GrB_Context ctx = make_ctx(nthreads);
  const GrB_Type type = Domain<T>::type();
  GrB_Vector u = make_operand<T>(us, 101, ctx);
  GrB_Vector v = make_operand<T>(vs, 202, ctx);
  const std::vector<T> scalars = Domain<T>::scalars();
  Results res;
  auto fresh = [&] {
    GrB_Vector w = nullptr;
    EXPECT_EQ(GrB_Vector_new(&w, type, kN, ctx), GrB_SUCCESS);
    return w;
  };
  auto keep = [&](const char* tag, GrB_Vector w) {
    std::string bytes;
    record<T>(&bytes, w);
    res.emplace_back(tag, std::move(bytes));
    GrB_free(&w);
  };

  // eWise over distinct operands.
  GrB_Vector w = fresh();
  EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, op, u, v, GrB_NULL),
            GrB_SUCCESS);
  keep("eWiseAdd", w);
  w = fresh();
  EXPECT_EQ(GrB_eWiseMult(w, GrB_NULL, GrB_NULL, op, u, v, GrB_NULL),
            GrB_SUCCESS);
  keep("eWiseMult", w);

  // Self-operand eWise and apply calls queued back to back on w.
  EXPECT_EQ(GrB_Vector_dup(&w, u), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, op, w, v, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, op, w, scalars[0], GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, Domain<T>::unops()[0], w,
                      GrB_NULL),
            GrB_SUCCESS);
  keep("zip-add+bind2nd+unary", w);
  EXPECT_EQ(GrB_Vector_dup(&w, v), GrB_SUCCESS);
  EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, op, scalars[1], w, GrB_NULL),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseMult(w, GrB_NULL, GrB_NULL, op, u, w, GrB_NULL),
            GrB_SUCCESS);
  keep("bind1st+zip-mult", w);
  EXPECT_EQ(GrB_Vector_dup(&w, u), GrB_SUCCESS);
  EXPECT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, op, w, w, GrB_NULL),
            GrB_SUCCESS);
  keep("self-map", w);

  // apply from an input snapshot: unary, bind1st, bind2nd.
  for (GrB_UnaryOp un : Domain<T>::unops()) {
    w = fresh();
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, un, u, GrB_NULL), GrB_SUCCESS);
    keep("apply-unary", w);
  }
  for (T s : scalars) {
    w = fresh();
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, op, s, u, GrB_NULL),
              GrB_SUCCESS);
    keep("apply-bind1st", w);
    w = fresh();
    EXPECT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, op, u, s, GrB_NULL),
              GrB_SUCCESS);
    keep("apply-bind2nd", w);
  }

  // Reduce to scalar: plain binary op (GrB_Scalar), and the monoid when
  // the op has one (typed output and GrB_Scalar).
  {
    std::string bytes;
    GrB_Scalar s = nullptr;
    EXPECT_EQ(GrB_Scalar_new(&s, type, ctx), GrB_SUCCESS);
    EXPECT_EQ(GrB_reduce(s, GrB_NULL, op, u, GrB_NULL), GrB_SUCCESS);
    GrB_Index present = 0;
    EXPECT_EQ(GrB_Scalar_nvals(&present, s), GrB_SUCCESS);
    record_value(&bytes, present);
    if (present != 0) {
      T x{};
      EXPECT_EQ(GrB_Scalar_extractElement(&x, s), GrB_SUCCESS);
      record_value(&bytes, x);
    }
    if (GrB_Monoid m = Domain<T>::monoid(op)) {
      T x{};
      EXPECT_EQ(GrB_reduce(&x, GrB_NULL, m, u, GrB_NULL), GrB_SUCCESS);
      record_value(&bytes, x);
      EXPECT_EQ(GrB_reduce(s, GrB_NULL, m, v, GrB_NULL), GrB_SUCCESS);
      EXPECT_EQ(GrB_Scalar_nvals(&present, s), GrB_SUCCESS);
      if (present != 0) {
        EXPECT_EQ(GrB_Scalar_extractElement(&x, s), GrB_SUCCESS);
        record_value(&bytes, x);
      }
    }
    GrB_free(&s);
    res.emplace_back("reduce", std::move(bytes));
  }

  // Scalar assign to GrB_ALL, plain and accumulated.
  for (T s : scalars) {
    EXPECT_EQ(GrB_Vector_dup(&w, u), GrB_SUCCESS);
    EXPECT_EQ(GrB_assign(w, GrB_NULL, GrB_NULL, s, GrB_ALL, kN, GrB_NULL),
              GrB_SUCCESS);
    keep("assign", w);
    EXPECT_EQ(GrB_Vector_dup(&w, u), GrB_SUCCESS);
    EXPECT_EQ(GrB_assign(w, GrB_NULL, op, s, GrB_ALL, kN, GrB_NULL),
              GrB_SUCCESS);
    keep("assign-accum", w);
  }

  GrB_free(&u);
  GrB_free(&v);
  GrB_free(&ctx);
  return res;
}

template <class T>
void check_domain() {
  ThresholdGuard threshold;
  const std::pair<Shape, Shape> shapes[] = {
      {Shape::kFull, Shape::kFull},       {Shape::kFull, Shape::kPartial},
      {Shape::kPartial, Shape::kFull},    {Shape::kPartial, Shape::kPartial},
      {Shape::kPartial, Shape::kEmpty},   {Shape::kEmpty, Shape::kFull}};
  for (GrB_BinaryOp op : Domain<T>::binops()) {
    for (auto [us, vs] : shapes) {
      for (int nthreads : {1, 4}) {
        Results typed = run_program<T>(op, us, vs, nthreads, true);
        Results generic = run_program<T>(op, us, vs, nthreads, false);
        ASSERT_EQ(typed.size(), generic.size());
        for (size_t k = 0; k < typed.size(); ++k) {
          EXPECT_TRUE(typed[k].second == generic[k].second)
              << op->name() << " " << typed[k].first << " #" << k
              << " u=" << shape_name(us) << " v=" << shape_name(vs)
              << " threads=" << nthreads;
        }
      }
    }
  }
}

TEST(TypedKernelDiff, Fp64MatchesGenericBitwise) { check_domain<double>(); }
TEST(TypedKernelDiff, Int64MatchesGenericBitwise) { check_domain<int64_t>(); }
TEST(TypedKernelDiff, BoolMatchesGenericBitwise) { check_domain<bool>(); }

// FP32 operands of FP64 operators are cast on the way in, so no typed
// runner applies: the kernels must take the generic runner and still
// agree with it (and with the arithmetic) under either setting.
TEST(TypedKernelDiff, CastingOperandsFallBackToGeneric) {
  ThresholdGuard threshold;
  for (int nthreads : {1, 4}) {
    std::string bytes[2];
    for (bool fast : {true, false}) {
      FastpathGuard fp(fast);
      GrB_Context ctx = make_ctx(nthreads);
      GrB_Vector u = nullptr, v = nullptr, w = nullptr;
      ASSERT_EQ(GrB_Vector_new(&u, GrB_FP32, kN, ctx), GrB_SUCCESS);
      ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, kN, ctx), GrB_SUCCESS);
      ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, kN, ctx), GrB_SUCCESS);
      ASSERT_EQ(GrB_assign(u, GrB_NULL, GrB_NULL, 0.1f, GrB_ALL, kN,
                           GrB_NULL),
                GrB_SUCCESS);
      ASSERT_EQ(GrB_assign(v, GrB_NULL, GrB_NULL, 0.2, GrB_ALL, kN,
                           GrB_NULL),
                GrB_SUCCESS);
      std::string& out = bytes[fast ? 0 : 1];
      ASSERT_EQ(GrB_eWiseAdd(w, GrB_NULL, GrB_NULL, GrB_PLUS_FP64, u, v,
                             GrB_NULL),
                GrB_SUCCESS);
      double x = 0.0;
      ASSERT_EQ(GrB_Vector_extractElement(&x, w, 7), GrB_SUCCESS);
      EXPECT_EQ(x, static_cast<double>(0.1f) + 0.2);
      record<double>(&out, w);
      ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_TIMES_FP64, u, 3.0,
                          GrB_NULL),
                GrB_SUCCESS);
      record<double>(&out, w);
      ASSERT_EQ(GrB_reduce(&x, GrB_NULL, GrB_PLUS_MONOID_FP64, u, GrB_NULL),
                GrB_SUCCESS);
      record_value(&out, x);
      ASSERT_EQ(GrB_assign(u, GrB_NULL, GrB_PLUS_FP64, 0.25, GrB_ALL, kN,
                           GrB_NULL),
                GrB_SUCCESS);
      record<float>(&out, u);
      GrB_free(&u);
      GrB_free(&v);
      GrB_free(&w);
      GrB_free(&ctx);
    }
    EXPECT_TRUE(bytes[0] == bytes[1]) << "threads=" << nthreads;
  }
}

}  // namespace
