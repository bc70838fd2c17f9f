// Statically typed semiring kernels for hot (semiring, type) pairs, and
// the fast-path switch every typed kernel honors.
//
// The paper's Motivation (§II) observes that an opaque function-pointer
// call per scalar operation is a real performance penalty in C API
// implementations.  Kernels here instantiate the same mxm/vxm/mxv
// algorithms with inlined arithmetic; the dispatcher falls back to the
// generic path for everything else.  The vector op layer makes the same
// choice per call through with_binary_runner / with_unary_runner
// (ops/op_apply.hpp).  bench_m2_fastpath_ablation measures the
// difference, reproducing the claim.
#include <algorithm>

#include "ops/mxm.hpp"

namespace grb {
namespace {

std::atomic<bool> g_fastpath_enabled{true};
std::atomic<int> g_mxm_strategy{0};  // MxmStrategy::kAuto

// True when the semiring is exactly <add, mul> over T with no casts.
template <class T>
bool matches(const Semiring* s, BinOpCode add, BinOpCode mul,
             const Type* atype, const Type* btype) {
  const Type* t = type_of<T>();
  return s->add()->op()->opcode() == add && s->mul()->opcode() == mul &&
         s->mul()->ztype() == t && s->mul()->xtype() == t &&
         s->mul()->ytype() == t && atype == t && btype == t;
}

// Dispatches one (add, mul, T) combination for all three kernels via a
// caller-supplied functor so each kernel body is instantiated once per
// combination.
template <class Invoke>
auto dispatch(const Semiring* s, const Type* atype, const Type* btype,
              Invoke&& invoke)
    -> decltype(invoke(TypedSemiringRunner<double, BinOpCode::kPlus,
                                   BinOpCode::kTimes>{})) {
  using R = decltype(invoke(
      TypedSemiringRunner<double, BinOpCode::kPlus, BinOpCode::kTimes>{}));
#define GRB_TRY_COMBO(T, ADD, MUL)                                   \
  if (matches<T>(s, BinOpCode::ADD, BinOpCode::MUL, atype, btype))   \
    return invoke(TypedSemiringRunner<T, BinOpCode::ADD, BinOpCode::MUL>{});
  GRB_TRY_COMBO(double, kPlus, kTimes)
  GRB_TRY_COMBO(float, kPlus, kTimes)
  GRB_TRY_COMBO(int64_t, kPlus, kTimes)
  GRB_TRY_COMBO(int32_t, kPlus, kTimes)
  GRB_TRY_COMBO(uint64_t, kPlus, kTimes)
  GRB_TRY_COMBO(double, kMin, kPlus)
  GRB_TRY_COMBO(int64_t, kMin, kPlus)
  GRB_TRY_COMBO(int32_t, kMin, kPlus)
  GRB_TRY_COMBO(double, kMax, kPlus)
  GRB_TRY_COMBO(int64_t, kMax, kPlus)
  GRB_TRY_COMBO(double, kMin, kSecond)
  GRB_TRY_COMBO(double, kMin, kFirst)
  GRB_TRY_COMBO(double, kPlus, kFirst)
  GRB_TRY_COMBO(int64_t, kPlus, kFirst)
  GRB_TRY_COMBO(double, kPlus, kSecond)
  GRB_TRY_COMBO(int64_t, kPlus, kSecond)
  GRB_TRY_COMBO(int64_t, kPlus, kOneb)
  GRB_TRY_COMBO(double, kPlus, kOneb)
  GRB_TRY_COMBO(bool, kLor, kLand)
#undef GRB_TRY_COMBO
  return R{};  // null shared_ptr: no fast kernel registered
}

}  // namespace

MxmStrategy mxm_strategy() {
  return static_cast<MxmStrategy>(
      g_mxm_strategy.load(std::memory_order_relaxed));
}

void set_mxm_strategy(MxmStrategy strategy) {
  g_mxm_strategy.store(static_cast<int>(strategy),
                       std::memory_order_relaxed);
}

bool fastpath_enabled() {
  return g_fastpath_enabled.load(std::memory_order_relaxed);
}

void set_fastpath_enabled(bool enabled) {
  g_fastpath_enabled.store(enabled, std::memory_order_relaxed);
}

std::shared_ptr<MatrixData> fastpath_mxm(Context* ctx, const MatrixData& a,
                                         const MatrixData& b,
                                         const Semiring* s,
                                         const SpgemmRowCosts& costs) {
  if (!fastpath_enabled()) return nullptr;
  // The typed kernels instantiate the same adaptive engine (and its
  // accumulator templates) as the generic path — only the scalar ops
  // are statically inlined.
  return dispatch(s, a.type, b.type, [&](auto runner) {
    return spgemm_mxm(ctx, a, b, s->mul()->ztype(), costs,
                      [runner] { return runner; });
  });
}

std::shared_ptr<MatrixData> fastpath_masked_saxpy_mxm(
    Context* ctx, const MatrixData& a, const MatrixData& b,
    const MatrixData& mask, const Semiring* s, const SpgemmRowCosts& costs) {
  if (!fastpath_enabled()) return nullptr;
  return dispatch(s, a.type, b.type, [&](auto runner) {
    return mxm_masked_saxpy_kernel(ctx, a, b, mask, s->mul()->ztype(), costs,
                                   [runner] { return runner; });
  });
}

std::shared_ptr<MatrixData> fastpath_masked_dot_mxm(
    Context* ctx, const MatrixData& a, const MatrixData& bt,
    const MatrixData& mask, const Semiring* s, uint64_t* work) {
  if (!fastpath_enabled()) return nullptr;
  return dispatch(s, a.type, bt.type, [&](auto runner) {
    return mxm_masked_dot_kernel(ctx, a, bt, mask, s->mul()->ztype(),
                                 [runner] { return runner; }, work);
  });
}

std::shared_ptr<VectorData> fastpath_vxm(const VectorData& u,
                                         const MatrixData& a,
                                         const Semiring* s) {
  if (!fastpath_enabled()) return nullptr;
  return dispatch(s, u.type, a.type, [&](auto runner) {
    return vxm_spa(u, a, s->mul()->ztype(), [runner] { return runner; });
  });
}

std::shared_ptr<VectorData> fastpath_vxm_dot(Context* ctx,
                                             const VectorData& u,
                                             const MatrixData& at,
                                             const Semiring* s) {
  if (!fastpath_enabled()) return nullptr;
  return dispatch(s, u.type, at.type, [&](auto runner) {
    return row_dot_kernel<true>(ctx, at, u, s->mul()->ztype(),
                                [runner] { return runner; });
  });
}

std::shared_ptr<VectorData> fastpath_mxv(Context* ctx, const MatrixData& a,
                                         const VectorData& u,
                                         const Semiring* s) {
  if (!fastpath_enabled()) return nullptr;
  return dispatch(s, a.type, u.type, [&](auto runner) {
    return row_dot_kernel<false>(ctx, a, u, s->mul()->ztype(),
                                 [runner] { return runner; });
  });
}

}  // namespace grb
