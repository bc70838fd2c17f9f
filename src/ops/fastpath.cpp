// Statically typed semiring kernels for hot (semiring, type) pairs.
//
// The paper's Motivation (§II) observes that an opaque function-pointer
// call per scalar operation is a real performance penalty in C API
// implementations.  Kernels here instantiate the same mxm/vxm/mxv
// algorithms with inlined arithmetic; the dispatcher falls back to the
// generic path for everything else.  bench_m2_fastpath_ablation measures
// the difference, reproducing the claim.
#include <algorithm>

#include "ops/mxm.hpp"

namespace grb {
namespace {

std::atomic<bool> g_fastpath_enabled{true};
std::atomic<int> g_mxm_strategy{0};  // MxmStrategy::kAuto

template <class T>
struct MulTimes {
  T operator()(T a, T b) const { return static_cast<T>(a * b); }
};
template <class T>
struct MulPlus {
  T operator()(T a, T b) const { return static_cast<T>(a + b); }
};
template <class T>
struct MulSecond {
  T operator()(T, T b) const { return b; }
};
template <class T>
struct MulFirst {
  T operator()(T a, T) const { return a; }
};
template <class T>
struct MulLand {
  T operator()(T a, T b) const { return a && b; }
};
template <class T>
struct AddPlus {
  T operator()(T a, T b) const { return static_cast<T>(a + b); }
};
template <class T>
struct AddMin {
  T operator()(T a, T b) const { return a < b ? a : b; }
};
template <class T>
struct AddMax {
  T operator()(T a, T b) const { return a > b ? a : b; }
};
template <class T>
struct AddLor {
  T operator()(T a, T b) const { return a || b; }
};

template <class T, class Mul, class Add>
class TypedRunner {
 public:
  void mul(void* z, const void* a, const void* b) {
    T x, y;
    std::memcpy(&x, a, sizeof(T));
    std::memcpy(&y, b, sizeof(T));
    T r = Mul()(x, y);
    std::memcpy(z, &r, sizeof(T));
  }
  void add(void* acc, const void* z) {
    T x, y;
    std::memcpy(&x, acc, sizeof(T));
    std::memcpy(&y, z, sizeof(T));
    T r = Add()(x, y);
    std::memcpy(acc, &r, sizeof(T));
  }
};

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
              Invoke&& invoke) -> decltype(invoke(TypedRunner<double, MulTimes<double>, AddPlus<double>>{})) {
  using R = decltype(invoke(
      TypedRunner<double, MulTimes<double>, AddPlus<double>>{}));
#define GRB_TRY_COMBO(T, ADDC, MULC, ADDF, MULF)                        \
  if (matches<T>(s, BinOpCode::ADDC, BinOpCode::MULC, atype, btype))    \
    return invoke(TypedRunner<T, MULF<T>, ADDF<T>>{});
  GRB_TRY_COMBO(double, kPlus, kTimes, AddPlus, MulTimes)
  GRB_TRY_COMBO(float, kPlus, kTimes, AddPlus, MulTimes)
  GRB_TRY_COMBO(int64_t, kPlus, kTimes, AddPlus, MulTimes)
  GRB_TRY_COMBO(int32_t, kPlus, kTimes, AddPlus, MulTimes)
  GRB_TRY_COMBO(uint64_t, kPlus, kTimes, AddPlus, MulTimes)
  GRB_TRY_COMBO(double, kMin, kPlus, AddMin, MulPlus)
  GRB_TRY_COMBO(int64_t, kMin, kPlus, AddMin, MulPlus)
  GRB_TRY_COMBO(int32_t, kMin, kPlus, AddMin, MulPlus)
  GRB_TRY_COMBO(double, kMax, kPlus, AddMax, MulPlus)
  GRB_TRY_COMBO(int64_t, kMax, kPlus, AddMax, MulPlus)
  GRB_TRY_COMBO(double, kMin, kSecond, AddMin, MulSecond)
  GRB_TRY_COMBO(double, kMin, kFirst, AddMin, MulFirst)
  GRB_TRY_COMBO(double, kPlus, kSecond, AddPlus, MulSecond)
  GRB_TRY_COMBO(bool, kLor, kLand, AddLor, MulLand)
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

std::shared_ptr<MatrixData> fastpath_masked_dot_mxm(Context* ctx,
                                                    const MatrixData& a,
                                                    const MatrixData& bt,
                                                    const MatrixData& mask,
                                                    const Semiring* s) {
  if (!fastpath_enabled()) return nullptr;
  return dispatch(s, a.type, bt.type, [&](auto runner) {
    return mxm_masked_dot_kernel(ctx, a, bt, mask, s->mul()->ztype(),
                                 [runner] { return runner; });
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
    return vxm_dot_kernel(ctx, u, at, s->mul()->ztype(),
                          [runner] { return runner; });
  });
}

std::shared_ptr<VectorData> fastpath_mxv(Context* ctx, const MatrixData& a,
                                         const VectorData& u,
                                         const Semiring* s) {
  if (!fastpath_enabled()) return nullptr;
  return dispatch(s, a.type, u.type, [&](auto runner) {
    return mxv_kernel(ctx, a, u, s->mul()->ztype(),
                      [runner] { return runner; });
  });
}

}  // namespace grb
