// Operator runners: the per-scalar layer every kernel calls (internal).
//
// GraphBLAS operations typecast stored values into the operator's input
// domains and the operator's result into the output domain.  A kernel is
// written once, as a template over a runner, and instantiated twice:
//
//  * generic runners (Caster, BinRunner, UnRunner) hoist the cast-function
//    lookups out of the inner loops and call the operator through its
//    C-ABI function pointer — the one opaque call per scalar the paper's
//    §II names as the cost of the C API;
//  * typed runners (TypedBinRunner, TypedUnRunner) inline the operator's
//    scalar body from core/scalar_ops.hpp, for the hot (opcode, domain)
//    pairs where no cast is needed.
//
// with_binary_runner / with_unary_runner pick one per call.  Both runner
// kinds evaluate the same scalar definition, so the choice never changes
// a result bit; set_fastpath_enabled(false) forces the generic runners.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <type_traits>

#include "core/binary_op.hpp"
#include "core/scalar_ops.hpp"
#include "core/unary_op.hpp"

namespace grb {

// Global switch (ops/fastpath.cpp) so benches and differential tests can
// force the generic function-pointer path for every kernel.
bool fastpath_enabled();
void set_fastpath_enabled(bool enabled);

// dst (dst_type) <- src (src_type); memcpy when identical.
class Caster {
 public:
  Caster(const Type* dst_type, const Type* src_type)
      : fn_(cast_fn(dst_type, src_type)),
        size_(dst_type->size()),
        src_size_(src_type->size()),
        same_(dst_type == src_type) {}

  void run(void* dst, const void* src) const {
    if (fn_ != nullptr) {
      fn_(dst, src);
    } else {
      std::memcpy(dst, src, size_);
    }
  }

  // Casts n packed values.
  void run_n(void* dst, const void* src, size_t n) const {
    if (same_) {
      std::memcpy(dst, src, n * size_);
      return;
    }
    auto* d = static_cast<std::byte*>(dst);
    const auto* s = static_cast<const std::byte*>(src);
    for (size_t k = 0; k < n; ++k) run(d + k * size_, s + k * src_size_);
  }

 private:
  CastFn fn_;
  size_t size_, src_size_;
  bool same_;
};

// Binary runner interface (BinRunner and TypedBinRunner), over values
// packed at their domains' strides:
//   run(z, x, y)            z = op(cast(x), cast(y))
//   run_n(z, x, y, n)       the same over n aligned entries
//   bind1st_n(z, s, y, n)   z[k] = op(s, cast(y[k])), s in op's x domain
//   bind2nd_n(z, x, s, n)   z[k] = op(cast(x[k]), s), s in op's y domain
//   x_to_z(z, x), y_to_z(z, y)
//                           a lone operand cast into op's z domain (the
//                           single-sided entries of eWiseAdd, the seed of
//                           a fold)
//   fold_n(acc, y, n, term) acc = op(acc, cast(y[k])) for k < n, stopping
//                           before a step once acc's bytes equal *term
//                           (term == nullptr: never); acc in op's z domain
class BinRunner {
 public:
  BinRunner(const BinaryOp* op, const Type* xt, const Type* yt)
      : op_(op),
        x_cast_(op->xtype(), xt),
        y_cast_(op->ytype(), yt),
        x2z_(op->ztype(), xt),
        y2z_(op->ztype(), yt),
        xb_(op->xtype()->size()),
        yb_(op->ytype()->size()),
        xs_(xt->size()),
        ys_(yt->size()),
        zs_(op->ztype()->size()) {}

  void run(void* z, const void* x, const void* y) {
    x_cast_.run(xb_.data(), x);
    y_cast_.run(yb_.data(), y);
    op_->apply(z, xb_.data(), yb_.data());
  }

  void run_n(void* z, const void* x, const void* y, size_t n) {
    for (size_t k = 0; k < n; ++k) run(zp(z, k), xp(x, k), yp(y, k));
  }

  void bind1st_n(void* z, const void* s, const void* y, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      y_cast_.run(yb_.data(), yp(y, k));
      op_->apply(zp(z, k), s, yb_.data());
    }
  }

  void bind2nd_n(void* z, const void* x, const void* s, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      x_cast_.run(xb_.data(), xp(x, k));
      op_->apply(zp(z, k), xb_.data(), s);
    }
  }

  void x_to_z(void* z, const void* x) const { x2z_.run(z, x); }
  void y_to_z(void* z, const void* y) const { y2z_.run(z, y); }

  void fold_n(void* acc, const void* y, size_t n, const void* term) {
    for (size_t k = 0; k < n; ++k) {
      if (term != nullptr && std::memcmp(acc, term, zs_) == 0) break;
      run(acc, acc, yp(y, k));
    }
  }

 private:
  void* zp(void* z, size_t k) const {
    return static_cast<std::byte*>(z) + k * zs_;
  }
  const void* xp(const void* x, size_t k) const {
    return static_cast<const std::byte*>(x) + k * xs_;
  }
  const void* yp(const void* y, size_t k) const {
    return static_cast<const std::byte*>(y) + k * ys_;
  }

  const BinaryOp* op_;
  Caster x_cast_, y_cast_, x2z_, y2z_;
  ValueBuf xb_, yb_;
  size_t xs_, ys_, zs_;
};

// Unary runner interface (UnRunner and TypedUnRunner):
//   run(z, x)         z = op(cast(x))
//   run_n(z, x, n)    the same over n packed entries
class UnRunner {
 public:
  UnRunner(const UnaryOp* op, const Type* xt)
      : op_(op),
        x_cast_(op->xtype(), xt),
        xb_(op->xtype()->size()),
        xs_(xt->size()),
        zs_(op->ztype()->size()) {}

  void run(void* z, const void* x) {
    x_cast_.run(xb_.data(), x);
    op_->apply(z, xb_.data());
  }

  void run_n(void* z, const void* x, size_t n) {
    auto* zb = static_cast<std::byte*>(z);
    const auto* xb = static_cast<const std::byte*>(x);
    for (size_t k = 0; k < n; ++k) run(zb + k * zs_, xb + k * xs_);
  }

 private:
  const UnaryOp* op_;
  Caster x_cast_;
  ValueBuf xb_;
  size_t xs_, zs_;
};

// Typed runners: every operand already in T, the scalar body inlined.
template <BinOpCode Op, class T>
class TypedBinRunner {
 public:
  static T eval(T x, T y) { return scalar::bin_eval<Op, T>(x, y); }

  void run(void* z, const void* x, const void* y) const {
    st(z, eval(ld(x), ld(y)));
  }
  void run_n(void* z, const void* x, const void* y, size_t n) const {
    for (size_t k = 0; k < n; ++k)
      st(at(z, k), eval(ld(at(x, k)), ld(at(y, k))));
  }
  void bind1st_n(void* z, const void* s, const void* y, size_t n) const {
    const T sv = ld(s);
    for (size_t k = 0; k < n; ++k) st(at(z, k), eval(sv, ld(at(y, k))));
  }
  void bind2nd_n(void* z, const void* x, const void* s, size_t n) const {
    const T sv = ld(s);
    for (size_t k = 0; k < n; ++k) st(at(z, k), eval(ld(at(x, k)), sv));
  }
  void x_to_z(void* z, const void* x) const { std::memcpy(z, x, sizeof(T)); }
  void y_to_z(void* z, const void* y) const { std::memcpy(z, y, sizeof(T)); }

  void fold_n(void* acc, const void* y, size_t n, const void* term) const {
    T a = ld(acc);
    if (term == nullptr) {
      for (size_t k = 0; k < n; ++k) a = eval(a, ld(at(y, k)));
    } else {
      const T t = ld(term);
      for (size_t k = 0; k < n; ++k) {
        if (std::memcmp(&a, &t, sizeof(T)) == 0) break;
        a = eval(a, ld(at(y, k)));
      }
    }
    st(acc, a);
  }

 private:
  static T ld(const void* p) { return scalar::ld<T>(p); }
  static void st(void* p, T v) { scalar::st<T>(p, v); }
  static void* at(void* p, size_t k) {
    return static_cast<std::byte*>(p) + k * sizeof(T);
  }
  static const void* at(const void* p, size_t k) {
    return static_cast<const std::byte*>(p) + k * sizeof(T);
  }
};

template <UnOpCode Op, class T>
class TypedUnRunner {
 public:
  void run(void* z, const void* x) const {
    scalar::st<T>(z, scalar::un_eval<Op, T>(scalar::ld<T>(x)));
  }
  void run_n(void* z, const void* x, size_t n) const {
    auto* zb = static_cast<std::byte*>(z);
    const auto* xb = static_cast<const std::byte*>(x);
    for (size_t k = 0; k < n; ++k)
      run(zb + k * sizeof(T), xb + k * sizeof(T));
  }
};

// ---- runner selection -------------------------------------------------------
//
// body(make) is instantiated once per covered (opcode, domain) pair and
// once for the generic runner; make() builds one runner (kernels build
// one per parallel chunk, since generic runners own scratch buffers).
// Covered: binary PLUS, MINUS, TIMES, DIV, FIRST, SECOND, MIN, MAX (and
// the BOOL monoid ops LOR, LAND, LXOR, LXNOR) and unary IDENTITY, AINV,
// ABS, LNOT, over FP64, INT64 and BOOL, when the operands' stored domains
// equal the operator's (no cast anywhere).

namespace runner_detail {

template <class T, class Body, class Generic>
decltype(auto) typed_binary(BinOpCode code, Body& body, Generic& generic) {
#define GRB_TYPED_BIN(OP) \
  return body([] { return TypedBinRunner<BinOpCode::OP, T>{}; });
  using B = BinOpCode;
  if constexpr (std::is_same_v<T, bool>) {
    // BOOL arithmetic is logic (core/scalar_ops.hpp), so each opcode runs
    // the instantiation of its logical twin: same scalar body, fewer
    // copies of every kernel.
    switch (code) {
      case B::kMin: case B::kTimes: case B::kLand: GRB_TYPED_BIN(kLand)
      case B::kMax: case B::kPlus: case B::kLor: GRB_TYPED_BIN(kLor)
      case B::kMinus: case B::kLxor: GRB_TYPED_BIN(kLxor)
      case B::kDiv: case B::kFirst: GRB_TYPED_BIN(kFirst)
      case B::kSecond: GRB_TYPED_BIN(kSecond)
      case B::kLxnor: GRB_TYPED_BIN(kLxnor)
      default: return generic();
    }
  } else {
    switch (code) {
      case B::kPlus: GRB_TYPED_BIN(kPlus)
      case B::kMinus: GRB_TYPED_BIN(kMinus)
      case B::kTimes: GRB_TYPED_BIN(kTimes)
      case B::kDiv: GRB_TYPED_BIN(kDiv)
      case B::kFirst: GRB_TYPED_BIN(kFirst)
      case B::kSecond: GRB_TYPED_BIN(kSecond)
      case B::kMin: GRB_TYPED_BIN(kMin)
      case B::kMax: GRB_TYPED_BIN(kMax)
      default: return generic();
    }
  }
#undef GRB_TYPED_BIN
}

template <class T, class Body, class Generic>
decltype(auto) typed_unary(UnOpCode code, Body& body, Generic& generic) {
#define GRB_TYPED_UN(OP) \
  case UnOpCode::OP:     \
    return body([] { return TypedUnRunner<UnOpCode::OP, T>{}; });
  switch (code) {
    GRB_TYPED_UN(kIdentity)
    GRB_TYPED_UN(kAinv)
    GRB_TYPED_UN(kAbs)
    case UnOpCode::kLnot:
      if constexpr (std::is_same_v<T, bool>) {
        return body([] { return TypedUnRunner<UnOpCode::kLnot, T>{}; });
      }
      return generic();
    default:
      return generic();
  }
#undef GRB_TYPED_UN
}

}  // namespace runner_detail

// Runs body(make) with make() yielding a TypedBinRunner for covered
// pairs (x, y and z all in T, stored operands xt = yt = T), else a
// BinRunner(op, xt, yt).
template <class Body>
decltype(auto) with_binary_runner(const BinaryOp* op, const Type* xt,
                                  const Type* yt, Body&& body) {
  auto generic = [&]() -> decltype(auto) {
    return body([op, xt, yt] { return BinRunner(op, xt, yt); });
  };
  const Type* t = op->xtype();
  if (!fastpath_enabled() || op->opcode() == BinOpCode::kCustom ||
      op->ytype() != t || op->ztype() != t || xt != t || yt != t)
    return generic();
  switch (t->code()) {
    case TypeCode::kFP64:
      return runner_detail::typed_binary<double>(op->opcode(), body, generic);
    case TypeCode::kInt64:
      return runner_detail::typed_binary<int64_t>(op->opcode(), body,
                                                  generic);
    case TypeCode::kBool:
      return runner_detail::typed_binary<bool>(op->opcode(), body, generic);
    default:
      return generic();
  }
}

// Runs body(make) with make() yielding a TypedUnRunner for covered pairs
// (x and z in T, stored operand xt = T), else an UnRunner(op, xt).
template <class Body>
decltype(auto) with_unary_runner(const UnaryOp* op, const Type* xt,
                                 Body&& body) {
  auto generic = [&]() -> decltype(auto) {
    return body([op, xt] { return UnRunner(op, xt); });
  };
  const Type* t = op->xtype();
  if (!fastpath_enabled() || op->opcode() == UnOpCode::kCustom ||
      op->ztype() != t || xt != t)
    return generic();
  switch (t->code()) {
    case TypeCode::kFP64:
      return runner_detail::typed_unary<double>(op->opcode(), body, generic);
    case TypeCode::kInt64:
      return runner_detail::typed_unary<int64_t>(op->opcode(), body, generic);
    case TypeCode::kBool:
      return runner_detail::typed_unary<bool>(op->opcode(), body, generic);
    default:
      return generic();
  }
}

// A span mapper over a contiguous run of n stored entries: z[k] = f(x[k])
// for k < n, values packed at their domains' strides.  Entry k sits at
// index idx[k] of a vector, or at (row, idx[k]) of a matrix, so
// index-dependent operators (GrB_IndexUnaryOp) map like value-only ones.
// One call maps a whole run, so the std::function call is paid per run
// of entries, not per entry.
using MapFn = std::function<void(void* z, const void* x, size_t n,
                                 const Index* idx, Index row)>;

// Builds one MapFn per worker chunk (generic runners own scratch
// buffers); operator state such as bound scalars is captured by value.
using MapFactory = std::function<MapFn()>;

// Span mappers of the value-only apply forms,
// on the runner the selectors above pick when the factory runs (at
// execution, once per chunk, so set_fastpath_enabled() governs queued
// work too).  apply (ops/apply.cpp) defers them; scalar assign's
// accumulator reuses bind2nd_mapper.
MapFactory unary_mapper(const UnaryOp* op, const Type* xt);
// z = op(s, y): s is already in op's x domain.
MapFactory bind1st_mapper(const BinaryOp* op, ValueBuf s, const Type* yt);
// z = op(x, s): s is already in op's y domain.
MapFactory bind2nd_mapper(const BinaryOp* op, ValueBuf s, const Type* xt);

}  // namespace grb
