// GraphBLAS.h — the GraphBLAS 2.0 C API of
//   "Introduction to GraphBLAS 2.0", Brock, Buluç, Mattson, McMillan,
//   Moreira, IPDPSW 2021.
//
// This header is compiled as C++ so the polymorphic GrB_* names of the
// specification (realized with _Generic in a pure-C binding, and shown as
// overload-style signatures in the paper) are plain overloads.  Every
// enumeration the spec pins numeric values for (GrB_Info, GrB_Format,
// GrB_Mode, GrB_WaitMode — paper §IX) uses exactly those values.
//
// Handles are opaque pointers into the grb:: core library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>

#include "containers/matrix.hpp"
#include "containers/scalar.hpp"
#include "containers/vector.hpp"
#include "core/descriptor.hpp"
#include "core/global.hpp"
#include "io/import_export.hpp"
#include "io/serialize.hpp"
#include "obs/decision.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/memory.hpp"
#include "obs/telemetry.hpp"
#include "ops/common.hpp"

// ---------------------------------------------------------------------------
// Handles and basic types
// ---------------------------------------------------------------------------

typedef uint64_t GrB_Index;
typedef const grb::Type* GrB_Type;
typedef const grb::UnaryOp* GrB_UnaryOp;
typedef const grb::BinaryOp* GrB_BinaryOp;
typedef const grb::IndexUnaryOp* GrB_IndexUnaryOp;
typedef const grb::Monoid* GrB_Monoid;
typedef const grb::Semiring* GrB_Semiring;
typedef const grb::Descriptor* GrB_Descriptor;
typedef grb::Scalar* GrB_Scalar;
typedef grb::Vector* GrB_Vector;
typedef grb::Matrix* GrB_Matrix;
typedef grb::Context* GrB_Context;

#define GrB_NULL nullptr

// GrB_ALL: "all indices" sentinel for extract/assign index lists.
inline const GrB_Index* const GrB_ALL = grb::all_indices();

inline constexpr GrB_Index GrB_INDEX_MAX = grb::kIndexMax;

// ---------------------------------------------------------------------------
// Enumerations (values pinned per §IX)
// ---------------------------------------------------------------------------

enum GrB_Info {
  GrB_SUCCESS = 0,
  GrB_NO_VALUE = 1,
  // API errors
  GrB_UNINITIALIZED_OBJECT = -1,
  GrB_NULL_POINTER = -2,
  GrB_INVALID_VALUE = -3,
  GrB_INVALID_INDEX = -4,
  GrB_DOMAIN_MISMATCH = -5,
  GrB_DIMENSION_MISMATCH = -6,
  GrB_OUTPUT_NOT_EMPTY = -7,
  GrB_NOT_IMPLEMENTED = -8,
  // execution errors
  GrB_PANIC = -101,
  GrB_OUT_OF_MEMORY = -102,
  GrB_INSUFFICIENT_SPACE = -103,
  GrB_INVALID_OBJECT = -104,
  GrB_INDEX_OUT_OF_BOUNDS = -105,
  GrB_EMPTY_OBJECT = -106,
};

enum GrB_Mode : int {
  GrB_NONBLOCKING = 0,
  GrB_BLOCKING = 1,
};

enum GrB_WaitMode {
  GrB_COMPLETE = 0,
  GrB_MATERIALIZE = 1,
};

// Non-opaque formats for import/export (paper Table III).
enum GrB_Format {
  GrB_CSR_MATRIX = 0,
  GrB_CSC_MATRIX = 1,
  GrB_COO_MATRIX = 2,
  GrB_DENSE_ROW_MATRIX = 3,
  GrB_DENSE_COL_MATRIX = 4,
  GrB_SPARSE_VECTOR = 5,
  GrB_DENSE_VECTOR = 6,
};

enum GrB_Desc_Field {
  GrB_OUTP = 0,
  GrB_MASK = 1,
  GrB_INP0 = 2,
  GrB_INP1 = 3,
};

enum GrB_Desc_Value {
  GrB_DEFAULT = 0,
  GrB_REPLACE = 1,
  GrB_COMP = 2,
  GrB_STRUCTURE = 4,
  GrB_TRAN = 8,
};

namespace grb_detail {

inline GrB_Info to_c(grb::Info info) {
  return static_cast<GrB_Info>(static_cast<int>(info));
}
inline grb::Mode to_mode(GrB_Mode m) {
  return m == GrB_BLOCKING ? grb::Mode::kBlocking : grb::Mode::kNonblocking;
}
inline grb::WaitMode to_wait(GrB_WaitMode m) {
  return m == GrB_MATERIALIZE ? grb::WaitMode::kMaterialize
                              : grb::WaitMode::kComplete;
}
inline grb::Format to_format(GrB_Format f) {
  return static_cast<grb::Format>(static_cast<int>(f));
}

// Arithmetic scalar arguments of polymorphic methods map to their
// GraphBLAS domain via grb::type_of<T>.
template <class T>
inline constexpr bool is_grb_scalar_v =
    std::is_arithmetic_v<std::remove_cv_t<std::remove_reference_t<T>>>;

// Catch-all veneer for the C boundary: the GraphBLAS C API is a no-throw
// interface, so no C++ exception may escape a GrB_* entry point.  The only
// exceptions the grb:: core can surface are allocation failure (mapped to
// the GrB_OUT_OF_MEMORY execution error), a container asked for more
// elements than its max_size() (std::length_error: a request larger than
// memory can hold, so also GrB_OUT_OF_MEMORY) and the unexpected, which
// the spec's error model reserves GrB_PANIC for.  Every GrB_*/GxB_* function
// body is `return grb_detail::guarded([&]() -> GrB_Info { ... });` — a
// property tools/grb_analyze.py enforces for every definition.
template <class F>
inline GrB_Info run_caught(F&& body) noexcept {
  try {
    return static_cast<F&&>(body)();
  } catch (const std::bad_alloc&) {
    return GrB_OUT_OF_MEMORY;
  } catch (const std::length_error&) {
    return GrB_OUT_OF_MEMORY;
  } catch (...) {
    return GrB_PANIC;
  }
}

// Default-argument trick: evaluated at the call site, so `name` is the
// GrB_*/GxB_* entry point that invoked the veneer — telemetry spans and
// counters cover every entry point with no per-call-site edits.
#if defined(__clang__) || defined(__GNUC__)
#define GRB_DETAIL_CALLER() __builtin_FUNCTION()
#else
#define GRB_DETAIL_CALLER() "GrB_call"
#endif

// The veneer doubles as the observability hook for the whole C API
// surface.  It unconditionally publishes the entry-point name to the
// thread-local current-op slot (this powers deferred-error diagnostics —
// GrB_error names the failing method — so it is part of the error model,
// and costs two TLS stores).  Everything else is behind one relaxed
// atomic flag load: with every instrument off the body runs exactly as
// before.  With only the flight recorder on (the default), the extra
// cost is one ring-slot write per entry, or a thread-local count bump
// when the call repeats the thread's last entry point — no counter
// registry.  Stats/trace add the timed path.
template <class F>
inline GrB_Info guarded(F&& body,
                        const char* name = GRB_DETAIL_CALLER()) noexcept {
  grb::obs::CurrentOpScope op_scope(name);
  const uint32_t f = grb::obs::flags();
  if (f == 0u) return run_caught(static_cast<F&&>(body));
  if ((f & grb::obs::kFlightFlag) != 0u)
    grb::obs::fr_record(grb::obs::FrKind::kApiEnter, name, 0);
  if ((f & (grb::obs::kStatsFlag | grb::obs::kTraceFlag)) == 0u) {
    GrB_Info info = run_caught(static_cast<F&&>(body));
    grb::obs::fr_api_result(name, static_cast<int32_t>(info));
    return info;
  }
  const uint64_t t0 = grb::obs::now_ns();
  GrB_Info info = run_caught(static_cast<F&&>(body));
  grb::obs::api_return(name, t0, static_cast<int>(info) < 0);
  grb::obs::fr_api_result(name, static_cast<int32_t>(info));
  return info;
}

}  // namespace grb_detail

// ---------------------------------------------------------------------------
// Predefined types
// ---------------------------------------------------------------------------

inline const GrB_Type GrB_BOOL = grb::TypeBool();
inline const GrB_Type GrB_INT8 = grb::TypeInt8();
inline const GrB_Type GrB_UINT8 = grb::TypeUInt8();
inline const GrB_Type GrB_INT16 = grb::TypeInt16();
inline const GrB_Type GrB_UINT16 = grb::TypeUInt16();
inline const GrB_Type GrB_INT32 = grb::TypeInt32();
inline const GrB_Type GrB_UINT32 = grb::TypeUInt32();
inline const GrB_Type GrB_INT64 = grb::TypeInt64();
inline const GrB_Type GrB_UINT64 = grb::TypeUInt64();
inline const GrB_Type GrB_FP32 = grb::TypeFP32();
inline const GrB_Type GrB_FP64 = grb::TypeFP64();

// ---------------------------------------------------------------------------
// Predefined operators, monoids, semirings
// ---------------------------------------------------------------------------

#define GRB_BINOP(NAME, CODE, T, TC)                                    \
  inline const GrB_BinaryOp NAME##_##T =                                \
      grb::get_binary_op(grb::BinOpCode::CODE, grb::TypeCode::TC);
#define GRB_UNOP(NAME, CODE, T, TC)                                     \
  inline const GrB_UnaryOp NAME##_##T =                                 \
      grb::get_unary_op(grb::UnOpCode::CODE, grb::TypeCode::TC);
#define GRB_MONOID(NAME, CODE, T, TC)                                   \
  inline const GrB_Monoid NAME##_MONOID_##T =                           \
      grb::get_monoid(grb::BinOpCode::CODE, grb::TypeCode::TC);

#define GRB_FOR_EACH_TYPE(X)                                            \
  X(BOOL, kBool)                                                        \
  X(INT8, kInt8)                                                        \
  X(UINT8, kUInt8)                                                      \
  X(INT16, kInt16)                                                      \
  X(UINT16, kUInt16)                                                    \
  X(INT32, kInt32)                                                      \
  X(UINT32, kUInt32)                                                    \
  X(INT64, kInt64)                                                      \
  X(UINT64, kUInt64)                                                    \
  X(FP32, kFP32)                                                        \
  X(FP64, kFP64)

#define GRB_FOR_EACH_NUMERIC_TYPE(X)                                    \
  X(INT8, kInt8)                                                        \
  X(UINT8, kUInt8)                                                      \
  X(INT16, kInt16)                                                      \
  X(UINT16, kUInt16)                                                    \
  X(INT32, kInt32)                                                      \
  X(UINT32, kUInt32)                                                    \
  X(INT64, kInt64)                                                      \
  X(UINT64, kUInt64)                                                    \
  X(FP32, kFP32)                                                        \
  X(FP64, kFP64)

#define GRB_DEFINE_OPS_FOR(T, TC)                                       \
  GRB_BINOP(GrB_FIRST, kFirst, T, TC)                                   \
  GRB_BINOP(GrB_SECOND, kSecond, T, TC)                                 \
  GRB_BINOP(GrB_ONEB, kOneb, T, TC)                                     \
  GRB_BINOP(GrB_MIN, kMin, T, TC)                                       \
  GRB_BINOP(GrB_MAX, kMax, T, TC)                                       \
  GRB_BINOP(GrB_PLUS, kPlus, T, TC)                                     \
  GRB_BINOP(GrB_MINUS, kMinus, T, TC)                                   \
  GRB_BINOP(GrB_TIMES, kTimes, T, TC)                                   \
  GRB_BINOP(GrB_DIV, kDiv, T, TC)                                       \
  GRB_BINOP(GrB_EQ, kEq, T, TC)                                         \
  GRB_BINOP(GrB_NE, kNe, T, TC)                                         \
  GRB_BINOP(GrB_GT, kGt, T, TC)                                         \
  GRB_BINOP(GrB_LT, kLt, T, TC)                                         \
  GRB_BINOP(GrB_GE, kGe, T, TC)                                         \
  GRB_BINOP(GrB_LE, kLe, T, TC)                                         \
  GRB_UNOP(GrB_IDENTITY, kIdentity, T, TC)                              \
  GRB_UNOP(GrB_AINV, kAinv, T, TC)                                      \
  GRB_UNOP(GrB_MINV, kMinv, T, TC)                                      \
  GRB_UNOP(GrB_ABS, kAbs, T, TC)

GRB_FOR_EACH_TYPE(GRB_DEFINE_OPS_FOR)
#undef GRB_DEFINE_OPS_FOR

inline const GrB_BinaryOp GrB_LOR =
    grb::get_binary_op(grb::BinOpCode::kLor, grb::TypeCode::kBool);
inline const GrB_BinaryOp GrB_LAND =
    grb::get_binary_op(grb::BinOpCode::kLand, grb::TypeCode::kBool);
inline const GrB_BinaryOp GrB_LXOR =
    grb::get_binary_op(grb::BinOpCode::kLxor, grb::TypeCode::kBool);
inline const GrB_BinaryOp GrB_LXNOR =
    grb::get_binary_op(grb::BinOpCode::kLxnor, grb::TypeCode::kBool);
inline const GrB_UnaryOp GrB_LNOT =
    grb::get_unary_op(grb::UnOpCode::kLnot, grb::TypeCode::kBool);

#define GRB_DEFINE_BITWISE_FOR(T, TC)                                   \
  GRB_BINOP(GrB_BOR, kBor, T, TC)                                       \
  GRB_BINOP(GrB_BAND, kBand, T, TC)                                     \
  GRB_BINOP(GrB_BXOR, kBxor, T, TC)                                     \
  GRB_BINOP(GrB_BXNOR, kBxnor, T, TC)                                   \
  GRB_UNOP(GrB_BNOT, kBnot, T, TC)
GRB_DEFINE_BITWISE_FOR(INT8, kInt8)
GRB_DEFINE_BITWISE_FOR(UINT8, kUInt8)
GRB_DEFINE_BITWISE_FOR(INT16, kInt16)
GRB_DEFINE_BITWISE_FOR(UINT16, kUInt16)
GRB_DEFINE_BITWISE_FOR(INT32, kInt32)
GRB_DEFINE_BITWISE_FOR(UINT32, kUInt32)
GRB_DEFINE_BITWISE_FOR(INT64, kInt64)
GRB_DEFINE_BITWISE_FOR(UINT64, kUInt64)
#undef GRB_DEFINE_BITWISE_FOR

#define GRB_DEFINE_MONOIDS_FOR(T, TC)                                   \
  GRB_MONOID(GrB_PLUS, kPlus, T, TC)                                    \
  GRB_MONOID(GrB_TIMES, kTimes, T, TC)                                  \
  GRB_MONOID(GrB_MIN, kMin, T, TC)                                      \
  GRB_MONOID(GrB_MAX, kMax, T, TC)
GRB_FOR_EACH_NUMERIC_TYPE(GRB_DEFINE_MONOIDS_FOR)
#undef GRB_DEFINE_MONOIDS_FOR

inline const GrB_Monoid GrB_LOR_MONOID_BOOL =
    grb::get_monoid(grb::BinOpCode::kLor, grb::TypeCode::kBool);
inline const GrB_Monoid GrB_LAND_MONOID_BOOL =
    grb::get_monoid(grb::BinOpCode::kLand, grb::TypeCode::kBool);
inline const GrB_Monoid GrB_LXOR_MONOID_BOOL =
    grb::get_monoid(grb::BinOpCode::kLxor, grb::TypeCode::kBool);
inline const GrB_Monoid GrB_LXNOR_MONOID_BOOL =
    grb::get_monoid(grb::BinOpCode::kLxnor, grb::TypeCode::kBool);

#define GRB_SEMIRING(NAME, ADD, MUL, T, TC)                             \
  inline const GrB_Semiring NAME##_SEMIRING_##T = grb::get_semiring(    \
      grb::BinOpCode::ADD, grb::BinOpCode::MUL, grb::TypeCode::TC);
#define GRB_DEFINE_SEMIRINGS_FOR(T, TC)                                 \
  GRB_SEMIRING(GrB_PLUS_TIMES, kPlus, kTimes, T, TC)                    \
  GRB_SEMIRING(GrB_MIN_PLUS, kMin, kPlus, T, TC)                        \
  GRB_SEMIRING(GrB_MAX_PLUS, kMax, kPlus, T, TC)                        \
  GRB_SEMIRING(GrB_MIN_TIMES, kMin, kTimes, T, TC)                      \
  GRB_SEMIRING(GrB_MAX_TIMES, kMax, kTimes, T, TC)                      \
  GRB_SEMIRING(GrB_MIN_MAX, kMin, kMax, T, TC)                          \
  GRB_SEMIRING(GrB_MAX_MIN, kMax, kMin, T, TC)                          \
  GRB_SEMIRING(GrB_MIN_FIRST, kMin, kFirst, T, TC)                      \
  GRB_SEMIRING(GrB_MIN_SECOND, kMin, kSecond, T, TC)                    \
  GRB_SEMIRING(GrB_MAX_FIRST, kMax, kFirst, T, TC)                      \
  GRB_SEMIRING(GrB_MAX_SECOND, kMax, kSecond, T, TC)                    \
  GRB_SEMIRING(GrB_PLUS_FIRST, kPlus, kFirst, T, TC)                    \
  GRB_SEMIRING(GrB_PLUS_SECOND, kPlus, kSecond, T, TC)                  \
  GRB_SEMIRING(GrB_PLUS_MIN, kPlus, kMin, T, TC)
GRB_FOR_EACH_NUMERIC_TYPE(GRB_DEFINE_SEMIRINGS_FOR)
#undef GRB_DEFINE_SEMIRINGS_FOR

inline const GrB_Semiring GrB_LOR_LAND_SEMIRING_BOOL = grb::get_semiring(
    grb::BinOpCode::kLor, grb::BinOpCode::kLand, grb::TypeCode::kBool);
inline const GrB_Semiring GrB_LAND_LOR_SEMIRING_BOOL = grb::get_semiring(
    grb::BinOpCode::kLand, grb::BinOpCode::kLor, grb::TypeCode::kBool);
inline const GrB_Semiring GrB_LXOR_LAND_SEMIRING_BOOL = grb::get_semiring(
    grb::BinOpCode::kLxor, grb::BinOpCode::kLand, grb::TypeCode::kBool);
inline const GrB_Semiring GrB_LXNOR_LOR_SEMIRING_BOOL = grb::get_semiring(
    grb::BinOpCode::kLxnor, grb::BinOpCode::kLor, grb::TypeCode::kBool);
inline const GrB_Semiring GrB_LOR_FIRST_SEMIRING_BOOL = grb::get_semiring(
    grb::BinOpCode::kLor, grb::BinOpCode::kFirst, grb::TypeCode::kBool);
inline const GrB_Semiring GrB_LOR_SECOND_SEMIRING_BOOL = grb::get_semiring(
    grb::BinOpCode::kLor, grb::BinOpCode::kSecond, grb::TypeCode::kBool);

// Predefined index-unary operators (paper Table IV).
#define GRB_IDXOP(NAME, CODE, T, TC)                                    \
  inline const GrB_IndexUnaryOp NAME##_##T =                            \
      grb::get_index_unary_op(grb::IdxOpCode::CODE, grb::TypeCode::TC);
GRB_IDXOP(GrB_ROWINDEX, kRowIndex, INT32, kInt32)
GRB_IDXOP(GrB_ROWINDEX, kRowIndex, INT64, kInt64)
GRB_IDXOP(GrB_COLINDEX, kColIndex, INT32, kInt32)
GRB_IDXOP(GrB_COLINDEX, kColIndex, INT64, kInt64)
GRB_IDXOP(GrB_DIAGINDEX, kDiagIndex, INT32, kInt32)
GRB_IDXOP(GrB_DIAGINDEX, kDiagIndex, INT64, kInt64)

inline const GrB_IndexUnaryOp GrB_TRIL =
    grb::get_index_unary_op(grb::IdxOpCode::kTril, grb::TypeCode::kInt64);
inline const GrB_IndexUnaryOp GrB_TRIU =
    grb::get_index_unary_op(grb::IdxOpCode::kTriu, grb::TypeCode::kInt64);
inline const GrB_IndexUnaryOp GrB_DIAG =
    grb::get_index_unary_op(grb::IdxOpCode::kDiag, grb::TypeCode::kInt64);
inline const GrB_IndexUnaryOp GrB_OFFDIAG =
    grb::get_index_unary_op(grb::IdxOpCode::kOffdiag, grb::TypeCode::kInt64);
inline const GrB_IndexUnaryOp GrB_ROWLE =
    grb::get_index_unary_op(grb::IdxOpCode::kRowLE, grb::TypeCode::kInt64);
inline const GrB_IndexUnaryOp GrB_ROWGT =
    grb::get_index_unary_op(grb::IdxOpCode::kRowGT, grb::TypeCode::kInt64);
inline const GrB_IndexUnaryOp GrB_COLLE =
    grb::get_index_unary_op(grb::IdxOpCode::kColLE, grb::TypeCode::kInt64);
inline const GrB_IndexUnaryOp GrB_COLGT =
    grb::get_index_unary_op(grb::IdxOpCode::kColGT, grb::TypeCode::kInt64);

#define GRB_DEFINE_VALUE_IDXOPS_FOR(T, TC)                              \
  GRB_IDXOP(GrB_VALUEEQ, kValueEQ, T, TC)                               \
  GRB_IDXOP(GrB_VALUENE, kValueNE, T, TC)
GRB_FOR_EACH_TYPE(GRB_DEFINE_VALUE_IDXOPS_FOR)
#undef GRB_DEFINE_VALUE_IDXOPS_FOR

#define GRB_DEFINE_ORDER_IDXOPS_FOR(T, TC)                              \
  GRB_IDXOP(GrB_VALUELT, kValueLT, T, TC)                               \
  GRB_IDXOP(GrB_VALUELE, kValueLE, T, TC)                               \
  GRB_IDXOP(GrB_VALUEGT, kValueGT, T, TC)                               \
  GRB_IDXOP(GrB_VALUEGE, kValueGE, T, TC)
GRB_FOR_EACH_NUMERIC_TYPE(GRB_DEFINE_ORDER_IDXOPS_FOR)
#undef GRB_DEFINE_ORDER_IDXOPS_FOR
#undef GRB_IDXOP
#undef GRB_BINOP
#undef GRB_UNOP
#undef GRB_MONOID
#undef GRB_SEMIRING

// Predefined descriptors: bit 1 = REPLACE, 2 = COMP, 4 = STRUCTURE,
// 8 = TRAN0, 16 = TRAN1.
#define GRB_DESC(NAME, BITS)                                            \
  inline const GrB_Descriptor NAME = grb::predefined_descriptor(BITS);
GRB_DESC(GrB_DESC_R, 1)
GRB_DESC(GrB_DESC_C, 2)
GRB_DESC(GrB_DESC_S, 4)
GRB_DESC(GrB_DESC_SC, 6)
GRB_DESC(GrB_DESC_T0, 8)
GRB_DESC(GrB_DESC_T1, 16)
GRB_DESC(GrB_DESC_T0T1, 24)
GRB_DESC(GrB_DESC_RC, 3)
GRB_DESC(GrB_DESC_RS, 5)
GRB_DESC(GrB_DESC_RSC, 7)
GRB_DESC(GrB_DESC_RT0, 9)
GRB_DESC(GrB_DESC_RT1, 17)
GRB_DESC(GrB_DESC_RT0T1, 25)
GRB_DESC(GrB_DESC_CT0, 10)
GRB_DESC(GrB_DESC_CT1, 18)
GRB_DESC(GrB_DESC_ST0, 12)
GRB_DESC(GrB_DESC_ST1, 20)
GRB_DESC(GrB_DESC_SCT0, 14)
GRB_DESC(GrB_DESC_SCT1, 22)
GRB_DESC(GrB_DESC_RCT0, 11)
GRB_DESC(GrB_DESC_RST0, 13)
GRB_DESC(GrB_DESC_RSCT0, 15)
GRB_DESC(GrB_DESC_RCT1, 19)
GRB_DESC(GrB_DESC_RST1, 21)
GRB_DESC(GrB_DESC_RSCT1, 23)
GRB_DESC(GrB_DESC_CT0T1, 26)
GRB_DESC(GrB_DESC_RCT0T1, 27)
GRB_DESC(GrB_DESC_ST0T1, 28)
GRB_DESC(GrB_DESC_RST0T1, 29)
GRB_DESC(GrB_DESC_SCT0T1, 30)
GRB_DESC(GrB_DESC_RSCT0T1, 31)
#undef GRB_DESC

// ---------------------------------------------------------------------------
// Library lifecycle, contexts, wait, error
// ---------------------------------------------------------------------------

inline GrB_Info GrB_init(GrB_Mode mode) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (mode != GrB_BLOCKING && mode != GrB_NONBLOCKING)
      return GrB_INVALID_VALUE;
    return grb_detail::to_c(grb::library_init(grb_detail::to_mode(mode)));
  });
}
inline GrB_Info GrB_finalize() {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::library_finalize());
  });
}
inline GrB_Info GrB_getVersion(unsigned int* version,
                               unsigned int* subversion) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (version == nullptr || subversion == nullptr) return GrB_NULL_POINTER;
    *version = grb::kVersion;
    *subversion = grb::kSubversion;
    return GrB_SUCCESS;
  });
}

// The documented implementation-defined `exec` structure (paper §IV).
typedef grb::ContextConfig GrB_ContextConfig;

inline GrB_Info GrB_Context_new(GrB_Context* ctx, GrB_Mode mode,
                                GrB_Context parent, void* exec) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (mode != GrB_BLOCKING && mode != GrB_NONBLOCKING)
      return GrB_INVALID_VALUE;
    return grb_detail::to_c(grb::context_new(
        ctx, grb_detail::to_mode(mode), parent,
        static_cast<const grb::ContextConfig*>(exec)));
  });
}
inline GrB_Info GrB_Context_switch(GrB_Matrix a, GrB_Context ctx) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->switch_context(ctx));
  });
}
inline GrB_Info GrB_Context_switch(GrB_Vector v, GrB_Context ctx) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->switch_context(ctx));
  });
}
inline GrB_Info GrB_Context_switch(GrB_Scalar s, GrB_Context ctx) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(s->switch_context(ctx));
  });
}

#define GRB_DEFINE_WAIT_ERROR(HANDLE)                                   \
  inline GrB_Info GrB_wait(HANDLE obj, GrB_WaitMode mode) {             \
    return grb_detail::guarded([&]() -> GrB_Info {                      \
      if (obj == nullptr) return GrB_UNINITIALIZED_OBJECT;              \
      return grb_detail::to_c(obj->wait(grb_detail::to_wait(mode)));    \
    });                                                                 \
  }                                                                     \
  inline GrB_Info GrB_error(const char** str, HANDLE obj) {             \
    return grb_detail::guarded([&]() -> GrB_Info {                      \
      if (str == nullptr) return GrB_NULL_POINTER;                      \
      if (obj == nullptr) return GrB_UNINITIALIZED_OBJECT;              \
      *str = obj->error_string();                                       \
      return GrB_SUCCESS;                                               \
    });                                                                 \
  }
GRB_DEFINE_WAIT_ERROR(GrB_Matrix)
GRB_DEFINE_WAIT_ERROR(GrB_Vector)
GRB_DEFINE_WAIT_ERROR(GrB_Scalar)
#undef GRB_DEFINE_WAIT_ERROR

// ---------------------------------------------------------------------------
// GrB_free overloads (handle set to GrB_NULL on success)
// ---------------------------------------------------------------------------

inline GrB_Info GrB_free(GrB_Matrix* a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::Matrix::free(*a));
    if (info == GrB_SUCCESS) *a = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_Vector* v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::Vector::free(*v));
    if (info == GrB_SUCCESS) *v = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_Scalar* s) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::Scalar::free(*s));
    if (info == GrB_SUCCESS) *s = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_Context* ctx) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (ctx == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::context_free(*ctx));
    if (info == GrB_SUCCESS) *ctx = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_Type* t) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (t == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::type_free(*t));
    if (info == GrB_SUCCESS) *t = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_UnaryOp* op) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (op == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::unary_op_free(*op));
    if (info == GrB_SUCCESS) *op = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_BinaryOp* op) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (op == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::binary_op_free(*op));
    if (info == GrB_SUCCESS) *op = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_IndexUnaryOp* op) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (op == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::index_unary_op_free(*op));
    if (info == GrB_SUCCESS) *op = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_Monoid* m) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (m == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::monoid_free(*m));
    if (info == GrB_SUCCESS) *m = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_Semiring* s) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(grb::semiring_free(*s));
    if (info == GrB_SUCCESS) *s = nullptr;
    return info;
  });
}
inline GrB_Info GrB_free(GrB_Descriptor* d) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (d == nullptr) return GrB_NULL_POINTER;
    GrB_Info info = grb_detail::to_c(
        grb::descriptor_free(const_cast<grb::Descriptor*>(*d)));
    if (info == GrB_SUCCESS) *d = nullptr;
    return info;
  });
}

// ---------------------------------------------------------------------------
// Type and operator constructors
// ---------------------------------------------------------------------------

inline GrB_Info GrB_Type_new(GrB_Type* type, size_t size) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::type_new(type, size));
  });
}

typedef void (*GrB_unary_function)(void*, const void*);
typedef void (*GrB_binary_function)(void*, const void*, const void*);
// Paper §VIII.A signature: (out, in, indices, n, s).
typedef void (*GrB_index_unary_function)(void*, const void*, GrB_Index*,
                                         GrB_Index, const void*);

inline GrB_Info GrB_UnaryOp_new(GrB_UnaryOp* op, GrB_unary_function fn,
                                GrB_Type ztype, GrB_Type xtype) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::unary_op_new(op, fn, ztype, xtype));
  });
}
inline GrB_Info GrB_BinaryOp_new(GrB_BinaryOp* op, GrB_binary_function fn,
                                 GrB_Type ztype, GrB_Type xtype,
                                 GrB_Type ytype) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::binary_op_new(op, fn, ztype, xtype, ytype));
  });
}
inline GrB_Info GrB_IndexUnaryOp_new(GrB_IndexUnaryOp* op,
                                     GrB_index_unary_function fn,
                                     GrB_Type d_out, GrB_Type d_in,
                                     GrB_Type d_s) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::index_unary_op_new(op, fn, d_out, d_in, d_s));
  });
}

template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Monoid_new(GrB_Monoid* monoid, GrB_BinaryOp op,
                               T identity) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (op == nullptr) return GrB_NULL_POINTER;
    grb::ValueBuf id(op->ztype()->size());
    if (!grb::types_compatible(op->ztype(), grb::type_of<T>()))
      return GrB_DOMAIN_MISMATCH;
    grb::cast_value(op->ztype(), id.data(), grb::type_of<T>(), &identity);
    return grb_detail::to_c(grb::monoid_new(monoid, op, id.data()));
  });
}
// UDT identity.
inline GrB_Info GrB_Monoid_new_UDT(GrB_Monoid* monoid, GrB_BinaryOp op,
                                   const void* identity) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::monoid_new(monoid, op, identity));
  });
}
// Table II: GrB_Scalar identity variant.
inline GrB_Info GrB_Monoid_new(GrB_Monoid* monoid, GrB_BinaryOp op,
                               GrB_Scalar identity) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (op == nullptr || identity == nullptr) return GrB_NULL_POINTER;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = identity->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    if (!grb::types_compatible(op->ztype(), snap->type))
      return GrB_DOMAIN_MISMATCH;
    grb::ValueBuf id(op->ztype()->size());
    grb::cast_value(op->ztype(), id.data(), snap->type, snap->value.data());
    return grb_detail::to_c(grb::monoid_new(monoid, op, id.data()));
  });
}

inline GrB_Info GrB_Semiring_new(GrB_Semiring* semiring, GrB_Monoid add,
                                 GrB_BinaryOp mul) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::semiring_new(semiring, add, mul));
  });
}

inline GrB_Info GrB_Descriptor_new(GrB_Descriptor* desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (desc == nullptr) return GrB_NULL_POINTER;
    grb::Descriptor* d = nullptr;
    GrB_Info info = grb_detail::to_c(grb::descriptor_new(&d));
    if (info == GrB_SUCCESS) *desc = d;
    return info;
  });
}
inline GrB_Info GrB_Descriptor_set(GrB_Descriptor desc, GrB_Desc_Field field,
                                   GrB_Desc_Value value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (desc == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(const_cast<grb::Descriptor*>(desc)->set(
        static_cast<grb::DescField>(static_cast<int>(field)),
        static_cast<grb::DescValue>(static_cast<int>(value))));
  });
}

// ---------------------------------------------------------------------------
// GrB_Scalar (paper §VI, Table I)
// ---------------------------------------------------------------------------

inline GrB_Info GrB_Scalar_new(GrB_Scalar* s, GrB_Type type) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Scalar::new_(s, type, nullptr));
  });
}
inline GrB_Info GrB_Scalar_new(GrB_Scalar* s, GrB_Type type,
                               GrB_Context ctx) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Scalar::new_(s, type, ctx));
  });
}
inline GrB_Info GrB_Scalar_dup(GrB_Scalar* out, GrB_Scalar in) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Scalar::dup(out, in));
  });
}
inline GrB_Info GrB_Scalar_clear(GrB_Scalar s) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(s->clear());
  });
}
inline GrB_Info GrB_Scalar_nvals(GrB_Index* nvals, GrB_Scalar s) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(s->nvals(nvals));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Scalar_setElement(GrB_Scalar s, T value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(s->set_element(&value, grb::type_of<T>()));
  });
}
inline GrB_Info GrB_Scalar_setElement_UDT(GrB_Scalar s, const void* value,
                                          GrB_Type type) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(s->set_element(value, type));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Scalar_extractElement(T* value, GrB_Scalar s) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(s->extract_element(value, grb::type_of<T>()));
  });
}
inline GrB_Info GrB_Scalar_extractElement_UDT(void* value, GrB_Type type,
                                              GrB_Scalar s) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(s->extract_element(value, type));
  });
}

// ---------------------------------------------------------------------------
// GrB_Vector
// ---------------------------------------------------------------------------

inline GrB_Info GrB_Vector_new(GrB_Vector* v, GrB_Type type, GrB_Index n) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Vector::new_(v, type, n, nullptr));
  });
}
// GraphBLAS 2.0 constructor with a context (paper Figure 2).
inline GrB_Info GrB_Vector_new(GrB_Vector* v, GrB_Type type, GrB_Index n,
                               GrB_Context ctx) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Vector::new_(v, type, n, ctx));
  });
}
inline GrB_Info GrB_Vector_dup(GrB_Vector* out, GrB_Vector in) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Vector::dup(out, in));
  });
}
inline GrB_Info GrB_Vector_clear(GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->clear());
  });
}
inline GrB_Info GrB_Vector_size(GrB_Index* n, GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    if (n == nullptr) return GrB_NULL_POINTER;
    *n = v->size();
    return GrB_SUCCESS;
  });
}
inline GrB_Info GrB_Vector_nvals(GrB_Index* nvals, GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->nvals(nvals));
  });
}
inline GrB_Info GrB_Vector_resize(GrB_Vector v, GrB_Index n) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->resize(n));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Vector_build(GrB_Vector v, const GrB_Index* indices,
                                 const T* values, GrB_Index n,
                                 GrB_BinaryOp dup) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(
        v->build(indices, values, n, dup, grb::type_of<T>()));
  });
}
inline GrB_Info GrB_Vector_build_UDT(GrB_Vector v, const GrB_Index* indices,
                                     const void* values, GrB_Index n,
                                     GrB_BinaryOp dup, GrB_Type type) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->build(indices, values, n, dup, type));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Vector_setElement(GrB_Vector v, T value, GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->set_element(&value, grb::type_of<T>(), i));
  });
}
inline GrB_Info GrB_Vector_setElement_UDT(GrB_Vector v, const void* value,
                                          GrB_Type type, GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->set_element(value, type, i));
  });
}
// Table II: GrB_Scalar variant (empty scalar removes the element).
inline GrB_Info GrB_Vector_setElement(GrB_Vector v, GrB_Scalar s,
                                      GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr || s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return grb_detail::to_c(v->remove_element(i));
    return grb_detail::to_c(v->set_element(snap->value.data(), snap->type, i));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Vector_extractElement(T* value, GrB_Vector v,
                                          GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->extract_element(value, grb::type_of<T>(), i));
  });
}
inline GrB_Info GrB_Vector_extractElement_UDT(void* value, GrB_Type type,
                                              GrB_Vector v, GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->extract_element(value, type, i));
  });
}
// Table II: GrB_Scalar output variant — a missing element produces an
// empty scalar instead of the GrB_NO_VALUE return-code dance (§VI).
inline GrB_Info GrB_Vector_extractElement(GrB_Scalar out, GrB_Vector v,
                                          GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr || out == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::VectorData> snap;
    grb::Info info = v->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (i >= snap->n) return GrB_INVALID_INDEX;
    size_t pos = snap->find(i);
    if (pos == grb::VectorData::npos) return grb_detail::to_c(out->clear());
    return grb_detail::to_c(
        out->set_element(snap->vals.at(pos), snap->type));
  });
}
inline GrB_Info GrB_Vector_removeElement(GrB_Vector v, GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->remove_element(i));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Vector_extractTuples(GrB_Index* indices, T* values,
                                         GrB_Index* n, GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(
        v->extract_tuples(indices, values, n, grb::type_of<T>()));
  });
}
inline GrB_Info GrB_Vector_extractTuples_UDT(GrB_Index* indices, void* values,
                                             GrB_Index* n, GrB_Type type,
                                             GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(v->extract_tuples(indices, values, n, type));
  });
}

// ---------------------------------------------------------------------------
// GrB_Matrix
// ---------------------------------------------------------------------------

inline GrB_Info GrB_Matrix_new(GrB_Matrix* a, GrB_Type type, GrB_Index nrows,
                               GrB_Index ncols) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Matrix::new_(a, type, nrows, ncols, nullptr));
  });
}
inline GrB_Info GrB_Matrix_new(GrB_Matrix* a, GrB_Type type, GrB_Index nrows,
                               GrB_Index ncols, GrB_Context ctx) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Matrix::new_(a, type, nrows, ncols, ctx));
  });
}
inline GrB_Info GrB_Matrix_dup(GrB_Matrix* out, GrB_Matrix in) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::Matrix::dup(out, in));
  });
}
inline GrB_Info GrB_Matrix_clear(GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->clear());
  });
}
inline GrB_Info GrB_Matrix_nrows(GrB_Index* n, GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    if (n == nullptr) return GrB_NULL_POINTER;
    *n = a->nrows();
    return GrB_SUCCESS;
  });
}
inline GrB_Info GrB_Matrix_ncols(GrB_Index* n, GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    if (n == nullptr) return GrB_NULL_POINTER;
    *n = a->ncols();
    return GrB_SUCCESS;
  });
}
inline GrB_Info GrB_Matrix_nvals(GrB_Index* nvals, GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->nvals(nvals));
  });
}
inline GrB_Info GrB_Matrix_resize(GrB_Matrix a, GrB_Index nrows,
                                  GrB_Index ncols) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->resize(nrows, ncols));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Matrix_build(GrB_Matrix a, const GrB_Index* rows,
                                 const GrB_Index* cols, const T* values,
                                 GrB_Index n, GrB_BinaryOp dup) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(
        a->build(rows, cols, values, n, dup, grb::type_of<T>()));
  });
}
inline GrB_Info GrB_Matrix_build_UDT(GrB_Matrix a, const GrB_Index* rows,
                                     const GrB_Index* cols,
                                     const void* values, GrB_Index n,
                                     GrB_BinaryOp dup, GrB_Type type) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->build(rows, cols, values, n, dup, type));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Matrix_setElement(GrB_Matrix a, T value, GrB_Index i,
                                      GrB_Index j) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->set_element(&value, grb::type_of<T>(), i, j));
  });
}
inline GrB_Info GrB_Matrix_setElement_UDT(GrB_Matrix a, const void* value,
                                          GrB_Type type, GrB_Index i,
                                          GrB_Index j) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->set_element(value, type, i, j));
  });
}
inline GrB_Info GrB_Matrix_setElement(GrB_Matrix a, GrB_Scalar s,
                                      GrB_Index i, GrB_Index j) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr || s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return grb_detail::to_c(a->remove_element(i, j));
    return grb_detail::to_c(
        a->set_element(snap->value.data(), snap->type, i, j));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Matrix_extractElement(T* value, GrB_Matrix a, GrB_Index i,
                                          GrB_Index j) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(
        a->extract_element(value, grb::type_of<T>(), i, j));
  });
}
inline GrB_Info GrB_Matrix_extractElement_UDT(void* value, GrB_Type type,
                                              GrB_Matrix a, GrB_Index i,
                                              GrB_Index j) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->extract_element(value, type, i, j));
  });
}
inline GrB_Info GrB_Matrix_extractElement(GrB_Scalar out, GrB_Matrix a,
                                          GrB_Index i, GrB_Index j) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr || out == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::MatrixData> snap;
    grb::Info info = a->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (i >= snap->nrows || j >= snap->ncols) return GrB_INVALID_INDEX;
    size_t pos = snap->find(i, j);
    if (pos == grb::MatrixData::npos) return grb_detail::to_c(out->clear());
    return grb_detail::to_c(out->set_element(snap->vals.at(pos), snap->type));
  });
}
inline GrB_Info GrB_Matrix_removeElement(GrB_Matrix a, GrB_Index i,
                                         GrB_Index j) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->remove_element(i, j));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_Matrix_extractTuples(GrB_Index* rows, GrB_Index* cols,
                                         T* values, GrB_Index* n,
                                         GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(
        a->extract_tuples(rows, cols, values, n, grb::type_of<T>()));
  });
}
inline GrB_Info GrB_Matrix_extractTuples_UDT(GrB_Index* rows, GrB_Index* cols,
                                             void* values, GrB_Index* n,
                                             GrB_Type type, GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (a == nullptr) return GrB_UNINITIALIZED_OBJECT;
    return grb_detail::to_c(a->extract_tuples(rows, cols, values, n, type));
  });
}
inline GrB_Info GrB_Matrix_diag(GrB_Matrix* c, GrB_Vector v, int64_t k) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::matrix_diag(c, v, k));
  });
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

inline GrB_Info GrB_mxm(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                        GrB_Semiring s, GrB_Matrix a, GrB_Matrix b,
                        GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::mxm(c, mask, accum, s, a, b, desc));
  });
}
inline GrB_Info GrB_mxv(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                        GrB_Semiring s, GrB_Matrix a, GrB_Vector u,
                        GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::mxv(w, mask, accum, s, a, u, desc));
  });
}
inline GrB_Info GrB_vxm(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                        GrB_Semiring s, GrB_Vector u, GrB_Matrix a,
                        GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::vxm(w, mask, accum, s, u, a, desc));
  });
}

// eWiseAdd / eWiseMult: BinaryOp, Monoid, and Semiring flavours.
#define GRB_DEFINE_EWISE(NAME, IMPL)                                       \
  inline GrB_Info NAME(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,  \
                       GrB_BinaryOp op, GrB_Vector u, GrB_Vector v,        \
                       GrB_Descriptor desc) {                              \
    return grb_detail::guarded([&]() -> GrB_Info {                         \
      return grb_detail::to_c(grb::IMPL(w, mask, accum, op, u, v, desc));  \
    });                                                                    \
  }                                                                        \
  inline GrB_Info NAME(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,  \
                       GrB_Monoid op, GrB_Vector u, GrB_Vector v,          \
                       GrB_Descriptor desc) {                              \
    return grb_detail::guarded([&]() -> GrB_Info {                         \
      if (op == nullptr) return GrB_NULL_POINTER;                          \
      return grb_detail::to_c(                                             \
          grb::IMPL(w, mask, accum, op->op(), u, v, desc));                \
    });                                                                    \
  }                                                                        \
  inline GrB_Info NAME(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,  \
                       GrB_Semiring op, GrB_Vector u, GrB_Vector v,        \
                       GrB_Descriptor desc) {                              \
    return grb_detail::guarded([&]() -> GrB_Info {                         \
      if (op == nullptr) return GrB_NULL_POINTER;                          \
      return grb_detail::to_c(                                             \
          grb::IMPL(w, mask, accum, op->mul(), u, v, desc));               \
    });                                                                    \
  }                                                                        \
  inline GrB_Info NAME(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,  \
                       GrB_BinaryOp op, GrB_Matrix a, GrB_Matrix b,        \
                       GrB_Descriptor desc) {                              \
    return grb_detail::guarded([&]() -> GrB_Info {                         \
      return grb_detail::to_c(grb::IMPL(c, mask, accum, op, a, b, desc));  \
    });                                                                    \
  }                                                                        \
  inline GrB_Info NAME(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,  \
                       GrB_Monoid op, GrB_Matrix a, GrB_Matrix b,          \
                       GrB_Descriptor desc) {                              \
    return grb_detail::guarded([&]() -> GrB_Info {                         \
      if (op == nullptr) return GrB_NULL_POINTER;                          \
      return grb_detail::to_c(                                             \
          grb::IMPL(c, mask, accum, op->op(), a, b, desc));                \
    });                                                                    \
  }                                                                        \
  inline GrB_Info NAME(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,  \
                       GrB_Semiring op, GrB_Matrix a, GrB_Matrix b,        \
                       GrB_Descriptor desc) {                              \
    return grb_detail::guarded([&]() -> GrB_Info {                         \
      if (op == nullptr) return GrB_NULL_POINTER;                          \
      return grb_detail::to_c(                                             \
          grb::IMPL(c, mask, accum, op->mul(), a, b, desc));               \
    });                                                                    \
  }
GRB_DEFINE_EWISE(GrB_eWiseAdd, ewise_add)
GRB_DEFINE_EWISE(GrB_eWiseMult, ewise_mult)
#undef GRB_DEFINE_EWISE

// extract
inline GrB_Info GrB_extract(GrB_Vector w, GrB_Vector mask,
                            GrB_BinaryOp accum, GrB_Vector u,
                            const GrB_Index* indices, GrB_Index n,
                            GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::extract(w, mask, accum, u, indices, n, desc));
  });
}
inline GrB_Info GrB_extract(GrB_Matrix c, GrB_Matrix mask,
                            GrB_BinaryOp accum, GrB_Matrix a,
                            const GrB_Index* rows, GrB_Index nrows,
                            const GrB_Index* cols, GrB_Index ncols,
                            GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::extract(c, mask, accum, a, rows, nrows, cols, ncols, desc));
  });
}
inline GrB_Info GrB_extract(GrB_Vector w, GrB_Vector mask,
                            GrB_BinaryOp accum, GrB_Matrix a,
                            const GrB_Index* rows, GrB_Index nrows,
                            GrB_Index col, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::extract_col(w, mask, accum, a, rows, nrows, col, desc));
  });
}

// assign
inline GrB_Info GrB_assign(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           GrB_Vector u, const GrB_Index* indices,
                           GrB_Index n, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::assign(w, mask, accum, u, indices, n, desc));
  });
}
inline GrB_Info GrB_assign(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                           GrB_Matrix a, const GrB_Index* rows,
                           GrB_Index nrows, const GrB_Index* cols,
                           GrB_Index ncols, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::assign(c, mask, accum, a, rows, nrows, cols, ncols, desc));
  });
}
inline GrB_Info GrB_Row_assign(GrB_Matrix c, GrB_Vector mask,
                               GrB_BinaryOp accum, GrB_Vector u, GrB_Index i,
                               const GrB_Index* cols, GrB_Index ncols,
                               GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::assign_row(c, mask, accum, u, i, cols, ncols, desc));
  });
}
inline GrB_Info GrB_Col_assign(GrB_Matrix c, GrB_Vector mask,
                               GrB_BinaryOp accum, GrB_Vector u,
                               const GrB_Index* rows, GrB_Index nrows,
                               GrB_Index j, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::assign_col(c, mask, accum, u, rows, nrows, j, desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_assign(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           T value, const GrB_Index* indices, GrB_Index n,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::assign_scalar(
        w, mask, accum, &value, grb::type_of<T>(), indices, n, desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_assign(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                           T value, const GrB_Index* rows, GrB_Index nrows,
                           const GrB_Index* cols, GrB_Index ncols,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::assign_scalar(c, mask, accum, &value, grb::type_of<T>(), rows,
                           nrows, cols, ncols, desc));
  });
}
// Table II: GrB_Scalar variants.
inline GrB_Info GrB_assign(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           GrB_Scalar s, const GrB_Index* indices,
                           GrB_Index n, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::assign_scalar(w, mask, accum, s, indices, n, desc));
  });
}
inline GrB_Info GrB_assign(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                           GrB_Scalar s, const GrB_Index* rows,
                           GrB_Index nrows, const GrB_Index* cols,
                           GrB_Index ncols, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::assign_scalar(c, mask, accum, s, rows, nrows, cols, ncols, desc));
  });
}

// apply: unary op
inline GrB_Info GrB_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Vector u,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::apply(w, mask, accum, op, u, desc));
  });
}
inline GrB_Info GrB_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Matrix a,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::apply(c, mask, accum, op, a, desc));
  });
}
// apply: bound binary op (bind-first / bind-second)
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, T s, GrB_Vector u,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::apply_bind1st(w, mask, accum, op, &s, grb::type_of<T>(), u, desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, GrB_Vector u, T s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::apply_bind2nd(w, mask, accum, op, u, &s, grb::type_of<T>(), desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, T s, GrB_Matrix a,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::apply_bind1st(c, mask, accum, op, &s, grb::type_of<T>(), a, desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, GrB_Matrix a, T s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::apply_bind2nd(c, mask, accum, op, a, &s, grb::type_of<T>(), desc));
  });
}
// apply: GrB_Scalar-bound binary op (Table II)
inline GrB_Info GrB_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, GrB_Scalar s, GrB_Vector u,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::apply_bind1st(
        w, mask, accum, op, snap->value.data(), snap->type, u, desc));
  });
}
inline GrB_Info GrB_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, GrB_Vector u, GrB_Scalar s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::apply_bind2nd(
        w, mask, accum, op, u, snap->value.data(), snap->type, desc));
  });
}
inline GrB_Info GrB_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, GrB_Scalar s, GrB_Matrix a,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::apply_bind1st(
        c, mask, accum, op, snap->value.data(), snap->type, a, desc));
  });
}
inline GrB_Info GrB_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_BinaryOp op, GrB_Matrix a, GrB_Scalar s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::apply_bind2nd(
        c, mask, accum, op, a, snap->value.data(), snap->type, desc));
  });
}
// apply: index-unary op (paper §VIII.B)
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_IndexUnaryOp op, GrB_Vector u, T s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::apply_indexop(w, mask, accum, op, u, &s, grb::type_of<T>(), desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_IndexUnaryOp op, GrB_Matrix a, T s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::apply_indexop(c, mask, accum, op, a, &s, grb::type_of<T>(), desc));
  });
}
inline GrB_Info GrB_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_IndexUnaryOp op, GrB_Vector u, GrB_Scalar s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::apply_indexop(
        w, mask, accum, op, u, snap->value.data(), snap->type, desc));
  });
}
inline GrB_Info GrB_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_IndexUnaryOp op, GrB_Matrix a, GrB_Scalar s,
                          GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::apply_indexop(
        c, mask, accum, op, a, snap->value.data(), snap->type, desc));
  });
}

// select (paper §VIII.C)
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_select(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           GrB_IndexUnaryOp op, GrB_Vector u, T s,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::select(w, mask, accum, op, u, &s, grb::type_of<T>(), desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_select(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                           GrB_IndexUnaryOp op, GrB_Matrix a, T s,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::select(c, mask, accum, op, a, &s, grb::type_of<T>(), desc));
  });
}
inline GrB_Info GrB_select(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           GrB_IndexUnaryOp op, GrB_Vector u, GrB_Scalar s,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::select(w, mask, accum, op, u,
                                        snap->value.data(), snap->type, desc));
  });
}
inline GrB_Info GrB_select(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                           GrB_IndexUnaryOp op, GrB_Matrix a, GrB_Scalar s,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (s == nullptr) return GrB_UNINITIALIZED_OBJECT;
    std::shared_ptr<const grb::ScalarData> snap;
    grb::Info info = s->snapshot(&snap);
    if (static_cast<int>(info) < 0) return grb_detail::to_c(info);
    if (!snap->present) return GrB_EMPTY_OBJECT;
    return grb_detail::to_c(grb::select(c, mask, accum, op, a,
                                        snap->value.data(), snap->type, desc));
  });
}

// reduce
inline GrB_Info GrB_reduce(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           GrB_Monoid monoid, GrB_Matrix a,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::reduce_to_vector(w, mask, accum, monoid, a, desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_reduce(T* value, GrB_BinaryOp accum, GrB_Monoid monoid,
                           GrB_Vector u, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::reduce_to_scalar(value, grb::type_of<T>(),
                                                  accum, monoid, u, desc));
  });
}
template <class T,
          class = std::enable_if_t<grb_detail::is_grb_scalar_v<T>>>
inline GrB_Info GrB_reduce(T* value, GrB_BinaryOp accum, GrB_Monoid monoid,
                           GrB_Matrix a, GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::reduce_to_scalar(value, grb::type_of<T>(),
                                                  accum, monoid, a, desc));
  });
}
// Table II: GrB_Scalar-output variants (monoid and plain binary op).
inline GrB_Info GrB_reduce(GrB_Scalar out, GrB_BinaryOp accum,
                           GrB_Monoid monoid, GrB_Vector u,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::reduce_to_scalar(out, accum, monoid, u, desc));
  });
}
inline GrB_Info GrB_reduce(GrB_Scalar out, GrB_BinaryOp accum,
                           GrB_Monoid monoid, GrB_Matrix a,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::reduce_to_scalar(out, accum, monoid, a, desc));
  });
}
inline GrB_Info GrB_reduce(GrB_Scalar out, GrB_BinaryOp accum,
                           GrB_BinaryOp op, GrB_Vector u,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::reduce_to_scalar_binop(out, accum, op, u, desc));
  });
}
inline GrB_Info GrB_reduce(GrB_Scalar out, GrB_BinaryOp accum,
                           GrB_BinaryOp op, GrB_Matrix a,
                           GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::reduce_to_scalar_binop(out, accum, op, a, desc));
  });
}

// transpose / kronecker
inline GrB_Info GrB_transpose(GrB_Matrix c, GrB_Matrix mask,
                              GrB_BinaryOp accum, GrB_Matrix a,
                              GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::transpose(c, mask, accum, a, desc));
  });
}
inline GrB_Info GrB_kronecker(GrB_Matrix c, GrB_Matrix mask,
                              GrB_BinaryOp accum, GrB_BinaryOp op,
                              GrB_Matrix a, GrB_Matrix b,
                              GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::kronecker(c, mask, accum, op, a, b, desc));
  });
}
inline GrB_Info GrB_kronecker(GrB_Matrix c, GrB_Matrix mask,
                              GrB_BinaryOp accum, GrB_Semiring op,
                              GrB_Matrix a, GrB_Matrix b,
                              GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (op == nullptr) return GrB_NULL_POINTER;
    return grb_detail::to_c(
        grb::kronecker(c, mask, accum, op->mul(), a, b, desc));
  });
}
inline GrB_Info GrB_kronecker(GrB_Matrix c, GrB_Matrix mask,
                              GrB_BinaryOp accum, GrB_Monoid op,
                              GrB_Matrix a, GrB_Matrix b,
                              GrB_Descriptor desc) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (op == nullptr) return GrB_NULL_POINTER;
    return grb_detail::to_c(
        grb::kronecker(c, mask, accum, op->op(), a, b, desc));
  });
}

// ---------------------------------------------------------------------------
// Import / export (paper §VII.A) and serialize (paper §VII.B)
// ---------------------------------------------------------------------------

inline GrB_Info GrB_Matrix_import(GrB_Matrix* a, GrB_Type type,
                                  GrB_Index nrows, GrB_Index ncols,
                                  const GrB_Index* indptr,
                                  const GrB_Index* indices,
                                  const void* values, GrB_Index indptr_len,
                                  GrB_Index indices_len,
                                  GrB_Index values_len, GrB_Format format) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::matrix_import(
        a, type, nrows, ncols, indptr, indices, values, indptr_len,
        indices_len, values_len, grb_detail::to_format(format), nullptr));
  });
}
inline GrB_Info GrB_Matrix_exportSize(GrB_Index* indptr_len,
                                      GrB_Index* indices_len,
                                      GrB_Index* values_len,
                                      GrB_Format format, GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::matrix_export_size(
        indptr_len, indices_len, values_len, grb_detail::to_format(format), a));
  });
}
inline GrB_Info GrB_Matrix_export(GrB_Index* indptr, GrB_Index* indices,
                                  void* values, GrB_Format format,
                                  GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::matrix_export(
        indptr, indices, values, grb_detail::to_format(format), a));
  });
}
inline GrB_Info GrB_Matrix_exportHint(GrB_Format* format, GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (format == nullptr) return GrB_NULL_POINTER;
    grb::Format f;
    GrB_Info info = grb_detail::to_c(grb::matrix_export_hint(&f, a));
    if (info == GrB_SUCCESS) *format = static_cast<GrB_Format>(f);
    return info;
  });
}
inline GrB_Info GrB_Vector_import(GrB_Vector* v, GrB_Type type, GrB_Index n,
                                  const GrB_Index* indices,
                                  const void* values, GrB_Index indices_len,
                                  GrB_Index values_len, GrB_Format format) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::vector_import(v, type, n, indices, values, indices_len,
                           values_len, grb_detail::to_format(format), nullptr));
  });
}
inline GrB_Info GrB_Vector_exportSize(GrB_Index* indices_len,
                                      GrB_Index* values_len,
                                      GrB_Format format, GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::vector_export_size(
        indices_len, values_len, grb_detail::to_format(format), v));
  });
}
inline GrB_Info GrB_Vector_export(GrB_Index* indices, void* values,
                                  GrB_Format format, GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::vector_export(indices, values, grb_detail::to_format(format), v));
  });
}
inline GrB_Info GrB_Vector_exportHint(GrB_Format* format, GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (format == nullptr) return GrB_NULL_POINTER;
    grb::Format f;
    GrB_Info info = grb_detail::to_c(grb::vector_export_hint(&f, v));
    if (info == GrB_SUCCESS) *format = static_cast<GrB_Format>(f);
    return info;
  });
}

inline GrB_Info GrB_Matrix_serializeSize(GrB_Index* size, GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::matrix_serialize_size(size, a));
  });
}
inline GrB_Info GrB_Matrix_serialize(void* buffer, GrB_Index* size,
                                     GrB_Matrix a) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::matrix_serialize(buffer, size, a));
  });
}
inline GrB_Info GrB_Matrix_deserialize(GrB_Matrix* a, GrB_Type type,
                                       const void* buffer, GrB_Index size) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::matrix_deserialize(a, type, buffer, size, nullptr));
  });
}
inline GrB_Info GrB_Vector_serializeSize(GrB_Index* size, GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::vector_serialize_size(size, v));
  });
}
inline GrB_Info GrB_Vector_serialize(void* buffer, GrB_Index* size,
                                     GrB_Vector v) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(grb::vector_serialize(buffer, size, v));
  });
}
inline GrB_Info GrB_Vector_deserialize(GrB_Vector* v, GrB_Type type,
                                       const void* buffer, GrB_Index size) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::to_c(
        grb::vector_deserialize(v, type, buffer, size, nullptr));
  });
}

// ---------------------------------------------------------------------------
// GxB_* extensions: telemetry introspection (not part of the GraphBLAS 2.0
// specification; the GxB_ prefix marks implementation extensions, after
// SuiteSparse:GraphBLAS practice).
//
// Counters and spans are recorded by the always-compiled src/obs/ layer
// and are off by default; see obs/telemetry.hpp for the counter name
// schema and DESIGN.md §9 for the trace format.  Every GxB_* entry point
// must appear in the GxB_EXTENSIONS registry below and route through
// grb_detail::guarded — tools/grb_analyze.py enforces both.
// ---------------------------------------------------------------------------

// Registry of every GxB_* entry point this implementation provides, for
// runtime introspection (GxB_Extension_name / capability probing).
inline constexpr const char* const GxB_EXTENSIONS[] = {
    "GxB_Extension_count",
    "GxB_Extension_name",
    "GxB_Stats_enable",
    "GxB_Stats_get",
    "GxB_Stats_reset",
    "GxB_Stats_json",
    "GxB_Stats_prometheus",
    "GxB_Context_stats",
    "GxB_Explain",
    "GxB_Trace_start",
    "GxB_Trace_dump",
    "GxB_Memory_report",
    "GxB_Object_memory",
    "GxB_FlightRecorder_dump",
    "GxB_Fusion_set",
    "GxB_Fusion_get",
    "GxB_Format_set",
    "GxB_Format_get",
    "GxB_Matrix_Option_set",
    "GxB_Matrix_Option_get",
    "GxB_Vector_Option_set",
    "GxB_Vector_Option_get",
};
inline constexpr GrB_Index GxB_EXTENSION_COUNT =
    sizeof(GxB_EXTENSIONS) / sizeof(GxB_EXTENSIONS[0]);

// Number of GxB_* extension entry points.
inline GrB_Info GxB_Extension_count(GrB_Index* n) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (n == nullptr) return GrB_NULL_POINTER;
    *n = GxB_EXTENSION_COUNT;
    return GrB_SUCCESS;
  });
}

// Name of extension entry point `i` (0 <= i < GxB_EXTENSION_COUNT).  The
// returned pointer has static storage duration.
inline GrB_Info GxB_Extension_name(const char** name, GrB_Index i) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (name == nullptr) return GrB_NULL_POINTER;
    if (i >= GxB_EXTENSION_COUNT) return GrB_INVALID_INDEX;
    *name = GxB_EXTENSIONS[i];
    return GrB_SUCCESS;
  });
}

// Enables (on != 0) or disables (on == 0) per-operation counters.
// Disabled is the default; the counters keep their values when disabled.
inline GrB_Info GxB_Stats_enable(int on) {
  return grb_detail::guarded([&]() -> GrB_Info {
    grb::obs::stats_set_enabled(on != 0);
    return GrB_SUCCESS;
  });
}

// Reads one counter by dotted name (e.g. "GrB_mxm.calls", "GrB_mxm.flops",
// "queue.high_water", "pool.steals"; full schema in obs/telemetry.hpp).
// Unknown names return GrB_NO_VALUE with *value set to 0.
inline GrB_Info GxB_Stats_get(const char* name, uint64_t* value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (name == nullptr || value == nullptr) return GrB_NULL_POINTER;
    return grb::obs::stats_get(name, value) ? GrB_SUCCESS : GrB_NO_VALUE;
  });
}

// Zeroes every counter (per-op, gauges, per-pool).
inline GrB_Info GxB_Stats_reset(void) {
  return grb_detail::guarded([&]() -> GrB_Info {
    grb::obs::stats_reset();
    return GrB_SUCCESS;
  });
}

// Reads one counter by dotted name, restricted to the work attributed
// to `ctx` and the contexts created under it (a tenant's slice of the
// GxB_Stats_get schema).  Supported names: the per-op fields
// ("GrB_mxm.calls", ".ns", ".p99_ns", ...) and the memory gauges
// "mem.live_bytes", "mem.peak_bytes", "mem.objects" for containers
// homed in the subtree.  `ctx` may be NULL for the top-level context —
// work never attributed to a GrB_Context_new context.  Unknown names
// return GrB_NO_VALUE with *value set to 0.
inline GrB_Info GxB_Context_stats(GrB_Context ctx, const char* name,
                                  uint64_t* value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (name == nullptr || value == nullptr) return GrB_NULL_POINTER;
    uint64_t id =
        ctx == nullptr ? grb::obs::kTopContextId : ctx->obs_id();
    return grb::obs::stats_get_ctx(id, name, value) ? GrB_SUCCESS
                                                    : GrB_NO_VALUE;
  });
}

// Writes the full counter dump as JSON into `buf` (snprintf semantics:
// always NUL-terminated when *len > 0; on return *len is the required
// size including the terminator).  `buf` may be NULL to query the size.
inline GrB_Info GxB_Stats_json(char* buf, GrB_Index* len) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (len == nullptr) return GrB_NULL_POINTER;
    std::string json = grb::obs::stats_json();
    GrB_Index need = static_cast<GrB_Index>(json.size()) + 1;
    if (buf != nullptr && *len > 0) {
      GrB_Index n = *len - 1 < json.size() ? *len - 1 : json.size();
      std::memcpy(buf, json.data(), n);
      buf[n] = '\0';
    }
    *len = need;
    return GrB_SUCCESS;
  });
}

// Renders the decision audit — what strategy every adaptive cost-model
// branch chose, what it rejected, the predicted costs and the measured
// outcome — as human-readable text into `buf` (same sizing protocol as
// GxB_Stats_json).  `op` filters to records attributed to one entry
// point (e.g. "GrB_mxm"); NULL or "" explains everything still in the
// ring, newest first.  The audit records while stats are enabled
// (GxB_Stats_enable / GRB_DECISIONS=1); when it never ran the text says
// so rather than coming back empty.
inline GrB_Info GxB_Explain(const char* op, char* buf, GrB_Index* len) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (len == nullptr) return GrB_NULL_POINTER;
    std::string text = grb::obs::decision_explain(op, 0);
    GrB_Index need = static_cast<GrB_Index>(text.size()) + 1;
    if (buf != nullptr && *len > 0) {
      GrB_Index n = *len - 1 < text.size() ? *len - 1 : text.size();
      std::memcpy(buf, text.data(), n);
      buf[n] = '\0';
    }
    *len = need;
    return GrB_SUCCESS;
  });
}

// Writes the Prometheus text exposition (version 0.0.4) of the counters
// — per-op call/error totals, latency quantile summaries, live/peak
// memory gauges — into `buf` (same sizing protocol as GxB_Stats_json).
inline GrB_Info GxB_Stats_prometheus(char* buf, GrB_Index* len) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (len == nullptr) return GrB_NULL_POINTER;
    std::string text = grb::obs::stats_prometheus();
    GrB_Index need = static_cast<GrB_Index>(text.size()) + 1;
    if (buf != nullptr && *len > 0) {
      GrB_Index n = *len - 1 < text.size() ? *len - 1 : text.size();
      std::memcpy(buf, text.data(), n);
      buf[n] = '\0';
    }
    *len = need;
    return GrB_SUCCESS;
  });
}

// Writes the annotated memory-attribution report — library totals,
// scratch-arena slice, and every live object sorted by live bytes — into
// `buf` (same sizing protocol as GxB_Stats_json).
inline GrB_Info GxB_Memory_report(char* buf, GrB_Index* len) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (len == nullptr) return GrB_NULL_POINTER;
    std::string text = grb::obs::memory_report();
    GrB_Index need = static_cast<GrB_Index>(text.size()) + 1;
    if (buf != nullptr && *len > 0) {
      GrB_Index n = *len - 1 < text.size() ? *len - 1 : text.size();
      std::memcpy(buf, text.data(), n);
      buf[n] = '\0';
    }
    *len = need;
    return GrB_SUCCESS;
  });
}

// Live/peak bytes currently attributed to one container.
inline GrB_Info GxB_Object_memory(GrB_Matrix A, uint64_t* live,
                                  uint64_t* peak) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (live == nullptr || peak == nullptr) return GrB_NULL_POINTER;
    if (A == nullptr) return GrB_UNINITIALIZED_OBJECT;
    grb::obs::MemReportable::Snapshot s;
    A->mem_snapshot(&s);
    *live = s.live_bytes;
    *peak = s.peak_bytes;
    return GrB_SUCCESS;
  });
}
inline GrB_Info GxB_Object_memory(GrB_Vector v, uint64_t* live,
                                  uint64_t* peak) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (live == nullptr || peak == nullptr) return GrB_NULL_POINTER;
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    grb::obs::MemReportable::Snapshot s;
    v->mem_snapshot(&s);
    *live = s.live_bytes;
    *peak = s.peak_bytes;
    return GrB_SUCCESS;
  });
}
inline GrB_Info GxB_Object_memory(GrB_Scalar s_, uint64_t* live,
                                  uint64_t* peak) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (live == nullptr || peak == nullptr) return GrB_NULL_POINTER;
    if (s_ == nullptr) return GrB_UNINITIALIZED_OBJECT;
    grb::obs::MemReportable::Snapshot s;
    s_->mem_snapshot(&s);
    *live = s.live_bytes;
    *peak = s.peak_bytes;
    return GrB_SUCCESS;
  });
}

// Dumps the flight-recorder ring on demand: `path` NULL writes the
// annotated text to stderr; a ".json" suffix selects the Chrome
// trace-event form.  The ring keeps recording; nothing is cleared.
inline GrB_Info GxB_FlightRecorder_dump(const char* path) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb::obs::fr_dump_file(path) ? GrB_SUCCESS : GrB_INVALID_VALUE;
  });
}

// Fusion option, kept for source compatibility.  Nonblocking mode
// defers a method sequence and runs it in program order at completion;
// there is no fusion planner (DESIGN.md §12), so any value is accepted
// and ignored, and the getter reports 0.
inline GrB_Info GxB_Fusion_set(int /*on*/) {
  return grb_detail::guarded([&]() -> GrB_Info { return GrB_SUCCESS; });
}

inline GrB_Info GxB_Fusion_get(int* on) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (on == nullptr) return GrB_NULL_POINTER;
    *on = 0;
    return GrB_SUCCESS;
  });
}

// --- Storage-format options (DESIGN.md §15) --------------------------------
// Storage has one layout per object kind: a matrix is CSR (row pointers,
// sorted column indices, values) and a vector a sorted coordinate list.
// These entry points stay for source compatibility: every accepted
// format value is a no-op and the getters report GxB_FORMAT_CSR.

typedef enum : int {
  GxB_FORMAT_CSR = 0,     // compressed sparse row (the one layout)
  GxB_FORMAT_HYPER = 1,   // hypersparse CSR (accepted for matrices)
  GxB_FORMAT_BITMAP = 2,  // presence bitmap (accepted)
  GxB_FORMAT_DENSE = 3,   // full value array (accepted)
  GxB_FORMAT_AUTO = 4,    // library's choice (the default)
} GxB_Format;

typedef enum : int {
  GxB_FORMAT = 0,  // storage format (GxB_Format values)
} GxB_Option_Field;

namespace grb_detail {
// Whether `value` is a GxB_Format the option setters accept.  HYPER is
// a matrix format only.
inline bool format_accepted(GxB_Format value, bool allow_hyper) {
  switch (value) {
    case GxB_FORMAT_HYPER:
      return allow_hyper;
    case GxB_FORMAT_CSR:
    case GxB_FORMAT_BITMAP:
    case GxB_FORMAT_DENSE:
    case GxB_FORMAT_AUTO:
      return true;
  }
  return false;
}
}  // namespace grb_detail

// Global format setting: every value is accepted and changes nothing,
// since matrices are always stored as CSR.
inline GrB_Info GxB_Format_set(GxB_Format value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb_detail::format_accepted(value, true) ? GrB_SUCCESS
                                                    : GrB_INVALID_VALUE;
  });
}

// Reads the global format: always GxB_FORMAT_CSR.
inline GrB_Info GxB_Format_get(GxB_Format* value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (value == nullptr) return GrB_NULL_POINTER;
    *value = GxB_FORMAT_CSR;
    return GrB_SUCCESS;
  });
}

// Per-matrix format setting: accepted values leave the matrix CSR.
inline GrB_Info GxB_Matrix_Option_set(GrB_Matrix A, GxB_Option_Field field,
                                      GxB_Format value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (A == nullptr) return GrB_UNINITIALIZED_OBJECT;
    if (field != GxB_FORMAT) return GrB_INVALID_VALUE;
    return grb_detail::format_accepted(value, true) ? GrB_SUCCESS
                                                    : GrB_INVALID_VALUE;
  });
}

// Reads a matrix's storage format: always GxB_FORMAT_CSR.
inline GrB_Info GxB_Matrix_Option_get(GrB_Matrix A, GxB_Option_Field field,
                                      GxB_Format* value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (value == nullptr) return GrB_NULL_POINTER;
    if (A == nullptr) return GrB_UNINITIALIZED_OBJECT;
    if (field != GxB_FORMAT) return GrB_INVALID_VALUE;
    *value = GxB_FORMAT_CSR;
    return GrB_SUCCESS;
  });
}

// Vector variant: CSR, BITMAP, DENSE and AUTO leave the vector sparse;
// HYPER is rejected, as vectors have no hypersparse form.
inline GrB_Info GxB_Vector_Option_set(GrB_Vector v, GxB_Option_Field field,
                                      GxB_Format value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    if (field != GxB_FORMAT) return GrB_INVALID_VALUE;
    return grb_detail::format_accepted(value, false) ? GrB_SUCCESS
                                                     : GrB_INVALID_VALUE;
  });
}

// Reads a vector's storage format: always GxB_FORMAT_CSR.
inline GrB_Info GxB_Vector_Option_get(GrB_Vector v, GxB_Option_Field field,
                                      GxB_Format* value) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (value == nullptr) return GrB_NULL_POINTER;
    if (v == nullptr) return GrB_UNINITIALIZED_OBJECT;
    if (field != GxB_FORMAT) return GrB_INVALID_VALUE;
    *value = GxB_FORMAT_CSR;
    return GrB_SUCCESS;
  });
}

// Starts span recording.  `path` (required) names the Chrome trace-event
// JSON file a later GxB_Trace_dump(NULL) — or GrB_finalize under
// GRB_TRACE — will write.  Restarting discards any buffered spans.
inline GrB_Info GxB_Trace_start(const char* path) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (path == nullptr) return GrB_NULL_POINTER;
    return grb::obs::trace_start(path) ? GrB_SUCCESS : GrB_INVALID_VALUE;
  });
}

// Stops recording and writes the buffered spans as Chrome trace-event
// JSON (chrome://tracing / Perfetto loadable).  `path` may be NULL to
// use the GxB_Trace_start path.  The buffer is cleared either way.
inline GrB_Info GxB_Trace_dump(const char* path) {
  return grb_detail::guarded([&]() -> GrB_Info {
    return grb::obs::trace_dump(path) ? GrB_SUCCESS : GrB_INVALID_VALUE;
  });
}
