// The one scalar definition of every predefined operator.
//
// bin_eval<Op, T>(x, y) and un_eval<Op, T>(x) are the bodies of the
// builtin binary and unary operators over a C++ domain T.  Both
// consumers instantiate them: the registries in core/binary_op.cpp and
// core/unary_op.cpp wrap them in the C-ABI function pointers the API
// hands out (bin_fn / un_fn), and the typed kernels in ops/ inline them
// directly.  So the generic and the typed path cannot disagree on a
// single bit (NaN handling of MIN/MAX, integer wrap-around, x/0).
// pos_keep and value_keep are the bodies of select's builtin
// index-unary operators, wrapped by core/index_unary_op.cpp.
//
// Domain conventions (see core/binary_op.hpp):
//  * BOOL arithmetic: PLUS=LOR, TIMES=LAND, MIN=LAND, MAX=LOR,
//    MINUS=LXOR, DIV=FIRST, ONEB=true.
//  * Signed integer arithmetic wraps (computed in unsigned arithmetic);
//    integer x/0 is 0 and INT_MIN/-1 is INT_MIN.
//  * Floating-point MIN/MAX are fmin/fmax (a NaN operand loses, a tie
//    keeps x); the other floating-point arithmetic pins which NaN a NaN
//    result carries (pin_nan).
#pragma once

#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/binary_op.hpp"
#include "core/index_unary_op.hpp"
#include "core/unary_op.hpp"

namespace grb::scalar {

template <class T>
inline T ld(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <class T>
inline void st(void* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

template <class T>
inline constexpr bool kIsBool = std::is_same_v<T, bool>;

// Hardware returns one operand's NaN when both operands are NaN, picked
// by instruction operand order, which the compiler may commute (x * y and
// y * x are one expression to it).  Pinning the choice makes every
// instantiation of an operator produce the same bits: a NaN result is
// x's NaN, else y's, else the fresh NaN of an invalid operation (0 * Inf,
// Inf - Inf).  Written as selects, so loops over it still vectorize.
template <class T>
inline T pin_nan(T x, T y, T r) {
  return r == r ? r : (x != x ? x : (y != y ? y : r));
}

template <class T>
inline T wrap_add(T x, T y) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(x) + static_cast<U>(y));
  } else {
    return pin_nan(x, y, x + y);
  }
}

template <class T>
inline T wrap_sub(T x, T y) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(x) - static_cast<U>(y));
  } else {
    return pin_nan(x, y, x - y);
  }
}

template <class T>
inline T wrap_mul(T x, T y) {
  if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(static_cast<U>(x) * static_cast<U>(y));
  } else {
    return pin_nan(x, y, x * y);
  }
}

template <class T>
inline T safe_div(T x, T y) {
  if constexpr (std::is_integral_v<T>) {
    if (y == 0) return T{0};
    if constexpr (std::is_signed_v<T>) {
      // INT_MIN / -1 overflows; wrap to INT_MIN like a 2's-complement op.
      if (x == std::numeric_limits<T>::min() && y == T{-1}) return x;
    }
    return static_cast<T>(x / y);
  } else {
    return pin_nan(x, y, x / y);
  }
}

// Result domain of a binary opcode over T: comparisons yield BOOL.
template <BinOpCode Op, class T>
using BinResult =
    std::conditional_t<(Op >= BinOpCode::kEq && Op <= BinOpCode::kLe), bool,
                       T>;

template <BinOpCode Op, class T>
inline BinResult<Op, T> bin_eval(T x, T y) {
  using B = BinOpCode;
  if constexpr (Op == B::kFirst) {
    return x;
  } else if constexpr (Op == B::kSecond) {
    return y;
  } else if constexpr (Op == B::kOneb) {
    return T{1};
  } else if constexpr (kIsBool<T> && (Op == B::kMin || Op == B::kTimes)) {
    return x && y;
  } else if constexpr (kIsBool<T> && (Op == B::kMax || Op == B::kPlus)) {
    return x || y;
  } else if constexpr (kIsBool<T> && Op == B::kMinus) {
    return x != y;
  } else if constexpr (kIsBool<T> && Op == B::kDiv) {
    return x;
  } else if constexpr (Op == B::kMin) {
    if constexpr (std::is_floating_point_v<T>) {
      // fmin, spelled out so no library or vector expansion can pick
      // another zero or NaN: ties keep x, a NaN operand loses.
      return x <= y ? x : (y < x ? y : (y != y ? x : y));
    } else {
      return x < y ? x : y;
    }
  } else if constexpr (Op == B::kMax) {
    if constexpr (std::is_floating_point_v<T>) {
      return x >= y ? x : (y > x ? y : (y != y ? x : y));
    } else {
      return x > y ? x : y;
    }
  } else if constexpr (Op == B::kPlus) {
    return wrap_add(x, y);
  } else if constexpr (Op == B::kMinus) {
    return wrap_sub(x, y);
  } else if constexpr (Op == B::kTimes) {
    return wrap_mul(x, y);
  } else if constexpr (Op == B::kDiv) {
    return safe_div(x, y);
  } else if constexpr (Op == B::kEq) {
    return x == y;
  } else if constexpr (Op == B::kNe) {
    return x != y;
  } else if constexpr (Op == B::kGt) {
    return x > y;
  } else if constexpr (Op == B::kLt) {
    return x < y;
  } else if constexpr (Op == B::kGe) {
    return x >= y;
  } else if constexpr (Op == B::kLe) {
    return x <= y;
  } else if constexpr (Op == B::kLor) {
    return x || y;
  } else if constexpr (Op == B::kLand) {
    return x && y;
  } else if constexpr (Op == B::kLxor) {
    return x != y;
  } else if constexpr (Op == B::kLxnor) {
    return x == y;
  } else if constexpr (Op == B::kBor) {
    return static_cast<T>(x | y);
  } else if constexpr (Op == B::kBand) {
    return static_cast<T>(x & y);
  } else if constexpr (Op == B::kBxor) {
    return static_cast<T>(x ^ y);
  } else {
    static_assert(Op == B::kBxnor, "unhandled binary opcode");
    return static_cast<T>(~(x ^ y));
  }
}

template <UnOpCode Op, class T>
inline T un_eval(T x) {
  using U = UnOpCode;
  if constexpr (Op == U::kIdentity) {
    return x;
  } else if constexpr (Op == U::kAinv) {
    if constexpr (kIsBool<T>) {
      return x;
    } else if constexpr (std::is_integral_v<T>) {
      using UT = std::make_unsigned_t<T>;
      return static_cast<T>(UT{0} - static_cast<UT>(x));
    } else {
      return -x;
    }
  } else if constexpr (Op == U::kMinv) {
    if constexpr (kIsBool<T>) {
      return true;
    } else if constexpr (std::is_integral_v<T>) {
      return x == 0 ? T{0} : static_cast<T>(T{1} / x);
    } else {
      return T{1} / x;
    }
  } else if constexpr (Op == U::kAbs) {
    if constexpr (kIsBool<T> || std::is_unsigned_v<T>) {
      return x;
    } else if constexpr (std::is_integral_v<T>) {
      // |INT_MIN| wraps to itself in 2's complement.
      if (x == std::numeric_limits<T>::min()) return x;
      return x < 0 ? static_cast<T>(-x) : x;
    } else {
      return std::fabs(x);
    }
  } else if constexpr (Op == U::kLnot) {
    return !x;
  } else {
    static_assert(Op == U::kBnot, "unhandled unary opcode");
    return static_cast<T>(~x);
  }
}

// The "keep" index-unary operators of select (Table IV): positional
// ones over an entry's row i and column j (a vector entry passes its
// index as both) and an INT64 thunk, value ones over the stored value
// and a thunk in the value's domain.  core/index_unary_op.cpp wraps them
// in the C-ABI functions.  The diagonal tests compare j - i with s:
// indices are below 2^60, so j - i cannot overflow, while i + s can for
// a thunk near an INT64 bound.
template <IdxOpCode Op>
inline bool pos_keep(int64_t i, int64_t j, int64_t s) {
  using I = IdxOpCode;
  if constexpr (Op == I::kTril) {
    return j - i <= s;
  } else if constexpr (Op == I::kTriu) {
    return j - i >= s;
  } else if constexpr (Op == I::kDiag) {
    return j - i == s;
  } else if constexpr (Op == I::kOffdiag) {
    return j - i != s;
  } else if constexpr (Op == I::kRowLE) {
    return i <= s;
  } else if constexpr (Op == I::kRowGT) {
    return i > s;
  } else if constexpr (Op == I::kColLE) {
    return j <= s;
  } else {
    static_assert(Op == I::kColGT, "unhandled positional opcode");
    return j > s;
  }
}

template <IdxOpCode Op, class T>
inline bool value_keep(T a, T s) {
  using I = IdxOpCode;
  if constexpr (Op == I::kValueEQ) {
    return a == s;
  } else if constexpr (Op == I::kValueNE) {
    return a != s;
  } else if constexpr (Op == I::kValueLT) {
    return a < s;
  } else if constexpr (Op == I::kValueLE) {
    return a <= s;
  } else if constexpr (Op == I::kValueGT) {
    return a > s;
  } else {
    static_assert(Op == I::kValueGE, "unhandled value opcode");
    return a >= s;
  }
}

// The C-ABI operator functions of the predefined operators.
template <BinOpCode Op, class T>
void bin_fn(void* z, const void* x, const void* y) {
  st(z, bin_eval<Op, T>(ld<T>(x), ld<T>(y)));
}

template <UnOpCode Op, class T>
void un_fn(void* z, const void* x) {
  st(z, un_eval<Op, T>(ld<T>(x)));
}

}  // namespace grb::scalar
