#include "core/binary_op.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "core/scalar_ops.hpp"
#include "util/thread_annotations.hpp"

namespace grb {
namespace {

using scalar::bin_fn;
using scalar::st;

constexpr int kNumOps = 24;  // BinOpCode enumerators

struct Registry {
  // [opcode][typecode]; entries may be null for undefined combinations.
  std::unique_ptr<BinaryOp> table[kNumOps][kNumBuiltinTypes];

  template <class T>
  void add(BinOpCode op, BinaryFn fn, const char* opname, bool cmp) {
    const Type* t = type_of<T>();
    const Type* z = cmp ? TypeBool() : t;
    int o = static_cast<int>(op);
    int c = static_cast<int>(t->code());
    table[o][c] = std::make_unique<BinaryOp>(
        z, t, t, fn, op, std::string(opname) + "_" + t->name());
  }

  template <BinOpCode Op, class T>
  void reg(const char* opname) {
    add<T>(Op, &bin_fn<Op, T>, opname,
           Op >= BinOpCode::kEq && Op <= BinOpCode::kLxnor);
  }

  template <class T>
  void add_arith() {
    reg<BinOpCode::kFirst, T>("GrB_FIRST");
    reg<BinOpCode::kSecond, T>("GrB_SECOND");
    reg<BinOpCode::kOneb, T>("GrB_ONEB");
    reg<BinOpCode::kMin, T>("GrB_MIN");
    reg<BinOpCode::kMax, T>("GrB_MAX");
    reg<BinOpCode::kPlus, T>("GrB_PLUS");
    reg<BinOpCode::kMinus, T>("GrB_MINUS");
    reg<BinOpCode::kTimes, T>("GrB_TIMES");
    reg<BinOpCode::kDiv, T>("GrB_DIV");
    reg<BinOpCode::kEq, T>("GrB_EQ");
    reg<BinOpCode::kNe, T>("GrB_NE");
    reg<BinOpCode::kGt, T>("GrB_GT");
    reg<BinOpCode::kLt, T>("GrB_LT");
    reg<BinOpCode::kGe, T>("GrB_GE");
    reg<BinOpCode::kLe, T>("GrB_LE");
  }

  template <class T>
  void add_bitwise() {
    reg<BinOpCode::kBor, T>("GrB_BOR");
    reg<BinOpCode::kBand, T>("GrB_BAND");
    reg<BinOpCode::kBxor, T>("GrB_BXOR");
    reg<BinOpCode::kBxnor, T>("GrB_BXNOR");
  }

  Registry() {
    add_arith<bool>();
    add_arith<int8_t>();
    add_arith<uint8_t>();
    add_arith<int16_t>();
    add_arith<uint16_t>();
    add_arith<int32_t>();
    add_arith<uint32_t>();
    add_arith<int64_t>();
    add_arith<uint64_t>();
    add_arith<float>();
    add_arith<double>();

    reg<BinOpCode::kLor, bool>("GrB_LOR");
    reg<BinOpCode::kLand, bool>("GrB_LAND");
    reg<BinOpCode::kLxor, bool>("GrB_LXOR");
    reg<BinOpCode::kLxnor, bool>("GrB_LXNOR");

    add_bitwise<int8_t>();
    add_bitwise<uint8_t>();
    add_bitwise<int16_t>();
    add_bitwise<uint16_t>();
    add_bitwise<int32_t>();
    add_bitwise<uint32_t>();
    add_bitwise<int64_t>();
    add_bitwise<uint64_t>();
  }
};

const Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

struct UserOps {
  Mutex mu;
  std::unordered_set<const BinaryOp*> live GRB_GUARDED_BY(mu);
};
UserOps& user_ops() {
  static UserOps* u = new UserOps;
  return *u;
}

template <class T>
void write_limits(BinOpCode op, void* out, bool* ok) {
  switch (op) {
    case BinOpCode::kPlus:
      st<T>(out, T{0});
      break;
    case BinOpCode::kTimes:
      st<T>(out, T{1});
      break;
    case BinOpCode::kMin:
      if constexpr (std::is_floating_point_v<T>) {
        st<T>(out, std::numeric_limits<T>::infinity());
      } else {
        st<T>(out, std::numeric_limits<T>::max());
      }
      break;
    case BinOpCode::kMax:
      if constexpr (std::is_floating_point_v<T>) {
        st<T>(out, -std::numeric_limits<T>::infinity());
      } else {
        st<T>(out, std::numeric_limits<T>::lowest());
      }
      break;
    default:
      *ok = false;
      break;
  }
}

template <class T>
void write_terminal(BinOpCode op, void* out, bool* ok) {
  switch (op) {
    case BinOpCode::kTimes:
      if constexpr (std::is_integral_v<T>) {
        st<T>(out, T{0});
      } else {
        *ok = false;  // 0*NaN != 0, so TIMES has no float terminal
      }
      break;
    case BinOpCode::kMin:
      if constexpr (std::is_floating_point_v<T>) {
        st<T>(out, -std::numeric_limits<T>::infinity());
      } else {
        st<T>(out, std::numeric_limits<T>::lowest());
      }
      break;
    case BinOpCode::kMax:
      if constexpr (std::is_floating_point_v<T>) {
        st<T>(out, std::numeric_limits<T>::infinity());
      } else {
        st<T>(out, std::numeric_limits<T>::max());
      }
      break;
    default:
      *ok = false;
      break;
  }
}

template <class Fn>
bool dispatch_numeric(const Type* type, Fn&& fn) {
  switch (type->code()) {
    case TypeCode::kInt8: fn(int8_t{}); return true;
    case TypeCode::kUInt8: fn(uint8_t{}); return true;
    case TypeCode::kInt16: fn(int16_t{}); return true;
    case TypeCode::kUInt16: fn(uint16_t{}); return true;
    case TypeCode::kInt32: fn(int32_t{}); return true;
    case TypeCode::kUInt32: fn(uint32_t{}); return true;
    case TypeCode::kInt64: fn(int64_t{}); return true;
    case TypeCode::kUInt64: fn(uint64_t{}); return true;
    case TypeCode::kFP32: fn(float{}); return true;
    case TypeCode::kFP64: fn(double{}); return true;
    default: return false;
  }
}

}  // namespace

const BinaryOp* get_binary_op(BinOpCode op, TypeCode type) {
  int o = static_cast<int>(op);
  int c = static_cast<int>(type);
  if (o <= 0 || o >= kNumOps || c < 0 || c >= kNumBuiltinTypes)
    return nullptr;
  return registry().table[o][c].get();
}

Info binary_op_new(const BinaryOp** op, BinaryFn fn, const Type* ztype,
                   const Type* xtype, const Type* ytype, std::string name) {
  if (op == nullptr) return Info::kNullPointer;
  if (fn == nullptr) return Info::kNullPointer;
  if (ztype == nullptr || xtype == nullptr || ytype == nullptr)
    return Info::kNullPointer;
  auto* b = new BinaryOp(ztype, xtype, ytype, fn, BinOpCode::kCustom,
                         std::move(name));
  auto& u = user_ops();
  MutexLock lock(u.mu);
  u.live.insert(b);
  *op = b;
  return Info::kSuccess;
}

Info binary_op_free(const BinaryOp* op) {
  if (op == nullptr) return Info::kNullPointer;
  // Identify predefined operators by pointer identity (the handle may be
  // dangling, so it is never dereferenced here).
  for (int o = 1; o < kNumOps; ++o)
    for (int c = 0; c < kNumBuiltinTypes; ++c)
      if (registry().table[o][c].get() == op) return Info::kInvalidValue;
  auto& u = user_ops();
  MutexLock lock(u.mu);
  auto it = u.live.find(op);
  if (it == u.live.end()) return Info::kUninitializedObject;
  u.live.erase(it);
  delete op;
  return Info::kSuccess;
}

bool monoid_identity_value(BinOpCode op, const Type* type, void* out) {
  if (type == TypeBool()) {
    switch (op) {
      case BinOpCode::kLor:
      case BinOpCode::kLxor:
      case BinOpCode::kPlus:
      case BinOpCode::kMax:
        st<bool>(out, false);
        return true;
      case BinOpCode::kLand:
      case BinOpCode::kLxnor:
      case BinOpCode::kEq:
      case BinOpCode::kTimes:
      case BinOpCode::kMin:
        st<bool>(out, true);
        return true;
      default:
        return false;
    }
  }
  bool ok = true;
  bool dispatched = dispatch_numeric(type, [&](auto tag) {
    using T = decltype(tag);
    write_limits<T>(op, out, &ok);
  });
  return dispatched && ok;
}

bool monoid_terminal_value(BinOpCode op, const Type* type, void* out) {
  if (type == TypeBool()) {
    switch (op) {
      case BinOpCode::kLor:
      case BinOpCode::kPlus:
      case BinOpCode::kMax:
        st<bool>(out, true);
        return true;
      case BinOpCode::kLand:
      case BinOpCode::kTimes:
      case BinOpCode::kMin:
        st<bool>(out, false);
        return true;
      default:
        return false;
    }
  }
  bool ok = true;
  bool dispatched = dispatch_numeric(type, [&](auto tag) {
    using T = decltype(tag);
    write_terminal<T>(op, out, &ok);
  });
  return dispatched && ok;
}

bool op_is_monoid_candidate(BinOpCode op) {
  switch (op) {
    case BinOpCode::kPlus:
    case BinOpCode::kTimes:
    case BinOpCode::kMin:
    case BinOpCode::kMax:
    case BinOpCode::kLor:
    case BinOpCode::kLand:
    case BinOpCode::kLxor:
    case BinOpCode::kLxnor:
      return true;
    default:
      return false;
  }
}

}  // namespace grb
