#include "core/type.hpp"

#include <memory>
#include <unordered_set>
#include "util/thread_annotations.hpp"

namespace grb {
namespace {

// Registry of live user-defined types so type_free / finalize can reclaim
// them and validation can reject dangling descriptors.
struct UdtRegistry {
  Mutex mu;
  std::unordered_set<const Type*> live GRB_GUARDED_BY(mu);
};

UdtRegistry& udt_registry() {
  static UdtRegistry* r = new UdtRegistry;
  return *r;
}

template <class To, class From>
void cast_impl(void* dst, const void* src) {
  From f;
  std::memcpy(&f, src, sizeof(From));
  To t = convert_value<To>(f);
  std::memcpy(dst, &t, sizeof(To));
}

// cast_table[to][from]
using CastRow = CastFn[kNumBuiltinTypes];

template <class To>
constexpr void fill_row(CastRow& row) {
  row[0] = &cast_impl<To, bool>;
  row[1] = &cast_impl<To, int8_t>;
  row[2] = &cast_impl<To, uint8_t>;
  row[3] = &cast_impl<To, int16_t>;
  row[4] = &cast_impl<To, uint16_t>;
  row[5] = &cast_impl<To, int32_t>;
  row[6] = &cast_impl<To, uint32_t>;
  row[7] = &cast_impl<To, int64_t>;
  row[8] = &cast_impl<To, uint64_t>;
  row[9] = &cast_impl<To, float>;
  row[10] = &cast_impl<To, double>;
}

struct CastTable {
  CastRow rows[kNumBuiltinTypes];
  CastTable() {
    fill_row<bool>(rows[0]);
    fill_row<int8_t>(rows[1]);
    fill_row<uint8_t>(rows[2]);
    fill_row<int16_t>(rows[3]);
    fill_row<uint16_t>(rows[4]);
    fill_row<int32_t>(rows[5]);
    fill_row<uint32_t>(rows[6]);
    fill_row<int64_t>(rows[7]);
    fill_row<uint64_t>(rows[8]);
    fill_row<float>(rows[9]);
    fill_row<double>(rows[10]);
  }
};

const CastTable& cast_table() {
  static CastTable t;
  return t;
}

template <size_t N>
void copy_n_bytes(void* dst, const void* src) {
  std::memcpy(dst, src, N);
}

}  // namespace

#define GRB_DEFINE_BUILTIN(fn_name, code, ctype, grb_name)              \
  const Type* fn_name() {                                               \
    static const Type t(code, sizeof(ctype), grb_name);                 \
    return &t;                                                          \
  }

GRB_DEFINE_BUILTIN(TypeBool, TypeCode::kBool, bool, "GrB_BOOL")
GRB_DEFINE_BUILTIN(TypeInt8, TypeCode::kInt8, int8_t, "GrB_INT8")
GRB_DEFINE_BUILTIN(TypeUInt8, TypeCode::kUInt8, uint8_t, "GrB_UINT8")
GRB_DEFINE_BUILTIN(TypeInt16, TypeCode::kInt16, int16_t, "GrB_INT16")
GRB_DEFINE_BUILTIN(TypeUInt16, TypeCode::kUInt16, uint16_t, "GrB_UINT16")
GRB_DEFINE_BUILTIN(TypeInt32, TypeCode::kInt32, int32_t, "GrB_INT32")
GRB_DEFINE_BUILTIN(TypeUInt32, TypeCode::kUInt32, uint32_t, "GrB_UINT32")
GRB_DEFINE_BUILTIN(TypeInt64, TypeCode::kInt64, int64_t, "GrB_INT64")
GRB_DEFINE_BUILTIN(TypeUInt64, TypeCode::kUInt64, uint64_t, "GrB_UINT64")
GRB_DEFINE_BUILTIN(TypeFP32, TypeCode::kFP32, float, "GrB_FP32")
GRB_DEFINE_BUILTIN(TypeFP64, TypeCode::kFP64, double, "GrB_FP64")
#undef GRB_DEFINE_BUILTIN

const Type* Type::builtin(TypeCode code) {
  switch (code) {
    case TypeCode::kBool: return TypeBool();
    case TypeCode::kInt8: return TypeInt8();
    case TypeCode::kUInt8: return TypeUInt8();
    case TypeCode::kInt16: return TypeInt16();
    case TypeCode::kUInt16: return TypeUInt16();
    case TypeCode::kInt32: return TypeInt32();
    case TypeCode::kUInt32: return TypeUInt32();
    case TypeCode::kInt64: return TypeInt64();
    case TypeCode::kUInt64: return TypeUInt64();
    case TypeCode::kFP32: return TypeFP32();
    case TypeCode::kFP64: return TypeFP64();
    case TypeCode::kUdt: return nullptr;
  }
  return nullptr;
}

Info type_new(const Type** type, size_t size, std::string name) {
  if (type == nullptr) return Info::kNullPointer;
  if (size == 0) return Info::kInvalidValue;
  auto* t = new Type(TypeCode::kUdt, size, std::move(name));
  {
    auto& reg = udt_registry();
    MutexLock lock(reg.mu);
    reg.live.insert(t);
  }
  *type = t;
  return Info::kSuccess;
}

Info type_free(const Type* type) {
  if (type == nullptr) return Info::kNullPointer;
  // Decide by pointer identity only: `type` may be a dangling handle
  // (double free), so it must not be dereferenced before it is known to
  // be live.
  for (int c = 0; c < kNumBuiltinTypes; ++c) {
    if (type == Type::builtin(static_cast<TypeCode>(c)))
      return Info::kInvalidValue;
  }
  auto& reg = udt_registry();
  MutexLock lock(reg.mu);
  auto it = reg.live.find(type);
  if (it == reg.live.end()) return Info::kUninitializedObject;
  reg.live.erase(it);
  delete type;
  return Info::kSuccess;
}

bool types_compatible(const Type* to, const Type* from) {
  if (to == from) return true;
  return to != nullptr && from != nullptr && to->is_builtin() &&
         from->is_builtin();
}

CastFn cast_fn(const Type* to, const Type* from) {
  if (to == nullptr || from == nullptr) return nullptr;
  if (to == from) {
    switch (to->size()) {
      case 1: return &copy_n_bytes<1>;
      case 2: return &copy_n_bytes<2>;
      case 4: return &copy_n_bytes<4>;
      case 8: return &copy_n_bytes<8>;
      default: return nullptr;  // callers handle same-UDT via memcpy path
    }
  }
  if (!to->is_builtin() || !from->is_builtin()) return nullptr;
  return cast_table()
      .rows[static_cast<int>(to->code())][static_cast<int>(from->code())];
}

void cast_value(const Type* to, void* dst, const Type* from,
                const void* src) {
  if (to == from) {
    std::memcpy(dst, src, to->size());
    return;
  }
  CastFn fn = cast_fn(to, from);
  fn(dst, src);
}

bool value_as_bool(const Type* type, const void* value) {
  switch (type->code()) {
    case TypeCode::kBool: {
      bool b;
      std::memcpy(&b, value, sizeof(bool));
      return b;
    }
    case TypeCode::kInt8:
    case TypeCode::kUInt8: {
      uint8_t v;
      std::memcpy(&v, value, 1);
      return v != 0;
    }
    case TypeCode::kInt16:
    case TypeCode::kUInt16: {
      uint16_t v;
      std::memcpy(&v, value, 2);
      return v != 0;
    }
    case TypeCode::kInt32:
    case TypeCode::kUInt32: {
      uint32_t v;
      std::memcpy(&v, value, 4);
      return v != 0;
    }
    case TypeCode::kInt64:
    case TypeCode::kUInt64: {
      uint64_t v;
      std::memcpy(&v, value, 8);
      return v != 0;
    }
    case TypeCode::kFP32: {
      float v;
      std::memcpy(&v, value, 4);
      return v != 0.0f;
    }
    case TypeCode::kFP64: {
      double v;
      std::memcpy(&v, value, 8);
      return v != 0.0;
    }
    case TypeCode::kUdt: {
      const auto* bytes = static_cast<const unsigned char*>(value);
      for (size_t i = 0; i < type->size(); ++i)
        if (bytes[i] != 0) return true;
      return false;
    }
  }
  return false;
}

}  // namespace grb
