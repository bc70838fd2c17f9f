// GrB_Type: runtime type descriptors for GraphBLAS domains.
//
// GraphBLAS values are stored type-erased (byte buffers with a stride).
// Builtin domains support implicit casting between one another, as the C
// API requires; user-defined types (UDTs) are opaque fixed-size PODs that
// only match themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/info.hpp"
#include "obs/memory.hpp"

namespace grb {

using Index = uint64_t;

// Maximum dimension / index value accepted by this implementation
// (GrB_INDEX_MAX in the C API).
inline constexpr Index kIndexMax = (Index{1} << 60);

enum class TypeCode : uint8_t {
  kBool = 0,
  kInt8 = 1,
  kUInt8 = 2,
  kInt16 = 3,
  kUInt16 = 4,
  kInt32 = 5,
  kUInt32 = 6,
  kInt64 = 7,
  kUInt64 = 8,
  kFP32 = 9,
  kFP64 = 10,
  kUdt = 11,
};

inline constexpr int kNumBuiltinTypes = 11;

class Type {
 public:
  Type(TypeCode code, size_t size, std::string name)
      : code_(code), size_(size), name_(std::move(name)) {}

  TypeCode code() const { return code_; }
  size_t size() const { return size_; }
  const std::string& name() const { return name_; }
  bool is_builtin() const { return code_ != TypeCode::kUdt; }

  // The canonical descriptor for a builtin domain.
  static const Type* builtin(TypeCode code);

 private:
  TypeCode code_;
  size_t size_;
  std::string name_;
};

// Predefined GraphBLAS types (GrB_BOOL ... GrB_FP64).
const Type* TypeBool();
const Type* TypeInt8();
const Type* TypeUInt8();
const Type* TypeInt16();
const Type* TypeUInt16();
const Type* TypeInt32();
const Type* TypeUInt32();
const Type* TypeInt64();
const Type* TypeUInt64();
const Type* TypeFP32();
const Type* TypeFP64();

// Creates a user-defined type of `size` bytes.  The returned object is
// owned by the global registry and released by type_free / GrB_finalize.
Info type_new(const Type** type, size_t size, std::string name = "UDT");
Info type_free(const Type* type);

// Maps a C++ arithmetic type to its Type descriptor (tests/helpers).
template <class T>
const Type* type_of();

// ---------------------------------------------------------------------
// Type-erased value helpers.
// ---------------------------------------------------------------------

// True when a value of `from` may be implicitly cast to `to`: both
// builtin, or the identical UDT descriptor.
bool types_compatible(const Type* to, const Type* from);

using CastFn = void (*)(void* dst, const void* src);

// Returns the cast function converting `from`-typed bytes to `to`-typed
// bytes, or nullptr when the pair is incompatible.  For identical types
// the returned function is a memcpy of the type size.
CastFn cast_fn(const Type* to, const Type* from);

// Casts a single value; the types must be compatible.
void cast_value(const Type* to, void* dst, const Type* from, const void* src);

// Interprets a `type`-typed value as a boolean (mask truthiness).  UDT
// values are tested bytewise (any nonzero byte is true).
bool value_as_bool(const Type* type, const void* value);

// A dynamically sized, type-erased array of values with a fixed stride.
// Storage routes through obs::TrackedAlloc so every value block is
// attributed to its owning container's memory account (DESIGN.md §11).
class ValueArray {
 public:
  ValueArray() : stride_(1) {}
  explicit ValueArray(size_t stride) : stride_(stride ? stride : 1) {}
  ValueArray(size_t stride, std::shared_ptr<obs::MemAccount> acct)
      : stride_(stride ? stride : 1),
        bytes_(obs::TrackedAlloc<std::byte>(std::move(acct))) {}

  size_t stride() const { return stride_; }
  size_t size() const { return bytes_.size() / stride_; }
  bool empty() const { return bytes_.empty(); }

  void* at(size_t i) { return bytes_.data() + i * stride_; }
  const void* at(size_t i) const { return bytes_.data() + i * stride_; }
  void* data() { return bytes_.data(); }
  const void* data() const { return bytes_.data(); }
  size_t byte_size() const { return bytes_.size(); }

  void resize(size_t n) { bytes_.resize(n * stride_); }
  void reserve(size_t n) { bytes_.reserve(n * stride_); }
  void clear() { bytes_.clear(); }

  void set(size_t i, const void* value) {
    std::memcpy(at(i), value, stride_);
  }
  void push_back(const void* value) {
    size_t old = bytes_.size();
    bytes_.resize(old + stride_);
    std::memcpy(bytes_.data() + old, value, stride_);
  }
  // Appends `src[j]` from another array with the same stride.
  void push_back_from(const ValueArray& src, size_t j) {
    push_back(src.at(j));
  }
  // Appends `src[first, first + count)` (same stride) with one copy.
  void append(const ValueArray& src, size_t first, size_t count) {
    const std::byte* p = src.bytes_.data() + first * stride_;
    bytes_.insert(bytes_.end(), p, p + count * stride_);
  }
  // Drops the first `count` values, keeping the rest in order.
  void erase_front(size_t count) {
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<ptrdiff_t>(count * stride_));
  }

  // Typed accessors for tests and fast paths; T must match the stride.
  template <class T>
  T get_as(size_t i) const {
    T out;
    std::memcpy(&out, at(i), sizeof(T));
    return out;
  }
  template <class T>
  void set_as(size_t i, T v) {
    std::memcpy(at(i), &v, sizeof(T));
  }

 private:
  size_t stride_;
  obs::TrackedVec<std::byte> bytes_;
};

// Converts a value between built-in domains.  Floating point to integer
// saturates: NaN becomes 0 and a value outside the target's range
// clamps to its min or max, where a plain static_cast is undefined.
// Every other pair (to or from bool, integer to anything, float to
// float) is a static_cast.
template <class To, class From>
constexpr To convert_value(From f) {
  if constexpr (std::is_floating_point_v<From> && std::is_integral_v<To> &&
                !std::is_same_v<To, bool>) {
    using Lim = std::numeric_limits<To>;
    // Converting a bound to From is exact or rounds the max up to the
    // next power of two; either way every f strictly between the two
    // converted bounds truncates to a representable To.  NaN fails both
    // tests.
    const From lo = static_cast<From>(Lim::min());
    const From hi = static_cast<From>(Lim::max());
    if (f > lo && f < hi) return static_cast<To>(f);
    if (f != f) return To{0};
    return f >= hi ? Lim::max() : Lim::min();
  } else {
    return static_cast<To>(f);
  }
}

// A single type-erased value with small-buffer storage (used for monoid
// identities, scalars passed through operations, accumulator temps).
class ValueBuf {
 public:
  ValueBuf() = default;
  explicit ValueBuf(size_t size) { resize(size); }
  ValueBuf(const Type* type, const void* value) {
    resize(type->size());
    std::memcpy(data(), value, type->size());
  }

  void resize(size_t size) {
    size_ = size;
    if (size > sizeof(inline_)) heap_.resize(size);
  }
  size_t size() const { return size_; }
  void* data() { return size_ > sizeof(inline_) ? heap_.data() : inline_; }
  const void* data() const {
    return size_ > sizeof(inline_) ? heap_.data() : inline_;
  }
  // Bytes held outside the small buffer (memory-attribution snapshots).
  size_t heap_bytes() const {
    return size_ > sizeof(inline_) ? heap_.capacity() : 0;
  }

 private:
  size_t size_ = 0;
  std::byte inline_[32] = {};
  std::vector<std::byte> heap_;
};

template <>
inline const Type* type_of<bool>() { return TypeBool(); }
template <>
inline const Type* type_of<int8_t>() { return TypeInt8(); }
template <>
inline const Type* type_of<uint8_t>() { return TypeUInt8(); }
template <>
inline const Type* type_of<int16_t>() { return TypeInt16(); }
template <>
inline const Type* type_of<uint16_t>() { return TypeUInt16(); }
template <>
inline const Type* type_of<int32_t>() { return TypeInt32(); }
template <>
inline const Type* type_of<uint32_t>() { return TypeUInt32(); }
template <>
inline const Type* type_of<int64_t>() { return TypeInt64(); }
template <>
inline const Type* type_of<uint64_t>() { return TypeUInt64(); }
template <>
inline const Type* type_of<float>() { return TypeFP32(); }
template <>
inline const Type* type_of<double>() { return TypeFP64(); }

}  // namespace grb
