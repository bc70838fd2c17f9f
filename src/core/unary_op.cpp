#include "core/unary_op.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <type_traits>
#include <unordered_set>

#include "core/scalar_ops.hpp"
#include "util/thread_annotations.hpp"

namespace grb {
namespace {

using scalar::un_fn;

constexpr int kNumOps = 7;

struct Registry {
  std::unique_ptr<UnaryOp> table[kNumOps][kNumBuiltinTypes];

  template <class T>
  void add(UnOpCode op, UnaryFn fn, const char* opname) {
    const Type* t = type_of<T>();
    int o = static_cast<int>(op);
    int c = static_cast<int>(t->code());
    table[o][c] = std::make_unique<UnaryOp>(
        t, t, fn, op, std::string(opname) + "_" + t->name());
  }

  template <UnOpCode Op, class T>
  void reg(const char* opname) {
    add<T>(Op, &un_fn<Op, T>, opname);
  }

  template <class T>
  void add_common() {
    reg<UnOpCode::kIdentity, T>("GrB_IDENTITY");
    reg<UnOpCode::kAinv, T>("GrB_AINV");
    reg<UnOpCode::kMinv, T>("GrB_MINV");
    reg<UnOpCode::kAbs, T>("GrB_ABS");
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      reg<UnOpCode::kBnot, T>("GrB_BNOT");
    }
  }

  Registry() {
    add_common<bool>();
    add_common<int8_t>();
    add_common<uint8_t>();
    add_common<int16_t>();
    add_common<uint16_t>();
    add_common<int32_t>();
    add_common<uint32_t>();
    add_common<int64_t>();
    add_common<uint64_t>();
    add_common<float>();
    add_common<double>();
    reg<UnOpCode::kLnot, bool>("GrB_LNOT");
  }
};

const Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

struct UserOps {
  Mutex mu;
  std::unordered_set<const UnaryOp*> live GRB_GUARDED_BY(mu);
};
UserOps& user_ops() {
  static UserOps* u = new UserOps;
  return *u;
}

}  // namespace

const UnaryOp* get_unary_op(UnOpCode op, TypeCode type) {
  int o = static_cast<int>(op);
  int c = static_cast<int>(type);
  if (o <= 0 || o >= kNumOps || c < 0 || c >= kNumBuiltinTypes)
    return nullptr;
  return registry().table[o][c].get();
}

Info unary_op_new(const UnaryOp** op, UnaryFn fn, const Type* ztype,
                  const Type* xtype, std::string name) {
  if (op == nullptr || fn == nullptr) return Info::kNullPointer;
  if (ztype == nullptr || xtype == nullptr) return Info::kNullPointer;
  auto* u = new UnaryOp(ztype, xtype, fn, UnOpCode::kCustom, std::move(name));
  auto& reg = user_ops();
  MutexLock lock(reg.mu);
  reg.live.insert(u);
  *op = u;
  return Info::kSuccess;
}

Info unary_op_free(const UnaryOp* op) {
  if (op == nullptr) return Info::kNullPointer;
  for (int o = 1; o < kNumOps; ++o)
    for (int c = 0; c < kNumBuiltinTypes; ++c)
      if (registry().table[o][c].get() == op) return Info::kInvalidValue;
  auto& reg = user_ops();
  MutexLock lock(reg.mu);
  auto it = reg.live.find(op);
  if (it == reg.live.end()) return Info::kUninitializedObject;
  reg.live.erase(it);
  delete op;
  return Info::kSuccess;
}

}  // namespace grb
