#include "core/index_unary_op.hpp"

#include <memory>
#include <type_traits>
#include <unordered_set>

#include "core/scalar_ops.hpp"
#include "util/thread_annotations.hpp"

namespace grb {
namespace {

using scalar::ld;
using scalar::st;

// For a vector (n == 1) the column index is taken equal to the row index;
// Table IV documents that matrix-only positional ops on vectors are
// undefined behaviour, so any total definition is conforming.
inline int64_t row_of(const Index* ind) { return static_cast<int64_t>(ind[0]); }
inline int64_t col_of(const Index* ind, Index n) {
  return static_cast<int64_t>(n >= 2 ? ind[1] : ind[0]);
}

// --- "replace" family ---------------------------------------------------
// Z is INT32 or INT64, and so is the thunk.  The sum wraps modulo 2^64
// (then narrows to Z) instead of overflowing: a thunk cast from a huge
// or infinite float saturates to the INT64 bound, and bound + index must
// still be defined.
inline int64_t wrap_add(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
template <class Z>
void fn_rowindex(void* out, const void*, Index* ind, Index, const void* s) {
  st<Z>(out, static_cast<Z>(wrap_add(row_of(ind), ld<Z>(s))));
}
template <class Z>
void fn_colindex(void* out, const void*, Index* ind, Index n, const void* s) {
  st<Z>(out, static_cast<Z>(wrap_add(col_of(ind, n), ld<Z>(s))));
}
template <class Z>
void fn_diagindex(void* out, const void*, Index* ind, Index n,
                  const void* s) {
  st<Z>(out, static_cast<Z>(
                 wrap_add(wrap_add(col_of(ind, n), -row_of(ind)), ld<Z>(s))));
}

// --- "keep" families: bodies in core/scalar_ops.hpp ----------------------
template <IdxOpCode Op>
void fn_pos_keep(void* out, const void*, Index* ind, Index n, const void* s) {
  st<bool>(out, scalar::pos_keep<Op>(row_of(ind), col_of(ind, n),
                                     ld<int64_t>(s)));
}
template <IdxOpCode Op, class T>
void fn_value_keep(void* out, const void* in, Index*, Index, const void* s) {
  st<bool>(out, scalar::value_keep<Op, T>(ld<T>(in), ld<T>(s)));
}

constexpr int kNumOps = 18;

struct Registry {
  std::unique_ptr<IndexUnaryOp> table[kNumOps][kNumBuiltinTypes];

  void add(IdxOpCode op, TypeCode tc, const Type* z, const Type* x,
           const Type* s, IndexUnaryFn fn, std::string name) {
    table[static_cast<int>(op)][static_cast<int>(tc)] =
        std::make_unique<IndexUnaryOp>(z, x, s, fn, op, std::move(name));
  }

  template <class Z>
  void add_replace_family() {
    const Type* zt = type_of<Z>();
    TypeCode tc = zt->code();
    std::string sfx = "_" + zt->name();
    add(IdxOpCode::kRowIndex, tc, zt, nullptr, zt, &fn_rowindex<Z>,
        "GrB_ROWINDEX" + sfx);
    add(IdxOpCode::kColIndex, tc, zt, nullptr, zt, &fn_colindex<Z>,
        "GrB_COLINDEX" + sfx);
    add(IdxOpCode::kDiagIndex, tc, zt, nullptr, zt, &fn_diagindex<Z>,
        "GrB_DIAGINDEX" + sfx);
  }

  void add_positional_bool(IdxOpCode op, IndexUnaryFn fn, const char* name) {
    // Registered under the INT64 slot; s is INT64, value is ignored.
    add(op, TypeCode::kInt64, TypeBool(), nullptr, TypeInt64(), fn, name);
  }

  template <class T>
  void add_value_family() {
    using I = IdxOpCode;
    const Type* t = type_of<T>();
    const std::string sfx = "_" + t->name();
    auto value = [&](IdxOpCode op, IndexUnaryFn fn, const char* name) {
      add(op, t->code(), TypeBool(), t, t, fn, name + sfx);
    };
    value(I::kValueEQ, &fn_value_keep<I::kValueEQ, T>, "GrB_VALUEEQ");
    value(I::kValueNE, &fn_value_keep<I::kValueNE, T>, "GrB_VALUENE");
    if constexpr (!std::is_same_v<T, bool>) {
      value(I::kValueLT, &fn_value_keep<I::kValueLT, T>, "GrB_VALUELT");
      value(I::kValueLE, &fn_value_keep<I::kValueLE, T>, "GrB_VALUELE");
      value(I::kValueGT, &fn_value_keep<I::kValueGT, T>, "GrB_VALUEGT");
      value(I::kValueGE, &fn_value_keep<I::kValueGE, T>, "GrB_VALUEGE");
    }
  }

  Registry() {
    using I = IdxOpCode;
    add_replace_family<int32_t>();
    add_replace_family<int64_t>();

    add_positional_bool(I::kTril, &fn_pos_keep<I::kTril>, "GrB_TRIL");
    add_positional_bool(I::kTriu, &fn_pos_keep<I::kTriu>, "GrB_TRIU");
    add_positional_bool(I::kDiag, &fn_pos_keep<I::kDiag>, "GrB_DIAG");
    add_positional_bool(I::kOffdiag, &fn_pos_keep<I::kOffdiag>, "GrB_OFFDIAG");
    add_positional_bool(I::kRowLE, &fn_pos_keep<I::kRowLE>, "GrB_ROWLE");
    add_positional_bool(I::kRowGT, &fn_pos_keep<I::kRowGT>, "GrB_ROWGT");
    add_positional_bool(I::kColLE, &fn_pos_keep<I::kColLE>, "GrB_COLLE");
    add_positional_bool(I::kColGT, &fn_pos_keep<I::kColGT>, "GrB_COLGT");

    add_value_family<bool>();
    add_value_family<int8_t>();
    add_value_family<uint8_t>();
    add_value_family<int16_t>();
    add_value_family<uint16_t>();
    add_value_family<int32_t>();
    add_value_family<uint32_t>();
    add_value_family<int64_t>();
    add_value_family<uint64_t>();
    add_value_family<float>();
    add_value_family<double>();
  }
};

const Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

struct UserOps {
  Mutex mu;
  std::unordered_set<const IndexUnaryOp*> live GRB_GUARDED_BY(mu);
};
UserOps& user_ops() {
  static UserOps* u = new UserOps;
  return *u;
}

}  // namespace

const IndexUnaryOp* get_index_unary_op(IdxOpCode op, TypeCode type) {
  int o = static_cast<int>(op);
  int c = static_cast<int>(type);
  if (o <= 0 || o >= kNumOps || c < 0 || c >= kNumBuiltinTypes)
    return nullptr;
  return registry().table[o][c].get();
}

Info index_unary_op_new(const IndexUnaryOp** op, IndexUnaryFn fn,
                        const Type* ztype, const Type* xtype,
                        const Type* stype, std::string name) {
  if (op == nullptr || fn == nullptr) return Info::kNullPointer;
  if (ztype == nullptr || xtype == nullptr || stype == nullptr)
    return Info::kNullPointer;
  auto* o = new IndexUnaryOp(ztype, xtype, stype, fn, IdxOpCode::kCustom,
                             std::move(name));
  auto& u = user_ops();
  MutexLock lock(u.mu);
  u.live.insert(o);
  *op = o;
  return Info::kSuccess;
}

Info index_unary_op_free(const IndexUnaryOp* op) {
  if (op == nullptr) return Info::kNullPointer;
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

}  // namespace grb
