// Fixture: ops-validate-first.  Seeded violations:
//  * mxv snapshots its input before validate_objects;
//  * mxm defers work and never validates.
// vxm validates first, apply validates through the file-local helper
// validate_apply, and transpose forwards without touching anything —
// all clean.
#include "ops/common.hpp"

namespace grb {

Info mxv(Vector* w, const Matrix* a, const Vector* u) {
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  GRB_RETURN_IF_ERROR(validate_objects({w, a, u}));
  return defer_or_run(w, [=] { return Info::kSuccess; });
}

Info vxm(Vector* w, const Vector* u, const Matrix* a) {
  GRB_RETURN_IF_ERROR(validate_objects({w, a, u}));
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  return defer_or_run(w, [=] { return Info::kSuccess; });
}

Info mxm(Matrix* c, const Matrix* a, const Matrix* b) {
  return defer_or_run(c, [=] { return Info::kSuccess; });
}

Info validate_apply(Vector* w, const Vector* u) {
  return validate_objects({w, u});
}

Info apply(Vector* w, const Vector* u) {
  GRB_RETURN_IF_ERROR(validate_apply(w, u));
  return defer_or_run(w, [=] { return Info::kSuccess; });
}

Info transpose(Matrix* c, const Matrix* a) {
  return mxm(c, a, nullptr);
}

}  // namespace grb
