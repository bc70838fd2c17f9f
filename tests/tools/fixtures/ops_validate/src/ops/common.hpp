// Fixture: ops-validate-first.  The public operations and the shared
// validation helper.
#pragma once

namespace grb {

Info validate_objects(std::initializer_list<const ObjectBase*> objs);
Info mxv(Vector* w, const Matrix* a, const Vector* u);
Info vxm(Vector* w, const Vector* u, const Matrix* a);
Info mxm(Matrix* c, const Matrix* a, const Matrix* b);
Info apply(Vector* w, const Vector* u);
Info transpose(Matrix* c, const Matrix* a);

}  // namespace grb
