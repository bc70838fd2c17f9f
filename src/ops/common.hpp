// Shared declarations for the GraphBLAS operation layer.
//
// Every operation follows the same shape (GraphBLAS math spec):
//   1. eager API validation (null handles, context agreement, deferred
//      errors on every operand, dimension and domain checks);
//   2. input snapshotting (forces completion of inputs, COW-shares their
//      data blocks);
//   3. a closure that computes T = op(inputs) and funnels it through the
//      masked/accumulated write-back
//         Z = accum ? (C odot T) : T ;  C<M, replace> = Z
//      which is either run now (blocking) or appended to the output's
//      sequence (nonblocking).
#pragma once

#include "containers/matrix.hpp"
#include "containers/scalar.hpp"
#include "containers/vector.hpp"
#include "core/binary_op.hpp"
#include "core/descriptor.hpp"
#include "core/global.hpp"
#include "core/index_unary_op.hpp"
#include "core/monoid.hpp"
#include "core/semiring.hpp"
#include "core/unary_op.hpp"

namespace grb {

// ---- validation helpers (ops/validate.cpp) -------------------------------

// Null / liveness / deferred-error / context-agreement checks.  `objs` may
// contain nullptrs for optional arguments (they are skipped).  The first
// object must be the (non-null) output.
Info validate_objects(std::initializer_list<const ObjectBase*> objs);

// Convenience for "must be castable" checks.
inline Info check_cast(const Type* to, const Type* from) {
  return types_compatible(to, from) ? Info::kSuccess : Info::kDomainMismatch;
}

// Accumulator domain checks: accum(x <- C, y <- T) with result cast to C.
Info check_accum(const BinaryOp* accum, const Type* ctype,
                 const Type* ttype);

// ---- transpose helper (ops/transpose.cpp) --------------------------------

// Returns A transposed (CSC-of-A reinterpreted as CSR), sorted rows.
std::shared_ptr<const MatrixData> transpose_data(const MatrixData& a);

// ---- write-back machinery (ops/writeback_*.cpp) --------------------------

struct WritebackSpec {
  const BinaryOp* accum = nullptr;  // optional
  bool have_mask = false;
  bool mask_structure = false;
  bool mask_comp = false;
  bool replace = false;
};

// Applies Z = accum ? (C odot T) : T ; C<M,r> = Z and returns the new
// vector contents.  `t` values are in t.type's domain; the result is in
// c_old.type's domain.  `mask` is ignored unless spec.have_mask.
std::shared_ptr<VectorData> writeback_vector(
    Context* ctx, const VectorData& c_old, const VectorData& t,
    const VectorData* mask, const WritebackSpec& spec);

std::shared_ptr<MatrixData> writeback_matrix(
    Context* ctx, const MatrixData& c_old, const MatrixData& t,
    const MatrixData* mask, const WritebackSpec& spec);

// The write-back bypass rule.  Z = T and C<M,r> = Z leave exactly T in C
// -- so T itself can be published and the merge skipped -- when there is
// no accumulator and no cast, and either
//   * there is no mask and no complement (an all-true mask), or
//   * T lies inside a structural, non-complemented mask (`t_in_mask`, as
//     the masked SpGEMM kernels guarantee) and C keeps nothing outside
//     it: replace is set, or C is empty.
inline bool writeback_is_identity(const WritebackSpec& spec,
                                  const Type* ctype, const Type* ttype,
                                  bool t_in_mask, bool c_empty) {
  if (spec.accum != nullptr || ttype != ctype) return false;
  if (!spec.have_mask) return !spec.mask_comp;
  return t_in_mask && spec.mask_structure && !spec.mask_comp &&
         (spec.replace || c_empty);
}

// Publishes the result of an operation computing T into its output: T
// itself when writeback_is_identity() holds, else the merged
// writeback_vector/writeback_matrix result.  Every masked/accumulated
// operation ends here, from inside its deferred closure.  T must be a
// valid materialized block (sorted, no duplicates).
void publish_result(Vector* w, Context* ctx,
                    std::shared_ptr<const VectorData> t,
                    const VectorData* mask, const WritebackSpec& spec,
                    bool t_in_mask = false);
void publish_result(Matrix* c, Context* ctx,
                    std::shared_ptr<const MatrixData> t,
                    const MatrixData* mask, const WritebackSpec& spec,
                    bool t_in_mask = false);

// ---- operation entry points ----------------------------------------------
// All follow the C API argument order.  `desc` may be nullptr.

// mxm / mxv / vxm
Info mxm(Matrix* c, const Matrix* mask, const BinaryOp* accum,
         const Semiring* s, const Matrix* a, const Matrix* b,
         const Descriptor* desc);
Info mxv(Vector* w, const Vector* mask, const BinaryOp* accum,
         const Semiring* s, const Matrix* a, const Vector* u,
         const Descriptor* desc);
Info vxm(Vector* w, const Vector* mask, const BinaryOp* accum,
         const Semiring* s, const Vector* u, const Matrix* a,
         const Descriptor* desc);

// element-wise (set intersection / union).  The op is a BinaryOp; the
// Monoid/Semiring variants of the C API degrade to it.
Info ewise_mult(Vector* w, const Vector* mask, const BinaryOp* accum,
                const BinaryOp* op, const Vector* u, const Vector* v,
                const Descriptor* desc);
Info ewise_mult(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                const BinaryOp* op, const Matrix* a, const Matrix* b,
                const Descriptor* desc);
Info ewise_add(Vector* w, const Vector* mask, const BinaryOp* accum,
               const BinaryOp* op, const Vector* u, const Vector* v,
               const Descriptor* desc);
Info ewise_add(Matrix* c, const Matrix* mask, const BinaryOp* accum,
               const BinaryOp* op, const Matrix* a, const Matrix* b,
               const Descriptor* desc);

// apply: unary, bound-binary, and the 2.0 index-unary variants (§VIII.B).
Info apply(Vector* w, const Vector* mask, const BinaryOp* accum,
           const UnaryOp* op, const Vector* u, const Descriptor* desc);
Info apply(Matrix* c, const Matrix* mask, const BinaryOp* accum,
           const UnaryOp* op, const Matrix* a, const Descriptor* desc);
// bind-first: z = op(s, u(i)); bind-second: z = op(u(i), s).
Info apply_bind1st(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const BinaryOp* op, const void* s, const Type* stype,
                   const Vector* u, const Descriptor* desc);
Info apply_bind2nd(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const BinaryOp* op, const Vector* u, const void* s,
                   const Type* stype, const Descriptor* desc);
Info apply_bind1st(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const BinaryOp* op, const void* s, const Type* stype,
                   const Matrix* a, const Descriptor* desc);
Info apply_bind2nd(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const BinaryOp* op, const Matrix* a, const void* s,
                   const Type* stype, const Descriptor* desc);
Info apply_indexop(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const IndexUnaryOp* op, const Vector* u, const void* s,
                   const Type* stype, const Descriptor* desc);
Info apply_indexop(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const IndexUnaryOp* op, const Matrix* a, const void* s,
                   const Type* stype, const Descriptor* desc);

// select (§VIII.C): functional input mask via a boolean IndexUnaryOp.
Info select(Vector* w, const Vector* mask, const BinaryOp* accum,
            const IndexUnaryOp* op, const Vector* u, const void* s,
            const Type* stype, const Descriptor* desc);
Info select(Matrix* c, const Matrix* mask, const BinaryOp* accum,
            const IndexUnaryOp* op, const Matrix* a, const void* s,
            const Type* stype, const Descriptor* desc);

// reduce
Info reduce_to_vector(Vector* w, const Vector* mask, const BinaryOp* accum,
                      const Monoid* monoid, const Matrix* a,
                      const Descriptor* desc);
// typed-output variants (GraphBLAS 1.X style: empty input yields the
// monoid identity).
Info reduce_to_scalar(void* out, const Type* out_type, const BinaryOp* accum,
                      const Monoid* monoid, const Vector* u,
                      const Descriptor* desc);
Info reduce_to_scalar(void* out, const Type* out_type, const BinaryOp* accum,
                      const Monoid* monoid, const Matrix* a,
                      const Descriptor* desc);
// GrB_Scalar-output variants (§VI: empty input yields an EMPTY scalar).
Info reduce_to_scalar(Scalar* out, const BinaryOp* accum,
                      const Monoid* monoid, const Vector* u,
                      const Descriptor* desc);
Info reduce_to_scalar(Scalar* out, const BinaryOp* accum,
                      const Monoid* monoid, const Matrix* a,
                      const Descriptor* desc);
// Table II: GrB_Scalar-output reduce with a plain associative BinaryOp in
// place of a monoid (no identity needed since the output can be empty).
Info reduce_to_scalar_binop(Scalar* out, const BinaryOp* accum,
                            const BinaryOp* op, const Vector* u,
                            const Descriptor* desc);
Info reduce_to_scalar_binop(Scalar* out, const BinaryOp* accum,
                            const BinaryOp* op, const Matrix* a,
                            const Descriptor* desc);

// extract
Info extract(Vector* w, const Vector* mask, const BinaryOp* accum,
             const Vector* u, const Index* indices, Index ni,
             const Descriptor* desc);
Info extract(Matrix* c, const Matrix* mask, const BinaryOp* accum,
             const Matrix* a, const Index* rows, Index nrows,
             const Index* cols, Index ncols, const Descriptor* desc);
Info extract_col(Vector* w, const Vector* mask, const BinaryOp* accum,
                 const Matrix* a, const Index* rows, Index nrows, Index col,
                 const Descriptor* desc);

// assign
Info assign(Vector* w, const Vector* mask, const BinaryOp* accum,
            const Vector* u, const Index* indices, Index ni,
            const Descriptor* desc);
Info assign(Matrix* c, const Matrix* mask, const BinaryOp* accum,
            const Matrix* a, const Index* rows, Index nrows,
            const Index* cols, Index ncols, const Descriptor* desc);
Info assign_row(Matrix* c, const Vector* mask, const BinaryOp* accum,
                const Vector* u, Index row, const Index* cols, Index ncols,
                const Descriptor* desc);
Info assign_col(Matrix* c, const Vector* mask, const BinaryOp* accum,
                const Vector* u, const Index* rows, Index nrows, Index col,
                const Descriptor* desc);
Info assign_scalar(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const void* s, const Type* stype, const Index* indices,
                   Index ni, const Descriptor* desc);
Info assign_scalar(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const void* s, const Type* stype, const Index* rows,
                   Index nrows, const Index* cols, Index ncols,
                   const Descriptor* desc);
// GrB_Scalar variants (Table II); an empty scalar deletes the targeted
// region (under the mask) like an annihilating assign.
Info assign_scalar(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const Scalar* s, const Index* indices, Index ni,
                   const Descriptor* desc);
Info assign_scalar(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const Scalar* s, const Index* rows, Index nrows,
                   const Index* cols, Index ncols, const Descriptor* desc);

// transpose / kronecker / diag
Info transpose(Matrix* c, const Matrix* mask, const BinaryOp* accum,
               const Matrix* a, const Descriptor* desc);
Info kronecker(Matrix* c, const Matrix* mask, const BinaryOp* accum,
               const BinaryOp* op, const Matrix* a, const Matrix* b,
               const Descriptor* desc);
// C is a (square) matrix with vector v on diagonal k (GrB_Matrix_diag).
Info matrix_diag(Matrix** c, const Vector* v, int64_t k);

}  // namespace grb
