// GrB_Matrix: a sparse matrix of a GraphBLAS domain.
//
// Representation: CSR (row pointers + column indices + type-erased value
// array, columns sorted within each row) is the one storage layout
// (DESIGN.md §15); every kernel reads it directly.  A descriptor
// transpose reads the CSR of A', built at most once per snapshot and
// cached on the block.  Handle state follows the same COW +
// pending-sequence design as Vector.
#pragma once

#include <memory>
#include <vector>

#include "containers/pending.hpp"
#include "core/type.hpp"
#include "exec/object_base.hpp"

namespace grb {

struct MatrixData {
  // Memory-attribution account for ptr/col/vals; declared first so it
  // outlives the arrays it is credited from during destruction.
  std::shared_ptr<obs::MemAccount> acct;
  const Type* type;
  Index nrows = 0, ncols = 0;
  obs::TrackedVec<Index> ptr;  // nrows+1
  obs::TrackedVec<Index> col;  // nvals, sorted within a row
  ValueArray vals;             // stride == type->size()

  MatrixData(const Type* t, Index rows, Index cols)
      : acct(std::make_shared<obs::MemAccount>()),
        type(t),
        nrows(rows),
        ncols(cols),
        ptr(rows + 1, 0, obs::TrackedAlloc<Index>(acct)),
        col(obs::TrackedAlloc<Index>(acct)),
        vals(t->size(), acct) {}

  Index nvals() const { return static_cast<Index>(col.size()); }

  static constexpr size_t npos = ~size_t{0};
  // Position of (i, j) in vals (binary search in row i), or npos.
  size_t find(Index i, Index j) const;

  // The transpose of this block, built at most once per snapshot
  // (ops/transpose.cpp).  It is an immutable block itself and dies with
  // this block's last reference, which is the entire invalidation story:
  // COW publishes a fresh block, so a stale cache is unreachable the
  // moment the data changes.
  mutable Mutex view_mu_;
  mutable std::shared_ptr<const MatrixData> trans_view_
      GRB_GUARDED_BY(view_mu_);
};

// CSR transpose of a snapshot, cached on the block so repeated
// GrB_DESC_T0/T1 reads of one snapshot pay the O(nnz) counting sort once
// (obs: format.transpose_cache_hits/misses).
std::shared_ptr<const MatrixData> format_transpose_view(
    const std::shared_ptr<const MatrixData>& m);

class Matrix : public ObjectBase, public obs::MemReportable {
 public:
  Matrix(const Type* type, Index nrows, Index ncols, Context* ctx)
      : ObjectBase(ctx),
        nrows_(nrows),
        ncols_(ncols),
        type_(type),
        data_(std::make_shared<MatrixData>(type, nrows, ncols)),
        pend_acct_(std::make_shared<obs::MemAccount>()),
        pend_(obs::TrackedAlloc<PendingTupleIJ>(pend_acct_)),
        pend_vals_(type->size(), pend_acct_) {
    obs::mem_register(this);
  }
  ~Matrix() override { obs::mem_unregister(this); }

  void mem_snapshot(obs::MemReportable::Snapshot* out) const override
      GRB_EXCLUDES(mu_);

  const Type* type() const { return type_; }
  Index nrows() const GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return nrows_;
  }
  Index ncols() const GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ncols_;
  }

  // Completes the sequence and returns the current data block.
  Info snapshot(std::shared_ptr<const MatrixData>* out) GRB_EXCLUDES(mu_);
  // Publishes new contents (the closure's block, stored as is).
  void publish(std::shared_ptr<const MatrixData> data) GRB_EXCLUDES(mu_);
  void enqueue(std::function<Info()> op) override GRB_EXCLUDES(mu_);

  // Pending-tuple prefix fold (see Vector).
  Info flush_prefix(uint64_t upto) GRB_EXCLUDES(mu_);

  // The current data block, without forcing completion (see Vector).
  std::shared_ptr<const MatrixData> current_data() const
      GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return data_;
  }
  static Info new_(Matrix** a, const Type* type, Index nrows, Index ncols,
                   Context* ctx);
  static Info dup(Matrix** out, const Matrix* in);
  static Info free(Matrix* a);
  Info clear();
  Info nvals(Index* out);
  Info resize(Index new_nrows, Index new_ncols);

  // --- element access (ops/element.cpp) ----------------------------------
  Info set_element(const void* value, const Type* value_type, Index i,
                   Index j);
  Info remove_element(Index i, Index j);
  Info extract_element(void* out, const Type* out_type, Index i, Index j);
  Info extract_tuples(Index* row_indices, Index* col_indices, void* values,
                      Index* n, const Type* value_type);

  // --- build (ops/build.cpp) ----------------------------------------------
  Info build(const Index* row_indices, const Index* col_indices,
             const void* values, Index nvals, const class BinaryOp* dup,
             const Type* value_type);

 protected:
  Info flush_pending() override GRB_EXCLUDES(mu_);

 private:
  Index nrows_ GRB_GUARDED_BY(mu_), ncols_ GRB_GUARDED_BY(mu_);
  const Type* type_;  // immutable after construction
  std::shared_ptr<const MatrixData> data_ GRB_GUARDED_BY(mu_);

  // Pending-tuple store, attributed to its own account so the handle can
  // report buffered-but-unfolded bytes; declared before the containers
  // charged to it.
  std::shared_ptr<obs::MemAccount> pend_acct_;
  obs::TrackedVec<PendingTupleIJ> pend_ GRB_GUARDED_BY(mu_);
  ValueArray pend_vals_ GRB_GUARDED_BY(mu_);
  // Monotonic count of pending tuples ever folded (see
  // Vector::pend_consumed_).
  uint64_t pend_consumed_ GRB_GUARDED_BY(mu_) = 0;
};

}  // namespace grb
