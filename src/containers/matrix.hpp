// GrB_Matrix: a sparse matrix of a GraphBLAS domain.
//
// Representation: polymorphic storage behind one immutable data-block
// type.  CSR (row pointers + column indices + type-erased value array,
// columns sorted within each row) is the canonical format every generic
// kernel consumes; hypersparse-CSR, bitmap, and dense blocks are chosen
// by a cost model at publish time (containers/format.hpp) and are
// lazily re-expanded to a cached CSR view when a generic kernel needs
// one.  Handle state follows the same COW + pending-sequence design as
// Vector.
#pragma once

#include <memory>
#include <vector>

#include "containers/pending.hpp"
#include "core/type.hpp"
#include "exec/object_base.hpp"

namespace grb {

// Storage format of one immutable matrix data block (DESIGN.md §15).
//  * kCsr    — canonical: ptr (nrows+1) / col / vals.
//  * kHyper  — hypersparse CSR: hrow lists the nonempty row ids (sorted),
//              ptr is compacted to hrow.size()+1; col/vals as CSR.
//  * kBitmap — bmap holds nrows*ncols presence bytes; vals holds one
//              slot per cell (absent slots zero-filled), row-major.
//  * kDense  — every cell present; vals holds nrows*ncols row-major
//              slots and nothing else is allocated.
enum class MatFormat : uint8_t { kCsr = 0, kHyper = 1, kBitmap = 2,
                                 kDense = 3 };

const char* format_name(MatFormat f);

struct MatrixData {
  // Memory-attribution account for ptr/col/vals; declared first so it
  // outlives the arrays it is credited from during destruction.
  std::shared_ptr<obs::MemAccount> acct;
  const Type* type;
  Index nrows = 0, ncols = 0;
  MatFormat format = MatFormat::kCsr;
  obs::TrackedVec<Index> ptr;   // csr: nrows+1; hyper: hrow.size()+1
  obs::TrackedVec<Index> col;   // csr/hyper: nvals, sorted within a row
  obs::TrackedVec<Index> hrow;  // hyper only: sorted nonempty row ids
  obs::TrackedVec<uint8_t> bmap;  // bitmap only: nrows*ncols presence
  Index full_nvals = 0;           // bitmap/dense: stored entry count
  ValueArray vals;                // stride == type->size()

  MatrixData(const Type* t, Index rows, Index cols,
             MatFormat f = MatFormat::kCsr)
      : acct(std::make_shared<obs::MemAccount>()),
        type(t),
        nrows(rows),
        ncols(cols),
        format(f),
        ptr(f == MatFormat::kCsr ? rows + 1 : 0, 0,
            obs::TrackedAlloc<Index>(acct)),
        col(obs::TrackedAlloc<Index>(acct)),
        hrow(obs::TrackedAlloc<Index>(acct)),
        bmap(obs::TrackedAlloc<uint8_t>(acct)),
        vals(t->size(), acct) {}

  Index nvals() const {
    return format == MatFormat::kBitmap || format == MatFormat::kDense
               ? full_nvals
               : static_cast<Index>(col.size());
  }

  static constexpr size_t npos = ~size_t{0};
  // Position of (i, j) in vals, or npos.  Format-aware: O(log row) for
  // csr/hyper, O(1) for bitmap/dense.
  size_t find(Index i, Index j) const;

  // Canonical-view caches (containers/format.cpp).  A non-CSR block is
  // expanded to CSR at most once; the transpose of the canonical block
  // is built at most once per snapshot.  Both views are immutable blocks
  // themselves and die with this block's last reference, which is the
  // entire invalidation story: COW publishes a fresh block, so a stale
  // cache is unreachable the moment the data changes.
  mutable Mutex view_mu_;
  mutable std::shared_ptr<const MatrixData> csr_view_
      GRB_GUARDED_BY(view_mu_);
  mutable std::shared_ptr<const MatrixData> trans_view_
      GRB_GUARDED_BY(view_mu_);
};

// Canonical CSR view of a snapshot: identity for kCsr blocks, the cached
// (built-at-most-once) expansion otherwise.
std::shared_ptr<const MatrixData> format_csr_view(
    std::shared_ptr<const MatrixData> m);

// Canonical CSR transpose of a snapshot, cached on the canonical block
// so repeated GrB_DESC_T0/T1 reads of one snapshot pay the O(nnz)
// counting sort once (obs: format.transpose_cache_hits/misses).
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

  // Completes the sequence and returns the canonical-CSR view of the
  // current data block (identity when the block is stored as CSR).
  // Generic kernels that walk ptr/col/vals use this; format-aware fast
  // paths use snapshot_native() and branch on ->format.
  Info snapshot(std::shared_ptr<const MatrixData>* out) GRB_EXCLUDES(mu_);
  Info snapshot_native(std::shared_ptr<const MatrixData>* out)
      GRB_EXCLUDES(mu_);
  // Publishes new contents, adapting the stored format first (cost model
  // or per-object override; containers/format.hpp).  The conversion runs
  // before mu_ is taken.
  void publish(std::shared_ptr<const MatrixData> data) GRB_EXCLUDES(mu_);
  void enqueue(std::function<Info()> op,
               FuseNode node = FuseNode{}) override GRB_EXCLUDES(mu_);

  // Pending-tuple prefix fold / discard (see Vector).
  Info flush_prefix(uint64_t upto) override GRB_EXCLUDES(mu_);
  Info drop_prefix(uint64_t upto) override GRB_EXCLUDES(mu_);

  // The current data block, without forcing completion (see Vector).
  std::shared_ptr<const MatrixData> current_data() const
      GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return data_;
  }
  // Canonical-CSR view of current_data() — what deferred closures read.
  std::shared_ptr<const MatrixData> current_canonical() const
      GRB_EXCLUDES(mu_) {
    return format_csr_view(current_data());
  }

  // GxB_Matrix_Option_set/get: per-object format pin (-1 = cost model).
  // Setting a concrete format converts the completed current block
  // immediately so introspection coheres with the pin.
  Info set_format_option(int fmt) GRB_EXCLUDES(mu_);
  int format_option() const {
    return fmt_override_.load(std::memory_order_relaxed);
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
  // Per-object format pin: -1 defers to the cost model / GRB_FORMAT
  // policy, otherwise a MatFormat value publish() converts to.
  std::atomic<int> fmt_override_{-1};

  // Pending-tuple store, attributed to its own account so the handle can
  // report buffered-but-unfolded bytes; declared before the containers
  // charged to it.
  std::shared_ptr<obs::MemAccount> pend_acct_;
  obs::TrackedVec<PendingTupleIJ> pend_ GRB_GUARDED_BY(mu_);
  ValueArray pend_vals_ GRB_GUARDED_BY(mu_);
  // Monotonic count of pending tuples ever folded or dropped (see
  // Vector::pend_consumed_).
  uint64_t pend_consumed_ GRB_GUARDED_BY(mu_) = 0;
};

}  // namespace grb
