// GrB_Vector: a sparse vector of a GraphBLAS domain.
//
// Representation: sorted coordinate list (strictly increasing indices)
// with a type-erased value array.  Handle state follows the COW +
// pending-sequence design described in DESIGN.md:
//  * `data_` is an immutable snapshot shared with in-flight deferred ops;
//  * setElement/removeElement append O(1) pending tuples that are folded
//    on completion (the bulk-ingest pattern nonblocking mode enables);
//  * dimensions live in the handle so API validation never has to force
//    completion.
#pragma once

#include <memory>
#include <vector>

#include "containers/pending.hpp"
#include "core/type.hpp"
#include "exec/object_base.hpp"

namespace grb {

// One immutable vector data block.  Every block has one layout, the
// sorted coordinate list (DESIGN.md §15): no kernel reads a vector any
// other way, so there is nothing to convert on publish or on read.
struct VectorData {
  // Memory-attribution account for ind/vals; declared first so it
  // outlives the arrays it is credited from during destruction.
  std::shared_ptr<obs::MemAccount> acct;
  const Type* type;
  Index n = 0;
  obs::TrackedVec<Index> ind;  // sorted, unique
  ValueArray vals;             // stride == type->size()

  VectorData(const Type* t, Index size)
      : acct(std::make_shared<obs::MemAccount>()),
        type(t),
        n(size),
        ind(obs::TrackedAlloc<Index>(acct)),
        vals(t->size(), acct) {}

  Index nvals() const { return static_cast<Index>(ind.size()); }

  // Position of index i in vals (binary search), or npos.
  static constexpr size_t npos = ~size_t{0};
  size_t find(Index i) const;
};

class Vector : public ObjectBase, public obs::MemReportable {
 public:
  Vector(const Type* type, Index n, Context* ctx)
      : ObjectBase(ctx),
        size_(n),
        type_(type),
        data_(std::make_shared<VectorData>(type, n)),
        pend_acct_(std::make_shared<obs::MemAccount>()),
        pend_(obs::TrackedAlloc<PendingTuple>(pend_acct_)),
        pend_vals_(type->size(), pend_acct_) {
    obs::mem_register(this);
  }
  ~Vector() override { obs::mem_unregister(this); }

  void mem_snapshot(obs::MemReportable::Snapshot* out) const override
      GRB_EXCLUDES(mu_);

  const Type* type() const { return type_; }
  Index size() const GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return size_;
  }

  // Completes the sequence (drains deferred ops, folds pending tuples)
  // and returns an immutable snapshot.
  Info snapshot(std::shared_ptr<const VectorData>* out) GRB_EXCLUDES(mu_);

  // Publishes new contents as produced.  Called by operation closures;
  // the data's size must equal the handle size at the time the closure
  // runs.
  void publish(std::shared_ptr<const VectorData> data) GRB_EXCLUDES(mu_);

  // Folds any pending tuples into the sequence, then appends `op`, so
  // deferred operations observe setElement calls in program order.  The
  // injected fold is a kFlush node tagged with the absolute tuple count
  // it covers; when a queued flush already covers everything pending, no
  // second node is injected (pending-writeback batching).
  void enqueue(std::function<Info()> op,
               FuseNode node = FuseNode{}) override GRB_EXCLUDES(mu_);

  // Folds (or, for dead-write elimination, discards) exactly the pending
  // tuples enqueued before absolute consumed-count `upto`; tuples queued
  // after that point stay pending for a later fold.
  Info flush_prefix(uint64_t upto) override GRB_EXCLUDES(mu_);
  Info drop_prefix(uint64_t upto) override GRB_EXCLUDES(mu_);

  // The current data block, without forcing completion.  Safe inside a
  // deferred closure: the sequence is FIFO, so every predecessor has
  // already published.
  std::shared_ptr<const VectorData> current_data() const
      GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return data_;
  }
  // --- lifecycle / structure --------------------------------------------
  static Info new_(Vector** v, const Type* type, Index n, Context* ctx);
  static Info dup(Vector** out, const Vector* in);
  static Info free(Vector* v);
  Info clear();
  Info nvals(Index* out);
  Info resize(Index new_size);

  // --- element access (ops/element.cpp) ----------------------------------
  Info set_element(const void* value, const Type* value_type, Index i);
  Info remove_element(Index i);
  Info extract_element(void* out, const Type* out_type, Index i);
  Info extract_tuples(Index* indices, void* values, Index* n,
                      const Type* value_type);

  // --- build (ops/build.cpp) ----------------------------------------------
  Info build(const Index* indices, const void* values, Index nvals,
             const class BinaryOp* dup, const Type* value_type);

 protected:
  Info flush_pending() override GRB_EXCLUDES(mu_);

 private:
  Index size_ GRB_GUARDED_BY(mu_);
  const Type* type_;  // immutable after construction
  std::shared_ptr<const VectorData> data_ GRB_GUARDED_BY(mu_);

  // Pending-tuple store on its own account (buffered-but-unfolded bytes
  // in the handle's memory snapshot); account declared first.
  std::shared_ptr<obs::MemAccount> pend_acct_;
  obs::TrackedVec<PendingTuple> pend_ GRB_GUARDED_BY(mu_);
  ValueArray pend_vals_ GRB_GUARDED_BY(mu_);
  // Monotonic count of pending tuples ever folded or dropped; kFlush
  // nodes carry the absolute count they advance to (flush_prefix).
  uint64_t pend_consumed_ GRB_GUARDED_BY(mu_) = 0;
};

}  // namespace grb
