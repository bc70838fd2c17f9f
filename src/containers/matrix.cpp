#include "containers/matrix.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace grb {

size_t MatrixData::find(Index i, Index j) const {
  if (i >= nrows || j >= ncols) return npos;
  auto first = col.begin() + static_cast<ptrdiff_t>(ptr[i]);
  auto last = col.begin() + static_cast<ptrdiff_t>(ptr[i + 1]);
  auto it = std::lower_bound(first, last, j);
  if (it == last || *it != j) return npos;
  return static_cast<size_t>(it - col.begin());
}

Info Matrix::snapshot(std::shared_ptr<const MatrixData>* out) {
  Info info = complete();
  if (static_cast<int>(info) < 0) return info;
  MutexLock lock(mu_);
  *out = data_;
  return Info::kSuccess;
}

void Matrix::publish(std::shared_ptr<const MatrixData> data) {
  MutexLock lock(mu_);
  data_ = std::move(data);
}

void Matrix::mem_snapshot(obs::MemReportable::Snapshot* out) const {
  std::shared_ptr<const MatrixData> data;
  {
    MutexLock lock(mu_);
    out->kind = "matrix";
    out->rows = nrows_;
    out->cols = ncols_;
    data = data_;
    out->live_bytes = obs::account_live(*pend_acct_);
    out->peak_bytes = obs::account_peak(*pend_acct_);
    out->ctx = obs_ctx_id();
  }
  out->nvals = data->nvals();
  out->format = "csr";
  out->live_bytes += obs::account_live(*data->acct);
  out->peak_bytes += obs::account_peak(*data->acct);
  // The cached transpose rides on the block it describes; report it with
  // its owner so "which matrix ate 3 GiB" keeps an exact answer.
  std::shared_ptr<const MatrixData> trans;
  {
    MutexLock lock(data->view_mu_);
    trans = data->trans_view_;
  }
  if (trans != nullptr) out->view_bytes += obs::account_live(*trans->acct);
  out->live_bytes += out->view_bytes;
}

Info Matrix::flush_pending() {
  uint64_t upto;
  {
    MutexLock lock(mu_);
    upto = pend_consumed_ + pend_.size();
  }
  return flush_prefix(upto);
}

Info Matrix::flush_prefix(uint64_t upto) {
  obs::TrackedVec<PendingTupleIJ> pend{
      obs::TrackedAlloc<PendingTupleIJ>(pend_acct_)};
  ValueArray pvals(type_->size(), pend_acct_);
  std::shared_ptr<const MatrixData> base;
  size_t remaining;
  {
    MutexLock lock(mu_);
    const size_t take = prefix_take(upto, pend_consumed_, pend_.size());
    if (take == 0) return Info::kSuccess;
    split_pending(&pend_, &pend_vals_, take, &pend, &pvals);
    pend_consumed_ += take;
    remaining = pend_.size();
    base = data_;
  }
  obs::pending_tuples_sample(remaining);
  auto folded =
      std::make_shared<MatrixData>(base->type, base->nrows, base->ncols);
  fold_pending(pend, pvals, base->nrows, base->ptr.data(), base->col,
               base->vals, folded->ptr.data(), &folded->col, &folded->vals);
  publish(std::move(folded));
  return Info::kSuccess;
}

void Matrix::enqueue(std::function<Info()> op) {
  // See Vector::enqueue: tagged prefix fold, batched across consecutive
  // deferred ops over one setElement burst.
  uint64_t upto;
  bool have_tuples;
  {
    MutexLock lock(mu_);
    have_tuples = !pend_.empty();
    upto = pend_consumed_ + pend_.size();
  }
  if (have_tuples && !flush_queued_covering(upto))
    append([this, upto]() -> Info { return flush_prefix(upto); }, upto);
  append(std::move(op), 0);
}

Info Matrix::new_(Matrix** a, const Type* type, Index nrows, Index ncols,
                  Context* ctx) {
  if (a == nullptr || type == nullptr) return Info::kNullPointer;
  if (nrows > kIndexMax || ncols > kIndexMax) return Info::kInvalidValue;
  Context* c = resolve_context(ctx);
  if (c == nullptr) return Info::kPanic;
  if (!context_is_live(c)) return Info::kUninitializedObject;
  *a = new Matrix(type, nrows, ncols, c);
  return Info::kSuccess;
}

Info Matrix::dup(Matrix** out, const Matrix* in) {
  if (out == nullptr || in == nullptr) return Info::kNullPointer;
  auto* src = const_cast<Matrix*>(in);
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(src->snapshot(&snap));
  auto* a = new Matrix(snap->type, snap->nrows, snap->ncols, src->context());
  a->publish(snap);
  *out = a;
  return Info::kSuccess;
}

Info Matrix::free(Matrix* a) {
  if (a == nullptr) return Info::kNullPointer;
  a->wait(WaitMode::kMaterialize);
  delete a;
  return Info::kSuccess;
}

Info Matrix::clear() {
  GRB_RETURN_IF_ERROR(pending_error());
  auto op = [this]() -> Info {
    Index r, c;
    {
      MutexLock lock(mu_);
      r = nrows_;
      c = ncols_;
    }
    publish(std::make_shared<MatrixData>(type_, r, c));
    return Info::kSuccess;
  };
  return defer_or_run(this, op);
}

Info Matrix::nvals(Index* out) {
  if (out == nullptr) return Info::kNullPointer;
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
  *out = snap->nvals();
  return Info::kSuccess;
}

Info Matrix::resize(Index new_nrows, Index new_ncols) {
  if (new_nrows > kIndexMax || new_ncols > kIndexMax)
    return Info::kInvalidValue;
  GRB_RETURN_IF_ERROR(pending_error());
  {
    MutexLock lock(mu_);
    nrows_ = new_nrows;
    ncols_ = new_ncols;
  }
  auto op = [this, new_nrows, new_ncols]() -> Info {
    std::shared_ptr<const MatrixData> base = current_data();
    auto out = std::make_shared<MatrixData>(base->type, new_nrows, new_ncols);
    Index keep_rows = std::min(new_nrows, base->nrows);
    for (Index r = 0; r < keep_rows; ++r) {
      // Columns are sorted, so the survivors are a prefix of the row.
      const Index* first = base->col.data() + base->ptr[r];
      const Index* last = std::lower_bound(
          first, base->col.data() + base->ptr[r + 1], new_ncols);
      out->col.insert(out->col.end(), first, last);
      out->vals.append(base->vals, base->ptr[r],
                       static_cast<size_t>(last - first));
      out->ptr[r + 1] = out->col.size();
    }
    for (Index r = keep_rows; r < new_nrows; ++r)
      out->ptr[r + 1] = out->col.size();
    publish(std::move(out));
    return Info::kSuccess;
  };
  if (mode() == Mode::kBlocking) GRB_RETURN_IF_ERROR(flush_pending());
  return defer_or_run(this, op);
}

}  // namespace grb
