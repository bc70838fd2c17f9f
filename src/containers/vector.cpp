#include "containers/vector.hpp"

#include <algorithm>

#include "containers/format.hpp"
#include "obs/telemetry.hpp"

namespace grb {

size_t VectorData::find(Index i) const {
  if (i >= n) return npos;
  switch (format) {
    case VecFormat::kBitmap:
      return bmap[i] != 0 ? static_cast<size_t>(i) : npos;
    case VecFormat::kDense:
      return static_cast<size_t>(i);
    case VecFormat::kSparse:
      break;
  }
  auto it = std::lower_bound(ind.begin(), ind.end(), i);
  if (it == ind.end() || *it != i) return npos;
  return static_cast<size_t>(it - ind.begin());
}

Info Vector::snapshot(std::shared_ptr<const VectorData>* out) {
  std::shared_ptr<const VectorData> native;
  GRB_RETURN_IF_ERROR(snapshot_native(&native));
  *out = format_sparse_view(std::move(native));
  return Info::kSuccess;
}

Info Vector::snapshot_native(std::shared_ptr<const VectorData>* out) {
  Info info = complete();
  if (static_cast<int>(info) < 0) return info;
  MutexLock lock(mu_);
  *out = data_;
  return Info::kSuccess;
}

void Vector::publish(std::shared_ptr<const VectorData> data) {
  // Snapshot-boundary format adaptation, before mu_ (see Matrix).
  data = format_adapt_vector(std::move(data),
                             fmt_override_.load(std::memory_order_relaxed));
  MutexLock lock(mu_);
  data_ = std::move(data);
}

Info Vector::set_format_option(int fmt) {
  if (fmt < -1 || fmt > static_cast<int>(VecFormat::kDense))
    return Info::kInvalidValue;
  fmt_override_.store(fmt, std::memory_order_relaxed);
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(snapshot_native(&snap));
  publish(std::move(snap));
  return Info::kSuccess;
}

void Vector::mem_snapshot(obs::MemReportable::Snapshot* out) const {
  std::shared_ptr<const VectorData> data;
  {
    MutexLock lock(mu_);
    out->kind = "vector";
    out->rows = size_;
    out->cols = 1;
    data = data_;
    out->live_bytes = obs::account_live(*pend_acct_);
    out->peak_bytes = obs::account_peak(*pend_acct_);
    out->ctx = obs_ctx_id();
  }
  out->nvals = data->nvals();
  out->format = format_name(data->format);
  out->live_bytes += obs::account_live(*data->acct);
  out->peak_bytes += obs::account_peak(*data->acct);
  std::shared_ptr<const VectorData> sparse;
  {
    MutexLock lock(data->view_mu_);
    sparse = data->sparse_view_;
  }
  if (sparse != nullptr)
    out->view_bytes += obs::account_live(*sparse->acct);
  out->live_bytes += out->view_bytes;
}

Info Vector::flush_pending() {
  uint64_t upto;
  {
    MutexLock lock(mu_);
    upto = pend_consumed_ + pend_.size();
  }
  return flush_prefix(upto);
}

Info Vector::flush_prefix(uint64_t upto) {
  obs::TrackedVec<PendingTuple> pend{
      obs::TrackedAlloc<PendingTuple>(pend_acct_)};
  ValueArray pvals(type_->size(), pend_acct_);
  std::shared_ptr<const VectorData> base;
  size_t remaining;
  {
    MutexLock lock(mu_);
    const size_t take = prefix_take(upto, pend_consumed_, pend_.size());
    if (take == 0) return Info::kSuccess;
    // Fold only the leading `take` tuples; later ones stay pending.
    split_pending(&pend_, &pend_vals_, take, &pend, &pvals);
    pend_consumed_ += take;
    remaining = pend_.size();
    base = data_;
  }
  obs::pending_tuples_sample(remaining);
  // The fold walks the sorted coordinate form (the one-row case of the
  // matrix fold); expand a non-canonical base first (cached on the
  // block).
  auto b = format_sparse_view(std::move(base));
  auto folded = std::make_shared<VectorData>(b->type, b->n);
  const Index base_ptr[2] = {0, static_cast<Index>(b->ind.size())};
  Index out_ptr[2] = {};
  fold_pending(pend, pvals, 1, base_ptr, b->ind, b->vals, out_ptr,
               &folded->ind, &folded->vals);
  publish(std::move(folded));
  return Info::kSuccess;
}

Info Vector::drop_prefix(uint64_t upto) {
  obs::TrackedVec<PendingTuple> dropped{
      obs::TrackedAlloc<PendingTuple>(pend_acct_)};
  ValueArray dropped_vals(type_->size(), pend_acct_);
  size_t remaining;
  {
    MutexLock lock(mu_);
    const size_t take = prefix_take(upto, pend_consumed_, pend_.size());
    if (take == 0) return Info::kSuccess;
    split_pending(&pend_, &pend_vals_, take, &dropped, &dropped_vals);
    pend_consumed_ += take;
    remaining = pend_.size();
  }
  obs::pending_tuples_sample(remaining);
  return Info::kSuccess;
}

void Vector::enqueue(std::function<Info()> op, FuseNode node) {
  // Fold outstanding fast-path tuples into the sequence first so the
  // deferred op observes them in program order.  The fold is tagged with
  // the absolute tuple count it covers; when a queued flush node already
  // covers everything pending, a second one would fold zero tuples, so
  // none is injected — consecutive deferred ops over one setElement
  // burst share a single batched fold.
  uint64_t upto;
  bool have_tuples;
  {
    MutexLock lock(mu_);
    have_tuples = !pend_.empty();
    upto = pend_consumed_ + pend_.size();
  }
  if (have_tuples && !flush_queued_covering(upto)) {
    FuseNode fl;
    fl.kind = FuseNode::Kind::kFlush;
    fl.flush_upto = upto;
    ObjectBase::enqueue([this, upto]() -> Info { return flush_prefix(upto); },
                        std::move(fl));
  }
  ObjectBase::enqueue(std::move(op), std::move(node));
}

Info Vector::new_(Vector** v, const Type* type, Index n, Context* ctx) {
  if (v == nullptr || type == nullptr) return Info::kNullPointer;
  if (n > kIndexMax) return Info::kInvalidValue;
  Context* c = resolve_context(ctx);
  if (c == nullptr) return Info::kPanic;
  if (!context_is_live(c)) return Info::kUninitializedObject;
  *v = new Vector(type, n, c);
  return Info::kSuccess;
}

Info Vector::dup(Vector** out, const Vector* in) {
  if (out == nullptr || in == nullptr) return Info::kNullPointer;
  auto* src = const_cast<Vector*>(in);
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(src->snapshot(&snap));
  auto* v = new Vector(snap->type, snap->n, src->context());
  v->publish(snap);  // COW: share until either side mutates
  *out = v;
  return Info::kSuccess;
}

Info Vector::free(Vector* v) {
  if (v == nullptr) return Info::kNullPointer;
  v->wait(WaitMode::kMaterialize);
  delete v;
  return Info::kSuccess;
}

Info Vector::clear() {
  GRB_RETURN_IF_ERROR(pending_error());
  auto op = [this]() -> Info {
    Index n;
    {
      MutexLock lock(mu_);
      n = size_;
    }
    publish(std::make_shared<VectorData>(type_, n));
    return Info::kSuccess;
  };
  // clear fully replaces the contents without reading them: a killer for
  // dead-write elimination.
  FuseNode node;
  node.reads_out = false;
  node.full_replace = true;
  return defer_or_run(this, op, std::move(node));
}

Info Vector::nvals(Index* out) {
  if (out == nullptr) return Info::kNullPointer;
  // Native block: every format answers nvals in O(1), no expansion.
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(snapshot_native(&snap));
  *out = snap->nvals();
  return Info::kSuccess;
}

Info Vector::resize(Index new_size) {
  if (new_size > kIndexMax) return Info::kInvalidValue;
  GRB_RETURN_IF_ERROR(pending_error());
  {
    MutexLock lock(mu_);
    size_ = new_size;  // handle dims update eagerly for validation
  }
  auto op = [this, new_size]() -> Info {
    std::shared_ptr<const VectorData> base = current_canonical();
    auto out = std::make_shared<VectorData>(base->type, new_size);
    if (new_size >= base->n) {
      out->ind = base->ind;
      out->vals = base->vals;
    } else {
      auto last = std::lower_bound(base->ind.begin(), base->ind.end(),
                                   new_size);
      out->ind.assign(base->ind.begin(), last);
      out->vals.append(base->vals, 0, out->ind.size());
    }
    publish(std::move(out));
    return Info::kSuccess;
  };
  if (mode() == Mode::kBlocking) GRB_RETURN_IF_ERROR(flush_pending());
  // The handle dimension already changed eagerly; the stored truncation
  // must run even when a later op overwrites the values (must_run), or a
  // subsequent writeback would merge against stale-dimension data.
  FuseNode node;
  node.must_run = true;
  return defer_or_run(this, op, std::move(node));
}

}  // namespace grb
