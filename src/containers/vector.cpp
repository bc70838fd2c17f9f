#include "containers/vector.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace grb {

size_t VectorData::find(Index i) const {
  auto it = std::lower_bound(ind.begin(), ind.end(), i);
  if (it == ind.end() || *it != i) return npos;
  return static_cast<size_t>(it - ind.begin());
}

Info Vector::snapshot(std::shared_ptr<const VectorData>* out) {
  Info info = complete();
  if (static_cast<int>(info) < 0) return info;
  MutexLock lock(mu_);
  *out = data_;
  return Info::kSuccess;
}

void Vector::publish(std::shared_ptr<const VectorData> data) {
  MutexLock lock(mu_);
  data_ = std::move(data);
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
  out->format = "sparse";
  out->live_bytes += obs::account_live(*data->acct);
  out->peak_bytes += obs::account_peak(*data->acct);
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
  // The fold is the one-row case of the matrix fold.
  auto folded = std::make_shared<VectorData>(base->type, base->n);
  const Index base_ptr[2] = {0, static_cast<Index>(base->ind.size())};
  Index out_ptr[2] = {};
  fold_pending(pend, pvals, 1, base_ptr, base->ind, base->vals, out_ptr,
               &folded->ind, &folded->vals);
  publish(std::move(folded));
  return Info::kSuccess;
}

void Vector::enqueue(std::function<Info()> op) {
  // Fold outstanding fast-path tuples into the sequence first so the
  // deferred op observes them in program order.  The fold is tagged with
  // the absolute tuple count it covers; when a queued fold already
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
  if (have_tuples && !flush_queued_covering(upto))
    append([this, upto]() -> Info { return flush_prefix(upto); }, upto);
  append(std::move(op), 0);
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
  return defer_or_run(this, op);
}

Info Vector::nvals(Index* out) {
  if (out == nullptr) return Info::kNullPointer;
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
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
    std::shared_ptr<const VectorData> base = current_data();
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
  return defer_or_run(this, op);
}

}  // namespace grb
