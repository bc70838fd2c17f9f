#include "containers/scalar.hpp"

namespace grb {

Info Scalar::snapshot(std::shared_ptr<const ScalarData>* out) {
  Info info = complete();
  if (static_cast<int>(info) < 0) return info;
  MutexLock lock(mu_);
  *out = data_;
  return Info::kSuccess;
}

void Scalar::publish(std::shared_ptr<const ScalarData> data) {
  MutexLock lock(mu_);
  data_ = std::move(data);
}

Info Scalar::new_(Scalar** s, const Type* type, Context* ctx) {
  if (s == nullptr || type == nullptr) return Info::kNullPointer;
  Context* c = resolve_context(ctx);
  if (c == nullptr) return Info::kPanic;  // library not initialized
  if (!context_is_live(c)) return Info::kUninitializedObject;
  *s = new Scalar(type, c);
  return Info::kSuccess;
}

Info Scalar::dup(Scalar** out, const Scalar* in) {
  if (out == nullptr || in == nullptr) return Info::kNullPointer;
  auto* src = const_cast<Scalar*>(in);
  std::shared_ptr<const ScalarData> snap;
  GRB_RETURN_IF_ERROR(src->snapshot(&snap));
  auto* s = new Scalar(snap->type, src->context());
  s->publish(std::make_shared<ScalarData>(*snap));
  *out = s;
  return Info::kSuccess;
}

Info Scalar::clear() {
  GRB_RETURN_IF_ERROR(pending_error());
  return defer_or_run(this, [this]() -> Info {
    auto d = std::make_shared<ScalarData>(type());
    publish(std::move(d));
    return Info::kSuccess;
  });
}

Info Scalar::nvals(Index* out) {
  if (out == nullptr) return Info::kNullPointer;
  std::shared_ptr<const ScalarData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
  *out = snap->present ? 1 : 0;
  return Info::kSuccess;
}

Info Scalar::set_element(const void* value, const Type* value_type) {
  if (value == nullptr || value_type == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(pending_error());
  const Type* t = type();
  if (!types_compatible(t, value_type)) return Info::kDomainMismatch;
  // The value is captured now (the caller's buffer need not outlive the
  // call), so deferral is safe.
  ValueBuf captured(t->size());
  cast_value(t, captured.data(), value_type, value);
  return defer_or_run(this, [this, t, captured]() -> Info {
    auto d = std::make_shared<ScalarData>(t);
    d->present = true;
    std::memcpy(d->value.data(), captured.data(), t->size());
    publish(std::move(d));
    return Info::kSuccess;
  });
}

Info Scalar::extract_element(void* out, const Type* out_type) {
  if (out == nullptr || out_type == nullptr) return Info::kNullPointer;
  const Type* t = type();
  if (!types_compatible(out_type, t)) return Info::kDomainMismatch;
  std::shared_ptr<const ScalarData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
  if (!snap->present) return Info::kNoValue;
  cast_value(out_type, out, t, snap->value.data());
  return Info::kSuccess;
}

Info Scalar::free(Scalar* s) {
  if (s == nullptr) return Info::kNullPointer;
  // Resolve (and discard) any outstanding deferred work before releasing.
  s->wait(WaitMode::kMaterialize);
  delete s;
  return Info::kSuccess;
}

}  // namespace grb
