#include "exec/object_base.hpp"

#include "obs/flight_recorder.hpp"

namespace grb {

Info ObjectBase::switch_context(Context* new_ctx) {
  Context* c = resolve_context(new_ctx);
  if (c == nullptr || !context_is_live(c)) return Info::kUninitializedObject;
  // Re-homing an object first resolves its state in the old context.
  Info info = complete();
  if (is_execution_error(info)) return info;
  MutexLock lock(mu_);
  ctx_ = c;
  ctx_obs_id_.store(c->obs_id(), std::memory_order_relaxed);
  return Info::kSuccess;
}

void ObjectBase::append(std::function<Info()> op, uint64_t flush_upto) {
  // The entry-point name travels with the closure so a later failure
  // during complete() can name the method that caused it, and so the
  // trace can show the deferral gap between call and execution.  The
  // home context and (when tracing) a fresh flow id travel too: the
  // execution span replays the tenant attribution and closes the flow
  // arrow no matter which thread or API call later drains the queue.
  const char* op_name = obs::current_op();
  uint64_t enq_ns = obs::telemetry_enabled() ? obs::now_ns() : 0;
  uint64_t ctx_id = obs_ctx_id();
  if (obs::enabled() && ctx_id != 0) obs::set_current_ctx(ctx_id);
  uint64_t flow_id = obs::trace_enabled() ? obs::next_flow_id() : 0;
  size_t depth;
  {
    MutexLock lock(mu_);
    // Deliberate allocation under mu_: the deferred queue IS the growth
    // (suppressed in tools/grb_analyze_suppressions.json with rationale).
    queue_.push_back(
        Deferred{std::move(op), op_name, enq_ns, ctx_id, flow_id, flush_upto});
    depth = queue_.size();
  }
  // The gauge sample can land in the trace buffer (its own mutex plus a
  // possible vector growth); keep that out of this object's critical
  // section.  The depth is a sample either way — a stale read after
  // unlock is indistinguishable from sampling a moment later.
  obs::queue_depth_sample(depth);
  if (obs::flight_enabled()) {
    obs::fr_record(obs::FrKind::kEnqueue, op_name,
                   static_cast<int32_t>(depth), ctx_id, flow_id);
  }
  // The flow start ("s") binds to the enclosing API span — emitted here,
  // still inside the entry point, but after mu_ is released (the trace
  // buffer has its own mutex and may grow).
  obs::flow_begin(op_name, flow_id);
}

Info ObjectBase::complete_watched() {
  // Watchdog-armed drain: registered in the stall table for the whole
  // drain so a queue stuck behind a slow deferred method trips a report
  // naming this object's tenant.
  int token = obs::stall_begin(obs::kStallCompletion, "ObjectBase::complete",
                               obs_ctx_id(), nullptr);
  Info info = complete_impl();
  obs::stall_end(token);
  return info;
}

Info ObjectBase::complete_impl() {
  // Drain until the queue stays empty.  Closures publish results under
  // mu_ themselves; we must not hold mu_ while running them.
  for (;;) {
    std::vector<Deferred> batch;
    {
      MutexLock lock(mu_);
      if (err_ != Info::kSuccess) {
        // A poisoned sequence stops executing; the error sticks.
        queue_.clear();
        return err_;
      }
      if (queue_.empty()) break;
      batch.swap(queue_);
    }
    obs::queue_drained(batch.size());
    // Run the batch in program order.  Each method's scope replays its
    // enqueue-time context so the execution is charged to its tenant,
    // and flow_step closes the enqueue->exec trace arrow.
    const char* failed_op = nullptr;
    Info info = Info::kSuccess;
    for (Deferred& d : batch) {
      obs::CurrentOpScope op_scope(d.op, d.ctx_id);
      if (obs::flight_enabled())
        obs::fr_record(obs::FrKind::kDeferredExec, d.op, 0, d.ctx_id,
                       d.flow_id);
      uint64_t t0 = obs::telemetry_enabled() ? obs::now_ns() : 0;
      obs::flow_step(d.op, d.flow_id);
      info = d.fn();
      obs::deferred_return(d.op, t0, d.enqueued_ns,
                           static_cast<int>(info) < 0);
      if (static_cast<int>(info) < 0) {
        failed_op = d.op;
        break;
      }
    }
    // Deferred methods only validated their API contract eagerly; any
    // failure here is an execution-class failure for this object, even
    // when the code (e.g. GrB_INVALID_VALUE from build with a NULL dup,
    // paper SIX) is numerically in the API band.
    if (static_cast<int>(info) < 0) {
      // The message is built before taking mu_ — string concatenation
      // allocates, and an allocation must not throw with the lock held.
      std::string msg = std::string("deferred ") +
                        (failed_op != nullptr ? failed_op : "method") +
                        " failed: " + info_name(info);
      bool first;
      {
        // Record the error and discard the rest of the sequence in one
        // critical section, so no other thread can observe the object
        // poisoned but still holding methods it will never run.
        MutexLock lock(mu_);
        first = poison_locked(info, msg);
        queue_.clear();
      }
      if (first) obs::fr_auto_dump(msg.c_str());
      return info;
    }
  }
  Info info = flush_pending();
  if (static_cast<int>(info) < 0) {
    poison(info, std::string("pending-element flush failed: ") +
                     info_name(info));
    return info;
  }
  MutexLock lock(mu_);
  return err_;
}

Info ObjectBase::wait(WaitMode mode) {
  Info info = complete();
  if (mode == WaitMode::kMaterialize) {
    MutexLock lock(mu_);
    Info reported = err_;
    err_ = Info::kSuccess;
    // The message is kept for post-mortem GrB_error inspection.
    return reported != Info::kSuccess ? reported : info;
  }
  return info;
}

void ObjectBase::poison(Info info, const std::string& msg) {
  bool first;
  {
    MutexLock lock(mu_);
    first = poison_locked(info, msg);
  }
  if (first) obs::fr_auto_dump(msg.c_str());
}

bool ObjectBase::poison_locked(Info info, const std::string& msg) {
  if (err_ != Info::kSuccess) return false;
  err_ = info;
  errmsg_ = msg;
  // First error transition: log it so the temporally-detached failure
  // (the deferred method ran long after the call that queued it) is
  // attributable.  Only the lock-free ring record happens here; the
  // auto dump formats strings, takes the recorder's control mutex and
  // writes files, so callers run it after releasing mu_.
  if (!obs::flight_enabled()) return false;
  obs::fr_record(obs::FrKind::kPoison, obs::current_op(),
                 static_cast<int32_t>(info));
  return true;
}

const char* ObjectBase::error_string() const {
  MutexLock lock(mu_);
  return errmsg_.c_str();
}

Info defer_or_run(ObjectBase* out, std::function<Info()> op) {
  // First touch of the output object inside an API call: stamp the
  // thread's attribution slot with its tenant (sticky for the scope).
  if (obs::enabled()) {
    uint64_t ctx_id = out->obs_ctx_id();
    if (ctx_id != 0) obs::set_current_ctx(ctx_id);
  }
  if (out->mode() == Mode::kBlocking) {
    Info info = op();
    if (static_cast<int>(info) < 0) {
      out->poison(info, std::string(obs::current_op()) +
                            " failed: " + info_name(info));
    }
    return info;
  }
  out->enqueue(std::move(op));
  return Info::kSuccess;
}

}  // namespace grb
