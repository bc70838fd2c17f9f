// ObjectBase: shared handle state for GrB_Scalar / GrB_Vector / GrB_Matrix.
//
// Implements the paper's §III/§V machinery:
//  * the *sequence* of deferred method calls that defines an object in
//    nonblocking mode (a per-object FIFO of closures);
//  * completion (GrB_wait(obj, GrB_COMPLETE)) — drain the queue and fold
//    pending tuples so the object's internal state is resolved in memory;
//  * materialization (GrB_wait(obj, GrB_MATERIALIZE)) — completion plus
//    "no more errors can be generated from those methods": the deferred
//    error, if any, is reported and the error state is cleared;
//  * the deferred-execution-error model: a failed deferred method poisons
//    the object, and any later method invocation involving it reports the
//    stored error until a materializing wait clears it;
//  * GrB_error(&str, obj): a per-object, mutex-guarded error string.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/info.hpp"
#include "exec/context.hpp"
#include "obs/telemetry.hpp"
#include "util/thread_annotations.hpp"

namespace grb {

enum class WaitMode : int {
  kComplete = 0,
  kMaterialize = 1,
};

// One deferred method in an object's sequence.  `op` is the GrB entry
// point that enqueued it (captured from obs::current_op(); static
// storage), so diagnostics and trace spans can name the originating
// method; `enqueued_ns` is the telemetry enqueue stamp (0 when telemetry
// was disabled at enqueue time) used to report the deferral gap between
// call and execution.  `ctx_id` is the home context's obs id at enqueue
// time (the tenant the eventual execution is attributed to) and
// `flow_id` the Chrome-trace flow id linking the enqueuing API span to
// the execution span (0 = no trace).  `flush_upto` is nonzero only on a
// container's injected pending-tuple fold: the absolute consumed-tuple
// count the fold advances to (Vector/Matrix::flush_prefix).
struct Deferred {
  std::function<Info()> fn;
  const char* op;
  uint64_t enqueued_ns;
  uint64_t ctx_id = 0;
  uint64_t flow_id = 0;
  uint64_t flush_upto = 0;
};

class ObjectBase {
 public:
  explicit ObjectBase(Context* ctx) : ctx_(resolve_context(ctx)) {
    ctx_obs_id_.store(ctx_ != nullptr ? ctx_->obs_id() : 0,
                      std::memory_order_relaxed);
  }
  virtual ~ObjectBase() = default;

  ObjectBase(const ObjectBase&) = delete;
  ObjectBase& operator=(const ObjectBase&) = delete;

  Context* context() const GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ctx_;
  }
  Info switch_context(Context* new_ctx) GRB_EXCLUDES(mu_);

  // The home context's telemetry id, readable without mu_ so the
  // attribution fast paths (defer_or_run, enqueue) pay one relaxed load
  // instead of a lock round-trip.  Mirrors ctx_; updated by
  // switch_context.
  uint64_t obs_ctx_id() const {
    return ctx_obs_id_.load(std::memory_order_relaxed);
  }

  Mode mode() const {
    Context* c = context();
    return c != nullptr ? c->mode() : Mode::kBlocking;
  }

  // Appends a deferred method to this object's sequence.  Called only in
  // nonblocking mode, by the operation layer, after API validation.
  // Containers override it to fold outstanding pending tuples into the
  // sequence first, preserving program order.
  virtual void enqueue(std::function<Info()> op) GRB_EXCLUDES(mu_) {
    append(std::move(op), 0);
  }

  // Runs the sequence to completion (and folds pending tuples via
  // flush_pending).  Returns the first deferred execution error, which
  // stays stored (poisoning the object) until a materializing wait.
  // Must be called with mu_ free: the deferred closures it runs publish
  // their results under mu_ themselves.
  //
  // Completion is where nonblocking mode goes to block, so it carries
  // the observability wrappers inline: stamp the thread's attribution
  // slot with this object's tenant, and — only when the stall watchdog
  // is armed — take the registered-drain slow path so a queue stuck
  // behind a slow deferred method trips a report naming this context.
  // With telemetry off this adds one relaxed flag load to the drain.
  Info complete() GRB_EXCLUDES(mu_) {
    uint32_t f = obs::flags();
    if (__builtin_expect(f != 0, 0)) {
      uint64_t ctx_id = obs_ctx_id();
      if (ctx_id != 0) obs::set_current_ctx(ctx_id);
      if ((f & obs::kWatchdogFlag) != 0) return complete_watched();
    }
    return complete_impl();
  }

  // GrB_wait.  kComplete == complete(); kMaterialize also clears the
  // stored error after reporting it.
  Info wait(WaitMode mode) GRB_EXCLUDES(mu_);

  // The deferred-error check every method performs on its arguments
  // (paper §V: later methods in the sequence report earlier errors).
  // It is also the one hook every container fast path shares, so it
  // stamps the thread's sticky attribution context: pending-tuple
  // appends (setElement/removeElement in nonblocking mode) never reach
  // enqueue/complete, yet their API spans must still bill to this
  // object's tenant.
  Info pending_error() const GRB_EXCLUDES(mu_) {
    stamp_current_ctx();
    MutexLock lock(mu_);
    return err_;
  }

  // Records an execution error against this object (blocking mode or
  // deferred execution) along with a message for GrB_error.
  void poison(Info info, const std::string& msg) GRB_EXCLUDES(mu_);

  // GrB_error: pointer to a per-object string, stable until the next
  // error recorded on the object.
  const char* error_string() const GRB_EXCLUDES(mu_);

  bool has_pending_ops() const GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return !queue_.empty();
  }

 protected:
  // Containers fold fast-path pending tuples here (called with no locks
  // held by complete()); default is a no-op.  Implementations take mu_
  // themselves, so the capability must be free on entry.
  virtual Info flush_pending() GRB_EXCLUDES(mu_) { return Info::kSuccess; }

  // Appends `op` with its telemetry stamps.  `flush_upto` marks a
  // container's pending-tuple fold (0 for every other method).
  void append(std::function<Info()> op, uint64_t flush_upto)
      GRB_EXCLUDES(mu_);

  // True when the queued sequence already contains a pending-tuple fold
  // covering absolute consumed-count `upto` — container enqueue overrides
  // use this to avoid injecting one fold per deferred method when a
  // single earlier fold already batches the outstanding tuples.  Scans
  // the live queue (not a cached counter) so poison-time queue clears
  // cannot leave it stale.
  bool flush_queued_covering(uint64_t upto) const GRB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
      if (it->flush_upto >= upto) return true;
    }
    return false;
  }

  // pending_error()'s attribution stamp, for fast paths that read the
  // stored error under a lock they take anyway (error_locked).
  void stamp_current_ctx() const {
    if (obs::enabled()) {
      uint64_t id = obs_ctx_id();
      if (id != 0) obs::set_current_ctx(id);
    }
  }
  Info error_locked() const GRB_REQUIRES(mu_) { return err_; }
  Mode mode_locked() const GRB_REQUIRES(mu_) {
    return ctx_ != nullptr ? ctx_->mode() : Mode::kBlocking;
  }

  mutable Mutex mu_;

 private:
  // The lock-held half of poison(): callers that already hold mu_ (e.g.
  // complete() failing a deferred method and clearing the queue in the
  // same critical section) record the error without a second acquire.
  // Returns true when this was the first error transition and the
  // flight recorder is live — the caller must then run
  // obs::fr_auto_dump(msg) *after* releasing mu_ (the dump allocates,
  // locks the recorder control mutex, and may write files; none of
  // that belongs in a critical section).
  bool poison_locked(Info info, const std::string& msg) GRB_REQUIRES(mu_);

  // The drain loop proper; complete() dispatches here directly, or via
  // complete_watched() — which brackets the drain in the watchdog stall
  // table — when the watchdog is armed, so a queue stuck behind a slow
  // or deadlocked deferred method is reported with this object's tenant.
  Info complete_impl() GRB_EXCLUDES(mu_);
  Info complete_watched() GRB_EXCLUDES(mu_);

  Context* ctx_ GRB_GUARDED_BY(mu_);
  // Lock-free mirror of ctx_->obs_id() for attribution paths that must
  // not take mu_ (memory snapshots, enqueue fast path).
  std::atomic<uint64_t> ctx_obs_id_{0};
  std::vector<Deferred> queue_ GRB_GUARDED_BY(mu_);
  Info err_ GRB_GUARDED_BY(mu_) = Info::kSuccess;
  std::string errmsg_ GRB_GUARDED_BY(mu_);
};

// Shorthand used by the operation layer: execute `op` now (blocking mode)
// or append it to `out`'s sequence (nonblocking).  In blocking mode an
// execution error poisons the output and is returned immediately.
Info defer_or_run(ObjectBase* out, std::function<Info()> op);

}  // namespace grb
