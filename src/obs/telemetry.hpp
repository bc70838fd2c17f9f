// Telemetry: always-compiled, near-zero-overhead-when-disabled
// observability for the nonblocking execution machinery.
//
// Three instruments, all off by default:
//  * per-operation counters (stats): calls, nanoseconds, scalars
//    processed, flops (mxm/mxv/vxm), serial-fallback vs. parallel-path
//    decisions, deferred executions — keyed by (context id, GrB op
//    name), so two tenants sharing a process stay distinguishable;
//  * gauges: deferred-queue depth and pending-tuple count sampled at
//    enqueue/complete, plus thread-pool utilization (busy workers,
//    submitted/executed chunks, steals, parks) per pool, plus per-site
//    lock-contention wait histograms;
//  * spans (trace): Chrome trace-event JSON ("X" complete events around
//    every GrB_*/GxB_* entry and every deferred-method execution, "C"
//    counter events for gauges, "s"/"t" flow events linking an enqueue
//    to the deferred execution it produced), loadable in
//    chrome://tracing / Perfetto.
//
// Overhead contract: every hook begins with one relaxed atomic load of
// g_flags; when all instruments are off the hook does nothing else.
// The only unconditional state is the thread-local current-op name and
// current-context id set at the C API boundary — four TLS stores per
// entry — which also powers the deferred-error diagnostics (GrB_error
// names the failing method), so it is part of the error model, not
// just telemetry.
//
// Activation: GxB_Stats_enable / GxB_Trace_start (see GraphBLAS.h), or
// the environment: GRB_STATS=1 enables counters and prints a JSON
// summary to stderr at GrB_finalize; GRB_TRACE=path.json records spans
// and dumps the trace file at GrB_finalize; GRB_WATCHDOG=ms arms the
// stall watchdog (see below).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace grb {
namespace obs {

enum Flag : uint32_t {
  kStatsFlag = 1u,
  kTraceFlag = 2u,
  // The flight recorder (obs/flight_recorder.hpp) shares the gate so the
  // C API veneer still pays exactly one relaxed load when everything is
  // off.  It is ON by default after GrB_init (GRB_FLIGHT_RECORDER=0
  // disables), so hooks that only serve stats/trace must gate on
  // telemetry_enabled(), not enabled().
  kFlightFlag = 4u,
  // Stall watchdog armed (GRB_WATCHDOG=ms).  Lock wrappers and the
  // completion path register in-progress waits in the stall table only
  // when this bit is set.
  kWatchdogFlag = 8u,
  // Decision audit (obs/decision.hpp): adaptive cost-model sites record
  // what they chose/rejected/predicted.  On with stats (GxB_Stats_enable
  // sets both) or standalone via GRB_DECISIONS=1.
  kDecisionFlag = 16u,
};

namespace detail {
// The single hot-path gate.  Relaxed is sufficient: hooks tolerate
// observing a stale value for a few instructions around enable/disable.
extern std::atomic<uint32_t> g_flags;
}  // namespace detail

inline uint32_t flags() {
  return detail::g_flags.load(std::memory_order_relaxed);
}
inline bool enabled() { return flags() != 0u; }
inline bool stats_enabled() { return (flags() & kStatsFlag) != 0u; }
inline bool trace_enabled() { return (flags() & kTraceFlag) != 0u; }
// Stats or trace on (the pre-flight-recorder meaning of enabled()):
// hooks that record counters or spans gate here so the always-on flight
// recorder does not drag them onto their slow paths.
inline bool telemetry_enabled() {
  return (flags() & (kStatsFlag | kTraceFlag)) != 0u;
}
inline bool flight_enabled() { return (flags() & kFlightFlag) != 0u; }
inline bool watchdog_enabled() { return (flags() & kWatchdogFlag) != 0u; }
inline bool decision_enabled() { return (flags() & kDecisionFlag) != 0u; }

// Nanoseconds since an arbitrary process-local epoch (steady clock).
uint64_t now_ns();

// --- Current-op / current-context attribution -----------------------------
// The C API veneer (grb_detail::guarded) names the entry point here so
// deeper layers — enqueue, exec_context, kernels — can attribute work
// and errors to the originating GrB op without plumbing a name through
// every signature.  Always maintained (error messages depend on it).
//
// The context id rides in a sibling slot: the execution layer sets it
// (sticky within the API scope) as soon as the target object's home
// context is known — defer_or_run, enqueue, complete — so api_return /
// deferred_return key their counters by (context, op).  Context id 0
// means "unattributed" (no object touched, or the serial helper
// context); the top context is always id 1.
namespace detail {
// TLS attribution slots.  They are defined here, constant-initialized,
// so every access is a plain TLS load/store: an extern thread_local is
// reached through a TLS wrapper call instead (which UBSan flags as a
// null-pointer load), and this pair is on the flags==0 fast path of
// every C API entry.
inline constinit thread_local const char* t_current_op = nullptr;
inline constinit thread_local uint64_t t_current_ctx = 0;
}  // namespace detail

inline const char* current_op() {              // never null
  return detail::t_current_op != nullptr ? detail::t_current_op
                                         : "(unknown)";
}
inline const char* set_current_op(const char* name) {  // returns previous
  const char* prev = detail::t_current_op;
  detail::t_current_op = name;
  return prev;
}
inline uint64_t current_ctx() { return detail::t_current_ctx; }
inline uint64_t set_current_ctx(uint64_t ctx_id) {     // returns previous
  uint64_t prev = detail::t_current_ctx;
  detail::t_current_ctx = ctx_id;
  return prev;
}

constexpr uint64_t kTopContextId = 1;

class CurrentOpScope {
 public:
  explicit CurrentOpScope(const char* name)
      : prev_(set_current_op(name)), prev_ctx_(current_ctx()) {}
  // Deferred-execution form: the node carries the context it was
  // enqueued under, so replayed work is attributed to its tenant even
  // when it runs outside any API scope.
  CurrentOpScope(const char* name, uint64_t ctx_id)
      : prev_(set_current_op(name)), prev_ctx_(set_current_ctx(ctx_id)) {}
  ~CurrentOpScope() {
    set_current_op(prev_);
    set_current_ctx(prev_ctx_);
  }
  CurrentOpScope(const CurrentOpScope&) = delete;
  CurrentOpScope& operator=(const CurrentOpScope&) = delete;

 private:
  const char* prev_;
  uint64_t prev_ctx_;
};

// --- Context registry ------------------------------------------------------
// context.cpp names every GrB_Context here: the top context registers as
// (1, parent 0) at GrB_init, children with their parent's id at
// GrB_Context_new.  ctx_retire marks a freed context dead and drains its
// per-op counters into the nearest live ancestor (exchange-based, so a
// racing bump is never lost); later bumps against the dead id fold into
// the ancestor at read time.  Ids are never reused within a process.
void ctx_register(uint64_t ctx_id, uint64_t parent_id);
void ctx_retire(uint64_t ctx_id);

// --- Hooks (each gates itself on flags()) --------------------------------
// C API entry returned: counts the call (keyed by current_ctx()) and
// emits its span.  `t0` is the now_ns() stamp taken at entry (caller
// reads it only when enabled()).
void api_return(const char* op, uint64_t t0, bool failed);

// A deferred method ran during complete().  `enq_ns` is the enqueue
// stamp (0 when telemetry was off at enqueue time) so the span carries
// the deferral gap between call and execution.
void deferred_return(const char* op, uint64_t t0, uint64_t enq_ns,
                     bool failed);

// Injects one duration sample into `op`'s latency histogram (stats-
// gated, attributed to current_ctx()).  api_return / deferred_return
// call it internally; tests use it to drive the percentile oracle with
// synthetic durations.
void latency_record(const char* op, uint64_t ns);

// Serial-fallback gate decision, attributed to current_op().
void count_path(bool parallel);

// Work volume, attributed to current_op().
void add_scalars(uint64_t n);
void add_flops(uint64_t n);

// SpGEMM engine decisions: rows routed to each accumulator kind
// ("spgemm.rows_hash" / "spgemm.rows_dense") and the symbolic-pass flop
// estimate total ("spgemm.flops_estimated").  Kernels batch per-block
// tallies and flush once, so these stay off the per-row path.
void spgemm_rows(uint64_t rows_hash, uint64_t rows_dense);
void spgemm_flops_estimated(uint64_t n);

// Scratch-arena request outcome: hit == the buffer was reused with no
// allocation or clear ("arena.reuse_hits" / "arena.reuse_misses").
void arena_request(bool hit);

// Transpose cache (ops/transpose.cpp): counts descriptor-transpose reads
// served from / missing the per-snapshot cached transpose
// ("format.transpose_cache_hits" / "format.transpose_cache_misses").
// Stats-gated.
void format_transpose_cache(bool hit);

// --- Causal flow linking ---------------------------------------------------
// Chrome flow events tie the API span that enqueued a deferred method to
// the deferred span that later executed it.  The enqueue site
// draws a flow id from next_flow_id(), emits the "s" (start) record
// inside the API span via flow_begin, and stashes the id on the node;
// the execution site emits the matching "t" (step) record via flow_step
// just after its span opens.  Both are trace-gated.
uint64_t next_flow_id();               // monotonic, never returns 0
void flow_begin(const char* op, uint64_t flow_id);
void flow_step(const char* op, uint64_t flow_id);

// Gauges: deferred-queue depth after an enqueue, entries drained by a
// complete() batch, pending-tuple count after a fast-path set_element.
void queue_depth_sample(size_t depth);
void queue_drained(size_t batch);
void pending_tuples_sample(size_t count);

// Thread-pool gauges, keyed by the pool's obs id.  pool_park carries
// the cv-wait duration of the park episode ("pool.park_ns").
int next_pool_id();
void pool_submit(int pool_id, uint64_t nchunks);
void pool_chunk(int pool_id, bool worker_lane);   // worker lane == "steal"
void pool_park(int pool_id, uint64_t wait_ns);
void pool_busy_enter(int pool_id);
void pool_busy_exit(int pool_id);

// --- Lock-contention profiler ---------------------------------------------
// The annotated Mutex/MutexLock/CvLock wrappers (util/thread_annotations
// .hpp) report here, keyed by lock *site* — the enclosing function name
// captured free via a __builtin_FUNCTION default argument.  Recording is
// allocation-free (fixed open-addressed slot table keyed by string
// pointer, merged by name on read) so it is safe from any context,
// including while other locks are held.  lock_acquired counts an
// uncontended acquisition; lock_wait counts a contended one plus its
// blocked duration (44-bucket log2 histogram per site).
void lock_acquired(const char* site);
void lock_wait(const char* site, uint64_t wait_ns);

// Holder breadcrumb for the watchdog: each Mutex embeds one; the scoped
// wrappers stamp it (watchdog-gated) on acquire and clear it on release
// so a stall report can name the holding site and tenant.  All-relaxed:
// this is diagnostic breadcrumb state, not synchronization.
struct LockOwnerInfo {
  std::atomic<const char*> site{nullptr};
  std::atomic<uint64_t> ctx{0};
  std::atomic<uint64_t> since_ns{0};

  void set(const char* s, uint64_t ctx_id, uint64_t now) {
    ctx.store(ctx_id, std::memory_order_relaxed);
    since_ns.store(now, std::memory_order_relaxed);
    site.store(s, std::memory_order_relaxed);
  }
  void clear() { site.store(nullptr, std::memory_order_relaxed); }
};

// --- Stall watchdog --------------------------------------------------------
// Opt-in via GRB_WATCHDOG=ms (or watchdog_start).  Threads about to
// block register the wait in a fixed stall table (stall_begin; token is
// -1 when the table is full — pass it to stall_end regardless).  A
// background thread scans every deadline/4 and, when a registered wait
// is older than the deadline, bumps "watchdog.trips", logs a flight-
// recorder event and auto-dumps the ring with the blocked context id —
// and, for lock waits, the holder site/context from LockOwnerInfo.
enum StallKind : uint32_t {
  kStallLockWait = 0,    // blocked acquiring a Mutex
  kStallCompletion = 1,  // draining a deferred queue (complete())
};
int stall_begin(StallKind kind, const char* what, uint64_t ctx_id,
                const LockOwnerInfo* holder);
void stall_end(int token);
void watchdog_start(uint64_t deadline_ms);
void watchdog_stop();
uint64_t watchdog_trips();

// --- Control / introspection (backs the GxB_* extension API) -------------
void stats_set_enabled(bool on);
void stats_reset();

// The three exporters below and stats_reset walk the metric tables in
// telemetry.cpp and decision.cpp (obs/metric_table.hpp),
// so every number has one name, one JSON key and one Prometheus series.
//
// stats_get: a global by its dotted name ("queue.enqueued"); a per-op
// field summed over contexts ("<op>.calls", "<op>.p99_ns"); a lock-site
// field ("lock.<site>.wait_ns"); a pool field summed over pools
// ("pool.steals"); "decision.*" forwards to the audit.  Returns false
// (and *value = 0) for unknown names.
bool stats_get(const char* name, uint64_t* value);

// Per-context lookup (backs GxB_Context_stats): the per-op names of
// stats_get restricted to one context subtree — entries whose nearest
// live ancestor is `ctx_id` — plus the "mem.*" fields of the containers
// homed there.
bool stats_get_ctx(uint64_t ctx_id, const char* name, uint64_t* value);

// Full dump as a JSON object (ops, globals, pools, contexts, locks,
// decisions).  `trim_zero_rows` drops per-op and per-context
// entries whose counters are all zero — bench artifacts embed the dump —
// without changing the schema of the rows that remain.
std::string stats_json(bool trim_zero_rows = false);

// Prometheus text exposition (version 0.0.4).  Backs
// GxB_Stats_prometheus and the GRB_METRICS finalize dump.
std::string stats_prometheus();

// Tracing.  trace_start enables span recording and remembers `path`
// (may be null: dump must then name one).  trace_dump writes the Chrome
// trace JSON, disables tracing and clears the buffer; returns false on
// I/O failure or no usable path.  trace_stop discards without writing.
bool trace_start(const char* path);
bool trace_dump(const char* path);
void trace_stop();

// Environment activation, called by library_init / library_finalize.
// GRB_STATS=1 prints the JSON summary at finalize; GRB_TRACE=path.json
// dumps a Chrome trace; GRB_METRICS=path.prom enables stats and writes
// the Prometheus exposition at finalize; GRB_STATS_JSON=path.json
// enables stats and writes the full stats_json document at finalize;
// GRB_FLIGHT_RECORDER=N sizes the flight recorder (default 4096, 0
// disables); GRB_WATCHDOG=ms arms the stall watchdog with a deadline in
// milliseconds; GRB_DECISIONS=1 enables the decision audit.
void env_activate();
void env_finalize();

}  // namespace obs
}  // namespace grb
