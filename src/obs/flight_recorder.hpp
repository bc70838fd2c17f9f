// Always-on flight recorder (DESIGN.md §11).
//
// The 2.0 error model makes failures temporally detached from their
// cause: a method call validates, defers, and succeeds; the execution
// error surfaces later, from whatever call happened to force completion.
// The flight recorder closes that gap by keeping the causal op history
// in a fixed-size lock-free ring buffer — every C API entry point, every
// deferred method execution, and every error transition.  A new slot
// costs a clock read, one relaxed fetch_add and a handful of stores.
//
// Runs: an api-enter from a thread whose last record was an api-enter
// of the same entry point, with no record from any thread in between,
// claims no slot and reads no clock.  It bumps a thread-local count that
// reaches the run's slot every 64 repeats and when the thread records
// anything else or exits, so a slot stands for N calls ("×N" in the text
// dump, "calls" in the trace JSON).  A dump on the run's own thread
// writes the exact count first; one taken elsewhere may read a count up
// to 63 short while the run is still open.  A streaming loop of setElement calls thus
// takes one slot per batch, not one per call.
//
// Sizing: 4096 slots by default; GRB_FLIGHT_RECORDER=N resizes (rounded
// up to a power of two), GRB_FLIGHT_RECORDER=0 disables.  When the ring
// wraps, the oldest events are overwritten and the overwrite count is
// surfaced via "flight.overwrites" in GxB_Stats_json.
//
// Dumps: whenever an object is poisoned or an entry point returns
// GrB_PANIC, the recorder renders the tail of the ring as annotated text
// (stderr, throttled after the first few) and — when GRB_FLIGHT_DUMP
// names a path — as Chrome trace-event JSON.  GxB_FlightRecorder_dump
// writes on demand (".json" suffix selects the trace form).
#pragma once

#include <cstdint>
#include <string>

namespace grb {
namespace obs {

enum class FrKind : uint8_t {
  kApiEnter = 0,   // a GrB_*/GxB_* entry point was invoked
  kApiError = 1,   // an entry point returned an execution error
  kDeferredExec = 2,  // a deferred method ran during complete()
  kPoison = 3,     // an object recorded its first deferred error
  // 4 and 5 are unused, so later kinds keep their values.
  kEnqueue = 6,    // a method was deferred onto an object's queue
  kWatchdog = 7,   // the stall watchdog tripped (info = stalled ms)
  kDecision = 8,   // an adaptive cost-model branch chose a strategy
};

// Ring sizing / lifecycle.  fr_resize(0) disables recording (and clears
// the kFlightFlag gate); any other capacity rounds up to a power of two
// and (re)enables.  Old rings are retired, never freed, so in-flight
// lock-free writers can not touch freed memory.
void fr_resize(uint64_t capacity);
uint64_t fr_capacity();
uint64_t fr_event_count();  // slots ever claimed (monotonic); a run is one
uint64_t fr_overwrites();   // slots lost to ring wrap

// Records one event.  `op` must have static storage duration (entry
// point literals); `info` is the GrB_Info value for error kinds.
// `ctx` is the obs context id of the tenant the event belongs to and
// `flow` the enqueue→exec flow id (both truncated to 32 bits in the
// ring; 0 = unattributed), so post-mortem dumps answer "whose op" and
// "which enqueue produced this execution".
void fr_record(FrKind kind, const char* op, int32_t info, uint64_t ctx = 0,
               uint64_t flow = 0);

// C API veneer hook for an entry point's return value: records an
// api-error event for execution errors and auto-dumps on GrB_PANIC.
// No-op for nonnegative `info`.
void fr_api_result(const char* op, int32_t info);

// Renders the newest `max_events` buffered events (0 = everything still
// in the ring) as annotated text, oldest first.
std::string fr_text(uint64_t max_events);

// The same events as Chrome trace-event JSON instant events.
std::string fr_trace_json();

// Writes fr_text (or, when `path` ends in ".json", fr_trace_json) to
// `path`; nullptr writes the text to stderr.  Returns false on I/O error.
bool fr_dump_file(const char* path);

// Automatic post-mortem dump (poison / PANIC paths).  Always renders and
// retains the text (fr_last_dump_text); prints to stderr only for the
// first few triggers per process so cascading poisons cannot flood logs.
void fr_auto_dump(const char* reason);

// The text of the most recent automatic dump ("" when none happened).
std::string fr_last_dump_text();

// Env plumbing, called from env_activate/env_finalize:
// GRB_FLIGHT_RECORDER sizes the ring (default 4096), GRB_FLIGHT_DUMP
// redirects automatic dumps (a path for trace JSON, "0" to silence).
void fr_env_activate();

}  // namespace obs
}  // namespace grb
