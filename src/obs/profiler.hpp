// Hardware-counter profiler (observability layer 4, DESIGN.md §16).
//
// ProfScope brackets a kernel region and attributes a perf_event_open
// counter group — cycles, instructions, cache-misses, branch-misses —
// to the (context, op, strategy) key of the code that ran, so the
// decision audit's "we chose hash here" rows can be joined against
// measured IPC and miss rates (tools/grb_prof_report.py).
//
// Graceful degradation is mandatory, not best-effort: the backend is
// probed when the profiler is first enabled (and on every re-enable, so
// tests can force the path), and when perf_event_open is denied — the
// normal state in containers and CI — the scope falls back to
// CLOCK_THREAD_CPUTIME_ID (or getrusage(RUSAGE_THREAD) where even that
// clock is missing) and still produces consistent per-key records with
// zero hardware counters.  GRB_PERF_EVENTS=0 (or "off") forces the
// degraded backend; prof_backend_name() reports which backend is live,
// and the Prometheus exposition carries it as grb_prof_backend_info.
//
// Overhead contract: off by default behind kProfFlag in the shared
// g_flags word — a disabled ProfScope costs one relaxed load in its
// constructor and one branch in its destructor.
#pragma once

#include <cstdint>
#include <string>

#include "obs/telemetry.hpp"

namespace grb {
namespace obs {

enum class ProfBackend : uint8_t {
  kOff = 0,        // never probed / profiler unusable
  kPerf = 1,       // perf_event_open hardware counter groups
  kThreadCpu = 2,  // CLOCK_THREAD_CPUTIME_ID (no hardware counters)
  kRusage = 3,     // getrusage(RUSAGE_THREAD) (coarsest fallback)
};

// The live backend (probes on first query).  Never kOff after a probe:
// degradation always lands on a working clock.
ProfBackend prof_backend();
const char* prof_backend_name();  // "perf" | "thread-cputime" | "getrusage"

// Flips kProfFlag; enabling (re-)probes the backend so a changed
// GRB_PERF_EVENTS takes effect even mid-process.
void prof_set_enabled(bool on);

void prof_reset();  // drop all aggregated regions and totals

namespace detail {
// Raw begin-of-region snapshot.  Lives in the header only so ProfScope
// can embed it by value; treat as opaque.
struct ProfStart {
  uint64_t wall0 = 0;
  uint64_t cpu0 = 0;
  uint64_t time_enabled0 = 0;
  uint64_t time_running0 = 0;
  uint64_t vals0[4] = {0, 0, 0, 0};
  int n_events = 0;
};
void prof_begin(ProfStart* st);
void prof_end(const ProfStart& st, const char* op, const char* strategy);
}  // namespace detail

// RAII region around a kernel.  `op` defaults to the TLS current op;
// `strategy` names the alternative that ran ("hash", "dense", "dot",
// "saxpy", ...) and is the join key against DecisionRecord
// .chosen.  Both must have static storage duration.
class ProfScope {
 public:
  explicit ProfScope(const char* strategy, const char* op = nullptr)
      : active_(prof_enabled()),
        op_(op != nullptr ? op : current_op()),
        strategy_(strategy) {
    if (active_) detail::prof_begin(&start_);
  }
  ~ProfScope() {
    if (active_) detail::prof_end(start_, op_, strategy_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  bool active_;
  const char* op_;
  const char* strategy_;
  detail::ProfStart start_;
};

// --- Introspection --------------------------------------------------------
// The profiler's part of stats_get (the "prof.*" process totals), of the
// stats JSON ("prof" block: backend, totals and the per-(context, op,
// strategy) table — the profiler half of the grb_prof_report.py join)
// and of the exposition: walks of its metric tables (profiler.cpp).
bool prof_stats_get(const char* name, uint64_t* value);
std::string prof_json();
void prof_prometheus(std::string& out);

// GRB_PROF=1 enables at init; GRB_PERF_EVENTS=0 forces the degraded
// backend (honored at every probe).
void prof_env_activate();

}  // namespace obs
}  // namespace grb
