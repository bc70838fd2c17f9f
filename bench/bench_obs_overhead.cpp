// Telemetry overhead: the disabled state must cost one relaxed atomic
// flag load per hook (plus the two TLS stores of the current-op slot at
// the C API boundary).  BM_ApiHook_Disabled vs. BM_ApiHook_Flight vs.
// BM_ApiHook_Stats vs. BM_ApiHook_Trace quantify the hook on an entry
// point that also takes the object mutex; BM_ApiHook_Veneer_* time the
// guarded veneer alone, on entry points that touch no object (repeated,
// the recorder's run path; alternating, one ring slot per call);
// BM_Mxv_* quantify a real kernel so the disabled-overhead acceptance
// bound is observable on an op that actually does work.  The flight
// recorder is ON by default, so the *_Disabled/*_TelemetryOff benches
// resize its ring to 0 to reach the flags==0 fast path, and dedicated
// *_Flight/*_FlightOnly variants measure the always-on ring cost.
#include "bench_util.hpp"
#include "obs/flight_recorder.hpp"
#include "util/thread_annotations.hpp"

namespace {

// Ring off for the scope, restored to the default size on exit.
struct FlightOff {
  FlightOff() { grb::obs::fr_resize(0); }
  ~FlightOff() { grb::obs::fr_resize(4096); }
};

constexpr GrB_Index kN = 1u << 14;

GrB_Vector shared_vec() {
  static GrB_Vector v = benchutil::dense_vector(kN, 7);
  return v;
}

GrB_Matrix shared_mat() {
  static GrB_Matrix a = benchutil::rmat(13, 8);
  return a;
}

void api_hook_loop(benchmark::State& state) {
  GrB_Vector v = shared_vec();
  GrB_Index n = 0;
  for (auto _ : state) {
    // The cheapest real entry point: one guarded veneer crossing plus a
    // mutex-protected size read.
    BENCH_TRY(GrB_Vector_nvals(&n, v));
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ApiHook_Disabled(benchmark::State& state) {
  FlightOff off;
  BENCH_TRY(GxB_Stats_enable(0));
  api_hook_loop(state);
}
BENCHMARK(BM_ApiHook_Disabled);

// Default production state: flight recorder only, no stats/trace.
void BM_ApiHook_Flight(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(0));
  api_hook_loop(state);
}
BENCHMARK(BM_ApiHook_Flight);

// The veneer alone: GrB_getVersion is guarded like every entry point
// but reads no object and takes no lock, so these legs minus the two
// above are the object mutex and the size read.
void veneer_loop(benchmark::State& state) {
  unsigned int version = 0, subversion = 0;
  for (auto _ : state) {
    BENCH_TRY(GrB_getVersion(&version, &subversion));
    benchmark::DoNotOptimize(version);
    benchmark::DoNotOptimize(subversion);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ApiHook_Veneer_Disabled(benchmark::State& state) {
  FlightOff off;
  BENCH_TRY(GxB_Stats_enable(0));
  veneer_loop(state);
}
BENCHMARK(BM_ApiHook_Veneer_Disabled);

// Repeats one entry point, so after the first call every call takes
// the flight recorder's run path: a thread-local count, no ring slot.
void BM_ApiHook_Veneer_Flight(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(0));
  veneer_loop(state);
}
BENCHMARK(BM_ApiHook_Veneer_Flight);

// Alternates two guarded entry points that read no object, one call
// per iteration, so no run forms and every call claims a ring slot.
void BM_ApiHook_Veneer_FlightAlternating(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(0));
  unsigned int version = 0, subversion = 0;
  int fusion = 0;
  bool odd = false;
  for (auto _ : state) {
    odd = !odd;
    if (odd) {
      BENCH_TRY(GrB_getVersion(&version, &subversion));
    } else {
      BENCH_TRY(GxB_Fusion_get(&fusion));
    }
    benchmark::DoNotOptimize(version);
    benchmark::DoNotOptimize(fusion);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApiHook_Veneer_FlightAlternating);

void BM_ApiHook_Stats(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(1));
  api_hook_loop(state);
  BENCH_TRY(GxB_Stats_enable(0));
  BENCH_TRY(GxB_Stats_reset());
}
BENCHMARK(BM_ApiHook_Stats);

// Same hook, but the target vector is homed in a child GrB_Context so
// every counter update keys the (context, op) attribution registry
// instead of the top-level slot.  The delta vs. BM_ApiHook_Stats is the
// price of tenant attribution.
void BM_ApiHook_StatsCtx(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(1));
  GrB_Context ctx = nullptr;
  BENCH_TRY(GrB_Context_new(&ctx, GrB_NONBLOCKING, nullptr, nullptr));
  GrB_Vector v = nullptr;
  BENCH_TRY(GrB_Vector_new(&v, GrB_FP64, 64, ctx));
  BENCH_TRY(GrB_Vector_setElement(v, 1.0, 0));
  BENCH_TRY(GrB_wait(v, GrB_MATERIALIZE));
  GrB_Index n = 0;
  for (auto _ : state) {
    BENCH_TRY(GrB_Vector_nvals(&n, v));
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations());
  GrB_free(&v);
  BENCH_TRY(GrB_free(&ctx));
  BENCH_TRY(GxB_Stats_enable(0));
  BENCH_TRY(GxB_Stats_reset());
}
BENCHMARK(BM_ApiHook_StatsCtx);

void BM_ApiHook_Trace(benchmark::State& state) {
  BENCH_TRY(GxB_Trace_start("BENCH_obs_overhead_trace.json"));
  api_hook_loop(state);
  // Dump (and discard) so the buffer cap can't bleed into other runs.
  BENCH_TRY(GxB_Trace_dump(nullptr));
  std::remove("BENCH_obs_overhead_trace.json");
}
BENCHMARK(BM_ApiHook_Trace);

// The contention-profiler probe on an uncontended acquire: a named-site
// MutexLock whose site counters are gated on the same flags word as the
// rest of telemetry.  Disabled must be the bare pthread lock plus one
// relaxed load; Stats adds the per-site acquire bump.
void lock_hook_loop(benchmark::State& state) {
  grb::Mutex mu;
  uint64_t ticks = 0;
  for (auto _ : state) {
    grb::MutexLock lock(mu, "bench_lock_site");
    benchmark::DoNotOptimize(++ticks);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LockHook_Disabled(benchmark::State& state) {
  FlightOff off;
  BENCH_TRY(GxB_Stats_enable(0));
  lock_hook_loop(state);
}
BENCHMARK(BM_LockHook_Disabled);

void BM_LockHook_Stats(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(1));
  lock_hook_loop(state);
  BENCH_TRY(GxB_Stats_enable(0));
  BENCH_TRY(GxB_Stats_reset());
}
BENCHMARK(BM_LockHook_Stats);

void mxv_loop(benchmark::State& state) {
  GrB_Matrix a = shared_mat();
  GrB_Index n;
  BENCH_TRY(GrB_Matrix_nrows(&n, a));
  // Sized to the matrix (the nvals hook benches reuse the larger
  // shared_vec; this one must match 2^13 rmat rows).
  static GrB_Vector u = benchutil::dense_vector(n, 11);
  GrB_Vector w = nullptr;
  BENCH_TRY(GrB_Vector_new(&w, GrB_FP64, n));
  for (auto _ : state) {
    BENCH_TRY(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                      GrB_NULL));
    BENCH_TRY(GrB_wait(w, GrB_MATERIALIZE));
  }
  GrB_free(&w);
}

void BM_Mxv_TelemetryOff(benchmark::State& state) {
  FlightOff off;
  BENCH_TRY(GxB_Stats_enable(0));
  mxv_loop(state);
}
BENCHMARK(BM_Mxv_TelemetryOff)->Unit(benchmark::kMicrosecond);

void BM_Mxv_FlightOnly(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(0));
  mxv_loop(state);
}
BENCHMARK(BM_Mxv_FlightOnly)->Unit(benchmark::kMicrosecond);

void BM_Mxv_TelemetryStats(benchmark::State& state) {
  BENCH_TRY(GxB_Stats_enable(1));
  mxv_loop(state);
  BENCH_TRY(GxB_Stats_enable(0));
  BENCH_TRY(GxB_Stats_reset());
}
BENCHMARK(BM_Mxv_TelemetryStats)->Unit(benchmark::kMicrosecond);

}  // namespace

GRB_BENCH_MAIN()
