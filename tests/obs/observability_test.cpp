// Observability-layer tests: latency-histogram percentile oracles,
// memory-attribution gauge balance, the always-on flight recorder's
// post-mortem dump (causal order under threads), and the Prometheus
// exposition surface (GxB_Stats_prometheus / GRB_METRICS).
//
// Compiled into grb_obs_tests (telemetry_test.cpp owns main()); every
// test runs its own GrB_init / GrB_finalize so the env-activation cases
// can set GRB_METRICS / GRB_FLIGHT_RECORDER before initialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

size_t count_substr(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

uint64_t counter(const char* name) {
  uint64_t v = ~0ull;
  EXPECT_EQ(GxB_Stats_get(name, &v), GrB_SUCCESS) << name;
  return v;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  }
  void TearDown() override {
    EXPECT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
    EXPECT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
    EXPECT_EQ(GrB_finalize(), GrB_SUCCESS);
  }
};

GrB_Matrix path_matrix(GrB_Index n) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < n; ++i)
    EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + 1), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  return a;
}

// The log2 histograms report quantile upper bounds: a sample of v lands
// in bucket bit_width(v), whose reported value is 2^b - 1.  With
// synthetic durations injected through obs::latency_record the expected
// percentiles are exact closed forms.
TEST_F(ObservabilityTest, HistogramPercentilesMatchClosedFormOracle) {
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Uniform: 100 samples of 1000ns.  bucket(1000) = 10, upper = 1023.
  for (int i = 0; i < 100; ++i)
    grb::obs::latency_record("oracle_uniform", 1000);
  EXPECT_EQ(counter("oracle_uniform.p50_ns"), 1023u);
  EXPECT_EQ(counter("oracle_uniform.p90_ns"), 1023u);
  EXPECT_EQ(counter("oracle_uniform.p99_ns"), 1023u);
  // max is tracked exactly, not bucketed.
  EXPECT_EQ(counter("oracle_uniform.max_ns"), 1000u);

  // Bimodal tail: 90 fast (10ns, bucket 4 -> 15) + 10 slow (1ms,
  // bucket 20 -> 1048575).  Ceil-rank quantile: p50 and p90 land on the
  // fast mode (rank 50 and 90 of 100, cum 90 at bucket 4), p99 (rank
  // 99) lands in the tail.
  for (int i = 0; i < 90; ++i) grb::obs::latency_record("oracle_tail", 10);
  for (int i = 0; i < 10; ++i)
    grb::obs::latency_record("oracle_tail", 1000000);
  EXPECT_EQ(counter("oracle_tail.p50_ns"), 15u);
  EXPECT_EQ(counter("oracle_tail.p90_ns"), 15u);
  EXPECT_EQ(counter("oracle_tail.p99_ns"), 1048575u);
  EXPECT_EQ(counter("oracle_tail.max_ns"), 1000000u);

  // Zero-duration samples stay in bucket 0, reported as 0.
  grb::obs::latency_record("oracle_zero", 0);
  EXPECT_EQ(counter("oracle_zero.p50_ns"), 0u);
  EXPECT_EQ(counter("oracle_zero.p99_ns"), 0u);
  EXPECT_EQ(counter("oracle_zero.max_ns"), 0u);

  // The derived percentiles ride along in the JSON dump per op.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"oracle_tail\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\":1048575"), std::string::npos);
}

// Sharded histogram adds must not lose samples under contention: with
// every sample in one bucket, p50..p99 and max are deterministic no
// matter how the 8 threads interleave.
TEST_F(ObservabilityTest, HistogramShardsMergeConsistentlyUnderThreads) {
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i)
        grb::obs::latency_record("oracle_mt", 100);  // bucket 7 -> 127
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter("oracle_mt.p50_ns"), 127u);
  EXPECT_EQ(counter("oracle_mt.p99_ns"), 127u);
  EXPECT_EQ(counter("oracle_mt.max_ns"), 100u);
}

TEST_F(ObservabilityTest, MemoryGaugesBalanceAcrossObjectLifecycle) {
  const uint64_t base_live = counter("mem.live_bytes");
  const uint64_t base_objs = counter("mem.objects");

  constexpr GrB_Index kN = 64;
  GrB_Matrix a = path_matrix(kN);  // 63 stored entries
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, kN), GrB_SUCCESS);
  for (GrB_Index i = 0; i < kN; ++i)
    ASSERT_EQ(GrB_Vector_setElement(v, 1.0, i), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);

  // Per-object attribution: at least the value payload must be charged
  // to the owning container.
  uint64_t a_live = 0, a_peak = 0;
  ASSERT_EQ(GxB_Object_memory(a, &a_live, &a_peak), GrB_SUCCESS);
  EXPECT_GE(a_live, 63 * sizeof(double));
  EXPECT_GE(a_peak, a_live);
  uint64_t v_live = 0, v_peak = 0;
  ASSERT_EQ(GxB_Object_memory(v, &v_live, &v_peak), GrB_SUCCESS);
  EXPECT_GE(v_live, kN * sizeof(double));
  EXPECT_GE(v_peak, v_live);

  // Library totals cover both objects, and the registry saw them.
  EXPECT_GE(counter("mem.live_bytes"), base_live + a_live + v_live);
  EXPECT_EQ(counter("mem.objects"), base_objs + 2);
  EXPECT_GE(counter("mem.peak_bytes"), counter("mem.live_bytes"));

  // The human-readable report names each container kind with its shape.
  GrB_Index rlen = 0;
  ASSERT_EQ(GxB_Memory_report(nullptr, &rlen), GrB_SUCCESS);
  ASSERT_GT(rlen, 0u);
  std::vector<char> rbuf(1 << 16);
  GrB_Index rlen2 = rbuf.size();
  ASSERT_EQ(GxB_Memory_report(rbuf.data(), &rlen2), GrB_SUCCESS);
  std::string report(rbuf.data());
  EXPECT_NE(report.find("GraphBLAS memory report"), std::string::npos);
  EXPECT_NE(report.find("matrix"), std::string::npos);
  EXPECT_NE(report.find("vector"), std::string::npos);
  EXPECT_NE(report.find("64x64"), std::string::npos);

  // Argument contract.
  uint64_t dummy = 0;
  EXPECT_EQ(GxB_Object_memory(a, nullptr, &dummy), GrB_NULL_POINTER);
  EXPECT_EQ(GxB_Object_memory(a, &dummy, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GxB_Object_memory(static_cast<GrB_Matrix>(nullptr), &dummy,
                              &dummy),
            GrB_UNINITIALIZED_OBJECT);

  // Freeing both objects credits every byte back: the global gauge
  // returns exactly to its baseline (allocations are all tracked).
  GrB_free(&a);
  GrB_free(&v);
  EXPECT_EQ(counter("mem.live_bytes"), base_live);
  EXPECT_EQ(counter("mem.objects"), base_objs);
}

// The flight recorder is on by default (no env, no GxB call needed) and
// its gauges surface through GxB_Stats_get and GxB_Stats_json.
TEST_F(ObservabilityTest, FlightRecorderOnByDefaultAndSurfacedInStats) {
  EXPECT_EQ(counter("flight.capacity"), 4096u);
  const uint64_t before = counter("flight.events");
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  GrB_Index n = 0;
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  GrB_free(&v);
  EXPECT_GT(counter("flight.events"), before);

  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"flight.events\""), std::string::npos);
  EXPECT_NE(json.find("\"flight.overwrites\""), std::string::npos);
  EXPECT_NE(json.find("\"flight.capacity\""), std::string::npos);
  // Satellite contract: trace drop-loss is visible in the same place.
  EXPECT_NE(json.find("\"trace.dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"mem.live_bytes\""), std::string::npos);
}

// Post-mortem contract: after heavy multithreaded API traffic, a
// poisoned deferred op auto-dumps a ring whose text names the
// originating method, with the preceding entry-point events in causal
// (sequence) order before the poison record.
TEST_F(ObservabilityTest, FlightRecorderPoisonDumpNamesOriginatingOp) {
  GrB_Vector warm = nullptr;
  ASSERT_EQ(GrB_Vector_new(&warm, GrB_FP64, 64), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(warm, GrB_MATERIALIZE), GrB_SUCCESS);
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([warm] {
      for (int i = 0; i < kIters; ++i) {
        GrB_Index n = 0;
        EXPECT_EQ(GrB_Vector_nvals(&n, warm), GrB_SUCCESS);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Duplicate indices with a NULL dup op: fails at deferred execution,
  // poisoning the sequence and triggering the auto-dump.
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {1, 1};
  double vals[] = {1, 2};
  GrB_Info info = GrB_Vector_build(v, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(v, GrB_COMPLETE);
  EXPECT_EQ(info, GrB_INVALID_VALUE);

  std::string dump = grb::obs::fr_last_dump_text();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("flight recorder dump"), std::string::npos);
  // The originating method appears: as the deferred execution record
  // and in the poison reason.
  EXPECT_NE(dump.find("GrB_Vector_build"), std::string::npos) << dump;
  size_t poison_pos = dump.find("poison");
  ASSERT_NE(poison_pos, std::string::npos) << dump;
  // Causal order: the multithreaded traffic shows up as entry-point
  // events strictly before the poison record.
  EXPECT_GE(count_substr(dump.substr(0, poison_pos), "api-enter"), 10u)
      << dump;
  size_t dexec = dump.find("deferred-exec");
  ASSERT_NE(dexec, std::string::npos) << dump;
  EXPECT_LT(dexec, poison_pos);

  // An explicit dump-to-file of the full ring round-trips as trace
  // JSON ('.json' suffix selects the Chrome trace form).
  std::string path = ::testing::TempDir() + "grb_flight_dump_test.json";
  ASSERT_EQ(GxB_FlightRecorder_dump(path.c_str()), GrB_SUCCESS);
  std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flight\""), std::string::npos);
  EXPECT_NE(json.find("GrB_Vector_build"), std::string::npos);
  std::remove(path.c_str());

  GrB_free(&warm);
  GrB_free(&v);
}

TEST_F(ObservabilityTest, PrometheusExpositionSurfacesQuantilesAndMemory) {
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);

  // Sizing call per the GxB buffer protocol.
  GrB_Index need = 0;
  ASSERT_EQ(GxB_Stats_prometheus(nullptr, &need), GrB_SUCCESS);
  ASSERT_GT(need, 0u);
  EXPECT_EQ(GxB_Stats_prometheus(nullptr, nullptr), GrB_NULL_POINTER);

  // Content via a generous fixed buffer (the exposition grows between
  // two calls: the call itself is a counted entry point).
  std::vector<char> buf(1 << 18);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_prometheus(buf.data(), &len), GrB_SUCCESS);
  std::string prom(buf.data());
  EXPECT_EQ(len, prom.size() + 1);

  // Summary family with per-op quantiles + sum/count.
  EXPECT_NE(prom.find("# TYPE grb_op_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(prom.find("grb_op_latency_ns{op=\"GrB_mxm\",context=\"1\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("grb_op_latency_ns{op=\"GrB_mxm\",context=\"1\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("grb_op_latency_ns_sum{op=\"GrB_mxm\",context=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("grb_op_latency_ns_count{op=\"GrB_mxm\",context=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("grb_op_calls_total{op=\"GrB_mxm\",context=\"1\"} 1"),
            std::string::npos);
  // Memory and flight-recorder gauges with their HELP/TYPE headers.
  EXPECT_NE(prom.find("# TYPE grb_memory_live_bytes gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# HELP grb_memory_live_bytes"), std::string::npos);
  EXPECT_NE(prom.find("grb_memory_peak_bytes "), std::string::npos);
  EXPECT_NE(prom.find("grb_flight_recorder_events_total "),
            std::string::npos);
  EXPECT_NE(prom.find("grb_trace_dropped_total "), std::string::npos);
  // Live objects: a and c are registered right now.
  EXPECT_NE(prom.find("grb_objects "), std::string::npos);

  GrB_free(&a);
  GrB_free(&c);
}

// GRB_METRICS=path dumps the Prometheus exposition at GrB_finalize.
TEST(ObsMetricsEnvTest, GrbMetricsEnvWritesPrometheusAtFinalize) {
  std::string path = ::testing::TempDir() + "grb_obs_env_metrics.prom";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("GRB_METRICS", path.c_str(), 1), 0);
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
  ASSERT_EQ(unsetenv("GRB_METRICS"), 0);

  std::string prom = slurp(path);
  ASSERT_FALSE(prom.empty()) << path;
  EXPECT_NE(prom.find("# TYPE grb_op_calls_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("grb_op_calls_total{op=\"GrB_Vector_setElement"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE grb_memory_live_bytes gauge"),
            std::string::npos);
  std::remove(path.c_str());

  // GRB_METRICS implies stats for that cycle only: a fresh init starts
  // with stats off again.
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  GrB_Index n = 0;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  uint64_t calls = 0;
  GrB_Info info = GxB_Stats_get("GrB_Vector_nvals.calls", &calls);
  EXPECT_TRUE(info == GrB_NO_VALUE || calls == 0u);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
}

// GRB_FLIGHT_RECORDER=N resizes the ring before init; a tiny ring wraps
// under load and reports the overwrites it suffered.  The load
// alternates two entry points: repeats of one would share a single
// slot and never wrap the ring.
TEST(ObsMetricsEnvTest, GrbFlightRecorderEnvSizesRingAndCountsOverwrites) {
  ASSERT_EQ(setenv("GRB_FLIGHT_RECORDER", "32", 1), 0);
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  uint64_t cap = 0;
  ASSERT_EQ(GxB_Stats_get("flight.capacity", &cap), GrB_SUCCESS);
  EXPECT_EQ(cap, 32u);
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  for (int i = 0; i < 100; ++i) {
    GrB_Index n = 0;
    ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_size(&n, v), GrB_SUCCESS);
  }
  uint64_t overwrites = 0;
  ASSERT_EQ(GxB_Stats_get("flight.overwrites", &overwrites), GrB_SUCCESS);
  EXPECT_GT(overwrites, 0u);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);

  // GRB_FLIGHT_RECORDER=0 disables recording entirely.
  ASSERT_EQ(setenv("GRB_FLIGHT_RECORDER", "0", 1), 0);
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_get("flight.capacity", &cap), GrB_SUCCESS);
  EXPECT_EQ(cap, 0u);
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  GrB_Index n = 0;
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  uint64_t events = ~0ull;
  ASSERT_EQ(GxB_Stats_get("flight.events", &events), GrB_SUCCESS);
  EXPECT_EQ(events, 0u);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
  ASSERT_EQ(unsetenv("GRB_FLIGHT_RECORDER"), 0);

  // Default comes back on the next cycle.
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_get("flight.capacity", &cap), GrB_SUCCESS);
  EXPECT_EQ(cap, 4096u);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
}

}  // namespace
