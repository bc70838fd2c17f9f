// Shared benchmark scaffolding: library lifecycle, workload builders,
// and the machine-readable perf-trajectory reporter.
//
// Every bench binary writes BENCH_<name>.json (next to wherever it runs;
// <name> is the binary basename minus its "bench_" prefix) with the
// machine fingerprint ("machine": nproc, cpu_model, compiler, build_type;
// tools/bench_compare.py refuses to compare across fingerprints), one row
// per benchmark: {"name", "params", "median_ns", "iters", "counters"},
// plus the telemetry counter dump ("telemetry", populated when the run
// had GRB_STATS=1 or GxB_Stats_enable).  With --benchmark_repetitions=N
// the median aggregate is reported; single runs report their per-
// iteration time.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "util/generator.hpp"
#include "util/prng.hpp"

namespace benchutil {

// Captures every run the console reporter prints and dumps the JSON
// trajectory file at destruction-time via dump().
class JsonTrajectoryReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      bool is_median = run.run_type == Run::RT_Aggregate &&
                       run.aggregate_name == "median";
      if (run.run_type == Run::RT_Aggregate && !is_median) continue;
      Row row;
      row.name = run.benchmark_name();
      // Strip the aggregate suffix so repeated and single runs key alike.
      std::string median_suffix = "_median";
      if (is_median && row.name.size() > median_suffix.size() &&
          row.name.compare(row.name.size() - median_suffix.size(),
                           median_suffix.size(), median_suffix) == 0) {
        row.name.resize(row.name.size() - median_suffix.size());
      }
      size_t slash = row.name.find('/');
      row.params = slash == std::string::npos ? "" : row.name.substr(slash + 1);
      // Aggregate rows divide like plain ones: their iterations field is
      // the repetition count and real_accumulated_time sums the per-rep
      // statistic, so accumulated/iterations is the per-iteration median
      // (matches what the console reporter prints for the _median row).
      row.median_ns = run.iterations == 0
                          ? 0.0
                          : run.real_accumulated_time /
                                static_cast<double>(run.iterations) * 1e9;
      row.iters = static_cast<uint64_t>(run.iterations);
      for (const auto& kv : run.counters) {
        row.counters.emplace_back(kv.first, kv.second.value);
      }
      row.is_median = is_median;
      // Median aggregates win over per-repetition rows; otherwise last
      // row for a name wins.
      auto it = rows_.find(row.name);
      if (it == rows_.end() || is_median || !it->second.is_median) {
        rows_[row.name] = std::move(row);
      }
    }
    ::benchmark::ConsoleReporter::ReportRuns(runs);
  }

  // Writes BENCH_<name>.json.  Called after RunSpecifiedBenchmarks and
  // before GrB_finalize so telemetry counters are still live.
  bool dump(const char* argv0) const {
    std::string path = std::string("BENCH_") + binary_name(argv0) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"binary\":\"%s\",\"machine\":%s,\"benchmarks\":[",
                 binary_name(argv0).c_str(), machine_json().c_str());
    bool first = true;
    for (const auto& kv : rows_) {
      const Row& r = kv.second;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"params\":\"%s\","
                   "\"median_ns\":%.1f,\"iters\":%llu,\"counters\":{",
                   first ? "" : ",", json_escape(r.name).c_str(),
                   json_escape(r.params).c_str(), r.median_ns,
                   static_cast<unsigned long long>(r.iters));
      first = false;
      bool cfirst = true;
      for (const auto& c : r.counters) {
        std::fprintf(f, "%s\"%s\":%.3f", cfirst ? "" : ",",
                     json_escape(c.first).c_str(), c.second);
        cfirst = false;
      }
      std::fprintf(f, "}}");
    }
    // Telemetry counter snapshot: zeros unless the run enabled stats
    // (GRB_STATS=1 or GxB_Stats_enable).  trim_zero_rows drops all-zero
    // per-op and per-context entries — a stats-off run emits a compact
    // skeleton instead of pages of zeros, and bench_compare.py never
    // reads the telemetry object at all.
    std::fprintf(f, "\n],\"telemetry\":%s}\n",
                 grb::obs::stats_json(true).c_str());
    return std::fclose(f) == 0;
  }

  // The fingerprint that says which results are comparable: processor
  // count and model, compiler, build type.
  static std::string machine_json() {
    std::string cpu = "unknown";
    if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
      char line[512];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "model name", 10) != 0) continue;
        const char* v = std::strchr(line, ':');
        if (v == nullptr) break;
        cpu = v + 1;
        cpu.erase(0, cpu.find_first_not_of(" \t"));
        cpu.erase(cpu.find_last_not_of(" \t\n") + 1);
        break;
      }
      std::fclose(f);
    }
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\":%u,\"cpu_model\":\"%s\",\"compiler\":\"%s\","
                  "\"build_type\":\"%s\"}",
                  std::thread::hardware_concurrency(),
                  json_escape(cpu).c_str(), GRB_BENCH_COMPILER,
                  GRB_BENCH_BUILD_TYPE);
    return buf;
  }

  static std::string binary_name(const char* argv0) {
    std::string base = argv0 != nullptr ? argv0 : "bench";
    size_t slash = base.find_last_of('/');
    if (slash != std::string::npos) base = base.substr(slash + 1);
    if (base.rfind("bench_", 0) == 0) base = base.substr(6);
    return base;
  }

 private:
  struct Row {
    std::string name;
    std::string params;
    double median_ns = 0.0;
    uint64_t iters = 0;
    std::vector<std::pair<std::string, double>> counters;
    bool is_median = false;
  };

  static std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::map<std::string, Row> rows_;
};

inline int run_bench_main(int argc, char** argv) {
  if (GrB_init(GrB_NONBLOCKING) != GrB_SUCCESS) return 1;
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTrajectoryReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!reporter.dump(argv[0])) {
    std::fprintf(stderr, "bench: failed to write BENCH_*.json\n");
  }
  ::benchmark::Shutdown();
  GrB_finalize();
  return 0;
}

// Every bench binary defines GRB_BENCH_MAIN() which initializes the
// library around the benchmark runner and emits the JSON trajectory.
#define GRB_BENCH_MAIN()                                              \
  int main(int argc, char** argv) {                                   \
    return ::benchutil::run_bench_main(argc, argv);                   \
  }

inline void abort_on(GrB_Info info, const char* what) {
  if (info != GrB_SUCCESS) {
    std::fprintf(stderr, "bench: %s failed with %d\n", what, (int)info);
    std::abort();
  }
}
#define BENCH_TRY(expr) ::benchutil::abort_on((GrB_Info)(expr), #expr)

// R-MAT graph cached per (scale, edge_factor) for the benchmark process.
inline GrB_Matrix rmat(int scale, GrB_Index edge_factor,
                       bool symmetrize = false) {
  grb::RmatParams params;
  params.symmetrize = symmetrize;
  GrB_Matrix a = nullptr;
  BENCH_TRY((GrB_Info)grb::rmat_matrix(&a, scale, edge_factor, params,
                                       nullptr));
  BENCH_TRY(GrB_wait(a, GrB_MATERIALIZE));
  return a;
}

inline GrB_Vector dense_vector(GrB_Index n, uint64_t seed) {
  grb::Prng rng(seed);
  GrB_Vector v = nullptr;
  BENCH_TRY(GrB_Vector_new(&v, GrB_FP64, n));
  for (GrB_Index i = 0; i < n; ++i)
    BENCH_TRY(GrB_Vector_setElement(v, rng.uniform() + 0.5, i));
  BENCH_TRY(GrB_wait(v, GrB_MATERIALIZE));
  return v;
}

inline GrB_Vector sparse_vector(GrB_Index n, GrB_Index nvals,
                                uint64_t seed) {
  GrB_Vector v = nullptr;
  BENCH_TRY((GrB_Info)grb::random_vector(&v, n, nvals, seed, nullptr));
  return v;
}

}  // namespace benchutil
