#include "obs/profiler.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define GRB_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/metric_table.hpp"

namespace grb {
namespace obs {

namespace {

std::atomic<uint8_t> g_backend{0};      // ProfBackend
std::atomic<uint32_t> g_generation{0};  // bumped per probe; 0 = never

std::atomic<uint64_t> g_regions{0};
std::atomic<uint64_t> g_cycles{0};
std::atomic<uint64_t> g_instructions{0};
std::atomic<uint64_t> g_cache_misses{0};
std::atomic<uint64_t> g_branch_misses{0};
std::atomic<uint64_t> g_cpu_ns{0};

struct Agg {
  uint64_t count = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_misses = 0;
  uint64_t branch_misses = 0;
  uint64_t cpu_ns = 0;
  uint64_t wall_ns = 0;
};
using AggKey = std::tuple<uint64_t, std::string, std::string>;

// The per-(context, op, strategy) fields, in JSON order.
const Field<Agg> kRegionFields[] = {
    {"count", &Agg::count, nullptr,
     {"grb_prof_regions_total", "Profiled kernel regions.", "counter"}},
    {"cycles", &Agg::cycles, nullptr,
     {"grb_prof_cycles_total", "CPU cycles in profiled regions.",
      "counter"}},
    {"instructions", &Agg::instructions, nullptr,
     {"grb_prof_instructions_total",
      "Instructions retired in profiled regions.", "counter"}},
    {"cache_misses", &Agg::cache_misses, nullptr,
     {"grb_prof_cache_misses_total", "Cache misses in profiled regions.",
      "counter"}},
    {"branch_misses", &Agg::branch_misses, nullptr,
     {"grb_prof_branch_misses_total", "Branch misses in profiled regions.",
      "counter"}},
    {"cpu_ns", &Agg::cpu_ns, nullptr,
     {"grb_prof_cpu_ns_total", "Thread CPU nanoseconds in profiled regions.",
      "counter"}},
    {"wall_ns", &Agg::wall_ns, nullptr, {}},
};

// Process totals across every key; the JSON block carries the region
// count.  "prof.backend" is the ProfBackend number.
const Scalar kProfTotals[] = {
    {"prof.regions", "regions_total", &g_regions, nullptr,
     {"grb_prof_process_regions_total",
      "Profiled kernel regions across every key.", "counter"}},
    {"prof.backend", "", nullptr,
     [] { return uint64_t{g_backend.load(std::memory_order_relaxed)}; }, {}},
    {"prof.cycles", "", &g_cycles, nullptr, {}},
    {"prof.instructions", "", &g_instructions, nullptr, {}},
    {"prof.cache_misses", "", &g_cache_misses, nullptr, {}},
    {"prof.branch_misses", "", &g_branch_misses, nullptr, {}},
    {"prof.cpu_ns", "", &g_cpu_ns, nullptr, {}},
};

std::mutex& agg_mu() {
  static std::mutex mu;
  return mu;
}
std::map<AggKey, Agg>& agg_map() {
  static auto* m = new std::map<AggKey, Agg>();
  return *m;
}

bool perf_forced_off() {
  const char* v = std::getenv("GRB_PERF_EVENTS");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "OFF") == 0;
}

#ifdef GRB_HAVE_PERF_EVENT
int perf_open(uint32_t type, uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(__NR_perf_event_open, &attr, 0, -1, group_fd, 0));
}

// Per-thread counter group, opened lazily and kept for the thread's
// lifetime.  `generation` detects a re-probe (tests flipping
// GRB_PERF_EVENTS) and forces a reopen so the backend switch is honored
// on threads that already built a group.
struct ThreadGroup {
  int leader = -1;
  int n_events = 0;
  uint32_t generation = 0;
};
thread_local ThreadGroup t_group;

constexpr uint64_t kEventConfigs[4] = {
    PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
    PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};

void thread_group_close(ThreadGroup* g) {
  // Closing the leader tears down the whole group; member fds were
  // already handed to the kernel via the group and closed on open.
  if (g->leader >= 0) close(g->leader);
  g->leader = -1;
  g->n_events = 0;
}

// Opens cycles as leader plus as many of the remaining events as the
// PMU grants; a partially granted group still profiles (the missing
// tail reads as zero).
bool thread_group_open(ThreadGroup* g) {
  g->leader = perf_open(PERF_TYPE_HARDWARE, kEventConfigs[0], -1);
  if (g->leader < 0) return false;
  g->n_events = 1;
  for (int i = 1; i < 4; ++i) {
    int fd = perf_open(PERF_TYPE_HARDWARE, kEventConfigs[i], g->leader);
    if (fd < 0) break;
    // The group owns the event; the fd itself is not read directly.
    g->n_events = i + 1;
    (void)fd;
  }
  return true;
}

struct GroupReading {
  uint64_t time_enabled = 0;
  uint64_t time_running = 0;
  uint64_t values[4] = {0, 0, 0, 0};
  int n = 0;
};

bool thread_group_read(const ThreadGroup& g, GroupReading* out) {
  if (g.leader < 0 || g.n_events <= 0) return false;
  uint64_t buf[3 + 4];  // nr, time_enabled, time_running, values[<=4]
  ssize_t need = static_cast<ssize_t>((3 + g.n_events) * sizeof(uint64_t));
  if (read(g.leader, buf, static_cast<size_t>(need)) != need) return false;
  int nr = static_cast<int>(buf[0]);
  if (nr < 1 || nr > 4) return false;
  out->time_enabled = buf[1];
  out->time_running = buf[2];
  out->n = nr;
  for (int i = 0; i < nr; ++i) out->values[i] = buf[3 + i];
  return true;
}
#endif  // GRB_HAVE_PERF_EVENT

uint64_t thread_cpu_ns(ProfBackend backend) {
  if (backend == ProfBackend::kRusage) {
#if defined(RUSAGE_THREAD)
    struct rusage ru;
    if (getrusage(RUSAGE_THREAD, &ru) == 0) {
      uint64_t us =
          static_cast<uint64_t>(ru.ru_utime.tv_sec) * 1000000u +
          static_cast<uint64_t>(ru.ru_utime.tv_usec) +
          static_cast<uint64_t>(ru.ru_stime.tv_sec) * 1000000u +
          static_cast<uint64_t>(ru.ru_stime.tv_usec);
      return us * 1000u;
    }
#endif
    return 0;
  }
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Probe is cheap (one syscall attempt), so every enable re-runs it:
// forced-degradation tests and changed environments take effect without
// process restart.  Guarded by a mutex only against concurrent probes.
void prof_probe() {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  ProfBackend backend = ProfBackend::kOff;
  if (!perf_forced_off()) {
#ifdef GRB_HAVE_PERF_EVENT
    int fd = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, -1);
    if (fd >= 0) {
      close(fd);
      backend = ProfBackend::kPerf;
    }
#endif
  }
  if (backend == ProfBackend::kOff) {
    struct timespec ts;
    backend = clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0
                  ? ProfBackend::kThreadCpu
                  : ProfBackend::kRusage;
  }
  g_backend.store(static_cast<uint8_t>(backend), std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
}

ProfBackend backend_now() {
  if (g_generation.load(std::memory_order_acquire) == 0) prof_probe();
  return static_cast<ProfBackend>(g_backend.load(std::memory_order_relaxed));
}

}  // namespace

ProfBackend prof_backend() { return backend_now(); }

const char* prof_backend_name() {
  switch (backend_now()) {
    case ProfBackend::kPerf: return "perf";
    case ProfBackend::kThreadCpu: return "thread-cputime";
    case ProfBackend::kRusage: return "getrusage";
    case ProfBackend::kOff: break;
  }
  return "off";
}

void prof_set_enabled(bool on) {
  if (on) {
    prof_probe();
    detail::g_flags.fetch_or(kProfFlag, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~kProfFlag, std::memory_order_relaxed);
  }
}

void prof_reset() {
  std::lock_guard<std::mutex> lock(agg_mu());
  agg_map().clear();
  scalar_reset(kProfTotals);
}

namespace detail {

void prof_begin(ProfStart* st) {
  ProfBackend backend = backend_now();
  st->wall0 = now_ns();
  st->cpu0 = thread_cpu_ns(backend);
  st->n_events = 0;
#ifdef GRB_HAVE_PERF_EVENT
  if (backend == ProfBackend::kPerf) {
    uint32_t gen = g_generation.load(std::memory_order_acquire);
    if (t_group.generation != gen) {
      thread_group_close(&t_group);
      t_group.generation = gen;
      thread_group_open(&t_group);
    }
    GroupReading r;
    if (thread_group_read(t_group, &r)) {
      st->time_enabled0 = r.time_enabled;
      st->time_running0 = r.time_running;
      st->n_events = r.n;
      for (int i = 0; i < r.n; ++i) st->vals0[i] = r.values[i];
    }
  }
#endif
}

void prof_end(const ProfStart& st, const char* op, const char* strategy) {
  ProfBackend backend = backend_now();
  uint64_t wall_ns = now_ns() - st.wall0;
  uint64_t cpu_end = thread_cpu_ns(backend);
  uint64_t cpu_ns = cpu_end > st.cpu0 ? cpu_end - st.cpu0 : 0;
  uint64_t vals[4] = {0, 0, 0, 0};
#ifdef GRB_HAVE_PERF_EVENT
  if (backend == ProfBackend::kPerf && st.n_events > 0) {
    GroupReading r;
    if (thread_group_read(t_group, &r) && r.n == st.n_events) {
      double scale = 1.0;
      uint64_t de = r.time_enabled - st.time_enabled0;
      uint64_t dr = r.time_running - st.time_running0;
      if (dr > 0 && de > dr)  // group was multiplexed: scale up
        scale = static_cast<double>(de) / static_cast<double>(dr);
      for (int i = 0; i < r.n; ++i) {
        uint64_t d = r.values[i] - st.vals0[i];
        vals[i] = static_cast<uint64_t>(static_cast<double>(d) * scale);
      }
    }
  }
#endif

  g_regions.fetch_add(1, std::memory_order_relaxed);
  g_cycles.fetch_add(vals[0], std::memory_order_relaxed);
  g_instructions.fetch_add(vals[1], std::memory_order_relaxed);
  g_cache_misses.fetch_add(vals[2], std::memory_order_relaxed);
  g_branch_misses.fetch_add(vals[3], std::memory_order_relaxed);
  g_cpu_ns.fetch_add(cpu_ns, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(agg_mu());
  Agg& a = agg_map()[AggKey{current_ctx(), op, strategy}];
  a.count += 1;
  a.cycles += vals[0];
  a.instructions += vals[1];
  a.cache_misses += vals[2];
  a.branch_misses += vals[3];
  a.cpu_ns += cpu_ns;
  a.wall_ns += wall_ns;
}

}  // namespace detail

bool prof_stats_get(const char* name, uint64_t* value) {
  *value = 0;
  return scalar_get(kProfTotals, name, value);
}

std::string prof_json() {
  std::string out = "{";
  json_str(&out, "backend", prof_backend_name());
  out.append(prof_enabled() ? "\"enabled\":true," : "\"enabled\":false,");
  scalar_json(&out, kProfTotals);
  out.append("\"regions\":[");
  std::lock_guard<std::mutex> lock(agg_mu());
  for (const auto& [key, a] : agg_map()) {
    out.push_back('{');
    json_u64(&out, "ctx", std::get<0>(key));
    json_str(&out, "op", std::get<1>(key).c_str());
    json_str(&out, "strategy", std::get<2>(key).c_str());
    json_fields(&out, kRegionFields, a);
    json_close(&out, '}');
    out.push_back(',');
  }
  json_close(&out, ']');
  out.push_back('}');
  return out;
}

void prof_prometheus(std::string& out) {
  static constexpr Prom kBackendInfo{
      "grb_prof_backend_info",
      "Live hardware-profiler backend (1 = active).", "gauge"};
  prom_header(&out, kBackendInfo);
  prom_sample(&out, kBackendInfo, prom_label("backend", prof_backend_name()),
              1);
  scalar_prom(&out, kProfTotals);
  std::vector<Keyed<Agg>> rows;
  {
    std::lock_guard<std::mutex> lock(agg_mu());
    for (const auto& [key, a] : agg_map())
      rows.push_back(
          {"",
           prom_label("op", std::get<1>(key)) + "," +
               prom_label("strategy", std::get<2>(key)) + "," +
               prom_label("context", std::to_string(std::get<0>(key))),
           a});
  }
  if (!rows.empty()) prom_rows(&out, kRegionFields, rows);
}

void prof_env_activate() {
  const char* v = std::getenv("GRB_PROF");
  if (v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0)
    prof_set_enabled(true);
}

}  // namespace obs
}  // namespace grb
