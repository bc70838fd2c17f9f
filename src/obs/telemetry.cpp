#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/decision.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/memory.hpp"
#include "obs/metric_table.hpp"

namespace grb {
namespace obs {

namespace detail {
std::atomic<uint32_t> g_flags{0};
}  // namespace detail

namespace {

// --- time -----------------------------------------------------------------

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

uint32_t this_tid() {
  static thread_local const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffu);
  return tid;
}

void bump_high_water(std::atomic<uint64_t>& hw, uint64_t v) {
  uint64_t cur = hw.load(std::memory_order_relaxed);
  while (cur < v &&
         !hw.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --- latency histograms ---------------------------------------------------
// Log2-bucketed per-op duration histograms.  Bucket b holds durations v
// with bit_width(v) == b, i.e. v in [2^(b-1), 2^b); percentile estimates
// report a bucket's inclusive upper bound (2^b - 1), so they are exact
// upper bounds with at most 2x quantization — max_ns stays exact.
// Writes go to a per-thread shard (relaxed, lock-free) and are merged on
// read; 44 buckets cover durations past two hours.

constexpr int kHistBuckets = 44;
constexpr int kHistShards = 8;

int bit_width_u64(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return v == 0 ? 0 : 64 - __builtin_clzll(v);
#else
  int b = 0;
  while (v != 0) {
    ++b;
    v >>= 1;
  }
  return b;
#endif
}

int hist_bucket(uint64_t ns) {
  int b = bit_width_u64(ns);
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

uint64_t hist_bucket_upper(int b) {
  return b == 0 ? 0 : (uint64_t{1} << b) - 1;
}

uint64_t ld(const std::atomic<uint64_t>& v) {
  return v.load(std::memory_order_relaxed);
}

// --- counters -------------------------------------------------------------
// Each keyed family declares its cells once, as a template over the
// cell type: the bump sites' atomics and the read side's merged values
// are two instantiations, and the family's Field table links the two.

// A log2 histogram merged across shards, cells and contexts, and the
// numbers the exporters derive from it.
struct HistAgg {
  uint64_t counts[kHistBuckets] = {};
  uint64_t worst_ns = 0;  // exported as max_ns
  uint64_t count = 0;  // count and the quantiles are set by finish()
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;

  void add_buckets(const std::atomic<uint64_t>* buckets, uint64_t max) {
    for (int b = 0; b < kHistBuckets; ++b) counts[b] += ld(buckets[b]);
    if (max > worst_ns) worst_ns = max;
  }
  // A percentile is the inclusive upper bound of the bucket holding the
  // ceil-rank sample.
  void finish() {
    for (uint64_t c : counts) count += c;
    auto quantile = [&](uint64_t pct) -> uint64_t {
      const uint64_t target = (count * pct + 99) / 100;
      uint64_t cum = 0;
      for (int b = 0; b < kHistBuckets; ++b) {
        cum += counts[b];
        if (cum >= target) return hist_bucket_upper(b);
      }
      return hist_bucket_upper(kHistBuckets - 1);
    };
    if (count == 0) return;
    p50 = quantile(50);
    p90 = quantile(90);
    p99 = quantile(99);
  }
};

template <class T>
struct OpCells {
  T calls{}, ns{}, errors{}, scalars{}, flops{}, serial{}, parallel{},
      deferred{}, deferred_ns{};
};

struct OpCounters : OpCells<std::atomic<uint64_t>> {
  std::atomic<uint64_t> max_ns{0};
  std::atomic<uint64_t> hist[kHistShards][kHistBuckets] = {};

  void hist_add(uint64_t dur_ns) {
    hist[this_tid() & (kHistShards - 1)][hist_bucket(dur_ns)].fetch_add(
        1, std::memory_order_relaxed);
    bump_high_water(max_ns, dur_ns);
  }
};

// Relaxed-merged snapshot of one (context, op) cell — or of several,
// when dead contexts fold into a live ancestor at read time.
struct OpAgg : OpCells<uint64_t>, HistAgg {
  uint64_t latency_ns = 0;  // ns + deferred_ns: the latency summary's sum
};

// The per-op fields, in JSON order.
const Field<OpAgg, OpCounters> kOpFields[] = {
    {"calls", &OpAgg::calls, &OpCounters::calls,
     {"grb_op_calls_total", "C API entry-point invocations.", "counter"}},
    {"ns", &OpAgg::ns, &OpCounters::ns, {}},
    {"errors", &OpAgg::errors, &OpCounters::errors,
     {"grb_op_errors_total", "Entry points returning an error.", "counter"}},
    {"scalars", &OpAgg::scalars, &OpCounters::scalars,
     {"grb_op_scalars_total", "Scalars written back by each op.", "counter"}},
    {"flops", &OpAgg::flops, &OpCounters::flops,
     {"grb_op_flops_total", "Semiring multiplies by each op.", "counter"}},
    {"serial", &OpAgg::serial, &OpCounters::serial,
     {"grb_op_serial_total", "Serial-fallback gates that ran serial.",
      "counter"}},
    {"parallel", &OpAgg::parallel, &OpCounters::parallel,
     {"grb_op_parallel_total", "Serial-fallback gates that ran parallel.",
      "counter"}},
    {"deferred", &OpAgg::deferred, &OpCounters::deferred,
     {"grb_op_deferred_total", "Deferred executions of each op.", "counter"}},
    {"deferred_ns", &OpAgg::deferred_ns, &OpCounters::deferred_ns, {}},
    {"p50_ns", &OpAgg::p50, nullptr,
     {"grb_op_latency_ns",
      "Per-op latency by context (log2-bucket quantile upper bounds).",
      "summary", "quantile=\"0.5\""}},
    {"p90_ns", &OpAgg::p90, nullptr,
     {"grb_op_latency_ns", nullptr, nullptr, "quantile=\"0.9\""}},
    {"p99_ns", &OpAgg::p99, nullptr,
     {"grb_op_latency_ns", nullptr, nullptr, "quantile=\"0.99\""}},
    {nullptr, &OpAgg::latency_ns, nullptr, {"grb_op_latency_ns_sum"}},
    {nullptr, &OpAgg::count, nullptr, {"grb_op_latency_ns_count"}},
    {"max_ns", &OpAgg::worst_ns, nullptr,
     {"grb_op_latency_max_ns", "Exact worst-case latency.", "gauge"}},
};

void op_add(OpAgg* a, const OpCounters& c) {
  add_live(kOpFields, c, a);
  for (const auto& shard : c.hist) a->add_buckets(shard, ld(c.max_ns));
}

void op_finish(OpAgg* a) {
  a->finish();
  a->latency_ns = a->ns + a->deferred_ns;
}

// Relaxed stores: reset carries no ordering obligation — readers
// tolerate torn resets the same way they tolerate concurrent bumps.
void op_reset(OpCounters* c) {
  reset_live(kOpFields, c);
  c->max_ns.store(0, std::memory_order_relaxed);
  for (auto& shard : c->hist)
    for (auto& bucket : shard) bucket.store(0, std::memory_order_relaxed);
}

// Context rollup on free (see drain_live).  The source object itself
// stays alive (registry entries are never deleted), so a late bump
// against a retired context still has a home and is folded into the
// ancestor at read time.
void op_drain(OpCounters* from, OpCounters* to) {
  drain_live(kOpFields, from, to);
  for (int sh = 0; sh < kHistShards; ++sh)
    for (int b = 0; b < kHistBuckets; ++b)
      to->hist[sh][b].fetch_add(
          from->hist[sh][b].exchange(0, std::memory_order_relaxed),
          std::memory_order_relaxed);
  bump_high_water(to->max_ns,
                  from->max_ns.exchange(0, std::memory_order_relaxed));
}

// submitted: chunks handed to parallel_for; chunks: executed on any
// lane; steals: executed by worker lanes; parks / park_ns: cv-wait
// episodes and their duration, which begin only once a worker's spin
// window has passed; busy_hw: high-water of running lanes.
template <class T>
struct PoolCells {
  T submitted{}, chunks{}, steals{}, parks{}, park_ns{}, busy_hw{};
};

struct PoolCounters : PoolCells<std::atomic<uint64_t>> {
  // Currently-running lanes: a live gauge owned by in-flight
  // parallel_for calls, never reset.
  std::atomic<uint64_t> busy{0};
};
using PoolAgg = PoolCells<uint64_t>;

const Field<PoolAgg, PoolCounters> kPoolFields[] = {
    {"submitted", &PoolAgg::submitted, &PoolCounters::submitted,
     {"grb_pool_submitted_total", "Chunks handed to parallel_for.",
      "counter"}},
    {"chunks", &PoolAgg::chunks, &PoolCounters::chunks,
     {"grb_pool_chunks_total", "Chunks executed on any lane.", "counter"}},
    {"steals", &PoolAgg::steals, &PoolCounters::steals,
     {"grb_pool_steals_total", "Chunks executed by worker lanes.",
      "counter"}},
    {"parks", &PoolAgg::parks, &PoolCounters::parks,
     {"grb_pool_parks_total", "Worker park episodes after the spin window.",
      "counter"}},
    {"park_ns", &PoolAgg::park_ns, &PoolCounters::park_ns,
     {"grb_pool_park_ns_total",
      "Time workers spent parked after the spin window.", "counter"}},
    {"busy_high_water", &PoolAgg::busy_hw, &PoolCounters::busy_hw,
     {"grb_pool_busy_high_water", "Most lanes running at once.", "gauge"}},
};

struct Globals {
  std::atomic<uint64_t> queue_enqueued{0};
  std::atomic<uint64_t> queue_hw{0};
  std::atomic<uint64_t> queue_drained{0};
  std::atomic<uint64_t> pending_hw{0};
  std::atomic<uint64_t> pool_busy{0};  // sum over pools, for the C event
  std::atomic<uint64_t> trace_events{0};
  std::atomic<uint64_t> trace_dropped{0};
  // SpGEMM engine decisions (rows routed to each accumulator, symbolic
  // flop totals) and scratch-arena reuse outcomes.
  std::atomic<uint64_t> spgemm_rows_hash{0};
  std::atomic<uint64_t> spgemm_rows_dense{0};
  std::atomic<uint64_t> spgemm_flops_est{0};
  std::atomic<uint64_t> arena_hits{0};
  std::atomic<uint64_t> arena_misses{0};
  // Descriptor-transpose cache outcomes.
  std::atomic<uint64_t> format_trans_hits{0};
  std::atomic<uint64_t> format_trans_misses{0};
};

Globals g_globals;

// --- context-keyed op registry --------------------------------------------
// One entry per context id ever observed (registered by context.cpp or
// implicitly created by a bump).  Entries are never erased: a retired
// context's OpCounters objects stay alive so a racing or late bump
// never writes through a dangling reference; ctx_retire drains their
// values into the nearest live ancestor and read paths re-resolve, so
// retired entries stay logically empty.  std::map keeps stats_json
// deterministic; lookups happen only on enabled paths, so a lock per
// hook is acceptable there.

struct CtxEntry {
  uint64_t parent = 0;
  bool dead = false;
  std::map<std::string, std::unique_ptr<OpCounters>> ops;
};

std::mutex& reg_mu() {
  static std::mutex mu;
  return mu;
}
std::map<uint64_t, CtxEntry>& ctx_registry() {
  static auto* reg = new std::map<uint64_t, CtxEntry>();
  return *reg;
}
std::map<int, std::unique_ptr<PoolCounters>>& pool_registry() {
  static auto* reg = new std::map<int, std::unique_ptr<PoolCounters>>();
  return *reg;
}

// Nearest live ancestor of `id` (id itself when live or unregistered).
// Caller holds reg_mu.
uint64_t resolve_live(uint64_t id) {
  auto& reg = ctx_registry();
  uint64_t cur = id;
  for (int hop = 0; hop < 64; ++hop) {
    auto it = reg.find(cur);
    if (it == reg.end() || !it->second.dead) return cur;
    if (it->second.parent == cur) return cur;
    cur = it->second.parent;
  }
  return cur;
}

OpCounters& op_counters(uint64_t ctx_id, const char* name) {
  std::lock_guard<std::mutex> lock(reg_mu());
  auto& slot = ctx_registry()[ctx_id].ops[name];
  if (slot == nullptr) slot = std::make_unique<OpCounters>();
  return *slot;
}

OpCounters& op_counters(const char* name) {
  return op_counters(current_ctx(), name);
}

PoolCounters& pool_counters(int pool_id) {
  std::lock_guard<std::mutex> lock(reg_mu());
  auto& slot = pool_registry()[pool_id];
  if (slot == nullptr) slot = std::make_unique<PoolCounters>();
  return *slot;
}

// Resolved per-context view: every entry folded into its nearest live
// ancestor, finished.  Caller holds reg_mu.
std::map<uint64_t, std::map<std::string, OpAgg>> ctx_view() {
  std::map<uint64_t, std::map<std::string, OpAgg>> view;
  for (auto& ckv : ctx_registry()) {
    if (ckv.second.ops.empty()) continue;
    uint64_t target = resolve_live(ckv.first);
    for (auto& okv : ckv.second.ops)
      op_add(&view[target][okv.first], *okv.second);
  }
  for (auto& ckv : view)
    for (auto& okv : ckv.second) op_finish(&okv.second);
  return view;
}

// Memory slices summed into their home's nearest live ancestor.  Caller
// holds reg_mu.
std::map<uint64_t, CtxMemSlice> mem_view(
    const std::vector<CtxMemSlice>& slices) {
  std::map<uint64_t, CtxMemSlice> view;
  for (const CtxMemSlice& sl : slices) {
    CtxMemSlice& dst = view[resolve_live(sl.ctx)];
    dst.live_bytes += sl.live_bytes;
    dst.peak_bytes += sl.peak_bytes;
    dst.objects += sl.objects;
  }
  return view;
}

// The per-context memory rows both exporters walk: every live context
// with homed memory or attributed ops (zeros where it has none), so the
// JSON and Prometheus report the same contexts.  Caller holds reg_mu.
std::map<uint64_t, CtxMemSlice> ctx_mem_rows(
    const std::vector<CtxMemSlice>& slices,
    const std::map<uint64_t, std::map<std::string, OpAgg>>& ops) {
  std::map<uint64_t, CtxMemSlice> rows = mem_view(slices);
  for (const auto& ckv : ops) rows.try_emplace(ckv.first);
  return rows;
}

// "<op>.<field>" over the registry cells whose context id `pick`
// accepts, merged.  Caller holds reg_mu.
template <class Pick>
bool op_get(const std::string& op, const char* field, uint64_t* value,
            Pick pick) {
  OpAgg agg;
  bool found = false;
  for (auto& ckv : ctx_registry()) {
    if (!pick(ckv.first)) continue;
    auto it = ckv.second.ops.find(op);
    if (it == ckv.second.ops.end()) continue;
    op_add(&agg, *it->second);
    found = true;
  }
  if (!found) return false;
  op_finish(&agg);
  return field_get(kOpFields, agg, field, value);
}

// --- lock-contention profiler ---------------------------------------------
// Fixed open-addressed table keyed by the site-name string POINTER (a
// function-name literal), so recording is allocation-free and safe
// while arbitrary library mutexes are held — the exact property the
// no-alloc-under-lock analyzer rule exists to protect.  Two literals
// with identical text in different translation units claim separate
// slots; read paths merge by strcmp.  Hist is unsharded: contended
// acquisitions are orders of magnitude rarer than op bumps.

template <class T>
struct LockCells {
  T acquires{}, contended{}, wait_ns{};
};

struct LockSiteSlot : LockCells<std::atomic<uint64_t>> {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> max_wait_ns{0};
  std::atomic<uint64_t> hist[kHistBuckets] = {};
};

constexpr size_t kLockSiteCap = 256;  // power of two
LockSiteSlot g_lock_sites[kLockSiteCap];

LockSiteSlot* lock_site_slot(const char* site) {
  size_t h = (reinterpret_cast<uintptr_t>(site) >> 3) * 0x9E3779B97F4A7C15ull;
  h >>= 48;
  for (size_t probe = 0; probe < kLockSiteCap; ++probe) {
    LockSiteSlot& s = g_lock_sites[(h + probe) & (kLockSiteCap - 1)];
    const char* cur = s.name.load(std::memory_order_acquire);
    if (cur == site) return &s;
    if (cur == nullptr) {
      if (s.name.compare_exchange_strong(cur, site,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
        return &s;
      if (cur == site) return &s;  // lost the race to ourselves
    }
  }
  return nullptr;  // table full: drop the sample (bounded by design)
}

struct LockAgg : LockCells<uint64_t>, HistAgg {};

// The per-site fields, in JSON order.
const Field<LockAgg, LockSiteSlot> kLockFields[] = {
    {"acquires", &LockAgg::acquires, &LockSiteSlot::acquires,
     {"grb_lock_acquisitions_total", "Scoped-lock acquisitions by site.",
      "counter"}},
    {"contended", &LockAgg::contended, &LockSiteSlot::contended,
     {"grb_lock_contended_total", "Acquisitions that blocked.", "counter"}},
    {"wait_ns", &LockAgg::wait_ns, &LockSiteSlot::wait_ns, {}},
    {"p50_ns", &LockAgg::p50, nullptr,
     {"grb_lock_wait_ns",
      "Blocked-acquisition wait time by site (log2-bucket quantile upper "
      "bounds).",
      "summary", "quantile=\"0.5\""}},
    {"p90_ns", &LockAgg::p90, nullptr,
     {"grb_lock_wait_ns", nullptr, nullptr, "quantile=\"0.9\""}},
    {"p99_ns", &LockAgg::p99, nullptr,
     {"grb_lock_wait_ns", nullptr, nullptr, "quantile=\"0.99\""}},
    {nullptr, &LockAgg::wait_ns, nullptr, {"grb_lock_wait_ns_sum"}},
    {nullptr, &LockAgg::count, nullptr, {"grb_lock_wait_ns_count"}},
    {"max_ns", &LockAgg::worst_ns, nullptr,
     {"grb_lock_wait_max_ns", "Exact worst blocked wait by site.", "gauge"}},
};

// Name-merged, finished read view of the site table (no lock needed:
// slots are all-atomic and never deleted).
std::map<std::string, LockAgg> lock_view() {
  std::map<std::string, LockAgg> view;
  for (const LockSiteSlot& s : g_lock_sites) {
    const char* name = s.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;
    LockAgg& a = view[name];
    add_live(kLockFields, s, &a);
    a.add_buckets(s.hist, ld(s.max_wait_ns));
  }
  for (auto& kv : view) kv.second.finish();
  return view;
}

void lock_sites_reset() {
  for (LockSiteSlot& s : g_lock_sites) {
    if (s.name.load(std::memory_order_acquire) == nullptr) continue;
    reset_live(kLockFields, &s);
    s.max_wait_ns.store(0, std::memory_order_relaxed);
    for (auto& b : s.hist) b.store(0, std::memory_order_relaxed);
  }
}

// --- stall table + watchdog ------------------------------------------------

const char* const kStallClaimed = "(claiming)";

struct StallSlot {
  std::atomic<const char*> what{nullptr};  // null = free
  std::atomic<uint32_t> kind{0};
  std::atomic<uint64_t> ctx{0};
  std::atomic<uint64_t> since_ns{0};
  std::atomic<const LockOwnerInfo*> holder{nullptr};
  std::atomic<uint64_t> reported{0};  // since_ns value already tripped
};

constexpr int kStallCap = 64;
StallSlot g_stalls[kStallCap];

std::atomic<uint64_t> g_watchdog_deadline_ns{0};
std::atomic<uint64_t> g_watchdog_trips{0};

struct Watchdog {
  std::thread th;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
};

std::mutex& watchdog_ctl_mu() {
  static std::mutex mu;
  return mu;
}
Watchdog*& watchdog_instance() {
  static Watchdog* w = nullptr;
  return w;
}

void watchdog_scan() {
  const uint64_t deadline = g_watchdog_deadline_ns.load(
      std::memory_order_relaxed);
  if (deadline == 0) return;
  const uint64_t now = now_ns();
  for (StallSlot& s : g_stalls) {
    const char* what = s.what.load(std::memory_order_acquire);
    if (what == nullptr || what == kStallClaimed) continue;
    uint64_t since = s.since_ns.load(std::memory_order_relaxed);
    if (since == 0 || now <= since || now - since < deadline) continue;
    uint64_t rep = s.reported.load(std::memory_order_relaxed);
    if (rep == since) continue;  // this episode already reported
    if (!s.reported.compare_exchange_strong(rep, since,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed))
      continue;
    const uint64_t ctx = s.ctx.load(std::memory_order_relaxed);
    const uint32_t kind = s.kind.load(std::memory_order_relaxed);
    const uint64_t age_ms = (now - since) / 1000000u;
    g_watchdog_trips.fetch_add(1, std::memory_order_relaxed);
    char reason[256];
    const LockOwnerInfo* holder =
        s.holder.load(std::memory_order_relaxed);
    const char* hsite =
        holder != nullptr ? holder->site.load(std::memory_order_relaxed)
                          : nullptr;
    if (hsite != nullptr) {
      std::snprintf(reason, sizeof reason,
                    "watchdog: %s \"%s\" blocked %llums (ctx=%llu) "
                    "holder=%s (ctx=%llu)",
                    kind == kStallLockWait ? "lock-wait" : "completion",
                    what, static_cast<unsigned long long>(age_ms),
                    static_cast<unsigned long long>(ctx), hsite,
                    static_cast<unsigned long long>(
                        holder->ctx.load(std::memory_order_relaxed)));
    } else {
      std::snprintf(reason, sizeof reason,
                    "watchdog: %s \"%s\" blocked %llums (ctx=%llu)",
                    kind == kStallLockWait ? "lock-wait" : "completion",
                    what, static_cast<unsigned long long>(age_ms),
                    static_cast<unsigned long long>(ctx));
    }
    fr_record(FrKind::kWatchdog, what,
              age_ms > 0x7fffffff ? 0x7fffffff
                                  : static_cast<int32_t>(age_ms),
              ctx, 0);
    fr_auto_dump(reason);
  }
}

void watchdog_loop() {
  Watchdog* w = watchdog_instance();  // stable: stop() joins before delete
  for (;;) {
    uint64_t deadline = g_watchdog_deadline_ns.load(
        std::memory_order_relaxed);
    uint64_t period_ns = deadline / 4;
    if (period_ns < 1000000u) period_ns = 1000000u;  // >= 1ms
    {
      std::unique_lock<std::mutex> lock(w->mu);
      w->cv.wait_for(lock, std::chrono::nanoseconds(period_ns));
      if (w->stop) return;
    }
    watchdog_scan();
  }
}

// --- trace ------------------------------------------------------------------

// One recorded event.  `name`/`cat`/`akey` point at static-storage
// strings (function-name literals, hook-site literals), never owned.
// `flow` is the flow-event binding id ('s'/'t' phases); `ctx` tags 'X'
// spans with the tenant context that produced them (0 = omit).
struct Event {
  const char* name;
  const char* cat;
  char ph;        // 'X' complete span, 'C' counter, 's'/'t' flow
  uint32_t tid;
  uint64_t ts_ns;
  uint64_t dur_ns;
  const char* akey;  // optional single arg (nullptr = none)
  uint64_t aval;
  uint64_t flow;
  uint64_t ctx;
};

constexpr size_t kMaxTraceEvents = 1u << 20;

std::mutex& trace_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<Event>& trace_buf() {
  static auto* buf = new std::vector<Event>();
  return *buf;
}
std::string& trace_path() {
  static auto* path = new std::string();
  return *path;
}

void record_event(const char* name, const char* cat, char ph, uint64_t ts_ns,
                  uint64_t dur_ns, const char* akey, uint64_t aval,
                  uint64_t flow = 0, uint64_t ctx = 0) {
  std::lock_guard<std::mutex> lock(trace_mu());
  if (!trace_enabled()) return;  // raced with a dump/stop; drop silently
  auto& buf = trace_buf();
  if (buf.size() >= kMaxTraceEvents) {
    g_globals.trace_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.push_back(Event{name, cat, ph, this_tid(), ts_ns, dur_ns, akey, aval,
                      flow, ctx});
  g_globals.trace_events.fetch_add(1, std::memory_order_relaxed);
}

void set_flag(uint32_t flag, bool on) {
  if (on) {
    detail::g_flags.fetch_or(flag, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~flag, std::memory_order_relaxed);
  }
}

// --- env activation state ---------------------------------------------------

bool g_env_stats = false;
bool g_env_trace = false;
std::string& env_metrics_path() {
  static auto* path = new std::string();
  return *path;
}
std::string& env_stats_json_path() {
  static auto* path = new std::string();
  return *path;
}

void json_append_escaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

// Prometheus label-value escaping (exposition format 0.0.4): backslash,
// double-quote and newline must be escaped inside label values.
void prom_append_escaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '\\' || c == '"') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

// --- context registry -------------------------------------------------------

void ctx_register(uint64_t ctx_id, uint64_t parent_id) {
  std::lock_guard<std::mutex> lock(reg_mu());
  CtxEntry& e = ctx_registry()[ctx_id];
  e.parent = parent_id;
  e.dead = false;
}

void ctx_retire(uint64_t ctx_id) {
  std::lock_guard<std::mutex> lock(reg_mu());
  auto& reg = ctx_registry();
  CtxEntry& e = reg[ctx_id];  // upsert: retire-before-bump is legal
  e.dead = true;
  uint64_t target = resolve_live(e.parent);
  if (target == ctx_id) return;  // no live ancestor: keep as-is
  for (auto& okv : e.ops) {
    auto& slot = reg[target].ops[okv.first];
    if (slot == nullptr) slot = std::make_unique<OpCounters>();
    op_drain(okv.second.get(), slot.get());
  }
}

// --- hooks ------------------------------------------------------------------

void api_return(const char* op, uint64_t t0, bool failed) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  uint64_t t1 = now_ns();
  if ((f & kStatsFlag) != 0) {
    OpCounters& c = op_counters(op);
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    c.hist_add(t1 - t0);
    if (failed) c.errors.fetch_add(1, std::memory_order_relaxed);
  }
  if ((f & kTraceFlag) != 0) {
    record_event(op, "api", 'X', t0, t1 - t0,
                 failed ? "failed" : nullptr, 1, 0, current_ctx());
  }
}

void deferred_return(const char* op, uint64_t t0, uint64_t enq_ns,
                     bool failed) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  uint64_t t1 = now_ns();
  if ((f & kStatsFlag) != 0) {
    OpCounters& c = op_counters(op);
    c.deferred.fetch_add(1, std::memory_order_relaxed);
    c.deferred_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    c.hist_add(t1 - t0);
    if (failed) c.errors.fetch_add(1, std::memory_order_relaxed);
  }
  if ((f & kTraceFlag) != 0) {
    uint64_t gap_us =
        (enq_ns != 0 && t0 > enq_ns) ? (t0 - enq_ns) / 1000u : 0;
    record_event(op, "deferred", 'X', t0, t1 - t0, "gap_us", gap_us, 0,
                 current_ctx());
  }
}

void latency_record(const char* op, uint64_t ns) {
  if (!stats_enabled()) return;
  op_counters(op).hist_add(ns);
}

void count_path(bool parallel) {
  if (!stats_enabled()) return;
  OpCounters& c = op_counters(current_op());
  (parallel ? c.parallel : c.serial).fetch_add(1, std::memory_order_relaxed);
}

void add_scalars(uint64_t n) {
  if (!stats_enabled()) return;
  op_counters(current_op()).scalars.fetch_add(n, std::memory_order_relaxed);
}

void add_flops(uint64_t n) {
  if (!stats_enabled()) return;
  op_counters(current_op()).flops.fetch_add(n, std::memory_order_relaxed);
}

void spgemm_rows(uint64_t rows_hash, uint64_t rows_dense) {
  if (!stats_enabled()) return;
  if (rows_hash != 0)
    g_globals.spgemm_rows_hash.fetch_add(rows_hash, std::memory_order_relaxed);
  if (rows_dense != 0)
    g_globals.spgemm_rows_dense.fetch_add(rows_dense,
                                          std::memory_order_relaxed);
}

void spgemm_flops_estimated(uint64_t n) {
  if (!stats_enabled()) return;
  g_globals.spgemm_flops_est.fetch_add(n, std::memory_order_relaxed);
}

void arena_request(bool hit) {
  if (!stats_enabled()) return;
  (hit ? g_globals.arena_hits : g_globals.arena_misses)
      .fetch_add(1, std::memory_order_relaxed);
}

void format_transpose_cache(bool hit) {
  if (!stats_enabled()) return;
  (hit ? g_globals.format_trans_hits : g_globals.format_trans_misses)
      .fetch_add(1, std::memory_order_relaxed);
}

// --- causal flow linking ----------------------------------------------------

uint64_t next_flow_id() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void flow_begin(const char* op, uint64_t flow_id) {
  if (!trace_enabled() || flow_id == 0) return;
  record_event(op, "flow", 's', now_ns(), 0, nullptr, 0, flow_id,
               current_ctx());
}

void flow_step(const char* op, uint64_t flow_id) {
  if (!trace_enabled() || flow_id == 0) return;
  record_event(op, "flow", 't', now_ns(), 0, nullptr, 0, flow_id,
               current_ctx());
}

void queue_depth_sample(size_t depth) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  g_globals.queue_enqueued.fetch_add(1, std::memory_order_relaxed);
  bump_high_water(g_globals.queue_hw, depth);
  if ((f & kTraceFlag) != 0) {
    record_event("queue.depth", "gauge", 'C', now_ns(), 0, "value", depth);
  }
}

void queue_drained(size_t batch) {
  if (!telemetry_enabled()) return;
  g_globals.queue_drained.fetch_add(batch, std::memory_order_relaxed);
}

void pending_tuples_sample(size_t count) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  bump_high_water(g_globals.pending_hw, count);
  if ((f & kTraceFlag) != 0) {
    record_event("pending.tuples", "gauge", 'C', now_ns(), 0, "value", count);
  }
}

int next_pool_id() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void pool_submit(int pool_id, uint64_t nchunks) {
  if (!telemetry_enabled()) return;
  pool_counters(pool_id).submitted.fetch_add(nchunks,
                                             std::memory_order_relaxed);
}

void pool_chunk(int pool_id, bool worker_lane) {
  if (!telemetry_enabled()) return;
  PoolCounters& c = pool_counters(pool_id);
  c.chunks.fetch_add(1, std::memory_order_relaxed);
  if (worker_lane) c.steals.fetch_add(1, std::memory_order_relaxed);
}

void pool_park(int pool_id, uint64_t wait_ns) {
  if (!telemetry_enabled()) return;
  PoolCounters& c = pool_counters(pool_id);
  c.parks.fetch_add(1, std::memory_order_relaxed);
  c.park_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  // Surface park waits beside lock waits in the contention profile:
  // a worker parked for long stretches under load is the same signal
  // class as a hot mutex.
  lock_wait("ThreadPool::park", wait_ns);
}

void pool_busy_enter(int pool_id) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  PoolCounters& c = pool_counters(pool_id);
  uint64_t busy = c.busy.fetch_add(1, std::memory_order_relaxed) + 1;
  bump_high_water(c.busy_hw, busy);
  uint64_t total =
      g_globals.pool_busy.fetch_add(1, std::memory_order_relaxed) + 1;
  if ((f & kTraceFlag) != 0) {
    record_event("pool.busy", "gauge", 'C', now_ns(), 0, "value", total);
  }
}

void pool_busy_exit(int pool_id) {
  uint32_t f = flags();
  if ((f & (kStatsFlag | kTraceFlag)) == 0) return;
  pool_counters(pool_id).busy.fetch_sub(1, std::memory_order_relaxed);
  uint64_t total =
      g_globals.pool_busy.fetch_sub(1, std::memory_order_relaxed) - 1;
  if ((f & kTraceFlag) != 0) {
    record_event("pool.busy", "gauge", 'C', now_ns(), 0, "value", total);
  }
}

// --- lock-contention profiler -----------------------------------------------

void lock_acquired(const char* site) {
  if (!stats_enabled()) return;
  LockSiteSlot* s = lock_site_slot(site);
  if (s != nullptr) s->acquires.fetch_add(1, std::memory_order_relaxed);
}

void lock_wait(const char* site, uint64_t wait_ns) {
  if (!stats_enabled()) return;
  LockSiteSlot* s = lock_site_slot(site);
  if (s == nullptr) return;
  s->acquires.fetch_add(1, std::memory_order_relaxed);
  s->contended.fetch_add(1, std::memory_order_relaxed);
  s->wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  s->hist[hist_bucket(wait_ns)].fetch_add(1, std::memory_order_relaxed);
  bump_high_water(s->max_wait_ns, wait_ns);
}

// --- stall table + watchdog -------------------------------------------------

int stall_begin(StallKind kind, const char* what, uint64_t ctx_id,
                const LockOwnerInfo* holder) {
  for (int i = 0; i < kStallCap; ++i) {
    const char* expected = nullptr;
    if (!g_stalls[i].what.compare_exchange_strong(
            expected, kStallClaimed, std::memory_order_acquire,
            std::memory_order_relaxed))
      continue;
    StallSlot& s = g_stalls[i];
    s.kind.store(kind, std::memory_order_relaxed);
    s.ctx.store(ctx_id, std::memory_order_relaxed);
    s.since_ns.store(now_ns(), std::memory_order_relaxed);
    s.holder.store(holder, std::memory_order_relaxed);
    s.reported.store(0, std::memory_order_relaxed);
    s.what.store(what, std::memory_order_release);
    return i;
  }
  return -1;  // table full: this wait is invisible to the watchdog
}

void stall_end(int token) {
  if (token < 0) return;
  g_stalls[token].what.store(nullptr, std::memory_order_release);
}

void watchdog_start(uint64_t deadline_ms) {
  if (deadline_ms == 0) return;
  std::lock_guard<std::mutex> lock(watchdog_ctl_mu());
  g_watchdog_deadline_ns.store(deadline_ms * 1000000ull,
                               std::memory_order_relaxed);
  if (watchdog_instance() != nullptr) return;  // re-arm: new deadline only
  auto* w = new Watchdog();
  watchdog_instance() = w;
  set_flag(kWatchdogFlag, true);
  w->th = std::thread(&watchdog_loop);
}

void watchdog_stop() {
  std::lock_guard<std::mutex> lock(watchdog_ctl_mu());
  Watchdog* w = watchdog_instance();
  if (w == nullptr) return;
  set_flag(kWatchdogFlag, false);
  {
    std::lock_guard<std::mutex> l(w->mu);
    w->stop = true;
  }
  w->cv.notify_all();
  w->th.join();
  delete w;
  watchdog_instance() = nullptr;
  g_watchdog_deadline_ns.store(0, std::memory_order_relaxed);
}

uint64_t watchdog_trips() {
  return g_watchdog_trips.load(std::memory_order_relaxed);
}

// --- control / introspection ------------------------------------------------

void stats_set_enabled(bool on) {
  set_flag(kStatsFlag, on);
  // Counters without their why are half an answer: the decision audit
  // rides the same switch, so GxB_Stats_enable always yields an
  // explainable plan.  (Disabling stats disables the audit too.)
  set_flag(kDecisionFlag, on);
}

namespace {

uint64_t watchdog_deadline_ms_now() {
  return g_watchdog_deadline_ns.load(std::memory_order_relaxed) / 1000000u;
}

// The names the per-context memory rows share with the global totals.
constexpr char kMemLive[] = "mem.live_bytes";
constexpr char kMemPeak[] = "mem.peak_bytes";
constexpr char kMemObjects[] = "mem.objects";

// The global numbers, in JSON order.
const Scalar kGlobals[] = {
    {"queue.enqueued", nullptr, &g_globals.queue_enqueued, nullptr,
     {"grb_queue_enqueued_total", "Methods deferred onto an object's queue.",
      "counter"}},
    {"queue.high_water", nullptr, &g_globals.queue_hw, nullptr,
     {"grb_queue_high_water", "Deepest deferred queue seen at an enqueue.",
      "gauge"}},
    {"queue.drained", nullptr, &g_globals.queue_drained, nullptr,
     {"grb_queue_drained_total", "Deferred methods drained by completion.",
      "counter"}},
    {"pending.high_water", nullptr, &g_globals.pending_hw, nullptr,
     {"grb_pending_high_water", "Most pending tuples seen on one object.",
      "gauge"}},
    // The trace counters restart with the trace buffer, not stats_reset.
    {"trace.events", nullptr, nullptr,
     [] { return ld(g_globals.trace_events); },
     {"grb_trace_events_total", "Spans recorded into the trace buffer.",
      "counter"}},
    {"trace.dropped", nullptr, nullptr,
     [] { return ld(g_globals.trace_dropped); },
     {"grb_trace_dropped_total", "Spans dropped by the capped trace buffer.",
      "counter"}},
    {"spgemm.rows_hash", nullptr, &g_globals.spgemm_rows_hash, nullptr,
     {"grb_spgemm_rows_total", "SpGEMM output rows by accumulator.",
      "counter", "accumulator=\"hash\""}},
    {"spgemm.rows_dense", nullptr, &g_globals.spgemm_rows_dense, nullptr,
     {"grb_spgemm_rows_total", nullptr, nullptr, "accumulator=\"dense\""}},
    {"spgemm.flops_estimated", nullptr, &g_globals.spgemm_flops_est, nullptr,
     {"grb_spgemm_flops_estimated_total",
      "Symbolic-pass SpGEMM flop estimates.", "counter"}},
    {"arena.reuse_hits", nullptr, &g_globals.arena_hits, nullptr,
     {"grb_arena_requests_total", "Scratch-arena requests by reuse outcome.",
      "counter", "outcome=\"hit\""}},
    {"arena.reuse_misses", nullptr, &g_globals.arena_misses, nullptr,
     {"grb_arena_requests_total", nullptr, nullptr, "outcome=\"miss\""}},
    {"format.transpose_cache_hits", nullptr, &g_globals.format_trans_hits,
     nullptr,
     {"grb_format_transpose_cache_total",
      "Descriptor-transpose reads by cache outcome.", "counter",
      "outcome=\"hit\""}},
    {"format.transpose_cache_misses", nullptr, &g_globals.format_trans_misses,
     nullptr,
     {"grb_format_transpose_cache_total", nullptr, nullptr,
      "outcome=\"miss\""}},
    {kMemLive, nullptr, nullptr, &mem_live_total,
     {"grb_memory_live_bytes", "Tracked bytes currently allocated.",
      "gauge"}},
    {kMemPeak, nullptr, nullptr, &mem_peak_total,
     {"grb_memory_peak_bytes", "High-water mark of tracked bytes.", "gauge"}},
    {"mem.arena_live_bytes", nullptr, nullptr, &mem_arena_live,
     {"grb_arena_live_bytes", "Scratch-arena bytes currently held.",
      "gauge"}},
    {"mem.arena_peak_bytes", nullptr, nullptr, &mem_arena_peak,
     {"grb_arena_peak_bytes", "Scratch-arena high-water mark.", "gauge"}},
    {kMemObjects, nullptr, nullptr, &mem_object_count,
     {"grb_objects", "Live GrB containers.", "gauge"}},
    {"flight.events", nullptr, nullptr, &fr_event_count,
     {"grb_flight_recorder_events_total",
      "Flight-recorder events ever recorded.", "counter"}},
    {"flight.overwrites", nullptr, nullptr, &fr_overwrites,
     {"grb_flight_recorder_overwrites_total", "Events lost to ring wrap.",
      "counter"}},
    {"flight.capacity", nullptr, nullptr, &fr_capacity,
     {"grb_flight_recorder_capacity", "Flight-recorder ring slots (0 = off).",
      "gauge"}},
    {"watchdog.trips", nullptr, &g_watchdog_trips, nullptr,
     {"grb_watchdog_trips_total",
      "Stall-watchdog deadline violations detected.", "counter"}},
    {"watchdog.deadline_ms", nullptr, nullptr, &watchdog_deadline_ms_now,
     {"grb_watchdog_deadline_ms", "Armed stall-watchdog deadline (0 = off).",
      "gauge"}},
};

// Memory homed in each context (stats_get_ctx "mem.*").
const Field<CtxMemSlice> kCtxMemFields[] = {
    {kMemLive, &CtxMemSlice::live_bytes, nullptr,
     {"grb_context_memory_live_bytes", "Tracked bytes homed in each context.",
      "gauge"}},
    {kMemPeak, &CtxMemSlice::peak_bytes, nullptr,
     {"grb_context_memory_peak_bytes",
      "Sum of the peak tracked bytes of each context's containers.",
      "gauge"}},
    {kMemObjects, &CtxMemSlice::objects, nullptr,
     {"grb_context_objects", "Live GrB containers homed in each context.",
      "gauge"}},
};

uint64_t scalar_value(const Scalar& s) {
  return s.counter != nullptr ? ld(*s.counter) : s.gauge();
}

// One context's op cells, keyed by op and labelled by op and context.
std::vector<Keyed<OpAgg>> op_rows(uint64_t ctx,
                                  const std::map<std::string, OpAgg>& ops) {
  std::vector<Keyed<OpAgg>> rows;
  const std::string ctx_label = prom_label("context", std::to_string(ctx));
  for (const auto& kv : ops)
    rows.push_back({kv.first, prom_label("op", kv.first) + "," + ctx_label,
                    kv.second});
  return rows;
}

// Caller holds reg_mu.
std::vector<Keyed<PoolAgg>> pool_rows() {
  std::vector<Keyed<PoolAgg>> rows;
  for (const auto& kv : pool_registry()) {
    const std::string id = std::to_string(kv.first);
    rows.push_back({id, prom_label("pool", id), {}});
    add_live(kPoolFields, *kv.second, &rows.back().agg);
  }
  return rows;
}

std::vector<Keyed<LockAgg>> lock_rows() {
  std::vector<Keyed<LockAgg>> rows;
  for (const auto& kv : lock_view())
    rows.push_back({kv.first, prom_label("site", kv.first), kv.second});
  return rows;
}

}  // namespace

bool scalar_get(std::span<const Scalar> rows, const char* name,
                uint64_t* value) {
  for (const Scalar& s : rows) {
    if (std::strcmp(s.name, name) == 0) {
      *value = scalar_value(s);
      return true;
    }
  }
  return false;
}

void scalar_json(std::string* out, std::span<const Scalar> rows) {
  for (const Scalar& s : rows)
    if (s.json == nullptr || s.json[0] != '\0')
      json_u64(out, s.json != nullptr ? s.json : s.name, scalar_value(s));
}

void scalar_prom(std::string* out, std::span<const Scalar> rows) {
  for (const Scalar& s : rows) {
    if (s.prom.family == nullptr) continue;
    if (s.prom.help != nullptr) prom_header(out, s.prom);
    prom_sample(out, s.prom, "", scalar_value(s));
  }
}

void scalar_reset(std::span<const Scalar> rows) {
  for (const Scalar& s : rows)
    if (s.counter != nullptr) s.counter->store(0, std::memory_order_relaxed);
}

void json_key(std::string* out, const char* key) {
  out->push_back('"');
  json_append_escaped(out, key);
  out->append("\":");
}

void json_u64(std::string* out, const char* key, uint64_t v) {
  json_key(out, key);
  out->append(std::to_string(v));
  out->push_back(',');
}

void json_close(std::string* out, char bracket) {
  if (out->back() == ',') {
    out->back() = bracket;
  } else {
    out->push_back(bracket);
  }
}

std::string prom_label(const char* name, const std::string& value) {
  std::string l = name;
  l.append("=\"");
  prom_append_escaped(&l, value.c_str());
  l.push_back('"');
  return l;
}

void prom_header(std::string* out, const Prom& p) {
  out->append("# HELP ").append(p.family).append(" ").append(p.help);
  out->append("\n# TYPE ").append(p.family).append(" ").append(p.type);
  out->push_back('\n');
}

void prom_sample(std::string* out, const Prom& p, const std::string& labels,
                 uint64_t v) {
  out->append(p.family);
  if (!labels.empty() || p.label != nullptr) {
    out->push_back('{');
    out->append(labels);
    if (!labels.empty() && p.label != nullptr) out->push_back(',');
    if (p.label != nullptr) out->append(p.label);
    out->push_back('}');
  }
  out->push_back(' ');
  out->append(std::to_string(v));
  out->push_back('\n');
}

void stats_reset() {
  std::lock_guard<std::mutex> lock(reg_mu());
  for (auto& ckv : ctx_registry())
    for (auto& okv : ckv.second.ops) op_reset(okv.second.get());
  for (auto& kv : pool_registry()) reset_live(kPoolFields, kv.second.get());
  lock_sites_reset();
  scalar_reset(kGlobals);
  decision_reset();
}

bool stats_get(const char* name, uint64_t* value) {
  *value = 0;
  if (name == nullptr) return false;
  if (scalar_get(kGlobals, name, value)) return true;
  // Decision-audit counters live in their own module: forward by prefix
  // before the per-op fallback can mistake "decision.exec_path.records"
  // for an op named "decision.exec_path".
  if (std::strncmp(name, "decision.", 9) == 0)
    return decision_stats_get(name, value);
  // "<key>.<field>": a lock site ("lock.<site>"; a site may contain "::"
  // but never a dot), the pool totals ("pool"), or an op summed over
  // every context.
  const char* dot = std::strrchr(name, '.');
  if (dot == nullptr || dot == name) return false;
  const std::string key(name, static_cast<size_t>(dot - name));
  const char* field = dot + 1;
  if (key.rfind("lock.", 0) == 0) {
    const auto view = lock_view();
    const auto it = view.find(key.substr(5));
    return it != view.end() &&
           field_get(kLockFields, it->second, field, value);
  }
  std::lock_guard<std::mutex> lock(reg_mu());
  if (key == "pool") {
    PoolAgg sum;  // every field resolves, to 0 before any pool exists
    for (const auto& kv : pool_registry())
      add_live(kPoolFields, *kv.second, &sum);
    return field_get(kPoolFields, sum, field, value);
  }
  return op_get(key, field, value, [](uint64_t) { return true; });
}

bool stats_get_ctx(uint64_t ctx_id, const char* name, uint64_t* value) {
  *value = 0;
  if (name == nullptr) return false;
  if (std::strncmp(name, "mem.", 4) == 0) {
    // mem_by_ctx takes obj_mu; keep it strictly before reg_mu.
    auto slices = mem_by_ctx();
    std::lock_guard<std::mutex> lock(reg_mu());
    const auto view = mem_view(slices);
    const auto it = view.find(ctx_id);
    return field_get(kCtxMemFields,
                     it != view.end() ? it->second : CtxMemSlice{}, name,
                     value);
  }
  // Per-op within the context subtree (entries resolving here).
  const char* dot = std::strrchr(name, '.');
  if (dot == nullptr || dot == name) return false;
  std::lock_guard<std::mutex> lock(reg_mu());
  return op_get(std::string(name, static_cast<size_t>(dot - name)), dot + 1,
                value,
                [&](uint64_t id) { return resolve_live(id) == ctx_id; });
}

std::string stats_json(bool trim_zero_rows) {
  // Memory slices first: obj_mu strictly before reg_mu.
  auto mem_slices = mem_by_ctx();
  std::lock_guard<std::mutex> lock(reg_mu());
  const auto view = ctx_view();
  const auto mem = ctx_mem_rows(mem_slices, view);
  // The "ops" section: every registry cell of an op, summed.
  std::map<std::string, OpAgg> flat;
  for (auto& ckv : ctx_registry())
    for (auto& okv : ckv.second.ops) op_add(&flat[okv.first], *okv.second);
  for (auto& kv : flat) op_finish(&kv.second);
  std::string out = "{\"ops\":";
  json_rows(&out, kOpFields, op_rows(0, flat), trim_zero_rows);
  out.append(",\"global\":{");
  scalar_json(&out, kGlobals);
  json_close(&out, '}');
  out.append(",\"pools\":");
  json_rows(&out, kPoolFields, pool_rows());
  // Per-context breakdown: ops attributed to each live context (dead
  // contexts already folded into their nearest live ancestor) plus the
  // memory currently homed there.
  out.append(",\"contexts\":{");
  for (const auto& [id, m] : mem) {
    const auto vit = view.find(id);
    const auto rows = vit != view.end() ? op_rows(id, vit->second)
                                        : std::vector<Keyed<OpAgg>>{};
    if (trim_zero_rows && m.live_bytes == 0 && m.objects == 0 &&
        std::all_of(rows.begin(), rows.end(), [](const Keyed<OpAgg>& r) {
          return all_zero(kOpFields, r.agg);
        }))
      continue;
    const auto rit = ctx_registry().find(id);
    const bool known = rit != ctx_registry().end();
    json_key(&out, std::to_string(id).c_str());
    out.push_back('{');
    json_u64(&out, "parent", known ? rit->second.parent : 0);
    out.append(known && rit->second.dead ? "\"live\":false,"
                                         : "\"live\":true,");
    json_fields(&out, kCtxMemFields, m);
    out.append("\"ops\":");
    json_rows(&out, kOpFields, rows, trim_zero_rows);
    out.append("},");
  }
  json_close(&out, '}');
  out.append(",\"locks\":");
  json_rows(&out, kLockFields, lock_rows());
  // Decision-audit block (DESIGN.md §16).
  out.append(",\"decisions\":");
  out.append(decision_json());
  out.push_back('}');
  return out;
}

std::string stats_prometheus() {
  // Memory slices first: obj_mu strictly before reg_mu.
  auto mem_slices = mem_by_ctx();
  std::lock_guard<std::mutex> lock(reg_mu());
  const auto view = ctx_view();
  std::vector<Keyed<OpAgg>> ops;
  for (const auto& ckv : view)
    for (auto& row : op_rows(ckv.first, ckv.second))
      ops.push_back(std::move(row));
  std::vector<Keyed<CtxMemSlice>> mem;
  for (const auto& kv : ctx_mem_rows(mem_slices, view))
    mem.push_back({"", prom_label("context", std::to_string(kv.first)),
                   kv.second});
  std::string out;
  prom_rows(&out, kOpFields, ops);
  prom_rows(&out, kCtxMemFields, mem);
  scalar_prom(&out, kGlobals);
  prom_rows(&out, kPoolFields, pool_rows());
  prom_rows(&out, kLockFields, lock_rows());
  decision_prometheus(out);
  return out;
}

bool trace_start(const char* path) {
  std::lock_guard<std::mutex> lock(trace_mu());
  trace_buf().clear();
  trace_path() = path != nullptr ? path : "";
  g_globals.trace_events.store(0, std::memory_order_relaxed);
  g_globals.trace_dropped.store(0, std::memory_order_relaxed);
  set_flag(kTraceFlag, true);
  return true;
}

bool trace_dump(const char* path) {
  std::lock_guard<std::mutex> lock(trace_mu());
  set_flag(kTraceFlag, false);
  std::string target = path != nullptr ? path : trace_path();
  if (target.empty()) return false;
  std::FILE* f = std::fopen(target.c_str(), "w");
  if (f == nullptr) return false;
  // droppedEvents lets consumers (grb_trace_summarize.py) warn loudly
  // when the capped buffer truncated the recording.
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":%llu,"
                  "\"traceEvents\":[",
               static_cast<unsigned long long>(
                   g_globals.trace_dropped.load(std::memory_order_relaxed)));
  bool first = true;
  for (const Event& e : trace_buf()) {
    std::fputs(first ? "\n" : ",\n", f);
    first = false;
    if (e.ph == 'X') {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                   e.name, e.cat, e.tid, e.ts_ns / 1000.0, e.dur_ns / 1000.0);
      if (e.akey != nullptr || e.ctx != 0) {
        std::fputs(",\"args\":{", f);
        if (e.akey != nullptr) {
          std::fprintf(f, "\"%s\":%llu", e.akey,
                       static_cast<unsigned long long>(e.aval));
        }
        if (e.ctx != 0) {
          std::fprintf(f, "%s\"ctx\":%llu", e.akey != nullptr ? "," : "",
                       static_cast<unsigned long long>(e.ctx));
        }
        std::fputs("}", f);
      }
      std::fputs("}", f);
    } else if (e.ph == 's' || e.ph == 't') {
      // Flow events: same name/cat/id on both ends so the viewer draws
      // the arrow from the enqueue ("s") to the execution ("t"), each
      // binding to its enclosing slice by (tid, ts).
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                   e.name, e.cat, e.ph,
                   static_cast<unsigned long long>(e.flow), e.tid,
                   e.ts_ns / 1000.0);
      if (e.ctx != 0) {
        std::fprintf(f, ",\"args\":{\"ctx\":%llu}",
                     static_cast<unsigned long long>(e.ctx));
      }
      std::fputs("}", f);
    } else {  // 'C'
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"args\":{\"%s\":%llu}}",
                   e.name, e.tid, e.ts_ns / 1000.0,
                   e.akey != nullptr ? e.akey : "value",
                   static_cast<unsigned long long>(e.aval));
    }
  }
  std::fputs("\n]}\n", f);
  bool ok = std::fclose(f) == 0;
  trace_buf().clear();
  trace_path().clear();
  return ok;
}

void trace_stop() {
  std::lock_guard<std::mutex> lock(trace_mu());
  set_flag(kTraceFlag, false);
  trace_buf().clear();
  trace_path().clear();
}

void env_activate() {
  const char* stats = std::getenv("GRB_STATS");
  if (stats != nullptr && stats[0] != '\0' &&
      std::strcmp(stats, "0") != 0) {
    stats_set_enabled(true);
    g_env_stats = true;
  }
  const char* trace = std::getenv("GRB_TRACE");
  if (trace != nullptr && trace[0] != '\0') {
    trace_start(trace);
    g_env_trace = true;
  }
  // GRB_METRICS=path.prom: counters on now, Prometheus text exposition
  // written at finalize.
  const char* metrics = std::getenv("GRB_METRICS");
  if (metrics != nullptr && metrics[0] != '\0') {
    env_metrics_path() = metrics;
    stats_set_enabled(true);
  }
  // GRB_WATCHDOG=ms: arm the stall watchdog.
  const char* wd = std::getenv("GRB_WATCHDOG");
  if (wd != nullptr && wd[0] != '\0') {
    watchdog_start(std::strtoull(wd, nullptr, 10));
  }
  // GRB_STATS_JSON=path: counters on now, the full stats_json document
  // (including the decisions block) written at finalize.
  const char* sjson = std::getenv("GRB_STATS_JSON");
  if (sjson != nullptr && sjson[0] != '\0') {
    env_stats_json_path() = sjson;
    stats_set_enabled(true);
  }
  // GRB_DECISIONS=1: decision audit.
  decision_env_activate();
  // GRB_FLIGHT_RECORDER / GRB_FLIGHT_DUMP; default-on (4096 events).
  fr_env_activate();
}

void env_finalize() {
  watchdog_stop();
  if (g_env_trace) {
    if (!trace_dump(nullptr)) {
      std::fprintf(stderr, "grb-obs: failed to write GRB_TRACE file\n");
    }
    g_env_trace = false;
  }
  if (!env_metrics_path().empty()) {
    std::FILE* f = std::fopen(env_metrics_path().c_str(), "w");
    if (f != nullptr) {
      std::fputs(stats_prometheus().c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "grb-obs: failed to write GRB_METRICS file\n");
    }
    env_metrics_path().clear();
    if (!g_env_stats && env_stats_json_path().empty()) {
      stats_set_enabled(false);
      stats_reset();
    }
  }
  if (!env_stats_json_path().empty()) {
    std::FILE* f = std::fopen(env_stats_json_path().c_str(), "w");
    if (f != nullptr) {
      std::fputs(stats_json().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "grb-obs: failed to write GRB_STATS_JSON file\n");
    }
    env_stats_json_path().clear();
    if (!g_env_stats) {
      stats_set_enabled(false);
      stats_reset();
    }
  }
  if (g_env_stats) {
    std::fprintf(stderr, "GRB_STATS %s\n", stats_json().c_str());
    stats_set_enabled(false);
    stats_reset();
    g_env_stats = false;
  }
}

}  // namespace obs
}  // namespace grb
