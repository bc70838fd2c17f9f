#include "obs/telemetry.hpp"

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
#include "obs/profiler.hpp"

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

struct OpCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> scalars{0};
  std::atomic<uint64_t> flops{0};
  std::atomic<uint64_t> serial{0};
  std::atomic<uint64_t> parallel{0};
  std::atomic<uint64_t> deferred{0};
  std::atomic<uint64_t> deferred_ns{0};
  std::atomic<uint64_t> max_ns{0};
  std::atomic<uint64_t> hist[kHistShards][kHistBuckets] = {};

  void hist_add(uint64_t dur_ns) {
    hist[this_tid() & (kHistShards - 1)][hist_bucket(dur_ns)].fetch_add(
        1, std::memory_order_relaxed);
    bump_high_water(max_ns, dur_ns);
  }

  void reset() {
    // Explicit relaxed stores: the chained-assignment form is a silent
    // seq_cst store per counter (and a seq_cst load per link of the
    // chain).  Reset needs no ordering — readers tolerate torn resets
    // the same way they tolerate concurrent bumps.
    for (std::atomic<uint64_t>* c :
         {&calls, &ns, &errors, &scalars, &flops, &serial, &parallel,
          &deferred, &deferred_ns, &max_ns})
      c->store(0, std::memory_order_relaxed);
    for (auto& shard : hist)
      for (auto& bucket : shard) bucket.store(0, std::memory_order_relaxed);
  }

  // Context rollup on free: exchange-based drain so a bump racing the
  // drain lands either in the source (moved now) or the destination
  // (arriving after the exchange) — never lost, never double-counted.
  // The object itself stays alive (registry entries are never deleted),
  // so a late bump against a retired context still has a home and is
  // folded into the ancestor at read time.
  void drain_into(OpCounters& dst) {
    struct Pair {
      std::atomic<uint64_t>* from;
      std::atomic<uint64_t>* to;
    };
    for (Pair p : {Pair{&calls, &dst.calls}, Pair{&ns, &dst.ns},
                   Pair{&errors, &dst.errors}, Pair{&scalars, &dst.scalars},
                   Pair{&flops, &dst.flops}, Pair{&serial, &dst.serial},
                   Pair{&parallel, &dst.parallel},
                   Pair{&deferred, &dst.deferred},
                   Pair{&deferred_ns, &dst.deferred_ns}})
      p.to->fetch_add(p.from->exchange(0, std::memory_order_relaxed),
                      std::memory_order_relaxed);
    for (int sh = 0; sh < kHistShards; ++sh)
      for (int b = 0; b < kHistBuckets; ++b)
        dst.hist[sh][b].fetch_add(
            hist[sh][b].exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
    bump_high_water(dst.max_ns, max_ns.exchange(0, std::memory_order_relaxed));
  }
};

// Shard-merged histogram view with the percentile upper bounds.
struct HistSummary {
  uint64_t count = 0;
  uint64_t p50 = 0, p90 = 0, p99 = 0, max = 0;
};

HistSummary summarize_counts(const uint64_t counts[kHistBuckets],
                             uint64_t max) {
  HistSummary s;
  s.max = max;
  for (int b = 0; b < kHistBuckets; ++b) s.count += counts[b];
  if (s.count == 0) return s;
  auto quantile = [&](uint64_t pct) -> uint64_t {
    uint64_t target = (s.count * pct + 99) / 100;  // ceil rank
    uint64_t cum = 0;
    for (int b = 0; b < kHistBuckets; ++b) {
      cum += counts[b];
      if (cum >= target) return hist_bucket_upper(b);
    }
    return hist_bucket_upper(kHistBuckets - 1);
  };
  s.p50 = quantile(50);
  s.p90 = quantile(90);
  s.p99 = quantile(99);
  return s;
}

// Relaxed-merged snapshot of one (context, op) cell — or of several,
// when dead contexts fold into a live ancestor at read time.
struct OpAgg {
  uint64_t calls = 0;
  uint64_t ns = 0;
  uint64_t errors = 0;
  uint64_t scalars = 0;
  uint64_t flops = 0;
  uint64_t serial = 0;
  uint64_t parallel = 0;
  uint64_t deferred = 0;
  uint64_t deferred_ns = 0;
  uint64_t max_ns = 0;
  uint64_t counts[kHistBuckets] = {};

  // Members mirror the atomics' names; `this->` keeps the plain += from
  // pattern-matching as an implicit-order atomic access in grb_analyze.
  void add(const OpCounters& c) {
    this->calls += ld(c.calls);
    this->ns += ld(c.ns);
    this->errors += ld(c.errors);
    this->scalars += ld(c.scalars);
    this->flops += ld(c.flops);
    this->serial += ld(c.serial);
    this->parallel += ld(c.parallel);
    this->deferred += ld(c.deferred);
    this->deferred_ns += ld(c.deferred_ns);
    uint64_t m = ld(c.max_ns);
    if (m > this->max_ns) this->max_ns = m;
    for (int sh = 0; sh < kHistShards; ++sh)
      for (int b = 0; b < kHistBuckets; ++b)
        counts[b] += c.hist[sh][b].load(std::memory_order_relaxed);
  }

  HistSummary summarize() const { return summarize_counts(counts, max_ns); }
};

struct PoolCounters {
  std::atomic<uint64_t> submitted{0};   // chunks handed to parallel_for
  std::atomic<uint64_t> chunks{0};      // chunks executed (any lane)
  std::atomic<uint64_t> steals{0};      // chunks executed by worker lanes
  std::atomic<uint64_t> parks{0};       // cv-wait episodes
  std::atomic<uint64_t> park_ns{0};     // total cv-wait duration
  std::atomic<uint64_t> busy{0};        // currently-running lanes (gauge)
  std::atomic<uint64_t> busy_hw{0};     // high-water of busy

  void reset() {
    // busy is a live gauge; leave it to its owners.  Relaxed stores for
    // the rest: reset carries no ordering obligation.
    for (std::atomic<uint64_t>* c :
         {&submitted, &chunks, &steals, &parks, &park_ns, &busy_hw})
      c->store(0, std::memory_order_relaxed);
  }
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
  // Fusion-planner outcomes (chains selected, nodes fused into them,
  // dead writes eliminated) accumulated across materialization batches.
  std::atomic<uint64_t> fusion_chains{0};
  std::atomic<uint64_t> fusion_ops_fused{0};
  std::atomic<uint64_t> fusion_dead_writes{0};
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

// Aggregate one op across every context (the ungrouped stats_get view).
// Caller holds reg_mu.
bool agg_op(const char* op, OpAgg* out) {
  bool found = false;
  for (auto& ckv : ctx_registry()) {
    auto it = ckv.second.ops.find(op);
    if (it != ckv.second.ops.end()) {
      out->add(*it->second);
      found = true;
    }
  }
  return found;
}

// Resolved per-context view: every entry folded into its nearest live
// ancestor.  Caller holds reg_mu.
std::map<uint64_t, std::map<std::string, OpAgg>> ctx_view() {
  std::map<uint64_t, std::map<std::string, OpAgg>> view;
  for (auto& ckv : ctx_registry()) {
    if (ckv.second.ops.empty()) continue;
    uint64_t target = resolve_live(ckv.first);
    for (auto& okv : ckv.second.ops) view[target][okv.first].add(*okv.second);
  }
  return view;
}

// --- lock-contention profiler ---------------------------------------------
// Fixed open-addressed table keyed by the site-name string POINTER (a
// function-name literal), so recording is allocation-free and safe
// while arbitrary library mutexes are held — the exact property the
// no-alloc-under-lock analyzer rule exists to protect.  Two literals
// with identical text in different translation units claim separate
// slots; read paths merge by strcmp.  Hist is unsharded: contended
// acquisitions are orders of magnitude rarer than op bumps.

struct LockSiteSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> acquires{0};
  std::atomic<uint64_t> contended{0};
  std::atomic<uint64_t> wait_ns{0};
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

struct LockAgg {
  uint64_t acquires = 0;
  uint64_t contended = 0;
  uint64_t wait_ns = 0;
  uint64_t max_ns = 0;
  uint64_t counts[kHistBuckets] = {};

  HistSummary summarize() const { return summarize_counts(counts, max_ns); }
};

// Name-merged read view of the site table (no lock needed: slots are
// all-atomic and never deleted).
std::map<std::string, LockAgg> lock_view() {
  std::map<std::string, LockAgg> view;
  for (const LockSiteSlot& s : g_lock_sites) {
    const char* name = s.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;
    LockAgg& a = view[name];
    a.acquires += ld(s.acquires);
    a.contended += ld(s.contended);
    a.wait_ns += ld(s.wait_ns);
    uint64_t m = ld(s.max_wait_ns);
    if (m > a.max_ns) a.max_ns = m;
    for (int b = 0; b < kHistBuckets; ++b) a.counts[b] += ld(s.hist[b]);
  }
  return view;
}

void lock_sites_reset() {
  for (LockSiteSlot& s : g_lock_sites) {
    if (s.name.load(std::memory_order_acquire) == nullptr) continue;
    for (std::atomic<uint64_t>* c :
         {&s.acquires, &s.contended, &s.wait_ns, &s.max_wait_ns})
      c->store(0, std::memory_order_relaxed);
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
    okv.second->drain_into(*slot);
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

void fusion_plan(uint64_t chains, uint64_t ops_fused, uint64_t dead_writes) {
  if (!stats_enabled()) return;
  if (chains != 0)
    g_globals.fusion_chains.fetch_add(chains, std::memory_order_relaxed);
  if (ops_fused != 0)
    g_globals.fusion_ops_fused.fetch_add(ops_fused, std::memory_order_relaxed);
  if (dead_writes != 0)
    g_globals.fusion_dead_writes.fetch_add(dead_writes,
                                           std::memory_order_relaxed);
}

void fusion_span(const char* name, uint64_t t0) {
  if (!trace_enabled()) return;
  record_event(name, "fusion", 'X', t0, now_ns() - t0, nullptr, 0, 0,
               current_ctx());
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
  // explainable plan.  (Disabling stats disables the audit too; the
  // profiler stays independent — it has real per-region cost.)
  set_flag(kDecisionFlag, on);
}

void stats_reset() {
  std::lock_guard<std::mutex> lock(reg_mu());
  for (auto& ckv : ctx_registry())
    for (auto& okv : ckv.second.ops) okv.second->reset();
  for (auto& kv : pool_registry()) kv.second->reset();
  lock_sites_reset();
  g_watchdog_trips.store(0, std::memory_order_relaxed);
  g_globals.queue_enqueued = 0;
  g_globals.queue_hw = 0;
  g_globals.queue_drained = 0;
  g_globals.pending_hw = 0;
  g_globals.spgemm_rows_hash = 0;
  g_globals.spgemm_rows_dense = 0;
  g_globals.spgemm_flops_est = 0;
  g_globals.arena_hits = 0;
  g_globals.arena_misses = 0;
  g_globals.fusion_chains = 0;
  g_globals.fusion_ops_fused = 0;
  g_globals.fusion_dead_writes = 0;
  g_globals.format_trans_hits = 0;
  g_globals.format_trans_misses = 0;
  // trace_events / trace_dropped reset with the trace buffer, and the
  // pool_busy live gauge belongs to in-flight parallel_for calls.
  decision_reset();
  prof_reset();
}

namespace {

struct AggField {
  const char* name;
  uint64_t value;
};

// The per-op fields, in stats_json order.
std::vector<AggField> agg_fields(const OpAgg& a) {
  return {{"calls", a.calls},       {"ns", a.ns},
          {"errors", a.errors},     {"scalars", a.scalars},
          {"flops", a.flops},       {"serial", a.serial},
          {"parallel", a.parallel}, {"deferred", a.deferred},
          {"deferred_ns", a.deferred_ns}};
}

struct FieldRef {
  const char* name;
  const std::atomic<uint64_t>* value;
};

std::vector<FieldRef> pool_fields(const PoolCounters& c) {
  return {{"submitted", &c.submitted},
          {"chunks", &c.chunks},
          {"steals", &c.steals},
          {"parks", &c.parks},
          {"park_ns", &c.park_ns},
          {"busy_high_water", &c.busy_hw}};
}

// Memory / flight-recorder / watchdog gauges are function-backed, not
// stored atomics; one table serves stats_get, stats_json and the
// exposition.
struct FnGauge {
  const char* name;
  uint64_t (*value)();
};

uint64_t watchdog_deadline_ms_now() {
  return g_watchdog_deadline_ns.load(std::memory_order_relaxed) / 1000000u;
}

const FnGauge kFnGauges[] = {
    {"mem.live_bytes", &mem_live_total},
    {"mem.peak_bytes", &mem_peak_total},
    {"mem.arena_live_bytes", &mem_arena_live},
    {"mem.arena_peak_bytes", &mem_arena_peak},
    {"mem.objects", &mem_object_count},
    {"flight.events", &fr_event_count},
    {"flight.overwrites", &fr_overwrites},
    {"flight.capacity", &fr_capacity},
    {"watchdog.trips", &watchdog_trips},
    {"watchdog.deadline_ms", &watchdog_deadline_ms_now},
};

// Histogram-derived per-op field names share one decoder.
bool pick_hist_field(const char* field, const HistSummary& s,
                     uint64_t* value) {
  if (std::strcmp(field, "p50_ns") == 0) {
    *value = s.p50;
  } else if (std::strcmp(field, "p90_ns") == 0) {
    *value = s.p90;
  } else if (std::strcmp(field, "p99_ns") == 0) {
    *value = s.p99;
  } else if (std::strcmp(field, "max_ns") == 0) {
    *value = s.max;
  } else {
    return false;
  }
  return true;
}

bool agg_field_get(const OpAgg& a, const char* field, uint64_t* value) {
  for (const AggField& f : agg_fields(a)) {
    if (std::strcmp(field, f.name) == 0) {
      *value = f.value;
      return true;
    }
  }
  return pick_hist_field(field, a.summarize(), value);
}

}  // namespace

bool stats_get(const char* name, uint64_t* value) {
  *value = 0;
  if (name == nullptr) return false;
  for (const auto& g : kFnGauges) {
    if (std::strcmp(name, g.name) == 0) {
      *value = g.value();
      return true;
    }
  }
  // Globals first.
  struct GlobalRef {
    const char* name;
    const std::atomic<uint64_t>* value;
  };
  const GlobalRef globals[] = {
      {"queue.enqueued", &g_globals.queue_enqueued},
      {"queue.high_water", &g_globals.queue_hw},
      {"queue.drained", &g_globals.queue_drained},
      {"pending.high_water", &g_globals.pending_hw},
      {"trace.events", &g_globals.trace_events},
      {"trace.dropped", &g_globals.trace_dropped},
      {"spgemm.rows_hash", &g_globals.spgemm_rows_hash},
      {"spgemm.rows_dense", &g_globals.spgemm_rows_dense},
      {"spgemm.flops_estimated", &g_globals.spgemm_flops_est},
      {"arena.reuse_hits", &g_globals.arena_hits},
      {"arena.reuse_misses", &g_globals.arena_misses},
      {"fusion.chains", &g_globals.fusion_chains},
      {"fusion.ops_fused", &g_globals.fusion_ops_fused},
      {"fusion.dead_writes_eliminated", &g_globals.fusion_dead_writes},
      {"format.transpose_cache_hits", &g_globals.format_trans_hits},
      {"format.transpose_cache_misses", &g_globals.format_trans_misses},
  };
  for (const auto& g : globals) {
    if (std::strcmp(name, g.name) == 0) {
      *value = ld(*g.value);
      return true;
    }
  }
  // Per-site lock contention: "lock.<site>.<field>" (site may itself
  // contain "::" but never a dot; the last dot splits the field).
  if (std::strncmp(name, "lock.", 5) == 0) {
    const char* dot = std::strrchr(name + 5, '.');
    if (dot == nullptr || dot == name + 5) return false;
    std::string site(name + 5, static_cast<size_t>(dot - (name + 5)));
    auto view = lock_view();
    auto it = view.find(site);
    if (it == view.end()) return false;
    const char* field = dot + 1;
    const LockAgg& a = it->second;
    if (std::strcmp(field, "acquires") == 0) {
      *value = a.acquires;
      return true;
    }
    if (std::strcmp(field, "contended") == 0) {
      *value = a.contended;
      return true;
    }
    if (std::strcmp(field, "wait_ns") == 0) {
      *value = a.wait_ns;
      return true;
    }
    return pick_hist_field(field, a.summarize(), value);
  }
  // Decision-audit and profiler counters live in their own modules;
  // forward by prefix before the per-op fallback can mistake
  // "decision.exec_path.records" for an op named "decision.exec_path".
  if (std::strncmp(name, "decision.", 9) == 0)
    return decision_stats_get(name, value);
  if (std::strncmp(name, "prof.", 5) == 0) return prof_stats_get(name, value);
  std::lock_guard<std::mutex> lock(reg_mu());
  // Pool aggregates: "pool.<field>" sums over every pool.
  if (std::strncmp(name, "pool.", 5) == 0) {
    const char* field = name + 5;
    bool known = false;
    uint64_t sum = 0;
    for (auto& kv : pool_registry()) {
      for (const auto& f : pool_fields(*kv.second)) {
        if (std::strcmp(field, f.name) == 0) {
          sum += ld(*f.value);
          known = true;
        }
      }
    }
    if (!known) {
      // Field-name check against a throwaway instance, so "pool.parks"
      // resolves (to 0) even before any pool exists.
      static const PoolCounters probe;
      for (const auto& f : pool_fields(probe)) {
        if (std::strcmp(field, f.name) == 0) known = true;
      }
    }
    *value = sum;
    return known;
  }
  // Per-op: "<op>.<field>", summed across every context.
  const char* dot = std::strrchr(name, '.');
  if (dot == nullptr || dot == name) return false;
  std::string op(name, static_cast<size_t>(dot - name));
  OpAgg agg;
  if (!agg_op(op.c_str(), &agg)) return false;
  return agg_field_get(agg, dot + 1, value);
}

bool stats_get_ctx(uint64_t ctx_id, const char* name, uint64_t* value) {
  *value = 0;
  if (name == nullptr) return false;
  // Per-context memory: group raw object slices, then resolve dead home
  // contexts to their nearest live ancestor.  mem_by_ctx takes obj_mu;
  // keep it strictly before reg_mu (same order as everywhere else).
  if (std::strncmp(name, "mem.", 4) == 0) {
    auto slices = mem_by_ctx();
    uint64_t live = 0, peak = 0, objects = 0;
    {
      std::lock_guard<std::mutex> lock(reg_mu());
      for (const auto& sl : slices) {
        if (resolve_live(sl.ctx) != ctx_id) continue;
        live += sl.live_bytes;
        peak += sl.peak_bytes;
        objects += sl.objects;
      }
    }
    if (std::strcmp(name, "mem.live_bytes") == 0) {
      *value = live;
      return true;
    }
    if (std::strcmp(name, "mem.peak_bytes") == 0) {
      *value = peak;
      return true;
    }
    if (std::strcmp(name, "mem.objects") == 0) {
      *value = objects;
      return true;
    }
    return false;
  }
  // Per-op within the context subtree (entries resolving here).
  const char* dot = std::strrchr(name, '.');
  if (dot == nullptr || dot == name) return false;
  std::string op(name, static_cast<size_t>(dot - name));
  std::lock_guard<std::mutex> lock(reg_mu());
  OpAgg agg;
  bool found = false;
  for (auto& ckv : ctx_registry()) {
    if (resolve_live(ckv.first) != ctx_id) continue;
    auto it = ckv.second.ops.find(op);
    if (it == ckv.second.ops.end()) continue;
    agg.add(*it->second);
    found = true;
  }
  if (!found) return false;
  return agg_field_get(agg, dot + 1, value);
}

namespace {

void json_append_op_agg(std::string* out, const OpAgg& a) {
  char buf[96];
  out->push_back('{');
  bool first = true;
  for (const AggField& f : agg_fields(a)) {
    if (!first) out->push_back(',');
    first = false;
    std::snprintf(buf, sizeof buf, "\"%s\":%llu", f.name,
                  static_cast<unsigned long long>(f.value));
    out->append(buf);
  }
  HistSummary hs = a.summarize();
  std::snprintf(buf, sizeof buf,
                ",\"p50_ns\":%llu,\"p90_ns\":%llu,\"p99_ns\":%llu,"
                "\"max_ns\":%llu",
                static_cast<unsigned long long>(hs.p50),
                static_cast<unsigned long long>(hs.p90),
                static_cast<unsigned long long>(hs.p99),
                static_cast<unsigned long long>(hs.max));
  out->append(buf);
  out->push_back('}');
}

// Row-trim predicate for stats_json(trim_zero_rows): an op aggregate
// with no calls and no deferred residue carries no information, only
// bytes (bench JSON lines grew past review-ability; see bench_util).
bool op_agg_all_zero(const OpAgg& a) {
  return a.calls == 0 && a.ns == 0 && a.errors == 0 && a.scalars == 0 &&
         a.flops == 0 && a.serial == 0 && a.parallel == 0 &&
         a.deferred == 0 && a.deferred_ns == 0 && a.max_ns == 0;
}

}  // namespace

std::string stats_json(bool trim_zero_rows) {
  // Memory slices first: obj_mu strictly before reg_mu.
  auto mem_slices = mem_by_ctx();
  std::lock_guard<std::mutex> lock(reg_mu());
  auto view = ctx_view();
  // Merge the per-context view into the flat per-op map the "ops"
  // section has always reported.
  std::map<std::string, OpAgg> flat;
  for (auto& ckv : view)
    for (auto& okv : ckv.second) {
      OpAgg& dst = flat[okv.first];
      // OpAgg::add wants an OpCounters; merge the already-aggregated
      // values directly instead.
      dst.calls += okv.second.calls;
      dst.ns += okv.second.ns;
      dst.errors += okv.second.errors;
      dst.scalars += okv.second.scalars;
      dst.flops += okv.second.flops;
      dst.serial += okv.second.serial;
      dst.parallel += okv.second.parallel;
      dst.deferred += okv.second.deferred;
      dst.deferred_ns += okv.second.deferred_ns;
      if (okv.second.max_ns > dst.max_ns) dst.max_ns = okv.second.max_ns;
      for (int b = 0; b < kHistBuckets; ++b)
        dst.counts[b] += okv.second.counts[b];
    }
  std::string out = "{\"ops\":{";
  bool first = true;
  char buf[96];
  for (auto& kv : flat) {
    if (trim_zero_rows && op_agg_all_zero(kv.second)) continue;
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json_append_escaped(&out, kv.first.c_str());
    out.append("\":");
    json_append_op_agg(&out, kv.second);
  }
  out.append("},\"global\":{");
  std::snprintf(buf, sizeof buf, "\"queue.enqueued\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.queue_enqueued)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"queue.high_water\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.queue_hw)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"queue.drained\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.queue_drained)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"pending.high_water\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.pending_hw)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"trace.events\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.trace_events)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"trace.dropped\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.trace_dropped)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"spgemm.rows_hash\":%llu,",
                static_cast<unsigned long long>(
                    ld(g_globals.spgemm_rows_hash)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"spgemm.rows_dense\":%llu,",
                static_cast<unsigned long long>(
                    ld(g_globals.spgemm_rows_dense)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"spgemm.flops_estimated\":%llu,",
                static_cast<unsigned long long>(
                    ld(g_globals.spgemm_flops_est)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"arena.reuse_hits\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.arena_hits)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"arena.reuse_misses\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.arena_misses)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"fusion.chains\":%llu,",
                static_cast<unsigned long long>(ld(g_globals.fusion_chains)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"fusion.ops_fused\":%llu,",
                static_cast<unsigned long long>(
                    ld(g_globals.fusion_ops_fused)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"fusion.dead_writes_eliminated\":%llu,",
                static_cast<unsigned long long>(
                    ld(g_globals.fusion_dead_writes)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"format.transpose_cache_hits\":%llu,",
                static_cast<unsigned long long>(
                    ld(g_globals.format_trans_hits)));
  out.append(buf);
  std::snprintf(buf, sizeof buf, "\"format.transpose_cache_misses\":%llu",
                static_cast<unsigned long long>(
                    ld(g_globals.format_trans_misses)));
  out.append(buf);
  // Memory-attribution, flight-recorder and watchdog gauges
  // (function-backed).
  for (const auto& g : kFnGauges) {
    std::snprintf(buf, sizeof buf, ",\"%s\":%llu", g.name,
                  static_cast<unsigned long long>(g.value()));
    out.append(buf);
  }
  out.append("},\"pools\":{");
  first = true;
  for (auto& kv : pool_registry()) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof buf, "\"%d\":{", kv.first);
    out.append(buf);
    bool ffirst = true;
    for (const auto& f : pool_fields(*kv.second)) {
      if (!ffirst) out.push_back(',');
      ffirst = false;
      std::snprintf(buf, sizeof buf, "\"%s\":%llu", f.name,
                    static_cast<unsigned long long>(ld(*f.value)));
      out.append(buf);
    }
    out.push_back('}');
  }
  // Per-context breakdown: ops attributed to each live context (dead
  // contexts already folded into their nearest live ancestor) plus the
  // memory currently homed there.
  out.append("},\"contexts\":{");
  first = true;
  for (auto& ckv : view) {
    uint64_t parent = 0;
    bool live = true;
    auto rit = ctx_registry().find(ckv.first);
    if (rit != ctx_registry().end()) {
      parent = rit->second.parent;
      live = !rit->second.dead;
    }
    uint64_t mem_live = 0, mem_objects = 0;
    for (const auto& sl : mem_slices) {
      if (resolve_live(sl.ctx) != ckv.first) continue;
      mem_live += sl.live_bytes;
      mem_objects += sl.objects;
    }
    if (trim_zero_rows && mem_live == 0 && mem_objects == 0) {
      bool any = false;
      for (auto& okv : ckv.second)
        if (!op_agg_all_zero(okv.second)) any = true;
      if (!any) continue;
    }
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof buf,
                  "\"%llu\":{\"parent\":%llu,\"live\":%s,"
                  "\"mem.live_bytes\":%llu,\"mem.objects\":%llu,\"ops\":{",
                  static_cast<unsigned long long>(ckv.first),
                  static_cast<unsigned long long>(parent),
                  live ? "true" : "false",
                  static_cast<unsigned long long>(mem_live),
                  static_cast<unsigned long long>(mem_objects));
    out.append(buf);
    bool ofirst = true;
    for (auto& okv : ckv.second) {
      if (trim_zero_rows && op_agg_all_zero(okv.second)) continue;
      if (!ofirst) out.push_back(',');
      ofirst = false;
      out.push_back('"');
      json_append_escaped(&out, okv.first.c_str());
      out.append("\":");
      json_append_op_agg(&out, okv.second);
    }
    out.append("}}");
  }
  // Per-site lock contention.
  out.append("},\"locks\":{");
  first = true;
  for (auto& lkv : lock_view()) {
    if (!first) out.push_back(',');
    first = false;
    HistSummary hs = lkv.second.summarize();
    out.push_back('"');
    json_append_escaped(&out, lkv.first.c_str());
    char lbuf[192];
    std::snprintf(lbuf, sizeof lbuf,
                  "\":{\"acquires\":%llu,\"contended\":%llu,"
                  "\"wait_ns\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu,"
                  "\"max_ns\":%llu}",
                  static_cast<unsigned long long>(lkv.second.acquires),
                  static_cast<unsigned long long>(lkv.second.contended),
                  static_cast<unsigned long long>(lkv.second.wait_ns),
                  static_cast<unsigned long long>(hs.p50),
                  static_cast<unsigned long long>(hs.p99),
                  static_cast<unsigned long long>(hs.max));
    out.append(lbuf);
  }
  // Decision-audit and hardware-profiler blocks (DESIGN.md §16): the
  // two halves of the grb_prof_report.py join, shipped side by side.
  out.append("},\"decisions\":");
  out.append(decision_json());
  out.append(",\"prof\":");
  out.append(prof_json());
  out.push_back('}');
  return out;
}

std::string stats_prometheus() {
  // Memory slices first: obj_mu strictly before reg_mu.
  auto mem_slices = mem_by_ctx();
  std::lock_guard<std::mutex> lock(reg_mu());
  auto view = ctx_view();
  std::string out;
  char buf[128];
  // series emitter: metric name, then a fully-formed label body (no
  // braces; may be empty), then the value.
  auto series = [&](const char* metric, const std::string& labels,
                    uint64_t v) {
    out.append(metric);
    if (!labels.empty()) {
      out.push_back('{');
      out.append(labels);
      out.push_back('}');
    }
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(v));
    out.append(buf);
  };
  auto op_ctx_labels = [&](const char* op, uint64_t ctx,
                           const char* extra) -> std::string {
    std::string l = "op=\"";
    prom_append_escaped(&l, op);
    std::snprintf(buf, sizeof buf, "\",context=\"%llu\"",
                  static_cast<unsigned long long>(ctx));
    l.append(buf);
    if (extra[0] != '\0') {
      l.push_back(',');
      l.append(extra);
    }
    return l;
  };
  auto ctx_labels = [&](uint64_t ctx) -> std::string {
    std::snprintf(buf, sizeof buf, "context=\"%llu\"",
                  static_cast<unsigned long long>(ctx));
    return std::string(buf);
  };
  out.append("# HELP grb_op_calls_total C API entry-point invocations.\n"
             "# TYPE grb_op_calls_total counter\n");
  for (auto& ckv : view)
    for (auto& okv : ckv.second)
      series("grb_op_calls_total",
             op_ctx_labels(okv.first.c_str(), ckv.first, ""),
             okv.second.calls);
  out.append("# HELP grb_op_errors_total Entry points returning an error.\n"
             "# TYPE grb_op_errors_total counter\n");
  for (auto& ckv : view)
    for (auto& okv : ckv.second)
      series("grb_op_errors_total",
             op_ctx_labels(okv.first.c_str(), ckv.first, ""),
             okv.second.errors);
  // Per-(op, context) latency as a Prometheus summary: quantile series
  // from the log2 histograms (upper-bound estimates), exact
  // sum/count/max.
  out.append("# HELP grb_op_latency_ns Per-op latency by context "
             "(log2-bucket quantile upper bounds).\n"
             "# TYPE grb_op_latency_ns summary\n");
  for (auto& ckv : view) {
    for (auto& okv : ckv.second) {
      const char* op = okv.first.c_str();
      HistSummary hs = okv.second.summarize();
      series("grb_op_latency_ns",
             op_ctx_labels(op, ckv.first, "quantile=\"0.5\""), hs.p50);
      series("grb_op_latency_ns",
             op_ctx_labels(op, ckv.first, "quantile=\"0.9\""), hs.p90);
      series("grb_op_latency_ns",
             op_ctx_labels(op, ckv.first, "quantile=\"0.99\""), hs.p99);
      series("grb_op_latency_ns_sum", op_ctx_labels(op, ckv.first, ""),
             okv.second.ns + okv.second.deferred_ns);
      series("grb_op_latency_ns_count", op_ctx_labels(op, ckv.first, ""),
             hs.count);
    }
  }
  out.append("# HELP grb_op_latency_max_ns Exact worst-case latency.\n"
             "# TYPE grb_op_latency_max_ns gauge\n");
  for (auto& ckv : view)
    for (auto& okv : ckv.second)
      series("grb_op_latency_max_ns",
             op_ctx_labels(okv.first.c_str(), ckv.first, ""),
             okv.second.max_ns);
  // Per-context memory attribution (dead home contexts resolved to
  // their nearest live ancestor at read time).
  out.append("# HELP grb_context_memory_live_bytes Tracked bytes homed in "
             "each context.\n"
             "# TYPE grb_context_memory_live_bytes gauge\n");
  {
    std::map<uint64_t, CtxMemSlice> by_ctx;
    for (const auto& sl : mem_slices) {
      CtxMemSlice& dst = by_ctx[resolve_live(sl.ctx)];
      dst.live_bytes += sl.live_bytes;
      dst.peak_bytes += sl.peak_bytes;
      dst.objects += sl.objects;
    }
    for (auto& kv : by_ctx)
      series("grb_context_memory_live_bytes", ctx_labels(kv.first),
             kv.second.live_bytes);
    out.append("# HELP grb_context_objects Live GrB containers homed in "
               "each context.\n"
               "# TYPE grb_context_objects gauge\n");
    for (auto& kv : by_ctx)
      series("grb_context_objects", ctx_labels(kv.first),
             kv.second.objects);
  }
  out.append("# HELP grb_memory_live_bytes Tracked bytes currently "
             "allocated.\n"
             "# TYPE grb_memory_live_bytes gauge\n");
  series("grb_memory_live_bytes", "", mem_live_total());
  out.append("# HELP grb_memory_peak_bytes High-water mark of tracked "
             "bytes.\n"
             "# TYPE grb_memory_peak_bytes gauge\n");
  series("grb_memory_peak_bytes", "", mem_peak_total());
  out.append("# HELP grb_arena_live_bytes Scratch-arena bytes currently "
             "held.\n"
             "# TYPE grb_arena_live_bytes gauge\n");
  series("grb_arena_live_bytes", "", mem_arena_live());
  out.append("# HELP grb_arena_peak_bytes Scratch-arena high-water mark.\n"
             "# TYPE grb_arena_peak_bytes gauge\n");
  series("grb_arena_peak_bytes", "", mem_arena_peak());
  out.append("# HELP grb_objects Live GrB containers.\n"
             "# TYPE grb_objects gauge\n");
  series("grb_objects", "", mem_object_count());
  // Per-site lock contention.
  {
    auto locks = lock_view();
    auto site_labels = [&](const std::string& site,
                           const char* extra) -> std::string {
      std::string l = "site=\"";
      prom_append_escaped(&l, site.c_str());
      l.push_back('"');
      if (extra[0] != '\0') {
        l.push_back(',');
        l.append(extra);
      }
      return l;
    };
    out.append("# HELP grb_lock_acquisitions_total Scoped-lock "
               "acquisitions by site.\n"
               "# TYPE grb_lock_acquisitions_total counter\n");
    for (auto& kv : locks)
      series("grb_lock_acquisitions_total", site_labels(kv.first, ""),
             kv.second.acquires);
    out.append("# HELP grb_lock_contended_total Acquisitions that "
               "blocked.\n"
               "# TYPE grb_lock_contended_total counter\n");
    for (auto& kv : locks)
      series("grb_lock_contended_total", site_labels(kv.first, ""),
             kv.second.contended);
    out.append("# HELP grb_lock_wait_ns Blocked-acquisition wait time by "
               "site (log2-bucket quantile upper bounds).\n"
               "# TYPE grb_lock_wait_ns summary\n");
    for (auto& kv : locks) {
      HistSummary hs = kv.second.summarize();
      series("grb_lock_wait_ns", site_labels(kv.first, "quantile=\"0.5\""),
             hs.p50);
      series("grb_lock_wait_ns", site_labels(kv.first, "quantile=\"0.9\""),
             hs.p90);
      series("grb_lock_wait_ns", site_labels(kv.first, "quantile=\"0.99\""),
             hs.p99);
      series("grb_lock_wait_ns_sum", site_labels(kv.first, ""),
             kv.second.wait_ns);
      series("grb_lock_wait_ns_count", site_labels(kv.first, ""), hs.count);
    }
    out.append("# HELP grb_lock_wait_max_ns Exact worst blocked wait by "
               "site.\n"
               "# TYPE grb_lock_wait_max_ns gauge\n");
    for (auto& kv : locks)
      series("grb_lock_wait_max_ns", site_labels(kv.first, ""),
             kv.second.max_ns);
  }
  out.append("# HELP grb_watchdog_trips_total Stall-watchdog deadline "
             "violations detected.\n"
             "# TYPE grb_watchdog_trips_total counter\n");
  series("grb_watchdog_trips_total", "", watchdog_trips());
  out.append("# HELP grb_flight_recorder_events_total Flight-recorder "
             "events ever recorded.\n"
             "# TYPE grb_flight_recorder_events_total counter\n");
  series("grb_flight_recorder_events_total", "", fr_event_count());
  out.append("# HELP grb_flight_recorder_overwrites_total Events lost to "
             "ring wrap.\n"
             "# TYPE grb_flight_recorder_overwrites_total counter\n");
  series("grb_flight_recorder_overwrites_total", "", fr_overwrites());
  out.append("# HELP grb_trace_dropped_total Spans dropped by the capped "
             "trace buffer.\n"
             "# TYPE grb_trace_dropped_total counter\n");
  series("grb_trace_dropped_total", "", ld(g_globals.trace_dropped));
  out.append("# HELP grb_format_transpose_cache_total Descriptor-"
             "transpose reads by cache outcome.\n"
             "# TYPE grb_format_transpose_cache_total counter\n");
  series("grb_format_transpose_cache_total", "outcome=\"hit\"",
         ld(g_globals.format_trans_hits));
  series("grb_format_transpose_cache_total", "outcome=\"miss\"",
         ld(g_globals.format_trans_misses));
  decision_prometheus(out);
  prof_prometheus(out);
  return out;
}

bool trace_start(const char* path) {
  std::lock_guard<std::mutex> lock(trace_mu());
  trace_buf().clear();
  trace_path() = path != nullptr ? path : "";
  g_globals.trace_events = 0;
  g_globals.trace_dropped = 0;
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
  // (including the decisions / prof blocks) written at finalize — the
  // input side of tools/grb_prof_report.py.
  const char* sjson = std::getenv("GRB_STATS_JSON");
  if (sjson != nullptr && sjson[0] != '\0') {
    env_stats_json_path() = sjson;
    stats_set_enabled(true);
  }
  // GRB_DECISIONS=1 / GRB_PROF=1: decision audit and hardware profiler.
  decision_env_activate();
  prof_env_activate();
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
