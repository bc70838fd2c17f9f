#include "exec/context.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/global.hpp"
#include "exec/thread_pool.hpp"
#include "obs/decision.hpp"
#include "obs/telemetry.hpp"

namespace grb {

// Defined in ops/spgemm.cpp; declared here rather than including the
// ops layer from exec.
void spgemm_cost_cache_clear();
namespace {

// The live-context registry itself lives in core/global.{hpp,cpp}
// (grb::GlobalRegistry) with its lock discipline annotated; this file is
// its only accessor.
GlobalRegistry& global() { return global_registry(); }

// Read once: every effective_nthreads() (pool(), exec_context,
// block_count) asks, and each query is a syscall-backed few microseconds.
int default_hw_threads() {
  static const int hw = [] {
    unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return hw;
}

// Telemetry identities for nested contexts.  1 is reserved for the top
// context (stable across init/finalize cycles so metric labels stay
// comparable), 0 for "unattributed"; ids are never reused in-process.
uint64_t next_ctx_obs_id() {
  static std::atomic<uint64_t> next{2};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Context::Context(Mode mode, Context* parent, ContextConfig cfg,
                 uint64_t obs_id)
    : mode_(mode),
      parent_(parent),
      cfg_(cfg),
      depth_(parent == nullptr ? 0 : parent->depth() + 1),
      obs_id_(obs_id) {}

int Context::effective_nthreads() const {
  // Walk the ancestor chain taking the minimum over every explicit
  // budget: the nearest one supplies the request, the rest cap it.
  int budget = 0;
  for (const Context* c = this; c != nullptr; c = c->parent_) {
    int n = c->cfg_.nthreads;
    if (n > 0) budget = budget == 0 ? n : std::min(budget, n);
  }
  return budget > 0 ? budget : default_hw_threads();
}

ThreadPool* Context::pool() {
  int n = effective_nthreads();
  if (n <= 1) return nullptr;
  std::call_once(pool_once_, [&] { pool_ = std::make_unique<ThreadPool>(n); });
  return pool_.get();
}

Index Context::block_count(Index n, uint64_t work) const {
  const int nthreads = effective_nthreads();
  if (nthreads <= 1) return 1;
  const uint64_t by_work =
      work / std::max<uint64_t>(1, parallel_threshold());
  return static_cast<Index>(std::max<uint64_t>(
      1, std::min<uint64_t>({n, static_cast<uint64_t>(nthreads) * 8,
                             by_work})));
}

Index Context::block_size(Index n, uint64_t work) const {
  const Index nb = block_count(n, work);
  return std::max<Index>(1, (n + nb - 1) / nb);
}

void Context::parallel_for(Index begin, Index end,
                           const std::function<void(Index, Index)>& body) {
  parallel_for(begin, end, 1, body);
}

void Context::parallel_for(Index begin, Index end, Index grain,
                           const std::function<void(Index, Index)>& body) {
  if (begin >= end) return;
  ThreadPool* p = (end - begin > grain) ? pool() : nullptr;
  if (p == nullptr) {
    body(begin, end);
  } else {
    p->parallel_for(begin, end, grain, body);
  }
}

Info library_init(Mode mode) {
  auto& g = global();
  MutexLock lock(g.mu);
  if (g.initialized) return Info::kInvalidValue;
  if (mode != Mode::kBlocking && mode != Mode::kNonblocking)
    return Info::kInvalidValue;
  g.top = new Context(mode, nullptr, ContextConfig{}, obs::kTopContextId);
  g.live.insert(g.top);
  g.initialized = true;
  obs::ctx_register(obs::kTopContextId, 0);
  // GRB_STATS / GRB_TRACE env activation, so benches and tests get
  // telemetry with no code changes.
  obs::env_activate();
  return Info::kSuccess;
}

Info library_finalize() {
  std::vector<uint64_t> leaked;
  {
    auto& g = global();
    MutexLock lock(g.mu);
    if (!g.initialized) return Info::kInvalidValue;
    // GrB_finalize frees every context object (paper §IV).
    for (Context* c : g.live) {
      if (c != g.top) leaked.push_back(c->obs_id());
      delete c;
    }
    g.live.clear();
    g.top = nullptr;
    g.initialized = false;
  }
  // Fold the telemetry of contexts the program never freed into the
  // top context (retire order does not matter: each drain resolves to
  // the nearest live ancestor, and id 1 stays live).  Outside g.mu —
  // ctx_retire takes the obs registry lock.
  for (uint64_t id : leaked) obs::ctx_retire(id);
  // Release SpGEMM scratch held beyond kernel lifetimes: the calling
  // thread's arena (worker arenas died with their pool threads above)
  // and the per-snapshot symbolic-cost cache.
  thread_arena().purge();
  spgemm_cost_cache_clear();
  // Flush env-activated telemetry (trace dump, stats summary) once the
  // library state is down; worker pools are joined by the deletes above,
  // so no hook can fire mid-dump.
  obs::env_finalize();
  return Info::kSuccess;
}

bool library_initialized() {
  auto& g = global();
  MutexLock lock(g.mu);
  return g.initialized;
}

Context* top_context() {
  auto& g = global();
  MutexLock lock(g.mu);
  return g.top;
}

Info context_new(Context** ctx, Mode mode, Context* parent,
                 const ContextConfig* config) {
  if (ctx == nullptr) return Info::kNullPointer;
  if (mode != Mode::kBlocking && mode != Mode::kNonblocking)
    return Info::kInvalidValue;
  auto& g = global();
  MutexLock lock(g.mu);
  if (!g.initialized) return Info::kPanic;
  Context* p = parent == nullptr ? g.top : parent;
  if (g.live.find(p) == g.live.end()) return Info::kUninitializedObject;
  ContextConfig cfg = config != nullptr ? *config : ContextConfig{};
  auto* c = new Context(mode, p, cfg, next_ctx_obs_id());
  g.live.insert(c);
  obs::ctx_register(c->obs_id(), p->obs_id());
  *ctx = c;
  return Info::kSuccess;
}

Info context_free(Context* ctx) {
  if (ctx == nullptr) return Info::kNullPointer;
  uint64_t obs_id;
  {
    auto& g = global();
    MutexLock lock(g.mu);
    if (ctx == g.top) return Info::kInvalidValue;  // top dies with finalize
    auto it = g.live.find(ctx);
    if (it == g.live.end()) return Info::kUninitializedObject;
    // Implementation-defined rule (documented): a context with live child
    // contexts cannot be freed, since children resolve resources through
    // it.
    for (Context* c : g.live)
      if (c->parent() == ctx) return Info::kInvalidValue;
    // After this, ctx "behaves as an uninitialized object" (paper §IV):
    // objects still homed in it must be re-homed with GrB_Context_switch
    // before further use; operations validate liveness via
    // context_is_live.
    g.live.erase(it);
    obs_id = ctx->obs_id();
    delete ctx;
  }
  // Roll this context's telemetry up to its parent (child totals fold
  // into ancestors on free).  Outside g.mu — ctx_retire takes the obs
  // registry lock.
  obs::ctx_retire(obs_id);
  return Info::kSuccess;
}

bool context_is_live(const Context* ctx) {
  auto& g = global();
  MutexLock lock(g.mu);
  return g.live.find(const_cast<Context*>(ctx)) != g.live.end();
}

Context* resolve_context(Context* ctx) {
  return ctx != nullptr ? ctx : top_context();
}

Context* serial_context() {
  // Deliberately leaked, never in the live set: survives GrB_finalize so
  // in-flight serial fallbacks can't dangle across re-initialization.
  // obs id 0: serial-fallback work stays "unattributed" rather than
  // polluting a tenant's latency series with inline helper runs.
  static Context* serial =
      new Context(Mode::kBlocking, nullptr, ContextConfig{1}, 0);
  return serial;
}

Context* exec_context(Context* ctx, size_t work) {
  Context* chosen = serial_context();
  if (ctx != nullptr && ctx->effective_nthreads() > 1 &&
      work >= parallel_threshold()) {
    chosen = ctx;
  }
  // The single serial-fallback gate: every kernel passes its object's
  // HOME context through here, so this is also where the thread-local
  // attribution slot learns the tenant (sticky for the rest of the API
  // scope — api_return keys its counters by it).  The serial helper
  // (obs id 0) never overrides a known tenant.
  if (obs::enabled() && ctx != nullptr && ctx->obs_id() != 0) {
    obs::set_current_ctx(ctx->obs_id());
  }
  // Record which path this kernel took, attributed to the GrB op
  // currently on this thread.
  bool parallel = chosen != serial_context();
  if (obs::stats_enabled()) obs::count_path(parallel);
  // Decision audit: only when both paths were actually on the table — a
  // null / single-threaded context never had a choice to explain, and
  // emitting for it would drown real records in forced-serial noise.
  if (obs::decision_enabled() && ctx != nullptr &&
      ctx->effective_nthreads() > 1) {
    obs::decision_record(obs::DecisionSite::kExecPath,
                         parallel ? "parallel" : "serial",
                         parallel ? "serial" : "parallel",
                         static_cast<double>(work),
                         static_cast<double>(parallel_threshold()));
  }
  return chosen;
}

}  // namespace grb
