// GrB_Context: hierarchical execution contexts (paper §IV).
//
// A program starts in the top-level context created by GrB_init.  Nested
// contexts are created with context_new(parent, mode, config); they form a
// tree that is torn down by GrB_finalize.  Each GraphBLAS object belongs
// to exactly one context, all operands of an operation must share a
// context, and the context supplies execution resources (a thread pool)
// plus the blocking/nonblocking mode for operations on its objects.
//
// The paper leaves the contents of the `void* exec` initialization struct
// implementation-defined but requires it be documented.  Ours is
// grb::ContextConfig below.
#pragma once

#include <memory>
#include <string>

#include "core/info.hpp"
#include "exec/thread_pool.hpp"

namespace grb {

enum class Mode : int {
  kNonblocking = 0,
  kBlocking = 1,
};

// The documented, implementation-defined structure passed as the `exec`
// argument of GrB_Context_new (paper §IV / Figure 2).
struct ContextConfig {
  // Number of threads the context may use for internal parallelism.
  // 0 means "inherit from the parent context".  How a kernel splits its
  // work across those threads is not configurable: exec_context() decides
  // serial vs parallel, and Context::block_count() sizes the blocks.
  int nthreads = 0;
};

class Context {
 public:
  // `obs_id` is the stable telemetry identity of this context (see
  // obs/telemetry.hpp): 1 for the top context, 0 for the internal
  // serial helper, a fresh monotonic id for every nested context.
  Context(Mode mode, Context* parent, ContextConfig cfg, uint64_t obs_id);

  Mode mode() const { return mode_; }
  Context* parent() const { return parent_; }
  const ContextConfig& config() const { return cfg_; }
  int depth() const { return depth_; }
  uint64_t obs_id() const { return obs_id_; }

  // Effective thread count.  A context's own request (nthreads > 0) is
  // capped by every ancestor's explicit budget, so nested contexts carve
  // up their parent's allotment hierarchically and can never exceed it.
  // nthreads == 0 inherits the nearest ancestor's budget; with no explicit
  // budget anywhere on the chain the hardware decides.
  int effective_nthreads() const;

  // The pool used for internal parallelism; nullptr means "run inline".
  // Created lazily on first use.
  ThreadPool* pool();

  // The one block-grain rule.  A kernel that splits `n` items (rows,
  // entries, index ranges) carrying `work` units (stored entries, flops,
  // mask entries) into explicit blocks asks for this many: one when the
  // context runs inline, otherwise several per thread so the balance
  // survives skew, but never so many that a block carries less than
  // parallel_threshold() units -- below that, waking a pool thread costs
  // more than the block.
  Index block_count(Index n, uint64_t work) const;

  // Items per block under block_count(): blocks of this size, the last
  // one short, cover [0, n) in ceil(n / block_size) blocks.
  Index block_size(Index n, uint64_t work) const;

  // Partitioned parallel loop over rows or entries on this context's
  // resources.  The caller's exec_context() gate has already judged the
  // job worth the pool, so the range is split per thread (the pool deals
  // a few chunks to each), not by a fixed row count.
  void parallel_for(Index begin, Index end,
                    const std::function<void(Index, Index)>& body);

  // Same, but with a caller-chosen grain.  Kernels that iterate over
  // coarse work blocks (rather than rows/entries) pass grain 1 so the
  // blocks actually fan out.
  void parallel_for(Index begin, Index end, Index grain,
                    const std::function<void(Index, Index)>& body);

 private:
  Mode mode_;
  Context* parent_;
  ContextConfig cfg_;
  int depth_;
  uint64_t obs_id_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

// --- Global library state (GrB_init / GrB_finalize) ----------------------

// Initializes the library with the top-level context's mode.
// Calling twice without finalize returns kInvalidValue.
Info library_init(Mode mode);
Info library_finalize();
bool library_initialized();

// The top-level context (nullptr before init).
Context* top_context();

// Creates a context nested in `parent` (nullptr = top-level context).
// `config` may be nullptr (all defaults / inherit).
Info context_new(Context** ctx, Mode mode, Context* parent,
                 const ContextConfig* config);
Info context_free(Context* ctx);

// True if `ctx` is a live context (top-level or created and not freed).
bool context_is_live(const Context* ctx);

// Resolves a possibly-null context pointer (null = top-level).
Context* resolve_context(Context* ctx);

// A library-internal single-thread context whose parallel_for always runs
// inline.  Used as the serial fallback target; never in the live set.
Context* serial_context();

// Picks the context a kernel should run on: `ctx` itself when the job is
// big enough (`work` stored entries >= parallel_threshold()) and the
// context's budget allows more than one thread; otherwise the inline
// serial context.  This is the single serial-fallback gate every
// parallelized kernel goes through.
Context* exec_context(Context* ctx, size_t work);

// Library version (GrB_getVersion): 2.0.
inline constexpr unsigned kVersion = 2;
inline constexpr unsigned kSubversion = 0;

}  // namespace grb
