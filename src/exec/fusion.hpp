// Deferred-sequence fusion planner (paper §III: nonblocking mode as an
// optimization opportunity).
//
// Every deferred method carries a FuseNode describing how the planner may
// treat it.  At completion time fusion_execute_batch() walks the queued
// sequence, eliminates dead writes (an output fully overwritten before
// any read), fuses runs of elementwise work into single passes over the
// data, and executes whatever remains eagerly — bitwise-identical to the
// eager path, which stays available as the GRB_FUSION=off ablation
// (mirroring GRB_SPGEMM=reference).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/info.hpp"
#include "core/type.hpp"

namespace grb {

class ObjectBase;
struct Deferred;
struct VectorData;
struct MatrixData;
class BinaryOp;

// A fused elementwise stage over a contiguous run of n stored entries:
// z[k] = f(x[k]) for k < n, values packed at their domains' strides.
// Entry k sits at index idx[k] of a vector, or at (row, idx[k]) of a
// matrix, so index-dependent operators (GrB_IndexUnaryOp) fuse like
// value-only ones.  One call maps a whole run, so the std::function call
// is paid per run of entries, not per entry.
using MapFn = std::function<void(void* z, const void* x, size_t n,
                                 const Index* idx, Index row)>;

// Mapper construction is deferred to execution time (operator state such
// as bound scalars is captured by value inside the factory): the planner
// instantiates one MapFn per worker chunk, matching the eager kernels'
// per-chunk runner construction exactly.
using MapFactory = std::function<MapFn()>;

// Planner-facing metadata riding on each Deferred.  The default value
// (kOpaque, reads_out=true) describes an op the planner must treat as a
// black box that both reads and writes its target — always legal.
struct FuseNode {
  enum class Kind : uint8_t {
    kOpaque = 0,  // run the stored closure; no fusion
    kMap,         // out = map(src) — src is the snapshot or out itself
    kZip,         // out = out (op) zip_other, elementwise
    kFlush,       // fold the pending-tuple prefix tagged at enqueue time
  };

  Kind kind = Kind::kOpaque;
  // The closure reads the target's current contents (accumulator, mask
  // against old output, pending-tuple fold, ...).  Nodes with
  // reads_out=false && full_replace=true are "killers": everything the
  // target held before them is dead.
  bool reads_out = true;
  // The closure replaces the target's stored content entirely (no mask,
  // no accumulator, no complemented empty mask).
  bool full_replace = false;
  // Externally visible side effects beyond the target (eager metadata
  // already applied, e.g. resize): never eliminated even when dead.
  bool must_run = false;

  // kMap: out = mapper(src).  When vsrc/msrc are null the source is the
  // target itself (lazy self-map; legal because the queue is FIFO).
  MapFactory make_mapper;
  const Type* ztype = nullptr;  // mapper output domain before final cast
  std::shared_ptr<const VectorData> vsrc;
  std::shared_ptr<const MatrixData> msrc;

  // kZip: out = out (zip_op) zip_other with eWiseAdd (zip_union=true) or
  // eWiseMult structure; zip_out_is_x says which operand slot the target
  // feeds (x when true, y when false).
  std::shared_ptr<const VectorData> zip_other;
  const BinaryOp* zip_op = nullptr;
  bool zip_union = false;
  bool zip_out_is_x = false;

  // kFlush: fold exactly the pending tuples enqueued before this node —
  // flush_upto is the absolute consumed-tuple count the fold advances to
  // (container flush_prefix / drop_prefix contract).
  uint64_t flush_upto = 0;
};

// GRB_FUSION=off|on (default on); runtime override for tests/bench.
bool fusion_enabled();
void set_fusion_enabled(bool on);

// Executes one drained batch of `obj`'s deferred sequence: plans
// (DCE + chain grouping), runs fused groups and surviving nodes, and
// emits fusion telemetry.  On failure returns the failing op's Info and
// names it through *failed_op; poisoning stays with the caller
// (ObjectBase::complete), which owns the object's error state.
Info fusion_execute_batch(ObjectBase* obj, std::vector<Deferred>& batch,
                          const char** failed_op);

}  // namespace grb
