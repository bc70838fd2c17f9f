// GrB_mxm: C<M,r> = C (+) A*B over a semiring.
#include <algorithm>
#include <atomic>

#include "obs/decision.hpp"
#include "obs/telemetry.hpp"
#include "ops/mxm.hpp"

namespace grb {
namespace {

// Exact masked-dot work: one merge of A(i,:) with B'(j,:) per mask
// entry, |A(i,:)| + |B'(j,:)| steps each.  B's column counts are the
// row lengths of `bt` (B') when the caller has it for free, else one
// serial O(nnz(B)) counting pass; the caller has checked that O(ncols)
// fits the budget.  The mask rows run on `ctx`, each chunk adding its
// exact integer sum.
uint64_t masked_dot_cost(Context* ctx, const MatrixData& a,
                         const MatrixData& b, const MatrixData* bt,
                         const MatrixData& mask) {
  std::vector<Index> bcol;
  if (bt == nullptr) {
    bcol.assign(static_cast<size_t>(b.ncols) + 1, 0);
    for (Index j : b.col) ++bcol[j + 1];
    for (Index j = 0; j < b.ncols; ++j) bcol[j + 1] += bcol[j];
  }
  const Index* bptr = bt != nullptr ? bt->ptr.data() : bcol.data();
  std::atomic<uint64_t> cost{0};
  ctx->parallel_for(0, mask.nrows, [&](Index lo, Index hi) {
    uint64_t part = 0;
    for (Index i = lo; i < hi; ++i) {
      const uint64_t arow = a.ptr[i + 1] - a.ptr[i];
      for (size_t km = mask.ptr[i]; km < mask.ptr[i + 1]; ++km) {
        const Index j = mask.col[km];
        part += arow + (bptr[j + 1] - bptr[j]);
      }
    }
    cost.fetch_add(part, std::memory_order_relaxed);
  });
  return cost.load(std::memory_order_relaxed);
}

// What one masked-dot merge step costs in saxpy candidates.  Fitted on
// the M4 legs (bench_m4_masked_mxm, pinned strategies, time per unit of
// each exact cost): a step took 2.3–11 times a candidate across the
// triangle, k-truss and point-mask shapes, PLUS_TIMES and <PLUS, ONEB>
// alike, median ≈4.  A constant, not a calibration: the triangle masks'
// saxpy cost is ≈2 times their dot cost (now saxpy), a point mask's 24
// to 39 times (still dot).
constexpr uint64_t kDotStepWeight = 4;

}  // namespace

Info mxm(Matrix* c, const Matrix* mask, const BinaryOp* accum,
         const Semiring* s, const Matrix* a, const Matrix* b,
         const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a, b}));
  if (s == nullptr || a == nullptr || b == nullptr)
    return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  Index br = d.tran1() ? b->ncols() : b->nrows();
  Index bc = d.tran1() ? b->nrows() : b->ncols();
  if (ac != br) return Info::kDimensionMismatch;
  if (ar != c->nrows() || bc != c->ncols()) return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->xtype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->ytype(), b->type()));
  GRB_RETURN_IF_ERROR(check_cast(c->type(), s->mul()->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), s->mul()->ztype()));

  std::shared_ptr<const MatrixData> a_snap, b_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(b)->snapshot(&b_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0(), t1 = d.tran1();
  return defer_or_run(
      c,
      [c, a_snap, b_snap, m_snap, s, spec, t0, t1]() -> Info {
        std::shared_ptr<const MatrixData> av =
            t0 ? format_transpose_view(a_snap) : a_snap;
        std::shared_ptr<const MatrixData> bv =
            t1 ? format_transpose_view(b_snap) : b_snap;
        Context* ctx =
            exec_context(c->context(), av->nvals() + bv->nvals());
        std::shared_ptr<MatrixData> t;
        // One symbolic pass per snapshot pair: the strategy cost model,
        // the adaptive engine and the flops telemetry all share it (and
        // the per-snapshot cache de-duplicates repeated calls on the
        // same inputs).  Computed lazily so a pinned masked-dot run
        // never pays the O(nvals(A)) scan.
        std::shared_ptr<const SpgemmRowCosts> costs;
        auto row_costs = [&]() -> const SpgemmRowCosts& {
          if (costs == nullptr) costs = spgemm_row_costs(ctx, av, bv);
          return *costs;
        };
        // Masked kernels: correct whenever the mask is structural and
        // not complemented (T is only ever read at mask-true positions
        // by the write-back), and both emit T inside M.  Masked dot
        // merges A(i,:) with B'(j,:) per mask entry; masked saxpy runs
        // Gustavson folding only the products that land in M.  The auto
        // strategy compares their exact costs, a merge step weighed as
        // kDotStepWeight candidates.
        obs::DecisionTicket dot_ticket;
        // Work of the masked kernel that ran, in the auto strategy's
        // cost unit; counted only for a live audit record.
        uint64_t masked_work = 0;
        bool t_in_mask = false;
        if (m_snap != nullptr && spec.mask_structure && !spec.mask_comp) {
          const MxmStrategy strat = mxm_strategy();
          // Transposing B allocates O(ncols(B)) column pointers; the
          // dot strategy is off the table for hypersparse column
          // dimensions the budget cannot afford.
          const bool bt_ok = static_cast<uint64_t>(bv->ncols) * 2 *
                                 sizeof(Index) <=
                             spgemm_dense_budget();
          // The masked saxpy is a dense-flag accumulator of its own:
          // the reference oracle and a pinned hash mode keep the
          // unmasked engine, as does an over-budget column count.
          const SpgemmMode mode = spgemm_mode();
          const bool saxpy_ok =
              mode != SpgemmMode::kReference && mode != SpgemmMode::kHash &&
              static_cast<uint64_t>(bv->ncols) *
                      (1 + s->mul()->ztype()->size()) <=
                  spgemm_dense_budget();
          // With GrB_DESC_T1, bv is the transpose of b_snap, so B' is
          // b_snap itself: the dot strategy needs no second transpose.
          const MatrixData* bt_free = t1 ? b_snap.get() : nullptr;
          bool use_dot = strat == MxmStrategy::kMaskedDot && bt_ok;
          if (strat == MxmStrategy::kAuto && bt_ok) {
            const uint64_t dot_cost =
                masked_dot_cost(ctx, *av, *bv, bt_free, *m_snap);
            const uint64_t saxpy_cost = row_costs().total + m_snap->nvals();
            use_dot = dot_cost * kDotStepWeight < saxpy_cost;
            // Decision audit: the one genuinely adaptive branch here is
            // the auto heuristic — pinned strategies never had a choice.
            dot_ticket = obs::decision_record(
                obs::DecisionSite::kMaskedDot, use_dot ? "dot" : "saxpy",
                use_dot ? "saxpy" : "dot",
                static_cast<double>(use_dot ? dot_cost : saxpy_cost),
                static_cast<double>(use_dot ? saxpy_cost : dot_cost));
          }
          if (use_dot) {
            auto bt = t1 ? b_snap : format_transpose_view(bv);
            uint64_t* steps = dot_ticket.seq != 0 ? &masked_work : nullptr;
            t = fastpath_masked_dot_mxm(ctx, *av, *bt, *m_snap, s, steps);
            if (t == nullptr) {
              t = mxm_masked_dot_kernel(
                  ctx, *av, *bt, *m_snap, s->mul()->ztype(),
                  [&] { return SemiringRunner(s, av->type, bt->type); },
                  steps);
            }
            t_in_mask = true;
          } else if (saxpy_ok) {
            t = fastpath_masked_saxpy_mxm(ctx, *av, *bv, *m_snap, s,
                                          row_costs());
            if (t == nullptr) {
              t = mxm_masked_saxpy_kernel(
                  ctx, *av, *bv, *m_snap, s->mul()->ztype(), row_costs(),
                  [&] { return SemiringRunner(s, av->type, bv->type); });
            }
            t_in_mask = true;
            // The saxpy runs every row with candidates and mask entries
            // in full: its work is known from the costs and the mask.
            if (dot_ticket.seq != 0) {
              const SpgemmRowCosts& rc = row_costs();
              for (Index i = 0; i < av->nrows; ++i) {
                const uint64_t mlen = m_snap->ptr[i + 1] - m_snap->ptr[i];
                if (rc.flops[i] != 0 && mlen != 0)
                  masked_work += rc.flops[i] + mlen;
              }
            }
          }
        }
        if (t == nullptr) t = fastpath_mxm(ctx, *av, *bv, s, row_costs());
        if (t == nullptr) {
          t = spgemm_mxm(ctx, *av, *bv, s->mul()->ztype(), row_costs(),
                         [&] { return SemiringRunner(s, av->type, bv->type); });
        }
        // Measured in the predicted unit: the candidates visited plus
        // mask entries (saxpy) or the merge steps taken (dot).  An
        // over-budget saxpy choice ran the unmasked engine and measures
        // nothing: a timing-only record.
        obs::decision_measure(dot_ticket, masked_work);
        if (obs::stats_enabled()) {
          // SpGEMM flop metric: every A(i,k) expands into row k of B
          // (multiply count of the Gustavson formulation) — the cached
          // symbolic total, not a second scan.
          obs::add_flops(row_costs().total);
        }
        // A masked kernel's T lies inside M, which lets the write-back
        // publish it directly under replace or into an empty C.
        publish_result(c, ctx, std::move(t), m_snap.get(), spec, t_in_mask);
        return Info::kSuccess;
      });
}

}  // namespace grb
