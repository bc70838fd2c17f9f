// Storage-format policy, conversions, and cached canonical views
// (DESIGN.md §15).
//
// Lock discipline: the per-block view caches follow check-under-lock /
// compute-outside-lock / install-under-lock.  Two racing readers may
// both build the same view; the loser's copy is dropped and the first
// install wins, so no allocation ever happens under view_mu_ (enforced
// by tools/grb_analyze.py's no-alloc-under-lock zone).
#include "containers/format.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/decision.hpp"
#include "obs/telemetry.hpp"

namespace grb {

// Raw counting-sort transpose (ops/transpose.cpp); format_transpose_view
// wraps it with the per-snapshot cache.
std::shared_ptr<const MatrixData> transpose_data(const MatrixData& a);

// SpGEMM scratch budget (ops/spgemm.cpp); the format cost model reuses
// it as the "affordable dense footprint" bound so one knob governs both
// dense-leaning decisions.
size_t spgemm_dense_budget();

namespace {

// Blocks doing less work than this stay in their current format: the
// conversion would cost more than any traversal win, and flapping on
// tiny intermediates would churn the telemetry.
constexpr uint64_t kFormatMinWork = 1024;
// Hypersparse pays off when the ptr scan dominates: many rows, few
// occupied.
constexpr uint64_t kHyperMinRows = 4096;
constexpr uint64_t kHyperRowRatio = 8;  // nonempty <= nrows/8

// -2 = not yet resolved (lazy, like GRB_SPGEMM); otherwise a
// FormatPolicy value.
std::atomic<int> g_policy{-2};
// 0 = off, 1 = on, -1 = unresolved (GRB_TRANSPOSE_CACHE).
std::atomic<int> g_trans_cache{-1};

thread_local uint64_t t_flops_hint = 0;

FormatPolicy resolve_policy_from_env() {
  const char* env = std::getenv("GRB_FORMAT");
  if (env != nullptr) {
    if (std::strcmp(env, "csr") == 0) return FormatPolicy::kCsr;
    if (std::strcmp(env, "hyper") == 0) return FormatPolicy::kHyper;
    if (std::strcmp(env, "bitmap") == 0) return FormatPolicy::kBitmap;
    if (std::strcmp(env, "dense") == 0) return FormatPolicy::kDense;
  }
  return FormatPolicy::kAuto;
}

// nrows*ncols when it fits in 64 bits (false on overflow or 0 cells).
bool cell_count(Index nrows, Index ncols, uint64_t* out) {
  if (nrows == 0 || ncols == 0) return false;
  if (nrows > ~uint64_t{0} / ncols) return false;
  *out = static_cast<uint64_t>(nrows) * ncols;
  return true;
}

uint64_t nonempty_rows(const MatrixData& m) {
  switch (m.format) {
    case MatFormat::kCsr: {
      uint64_t n = 0;
      for (Index r = 0; r < m.nrows; ++r)
        if (m.ptr[r + 1] > m.ptr[r]) ++n;
      return n;
    }
    case MatFormat::kHyper:
      return m.hrow.size();
    default:
      return m.nrows;  // bitmap/dense blocks are never hyper candidates
  }
}

void copy_value_bytes(ValueArray* dst, const ValueArray& src) {
  dst->resize(src.size());
  if (src.byte_size() != 0)
    std::memcpy(dst->data(), src.data(), src.byte_size());
}

// --- matrix conversions (all to/from canonical CSR) ---------------------

std::shared_ptr<const MatrixData> matrix_to_csr(const MatrixData& m) {
  auto out = std::make_shared<MatrixData>(m.type, m.nrows, m.ncols);
  switch (m.format) {
    case MatFormat::kHyper: {
      // Row lengths scatter into ptr, prefix sum, then col/vals copy
      // verbatim (the compact order is already CSR's).
      for (size_t h = 0; h < m.hrow.size(); ++h)
        out->ptr[m.hrow[h] + 1] = m.ptr[h + 1] - m.ptr[h];
      for (Index r = 0; r < m.nrows; ++r) out->ptr[r + 1] += out->ptr[r];
      out->col.assign(m.col.begin(), m.col.end());
      copy_value_bytes(&out->vals, m.vals);
      break;
    }
    case MatFormat::kBitmap: {
      out->col.reserve(m.full_nvals);
      out->vals.reserve(m.full_nvals);
      for (Index r = 0; r < m.nrows; ++r) {
        const size_t base = static_cast<size_t>(r) * m.ncols;
        for (Index j = 0; j < m.ncols; ++j) {
          if (m.bmap[base + j] != 0) {
            out->col.push_back(j);
            out->vals.push_back(m.vals.at(base + j));
          }
        }
        out->ptr[r + 1] = out->col.size();
      }
      break;
    }
    case MatFormat::kDense: {
      // Every cell present: CSR's row-major value order is exactly the
      // dense buffer, so the value bytes move in one copy.
      out->col.resize(static_cast<size_t>(m.nrows) * m.ncols);
      size_t k = 0;
      for (Index r = 0; r < m.nrows; ++r) {
        for (Index j = 0; j < m.ncols; ++j) out->col[k++] = j;
        out->ptr[r + 1] = k;
      }
      copy_value_bytes(&out->vals, m.vals);
      break;
    }
    case MatFormat::kCsr:
      break;  // unreachable; callers short-circuit
  }
  return out;
}

std::shared_ptr<const MatrixData> csr_to_hyper(const MatrixData& m) {
  auto out = std::make_shared<MatrixData>(m.type, m.nrows, m.ncols,
                                          MatFormat::kHyper);
  for (Index r = 0; r < m.nrows; ++r)
    if (m.ptr[r + 1] > m.ptr[r]) out->hrow.push_back(r);
  out->ptr.reserve(out->hrow.size() + 1);
  out->ptr.push_back(0);
  // Empty rows contribute nothing, so the compact prefix at nonempty
  // row r is m.ptr[r + 1] unchanged.
  for (size_t h = 0; h < out->hrow.size(); ++h)
    out->ptr.push_back(m.ptr[out->hrow[h] + 1]);
  out->col.assign(m.col.begin(), m.col.end());
  copy_value_bytes(&out->vals, m.vals);
  return out;
}

std::shared_ptr<const MatrixData> csr_to_bitmap(const MatrixData& m,
                                                uint64_t cells) {
  auto out = std::make_shared<MatrixData>(m.type, m.nrows, m.ncols,
                                          MatFormat::kBitmap);
  out->bmap.assign(cells, 0);
  out->vals.resize(cells);  // absent slots deterministically zero
  for (Index r = 0; r < m.nrows; ++r) {
    const size_t base = static_cast<size_t>(r) * m.ncols;
    for (size_t k = m.ptr[r]; k < m.ptr[r + 1]; ++k) {
      out->bmap[base + m.col[k]] = 1;
      out->vals.set(base + m.col[k], m.vals.at(k));
    }
  }
  out->full_nvals = m.nvals();
  return out;
}

std::shared_ptr<const MatrixData> csr_to_dense(const MatrixData& m,
                                               uint64_t cells) {
  auto out = std::make_shared<MatrixData>(m.type, m.nrows, m.ncols,
                                          MatFormat::kDense);
  copy_value_bytes(&out->vals, m.vals);  // full CSR == row-major dense
  out->full_nvals = cells;
  return out;
}

// The stored format a forced policy actually yields for this block:
// dense demands a full block, bitmap an affordable cell count; both
// degrade (dense -> bitmap -> csr) rather than fail.
MatFormat forced_matrix_target(const MatrixData& m, MatFormat want) {
  uint64_t cells = 0;
  const bool cells_ok = cell_count(m.nrows, m.ncols, &cells);
  const uint64_t vsize = m.type->size() != 0 ? m.type->size() : 1;
  const uint64_t budget = spgemm_dense_budget();
  if (want == MatFormat::kDense) {
    if (cells_ok && m.nvals() == cells && cells <= budget / vsize)
      return MatFormat::kDense;
    want = MatFormat::kBitmap;
  }
  if (want == MatFormat::kBitmap) {
    if (cells_ok && cells <= budget / (1 + vsize)) return MatFormat::kBitmap;
    return MatFormat::kCsr;
  }
  return want;  // hyper and csr are always representable
}

// Approximate storage footprints, the currency of the format chooser —
// exported to the decision audit so GxB_Explain shows the byte tradeoff
// a switch was predicted to win.
uint64_t approx_matrix_bytes(const MatrixData& m, MatFormat f) {
  const uint64_t vsize = m.type->size() != 0 ? m.type->size() : 1;
  const uint64_t nnz = m.nvals();
  uint64_t cells = 0;
  switch (f) {
    case MatFormat::kDense:
      if (cell_count(m.nrows, m.ncols, &cells)) return cells * vsize;
      break;
    case MatFormat::kBitmap:
      if (cell_count(m.nrows, m.ncols, &cells)) return cells * (1 + vsize);
      break;
    case MatFormat::kHyper:
    case MatFormat::kCsr:
      break;
  }
  return nnz * (sizeof(Index) + vsize);
}

}  // namespace

const char* format_name(MatFormat f) {
  switch (f) {
    case MatFormat::kCsr: return "csr";
    case MatFormat::kHyper: return "hyper";
    case MatFormat::kBitmap: return "bitmap";
    case MatFormat::kDense: return "dense";
  }
  return "?";
}

FormatPolicy format_policy() {
  int p = g_policy.load(std::memory_order_relaxed);
  if (p != -2) return static_cast<FormatPolicy>(p);
  FormatPolicy resolved = resolve_policy_from_env();
  g_policy.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

void set_format_policy(FormatPolicy p) {
  g_policy.store(static_cast<int>(p), std::memory_order_relaxed);
}

bool transpose_cache_enabled() {
  int v = g_trans_cache.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  const char* env = std::getenv("GRB_TRANSPOSE_CACHE");
  int resolved = (env != nullptr && std::strcmp(env, "0") == 0) ? 0 : 1;
  g_trans_cache.store(resolved, std::memory_order_relaxed);
  return resolved != 0;
}

void set_transpose_cache_enabled(bool on) {
  g_trans_cache.store(on ? 1 : 0, std::memory_order_relaxed);
}

void format_hint_flops(uint64_t flops) { t_flops_hint = flops; }

uint64_t format_take_flops_hint() {
  uint64_t h = t_flops_hint;
  t_flops_hint = 0;
  return h;
}

MatFormat choose_matrix_format(const MatrixData& m, uint64_t flops_hint) {
  const uint64_t nnz = m.nvals();
  if (std::max(nnz, flops_hint) < kFormatMinWork) return m.format;
  const uint64_t vsize = m.type->size() != 0 ? m.type->size() : 1;
  const uint64_t budget = spgemm_dense_budget();
  uint64_t cells = 0;
  if (cell_count(m.nrows, m.ncols, &cells)) {
    if (nnz == cells && cells <= budget / vsize) return MatFormat::kDense;
    // Bitmap only when strictly smaller than CSR's nnz*(index+value)
    // footprint — i.e. density above ~(1+vsize)/(8+vsize) — and the
    // full-cell allocation fits the dense budget.
    if (nnz < cells && cells <= budget / (1 + vsize) &&
        cells * (1 + vsize) < nnz * (sizeof(Index) + vsize))
      return MatFormat::kBitmap;
  }
  if (m.nrows >= kHyperMinRows &&
      nonempty_rows(m) <= m.nrows / kHyperRowRatio)
    return MatFormat::kHyper;
  return MatFormat::kCsr;
}

std::shared_ptr<const MatrixData> format_convert_matrix(
    const std::shared_ptr<const MatrixData>& m, MatFormat to) {
  if (m == nullptr || m->format == to) return m;
  std::shared_ptr<const MatrixData> csr =
      m->format == MatFormat::kCsr ? m : matrix_to_csr(*m);
  if (to == MatFormat::kCsr) return csr;
  uint64_t cells = 0;
  switch (to) {
    case MatFormat::kHyper:
      return csr_to_hyper(*csr);
    case MatFormat::kBitmap:
      if (!cell_count(csr->nrows, csr->ncols, &cells)) return csr;
      return csr_to_bitmap(*csr, cells);
    case MatFormat::kDense:
      if (!cell_count(csr->nrows, csr->ncols, &cells) ||
          csr->nvals() != cells)
        return csr;
      return csr_to_dense(*csr, cells);
    case MatFormat::kCsr:
      break;
  }
  return csr;
}

std::shared_ptr<const MatrixData> format_adapt_matrix(
    std::shared_ptr<const MatrixData> m, int override_fmt) {
  if (m == nullptr) return m;
  const uint64_t hint = format_take_flops_hint();
  MatFormat target;
  if (override_fmt >= 0) {
    target = forced_matrix_target(*m, static_cast<MatFormat>(override_fmt));
  } else {
    const FormatPolicy p = format_policy();
    target = p == FormatPolicy::kAuto
                 ? choose_matrix_format(*m, hint)
                 : forced_matrix_target(*m, static_cast<MatFormat>(p));
  }
  if (target == m->format) return m;
  // Decision audit: record actual switches only — the steady state
  // ("stay as-is") would bury the interesting rows.  Costs are the
  // approximate storage footprints the chooser weighed, in bytes; the
  // conversion itself is the timed region (timing-only, no mispredict).
  obs::DecisionTicket ticket = obs::decision_record(
      obs::DecisionSite::kFormatAdapt, format_name(target),
      format_name(m->format),
      static_cast<double>(approx_matrix_bytes(*m, target)),
      static_cast<double>(approx_matrix_bytes(*m, m->format)));
  auto out = format_convert_matrix(m, target);
  if (out != m) obs::format_switch();
  obs::decision_measure(ticket, 0);
  return out;
}

// --- cached canonical views --------------------------------------------
// check-under-lock / compute-outside-lock / install-under-lock: racing
// builders are tolerated, the first install wins, and view_mu_ never
// covers an allocation.

std::shared_ptr<const MatrixData> format_csr_view(
    std::shared_ptr<const MatrixData> m) {
  if (m == nullptr || m->format == MatFormat::kCsr) return m;
  {
    MutexLock lock(m->view_mu_);
    if (m->csr_view_ != nullptr) return m->csr_view_;
  }
  auto built = matrix_to_csr(*m);
  obs::format_csr_convert();
  MutexLock lock(m->view_mu_);
  if (m->csr_view_ == nullptr) m->csr_view_ = std::move(built);
  return m->csr_view_;
}

std::shared_ptr<const MatrixData> format_transpose_view(
    const std::shared_ptr<const MatrixData>& m) {
  auto c = format_csr_view(m);
  if (c == nullptr) return c;
  if (!transpose_cache_enabled()) {
    // Cache pinned off by the user: no adaptive decision to audit.
    obs::format_transpose_cache(false);
    return transpose_data(*c);
  }
  const uint64_t nnz = c->nvals();
  std::shared_ptr<const MatrixData> cached;
  {
    MutexLock lock(c->view_mu_);
    cached = c->trans_view_;
  }
  if (cached != nullptr) {
    obs::format_transpose_cache(true);
    obs::decision_measure(
        obs::decision_record(obs::DecisionSite::kTransposeCache, "cached",
                             "rebuild", 0, static_cast<double>(nnz)),
        0);
    return cached;
  }
  obs::DecisionTicket ticket = obs::decision_record(
      obs::DecisionSite::kTransposeCache, "rebuild", "cached",
      static_cast<double>(nnz), 0);
  auto built = transpose_data(*c);
  obs::format_transpose_cache(false);
  obs::decision_measure(ticket, nnz);
  MutexLock lock(c->view_mu_);
  if (c->trans_view_ == nullptr) c->trans_view_ = std::move(built);
  return c->trans_view_;
}

}  // namespace grb
