// Benchmark driver: runs one workload against the GraphBLAS library for a
// fixed wall-clock window, checks every result against a plain C++
// reference, and prints its raw measurements as one JSON line.
// perfbench/run.py builds this program and turns that line into the
// reported metrics.
//
//   grbbench --workload pagerank|ktruss|ingest --seed N --seconds S
//            --trace 0|1 [--trace-out spans.json]
//
// Workloads (inputs are generated here from --seed; the library only
// ever sees the generated tuples):
//   pagerank  20 fixed PageRank iterations on a directed R-MAT graph:
//             vxm, eWise, apply, assign and reduce on dense vectors.
//   ktruss    4-truss of several undirected R-MAT graphs: masked mxm
//             (SpGEMM) and select on shrinking sparse matrices.
//   ingest    batches of setElement calls folded by GrB_wait into a
//             pre-built graph: pending tuples, completion and build.
//
// One "op" is one algorithm call per input graph plus reading its result
// back (pagerank, ktruss), or the whole stream of batches, each folded
// and counted with nvals (ingest).  Each op is timed on its own.
// Set-up (building the input matrices) is repeated kSetupReps times and
// timed on its own; one untimed warm-up op follows it.  With --trace 1
// the library's counters are enabled for the measured window and dumped
// with GxB_Stats_json, and its spans are recorded for the first few ops;
// the end-to-end timings come from --trace 0 runs.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "graphblas/GraphBLAS.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 21;

// Workload sizes.
// Edge factor 16 puts about 2/3 of the vertices on an edge.  At 8 the
// share sits near 9/16, where the library's vector format choice flips
// between seeds, and so would the cost.
constexpr int kPagerankScale = 14;
constexpr int kPagerankEdgeFactor = 16;
constexpr int kPagerankIters = 20;
constexpr double kDamping = 0.85;

// The number of peeling rounds a k-truss takes varies from graph to
// graph; one op runs several independent graphs so that the work per op
// varies little between seeds.
constexpr int kKtrussGraphs = 8;
constexpr int kKtrussScale = 10;
constexpr int kKtrussEdgeFactor = 8;
constexpr uint32_t kTrussK = 4;

constexpr int kIngestScale = 14;
constexpr int kIngestBaseEdgeFactor = 4;
constexpr int kIngestBatches = 16;
constexpr int kIngestBatchEdges = 2048;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// SplitMix64: small, seedable, identical on every platform.
struct Rng {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  uint64_t below(uint64_t n) { return next() % n; }
};

// Graph500 R-MAT quadrant probabilities; vertex ids are shuffled so the
// hubs do not all sit at the low ids.
struct Rmat {
  int scale;
  std::vector<GrB_Index> perm;

  Rmat(int scale_, Rng& rng) : scale(scale_), perm(GrB_Index{1} << scale_) {
    for (GrB_Index i = 0; i < perm.size(); ++i) perm[i] = i;
    for (GrB_Index i = perm.size() - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.below(i + 1)]);
  }

  std::pair<GrB_Index, GrB_Index> edge(Rng& rng) const {
    GrB_Index u = 0, v = 0;
    for (int b = 0; b < scale; ++b) {
      double p = rng.uniform();
      u <<= 1;
      v <<= 1;
      if (p < 0.57) {
      } else if (p < 0.76) {
        v |= 1;
      } else if (p < 0.95) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    return {perm[u], perm[v]};
  }
};

// Sorted, duplicate-free edge list (row-major), no self-loops.
struct Graph {
  GrB_Index n = 0;
  std::vector<GrB_Index> rows, cols;
  std::vector<double> vals;
  size_t nnz() const { return rows.size(); }
};

uint64_t key_of(GrB_Index u, GrB_Index v, GrB_Index n) { return u * n + v; }

Graph rmat_graph(int scale, int edge_factor, bool symmetric, Rng& rng) {
  Graph g;
  g.n = GrB_Index{1} << scale;
  Rmat gen(scale, rng);
  std::vector<uint64_t> keys;
  const GrB_Index draws = g.n * static_cast<GrB_Index>(edge_factor);
  keys.reserve(symmetric ? 2 * draws : draws);
  for (GrB_Index e = 0; e < draws; ++e) {
    auto [u, v] = gen.edge(rng);
    if (u == v) continue;
    keys.push_back(key_of(u, v, g.n));
    if (symmetric) keys.push_back(key_of(v, u, g.n));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  g.rows.reserve(keys.size());
  g.cols.reserve(keys.size());
  g.vals.reserve(keys.size());
  for (uint64_t k : keys) {
    GrB_Index u = k / g.n, v = k % g.n;
    g.rows.push_back(u);
    g.cols.push_back(v);
    // Symmetric pairs get the same weight: derive it from the unordered
    // pair, not from the draw order.
    Rng w{key_of(std::min(u, v), std::max(u, v), g.n) ^ 0x5bd1e995ULL};
    g.vals.push_back(0.125 + w.uniform());
  }
  return g;
}

// Builds and materializes an FP64 matrix from a duplicate-free graph.
GrB_Info build_matrix(GrB_Matrix* out, const Graph& g) {
  GrB_Info info = GrB_Matrix_new(out, GrB_FP64, g.n, g.n);
  if (info == GrB_SUCCESS)
    info = GrB_Matrix_build(*out, g.rows.data(), g.cols.data(), g.vals.data(),
                            static_cast<GrB_Index>(g.nnz()), GrB_PLUS_FP64);
  if (info == GrB_SUCCESS) info = GrB_wait(*out, GrB_MATERIALIZE);
  return info;
}

// --- references --------------------------------------------------------------

// The library's PageRank, restated on plain arrays: uniform teleport,
// dangling rank spread evenly, edge weights ignored.
std::vector<double> pagerank_reference(const Graph& g, int iters) {
  const GrB_Index n = g.n;
  std::vector<double> outdeg(n, 0.0), r(n, 1.0 / n), next(n);
  std::vector<char> has_in(n, 0);
  for (size_t e = 0; e < g.nnz(); ++e) {
    outdeg[g.rows[e]] += 1.0;
    has_in[g.cols[e]] = 1;
  }
  const double teleport = (1.0 - kDamping) / n;
  for (int it = 0; it < iters; ++it) {
    double total = 0.0, live = 0.0;
    for (GrB_Index i = 0; i < n; ++i) {
      total += r[i];
      if (outdeg[i] > 0) live += r[i];
    }
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t e = 0; e < g.nnz(); ++e)
      next[g.cols[e]] += r[g.rows[e]] / outdeg[g.rows[e]];
    const double base = teleport + kDamping * (total - live) / n;
    for (GrB_Index j = 0; j < n; ++j)
      r[j] = has_in[j] ? next[j] * kDamping + base : base;
  }
  return r;
}

// Edges (u, v, support) of the k-truss of a symmetric graph, row-major,
// where support is the number of triangles through the edge inside the
// truss.
struct Truss {
  std::vector<GrB_Index> rows, cols;
  std::vector<int64_t> support;
};

Truss ktruss_reference(const Graph& g, uint32_t k) {
  const GrB_Index n = g.n;
  std::vector<std::vector<GrB_Index>> adj(n);
  for (size_t e = 0; e < g.nnz(); ++e) adj[g.rows[e]].push_back(g.cols[e]);
  std::vector<char> mark(n, 0);
  const int64_t need = static_cast<int64_t>(k) - 2;
  std::vector<std::vector<int64_t>> sup(n);
  for (;;) {
    bool removed = false;
    for (GrB_Index u = 0; u < n; ++u) {
      for (GrB_Index w : adj[u]) mark[w] = 1;
      sup[u].assign(adj[u].size(), 0);
      for (size_t x = 0; x < adj[u].size(); ++x)
        for (GrB_Index w : adj[adj[u][x]]) sup[u][x] += mark[w];
      for (GrB_Index w : adj[u]) mark[w] = 0;
    }
    for (GrB_Index u = 0; u < n; ++u) {
      size_t keep = 0;
      for (size_t x = 0; x < adj[u].size(); ++x) {
        if (sup[u][x] >= need) {
          adj[u][keep] = adj[u][x];
          sup[u][keep] = sup[u][x];
          ++keep;
        }
      }
      removed |= keep != adj[u].size();
      adj[u].resize(keep);
      sup[u].resize(keep);
    }
    if (!removed) break;
  }
  Truss t;
  for (GrB_Index u = 0; u < n; ++u)
    for (size_t x = 0; x < adj[u].size(); ++x) {
      t.rows.push_back(u);
      t.cols.push_back(adj[u][x]);
      t.support.push_back(sup[u][x]);
    }
  return t;
}

// --- workloads ---------------------------------------------------------------

// One workload: set_up() builds the library's input from the generated
// data (repeatable), op() runs one timed operation and leaves its result
// to check(), which compares it with the reference outside the timing.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual GrB_Info set_up() = 0;
  virtual GrB_Info op() = 0;
  virtual bool check() = 0;
  // Untimed housekeeping between ops (ingest copies its base graph).
  virtual GrB_Info between_ops() { return GrB_SUCCESS; }
  // Ops whose library spans a traced run records: enough to cover the
  // workload's op mix, few enough to keep the span file small.
  virtual size_t traced_ops() const { return 8; }
};

class PagerankWorkload : public Workload {
 public:
  explicit PagerankWorkload(uint64_t seed) {
    Rng rng{seed};
    g_ = rmat_graph(kPagerankScale, kPagerankEdgeFactor, false, rng);
    ref_ = pagerank_reference(g_, kPagerankIters);
    idx_.resize(g_.n);
    val_.resize(g_.n);
  }
  ~PagerankWorkload() override { GrB_free(&a_); }

  GrB_Info set_up() override {
    GrB_free(&a_);
    return build_matrix(&a_, g_);
  }

  GrB_Info op() override {
    GrB_Vector rank = nullptr;
    // tol = 0 never converges early, so every op does the same work.
    GrB_Info info =
        grb_algo::pagerank(&rank, a_, kDamping, kPagerankIters, 0.0);
    nv_ = g_.n;
    if (info == GrB_SUCCESS)
      info = GrB_Vector_extractTuples(idx_.data(), val_.data(), &nv_, rank);
    GrB_free(&rank);
    return info;
  }

  // The rank vector is full: every vertex once, each within rounding of
  // the reference (the library may sum in another order).
  bool check() override {
    if (nv_ != g_.n) return false;
    seen_.assign(g_.n, 0);
    for (GrB_Index k = 0; k < nv_; ++k) {
      GrB_Index i = idx_[k];
      if (i >= g_.n || seen_[i]++) return false;
      double want = ref_[i];
      if (!(std::fabs(val_[k] - want) <= 1e-15 + 1e-9 * std::fabs(want)))
        return false;
    }
    return true;
  }

 private:
  Graph g_;
  std::vector<double> ref_;
  GrB_Matrix a_ = nullptr;
  std::vector<GrB_Index> idx_;
  std::vector<double> val_;
  std::vector<char> seen_;
  GrB_Index nv_ = 0;
};

class KtrussWorkload : public Workload {
 public:
  explicit KtrussWorkload(uint64_t seed) : cases_(kKtrussGraphs) {
    Rng rng{seed};
    for (Case& c : cases_) {
      c.g = rmat_graph(kKtrussScale, kKtrussEdgeFactor, true, rng);
      c.ref = ktruss_reference(c.g, kTrussK);
      c.rows.resize(c.g.nnz());
      c.cols.resize(c.g.nnz());
      c.sup.resize(c.g.nnz());
    }
  }
  ~KtrussWorkload() override {
    for (Case& c : cases_) GrB_free(&c.a);
  }

  GrB_Info set_up() override {
    GrB_Info info = GrB_SUCCESS;
    for (Case& c : cases_) {
      GrB_free(&c.a);
      if (info == GrB_SUCCESS) info = build_matrix(&c.a, c.g);
    }
    return info;
  }

  GrB_Info op() override {
    GrB_Info info = GrB_SUCCESS;
    for (Case& c : cases_) {
      GrB_Matrix truss = nullptr;
      c.nv = 0;
      if (info == GrB_SUCCESS) info = grb_algo::ktruss(&truss, c.a, kTrussK);
      if (info == GrB_SUCCESS) {
        c.nv = c.rows.size();
        info = GrB_Matrix_extractTuples(c.rows.data(), c.cols.data(),
                                        c.sup.data(), &c.nv, truss);
      }
      GrB_free(&truss);
    }
    return info;
  }

  bool check() override {
    for (Case& c : cases_) {
      if (c.nv != c.ref.rows.size()) return false;
      // extractTuples promises no order; compare in row-major order.
      order_.resize(c.nv);
      for (GrB_Index k = 0; k < c.nv; ++k) order_[k] = k;
      std::sort(order_.begin(), order_.end(), [&](GrB_Index x, GrB_Index y) {
        return c.rows[x] != c.rows[y] ? c.rows[x] < c.rows[y]
                                      : c.cols[x] < c.cols[y];
      });
      for (GrB_Index k = 0; k < c.nv; ++k) {
        GrB_Index p = order_[k];
        if (c.rows[p] != c.ref.rows[k] || c.cols[p] != c.ref.cols[k] ||
            c.sup[p] != c.ref.support[k])
          return false;
      }
    }
    return true;
  }

 private:
  struct Case {
    Graph g;
    Truss ref;
    GrB_Matrix a = nullptr;
    std::vector<GrB_Index> rows, cols;
    std::vector<int64_t> sup;
    GrB_Index nv = 0;
  };
  std::vector<Case> cases_;
  std::vector<GrB_Index> order_;
};

// One op streams kIngestBatches batches of setElement calls into a copy
// of the base graph, folding each batch with GrB_wait.  Timing the whole
// stream, not single batches, keeps the op cost the same from op to op:
// batch costs differ with how much of the graph each one rewrites.
class IngestWorkload : public Workload {
 public:
  explicit IngestWorkload(uint64_t seed) {
    Rng rng{seed};
    base_ = rmat_graph(kIngestScale, kIngestBaseEdgeFactor, false, rng);
    const GrB_Index n = base_.n;
    // The stream follows the same skewed distribution as the base, so it
    // both inserts new edges and overwrites existing ones, and repeats
    // keys within a batch (setElement: the last write wins).
    Rmat gen(kIngestScale, rng);
    std::unordered_map<uint64_t, double> want;
    want.reserve(base_.nnz() + kIngestBatches * kIngestBatchEdges);
    for (size_t e = 0; e < base_.nnz(); ++e)
      want[key_of(base_.rows[e], base_.cols[e], n)] = base_.vals[e];
    for (int b = 0; b < kIngestBatches; ++b) {
      for (int e = 0; e < kIngestBatchEdges; ++e) {
        auto [u, v] = gen.edge(rng);
        double x = 0.125 + rng.uniform();
        su_.push_back(u);
        sv_.push_back(v);
        sx_.push_back(x);
        want[key_of(u, v, n)] = x;
      }
      nvals_after_.push_back(want.size());
    }
    final_.reserve(want.size());
    for (auto& kv : want) final_.push_back(kv);
    std::sort(final_.begin(), final_.end());
    rows_.resize(final_.size());
    cols_.resize(final_.size());
    vals_.resize(final_.size());
  }
  ~IngestWorkload() override {
    GrB_free(&base_m_);
    GrB_free(&g_);
  }

  GrB_Info set_up() override {
    GrB_free(&base_m_);
    GrB_Info info = build_matrix(&base_m_, base_);
    if (info == GrB_SUCCESS) info = between_ops();
    return info;
  }

  GrB_Info op() override {
    GrB_Info info = GrB_SUCCESS;
    size_t e = 0;
    nv_.assign(kIngestBatches, 0);
    for (int b = 0; b < kIngestBatches && info == GrB_SUCCESS; ++b) {
      for (int k = 0; k < kIngestBatchEdges && info == GrB_SUCCESS; ++k, ++e)
        info = GrB_Matrix_setElement(g_, sx_[e], su_[e], sv_[e]);
      if (info == GrB_SUCCESS) info = GrB_wait(g_, GrB_MATERIALIZE);
      if (info == GrB_SUCCESS) info = GrB_Matrix_nvals(&nv_[b], g_);
    }
    return info;
  }

  bool check() override {
    bool ok = std::equal(nv_.begin(), nv_.end(), nvals_after_.begin());
    if (ok && !full_checked_) {
      // Once per run, compare every entry of the ingested graph.
      full_checked_ = true;
      GrB_Index nv = rows_.size();
      ok = GrB_Matrix_extractTuples(rows_.data(), cols_.data(), vals_.data(),
                                    &nv, g_) == GrB_SUCCESS &&
           nv == final_.size();
      std::vector<std::pair<uint64_t, double>> got;
      got.reserve(nv);
      for (GrB_Index k = 0; ok && k < nv; ++k)
        got.emplace_back(key_of(rows_[k], cols_[k], base_.n), vals_[k]);
      std::sort(got.begin(), got.end());
      ok = ok && got == final_;
    }
    return ok;
  }

  // Every op ingests the same stream into a fresh copy of the base graph.
  GrB_Info between_ops() override {
    GrB_free(&g_);
    return GrB_Matrix_dup(&g_, base_m_);
  }
  // One op already makes one span per setElement call.
  size_t traced_ops() const override { return 1; }

 private:
  Graph base_;
  std::vector<GrB_Index> su_, sv_;
  std::vector<double> sx_;
  std::vector<GrB_Index> nvals_after_, nv_;
  std::vector<std::pair<uint64_t, double>> final_;
  std::vector<GrB_Index> rows_, cols_;
  std::vector<double> vals_;
  GrB_Matrix base_m_ = nullptr, g_ = nullptr;
  bool full_checked_ = false;
};

// --- driver ------------------------------------------------------------------

// Pins the calling thread to the CPU, of those it may run on, that sorts
// a small array fastest.  On a shared host one CPU is often slowed by
// another tenant on the same physical core, and a single-threaded op
// that lands there runs about 30% slower for as long as it stays; the
// scheduler cannot see that.  Threads started earlier (the library's
// pool) keep their own affinity.  Called again every kRepinMs, because
// the slow CPU moves.
constexpr double kRepinMs = 2000;

void pin_to_fastest_cpu() {
  static cpu_set_t allowed;
  static const bool have_allowed =
      sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  if (!have_allowed || CPU_COUNT(&allowed) < 2) return;
  std::vector<uint64_t> data(1 << 14);
  int best = -1;
  double best_ms = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    std::vector<double> t;
    for (uint64_t rep = 0; rep < 5; ++rep) {
      Rng rng{rep};
      for (uint64_t& x : data) x = rng.next();
      auto t0 = Clock::now();
      std::sort(data.begin(), data.end());
      t.push_back(ms_since(t0));
    }
    std::nth_element(t.begin(), t.begin() + 2, t.end());
    if (best < 0 || t[2] < best_ms) {
      best = cpu;
      best_ms = t[2];
    }
  }
  cpu_set_t pick;
  CPU_ZERO(&pick);
  if (best >= 0) CPU_SET(best, &pick);
  sched_setaffinity(0, sizeof pick, best >= 0 ? &pick : &allowed);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span file of a traced run
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (!a->trace || !a->trace_out.empty());
}

void print_list(const char* name, const std::vector<double>& xs) {
  std::printf("\"%s\":[", name);
  for (size_t i = 0; i < xs.size(); ++i)
    std::printf("%s%.6f", i ? "," : "", xs[i]);
  std::printf("],");
}

int run(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "pagerank")
    w = std::make_unique<PagerankWorkload>(args.seed);
  else if (args.workload == "ktruss")
    w = std::make_unique<KtrussWorkload>(args.seed);
  else if (args.workload == "ingest")
    w = std::make_unique<IngestWorkload>(args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // An untimed first set-up and op start the library's thread pool before
  // this thread is pinned, so the pool's threads keep every CPU.
  GrB_Info info = w->set_up();
  if (info == GrB_SUCCESS) info = w->op();
  bool correct = info == GrB_SUCCESS && w->check();
  pin_to_fastest_cpu();

  // Set-up builds the library's input from the generated tuples; it is
  // repeated kSetupReps times and the last input is the one measured.
  // Set-up excludes the warm-up op, so work moved from the ops into
  // building the input shows up as set-up time.
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps && info == GrB_SUCCESS; ++rep) {
    auto t0 = Clock::now();
    info = w->set_up();
    setup_ms.push_back(ms_since(t0));
  }
  if (info == GrB_SUCCESS) info = w->op();
  if (info != GrB_SUCCESS) {
    std::fprintf(stderr, "set-up failed: GrB_Info %d\n", (int)info);
    return 1;
  }
  correct = correct && w->check() && w->between_ops() == GrB_SUCCESS;

  // A traced run counts over the whole window and records the library's
  // spans for its first traced_ops() ops.
  size_t traced = 0;
  if (args.trace) {
    traced = w->traced_ops();
    GxB_Stats_reset();
    GxB_Stats_enable(1);
    if (GxB_Trace_start(args.trace_out.c_str()) != GrB_SUCCESS) return 1;
  }
  std::vector<double> op_ms;
  long failed = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  auto pinned_at = Clock::now();
  while (Clock::now() < deadline) {
    if (ms_since(pinned_at) > kRepinMs) {
      pin_to_fastest_cpu();
      pinned_at = Clock::now();
    }
    auto t0 = Clock::now();
    info = w->op();
    op_ms.push_back(ms_since(t0));
    if (op_ms.size() == traced && GxB_Trace_dump(nullptr) != GrB_SUCCESS)
      return 1;
    if (info != GrB_SUCCESS || !w->check()) ++failed;
    // Housekeeping is not the library work being measured.
    if (args.trace) GxB_Stats_enable(0);
    if (w->between_ops() != GrB_SUCCESS) ++failed;
    if (args.trace) GxB_Stats_enable(1);
  }
  if (args.trace) {
    GxB_Stats_enable(0);
    if (op_ms.size() < traced && GxB_Trace_dump(nullptr) != GrB_SUCCESS)
      return 1;
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  std::printf("{\"workload\":\"%s\",\"attempted\":%zu,\"failed\":%ld,"
              "\"correct\":%s,\"peak_rss_mb\":%.3f,\"traced_ops\":%zu,",
              args.workload.c_str(), op_ms.size(), failed,
              correct ? "true" : "false", ru.ru_maxrss / 1024.0,
              std::min(traced, op_ms.size()));
  print_list("setup_ms", setup_ms);
  print_list("op_ms", op_ms);
  std::string stats = "null";
  if (args.trace) {
    GrB_Index len = 0;
    if (GxB_Stats_json(nullptr, &len) == GrB_SUCCESS && len > 1) {
      stats.assign(len, '\0');
      GxB_Stats_json(stats.data(), &len);
      stats.resize(len - 1);
    }
  }
  std::printf("\"stats\":%s}\n", stats.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload pagerank|ktruss|ingest --seed N "
                 "--seconds S --trace 0|1 [--trace-out spans.json]\n",
                 argv[0]);
    return 2;
  }
  if (GrB_init(GrB_NONBLOCKING) != GrB_SUCCESS) {
    std::fprintf(stderr, "GrB_init failed\n");
    return 1;
  }
  int rc = run(args);
  GrB_finalize();
  return rc;
}
