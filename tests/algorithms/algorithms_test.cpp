// Graph algorithms against independent naive references on small graphs
// and generated instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <queue>
#include <set>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "tests/grb_test_util.hpp"
#include "util/generator.hpp"

namespace {

// Adjacency list extracted from a GrB_Matrix (structure only).
std::vector<std::vector<GrB_Index>> adjacency(GrB_Matrix a) {
  GrB_Index n, nv;
  EXPECT_EQ(GrB_Matrix_nrows(&n, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, a), GrB_SUCCESS);
  std::vector<GrB_Index> ri(nv), ci(nv);
  GrB_Index got = nv;
  EXPECT_EQ(GrB_Matrix_extractTuples(ri.data(), ci.data(),
                                     static_cast<double*>(nullptr), &got,
                                     a),
            GrB_SUCCESS);
  std::vector<std::vector<GrB_Index>> adj(n);
  for (GrB_Index k = 0; k < got; ++k) adj[ri[k]].push_back(ci[k]);
  return adj;
}

std::vector<int32_t> bfs_reference(
    const std::vector<std::vector<GrB_Index>>& adj, GrB_Index src) {
  std::vector<int32_t> level(adj.size(), -1);
  std::queue<GrB_Index> q;
  level[src] = 0;
  q.push(src);
  while (!q.empty()) {
    GrB_Index u = q.front();
    q.pop();
    for (GrB_Index v : adj[u]) {
      if (level[v] < 0) {
        level[v] = level[u] + 1;
        q.push(v);
      }
    }
  }
  return level;
}

TEST(BfsTest, LevelsMatchReferenceOnRmat) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&a, 8, 8, grb::RmatParams{}, nullptr),
            grb::Info::kSuccess);
  auto adj = adjacency(a);
  for (GrB_Index src : {GrB_Index{0}, GrB_Index{7}, GrB_Index{100}}) {
    GrB_Vector level = nullptr;
    ASSERT_EQ(grb_algo::bfs_level(&level, a, src), GrB_SUCCESS);
    auto want = bfs_reference(adj, src);
    for (GrB_Index v = 0; v < adj.size(); ++v) {
      int32_t got = -1;
      GrB_Info info = GrB_Vector_extractElement(&got, level, v);
      if (want[v] < 0) {
        EXPECT_EQ(info, GrB_NO_VALUE) << "vertex " << v;
      } else {
        ASSERT_EQ(info, GrB_SUCCESS) << "vertex " << v;
        EXPECT_EQ(got, want[v]) << "vertex " << v;
      }
    }
    GrB_free(&level);
  }
  GrB_free(&a);
}

TEST(BfsTest, ParentsFormValidTree) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&a, 8, 8, grb::RmatParams{}, nullptr),
            grb::Info::kSuccess);
  auto adj = adjacency(a);
  // edge set for O(1) membership tests
  std::set<std::pair<GrB_Index, GrB_Index>> edges;
  for (GrB_Index u = 0; u < adj.size(); ++u)
    for (GrB_Index v : adj[u]) edges.insert({u, v});
  const GrB_Index src = 0;
  GrB_Vector parent = nullptr;
  ASSERT_EQ(grb_algo::bfs_parent(&parent, a, src), GrB_SUCCESS);
  auto level = bfs_reference(adj, src);
  for (GrB_Index v = 0; v < adj.size(); ++v) {
    int64_t p = -1;
    GrB_Info info = GrB_Vector_extractElement(&p, parent, v);
    if (level[v] < 0) {
      EXPECT_EQ(info, GrB_NO_VALUE);
      continue;
    }
    ASSERT_EQ(info, GrB_SUCCESS);
    if (v == src) {
      EXPECT_EQ(p, int64_t(src));
    } else {
      // parent is reachable one level above v via a real edge.
      ASSERT_GE(p, 0);
      EXPECT_TRUE(edges.count({GrB_Index(p), v}))
          << "no edge " << p << "->" << v;
      EXPECT_EQ(level[GrB_Index(p)], level[v] - 1);
    }
  }
  GrB_free(&parent);
  GrB_free(&a);
}

TEST(SsspTest, MatchesDijkstraOnSmallGraph) {
  // Weighted digraph with known distances.
  const GrB_Index n = 6;
  GrB_Index ri[] = {0, 0, 1, 1, 2, 3, 4};
  GrB_Index ci[] = {1, 2, 2, 3, 4, 5, 5};
  double w[] = {7, 9, 10, 15, 11, 6, 9};
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_build(a, ri, ci, w, 7, GrB_NULL), GrB_SUCCESS);
  GrB_Vector dist = nullptr;
  ASSERT_EQ(grb_algo::sssp(&dist, a, 0), GrB_SUCCESS);
  const double want[] = {0, 7, 9, 22, 20, 28};
  for (GrB_Index v = 0; v < n; ++v) {
    double d = -1;
    ASSERT_EQ(GrB_Vector_extractElement(&d, dist, v), GrB_SUCCESS);
    EXPECT_EQ(d, want[v]) << "vertex " << v;
  }
  GrB_free(&dist);
  GrB_free(&a);
}

TEST(SsspTest, UnreachableStayAbsent) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::ring_matrix(&a, 5, nullptr), grb::Info::kSuccess);
  GrB_Matrix two = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&two, GrB_FP64, 10, 10), GrB_SUCCESS);
  // Copy the 5-ring into a 10-vertex graph: vertices 5..9 are isolated.
  GrB_Index rows[] = {0, 1, 2, 3, 4};
  ASSERT_EQ(GrB_assign(two, GrB_NULL, GrB_NULL, a, rows, 5, rows, 5,
                       GrB_NULL),
            GrB_SUCCESS);
  GrB_Vector dist = nullptr;
  ASSERT_EQ(grb_algo::sssp(&dist, two, 0), GrB_SUCCESS);
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Vector_nvals(&nv, dist), GrB_SUCCESS);
  EXPECT_EQ(nv, 5u);
  GrB_free(&dist);
  GrB_free(&a);
  GrB_free(&two);
}

TEST(PageRankTest, UniformOnRing) {
  GrB_Matrix ring = nullptr;
  ASSERT_EQ(grb::ring_matrix(&ring, 10, nullptr), grb::Info::kSuccess);
  GrB_Vector rank = nullptr;
  ASSERT_EQ(grb_algo::pagerank(&rank, ring, 0.85, 100, 1e-12),
            GrB_SUCCESS);
  // Symmetric structure: every vertex ends with rank 1/n.
  for (GrB_Index v = 0; v < 10; ++v) {
    double r = 0;
    ASSERT_EQ(GrB_Vector_extractElement(&r, rank, v), GrB_SUCCESS);
    EXPECT_NEAR(r, 0.1, 1e-9);
  }
  GrB_free(&rank);
  GrB_free(&ring);
}

TEST(PageRankTest, MassConservedOnRmat) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&a, 9, 8, grb::RmatParams{}, nullptr),
            grb::Info::kSuccess);
  GrB_Vector rank = nullptr;
  ASSERT_EQ(grb_algo::pagerank(&rank, a, 0.85, 60, 1e-10), GrB_SUCCESS);
  double sum = 0;
  ASSERT_EQ(GrB_reduce(&sum, GrB_NULL, GrB_PLUS_MONOID_FP64, rank,
                       GrB_NULL),
            GrB_SUCCESS);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  GrB_free(&rank);
  GrB_free(&a);
}

uint64_t brute_force_triangles(
    const std::vector<std::vector<GrB_Index>>& adj) {
  std::set<std::pair<GrB_Index, GrB_Index>> edges;
  for (GrB_Index u = 0; u < adj.size(); ++u)
    for (GrB_Index v : adj[u]) edges.insert({u, v});
  uint64_t count = 0;
  for (GrB_Index u = 0; u < adj.size(); ++u)
    for (GrB_Index v : adj[u])
      if (v > u)
        for (GrB_Index x : adj[v])
          if (x > v && edges.count({u, x})) ++count;
  return count;
}

TEST(TriangleTest, MatchesBruteForce) {
  grb::RmatParams params;
  params.symmetrize = true;
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&a, 7, 8, params, nullptr),
            grb::Info::kSuccess);
  uint64_t got = 0;
  ASSERT_EQ(grb_algo::triangle_count(&got, a), GrB_SUCCESS);
  EXPECT_EQ(got, brute_force_triangles(adjacency(a)));
  GrB_free(&a);
}

TEST(TriangleTest, CompleteGraphClosedForm) {
  // K_6 has C(6,3) = 20 triangles.
  const GrB_Index n = 6;
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    for (GrB_Index j = 0; j < n; ++j)
      if (i != j)
        ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, i, j), GrB_SUCCESS);
  uint64_t got = 0;
  ASSERT_EQ(grb_algo::triangle_count(&got, a), GrB_SUCCESS);
  EXPECT_EQ(got, 20u);
  GrB_free(&a);
}

TEST(ComponentsTest, LabelsMatchReference) {
  // Two rings and an isolated vertex: 3 components.
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 11, 11), GrB_SUCCESS);
  auto edge = [&](GrB_Index u, GrB_Index v) {
    ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, u, v), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, v, u), GrB_SUCCESS);
  };
  for (GrB_Index i = 0; i < 5; ++i) edge(i, (i + 1) % 5);   // 0..4
  for (GrB_Index i = 5; i < 10; ++i) edge(i, i == 9 ? 5 : i + 1);  // 5..9
  GrB_Vector comp = nullptr;
  ASSERT_EQ(grb_algo::connected_components(&comp, a), GrB_SUCCESS);
  int64_t label = -1;
  for (GrB_Index v = 0; v < 5; ++v) {
    int64_t l = -1;
    ASSERT_EQ(GrB_Vector_extractElement(&l, comp, v), GrB_SUCCESS);
    EXPECT_EQ(l, 0);  // min-label of the first ring
  }
  for (GrB_Index v = 5; v < 10; ++v) {
    ASSERT_EQ(GrB_Vector_extractElement(&label, comp, v), GrB_SUCCESS);
    EXPECT_EQ(label, 5);
  }
  ASSERT_EQ(GrB_Vector_extractElement(&label, comp, 10), GrB_SUCCESS);
  EXPECT_EQ(label, 10);
  GrB_free(&comp);
  GrB_free(&a);
}

TEST(ComponentsTest, RandomSymmetricAgainstUnionFind) {
  grb::RmatParams params;
  params.symmetrize = true;
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&a, 8, 2, params, nullptr),
            grb::Info::kSuccess);
  auto adj = adjacency(a);
  // Union-find reference.
  std::vector<GrB_Index> uf(adj.size());
  for (GrB_Index i = 0; i < uf.size(); ++i) uf[i] = i;
  std::function<GrB_Index(GrB_Index)> find = [&](GrB_Index x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  for (GrB_Index u = 0; u < adj.size(); ++u)
    for (GrB_Index v : adj[u]) uf[find(u)] = find(v);
  GrB_Vector comp = nullptr;
  ASSERT_EQ(grb_algo::connected_components(&comp, a), GrB_SUCCESS);
  // Same partition: labels agree iff union-find roots agree.
  std::vector<int64_t> labels(adj.size());
  for (GrB_Index v = 0; v < adj.size(); ++v)
    ASSERT_EQ(GrB_Vector_extractElement(&labels[v], comp, v), GrB_SUCCESS);
  for (GrB_Index u = 0; u < adj.size(); ++u)
    for (GrB_Index v : adj[u])
      EXPECT_EQ(labels[u], labels[v]);
  // Distinct components keep distinct labels.
  std::set<std::pair<GrB_Index, int64_t>> pairs;
  for (GrB_Index v = 0; v < adj.size(); ++v)
    pairs.insert({find(v), labels[v]});
  std::set<GrB_Index> roots;
  std::set<int64_t> label_set;
  for (auto& [r, l] : pairs) {
    roots.insert(r);
    label_set.insert(l);
  }
  EXPECT_EQ(pairs.size(), roots.size());
  EXPECT_EQ(pairs.size(), label_set.size());
  GrB_free(&comp);
  GrB_free(&a);
}

TEST(MisTest, IndependentAndMaximal) {
  grb::RmatParams params;
  params.symmetrize = true;
  GrB_Matrix a = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&a, 7, 4, params, nullptr),
            grb::Info::kSuccess);
  auto adj = adjacency(a);
  GrB_Vector iset = nullptr;
  ASSERT_EQ(grb_algo::mis(&iset, a, 2026), GrB_SUCCESS);
  std::vector<bool> in_set(adj.size(), false);
  for (GrB_Index v = 0; v < adj.size(); ++v) {
    bool b = false;
    if (GrB_Vector_extractElement(&b, iset, v) == GrB_SUCCESS && b)
      in_set[v] = true;
  }
  // Independence: no edge inside the set.
  for (GrB_Index u = 0; u < adj.size(); ++u)
    if (in_set[u])
      for (GrB_Index v : adj[u])
        EXPECT_FALSE(v != u && in_set[v]) << u << "-" << v;
  // Maximality: every vertex outside has a neighbour inside.
  for (GrB_Index u = 0; u < adj.size(); ++u) {
    if (in_set[u]) continue;
    bool has_in_neighbor = false;
    for (GrB_Index v : adj[u]) has_in_neighbor |= in_set[v];
    EXPECT_TRUE(has_in_neighbor) << "vertex " << u;
  }
  GrB_free(&iset);
  GrB_free(&a);
}

TEST(KtrussTest, TriangleOfTrianglesSurvives) {
  // K_4 is a 4-truss (every edge supports 2 triangles); adding a
  // dangling path contributes nothing.
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 7, 7), GrB_SUCCESS);
  auto edge = [&](GrB_Index u, GrB_Index v) {
    ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, u, v), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, v, u), GrB_SUCCESS);
  };
  for (GrB_Index i = 0; i < 4; ++i)
    for (GrB_Index j = i + 1; j < 4; ++j) edge(i, j);
  edge(3, 4);
  edge(4, 5);
  edge(5, 6);
  GrB_Matrix truss = nullptr;
  ASSERT_EQ(grb_algo::ktruss(&truss, a, 4), GrB_SUCCESS);
  GrB_Index nv = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&nv, truss), GrB_SUCCESS);
  EXPECT_EQ(nv, 12u);  // K4: 6 undirected edges, stored both ways
  // The path edges are gone.
  double out;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, truss, 4, 5), GrB_NO_VALUE);
  GrB_free(&truss);
  GrB_free(&a);
}

// Edges (u, v, support) of the k-truss of the undirected graph `adj`,
// row-major, by peeling: support is the number of common neighbours
// among the surviving edges, and an edge below k-2 is removed until
// none is.  Self-loops are no edges.
struct TrussEdges {
  std::vector<GrB_Index> rows, cols;
  std::vector<int64_t> support;
};

TrussEdges brute_force_truss(std::vector<std::vector<GrB_Index>> adj,
                             uint32_t k) {
  const GrB_Index n = adj.size();
  for (GrB_Index u = 0; u < n; ++u) {
    auto& row = adj[u];
    row.erase(std::remove(row.begin(), row.end(), u), row.end());
    std::sort(row.begin(), row.end());
  }
  const int64_t need = static_cast<int64_t>(k) - 2;
  std::vector<std::vector<int64_t>> sup(n);
  for (bool removed = true; removed;) {
    for (GrB_Index u = 0; u < n; ++u) {
      sup[u].assign(adj[u].size(), 0);
      for (size_t x = 0; x < adj[u].size(); ++x) {
        const auto& nu = adj[u];
        const auto& nv = adj[adj[u][x]];
        std::vector<GrB_Index> common;
        std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                              std::back_inserter(common));
        sup[u][x] = static_cast<int64_t>(common.size());
      }
    }
    removed = false;
    for (GrB_Index u = 0; u < n; ++u) {
      size_t keep = 0;
      for (size_t x = 0; x < adj[u].size(); ++x) {
        if (sup[u][x] < need) continue;
        adj[u][keep] = adj[u][x];
        sup[u][keep] = sup[u][x];
        ++keep;
      }
      removed |= keep != adj[u].size();
      adj[u].resize(keep);
      sup[u].resize(keep);
    }
  }
  TrussEdges t;
  for (GrB_Index u = 0; u < n; ++u) {
    for (size_t x = 0; x < adj[u].size(); ++x) {
      t.rows.push_back(u);
      t.cols.push_back(adj[u][x]);
      t.support.push_back(sup[u][x]);
    }
  }
  return t;
}

TEST(KtrussTest, MatchesBruteForceOnWeightedRmat) {
  // An undirected R-MAT graph with self-loops, rebuilt with FP64 weights
  // that are never 1 (negative, zero and fractional, within INT64 range):
  // ktruss counts support from the pattern alone, so the weights change
  // nothing, and the truss keeps each edge's support as its value.
  grb::RmatParams params;
  params.symmetrize = true;
  params.remove_self_loops = false;
  GrB_Matrix rmat = nullptr;
  ASSERT_EQ(grb::rmat_matrix(&rmat, 8, 8, params, nullptr),
            grb::Info::kSuccess);
  GrB_Index n = 0, nv = 0;
  ASSERT_EQ(GrB_Matrix_nrows(&n, rmat), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_nvals(&nv, rmat), GrB_SUCCESS);
  std::vector<GrB_Index> ri(nv), ci(nv);
  std::vector<double> w(nv);
  ASSERT_EQ(GrB_Matrix_extractTuples(ri.data(), ci.data(), w.data(), &nv,
                                     rmat),
            GrB_SUCCESS);
  size_t loops = 0;
  for (GrB_Index e = 0; e < nv; ++e) {
    w[e] = static_cast<double>((ri[e] * 7919 + ci[e] * 104729) % 2001) * 0.75 -
           750.0;
    if (w[e] == 1.0) w[e] = -3.5;
    loops += ri[e] == ci[e];
  }
  ASSERT_GT(loops, 0u);
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_build(a, ri.data(), ci.data(), w.data(), nv, GrB_NULL),
            GrB_SUCCESS);
  const auto adj = adjacency(a);
  for (uint32_t k : {3u, 4u, 5u}) {
    const TrussEdges want = brute_force_truss(adj, k);
    GrB_Matrix truss = nullptr;
    ASSERT_EQ(grb_algo::ktruss(&truss, a, k), GrB_SUCCESS);
    GrB_Index got_nv = 0;
    ASSERT_EQ(GrB_Matrix_nvals(&got_nv, truss), GrB_SUCCESS);
    TrussEdges got;
    got.rows.resize(got_nv);
    got.cols.resize(got_nv);
    got.support.resize(got_nv);
    ASSERT_EQ(GrB_Matrix_extractTuples(got.rows.data(), got.cols.data(),
                                       got.support.data(), &got_nv, truss),
              GrB_SUCCESS);
    ASSERT_FALSE(want.rows.empty()) << "k=" << k;
    EXPECT_EQ(got.rows, want.rows) << "k=" << k;
    EXPECT_EQ(got.cols, want.cols) << "k=" << k;
    EXPECT_EQ(got.support, want.support) << "k=" << k;
    GrB_free(&truss);
  }
  GrB_free(&a);
  GrB_free(&rmat);
}

TEST(LccTest, TriangleHasCoefficientOne) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 4, 4), GrB_SUCCESS);
  auto edge = [&](GrB_Index u, GrB_Index v) {
    ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, u, v), GrB_SUCCESS);
    ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, v, u), GrB_SUCCESS);
  };
  edge(0, 1);
  edge(1, 2);
  edge(0, 2);
  edge(2, 3);  // pendant
  GrB_Vector lcc = nullptr;
  ASSERT_EQ(grb_algo::local_clustering_coefficient(&lcc, a), GrB_SUCCESS);
  double v = 0;
  ASSERT_EQ(GrB_Vector_extractElement(&v, lcc, 0), GrB_SUCCESS);
  EXPECT_EQ(v, 1.0);
  ASSERT_EQ(GrB_Vector_extractElement(&v, lcc, 2), GrB_SUCCESS);
  EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);  // deg 3, one closed wedge of three
  // Vertex 3 has degree 1: no entry.
  EXPECT_EQ(GrB_Vector_extractElement(&v, lcc, 3), GrB_NO_VALUE);
  GrB_free(&lcc);
  GrB_free(&a);
}

}  // namespace
