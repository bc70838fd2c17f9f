// Graph algorithms built on the public GraphBLAS 2.0 C API — the
// LAGraph-analog layer demonstrating that the specification supports real
// workloads.  Several algorithms deliberately exercise the paper's new
// 2.0 features: BFS-parent uses the ROWINDEX index-unary apply (§VIII.B),
// triangle counting and k-truss use GrB_select (§VIII.C), and everything
// runs in either blocking or nonblocking mode.
//
// Conventions: adjacency matrices are square; "undirected" algorithms
// expect a symmetric pattern (use RmatParams::symmetrize or
// make_undirected below).  Outputs are freshly allocated; callers free
// them with GrB_free.
#pragma once

#include "graphblas/GraphBLAS.h"

namespace grb_algo {

// A = A | A' (pattern-symmetrized, FP64 values summed).
GrB_Info make_undirected(GrB_Matrix* out, GrB_Matrix a);

// BFS levels from `source`: level[v] = hops from source (INT32; source=0).
GrB_Info bfs_level(GrB_Vector* level, GrB_Matrix a, GrB_Index source);

// BFS parents from `source` (INT64; parent[source] = source).  Uses the
// GraphBLAS 2.0 ROWINDEX index-unary operator to materialize vertex ids
// without storing indices in values (the paper's §II motivation).
GrB_Info bfs_parent(GrB_Vector* parent, GrB_Matrix a, GrB_Index source);

// Single-source shortest paths (Bellman-Ford over MIN_PLUS, FP64).
GrB_Info sssp(GrB_Vector* dist, GrB_Matrix a, GrB_Index source);

// PageRank with uniform teleport; returns the FP64 rank vector.
GrB_Info pagerank(GrB_Vector* rank, GrB_Matrix a, double damping,
                  int max_iters, double tol);

// Triangle count for an undirected graph (Sandia LL: C<L> = L*L', L =
// strict lower triangle via GrB_select/GrB_TRIL).
GrB_Info triangle_count(uint64_t* count, GrB_Matrix a);

// Connected components (Shiloach-Vishkin style min-label propagation,
// INT64 component labels).  Expects a symmetric pattern.
GrB_Info connected_components(GrB_Vector* comp, GrB_Matrix a);

// Maximal independent set (Luby), BOOL membership vector.
GrB_Info mis(GrB_Vector* iset, GrB_Matrix a, uint64_t seed);

// k-truss pattern of an undirected simple graph: the INT64 support
// matrix of the k-truss subgraph (edges with >= k-2 triangles).
GrB_Info ktruss(GrB_Matrix* truss, GrB_Matrix a, uint32_t k);

// Local clustering coefficient per vertex (FP64).
GrB_Info local_clustering_coefficient(GrB_Vector* lcc, GrB_Matrix a);

// k-core decomposition (iterative peeling via GrB_select/GrB_VALUELT).
// Returns INT64 coreness per vertex; vertices with no entry have
// coreness 0 (isolated).  Expects a symmetric pattern.
GrB_Info kcore(GrB_Vector* coreness, GrB_Matrix a);

// Batch betweenness centrality (Brandes) from the given source vertices;
// returns the (unnormalized) FP64 dependency sums.  Treats the graph as
// unweighted; expects no self-loops.
GrB_Info betweenness_centrality(GrB_Vector* bc, GrB_Matrix a,
                                const GrB_Index* sources,
                                GrB_Index num_sources);

// HPCG's operator: the 27-point stencil on an nx*ny*nz grid (FP64; 26 on
// the diagonal, -1 for each grid neighbour), symmetric positive definite.
GrB_Info stencil27(GrB_Matrix* a, GrB_Index nx, GrB_Index ny, GrB_Index nz);

// Conjugate gradient for A x = b (A symmetric positive definite, FP64)
// from x = 0.  Stops once ||r|| <= tol * ||b|| or after max_iters
// iterations; *iters (if not null) receives the count taken.
GrB_Info cg(GrB_Vector* x, int* iters, GrB_Matrix a, GrB_Vector b,
            int max_iters, double tol);

}  // namespace grb_algo
