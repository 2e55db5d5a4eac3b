"""The 18 topological measurements computed per follower network.

Scalar block: node/edge counts, density, mean degree, degree variance,
average clustering, degree assortativity, mean path length within the
largest connected component, algebraic connectivity, and the modularity of
a greedy agglomerative partition. Structural-diversity block: counts of
k-core and k-brace components for k in {2, 4, 8, 16}.

All functions are pure; degenerate graphs map to documented defaults so
feature vectors are always total.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from placenet.graph import (
    Graph,
    bfs_distances,  # noqa: F401  unused here; perfbench/tracing.py wraps this name
    connected_components,
    largest_connected_component,
)
from placenet.seeding import derive_rng
from placenet.tables import number, read_csv, write_csv

DEFAULT_K_SET = (2, 4, 8, 16)

# Sources per bit-parallel BFS sweep: 8 uint64 words per node.
_BFS_BLOCK = 512

# Largest component that gets lambda2 from a dense eigvalsh. On random
# Laplacians of 100-200 nodes, eigvalsh gave the same bits under 1 and 2
# OpenBLAS threads at every size up to 144 and different last bits at most
# sizes from 148 on; the shift-invert iteration used above the cap gives
# the same bits under both.
_DENSE_MAX = 128

_SCALAR_NAMES = (
    "n_nodes",
    "n_edges",
    "density",
    "avg_degree",
    "degree_variance",
    "avg_clustering",
    "degree_assortativity",
    "avg_path_length_lcc",
    "algebraic_connectivity",
    "max_modularity",
)


class ConvergenceError(ArithmeticError):
    """Eigensolver exhausted its iteration budget; carries the residual."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


def feature_names(k_set: Sequence[int] = DEFAULT_K_SET) -> list[str]:
    """Canonical feature order used by vectors, CSV columns and rankings."""
    names = list(_SCALAR_NAMES)
    names.extend(f"kcore_{k}" for k in k_set)
    names.extend(f"kbrace_{k}" for k in k_set)
    return names


@dataclass(frozen=True)
class FeatureVector:
    """One graph's measurements, in the canonical order of feature_names()."""

    n_nodes: int
    n_edges: int
    density: float
    avg_degree: float
    degree_variance: float
    avg_clustering: float
    degree_assortativity: float
    avg_path_length_lcc: float
    algebraic_connectivity: float
    max_modularity: float
    kcore_components: tuple[int, ...]
    kbrace_components: tuple[int, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.as_row(), dtype=float)

    def as_row(self) -> list[float | int]:
        return [
            self.n_nodes,
            self.n_edges,
            self.density,
            self.avg_degree,
            self.degree_variance,
            self.avg_clustering,
            self.degree_assortativity,
            self.avg_path_length_lcc,
            self.algebraic_connectivity,
            self.max_modularity,
            *self.kcore_components,
            *self.kbrace_components,
        ]


def avg_clustering(g: Graph) -> float:
    """Mean local clustering coefficient over all nodes.

    Nodes with degree < 2 contribute 0; the empty graph maps to 0.
    """
    n = g.node_count()
    if n == 0:
        return 0.0
    total = 0.0
    for u in g.nodes():
        nbrs = g.neighbors(u)
        d = len(nbrs)
        if d < 2:
            continue
        # sum of |N(u) & N(v)| over v in N(u) counts each triangle at u twice
        links = sum(len(nbrs & g.neighbors(v)) for v in nbrs)
        total += links / (d * (d - 1))
    return total / n


def degree_assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over both edge orientations.

    Returns 0 by convention when the graph has no edges or all endpoint
    degrees are equal (zero marginal variance).
    """
    m = g.edge_count()
    if m == 0:
        return 0.0
    deg = {u: g.degree(u) for u in g.nodes()}
    if len({deg[u] for u in deg if deg[u] > 0}) <= 1:
        return 0.0
    x = np.empty(2 * m, dtype=float)
    y = np.empty(2 * m, dtype=float)
    for i, (u, v) in enumerate(g.edges()):
        x[2 * i], y[2 * i] = deg[u], deg[v]
        x[2 * i + 1], y[2 * i + 1] = deg[v], deg[u]
    dx = x - x.mean()
    dy = y - y.mean()
    r = float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class LccArrays:
    """CSR adjacency of a graph's largest connected component.

    Rows follow the component's sorted node ids: row ``i`` lists its
    neighbours at ``indices[starts[i]:starts[i] + degrees[i]]``.
    ``spanning`` is true when the component holds every node of the graph.
    """

    starts: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    spanning: bool


def lcc_arrays(g: Graph) -> LccArrays:
    """Extract the largest connected component once, as CSR arrays."""
    lcc = largest_connected_component(g)
    nodes = lcc.nodes()
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    degrees = np.fromiter((lcc.degree(u) for u in nodes), dtype=np.intp, count=n)
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum(degrees[:-1], out=starts[1:])
    indices = np.fromiter(
        (index[v] for u in nodes for v in lcc.neighbors(u)),
        dtype=np.intp,
        count=2 * lcc.edge_count(),
    )
    return LccArrays(starts, indices, degrees, n == g.node_count())


def _as_lcc(g: Graph | LccArrays) -> LccArrays:
    return g if isinstance(g, LccArrays) else lcc_arrays(g)


def avg_path_length_lcc(
    g: Graph | LccArrays,
    sample_sources: int | None = None,
    seed: int = 0,
) -> float:
    """Mean shortest-path length over node pairs of the largest component.

    ``g`` is a graph or the ``lcc_arrays`` of one. Exact over all sources
    by default. When ``sample_sources`` is set and the component is larger,
    distances are averaged over the BFS trees of that many uniformly
    sampled source nodes instead (seeded, deterministic). Components with
    fewer than 2 nodes map to 0.

    The BFS runs bit-parallel (Then et al., PVLDB 2014): sources are taken
    in blocks of 512, one bit each, and every level ORs the frontier bits
    of each node's neighbours in one gather over the component's CSR
    arrays. A level costs O(m) word operations for a whole block, so a
    block costs O(m * eccentricity); the extra memory is that gather,
    about 64 bytes per directed edge. Hop counts are summed as exact
    integers, so the result equals a per-source BFS bit for bit.
    """
    lcc = _as_lcc(g)
    n = len(lcc.degrees)
    if n < 2:
        return 0.0
    if sample_sources is not None and 0 < sample_sources < n:
        rng = derive_rng(seed, 0x0A71, n)
        sources = np.sort(rng.choice(n, size=sample_sources, replace=False))
    else:
        sources = np.arange(n)
    total = sum(
        _distance_sum(lcc.starts, lcc.indices, sources[lo:lo + _BFS_BLOCK])
        for lo in range(0, len(sources), _BFS_BLOCK)
    )
    return total / (len(sources) * (n - 1))


def _distance_sum(starts: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> int:
    """Sum of hop counts from each of ``sources`` to every node it reaches.

    ``starts``/``indices`` are a CSR adjacency in which every node has a
    neighbour. Bit ``b`` of a node's word row stands for ``sources[b]``:
    ``seen`` marks the sources that reached the node, ``frontier`` those
    that reached it at the current level.
    """
    bit = np.arange(len(sources))
    frontier = np.zeros((len(starts), -(-len(sources) // 64)), dtype=np.uint64)
    frontier[sources, bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
    seen = frontier.copy()
    total = 0
    level = 0
    while True:
        level += 1
        reached = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
        reached &= ~seen
        count = int(np.bitwise_count(reached).sum())
        if count == 0:
            return total
        total += level * count
        seen |= reached
        frontier = reached


def algebraic_connectivity(
    g: Graph | LccArrays,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    scope: str = "lcc",
) -> float:
    """Second-smallest Laplacian eigenvalue (Fiedler value).

    ``g`` is a graph or the ``lcc_arrays`` of one. Computed on the largest
    connected component by default; with ``scope="global"`` the result is
    0 unless that component holds every node. Components with fewer than
    2 nodes map to 0.

    Components of at most 128 nodes get their Laplacian spectrum from a
    dense symmetric eigensolver (``numpy.linalg.eigvalsh``), which needs no
    iteration budget. Larger ones use shifted inverse iteration with the
    constant eigenvector projected out of every iterate, accepted once the
    eigenpair residual drops to ``tol`` (which bounds the eigenvalue error
    for symmetric matrices); ``tol`` and ``max_iter`` bind only this
    iterative path.

    Raises:
        ValueError: for an unknown scope, a ``tol`` that is not finite and
            > 0, or ``max_iter`` < 1.
        ConvergenceError: if the iteration budget is exhausted.
    """
    if scope not in ("lcc", "global"):
        raise ValueError(f"unknown scope {scope!r}")
    if not (0 < tol < math.inf and max_iter >= 1):
        raise ValueError(f"need a finite tol > 0 and max_iter >= 1, "
                         f"got {tol!r} and {max_iter!r}")
    lcc = _as_lcc(g)
    n = len(lcc.degrees)
    if n < 2 or (scope == "global" and not lcc.spanning):
        return 0.0
    rows = np.repeat(np.arange(n), lcc.degrees)
    if n <= _DENSE_MAX:
        lap = np.zeros((n, n))
        lap[rows, lcc.indices] = -1.0
        lap[np.diag_indices(n)] = lcc.degrees
        return max(float(np.linalg.eigvalsh(lap)[1]), 0.0)
    diag = np.arange(n)
    lap = sp.csc_matrix(
        (
            np.concatenate([np.full(len(rows), -1.0), lcc.degrees.astype(float)]),
            (np.concatenate([rows, diag]), np.concatenate([lcc.indices, diag])),
        ),
        shape=(n, n),
    )
    return _fiedler_value(lap, n, tol, max_iter)


def _fiedler_value(lap: sp.csc_matrix, n: int, tol: float, max_iter: int) -> float:
    scale = float(lap.diagonal().max())
    if scale <= 0:
        return 0.0
    # Small positive shift keeps the factorization non-singular; the
    # constant eigenvector is projected out of every iterate instead.
    eps = 1e-5 * scale
    lu = splu(lap + eps * sp.identity(n, format="csc"))

    rng = derive_rng(0x51ED, n)
    block = min(2, n - 1)
    basis = rng.standard_normal((n, block))
    basis -= basis.mean(axis=0)

    residual = math.inf
    for _ in range(max_iter):
        work = lu.solve(basis)
        work -= work.mean(axis=0)
        if not np.all(np.isfinite(work)):
            basis = rng.standard_normal((n, block))
            basis -= basis.mean(axis=0)
            continue
        q, _ = np.linalg.qr(work)
        # Rayleigh-Ritz on the block: the bottom Ritz pair tracks the
        # smallest eigenvalue of the projected operator even when the two
        # lowest eigenvalues are clustered.
        lq = lap @ q
        theta, rot = np.linalg.eigh(q.T @ lq)
        vec = q @ rot[:, 0]
        rho = float(theta[0])
        residual = float(np.linalg.norm(lap @ vec - rho * vec))
        if residual <= tol:
            return max(rho, 0.0)
        basis = q @ rot
    raise ConvergenceError(residual, max_iter)


def max_modularity_cnm(g: Graph) -> tuple[float, dict[str, int]]:
    """Greedy agglomerative modularity maximization.

    Starts from singleton communities and repeatedly merges the connected
    pair with the largest modularity gain until no positive gain remains.
    Gains are compared in exact integer arithmetic, ties broken by the
    smallest (community-index, community-index) pair, so the result is
    fully deterministic. Returns the final (best) modularity and a node ->
    community assignment with 0-based contiguous indices.

    A graph without edges returns (0.0, all-singletons).
    """
    nodes = g.nodes()
    n = len(nodes)
    m = g.edge_count()
    if m == 0:
        return 0.0, {u: i for i, u in enumerate(nodes)}
    index = {u: i for i, u in enumerate(nodes)}
    comm_deg = [g.degree(u) for u in nodes]
    intra = [0] * n
    members: list[list[str]] = [[u] for u in nodes]
    alive = [True] * n
    nbr: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v in g.edges():
        i, j = index[u], index[v]
        nbr[i][j] = nbr[i].get(j, 0) + 1
        nbr[j][i] = nbr[j].get(i, 0) + 1

    def gain2(i: int, j: int) -> int:
        # Merge gain scaled by 2*m^2: positive iff modularity increases.
        return 2 * m * nbr[i].get(j, 0) - comm_deg[i] * comm_deg[j]

    heap = [(-gain2(i, j), i, j) for i in range(n) for j in nbr[i] if i < j]
    heapq.heapify(heap)
    while heap:
        neg, i, j = heapq.heappop(heap)
        if not alive[i] or not alive[j]:
            continue
        current = gain2(i, j)
        if -neg != current:
            continue  # stale entry; a fresh one is (or was) in the heap
        if current <= 0:
            break
        # merge j into i (i < j)
        alive[j] = False
        intra[i] += intra[j] + nbr[i].get(j, 0)
        comm_deg[i] += comm_deg[j]
        members[i].extend(members[j])
        nbr[i].pop(j, None)
        for k, cnt in nbr[j].items():
            if k == i:
                continue
            del nbr[k][j]
            nbr[i][k] = nbr[i].get(k, 0) + cnt
            nbr[k][i] = nbr[i][k]
        nbr[j] = {}
        for k in nbr[i]:
            a, b = (i, k) if i < k else (k, i)
            heapq.heappush(heap, (-gain2(a, b), a, b))

    intra_sum = sum(intra[c] for c in range(n) if alive[c])
    sq_sum = sum(comm_deg[c] * comm_deg[c] for c in range(n) if alive[c])
    q = (4 * m * intra_sum - sq_sum) / (4 * m * m)

    root_of: dict[str, int] = {}
    for c in range(n):
        if alive[c]:
            for u in members[c]:
                root_of[u] = c
    label_of_root: dict[int, int] = {}
    assignment: dict[str, int] = {}
    for u in nodes:
        root = root_of[u]
        if root not in label_of_root:
            label_of_root[root] = len(label_of_root)
        assignment[u] = label_of_root[root]
    return q, assignment


def k_core_subgraph(g: Graph, k: int) -> Graph:
    """Maximal subgraph in which every node has degree >= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    deg = {u: g.degree(u) for u in g.nodes()}
    removed = {u for u, d in deg.items() if d < k}
    queue = deque(removed)
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in removed:
                deg[v] -= 1
                if deg[v] < k:
                    removed.add(v)
                    queue.append(v)
    return g.subgraph(u for u in g.nodes() if u not in removed)


def k_core_components(g: Graph, k: int) -> int:
    """Number of connected components of the k-core; 0 if the core is empty."""
    return len(connected_components(k_core_subgraph(g, k)))


def k_brace_subgraph(g: Graph, k: int) -> Graph:
    """Fixpoint of deleting edges with fewer than k common endpoints' neighbors.

    Edge embeddedness is recomputed as edges disappear; isolated nodes are
    dropped once the edge set is stable.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = {u: set(g.neighbors(u)) for u in g.nodes()}
    emb: dict[tuple[str, str], int] = {}
    for u, v in g.edges():
        emb[(u, v)] = len(adj[u] & adj[v])
    queue = deque(e for e, c in emb.items() if c < k)
    while queue:
        u, v = queue.popleft()
        if v not in adj[u]:
            continue  # already deleted
        adj[u].discard(v)
        adj[v].discard(u)
        for w in adj[u] & adj[v]:
            for e in ((u, w) if u < w else (w, u), (v, w) if v < w else (w, v)):
                emb[e] -= 1
                if emb[e] == k - 1:
                    queue.append(e)
        del emb[(u, v)]
    survivors = {u for u, s in adj.items() if s}
    edges = [(u, v) for u in survivors for v in adj[u] if u < v]
    return Graph(edges, nodes=survivors)


def k_brace_components(g: Graph, k: int) -> int:
    """Number of connected components of the k-brace; 0 if it is empty."""
    return len(connected_components(k_brace_subgraph(g, k)))


def compute_features(
    g: Graph,
    k_set: Sequence[int] = DEFAULT_K_SET,
    *,
    count_mode: str = "components",
    lambda2_scope: str = "lcc",
    lambda2_tol: float = 1e-8,
    lambda2_max_iter: int = 10_000,
    path_sample_sources: int | None = None,
    path_sample_seed: int = 0,
) -> FeatureVector:
    """All measurements for one graph.

    ``count_mode`` selects how the k-core/k-brace columns are counted:
    ``"components"`` (default) counts connected components of the surviving
    subgraph, ``"nodes"`` counts its nodes. ``lambda2_scope`` selects
    whether algebraic connectivity is taken on the largest component
    (default) or the whole graph (0 when disconnected). Degree variance is
    the population variance of the degree sequence.
    """
    if count_mode not in ("components", "nodes"):
        raise ValueError(f"unknown count_mode {count_mode!r}")
    n = g.node_count()
    m = g.edge_count()
    if n == 0:
        zeros = tuple(0 for _ in k_set)
        return FeatureVector(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, zeros, zeros)
    degrees = np.array([g.degree(u) for u in g.nodes()], dtype=float)
    density = 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0
    avg_degree = 2.0 * m / n
    degree_variance = float(degrees.var())  # population variance

    modularity = max_modularity_cnm(g)[0] if m >= 1 else 0.0
    lcc = lcc_arrays(g)  # shared by the path length and lambda2

    kcore: list[int] = []
    kbrace: list[int] = []
    for k in k_set:
        if count_mode == "components":
            kcore.append(k_core_components(g, k))
            kbrace.append(k_brace_components(g, k))
        else:
            kcore.append(k_core_subgraph(g, k).node_count())
            kbrace.append(k_brace_subgraph(g, k).node_count())

    return FeatureVector(
        n_nodes=n,
        n_edges=m,
        density=density,
        avg_degree=avg_degree,
        degree_variance=degree_variance,
        avg_clustering=avg_clustering(g),
        degree_assortativity=degree_assortativity(g),
        avg_path_length_lcc=avg_path_length_lcc(
            lcc, sample_sources=path_sample_sources, seed=path_sample_seed
        ),
        algebraic_connectivity=algebraic_connectivity(
            lcc, tol=lambda2_tol, max_iter=lambda2_max_iter, scope=lambda2_scope
        ),
        max_modularity=modularity,
        kcore_components=tuple(kcore),
        kbrace_components=tuple(kbrace),
    )


def write_features_csv(
    path: str,
    rows: Iterable[tuple[str, FeatureVector]],
    k_set: Sequence[int] = DEFAULT_K_SET,
) -> None:
    """Write ``graph_id`` plus the 18 features per row; header mandatory.

    Reals are serialized with full round-trip precision (>= 12 significant
    digits), counts as plain integers.
    """
    write_csv(path, ["graph_id"] + feature_names(k_set), (
        [graph_id] + [str(v) if isinstance(v, int) else repr(v) for v in fv.as_row()]
        for graph_id, fv in rows
    ))


def read_features_csv(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Read a feature CSV; returns (graph ids, feature names, value matrix)."""
    header, rows = read_csv(path, None, lambda graph_id, *cells: (
        graph_id, [number(c) for c in cells]
    ))
    if header[:1] != ["graph_id"]:
        raise ValueError(f"{path}: line 1: missing feature CSV header")
    ids = [graph_id for graph_id, _ in rows]
    matrix = np.array([values for _, values in rows], dtype=float)
    return ids, header[1:], matrix.reshape(len(ids), len(header) - 1)
