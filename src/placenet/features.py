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
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

# bfs_distances and connected_components are unused here; the benchmark's
# tracer wraps them under these names.
from placenet.graph import (  # noqa: F401
    Graph,
    _from_indices,
    bfs_distances,
    connected_components,
    largest_connected_component,
    union,
)
from placenet.seeding import derive_rng
from placenet.tables import number, read_csv, unique, write_csv

DEFAULT_K_SET = (2, 4, 8, 16)

# Sources per bit-parallel BFS sweep: 8 uint64 words per node.
_BFS_BLOCK = 512

# Largest component that gets lambda2 from a dense eigvalsh. On random
# Laplacians, eigvalsh gave the same bits under 1 and 2 OpenBLAS threads up
# to 144 nodes and different last bits at most sizes from 148; shift-invert
# Lanczos, used above the cap, gives the same bits under both.
_DENSE_MAX = 128

# ARPACK's ncv for lambda2: Lanczos vectors kept between implicit restarts.
_KRYLOV_MAX = 20

class ConvergenceError(ArithmeticError):
    """Eigensolver failed or exhausted its budget; carries the residual."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


def feature_names(k_set: Sequence[int] = DEFAULT_K_SET) -> list[str]:
    """Canonical feature order used by vectors, CSV columns and rankings."""
    names = list(_FIELD_NAMES[:-2])
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
        *scalars, kcore, kbrace = (getattr(self, name) for name in _FIELD_NAMES)
        return [*scalars, *kcore, *kbrace]


_FIELD_NAMES = tuple(f.name for f in fields(FeatureVector))


def _edge_supports(g: Graph) -> tuple[list[tuple[int, int]], list[set[int]], list[int]]:
    """The edges ``(u, v)``, u < v, in ``edges()`` order, each node's
    neighbour set and each edge's support ``|N(u) & N(v)|``, all by node
    index."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    adj = [set(indices[indptr[i]:indptr[i + 1]]) for i in range(g.node_count())]
    u, v = g.edge_indices()
    edges = list(zip(u.tolist(), v.tolist()))
    return edges, adj, [len(adj[a] & adj[b]) for a, b in edges]


def _clustering(degrees: list[int], edges: list[tuple[int, int]], support: list[int]) -> float:
    # links(u), the sum of u's edge supports, counts each triangle at u twice
    links = [0] * len(degrees)
    for (u, v), s in zip(edges, support):
        links[u] += s
        links[v] += s
    total = 0.0
    for d, link in zip(degrees, links):
        if d >= 2:
            total += link / (d * (d - 1))
    return total / len(degrees)


def avg_clustering(g: Graph) -> float:
    """Mean local clustering coefficient over all nodes.

    Nodes with degree < 2 contribute 0; the empty graph maps to 0. Each
    node's triangles come from the supports of its edges.
    """
    if g.node_count() == 0:
        return 0.0
    edges, _, support = _edge_supports(g)
    return _clustering(np.diff(g.indptr).tolist(), edges, support)


def degree_assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over both edge orientations.

    Newman's form (PRL 2002) in exact integer sums, rounded once: over the
    M = 2m orientations, r = (M sum xy - (sum x)^2) / (M sum x^2 - (sum x)^2)
    with sum x = sum d^2, sum x^2 = sum d^3 and sum xy = sum of d_u times the
    degree sum of u's neighbours. Products and totals are Python ints, so r
    lies in [-1, 1] and does not depend on the node order. A zero
    denominator (no edges, or all endpoint degrees equal) gives 0.
    """
    deg = np.diff(g.indptr).astype(np.int64)
    ends = np.concatenate(([0], np.cumsum(deg[g.indices])))  # prefix sums by row
    d, nbr = deg.tolist(), (ends[g.indptr[1:]] - ends[g.indptr[:-1]]).tolist()
    orientations = len(g.indices)
    sx = sum(k * k for k in d)
    den = orientations * sum(k * k * k for k in d) - sx * sx
    num = orientations * sum(k * s for k, s in zip(d, nbr)) - sx * sx
    return num / den if den else 0.0


def avg_path_length_lcc(
    g: Graph,
    sample_sources: int | None = None,
    seed: int = 0,
) -> float:
    """Mean shortest-path length over node pairs of the largest component.

    Exact over all sources by default. When ``sample_sources`` is set and
    the component is larger, distances are averaged over the BFS trees of
    that many uniformly sampled source nodes instead (seeded,
    deterministic). Components with fewer than 2 nodes map to 0.

    The BFS runs bit-parallel (Then et al., PVLDB 2014): sources are taken
    in blocks of 512, one bit each, and every level ORs the frontier bits
    of each node's neighbours in one gather over the component's CSR
    arrays. A level costs O(m) word operations for a whole block, so a
    block costs O(m * eccentricity); the extra memory is that gather,
    about 64 bytes per directed edge. Hop counts are summed as exact
    integers, so the result equals a per-source BFS bit for bit.
    """
    lcc = largest_connected_component(g)
    n = lcc.node_count()
    if n < 2:
        return 0.0
    if sample_sources is not None and 0 < sample_sources < n:
        rng = derive_rng(seed, 0x0A71, n)
        sources = np.sort(rng.choice(n, size=sample_sources, replace=False))
    else:
        sources = np.arange(n)
    total = sum(
        _distance_sum(lcc.indptr[:-1], lcc.indices, sources[lo:lo + _BFS_BLOCK])
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
    g: Graph,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    scope: str = "lcc",
) -> float:
    """Second-smallest Laplacian eigenvalue (Fiedler value).

    Computed on the largest connected component by default; with
    ``scope="global"`` the result is 0 unless that component holds every
    node. Components with fewer than 2 nodes map to 0.

    Components of at most 128 nodes get their Laplacian spectrum from a
    dense symmetric eigensolver (``numpy.linalg.eigvalsh``), which needs no
    iteration budget. Larger ones use ARPACK's Lanczos (``eigsh``) on the
    shift-inverted Laplacian with the constant vector projected out,
    accepted once the eigenpair residual drops to ``tol`` (which bounds the
    eigenvalue error for symmetric matrices) within ``max_iter`` sparse LU
    solves; ``tol`` and ``max_iter`` bind only this iterative path.

    Raises:
        ValueError: for an unknown scope, a ``tol`` that is not finite and
            > 0, or ``max_iter`` < 1.
        ConvergenceError: if the solve budget is exhausted, a solve is not
            finite, ARPACK fails or the residual stays above ``tol``.
    """
    _check_lambda2(scope, tol, max_iter)
    lcc = largest_connected_component(g)
    n = lcc.node_count()
    if n < 2 or (scope == "global" and n < g.node_count()):
        return 0.0
    degrees = np.diff(lcc.indptr)
    rows = np.repeat(np.arange(n), degrees)
    if n <= _DENSE_MAX:
        lap = np.zeros((n, n))
        lap[rows, lcc.indices] = -1.0
        lap[np.diag_indices(n)] = degrees
        return max(float(np.linalg.eigvalsh(lap)[1]), 0.0)
    eps = 1e-5 * float(degrees.max())  # > 0, as the component is connected
    diag = np.arange(n)
    shifted = sp.csc_matrix((np.concatenate([np.full(len(rows), -1.0), degrees + eps]), (
        np.concatenate([rows, diag]), np.concatenate([lcc.indices, diag]))), shape=(n, n))
    return _fiedler_value(shifted, eps, tol, max_iter)


def _check_lambda2(scope: str, tol: float, max_iter: int) -> None:
    if scope not in ("lcc", "global"):
        raise ValueError(f"unknown scope {scope!r}")
    if not (0 < tol < math.inf and max_iter >= 1):
        raise ValueError(f"need a finite tol > 0 and max_iter >= 1, "
                         f"got {tol!r} and {max_iter!r}")


def _fiedler_value(shifted: sp.csc_matrix, eps: float, tol: float, max_iter: int) -> float:
    """lambda2 of L from ``shifted`` = L + eps*I, positive definite, by ARPACK's
    Lanczos on its inverse with the constant vector projected out, whose largest
    eigenvalue is 1 / (lambda2 + eps) (Ericsson & Ruhe 1980)."""
    n = shifted.shape[0]
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
              options={"SymmetricMode": True})  # diagonal pivots: positive definite
    solves, last = 0, np.empty(n)

    def rayleigh(v: np.ndarray) -> tuple[float, float]:  # quotient and residual
        v = v / np.linalg.norm(v)
        sv = shifted @ v
        theta = float(v @ sv)
        return theta, float(np.linalg.norm(sv - theta * v))

    def solve(x: np.ndarray) -> np.ndarray:
        nonlocal solves
        last[:] = x
        if solves < max_iter:
            solves += 1
            w = lu.solve(x)
            if np.isfinite(w).all():
                return w - w.mean()
        raise ConvergenceError(rayleigh(x)[1], solves)

    v0 = derive_rng(0x51ED, n).standard_normal(n)
    # ARPACK's tolerance is relative to 1 / (lambda2 + eps); scaled by a bound
    # on ||L + eps*I||, its stop implies the residual bound checked below.
    try:
        vec = eigsh(LinearOperator((n, n), matvec=solve, dtype=float), k=1, which="LA",
                    v0=v0 - v0.mean(), ncv=min(_KRYLOV_MAX, n - 1),
                    tol=tol / (2 * shifted.diagonal().max()))[1][:, 0]
    except ArpackError as err:
        raise ConvergenceError(rayleigh(last)[1], solves) from err
    theta, residual = rayleigh(vec)
    if residual > tol:
        raise ConvergenceError(residual, solves)
    return max(theta - eps, 0.0)


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
    two_m = 2 * m
    deg = np.diff(g.indptr).tolist()
    q4m2 = -sum(d * d for d in deg)  # 4m^2 * Q, grown by twice each merge's gain
    # each node's community, named by its smallest member as merges keep i < j
    parent = list(range(n))
    nbr: list[dict[int, int]] = [{} for _ in range(n)]
    pairs = list(zip(*(a.tolist() for a in g.edge_indices())))
    for i, j in pairs:
        nbr[i][j] = nbr[j][i] = 1
    # Keys are (-gain, i, j), i < j, with the exact gain 2m*e_ij - a_i*a_j
    # (scaled by 2m^2). Each live pair has an entry whose stored gain is at
    # least its gain, so the first exact top is the (gain, -i, -j) maximum.
    heap = [(deg[i] * deg[j] - two_m, i, j) for i, j in pairs]
    heapq.heapify(heap)
    while heap:
        neg, i, j = heap[0]
        if parent[i] != i or parent[j] != j:
            heapq.heappop(heap)
            continue
        current = two_m * nbr[i][j] - deg[i] * deg[j]
        if -neg > current:  # a loose bound: re-key it in place
            heapq.heapreplace(heap, (-current, i, j))
            continue
        heapq.heappop(heap)
        if -neg < current:
            continue  # a fresher entry bounds this pair
        if current <= 0:
            break
        parent[j] = i  # merge j into i (i < j)
        q4m2 += 2 * current
        row, a_j = nbr[i], deg[j]
        del row[j], nbr[j][i]
        a_i = deg[i] = deg[i] + a_j
        for k, cnt in nbr[j].items():
            del nbr[k][j]
            old = row.get(k)
            row[k] = nbr[k][i] = cnt if old is None else old + cnt
            # A new pair needs an entry; a shared k gains only by a positive
            # j-side gain, and pairs with i's other neighbours only lose.
            if old is None or two_m * cnt > a_j * deg[k]:
                a, b = (i, k) if i < k else (k, i)
                heapq.heappush(heap, (a_i * deg[k] - two_m * row[k], a, b))
        nbr[j] = {}

    q = q4m2 / (two_m * two_m)
    for x in range(n):  # parent[x] < x unless x is a root
        parent[x] = parent[parent[x]]
    label = {root: i for i, root in enumerate(dict.fromkeys(parent))}
    return q, {u: label[root] for u, root in zip(nodes, parent)}


def _check_k(k_set: Iterable[int]) -> None:
    if any(k < 1 for k in k_set):
        raise ValueError("k must be >= 1")


def _peel(keys: list[int], lowered: Callable[[int], Iterable[int]]) -> list[int]:
    """Level of every item in a bucket peel.

    At each level k, from 0 up, items whose key is at most k are removed
    and get level k; ``lowered(i)`` names the items whose key drops by one
    when item i goes. Buckets hold stale entries instead of moving items,
    so a peel costs O(items + decrements). ``keys`` is consumed.
    """
    buckets: list[list[int]] = [[] for _ in range(max(keys, default=0) + 1)]
    for i, key in enumerate(keys):
        buckets[key].append(i)
    level = [-1] * len(keys)
    for k, bucket in enumerate(buckets):
        while bucket:
            i = bucket.pop()
            if level[i] < 0:
                level[i] = k
                for j in lowered(i):
                    if level[j] < 0:
                        key = keys[j] = keys[j] - 1
                        buckets[key if key > k else k].append(j)
    return level


def _core_numbers(g: Graph) -> list[int]:
    """Core number of every node, the largest k whose k-core holds it:
    nodes peeled by degree (Batagelj & Zaversnik 2003)."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    return _peel(np.diff(g.indptr).tolist(), lambda v: indices[indptr[v]:indptr[v + 1]])


def _brace_numbers(
    edges: list[tuple[int, int]], adj: list[set[int]], support: list[int]
) -> list[int]:
    """Brace number of every edge, the largest k whose k-brace keeps it:
    edges peeled by support (truss decomposition, Wang & Cheng, VLDB 2012).

    An edge that goes lowers the support of the other two edges of every
    triangle it closed. Takes the output of ``_edge_supports`` and empties
    ``adj``.
    """
    n = len(adj)
    edge_id = {u * n + v: e for e, (u, v) in enumerate(edges)}

    def lowered(e: int):
        u, v = edges[e]
        adj[u].discard(v)
        adj[v].discard(u)
        for w in adj[u] & adj[v]:
            yield edge_id[min(u, w) * n + max(u, w)]
            yield edge_id[min(v, w) * n + max(v, w)]

    return _peel(list(support), lowered)


def _level_counts(
    n: int, edges: list[tuple[int, int]], edge_level: list[int],
    k_set: Sequence[int], count_mode: str,
) -> list[int]:
    """For each k, the components (or nodes) of the subgraph formed by the
    edges of level at least k and their endpoints.

    One union-find adds the edges from the top level down and reads the
    count at each level, so the whole k-set costs one pass.
    """
    top = max(edge_level, default=0)
    edges_at: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for edge, level in zip(edges, edge_level):
        edges_at[level].append(edge)
    parent = list(range(n))
    seen = [False] * n
    count = [0] * (top + 1)
    nodes = comps = 0
    for level in range(top, 0, -1):
        for u, v in edges_at[level]:
            fresh = (not seen[u]) + (not seen[v])
            seen[u] = seen[v] = True
            nodes += fresh
            comps += fresh - union(parent, u, v)
        count[level] = comps if count_mode == "components" else nodes
    return [count[k] if k <= top else 0 for k in k_set]


def _core_edge_levels(g: Graph, edges: list[tuple[int, int]]) -> list[int]:
    # A node of core number c >= 1 has an edge to the c-core, so the
    # k-core is the edges whose endpoints both have core number >= k,
    # plus their endpoints.
    core = _core_numbers(g)
    return [min(core[u], core[v]) for u, v in edges]


def k_core_subgraph(g: Graph, k: int) -> Graph:
    """Maximal subgraph in which every node has degree >= k: the nodes of
    core number at least k."""
    _check_k((k,))
    return g._induced(np.array(_core_numbers(g)) >= k)


def k_brace_subgraph(g: Graph, k: int) -> Graph:
    """Fixpoint of deleting edges with fewer than k common endpoints' neighbors.

    Embeddedness counts only edges still present, so this keeps the edges
    of brace number at least k; nodes left without an edge are dropped.
    """
    _check_k((k,))
    u, v = g.edge_indices()
    kept = np.array(_brace_numbers(*_edge_supports(g))) >= k
    ends, uv = np.unique(np.concatenate([u[kept], v[kept]]), return_inverse=True)
    return _from_indices([g.nodes()[i] for i in ends.tolist()], *uv.reshape(2, -1))


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
    (n sum d^2 - (2m)^2) / n^2 in exact integers, rounded once, so like
    degree assortativity it does not depend on the node order.
    """
    if count_mode not in ("components", "nodes"):
        raise ValueError(f"unknown count_mode {count_mode!r}")
    _check_k(k_set)
    _check_lambda2(lambda2_scope, lambda2_tol, lambda2_max_iter)
    n = g.node_count()
    m = g.edge_count()
    if n == 0:
        zeros = tuple(0 for _ in k_set)
        return FeatureVector(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, zeros, zeros)
    degrees = np.diff(g.indptr).tolist()
    density = 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0
    avg_degree = 2.0 * m / n
    degree_variance = (n * sum(k * k for k in degrees) - 4 * m * m) / (n * n)

    modularity = max_modularity_cnm(g)[0] if m >= 1 else 0.0
    # one support pass for clustering and the brace peel
    edges, adj, support = _edge_supports(g)
    clustering = _clustering(degrees, edges, support)
    kcore = _level_counts(n, edges, _core_edge_levels(g, edges), k_set, count_mode)
    kbrace = _level_counts(n, edges, _brace_numbers(edges, adj, support), k_set, count_mode)

    return FeatureVector(
        n_nodes=n,
        n_edges=m,
        density=density,
        avg_degree=avg_degree,
        degree_variance=degree_variance,
        avg_clustering=clustering,
        degree_assortativity=degree_assortativity(g),
        avg_path_length_lcc=avg_path_length_lcc(
            g, sample_sources=path_sample_sources, seed=path_sample_seed
        ),
        algebraic_connectivity=algebraic_connectivity(
            g, tol=lambda2_tol, max_iter=lambda2_max_iter, scope=lambda2_scope
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
    seen: set[str] = set()
    header, rows = read_csv(path, None, lambda graph_id, *cells: (
        unique(seen, graph_id, "graph id"), [number(c) for c in cells]
    ))
    if header[:1] != ["graph_id"] or len(header) < 2:
        raise ValueError(f"{path}: line 1: expected graph_id and feature names in the header")
    ids = [graph_id for graph_id, _ in rows]
    matrix = np.array([values for _, values in rows], dtype=float)
    return ids, header[1:], matrix.reshape(len(ids), len(header) - 1)
