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
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

# bfs_distances and connected_components are unused here; the benchmark's
# tracer wraps them under these names.
from placenet.graph import (  # noqa: F401
    Graph,
    _from_indices,
    _join,
    _keep_lcc,
    bfs_distances,
    connected_components,
    largest_connected_component,
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

# Wedges checked for triangles at a time: under 1 MB of index arrays.
_WEDGE_BLOCK = 1 << 12

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


def _clustering(degrees: list[int], links: list[int]) -> float:
    # links(u), the sum of u's edge supports, counts each triangle at u
    # twice; the terms are added in node order
    total = 0.0
    for d, link in zip(degrees, links):
        if d >= 2:
            total += link / (d * (d - 1))
    return total / len(degrees)


def avg_clustering(g: Graph) -> float:
    """Mean local clustering coefficient over all nodes.

    Nodes with degree < 2 contribute 0; the empty graph maps to 0. Each
    node's triangles come from ``decompose``'s link counts.
    """
    if g.node_count() == 0:
        return 0.0
    return _clustering(np.diff(g.indptr).tolist(), _structure(g)[0])


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


def _structure(g: Graph) -> tuple[list[int], dict, dict]:
    if g._structure is None:
        decompose([g])
    return g._structure


def _peel(key: np.ndarray, ptr: np.ndarray, near: np.ndarray, groups=None) -> np.ndarray:
    """Level of every item in a level-synchronous peel (Dasari, Ranjan &
    Zubair, "ParK", IEEE BigData 2014): at each level k, from 0 up, all
    items of int64 key <= k go at once, until none is left. When item i
    goes, each item of its row ``near[ptr[i]:ptr[i + 1]]`` loses one; with
    ``groups``, that row names groups instead, whose items lose one once."""
    level, alive = np.zeros(len(key), np.int32), np.ones(len(key), bool)
    live = None if groups is None else np.ones(len(groups), bool)
    k, left, gone = 0, len(key), np.flatnonzero(key <= 0)
    while left:
        if not len(gone):
            k = int(key[alive].min())
            gone = np.flatnonzero(alive & (key <= k))
        alive[gone] = False
        level[gone] = k
        left -= len(gone)
        start, count = ptr[gone], ptr[gone + 1] - ptr[gone]
        hit = near[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
        if groups is not None:
            hit = np.unique(hit[live[hit]])
            live[hit] = False
            hit = groups[hit].ravel()
        np.subtract.at(key, hit, 1)
        gone = np.unique(hit[alive[hit] & (key[hit] <= k)])
    return level


def _triangles(indptr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each triangle's three edge ids, of the graph with CSR ``indptr`` and
    edges ``u[e] -- v[e]`` sorted by (u, v): wedges of edges pointed up the
    (degree, index) rank, closed by a search of the edge keys (Schank &
    Wagner, WEA 2005), ``_WEDGE_BLOCK`` wedges at a time."""
    n, m = len(indptr) - 1, len(u)
    rank = np.diff(indptr).astype(np.int64) * n + np.arange(n)
    flip = rank[u] > rank[v]
    src = np.where(flip, v, u)
    out = np.argsort(src, kind="stable").astype(np.int32)  # edge ids by source
    src, dst = src[out], np.where(flip, u, v)[out]
    keys = u.astype(np.int64) * n + v
    # each out-edge pairs with the later out-edges of its source
    later = np.cumsum(np.bincount(src, minlength=n))[src] - np.arange(1, m + 1)
    ends = np.cumsum(later)
    del rank, flip, src
    found, p = [np.zeros((0, 3), np.int32)], 0
    while p < m:
        q = max(p + 1, int(np.searchsorted(ends, ends[p] - later[p] + _WEDGE_BLOCK, "right")))
        count = later[p:q]
        first = np.repeat(np.arange(p, q), count)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
        a, b = dst[first], dst[second]
        key = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
        third = np.minimum(np.searchsorted(keys, key), m - 1)
        hit = keys[third] == key
        found.append(np.stack([out[first[hit]], out[second[hit]], third[hit]], 1, dtype=np.int32))
        p = q
    return np.concatenate(found)


def _level_counts(offsets: np.ndarray, u: np.ndarray, v: np.ndarray, level: np.ndarray):
    """Per graph of a union (nodes from ``offsets``), for k = 1 up to its
    top level, the nodes and components of its edges of level >= k; and
    ``_join``'s labels once every edge of level >= 1 is in. Edges join from
    the top level down, and each root hooked is one component less."""
    n = offsets[-1]
    node_level, hooked = np.zeros(n, np.int32), np.zeros(n, np.int32)
    np.maximum.at(node_level, u, level)
    np.maximum.at(node_level, v, level)
    label = np.arange(n, dtype=np.int32)
    order = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[order], np.arange(level.max(initial=0) + 2))
    for k in range(len(bounds) - 2, 0, -1):
        at = order[bounds[k]:bounds[k + 1]]
        hooked[_join(label, u[at], v[at])] = k
    # per graph, slots for k = 1..top and one where the runs of +1 end
    graph = np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets))
    top = np.zeros(len(offsets) - 1, np.int32)
    np.maximum.at(top, graph, node_level)
    first = np.cumsum(top + 1) - top - 1
    start, size = first[graph], int((top + 1).sum())

    def at_least(x):  # per graph and k, the nodes with x >= k
        c = np.cumsum(np.bincount(start, minlength=size) - np.bincount(start + x, minlength=size))
        return [c[i:i + t] for i, t in zip(first.tolist(), top.tolist())]

    counts = zip(at_least(node_level), at_least(hooked))
    return [{"nodes": a.tolist(), "components": (a - b).tolist()} for a, b in counts], label


def decompose(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """Fill every graph's largest component and structure in one array pass
    over their disjoint union, held as one CSR, in O(n + m + triangles)
    memory; return the union's core number of every node and brace number
    of every edge, in node and ``edge_indices`` order.

    A structure is each node's link count (its edges' supports summed:
    twice its triangles) and, per count mode, the k-core and k-brace counts
    for k = 1 up to the top level. An edge's core level is the smaller core
    number of its ends: a node of core c >= 1 has an edge into the c-core.
    """
    offsets = np.cumsum([0] + [g.node_count() for g in graphs])
    starts = np.cumsum([0] + [len(g.indices) for g in graphs])
    indptr = np.concatenate([np.zeros(1, np.int32)] + [
        g.indptr[1:] + s for g, s in zip(graphs, starts.tolist())])
    indices = np.concatenate([np.zeros(0, np.int32)] + [
        g.indices + o for g, o in zip(graphs, offsets.tolist())])
    core = _peel(np.diff(indptr).astype(np.int64), indptr, indices)  # by degree
    u = np.repeat(np.arange(offsets[-1], dtype=np.int32), np.diff(indptr))
    upper = indices > u
    u, v = u[upper], indices[upper]
    del indices, upper  # a chunk's arrays go as soon as they are used
    tri = _triangles(indptr, u, v)
    del indptr
    support = np.bincount(tri.ravel(), minlength=len(u))
    links = np.zeros(offsets[-1], np.int64)
    np.add.at(links, u, support)
    np.add.at(links, v, support)
    # edges peeled by support (truss decomposition, Wang & Cheng, VLDB 2012)
    by_edge = (np.argsort(tri.ravel(), kind="stable") // 3).astype(np.int32)
    brace = _peel(support, np.concatenate(([0], np.cumsum(support))), by_edge, tri)
    del tri, by_edge, support
    kcore, label = _level_counts(offsets, u, v, np.minimum(core[u], core[v]))
    kbrace = _level_counts(offsets, u, v, brace)[0]
    _keep_lcc(graphs, label)
    for i, g in enumerate(graphs):
        g._structure = links[offsets[i]:offsets[i + 1]].tolist(), kcore[i], kbrace[i]
    return core, brace


def k_core_subgraph(g: Graph, k: int) -> Graph:
    """Maximal subgraph in which every node has degree >= k: the nodes of
    core number at least k."""
    _check_k((k,))
    return g._induced(decompose([g])[0] >= k)


def k_brace_subgraph(g: Graph, k: int) -> Graph:
    """Fixpoint of deleting edges with fewer than k common endpoints' neighbors.

    Embeddedness counts only edges still present, so this keeps the edges
    of brace number at least k; nodes left without an edge are dropped.
    """
    _check_k((k,))
    u, v = g.edge_indices()
    kept = decompose([g])[1] >= k
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
    degree assortativity it does not depend on the node order. Clustering
    and the k columns read the structure that ``decompose`` keeps on ``g``.
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
    links, *levels = _structure(g)
    kcore, kbrace = ([c[k - 1] if k <= len(c) else 0 for k in k_set]
                     for c in (counts[count_mode] for counts in levels))

    return FeatureVector(
        n_nodes=n,
        n_edges=m,
        density=density,
        avg_degree=avg_degree,
        degree_variance=degree_variance,
        avg_clustering=_clustering(degrees, links),
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
