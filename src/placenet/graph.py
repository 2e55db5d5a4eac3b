"""Undirected simple graphs with opaque string node ids."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import compress
from typing import Iterable, Sequence

import numpy as np


class GraphParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Immutable undirected simple graph.

    Node ids are opaque strings. Self-loop edges passed to the constructor
    register the node but no edge; duplicate edges collapse to one. The
    graph is stored as its sorted node ids and one int32 CSR adjacency,
    built once by ``_build`` (or, for a subgraph, ``_induced``): node ``i`` is
    ``nodes()[i]`` and its neighbours are ``indices[indptr[i]:indptr[i + 1]]``,
    sorted. Both arrays are read-only. Two other fields, the largest
    component and the structure read by ``compute_features`` (link counts,
    and k-core and k-brace counts at every level), are filled on first use
    or by ``placenet.features.decompose``, idempotently with equal values,
    so instances are safe to share across concurrent feature computations.
    """

    __slots__ = ("_nodes", "indptr", "indices", "_lcc", "_structure")

    def __init__(self, edges: Iterable[tuple[str, str]] = (), nodes: Iterable[str] = ()):
        ends = [w for u, v in edges for w in (u, v)]
        index = {w: i for i, w in enumerate(dict.fromkeys([*nodes, *ends]))}
        uv = np.fromiter(map(index.__getitem__, ends), np.intp, len(ends))
        self._build(tuple(index), uv[0::2], uv[1::2])

    def _build(self, ids: Sequence[str], u: np.ndarray, v: np.ndarray) -> "Graph":
        """Fill this graph from the unique node ids ``ids``, in any order,
        and the edges ``ids[u[e]] -- ids[v[e]]``; loops and repeated edges
        are dropped."""
        n = len(ids)
        order = sorted(range(n), key=ids.__getitem__)
        rank = np.empty(n, np.int64)
        rank[order] = np.arange(n)
        # row-major keys of both orientations: one sort gives sorted rows
        keys = rank[np.concatenate([u, v])] * n + rank[np.concatenate([v, u])]
        keys.sort()
        rows, cols = np.divmod(keys, n)
        simple = rows != cols  # and not a repeat of the key before
        simple[1:] &= keys[1:] != keys[:-1]
        indptr = np.searchsorted(rows[simple], np.arange(n + 1)).astype(np.int32)
        indices = cols[simple].astype(np.int32)
        return self._set(tuple(ids[i] for i in order), indptr, indices)

    def _set(self, ids: tuple[str, ...], indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Fill this graph from its sorted node ids and their int32 CSR."""
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._nodes, self.indptr, self.indices = ids, indptr, indices
        self._lcc = self._structure = None
        return self

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def nodes(self) -> tuple[str, ...]:
        """All node ids in sorted order."""
        return self._nodes

    def edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Node indices ``(u, v)`` of every edge, u < v, sorted by (u, v)."""
        degrees = self.indptr[1:] - self.indptr[:-1]
        rows = np.repeat(np.arange(len(self._nodes), dtype=np.int32), degrees)
        upper = self.indices > rows
        return rows[upper], self.indices[upper]

    def _induced(self, mask: np.ndarray) -> "Graph":
        """Induced subgraph on the nodes where ``mask`` is true: this CSR's kept
        rows less the dropped neighbours, renumbered in order, so still sorted."""
        kept = np.repeat(mask, np.diff(self.indptr)) & mask[self.indices]
        before = np.insert(np.cumsum(kept, dtype=np.int32), 0, 0)  # kept entries before
        indptr = before[np.append(self.indptr[:-1][mask], len(kept))]
        indices = (np.cumsum(mask, dtype=np.int32) - 1)[self.indices[kept]]
        ids = tuple(compress(self._nodes, mask.tolist()))
        return Graph.__new__(Graph)._set(ids, indptr, indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._nodes == other._nodes
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count()}, m={self.edge_count()})"


def _from_indices(ids: Sequence[str], u: np.ndarray, v: np.ndarray) -> Graph:
    """A new graph, built by ``Graph._build`` from index arrays."""
    return Graph.__new__(Graph)._build(ids, u, v)


def parse_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse edge-list text into a graph.

    One edge per line as two whitespace-separated tokens. Only ``\\n``,
    ``\\r\\n`` and ``\\r`` end a line: a form feed and the other separators
    of ``str.splitlines`` are whitespace. Blank lines and lines starting
    with ``#`` are ignored; duplicate and reversed duplicate lines collapse
    to one edge. A self-loop line ``u u`` registers the node but adds no
    edge (this is also how isolated nodes survive a serialize/parse round
    trip). No id starts with ``#``: written first on a line, it would make
    the line a comment.

    Raises:
        GraphParseError: if a non-comment line does not hold exactly two
            tokens, or a token starts with ``#``; the error carries the
            1-based line number.
    """
    if isinstance(source, str):
        source = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    edges: list[tuple[str, str]] = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(line_no, f"expected 2 tokens, found {len(parts)}")
        u, v = parts
        if v.startswith("#"):  # u cannot: the line would be a comment
            raise GraphParseError(line_no, f"node id {v!r} starts with '#'")
        edges.append((u, v))
    return Graph(edges)


def serialize_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list format accepted by parse_edge_list.

    Edges come first in sorted order, then isolated nodes as self-loop
    lines, so ``parse_edge_list(serialize_edge_list(g)) == g`` for every
    graph it writes. Output is byte-deterministic.

    Raises:
        ValueError: if a node id is empty, holds whitespace or starts with
            ``#``, which the format cannot hold.
    """
    names = g.nodes()
    bad = next((w for w in names if w.split() != [w] or w[0] == "#"), None)
    if bad is not None:
        raise ValueError(f"node id {bad!r} cannot be written to an edge list")
    u, v = g.edge_indices()
    out = [f"{names[i]} {names[j]}" for i, j in zip(u.tolist(), v.tolist())]
    indptr = g.indptr.tolist()
    out.extend(f"{w} {w}" for w, a, b in zip(names, indptr, indptr[1:]) if a == b)
    return "\n".join(out) + ("\n" if out else "")


def _join(label: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Join the components of the ends of each edge ``u[e] -- v[e]`` in
    ``label``, which gives every node its component's smallest node, and
    return the roots hooked. Each round hooks the larger root of each edge
    across components under the smaller (the smallest if several), then
    jumps pointers (min-label propagation, Shiloach & Vishkin 1982)."""
    hooked = [u[:0]]
    while True:
        u, v = label[u], label[v]
        apart = u != v
        if not apart.any():
            return np.concatenate(hooked)
        u, v = u[apart], v[apart]
        hi = np.maximum(u, v)
        np.minimum.at(label, hi, np.minimum(u, v))
        hooked.append(hi)
        while not np.array_equal(up := label[label], label):
            label[:] = up


def _keep_lcc(graphs: Sequence[Graph], label: np.ndarray) -> None:
    """Keep on each graph its largest component, from ``_join``'s labels of
    the graphs' disjoint union, nodes numbered graph after graph."""
    size = np.bincount(label, minlength=len(label))
    start = 0
    for g in graphs:
        n = g.node_count()
        # argmax keeps the first maximum, the component of the smallest id
        top = start + int(size[start:start + n].argmax()) if n else 0
        g._lcc = g._induced(label[start:start + n] == top)
        start += n


def _component_labels(g: Graph) -> np.ndarray:
    """Each node's component, named by the index of its smallest member."""
    label = np.arange(g.node_count(), dtype=np.int32)
    _join(label, *g.edge_indices())
    return label


def connected_components(g: Graph) -> list[list[str]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    comps: dict[int, list[str]] = {}
    for u, root in zip(g.nodes(), _component_labels(g).tolist()):
        comps.setdefault(root, []).append(u)
    return list(comps.values())


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, as a new graph.

    Size ties go to the component containing the lexicographically smallest
    node id; the empty graph maps to the empty graph. The first call (or
    ``placenet.features.decompose``) keeps the result on ``g`` and later
    calls return that same object: a graph is searched for components once.
    """
    if g._lcc is None:
        _keep_lcc([g], _component_labels(g))
    return g._lcc


def bfs_distances(g: Graph, source: str) -> dict[str, int]:
    """Exact hop counts from *source*; unreachable nodes are absent.

    Raises:
        ValueError: if *source* is not a node of the graph.
    """
    names = g.nodes()
    start = bisect_left(names, source)
    if start == len(names) or names[start] != source:
        raise ValueError(f"node {source!r} is not in the graph")
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in indices[indptr[u]:indptr[u + 1]]:
            if v not in dist:
                dist[v] = du
                queue.append(v)
    return {names[i]: d for i, d in dist.items()}
