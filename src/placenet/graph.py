"""Undirected simple graphs with opaque string node ids."""

from __future__ import annotations

from collections import deque
from itertools import accumulate, chain
from typing import Iterable

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
    built once here: node ``i`` is ``nodes()[i]`` and its neighbours are
    ``indices[indptr[i]:indptr[i + 1]]``, sorted. Both arrays are
    read-only. The one other field, the largest component kept by
    ``largest_connected_component``, is filled idempotently with an equal
    graph, so instances are safe to share across concurrent feature
    computations.
    """

    __slots__ = ("_nodes", "_index", "indptr", "indices", "_lcc")

    def __init__(self, edges: Iterable[tuple[str, str]] = (), nodes: Iterable[str] = ()):
        us: list[str] = []
        vs: list[str] = []
        for u, v in edges:
            us.append(u)
            vs.append(v)
        ids = tuple(sorted({*nodes, *us, *vs}))
        n = len(ids)
        index = dict(zip(ids, range(n)))
        adj: list[set[int]] = [set() for _ in ids]
        for i, j in zip(map(index.__getitem__, us), map(index.__getitem__, vs)):
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
        lists = [sorted(row) for row in adj]
        indptr = np.fromiter(accumulate(map(len, lists), initial=0), np.int32, n + 1)
        indices = np.fromiter(chain.from_iterable(lists), np.int32, int(indptr[-1]))
        self._set(ids, index, indptr, indices)

    def _set(self, ids: tuple[str, ...], index: dict[str, int],
             indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._nodes, self._index, self.indptr, self.indices = ids, index, indptr, indices
        self._lcc = None
        return self

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def nodes(self) -> tuple[str, ...]:
        """All node ids in sorted order."""
        return self._nodes

    def neighbors(self, u: str) -> frozenset[str]:
        """Neighbor ids of *u*, as a new frozenset."""
        i = self._index[u]
        row = self.indices[self.indptr[i]:self.indptr[i + 1]].tolist()
        return frozenset(map(self._nodes.__getitem__, row))

    def degree(self, u: str) -> int:
        i = self._index[u]
        return int(self.indptr[i + 1] - self.indptr[i])

    def has_node(self, u: str) -> bool:
        return u in self._index

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None:
            return False
        row = self.indices[self.indptr[i]:self.indptr[i + 1]]
        k = int(np.searchsorted(row, j))
        return k < len(row) and row[k] == j

    def edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Node indices ``(u, v)`` of every edge, u < v, in ``edges()`` order."""
        degrees = self.indptr[1:] - self.indptr[:-1]
        rows = np.repeat(np.arange(len(self._nodes), dtype=np.int32), degrees)
        upper = self.indices > rows
        return rows[upper], self.indices[upper]

    def edges(self) -> list[tuple[str, str]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        name = self._nodes.__getitem__
        u, v = self.edge_indices()
        return list(zip(map(name, u.tolist()), map(name, v.tolist())))

    def subgraph(self, keep: Iterable[str]) -> "Graph":
        """Induced subgraph on ``keep`` (unknown ids are ignored)."""
        mask = np.zeros(len(self._nodes), dtype=bool)
        mask[[self._index[u] for u in keep if u in self._index]] = True
        return self._induced(mask)

    def _induced(self, mask: np.ndarray) -> "Graph":
        """Induced subgraph on the nodes where ``mask`` is true."""
        n = len(self._nodes)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        kept = mask[rows] & mask[self.indices]
        indptr = np.zeros(int(mask.sum()) + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows[kept], minlength=n)[mask], out=indptr[1:])
        relabel = (np.cumsum(mask) - 1).astype(np.int32)
        ids = tuple(u for u, keep in zip(self._nodes, mask.tolist()) if keep)
        return Graph.__new__(Graph)._set(
            ids, dict(zip(ids, range(len(ids)))), indptr, relabel[self.indices[kept]]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._nodes == other._nodes
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count()}, m={self.edge_count()})"


def parse_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse edge-list text into a graph.

    One edge per line as two whitespace-separated tokens. Blank lines and
    lines starting with ``#`` are ignored; duplicate and reversed duplicate
    lines collapse to one edge. A self-loop line ``u u`` registers the node
    but adds no edge (this is also how isolated nodes survive a
    serialize/parse round trip).

    Raises:
        GraphParseError: if a non-comment line does not hold exactly two
            tokens; the error carries the 1-based line number.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    edges: list[tuple[str, str]] = []
    lone: list[str] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(line_no, f"expected 2 tokens, found {len(parts)}")
        u, v = parts
        if u == v:
            lone.append(u)
        else:
            edges.append((u, v))
    return Graph(edges, nodes=lone)


def serialize_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list format accepted by parse_edge_list.

    Edges come first in sorted order, then isolated nodes as self-loop
    lines, so ``parse_edge_list(serialize_edge_list(g)) == g`` for every
    graph. Output is byte-deterministic.
    """
    out = [f"{u} {v}" for u, v in g.edges()]
    indptr = g.indptr.tolist()
    out.extend(f"{u} {u}" for u, a, b in zip(g.nodes(), indptr, indptr[1:]) if a == b)
    return "\n".join(out) + ("\n" if out else "")


def union(parent: list[int], u: int, v: int) -> bool:
    """Join the sets of ``u`` and ``v``; True if they were apart.

    ``parent`` is a union-find forest over node indices whose every root
    is its set's smallest member, so ``parent[x] <= x`` for every x.
    Finds halve their paths.
    """
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    if u == v:
        return False
    if u < v:
        parent[v] = u
    else:
        parent[u] = v
    return True


def _component_roots(g: Graph) -> list[int]:
    """Each node's component, named by the index of its smallest member."""
    parent = list(range(g.node_count()))
    u, v = g.edge_indices()
    for a, b in zip(u.tolist(), v.tolist()):
        union(parent, a, b)
    # parent[x] <= x, so one pass in index order reaches every root
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    return parent


def connected_components(g: Graph) -> list[list[str]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    comps: dict[int, list[str]] = {}
    for u, root in zip(g.nodes(), _component_roots(g)):
        comps.setdefault(root, []).append(u)
    return list(comps.values())


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, as a new graph.

    Size ties go to the component containing the lexicographically smallest
    node id; the empty graph maps to the empty graph. The first call keeps
    the result on ``g`` and later calls return that same object, so a graph
    is searched for components once.
    """
    if g._lcc is None:
        roots = np.array(_component_roots(g), dtype=np.intp)
        # argmax keeps the first maximum, the component of the smallest id;
        # minlength gives the empty graph an empty mask
        g._lcc = g._induced(roots == np.bincount(roots, minlength=1).argmax())
    return g._lcc


def bfs_distances(g: Graph, source: str) -> dict[str, int]:
    """Exact hop counts from *source*; unreachable nodes are absent.

    Raises:
        KeyError: if *source* is not a node of the graph.
    """
    if not g.has_node(source):
        raise KeyError(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist
