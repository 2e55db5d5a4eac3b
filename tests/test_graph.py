"""Graph construction, parsing and traversal contracts."""

import numpy as np
import pytest

from placenet.graph import (
    Graph,
    GraphParseError,
    bfs_distances,
    connected_components,
    largest_connected_component,
    parse_edge_list,
    serialize_edge_list,
)
from placenet.seeding import derive_rng


def test_parse_dedupes_and_drops_self_loops():
    g = parse_edge_list("a b\nb a\n# cmt\na a")
    assert set(g.nodes()) == {"a", "b"}
    assert g.edge_count() == 1


def test_parse_empty_input():
    g = parse_edge_list("")
    assert g.node_count() == 0
    assert g.edge_count() == 0


def test_parse_triangle():
    g = parse_edge_list("1 2\n2 3\n3 1")
    assert g.node_count() == 3
    assert g.edge_count() == 3


def test_parse_ignores_blank_lines_and_comments():
    g = parse_edge_list("\n# header\n  \nx y\n")
    assert g.edges() == [("x", "y")]


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("a b\nq\nc d")
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_self_loop_line_registers_isolated_node():
    g = parse_edge_list("z z")
    assert g.nodes() == ("z",)
    assert g.edge_count() == 0


def test_constructor_is_symmetric_and_simple():
    g = Graph([("a", "b"), ("b", "a"), ("a", "a")])
    assert g.neighbors("a") == {"b"}
    assert g.neighbors("b") == {"a"}
    assert g.edge_count() == 1


def test_degree_sum_equals_twice_edges():
    rng = derive_rng(101)
    for _ in range(30):
        n = int(rng.integers(0, 15))
        pairs = [
            (f"n{int(rng.integers(0, max(n, 1)))}", f"n{int(rng.integers(0, max(n, 1)))}")
            for _ in range(int(rng.integers(0, 25)))
        ]
        g = Graph(pairs)
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.edge_count()


def test_serialize_parse_round_trip():
    rng = derive_rng(202)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        pairs = [
            (f"n{int(rng.integers(0, n))}", f"n{int(rng.integers(0, n))}")
            for _ in range(int(rng.integers(0, 20)))
        ]
        extra = [f"iso{int(rng.integers(0, 4))}" for _ in range(int(rng.integers(0, 3)))]
        g = Graph(pairs, nodes=extra)
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_round_trip_is_idempotent():
    text = "b a\na b\n# x\nc c\n\nd e"
    once = parse_edge_list(text)
    again = parse_edge_list(serialize_edge_list(once))
    assert once == again
    assert serialize_edge_list(once) == serialize_edge_list(again)


def test_lcc_tie_break_smallest_node_id():
    g = Graph([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")])
    lcc = largest_connected_component(g)
    assert set(lcc.nodes()) == {"a", "b", "c"}


def test_lcc_path_plus_isolated():
    g = Graph([("a", "b"), ("b", "c")], nodes=["d"])
    lcc = largest_connected_component(g)
    assert set(lcc.nodes()) == {"a", "b", "c"}
    assert lcc.edge_count() == 2


def test_lcc_connected_graph_is_identity():
    g = Graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert largest_connected_component(g) == g


def test_lcc_empty_graph():
    assert largest_connected_component(Graph()) == Graph()


@pytest.mark.parametrize("g", [
    Graph([("a", "b"), ("x", "y"), ("y", "z")]), Graph([("a", "b"), ("b", "c")]), Graph(),
], ids=["disconnected", "connected", "empty"])
def test_lcc_is_kept_as_a_distinct_graph(g):
    lcc = largest_connected_component(g)
    assert largest_connected_component(g) is lcc
    assert lcc is not g
    assert lcc._lcc is None  # the kept graph holds no reference back: no cycle


def test_connected_components_ordering():
    g = Graph([("x", "y")], nodes=["a"])
    assert connected_components(g) == [["a"], ["x", "y"]]


def test_bfs_path():
    g = Graph([("a", "b"), ("b", "c")])
    assert bfs_distances(g, "a") == {"a": 0, "b": 1, "c": 2}


def test_bfs_triangle():
    g = Graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert bfs_distances(g, "b") == {"b": 0, "a": 1, "c": 1}


def test_bfs_excludes_unreachable():
    g = Graph([("a", "b"), ("c", "d")])
    assert set(bfs_distances(g, "a")) == {"a", "b"}


def test_bfs_unknown_source():
    with pytest.raises(KeyError):
        bfs_distances(Graph([("a", "b")]), "zzz")


def test_bfs_triangle_inequality_sampled():
    rng = derive_rng(303)
    pairs = [
        (f"n{int(rng.integers(0, 12))}", f"n{int(rng.integers(0, 12))}")
        for _ in range(30)
    ]
    g = Graph(pairs)
    nodes = list(g.nodes())
    dist = {u: bfs_distances(g, u) for u in nodes}
    for _ in range(200):
        a, b, c = (nodes[int(rng.integers(0, len(nodes)))] for _ in range(3))
        if b in dist[a] and c in dist[b] and c in dist[a]:
            assert dist[a][c] <= dist[a][b] + dist[b][c]


def test_subgraph_induced():
    g = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    sub = g.subgraph(["a", "b", "c", "ghost"])
    assert set(sub.nodes()) == {"a", "b", "c"}
    assert sub.edge_count() == 3


@pytest.mark.parametrize("n_nodes", [5, 30, 200])
def test_csr_rows_are_sorted_neighbour_sets(n_nodes):
    rng = derive_rng(404, n_nodes)
    for _ in range(20):
        pairs = [
            (f"n{int(rng.integers(0, n_nodes))}", f"n{int(rng.integers(0, n_nodes))}")
            for _ in range(int(rng.integers(0, 3 * n_nodes)))
        ]
        extra = [f"iso{int(rng.integers(0, 4))}" for _ in range(int(rng.integers(0, 3)))]
        g = Graph(pairs, nodes=extra)
        ids = sorted({*extra, *(u for p in pairs for u in p)})
        adj = {u: set() for u in ids}
        for u, v in pairs:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        assert g.nodes() == tuple(ids)
        assert g.indptr.dtype == g.indices.dtype == np.int32
        for i, u in enumerate(ids):
            row = g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()
            assert row == sorted(ids.index(v) for v in adj[u])
            assert g.neighbors(u) == adj[u]
            for v in ids[:8]:
                assert g.has_edge(u, v) == (v in adj[u])
        assert not g.has_edge("ghost", ids[0] if ids else "x")
