"""Graph construction, parsing and traversal contracts."""

import numpy as np
import pytest

import brute
from placenet.features import k_brace_subgraph, k_core_subgraph
from placenet.generators import (
    gen_core_periphery,
    gen_dyad_triad_scatter,
    gen_er,
    gen_multi_core_community,
)
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
    assert brute.edge_list(g) == [("x", "y")]


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("a b\nq\nc d")
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_parse_ends_lines_only_at_newlines():
    # split() takes these for whitespace inside a line; str.splitlines()
    # would also end lines at them
    seps = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    text = "".join(f"a{i}{sep}b{i}\n" for i, sep in enumerate(seps)) + "c d\r\ne f\rg h"
    pairs = [(f"a{i}", f"b{i}") for i in range(len(seps))]
    assert brute.edge_list(parse_edge_list(text)) == pairs + [("c", "d"), ("e", "f"), ("g", "h")]
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("a\x0cb\nc d e\n")
    assert exc.value.line_no == 2


@pytest.mark.parametrize("text", ["b #a", "a b\nc #", "x x\nz #z"])
def test_parse_rejects_id_starting_with_hash(text):
    # "b #a" would give the edge ("#a", "b"), which serializes as the
    # comment line "#a b"
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line_no == text.count("\n") + 1
    assert "starts with '#'" in str(exc.value)


def test_hash_inside_an_id_is_kept():
    g = parse_edge_list("a#1 b#")
    assert brute.edge_list(g) == [("a#1", "b#")]
    assert parse_edge_list(serialize_edge_list(g)) == g


@pytest.mark.parametrize("bad", ["#a", "", "a b", "a\tb", "tail\n", "\u2028x"])
def test_serialize_rejects_id_it_cannot_write_back(bad):
    for g in (Graph([("a", bad)]), Graph(nodes=[bad])):
        with pytest.raises(ValueError, match="cannot be written to an edge list"):
            serialize_edge_list(g)


def test_self_loop_line_registers_isolated_node():
    g = parse_edge_list("z z")
    assert g.nodes() == ("z",)
    assert g.edge_count() == 0


def test_constructor_is_symmetric_and_simple():
    g = Graph([("a", "b"), ("b", "a"), ("a", "a")])
    assert g.nodes() == ("a", "b")
    assert g.indices.tolist() == [1, 0]
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
        assert int(np.diff(g.indptr).sum()) == 2 * g.edge_count() == 2 * len(brute.edge_list(g))


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
    with pytest.raises(ValueError, match="^node 'zzz' is not in the graph$"):
        bfs_distances(Graph([("a", "b")]), "zzz")
    for absent in ("", "0", "a0", "b", "zzz"):  # before, between and after the ids
        with pytest.raises(ValueError, match=f"^node '{absent}' is not in the graph$"):
            bfs_distances(Graph([("a", "c")], nodes=["aa"]), absent)
    with pytest.raises(ValueError, match="^node 'a' is not in the graph$"):
        bfs_distances(Graph(), "a")


@pytest.mark.parametrize("n_nodes", [1, 8, 60, 300])
def test_bfs_matches_networkx(n_nodes):
    nx = pytest.importorskip("networkx")
    rng = derive_rng(505, n_nodes)
    for _ in range(10):
        pairs = [
            (f"n{int(rng.integers(0, n_nodes))}", f"n{int(rng.integers(0, n_nodes))}")
            for _ in range(int(rng.integers(0, 2 * n_nodes)))
        ]
        isolated = [f"iso{i}" for i in range(int(rng.integers(1, 4)))]
        g = Graph(pairs, nodes=isolated)
        h = nx.Graph()
        h.add_nodes_from(g.nodes())
        h.add_edges_from(brute.edge_list(g))
        nodes = g.nodes()
        sources = {nodes[int(i)] for i in rng.integers(0, len(nodes), size=5)}
        for source in sorted(sources | set(isolated[:1])):
            assert bfs_distances(g, source) == nx.single_source_shortest_path_length(h, source)


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


def assert_sorted_csr(g):
    """int32 read-only arrays, sorted unique ids, and rows that are the
    sorted neighbour sets of ``brute.adjacency_sets``: symmetric, simple and
    loop-free, since that oracle reads only the upper triangle."""
    ids = g.nodes()
    assert list(ids) == sorted(set(ids))
    assert g.indptr.dtype == g.indices.dtype == np.int32
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable
    assert g.indptr[0] == 0 and len(g.indptr) == len(ids) + 1
    position = {u: i for i, u in enumerate(ids)}
    for i, nbrs in enumerate(brute.adjacency_sets(g).values()):
        row = g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()
        assert row == sorted(position[v] for v in nbrs)


def assert_every_path_builds_sorted_csr(g):
    assert_sorted_csr(g)
    assert_sorted_csr(largest_connected_component(g))
    for k in (1, 2, 3):
        assert_sorted_csr(k_core_subgraph(g, k))
        assert_sorted_csr(k_brace_subgraph(g, k))


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
        adj = {u: set() for u in sorted({*extra, *(u for p in pairs for u in p)})}
        for u, v in pairs:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        assert brute.adjacency_sets(g) == adj
        assert g.nodes() == tuple(adj)
        text = "".join(f"{u} {v}\n" for u, v in pairs) + "".join(f"{w} {w}\n" for w in extra)
        assert parse_edge_list(text) == g
        assert_every_path_builds_sorted_csr(g)
    # block generators list their ids in block order; from 11 cores on
    # that is not id order ("k10n..." < "k2n...")
    size = max(1, n_nodes // 4)
    for seed in (0, 1):
        for g in (
            Graph(), Graph(nodes=["b", "a"]),
            gen_er(n_nodes, 4 / n_nodes, seed=seed),
            gen_core_periphery(size, n_nodes - size, 0.8, 0.1, 0.02, seed=seed),
            gen_multi_core_community(12, size, 0.6, 0.05, seed=seed),
            gen_multi_core_community(3, size, 0.6, 0.05, seed=seed),
            gen_dyad_triad_scatter(size, 0.5, seed=seed),
        ):
            assert_every_path_builds_sorted_csr(g)
