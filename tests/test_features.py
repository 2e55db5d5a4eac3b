"""Per-feature contracts: analytic spot values, conventions, oracle parity."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import brute
import placenet
import placenet.features
import placenet.graph
from placenet.features import (
    ConvergenceError,
    algebraic_connectivity,
    avg_clustering,
    avg_path_length_lcc,
    compute_features,
    degree_assortativity,
    feature_names,
    k_brace_subgraph,
    k_core_subgraph,
    max_modularity_cnm,
    read_features_csv,
    write_features_csv,
)
from placenet.generators import (
    gen_core_periphery,
    gen_dyad_triad_scatter,
    gen_er,
    gen_multi_core_community,
)
from placenet.graph import (
    Graph,
    _component_roots,
    bfs_distances,
    largest_connected_component,
    serialize_edge_list,
)
from placenet.seeding import derive_rng


def complete(n):
    ids = [f"n{i}" for i in range(n)]
    return Graph([(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]])


def path(n):
    return Graph([(f"n{i}", f"n{i + 1}") for i in range(n - 1)])


def star(leaves):
    return Graph([("hub", f"leaf{i}") for i in range(leaves)])


def random_graph(rng, max_n=12, min_n=1):
    n = int(rng.integers(min_n, max_n + 1))
    p = float(rng.uniform(0, 1))
    ids = [f"n{i}" for i in range(n)]
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(edges, nodes=ids)


# ---------------------------------------------------------------------------
# counts and moments


def test_complete_graph_counts():
    fv = compute_features(complete(4))
    assert fv.n_nodes == 4
    assert fv.n_edges == 6
    assert fv.density == 1.0
    assert fv.avg_degree == 3.0
    assert fv.degree_variance == 0.0


def test_empty_graph_defaults():
    fv = compute_features(Graph())
    assert fv.as_row() == [0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                           0, 0, 0, 0, 0, 0, 0, 0]


def test_star_counts():
    # degree sequence (3, 1, 1, 1): mean 1.5, population variance 0.75
    fv = compute_features(star(3))
    assert fv.n_nodes == 4
    assert fv.n_edges == 3
    assert fv.density == 0.5
    assert fv.avg_degree == 1.5
    assert fv.degree_variance == 0.75
    stats = brute.degree_stats(star(3))
    assert stats["degree_variance"] == 0.75


# ---------------------------------------------------------------------------
# clustering


def test_clustering_triangle():
    assert avg_clustering(complete(3)) == 1.0


def test_clustering_tree_is_zero():
    assert avg_clustering(path(6)) == 0.0
    assert avg_clustering(star(5)) == 0.0


def test_clustering_k4_minus_edge():
    g = Graph([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    expected = 5.0 / 6.0  # coefficients (2/3, 2/3, 1, 1) averaged
    assert abs(avg_clustering(g) - expected) < 1e-15
    assert abs(brute.clustering_by_enumeration(g) - expected) < 1e-15


# ---------------------------------------------------------------------------
# assortativity


def test_assortativity_regular_graph_convention():
    assert degree_assortativity(complete(4)) == 0.0


def test_assortativity_star():
    # endpoint pairs {(1,3) x3, (3,1) x3} are perfectly anti-correlated
    assert degree_assortativity(star(3)) == -1.0
    assert brute.assortativity_corrcoef(star(3)) == pytest.approx(-1.0, abs=1e-12)


def test_assortativity_path4():
    assert degree_assortativity(path(4)) == pytest.approx(-0.5, abs=1e-12)
    assert brute.assortativity_corrcoef(path(4)) == pytest.approx(-0.5, abs=1e-12)


def test_assortativity_empty():
    assert degree_assortativity(Graph()) == 0.0


# ---------------------------------------------------------------------------
# path length


def test_apl_complete():
    assert avg_path_length_lcc(complete(5)) == 1.0


def test_apl_path3():
    # pair distances {1, 1, 2} -> mean 4/3
    assert avg_path_length_lcc(path(3)) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_apl_two_disjoint_edges():
    g = Graph([("a", "b"), ("c", "d")])
    assert avg_path_length_lcc(g) == 1.0


def test_apl_tiny_components():
    assert avg_path_length_lcc(Graph()) == 0.0
    assert avg_path_length_lcc(Graph(nodes=["a"])) == 0.0


def test_apl_sampled_matches_exact_on_small_graph():
    g = path(9)
    exact = avg_path_length_lcc(g)
    sampled = avg_path_length_lcc(g, sample_sources=200, seed=1)
    assert sampled == exact  # sample size exceeds the component


def test_apl_source_sampling_is_deterministic_and_close():
    rng = derive_rng(7)
    ids = [f"n{i}" for i in range(60)]
    edges = [
        (ids[i], ids[j])
        for i in range(60)
        for j in range(i + 1, 60)
        if rng.random() < 0.1
    ]
    g = Graph(edges, nodes=ids)
    a = avg_path_length_lcc(g, sample_sources=20, seed=5)
    b = avg_path_length_lcc(g, sample_sources=20, seed=5)
    assert a == b
    assert a == pytest.approx(avg_path_length_lcc(g), rel=0.25)


def connected_with_spare(n, seed):
    """A random connected graph on n nodes (a random tree plus chords) and
    a disjoint 5-node path, so the largest component has exactly n nodes."""
    rng = derive_rng(seed, n)
    ids = [f"n{i:04d}" for i in range(n)]
    edges = [(ids[i], ids[int(rng.integers(i))]) for i in range(1, n)]
    edges += [(ids[a], ids[b]) for a, b in rng.integers(n, size=(n // 4, 2)) if a != b]
    edges += [(f"z{i}", f"z{i + 1}") for i in range(4)]
    return Graph(edges)


APL_GRAPHS = {
    "er": lambda: gen_er(800, 0.008, seed=1),
    "core_periphery": lambda: gen_core_periphery(60, 700, 0.5, 0.02, 0.002, seed=2),
    "multi_core": lambda: gen_multi_core_community(3, 250, 0.04, 0.002, seed=3),
    "scatter": lambda: gen_dyad_triad_scatter(300, 0.5, seed=4),
    # one word, one word plus one source, one block plus one source
    **{f"lcc{n}": (lambda n=n: connected_with_spare(n, 5)) for n in (63, 64, 65, 513)},
    "path1500": lambda: path(1500),
}


@pytest.mark.parametrize("name", sorted(APL_GRAPHS))
def test_apl_matches_networkx(name):
    nx = pytest.importorskip("networkx")
    g = APL_GRAPHS[name]()
    lcc = nx.Graph(g.edges()).subgraph(brute.largest_component_nodes(g)).copy()
    # both sides divide the same integer distance sum by n (n - 1)
    assert avg_path_length_lcc(g) == nx.average_shortest_path_length(lcc)


@pytest.mark.parametrize("sources", [5, 513])
def test_apl_sampled_equals_per_source_bfs(sources):
    g = gen_er(700, 0.01, seed=6)
    lcc = largest_connected_component(g)
    nodes, n = lcc.nodes(), lcc.node_count()
    picks = np.sort(derive_rng(9, 0x0A71, n).choice(n, size=sources, replace=False))
    total = sum(sum(bfs_distances(lcc, nodes[i]).values()) for i in picks)
    assert avg_path_length_lcc(g, sample_sources=sources, seed=9) == total / (sources * (n - 1))


# ---------------------------------------------------------------------------
# algebraic connectivity


def test_lambda2_complete4():
    assert algebraic_connectivity(complete(4)) == pytest.approx(4.0, abs=1e-8)


def test_lambda2_single_edge():
    assert algebraic_connectivity(Graph([("a", "b")])) == pytest.approx(2.0, abs=1e-8)


def test_lambda2_path4_closed_form():
    expected = 2.0 - math.sqrt(2.0)  # 4 sin^2(pi/8)
    assert algebraic_connectivity(path(4)) == pytest.approx(expected, abs=1e-8)
    assert brute.lambda2_dense(path(4)) == pytest.approx(expected, abs=1e-10)


def test_lambda2_uses_lcc_by_default():
    g = Graph([("a", "b"), ("a", "c"), ("b", "c"), ("x", "y")])
    assert algebraic_connectivity(g) == pytest.approx(3.0, abs=1e-8)


def test_lambda2_global_scope_disconnected_is_zero():
    g = Graph([("a", "b"), ("x", "y")])
    assert algebraic_connectivity(g, scope="global") == 0.0


def test_lambda2_global_scope_after_lcc_call_is_zero():
    g = Graph([("a", "b"), ("b", "c"), ("x", "y")])
    assert algebraic_connectivity(g) == pytest.approx(1.0)
    assert algebraic_connectivity(g, scope="global") == 0.0


def test_lambda2_degenerate_components():
    assert algebraic_connectivity(Graph()) == 0.0
    assert algebraic_connectivity(Graph(nodes=["a", "b"])) == 0.0


def test_lambda2_budget_exhaustion_raises_with_residual():
    with pytest.raises(ConvergenceError) as exc:
        algebraic_connectivity(path(200), max_iter=1)
    assert exc.value.residual > 0


def test_lambda2_budget_does_not_bind_dense_components():
    g = connected_with_spare(128, 7)
    assert algebraic_connectivity(g, max_iter=1) == brute.lambda2_dense(g)


@pytest.mark.parametrize("options", [
    {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"max_iter": 0},
], ids=["tol-nan", "tol-inf", "tol-0", "max_iter-0"])
@pytest.mark.parametrize("n", [10, 200])
def test_lambda2_rejects_bad_budget(options, n):
    with pytest.raises(ValueError, match="finite tol > 0 and max_iter >= 1"):
        algebraic_connectivity(path(n), **options)


@pytest.mark.parametrize("options, message", [
    ({"lambda2_scope": "bogus"}, "unknown scope 'bogus'"),
    ({"lambda2_tol": math.nan}, "finite tol > 0"),
    ({"lambda2_max_iter": 0}, "max_iter >= 1"),
], ids=["scope", "tol-nan", "max_iter-0"])
@pytest.mark.parametrize("g", [Graph(), path(10)], ids=["empty", "path10"])
def test_compute_features_rejects_bad_lambda2_options(g, options, message):
    with pytest.raises(ValueError, match=message):
        compute_features(g, **options)


LAMBDA2_GRAPHS = {
    name: APL_GRAPHS[name] for name in ("er", "core_periphery", "multi_core", "scatter")
}
# either side of the dense cap
LAMBDA2_GRAPHS.update(
    {f"lcc{n}": (lambda n=n: connected_with_spare(n, 8)) for n in (127, 128, 129)}
)


def barbell(clique, bridge):
    """Two cliques joined through a path of ``bridge`` extra nodes."""
    ends = ["a0", *(f"p{i}" for i in range(bridge)), "b0"]
    return Graph([(f"{s}{i}", f"{s}{j}") for s in "ab" for i in range(clique) for j in range(i)]
                 + list(zip(ends, ends[1:])))


def grid(side):
    return Graph([(f"{r}.{c}", f"{r + dr}.{c + dc}") for r in range(side) for c in range(side)
                  for dr, dc in ((0, 1), (1, 0)) if r + dr < side and c + dc < side])


# Repeated or tiny lambda2 (cycle: lambda2 = lambda3; path: 4e-6), few
# distinct eigenvalues, where the Krylov space is exhausted after a few
# steps, and graphs like the large_graphs benchmark corpus.
LAMBDA2_GRAPHS.update({
    "cycle500": lambda: ring_lattice(500, 1),
    "path1500": lambda: path(1500),
    "k150_150": lambda: complete_bipartite(150, 150),
    "star600": lambda: star(600),
    "k200": lambda: complete(200),
    "barbell60_40": lambda: barbell(60, 40),
    "grid30": lambda: grid(30),
    "lcc300": lambda: connected_with_spare(300, 8),
    "er1600": lambda: gen_er(1600, 0.001875, seed=21),
    "multi_core990": lambda: gen_multi_core_community(3, 330, 0.015, 0.0007, seed=22),
    "core_periphery1600": lambda: gen_core_periphery(80, 1520, 0.3, 0.01, 0.0005, seed=23),
    "scatter1000": lambda: gen_dyad_triad_scatter(1000, 0.5, seed=24),
})


@pytest.mark.parametrize("name", sorted(LAMBDA2_GRAPHS))
def test_lambda2_matches_dense_eigenvalues(name):
    g = LAMBDA2_GRAPHS[name]()
    assert algebraic_connectivity(g) == pytest.approx(brute.lambda2_dense(g), abs=1e-8)


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("name", ["cycle500", "er", "lcc300"])
def test_lambda2_restarts_from_ritz_vector(monkeypatch, cap, name):
    # A basis of 2 or 3 vectors fills long before convergence, so every
    # answer comes after many restarts.
    monkeypatch.setattr(placenet.features, "_KRYLOV_MAX", cap)
    g = LAMBDA2_GRAPHS[name]()
    assert algebraic_connectivity(g) == pytest.approx(brute.lambda2_dense(g), abs=1e-8)


def test_lambda2_bytes_do_not_depend_on_blas_threads(tmp_path):
    # On either side of the dense cap and well above it; the second run
    # leaves the thread count to OpenBLAS, which uses every CPU. At n = 1500
    # the Lanczos basis soon passes the size at which OpenBLAS may thread gemv.
    lines = []
    for n in (128, 129, 190, 200, 1500):
        (tmp_path / f"g{n}.edges").write_text(serialize_edge_list(connected_with_spare(n, 9)))
        lines.append(json.dumps({"id": f"g{n}", "path": f"g{n}.edges", "category": "c"}))
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    src = os.path.dirname(os.path.dirname(placenet.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"out{len(outputs)}"
        subprocess.run([sys.executable, "-m", "placenet.cli", "features", "--manifest",
                        str(tmp_path / "manifest.jsonl"), "--out-dir", str(out)],
                       check=True, env={**env, **threads})
        outputs.append((out / "features.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_lambda2_positive_iff_lcc_nontrivial_and_bounded():
    rng = derive_rng(11)
    for _ in range(30):
        g = random_graph(rng)
        val = algebraic_connectivity(g)
        from placenet.graph import largest_connected_component

        lcc_n = largest_connected_component(g).node_count()
        if lcc_n >= 2:
            assert val > 0
        else:
            assert val == 0.0
        assert val <= g.node_count() + 1e-9


# ---------------------------------------------------------------------------
# modularity


def test_modularity_single_edge():
    q, parts = max_modularity_cnm(Graph([("a", "b")]))
    assert q == 0.0
    assert parts["a"] == parts["b"]


def test_modularity_edgeless_convention():
    q, parts = max_modularity_cnm(Graph(nodes=["a", "b", "c"]))
    assert q == 0.0
    assert sorted(parts.values()) == [0, 1, 2]


def test_modularity_two_triangles_with_bridge():
    g = Graph([("a", "b"), ("a", "c"), ("b", "c"),
               ("d", "e"), ("d", "f"), ("e", "f"), ("c", "d")])
    q, parts = max_modularity_cnm(g)
    expected = 6.0 / 7.0 - 0.5
    assert q == pytest.approx(expected, abs=1e-12)
    assert {parts["a"], parts["b"], parts["c"]} == {parts["a"]}
    assert {parts["d"], parts["e"], parts["f"]} == {parts["d"]}
    assert parts["a"] != parts["d"]
    # greedy reaches the global optimum on this instance
    assert brute.best_modularity_exhaustive(g) == pytest.approx(q, abs=1e-12)


def test_modularity_two_disjoint_triangles():
    g = Graph([("a", "b"), ("a", "c"), ("b", "c"),
               ("d", "e"), ("d", "f"), ("e", "f")])
    q, parts = max_modularity_cnm(g)
    assert q == pytest.approx(0.5, abs=1e-12)
    assert len(set(parts.values())) == 2
    assert brute.best_modularity_exhaustive(g) == pytest.approx(0.5, abs=1e-12)


def test_modularity_assignment_is_contiguous_and_consistent():
    rng = derive_rng(13)
    for _ in range(25):
        g = random_graph(rng, max_n=10)
        if g.edge_count() == 0:
            continue
        q, parts = max_modularity_cnm(g)
        labels = sorted(set(parts.values()))
        assert labels == list(range(len(labels)))
        assert set(parts) == set(g.nodes())
        assert brute.modularity_of(g, parts) == pytest.approx(q, abs=1e-12)


def test_modularity_never_beats_exhaustive_small():
    rng = derive_rng(17)
    for _ in range(20):
        g = random_graph(rng, max_n=8)
        if g.edge_count() == 0:
            continue
        q, _ = max_modularity_cnm(g)
        assert q <= brute.best_modularity_exhaustive(g) + 1e-12


def assert_cnm_matches_reference(g):
    got = max_modularity_cnm(g)
    assert got == brute.cnm_reference(g)  # same Q bits, same partition
    q, parts = got
    # Q is one correctly rounded division of exact integers
    assert q == float(brute.modularity_exact(g, parts))


def test_cnm_matches_reference_on_random_graphs():
    rng = derive_rng(41)
    for _ in range(400):
        assert_cnm_matches_reference(random_graph(rng, max_n=40, min_n=2))


def ring_lattice(n, reach):
    return Graph([(f"n{i}", f"n{(i + d) % n}") for i in range(n) for d in range(1, reach + 1)])


def complete_bipartite(a, b):
    return Graph([(f"a{i}", f"b{j}") for i in range(a) for j in range(b)])


def disjoint(copies, g):
    return Graph([(f"{c}.{u}", f"{c}.{v}") for c in range(copies) for u, v in g.edges()])


TIE_HEAVY = {
    "rings": [ring_lattice(n, 1) for n in range(3, 33)],
    "ring_lattices": [ring_lattice(n, r) for n in range(5, 33, 3) for r in (2, 3)],
    "cliques": [complete(n) for n in range(2, 14)],
    "complete_bipartite": [complete_bipartite(a, b) for a in range(1, 13) for b in (2, 3, 5)],
    "disjoint_cliques": [disjoint(c, complete(k)) for c in (2, 3, 5) for k in (3, 4, 6)],
    "disjoint_paths": [disjoint(c, path(k)) for c in (2, 4) for k in (2, 3, 5, 8)],
    "star": [star(12)],
}


@pytest.mark.parametrize("family", sorted(TIE_HEAVY))
def test_cnm_matches_reference_on_tie_heavy_graphs(family):
    for g in TIE_HEAVY[family]:
        assert_cnm_matches_reference(g)


GENERATORS = {
    "er": lambda s: gen_er(300, 0.02, seed=s),
    "core_periphery": lambda s: gen_core_periphery(20, 200, 0.9, 0.05, 0.01, seed=s),
    "multi_core": lambda s: gen_multi_core_community(4, 50, 0.3, 0.01, seed=s),
    "scatter": lambda s: gen_dyad_triad_scatter(100, 0.5, seed=s),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_cnm_matches_reference_on_generators(name):
    for seed in range(6):
        assert_cnm_matches_reference(GENERATORS[name](seed))


def test_cnm_matches_reference_on_er2000():
    g = gen_er(2000, 0.005, seed=7)
    assert g.edge_count() > 9000
    assert_cnm_matches_reference(g)


# ---------------------------------------------------------------------------
# k-core / k-brace


def core_and_brace(g, k):
    """The k-core and k-brace columns of ``compute_features`` for one k, as
    ``{count_mode: (core count, brace count)}``."""
    out = {}
    for mode in ("components", "nodes"):
        fv = compute_features(g, (k,), count_mode=mode)
        out[mode] = (fv.kcore_components[0], fv.kbrace_components[0])
    return out


def test_kcore_complete5():
    assert core_and_brace(complete(5), 4) == {"components": (1, 0), "nodes": (5, 0)}


def test_kcore_two_triangles():
    g = Graph([("a", "b"), ("a", "c"), ("b", "c"),
               ("d", "e"), ("d", "f"), ("e", "f")])
    assert core_and_brace(g, 2) == {"components": (2, 0), "nodes": (6, 0)}


def test_kcore_tree_empty():
    assert core_and_brace(path(7), 2) == {"components": (0, 0), "nodes": (0, 0)}
    assert core_and_brace(star(6), 2) == {"components": (0, 0), "nodes": (0, 0)}


def test_kbrace_complete4():
    assert core_and_brace(complete(4), 2) == {"components": (1, 1), "nodes": (4, 4)}


def test_kbrace_triangle_dissolves():
    assert core_and_brace(complete(3), 2) == {"components": (1, 0), "nodes": (3, 0)}


def test_kbrace_star_k1():
    assert core_and_brace(star(5), 1) == {"components": (1, 0), "nodes": (6, 0)}


def test_k_validation():
    for g in (complete(3), Graph([])):
        for mode in ("components", "nodes"):
            with pytest.raises(ValueError):
                compute_features(g, (0,), count_mode=mode)


def test_core_and_brace_nesting_properties():
    rng = derive_rng(19)
    for _ in range(25):
        g = random_graph(rng)
        for k in (1, 2, 3):
            core_k = set(k_core_subgraph(g, k).nodes())
            core_k1 = set(k_core_subgraph(g, k + 1).nodes())
            assert core_k1 <= core_k
            brace_k = k_brace_subgraph(g, k)
            brace_k1 = k_brace_subgraph(g, k + 1)
            assert set(brace_k1.edges()) <= set(brace_k.edges())
            # brace edges carry >= k triangles, so endpoints sit in the (k+1)-core
            next_core = k_core_subgraph(g, k + 1)
            assert set(brace_k.nodes()) <= set(next_core.nodes())
            assert set(brace_k.edges()) <= set(next_core.edges())


def test_core_and_brace_match_naive_fixpoints():
    rng = derive_rng(23)
    for _ in range(25):
        g = random_graph(rng)
        for k in (1, 2, 4):
            nodes, edges = brute.kcore_peel_naive(g, k)
            sub = k_core_subgraph(g, k)
            assert set(sub.nodes()) == nodes
            assert set(sub.edges()) == edges
            bnodes, bedges = brute.kbrace_fixpoint_naive(g, k)
            bsub = k_brace_subgraph(g, k)
            assert set(bsub.nodes()) == bnodes
            assert set(bsub.edges()) == bedges


# Unsorted, with one k (99) above every core number of these graphs.
K_COLUMNS = (16, 1, 4, 99)

K_COLUMN_GRAPHS = [
    lambda: gen_er(120, 0.08, seed=1),
    lambda: gen_core_periphery(24, 96, 0.95, 0.05, 0.01, seed=2),
    lambda: gen_multi_core_community(3, 40, 0.4, 0.01, seed=3),
    lambda: gen_dyad_triad_scatter(30, 0.5, seed=4),
]


def naive_k_columns(g, count_mode):
    columns = []
    for oracle in (brute.kcore_peel_naive, brute.kbrace_fixpoint_naive):
        for k in K_COLUMNS:
            nodes, edges = oracle(g, k)
            columns.append(len(nodes) if count_mode == "nodes"
                           else brute.component_count(nodes, edges))
    return columns


@pytest.mark.parametrize("count_mode", ["components", "nodes"])
def test_compute_features_k_columns_match_naive_fixpoints(count_mode):
    rng = derive_rng(23)  # the graphs of test_core_and_brace_match_naive_fixpoints
    graphs = [random_graph(rng) for _ in range(25)] + [make() for make in K_COLUMN_GRAPHS]
    for g in graphs:
        fv = compute_features(g, K_COLUMNS, count_mode=count_mode)
        assert [*fv.kcore_components, *fv.kbrace_components] == naive_k_columns(g, count_mode)


# ---------------------------------------------------------------------------
# differential tests against networkx on 500-2000-node graphs

NX_GRAPHS = {
    "er": lambda: gen_er(500, 0.03, seed=1),
    "core_periphery": lambda: gen_core_periphery(40, 700, 0.9, 0.02, 0.002, seed=2),
    "multi_core": lambda: gen_multi_core_community(5, 100, 0.25, 0.003, seed=3),
    "scatter": lambda: gen_dyad_triad_scatter(300, 0.5, seed=4),
}


def as_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.nodes())  # sorted, the order avg_clustering sums in
    h.add_edges_from(g.edges())
    return nx, h


def edge_set(h):
    return {tuple(sorted(e)) for e in h.edges()}


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_k_brace_matches_networkx_k_truss(name):
    g = NX_GRAPHS[name]()
    nx, h = as_networkx(g)
    assert k_brace_subgraph(g, 1).edge_count() > 0
    for k in (1, 2, 4, 8, 16):
        truss = nx.k_truss(h, k + 2)
        brace = k_brace_subgraph(g, k)
        assert set(brace.nodes()) == set(truss.nodes())
        assert set(brace.edges()) == edge_set(truss)


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_k_core_matches_networkx(name):
    g = NX_GRAPHS[name]()
    nx, h = as_networkx(g)
    ks = (1, 2, 4, 8, 16)
    components = compute_features(g, ks).kcore_components
    nodes = compute_features(g, ks, count_mode="nodes").kcore_components
    for k, n_comp, n_nodes in zip(ks, components, nodes):
        core = nx.k_core(h, k)
        sub = k_core_subgraph(g, k)
        assert set(sub.nodes()) == set(core.nodes())
        assert set(sub.edges()) == edge_set(core)
        assert n_comp == nx.number_connected_components(core)
        assert n_nodes == core.number_of_nodes()


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_clustering_and_assortativity_match_networkx(name):
    g = NX_GRAPHS[name]()
    nx, h = as_networkx(g)
    assert avg_clustering(g) == nx.average_clustering(h)
    assert len({g.degree(u) for u in g.nodes()}) > 1  # not regular
    r = degree_assortativity(g)
    assert r == pytest.approx(brute.assortativity_exact(g), rel=1e-14, abs=0)
    # networkx's own rounding error reaches 1.1e-14 on the multi_core graph,
    # where r is 0.008: more than 1e-12 of r
    assert r == pytest.approx(nx.degree_assortativity_coefficient(h), rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_modularity_matches_networkx_rescore(name):
    # re-score our partition; networkx's own greedy partition breaks ties differently
    g = NX_GRAPHS[name]()
    nx, h = as_networkx(g)
    q, parts = max_modularity_cnm(g)
    communities = [set() for _ in range(max(parts.values()) + 1)]
    for u, c in parts.items():
        communities[c].add(u)
    assert q == pytest.approx(nx.community.modularity(h, communities), rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# orchestration


def test_feature_names_shape():
    names = feature_names()
    assert len(names) == 18
    assert names[0] == "n_nodes"
    assert names[10:14] == ["kcore_2", "kcore_4", "kcore_8", "kcore_16"]
    assert names[14:] == ["kbrace_2", "kbrace_4", "kbrace_8", "kbrace_16"]


def test_compute_features_count_mode_nodes():
    g = complete(5)
    fv = compute_features(g, count_mode="nodes")
    assert fv.kcore_components[0] == 5  # the 2-core keeps every node
    assert fv.kcore_components[2] == 0  # no 8-core in K5


def test_compute_features_bounds():
    rng = derive_rng(29)
    for _ in range(15):
        g = random_graph(rng, max_n=10)
        fv = compute_features(g)
        assert 0.0 <= fv.density <= 1.0
        assert 0.0 <= fv.avg_clustering <= 1.0
        assert -1.0 <= fv.degree_assortativity <= 1.0
        assert -0.5 <= fv.max_modularity <= 1.0
        assert fv.algebraic_connectivity >= 0.0


@pytest.mark.parametrize("options", [
    {}, {"lambda2_scope": "global"}, {"path_sample_sources": 5},
], ids=["lcc", "global", "sampled"])
def test_compute_features_extracts_one_lcc(monkeypatch, options):
    calls = []

    def counting(g):
        calls.append(g)
        return _component_roots(g)

    monkeypatch.setattr(placenet.graph, "_component_roots", counting)
    for g in (gen_er(60, 0.05, seed=3), path(200)):
        calls.clear()
        compute_features(g, **options)
        assert calls == [g]


def test_features_csv_round_trip(tmp_path):
    g1 = complete(4)
    g2 = path(5)
    rows = [("g1", compute_features(g1)), ("g2", compute_features(g2))]
    out = tmp_path / "features.csv"
    write_features_csv(str(out), rows)
    ids, names, matrix = read_features_csv(str(out))
    assert ids == ["g1", "g2"]
    assert names == feature_names()
    np.testing.assert_array_equal(matrix[0], rows[0][1].as_array())
    np.testing.assert_array_equal(matrix[1], rows[1][1].as_array())


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_features_csv_rejects_non_finite_cells(tmp_path, cell):
    out = tmp_path / "features.csv"
    write_features_csv(str(out), [("g1", compute_features(complete(4))),
                                  ("g2", compute_features(path(5)))])
    lines = out.read_text().splitlines()
    cells = lines[2].split(",")
    cells[6] = cell
    lines[2] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{out}: line 3: non-finite"):
        read_features_csv(str(out))


def test_features_csv_rejects_non_numeric_cells(tmp_path):
    out = tmp_path / "features.csv"
    out.write_text("graph_id,a,b\ng1,1.0,2.0\ng2,1.0,oops\n")
    with pytest.raises(ValueError, match=f"{out}: line 3: "):
        read_features_csv(str(out))
