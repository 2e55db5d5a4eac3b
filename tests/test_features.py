"""Per-feature contracts: analytic spot values, conventions, oracle parity."""

import math

import numpy as np
import pytest

import brute
from placenet.features import (
    ConvergenceError,
    algebraic_connectivity,
    avg_clustering,
    avg_path_length_lcc,
    compute_features,
    degree_assortativity,
    feature_names,
    k_brace_components,
    k_brace_subgraph,
    k_core_components,
    k_core_subgraph,
    max_modularity_cnm,
    read_features_csv,
    write_features_csv,
)
from placenet.graph import Graph
from placenet.seeding import derive_rng


def complete(n):
    ids = [f"n{i}" for i in range(n)]
    return Graph([(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]])


def path(n):
    return Graph([(f"n{i}", f"n{i + 1}") for i in range(n - 1)])


def star(leaves):
    return Graph([("hub", f"leaf{i}") for i in range(leaves)])


def random_graph(rng, max_n=12):
    n = int(rng.integers(1, max_n + 1))
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


def test_lambda2_degenerate_components():
    assert algebraic_connectivity(Graph()) == 0.0
    assert algebraic_connectivity(Graph(nodes=["a", "b"])) == 0.0


def test_lambda2_budget_exhaustion_raises_with_residual():
    with pytest.raises(ConvergenceError) as exc:
        algebraic_connectivity(path(10), max_iter=1)
    assert exc.value.residual > 0


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


# ---------------------------------------------------------------------------
# k-core / k-brace


def test_kcore_complete5():
    assert k_core_components(complete(5), 4) == 1


def test_kcore_two_triangles():
    g = Graph([("a", "b"), ("a", "c"), ("b", "c"),
               ("d", "e"), ("d", "f"), ("e", "f")])
    assert k_core_components(g, 2) == 2


def test_kcore_tree_empty():
    assert k_core_components(path(7), 2) == 0
    assert k_core_components(star(6), 2) == 0


def test_kbrace_complete4():
    assert k_brace_components(complete(4), 2) == 1


def test_kbrace_triangle_dissolves():
    assert k_brace_components(complete(3), 2) == 0


def test_kbrace_star_k1():
    assert k_brace_components(star(5), 1) == 0


def test_k_validation():
    with pytest.raises(ValueError):
        k_core_components(complete(3), 0)
    with pytest.raises(ValueError):
        k_brace_components(complete(3), 0)


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
