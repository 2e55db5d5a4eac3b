"""Synthetic generator determinism, degenerate cases and archetype configs."""

import pytest

from placenet.features import avg_clustering, avg_path_length_lcc, compute_features
from placenet.generators import (
    ArchetypeSpec,
    gen_core_periphery,
    gen_dyad_triad_scatter,
    gen_er,
    gen_multi_core_community,
)
from placenet.graph import Graph, connected_components


def test_er_p0_is_edgeless_with_all_nodes():
    g = gen_er(7, 0.0, seed=1)
    assert g.node_count() == 7
    assert g.edge_count() == 0


def test_er_p1_is_complete():
    g = gen_er(6, 1.0, seed=1)
    assert g.edge_count() == 15


def test_er_same_seed_identical():
    assert gen_er(30, 0.2, seed=5) == gen_er(30, 0.2, seed=5)
    assert gen_er(30, 0.2, seed=5) != gen_er(30, 0.2, seed=6)


def test_er_graph_invariants():
    g = gen_er(25, 0.3, seed=2)
    for u in g.nodes():
        assert u not in g.neighbors(u)
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_core_periphery_degenerate_complete_core():
    g = gen_core_periphery(5, 4, 1.0, 0.0, 0.0, seed=3)
    core = [u for u in g.nodes() if u.startswith("c")]
    peri = [u for u in g.nodes() if u.startswith("p")]
    assert len(core) == 5 and len(peri) == 4
    assert g.edge_count() == 10  # K5 plus isolated periphery
    assert all(g.degree(u) == 0 for u in peri)


def test_core_periphery_no_core_is_er():
    g = gen_core_periphery(0, 12, 1.0, 0.5, 0.1, seed=4)
    assert g.node_count() == 12
    assert all(u.startswith("p") for u in g.nodes())


def test_core_periphery_two_core_forms_single_component():
    hits = 0
    for seed in range(40):
        g = gen_core_periphery(8, 16, 1.0, 0.5, 0.0, seed=seed)
        if compute_features(g, (2,)).kcore_components == (1,):
            hits += 1
    assert hits >= 38


def test_dyad_scatter_all_dyads():
    g = gen_dyad_triad_scatter(5, 1.0, seed=5)
    assert g.edge_count() == 5
    assert len(connected_components(g)) == 5


def test_triad_scatter_all_triangles():
    g = gen_dyad_triad_scatter(4, 0.0, seed=6)
    assert g.edge_count() == 12
    assert avg_clustering(g) == 1.0


def test_scatter_path_length_always_one():
    for seed in range(5):
        g = gen_dyad_triad_scatter(8, 0.5, seed=seed)
        assert avg_path_length_lcc(g) == 1.0


def test_multi_core_disjoint_cliques():
    g = gen_multi_core_community(3, 6, 1.0, 0.0, seed=7)
    assert compute_features(g, (4,)).kcore_components == (3,)
    assert compute_features(g, (4,), count_mode="nodes").kcore_components == (18,)
    assert len(connected_components(g)) == 3


def test_parameter_validation():
    with pytest.raises(ValueError):
        gen_er(5, 1.5)
    with pytest.raises(ValueError):
        gen_er(-1, 0.5)
    with pytest.raises(ValueError):
        gen_core_periphery(3, 3, 0.5, -0.1, 0.0)


def test_archetype_round_trip_and_build():
    items = {"kind": "core_periphery", "p_pp": "0.0", "p_cp": "0.0", "p_cc": "1.0",
             "n_periphery": "6", "n_core": "4"}
    spec = ArchetypeSpec.from_items(items, seed=11)
    # the generator's signature order, whatever the order of the items
    assert spec.params == (("n_core", 4), ("n_periphery", 6), ("p_cc", 1.0),
                           ("p_cp", 0.0), ("p_pp", 0.0))
    assert [type(value) for _, value in spec.params] == [int, int, float, float, float]
    g = spec.build()
    assert g == gen_core_periphery(4, 6, 1.0, 0.0, 0.0, seed=11)
    rebuilt = ArchetypeSpec.from_items(dict(items), seed=11)
    assert rebuilt.build() == g


def test_archetype_validation_errors():
    with pytest.raises(ValueError, match="kind"):
        ArchetypeSpec.from_items({"n": "5"}, seed=0)
    with pytest.raises(ValueError, match="unknown archetype"):
        ArchetypeSpec.from_items({"kind": "mystery"}, seed=0)
    with pytest.raises(ValueError, match="missing parameter"):
        ArchetypeSpec.from_items({"kind": "erdos_renyi", "n": "5"}, seed=0)
    with pytest.raises(ValueError, match="unknown parameters"):
        ArchetypeSpec.from_items(
            {"kind": "erdos_renyi", "n": "5", "p": "0.1", "zzz": "1"}, seed=0
        )
    with pytest.raises(ValueError, match="parameter 'n' must be int"):
        ArchetypeSpec.from_items({"kind": "erdos_renyi", "n": "5.5", "p": "0.1"}, seed=0)
    with pytest.raises(ValueError, match="parameter 'p' must be float"):
        ArchetypeSpec.from_items({"kind": "erdos_renyi", "n": "5", "p": "x"}, seed=0)
    with pytest.raises(ValueError, match="'seed'"):  # the seed is not a parameter
        ArchetypeSpec.from_items({"kind": "erdos_renyi", "n": "5", "p": "0.1", "seed": "1"},
                                 seed=0)


def _tuple_sample(pairs, p, rng):
    """The candidate-list sampling the generators are defined by: one draw
    per candidate pair, in order, none for an empty list."""
    if not pairs:
        return []
    return [pair for pair, hit in zip(pairs, rng.random(len(pairs)) < p) if hit]


@pytest.mark.parametrize("n_core, n_periphery", [(0, 7), (5, 0), (6, 9), (13, 40)])
def test_core_periphery_matches_candidate_list_definition(n_core, n_periphery):
    from placenet.generators import _ids
    from placenet.seeding import derive_rng

    rng = derive_rng(21, 0xC0)
    core, peri = _ids("c", n_core), _ids("p", n_periphery)
    within = lambda ids: [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = _tuple_sample(within(core), 0.5, rng)
    edges += _tuple_sample([(c, q) for c in core for q in peri], 0.2, rng)
    edges += _tuple_sample(within(peri), 0.1, rng)
    assert gen_core_periphery(n_core, n_periphery, 0.5, 0.2, 0.1, seed=21) == \
        Graph(edges, nodes=core + peri)
