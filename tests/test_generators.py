"""Synthetic generator determinism, degenerate cases and archetype configs."""

import os
import subprocess
import sys

import pytest

import brute
import placenet.generators
from placenet.features import avg_clustering, avg_path_length_lcc, compute_features
from placenet.generators import (
    archetype,
    gen_core_periphery,
    gen_dyad_triad_scatter,
    gen_er,
    gen_multi_core_community,
)
from placenet.graph import Graph, connected_components
from placenet.seeding import derive_rng


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
    for i in range(g.node_count()):
        row = g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()
        assert i not in row
        for j in row:
            assert i in g.indices[g.indptr[j]:g.indptr[j + 1]]


def test_core_periphery_degenerate_complete_core():
    g = gen_core_periphery(5, 4, 1.0, 0.0, 0.0, seed=3)
    core = [u for u in g.nodes() if u.startswith("c")]
    peri = [u for u in g.nodes() if u.startswith("p")]
    assert len(core) == 5 and len(peri) == 4
    assert g.edge_count() == 10  # K5 plus isolated periphery
    degree = brute.degrees(g)
    assert all(degree[u] == 0 for u in peri)


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
    recipe = archetype(items)
    assert recipe.func is gen_core_periphery
    # the generator's signature order, whatever the order of the items
    assert list(recipe.keywords.items()) == [("n_core", 4), ("n_periphery", 6),
                                             ("p_cc", 1.0), ("p_cp", 0.0), ("p_pp", 0.0)]
    assert [type(v) for v in recipe.keywords.values()] == [int, int, float, float, float]
    g = recipe(seed=11)
    assert g == gen_core_periphery(4, 6, 1.0, 0.0, 0.0, seed=11)
    rebuilt = archetype(dict(items))
    assert rebuilt(seed=11) == g


def test_archetype_validation_errors():
    with pytest.raises(ValueError, match="kind"):
        archetype({"n": "5"})
    with pytest.raises(ValueError, match="unknown archetype"):
        archetype({"kind": "mystery"})
    with pytest.raises(ValueError, match="missing parameter"):
        archetype({"kind": "erdos_renyi", "n": "5"})
    with pytest.raises(ValueError, match="unknown parameters"):
        archetype({"kind": "erdos_renyi", "n": "5", "p": "0.1", "zzz": "1"})
    with pytest.raises(ValueError, match="parameter 'n' must be int"):
        archetype({"kind": "erdos_renyi", "n": "5.5", "p": "0.1"})
    with pytest.raises(ValueError, match="parameter 'p' must be float"):
        archetype({"kind": "erdos_renyi", "n": "5", "p": "x"})
    with pytest.raises(ValueError, match="'seed'"):  # the seed is not a parameter
        archetype({"kind": "erdos_renyi", "n": "5", "p": "0.1", "seed": "1"})
    # ranges are checked when the section is read, not when a graph is built
    with pytest.raises(ValueError, match=r"p must be a probability in \[0, 1\], got 1.5"):
        archetype({"kind": "erdos_renyi", "n": "5", "p": "1.5"})
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        archetype({"kind": "erdos_renyi", "n": "-1", "p": "0.1"})
    with pytest.raises(ValueError, match=r"dyad_fraction must be a probability .* got 2.0"):
        archetype({"kind": "dyad_triad_scatter", "n_components": "3", "dyad_fraction": "2"})


@pytest.mark.parametrize("dyad_fraction", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n_components", [0, 1, 2, 3, 8, 60, 1000])
def test_scatter_matches_string_pair_reference(n_components, dyad_fraction):
    for seed in range(5):
        edges = brute.scatter_reference(n_components, dyad_fraction, derive_rng(seed, 0xD7))
        assert gen_dyad_triad_scatter(n_components, dyad_fraction, seed=seed) == Graph(edges)


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


def _oracle(prefixes_sizes, pairs, seed, key):
    blocks = [brute.padded_ids(prefix, n) for prefix, n in prefixes_sizes]
    edges = brute.block_model_reference(blocks, pairs, derive_rng(seed, key))
    return Graph(edges, nodes=[u for block in blocks for u in block])


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 50])
def test_block_generators_match_per_candidate_oracle(n, p):
    q = p / 4
    for seed in (0, 9):
        assert gen_er(n, p, seed=seed) == _oracle([("v", n)], [(0, 0, p)], seed, 0xE6)
        for n_periphery in (0, 3, n):
            assert gen_core_periphery(n, n_periphery, p, 1 - p, q, seed=seed) == _oracle(
                [("c", n), ("p", n_periphery)],
                [(0, 0, p), (0, 1, 1 - p), (1, 1, q)], seed, 0xC0)
        # from 11 cores on, id order ("k10n..." < "k2n...") is not block order
        for n_cores in (1, 3, 12):
            pairs = [(b, b, p) for b in range(n_cores)]
            pairs += [(i, j, q) for i in range(n_cores) for j in range(i + 1, n_cores)]
            assert gen_multi_core_community(n_cores, n, p, q, seed=seed) == _oracle(
                [(f"k{b}n", n) for b in range(n_cores)], pairs, seed, 0x3C)


def _block_graphs(seed):
    for n in (0, 1, 2, 4, 5, 13, 40):
        for p in (0.0, 0.25, 0.9, 1.0):
            yield gen_er(n, p, seed=seed)
            yield gen_core_periphery(n, n + 3, p, p / 2, p / 5, seed=seed)
            yield gen_multi_core_community(3, n, p, p / 3, seed=seed)


@pytest.mark.parametrize("chunk", [3, 7, 64])
def test_chunked_draws_equal_one_draw(monkeypatch, chunk):
    whole = [g for seed in (0, 4, 17) for g in _block_graphs(seed)]
    monkeypatch.setattr(placenet.generators, "_CHUNK", chunk)
    assert [g for seed in (0, 4, 17) for g in _block_graphs(seed)] == whole


def test_er_20000_nodes_stays_far_below_quadratic_memory():
    # The child reads its own peak RSS from VmHWM: ru_maxrss of a child
    # started by subprocess (vfork, then exec) starts at the parent's peak.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak RSS from /proc")
    code = """
from placenet.generators import gen_er
g = gen_er(20000, 1e-4)
with open("/proc/self/status") as status:
    hwm = next(line for line in status if line.startswith("VmHWM:"))
print(g.node_count(), g.edge_count(), int(hwm.split()[1]) // 1024)
"""
    src = os.path.dirname(os.path.dirname(placenet.generators.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout.split()
    nodes, edges, peak_mb = map(int, out)
    assert nodes == 20000
    assert 15000 < edges < 25000  # about 20000 * 19999 / 2 * 1e-4 = 19999
    assert peak_mb < 500, f"peak RSS {peak_mb} MB"
