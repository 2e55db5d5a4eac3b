"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines while passing.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import brute
from placenet.cli import main
from placenet.embedding import nearest_categories, train_skipgram
from placenet.features import (
    algebraic_connectivity,
    avg_clustering,
    compute_features,
    degree_assortativity,
    feature_names,
    max_modularity_cnm,
)
from placenet.forest import ForestParams, cross_validated_auc, roc_auc
from placenet.generators import gen_core_periphery, gen_er
from placenet.graph import Graph
from placenet.prevalence import fractional_counts, log_pearson
from placenet.seeding import derive_rng, derive_seed
from placenet.similarity import Ensemble, representative_graph


@contextmanager
def report(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def nx_to_graph(nx_graph):
    ids = {v: f"n{v:02d}" for v in nx_graph.nodes()}
    return Graph(
        [(ids[u], ids[v]) for u, v in nx_graph.edges()],
        nodes=ids.values(),
    )


def oracle_feature_values(g):
    """The 18 features recomputed by the independent brute-force toolkit."""
    stats = brute.degree_stats(g)
    values = {
        "n_nodes": stats["n_nodes"],
        "n_edges": stats["n_edges"],
        "density": stats["density"],
        "avg_degree": stats["avg_degree"],
        "degree_variance": stats["degree_variance"],
        "avg_clustering": brute.clustering_by_enumeration(g),
        "degree_assortativity": brute.assortativity_corrcoef(g),
        "avg_path_length_lcc": brute.apl_floyd_warshall(g),
        "algebraic_connectivity": brute.lambda2_dense(g),
    }
    for k in (2, 4, 8, 16):
        nodes, edges = brute.kcore_peel_naive(g, k)
        values[f"kcore_{k}"] = float(
            brute.component_count(nodes, edges) if nodes else 0
        )
        bnodes, bedges = brute.kbrace_fixpoint_naive(g, k)
        values[f"kbrace_{k}"] = float(
            brute.component_count(bnodes, bedges) if bnodes else 0
        )
    return values


def random_small_graph(rng, max_n=12):
    n = int(rng.integers(1, max_n + 1))
    p = float(rng.uniform(0, 1))
    ids = [f"n{i:02d}" for i in range(n)]
    edges = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(edges, nodes=ids)


def test_c1_feature_oracle_equivalence():
    """Every feature matches brute force on the enumerated + random suite."""
    networkx = pytest.importorskip("networkx")
    with report(1, "feature oracle equivalence"):
        start = time.monotonic()
        suite = [
            nx_to_graph(G)
            for G in networkx.graph_atlas_g()
            if G.number_of_nodes() > 0 and networkx.is_connected(G)
        ]
        assert len(suite) == 996  # all connected graphs on <= 7 nodes
        rng = derive_rng(0xACC, 1)
        suite.extend(random_small_graph(rng) for _ in range(200))

        names = feature_names()
        for g in suite:
            fv = compute_features(g)
            mine = dict(zip(names, (float(x) for x in fv.as_row())))
            expected = oracle_feature_values(g)
            for name, want in expected.items():
                assert abs(mine[name] - want) <= 1e-6, (
                    f"{name}: {mine[name]} vs oracle {want} on {g!r}"
                )
            # modularity: the returned Q must equal an independent recompute
            # of the returned partition, and greedy never beats exhaustive
            q, parts = max_modularity_cnm(g)
            assert abs(mine["max_modularity"] - q) <= 1e-12
            assert abs(brute.modularity_of(g, parts) - q) <= 1e-6
            if 1 <= g.edge_count() and g.node_count() <= 10:
                assert q <= brute.best_modularity_exhaustive(g) + 1e-6
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_c2_analytic_spot_values():
    with report(2, "analytic spot values"):
        k4 = Graph([("a", "b"), ("a", "c"), ("a", "d"),
                    ("b", "c"), ("b", "d"), ("c", "d")])
        k2 = Graph([("a", "b")])
        p4 = Graph([("a", "b"), ("b", "c"), ("c", "d")])
        assert abs(algebraic_connectivity(k4) - 4.0) <= 1e-6
        assert abs(algebraic_connectivity(k2) - 2.0) <= 1e-6
        assert abs(algebraic_connectivity(p4) - (2.0 - math.sqrt(2.0))) <= 1e-6

        k4_minus_e = Graph([("a", "b"), ("a", "c"), ("a", "d"),
                            ("b", "c"), ("b", "d")])
        assert abs(avg_clustering(k4_minus_e) - 5.0 / 6.0) <= 1e-9

        s4 = Graph([("hub", "x"), ("hub", "y"), ("hub", "z")])
        assert abs(degree_assortativity(s4) - (-1.0)) <= 1e-9
        assert abs(degree_assortativity(p4) - (-0.5)) <= 1e-9

        bridge = Graph([("a", "b"), ("a", "c"), ("b", "c"),
                        ("d", "e"), ("d", "f"), ("e", "f"), ("c", "d")])
        q, _ = max_modularity_cnm(bridge)
        assert abs(q - (6.0 / 7.0 - 0.5)) <= 1e-12


def test_c3_classifier_sanity():
    """Separable synthetic ensembles score high; split-half stays near 0.5."""
    with report(3, "classifier sanity"):
        start = time.monotonic()
        er_rows = np.array([
            compute_features(gen_er(200, 0.02, seed=derive_seed(1000, i))).as_array()
            for i in range(100)
        ])
        cp_rows = np.array([
            compute_features(
                gen_core_periphery(40, 160, 0.5, 0.05, 0.005,
                                   seed=derive_seed(2000, i))
            ).as_array()
            for i in range(100)
        ])

        separable = cross_validated_auc(er_rows, cp_rows, folds=10, seed=42)
        folded = max(separable.mean_auc, 1.0 - separable.mean_auc)
        assert folded >= 0.90, f"separable folded AUC {folded:.3f}"

        near_half = 0
        for seed in range(20):
            srng = derive_rng(3000, seed)
            perm = srng.permutation(100)
            half_a = er_rows[perm[:50]]
            half_b = er_rows[perm[50:]]
            result = cross_validated_auc(half_a, half_b, folds=10, seed=seed)
            if max(result.mean_auc, 1.0 - result.mean_auc) <= 0.65:
                near_half += 1
        assert near_half >= 18, f"only {near_half}/20 split-half runs near 0.5"

        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"


def test_c4_auc_correctness():
    with report(4, "exact AUC"):
        rng = derive_rng(0xACC, 4)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 30))
            decimals = int(rng.integers(0, 3))
            scores = np.round(rng.uniform(0, 1, size=n), decimals)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            auc = roc_auc(scores, labels)
            assert auc == brute.auc_pair_count(scores, labels)
            assert auc + roc_auc(scores, 1 - labels) == 1.0
            checked += 1


def test_c5_representative_selection():
    with report(5, "representative selection"):
        items = {
            "cat": [
                ("g0", [1.0, 100.0]),
                ("g1", [2.0, -50.0]),
                ("g2", [3.0, 7.0]),
                ("g3", [4.0, 0.0]),
            ],
            "other": [
                ("h0", [0.5, 3.0]),
                ("h1", [5.0, 1.0]),
                ("h2", [2.5, -9.0]),
            ],
        }
        weights = [1.0, 0.0]
        expected, _ = brute.representative_by_definition(items, "cat", weights)

        def build(transform_col=None, fn=None):
            table = []
            for cat, rows in items.items():
                for gid, vec in rows:
                    v = list(vec)
                    if transform_col is not None:
                        v[transform_col] = fn(v[transform_col])
                    table.append((cat, gid, v))
            return Ensemble.from_rows(table)

        assert representative_graph(build(), "cat", weights) == expected

        base_selection = representative_graph(build(), "cat", weights)
        rng = derive_rng(0xACC, 5)
        for trial in range(50):
            col = int(rng.integers(0, 2))
            kind = int(rng.integers(0, 3))
            a = float(rng.uniform(0.2, 3.0))
            b = float(rng.uniform(0.1, 2.0))
            c = float(rng.uniform(-5.0, 5.0))
            if kind == 0:
                fn = lambda x: a * math.exp(b * x / 100.0) + c
            elif kind == 1:
                fn = lambda x: a * x**3 + b * x + c
            else:
                fn = lambda x: a * x + c
            assert representative_graph(build(col, fn), "cat", weights) == base_selection


def test_c6_prevalence():
    with report(6, "prevalence statistics"):
        rng = derive_rng(0xACC, 6)
        cats = [f"c{i}" for i in range(8)]
        records = []
        for i in range(10_000):
            k = int(rng.integers(1, 4))
            picks = sorted(rng.choice(len(cats), size=k, replace=False))
            records.append(brute.Page(
                f"p{i}", f"r{int(rng.integers(0, 40))}",
                tuple(cats[j] for j in picks),
            ))
        counts = fractional_counts(brute.page_tally_reference(records))
        assert sum(counts.values()) == Fraction(10_000)  # exact mass conservation

        two_cat = fractional_counts({("r", ("a", "b")): 1})
        assert float(two_cat[("r", "a")]) == 0.5
        assert float(two_cat[("r", "b")]) == 0.5

        x = {f"r{i}": float(v) for i, v in enumerate(rng.uniform(1, 99, size=50))}
        y = {r: 3.0 * v for r, v in x.items()}
        assert abs(log_pearson(x, y).r - 1.0) <= 1e-12


def test_c7_embedding():
    with report(7, "embedding"):
        start = time.monotonic()
        rng = derive_rng(0xACC, 7)
        # The planted pair stays rare relative to the fillers so it does not
        # dominate the negative-sampling noise distribution.
        fillers = [f"F{i:02d}" for i in range(10)]
        records = [("AAA", "BBB")] * 120
        for _ in range(880):
            k = int(rng.integers(2, 4))
            picks = rng.choice(len(fillers), size=k, replace=False)
            records.append(tuple(fillers[j] for j in picks))

        first_place = 0
        for seed in range(10):
            model = train_skipgram(records, seed=seed)
            assert model.epoch_losses[-1] < model.epoch_losses[0]
            ranked = nearest_categories(model, "AAA", top_k=5)
            if ranked and ranked[0][0] == "BBB":
                first_place += 1
        assert first_place >= 9, f"planted partner first in {first_place}/10 seeds"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s"


PIPELINE_CONFIG = """\
[er]
kind = erdos_renyi
n = 30
p = 0.12
count = 8

[cp]
kind = core_periphery
n_core = 8
n_periphery = 22
p_cc = 0.8
p_cp = 0.25
p_pp = 0.02
count = 8
category = coreper

[scatter]
kind = dyad_triad_scatter
n_components = 9
dyad_fraction = 0.4
count = 8
"""


def run_full_pipeline(root, seed=99):
    (root / "gen.ini").write_text(PIPELINE_CONFIG)
    for argv in (
        ["generate", "--config", str(root / "gen.ini"),
         "--out-dir", str(root / "gen"), "--seed", str(seed)],
        ["features", "--manifest", str(root / "gen" / "manifest.jsonl"),
         "--out-dir", str(root / "feat"), "--seed", str(seed)],
        ["similarity", "--features", str(root / "feat" / "features.csv"),
         "--manifest", str(root / "gen" / "manifest.jsonl"),
         "--out-dir", str(root / "sim"),
         "--folds", "4", "--n-trees", "20", "--seed", str(seed)],
        ["represent", "--features", str(root / "feat" / "features.csv"),
         "--manifest", str(root / "gen" / "manifest.jsonl"),
         "--importance", str(root / "sim" / "importance.csv"),
         "--out-dir", str(root / "rep")],
    ):
        assert main(argv) == 0


def test_c8_end_to_end_determinism(tmp_path):
    with report(8, "end-to-end determinism"):
        run_a = tmp_path / "run_a"
        run_b = tmp_path / "run_b"
        run_a.mkdir()
        run_b.mkdir()
        run_full_pipeline(run_a)
        run_full_pipeline(run_b)
        files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
        assert files_a == files_b
        assert len(files_a) > 30  # graphs, manifest, CSVs, copies, metadata
        for rel in files_a:
            assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
