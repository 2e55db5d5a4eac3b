"""Pairwise AUC matrix, importance ranking and representative selection."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import rankdata

import brute
import placenet
from placenet.features import feature_names
from placenet.forest import ForestParams, average_ranks, cross_validated_auc, mean_importance
from placenet.seeding import derive_rng, derive_seed
from placenet.similarity import (
    Ensemble,
    auc_matrix,
    global_importance_ranking,
    representative_distances,
    representative_graph,
    write_auc_matrix_csv,
    write_importance_csv,
    read_importance_csv,
)


def make_ensemble(spec, dim=4, seed=0):
    """spec: {category: (n_samples, mean_shift)}"""
    rng = derive_rng(seed)
    return Ensemble.from_rows(
        (cat, f"{cat}_{i:03d}", rng.normal(size=dim) + shift)
        for cat, (n, shift) in spec.items()
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# auc matrix


def test_matrix_shape_symmetry_and_diagonal():
    spec = {f"cat{i:02d}": (6, i * 2.0) for i in range(4)}
    ens = make_ensemble(spec, seed=1)
    matrix, importance = auc_matrix(ens, folds=2, seed=3,
                                    params=ForestParams(n_trees=4))
    assert matrix.categories == tuple(sorted(spec))
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.all(np.diag(matrix.values) == 0.5)
    assert np.all(matrix.values >= 0.5)
    assert np.all(matrix.values <= 1.0)
    assert abs(importance.sum() - 1.0) <= 1e-9
    assert np.all(importance >= 0)


def test_twelve_categories_yield_66_pairs():
    spec = {f"cat{i:02d}": (4, float(i)) for i in range(12)}
    ens = make_ensemble(spec, dim=2, seed=2)
    matrix, _ = auc_matrix(ens, folds=2, seed=1, params=ForestParams(n_trees=1))
    off_diagonal = [
        (i, j) for i in range(12) for j in range(i + 1, 12)
    ]
    assert len(off_diagonal) == 66
    assert matrix.values.shape == (12, 12)


def test_identical_distribution_pair_stays_near_half():
    rng = derive_rng(5)
    pool = rng.normal(size=(100, 5))
    ens = Ensemble.from_rows(
        [("x", f"x_{i:03d}", pool[i]) for i in range(50)]
        + [("y", f"y_{i:03d}", pool[50 + i]) for i in range(50)]
    )
    matrix, _ = auc_matrix(ens, folds=10, seed=8, params=ForestParams(n_trees=20))
    assert 0.5 <= matrix.values[0, 1] <= 0.65


def test_separated_pair_is_distinguishable():
    ens = make_ensemble({"a": (20, 0.0), "b": (20, 5.0)}, seed=6)
    matrix, importance = auc_matrix(ens, folds=4, seed=2,
                                    params=ForestParams(n_trees=10))
    assert matrix.values[0, 1] >= 0.95


def test_undersized_category_error_names_it():
    ens = make_ensemble({"big": (10, 0.0), "tiny": (3, 1.0)}, seed=7)
    with pytest.raises(ValueError, match="tiny"):
        auc_matrix(ens, folds=5)


def test_single_category_error():
    ens = make_ensemble({"only": (5, 0.0)})
    with pytest.raises(ValueError):
        auc_matrix(ens, folds=2)


def test_matrix_determinism():
    spec = {"a": (8, 0.0), "b": (8, 0.5), "c": (8, 1.0)}
    m1, i1 = auc_matrix(make_ensemble(spec, seed=9), folds=2, seed=4,
                        params=ForestParams(n_trees=5))
    m2, i2 = auc_matrix(make_ensemble(spec, seed=9), folds=2, seed=4,
                        params=ForestParams(n_trees=5))
    assert np.array_equal(m1.values, m2.values)
    assert np.array_equal(i1, i2)


@pytest.mark.parametrize("group_bytes, block_rows", [(None, None), (1, None), (None, 3)],
                         ids=["one_group", "group_per_forest", "small_blocks"])
def test_matrix_cells_equal_cross_validated_auc_per_pair(monkeypatch, group_bytes, block_rows):
    # rounded features tie within and across categories
    spec = {"a": (9, 0.0), "b": (11, 0.4), "c": (9, 0.4), "d": (10, 1.0)}
    ens = make_ensemble(spec, dim=5, seed=12)
    ens = Ensemble(ens.ids, ens.categories, np.round(ens.X, 1))
    cats = ens.category_names()
    for params in (ForestParams(n_trees=7), ForestParams(n_trees=5, max_depth=2, min_leaf=2),
                   ForestParams(n_trees=4, features_per_split=5)):
        pairs = [(i, j) for i in range(len(cats)) for j in range(i + 1, len(cats))]
        results = [cross_validated_auc(ens.X[ens.categories == cats[i]],
                                       ens.X[ens.categories == cats[j]],
                                       folds=3, seed=derive_seed(31, 37, p), params=params)
                   for p, (i, j) in enumerate(pairs)]
        with monkeypatch.context() as patch:
            if group_bytes is not None:
                patch.setattr(placenet.forest, "_GROUP_BYTES", group_bytes)
            if block_rows is not None:
                patch.setattr(placenet.forest, "_BLOCK_ROWS", block_rows)
            matrix, importance = auc_matrix(ens, folds=3, seed=31, params=params)
        for (i, j), result in zip(pairs, results):
            assert matrix.values[i, j] == max(result.mean_auc, 1.0 - result.mean_auc)
        assert importance.tolist() == mean_importance([r.importance for r in results]).tolist()


def test_matrix_memory_is_bounded_by_the_group_cap():
    # The child reads its own peak RSS from VmHWM, as in the generator test.
    # 6 categories of 20 graphs at the CLI defaults (10 folds, 100 trees)
    # make 150 forests; grown in one group they took about 95 MB more than
    # the imports, in groups of the default cap about 12 MB.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak RSS from /proc")
    code = """
import numpy as np
from placenet.seeding import derive_rng
from placenet.similarity import Ensemble, auc_matrix

def peak_mb():
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1]) // 1024

X = derive_rng(2024).normal(size=(120, 18)) + np.repeat(np.arange(6) % 2, 20)[:, None] * 0.5
ens = Ensemble([f"g{i:03d}" for i in range(120)], [f"c{i // 20}" for i in range(120)], X)
before = peak_mb()
matrix, _ = auc_matrix(ens)
print(matrix.values.shape[0], peak_mb() - before)
"""
    src = os.path.dirname(os.path.dirname(placenet.forest.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120,
                         capture_output=True, text=True).stdout.split()
    assert int(out[0]) == 6
    assert int(out[1]) < 45, f"auc_matrix raised the peak RSS by {out[1]} MB"


def test_ensemble_rejects_duplicates_and_ragged_vectors():
    with pytest.raises(ValueError):
        Ensemble.from_rows([("a", "g1", [1.0, 2.0]), ("a", "g1", [3.0, 4.0])])
    with pytest.raises(ValueError):
        Ensemble.from_rows([("a", "g1", [1.0, 2.0]), ("b", "g2", [1.0, 2.0, 3.0])])
    with pytest.raises(ValueError, match="duplicate graph id 'g1'"):
        Ensemble(["g1", "g1"], ["a", "b"], [[1.0], [2.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ensemble_rejects_non_finite_vectors(bad):
    with pytest.raises(ValueError, match="graph 'g7'.*finite"):
        Ensemble.from_rows([("a", "g1", [1.0, 2.0, 3.0]), ("a", "g7", [1.0, bad, 3.0])])
    with pytest.raises(ValueError, match="graph 'g7'.*finite"):
        Ensemble(["g7"], ["a"], [[1.0, bad, 3.0]])


def test_ensemble_is_one_read_only_table():
    ens = Ensemble.from_rows([("b", "g1", [1.0, 2.0]), ("a", "g2", [3.0, 4.0]),
                              ("b", "g3", [5.0, 6.0])])
    assert ens.ids == ("g1", "g2", "g3")
    assert list(ens.categories) == ["b", "a", "b"]
    assert ens.category_names() == ["a", "b"]
    assert ens.X.shape == (3, 2) and ens.dim == 2
    with pytest.raises(ValueError):
        ens.X[0, 0] = 9.0


# ---------------------------------------------------------------------------
# average ranks


def test_average_ranks_equal_scipy_rankdata_bit_for_bit():
    rng = derive_rng(0x5A, 1)
    for trial in range(300):
        n = int(rng.integers(1, 60))
        d = int(rng.integers(1, 8))
        levels = int(rng.integers(1, 10))
        X = rng.integers(0, levels, size=(n, d)).astype(float)  # many ties
        if trial % 3 == 0:
            X[:, 0] = rng.normal(size=n)  # one tie-free column
        if trial % 5 == 0:
            X *= -1.0  # mixes -0.0 and 0.0, which must tie
        want = rankdata(X, axis=0, method="average")
        got = average_ranks(X)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (X, got, want)


def test_cli_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(placenet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, placenet.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# importance ranking


def test_uniform_importance_keeps_canonical_order():
    ranking = global_importance_ranking(np.full(18, 1.0 / 18.0), feature_names())
    assert [name for name, _ in ranking] == feature_names()
    assert [rank for _, rank in ranking] == list(range(1, 19))


def test_dominant_feature_ranks_first():
    imp = np.full(18, 0.1 / 17.0)
    imp[6] = 0.9
    ranking = global_importance_ranking(imp, feature_names())
    assert ranking[0] == (feature_names()[6], 1)


def test_separable_ensemble_puts_signal_feature_first():
    rng = derive_rng(10)
    rows = []
    for i in range(12):
        rows.append(("a", f"a{i}", np.concatenate([[0.0], rng.normal(size=3)])))
        rows.append(("b", f"b{i}", np.concatenate([[1.0], rng.normal(size=3)])))
    ens = Ensemble.from_rows(rows)
    _, importance = auc_matrix(ens, folds=3, seed=5, params=ForestParams(n_trees=10))
    ranking = global_importance_ranking(importance, ["f0", "f1", "f2", "f3"])
    assert ranking[0][0] == "f0"


# ---------------------------------------------------------------------------
# representative graphs


def test_single_feature_median_rank_selected():
    ens = Ensemble.from_rows(
        ("solo", f"g{i}", [value]) for i, value in enumerate([10.0, 20.0, 30.0, 40.0, 50.0])
    )
    rep = representative_graph(ens, "solo", [1.0])
    assert rep == "g2"  # rank 3 of ranks 1..5


def test_identical_members_tie_break_smallest_id():
    rows = [("c", gid, [1.0, 2.0]) for gid in ["g9", "g3", "g7"]]
    assert representative_graph(Ensemble.from_rows(rows), "c", [0.5, 0.5]) == "g3"
    # with an outlier, the tied members come first, in id order
    dists = representative_distances(
        Ensemble.from_rows(rows + [("c", "g1", [5.0, 6.0])]), "c", [0.5, 0.5])
    assert [gid for gid, _ in dists] == ["g3", "g7", "g9", "g1"]
    assert dists == sorted(dists, key=lambda pair: (pair[1], pair[0]))


def test_zero_weight_feature_is_ignored():
    # 4-graph, 2-feature instance; importance (1, 0) must ignore feature 2
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
        ],
    }
    ens = Ensemble.from_rows(
        (cat, gid, vec) for cat, rows in items.items() for gid, vec in rows
    )
    expected, dists = brute.representative_by_definition(items, "cat", [1.0, 0.0])
    got = representative_graph(ens, "cat", [1.0, 0.0])
    assert got == expected
    mine = dict(representative_distances(ens, "cat", [1.0, 0.0]))
    for gid, dist in dists.items():
        assert mine[gid] == pytest.approx(dist, abs=1e-12)


def test_monotone_transform_invariance():
    rng = derive_rng(12)
    items = {
        "a": [(f"a{i}", list(rng.normal(size=3))) for i in range(6)],
        "b": [(f"b{i}", list(rng.normal(size=3) + 1)) for i in range(5)],
    }
    ens = Ensemble.from_rows(
        (cat, gid, vec) for cat, rows in items.items() for gid, vec in rows
    )
    weights = [0.5, 0.3, 0.2]
    baseline = representative_graph(ens, "a", weights)
    for trial in range(20):
        trng = derive_rng(13, trial)
        col = int(trng.integers(0, 3))
        scale = float(trng.uniform(0.5, 3.0))
        shift = float(trng.uniform(-2.0, 2.0))
        transformed = []
        for cat, rows in items.items():
            for gid, vec in rows:
                tv = list(vec)
                tv[col] = np.exp(scale * tv[col]) + shift
                transformed.append((cat, gid, tv))
        ens2 = Ensemble.from_rows(transformed)
        assert representative_graph(ens2, "a", weights) == baseline


def test_importance_scaling_invariance():
    rng = derive_rng(14)
    ens = Ensemble.from_rows(("z", f"z{i}", rng.normal(size=4)) for i in range(7))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    assert representative_graph(ens, "z", w) == representative_graph(ens, "z", 10 * w)


def test_per_category_scope_and_presquare_mode_run():
    rng = derive_rng(15)
    rows = []
    for i in range(5):
        rows.append(("m", f"m{i}", rng.normal(size=2)))
        rows.append(("n", f"n{i}", rng.normal(size=2)))
    ens = Ensemble.from_rows(rows)
    w = [1.0, 0.0]
    pooled = representative_graph(ens, "m", w)
    scoped = representative_graph(ens, "m", w, rank_scope="per_category")
    pre = representative_graph(ens, "m", w, weight_mode="presquare")
    assert pooled == scoped == pre  # with weight (1, 0) all variants agree
    items = {c: [(gid, list(vec)) for gid, cat, vec in zip(ens.ids, ens.categories, ens.X)
                 if cat == c]
             for c in ens.category_names()}
    expected, _ = brute.representative_by_definition(items, "m", w, pooled=False)
    assert scoped == expected


def test_unknown_category_raises():
    ens = Ensemble.from_rows([("a", "g", [1.0])])
    with pytest.raises(ValueError, match="^category 'nope' is not in the ensemble$"):
        representative_graph(ens, "nope", [1.0])


@pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("mode", ["squared", "presquare"])
def test_negative_or_non_finite_weight_raises(weight, mode):
    ens = Ensemble.from_rows(("a", f"g{i}", [float(i), float(-i)]) for i in range(4))
    with pytest.raises(ValueError, match="^importance must be finite and >= 0$"):
        representative_distances(ens, "a", [1.0, weight], weight_mode=mode)


# ---------------------------------------------------------------------------
# CSV surfaces


def test_auc_matrix_csv_shape(tmp_path):
    ens = make_ensemble({"a": (6, 0.0), "b": (6, 2.0)}, seed=16)
    matrix, importance = auc_matrix(ens, folds=2, seed=1,
                                    params=ForestParams(n_trees=3))
    out = tmp_path / "auc.csv"
    write_auc_matrix_csv(matrix, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "category,a,b"
    assert lines[1].startswith("a,0.5000,")
    assert len(lines) == 3


def test_importance_csv_round_trip(tmp_path):
    imp = np.array([0.5, 0.3, 0.2])
    out = tmp_path / "imp.csv"
    write_importance_csv(str(out), imp, ["x", "y", "z"])
    names, values = read_importance_csv(str(out))
    assert names == ["x", "y", "z"]
    np.testing.assert_array_equal(values, imp)
    lines = out.read_text().splitlines()
    assert lines[0] == "feature,importance,rank"
    assert lines[1].endswith(",1")


def test_importance_csv_refuses_a_negative_value(tmp_path):
    path = tmp_path / "imp.csv"
    path.write_text("feature,importance,rank\nx,0.5,1\ny,-1.0,2\n")
    with pytest.raises(ValueError, match=r"imp\.csv: line 3: negative importance '-1\.0'$"):
        read_importance_csv(str(path))
