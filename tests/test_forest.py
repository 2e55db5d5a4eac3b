"""Classifier, AUC and cross-validation contracts."""

import numpy as np
import pytest

import brute
from placenet import forest
from placenet.forest import (
    Dataset,
    ForestParams,
    cross_validated_auc,
    predict_scores,
    roc_auc,
    stratified_fold_assignment,
    train_random_forest,
)
from placenet.seeding import derive_rng


def separable_dataset(n_per_class=20, noise_dims=2, seed=0):
    rng = derive_rng(seed)
    a = np.zeros((n_per_class, 1 + noise_dims))
    b = np.ones((n_per_class, 1 + noise_dims))
    a[:, 1:] = rng.normal(size=(n_per_class, noise_dims))
    b[:, 1:] = rng.normal(size=(n_per_class, noise_dims))
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(X, y)


# ---------------------------------------------------------------------------
# training


def test_separable_data_classified_perfectly():
    ds = separable_dataset()
    model = train_random_forest(ds, ForestParams(n_trees=25, seed=1))
    scores = predict_scores(model, ds.features)
    assert all(s < 0.5 for s in scores[:20])
    assert all(s > 0.5 for s in scores[20:])


def test_constant_features_score_near_half():
    X = np.full((40, 3), 2.5)
    y = np.array([0, 1] * 20)
    model = train_random_forest(Dataset(X, y), ForestParams(n_trees=100, seed=4))
    (score,) = predict_scores(model, X[:1])
    assert 0.35 <= score <= 0.65


def test_same_seed_is_bitwise_identical():
    ds = separable_dataset(seed=9)
    p = ForestParams(n_trees=12, seed=77)
    s1 = predict_scores(train_random_forest(ds, p), ds.features)
    s2 = predict_scores(train_random_forest(ds, p), ds.features)
    assert np.array_equal(s1, s2)


def test_single_class_training_error():
    X = np.zeros((6, 2))
    y = np.ones(6)
    with pytest.raises(ValueError):
        train_random_forest(Dataset(X, y))


def test_training_point_rescored_toward_own_class():
    ds = separable_dataset(n_per_class=15, seed=5)
    model = train_random_forest(ds, ForestParams(n_trees=50, seed=2))
    assert predict_scores(model, ds.features[:1])[0] <= 0.1
    assert predict_scores(model, ds.features[-1:])[0] >= 0.9


def test_predict_dimension_mismatch():
    ds = separable_dataset()
    model = train_random_forest(ds, ForestParams(n_trees=3, seed=0))
    with pytest.raises(ValueError):
        predict_scores(model, [[1.0, 2.0]])
    with pytest.raises(ValueError):  # a vector, not a one-row matrix
        predict_scores(model, [1.0, 2.0, 3.0])


def leaf_tree(p):
    from placenet.forest import _Tree

    return _Tree([-1], [0.0], [-1], [-1], [p])


def test_predict_score_is_mean_of_leaf_probabilities():
    from placenet.forest import Forest

    one = Forest(trees=[leaf_tree(1.0)], importances=np.ones(2) / 2, n_features=2)
    assert predict_scores(one, [[0.0, 0.0]]).tolist() == [1.0]
    two = Forest(trees=[leaf_tree(1.0), leaf_tree(0.0)],
                 importances=np.ones(2) / 2, n_features=2)
    assert predict_scores(two, [[0.0, 0.0]]).tolist() == [0.5]


def test_importances_nonnegative_sum_to_one():
    ds = separable_dataset(seed=21)
    model = train_random_forest(ds, ForestParams(n_trees=30, seed=3))
    assert np.all(model.importances >= 0)
    assert abs(model.importances.sum() - 1.0) <= 1e-9


def test_max_depth_one_gives_stumps():
    ds = separable_dataset(seed=31)
    model = train_random_forest(ds, ForestParams(n_trees=5, max_depth=1, seed=6))
    for tree in model.trees:
        assert len(tree.feature) <= 3


def test_min_leaf_respected():
    ds = separable_dataset(n_per_class=10, seed=41)
    model = train_random_forest(ds, ForestParams(n_trees=10, min_leaf=4, seed=8))
    for tree in model.trees:
        # walk every leaf's training share indirectly: no chain deeper than
        # log2(20/4) + 1 splits can respect min_leaf=4 on 20 samples
        assert len(tree.feature) <= 2 * (20 // 4) + 1


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 1]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    X = np.zeros((5, 3))
    X[3, 2] = bad
    X[4, 0] = bad
    with pytest.raises(ValueError, match=r"row 3, column 2"):
        Dataset(X, np.array([0, 1, 0, 1, 0]))


def random_training_set(rng):
    """A small dataset with, at random, rounded (tie-heavy) values,
    duplicate rows and constant columns; both classes present."""
    n = int(rng.integers(4, 60))
    d = int(rng.integers(1, 25))
    X = rng.normal(size=(n, d)) * rng.choice([1.0, 1e-3, 1e3])
    if rng.random() < 0.5:
        X = np.round(X, int(rng.integers(0, 2)))
    if rng.random() < 0.3:
        X[rng.integers(0, n, size=n // 3)] = X[rng.integers(0, n, size=n // 3)]
    if rng.random() < 0.3:
        X[:, rng.integers(0, d)] = rng.normal()
    y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int8)
    y[:2] = [0, 1]
    return X, y


def assert_forest_equals_reference(X, y, params):
    model = train_random_forest(Dataset(X, y), params)
    trees, importances = brute.forest_reference(X, y, params, derive_rng, forest._KEY_ROWS)
    assert len(model.trees) == len(trees)
    for tree, ref in zip(model.trees, trees):
        for name, expected in zip(("feature", "threshold", "left", "right", "prob"), ref):
            assert getattr(tree, name).tolist() == list(expected), name
    assert model.importances.tolist() == importances.tolist()
    # what the benchmark tracer counts as forest.tree_nodes
    assert sum(len(t.feature) for t in model.trees) == sum(len(r[0]) for r in trees)


def random_params(rng, case, d):
    return ForestParams(
        n_trees=int(rng.integers(1, 12)),
        max_depth=[None, 1, 3][case % 3],
        min_leaf=[1, 3][case // 3 % 2],
        features_per_split=[1, None, d][case // 6 % 3],
        seed=case,
    )


def test_lockstep_forest_equals_tree_by_tree_reference():
    rng = derive_rng(71)
    for case in range(200):
        X, y = random_training_set(rng)
        assert_forest_equals_reference(X, y, random_params(rng, case, X.shape[1]))


@pytest.mark.parametrize("block_rows", [1, 60])
def test_lockstep_forest_equals_reference_in_split_blocks(monkeypatch, block_rows):
    monkeypatch.setattr(forest, "_BLOCK_ROWS", block_rows)
    rng = derive_rng(73, block_rows)
    for case in range(40):
        X, y = random_training_set(rng)
        assert_forest_equals_reference(X, y, random_params(rng, case, X.shape[1]))


def test_tree_crossing_key_chunks_equals_reference():
    # random labels: the trees split until their leaves are pure
    rng = derive_rng(74)
    X = rng.normal(size=(200, 6))
    y = (rng.random(200) < 0.5).astype(np.int8)
    params = ForestParams(n_trees=4, seed=9)
    model = train_random_forest(Dataset(X, y), params)
    splits = max(int((tree.feature >= 0).sum()) for tree in model.trees)
    assert splits > 2 * forest._KEY_ROWS  # scored nodes >= splits: three chunks
    assert_forest_equals_reference(X, y, params)


@pytest.mark.parametrize("d, q", [(9, 3), (5, 1), (6, 5)])
def test_each_feature_enters_subsets_at_rate_q_over_d(d, q):
    # only column f separates the classes, so a root splits iff f is in its subset
    n_trees = 1000
    y = np.array([0, 1] * 20)
    p = q / d
    tolerance = 4.5 * np.sqrt(n_trees * p * (1 - p))
    for f in range(d):
        X = np.zeros((len(y), d))
        X[:, f] = y
        model = train_random_forest(
            Dataset(X, y), ForestParams(n_trees=n_trees, max_depth=1, features_per_split=q,
                                        seed=100 * d + f))
        hits = sum(int(tree.feature[0] == f) for tree in model.trees)
        assert abs(hits - n_trees * p) <= tolerance, (f, hits)


@pytest.mark.parametrize("n_trees", [1, 25, 100])
def test_one_stream_per_forest(monkeypatch, n_trees):
    calls = []

    def counting(*keys):
        calls.append(keys)
        return derive_rng(*keys)

    monkeypatch.setattr(forest, "derive_rng", counting)
    ds = separable_dataset(seed=n_trees)
    train_random_forest(ds, ForestParams(n_trees=n_trees, seed=5))
    assert calls == [(5, 31)]


def test_batch_prediction_equals_per_row_tree_walk():
    rng = derive_rng(72)
    for case in range(30):
        X, y = random_training_set(rng)
        params = ForestParams(n_trees=[1, 9, 25][case % 3], seed=case)
        model = train_random_forest(Dataset(X, y), params)
        probe = np.vstack([X, rng.normal(size=(5, X.shape[1]))])
        expected = []
        for x in probe:
            total = 0
            for t in model.trees:
                i = 0
                while t.feature[i] >= 0:
                    i = t.left[i] if x[t.feature[i]] <= t.threshold[i] else t.right[i]
                total += float(t.prob[i])
            expected.append(total / len(model.trees))
        assert predict_scores(model, probe).tolist() == expected
        assert predict_scores(model, probe[-1:]).tolist() == expected[-1:]


# ---------------------------------------------------------------------------
# roc_auc


def test_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert roc_auc([0.4] * 8, [1, 1, 1, 1, 0, 0, 0, 0]) == 0.5


def test_auc_three_of_four_pairs():
    assert roc_auc([0.8, 0.3, 0.5, 0.1], [1, 1, 0, 0]) == 0.75


def test_auc_matches_pair_count_oracle():
    rng = derive_rng(51)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        scores = np.round(rng.uniform(0, 1, size=n), int(rng.integers(0, 3)))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        assert roc_auc(scores, labels) == brute.auc_pair_count(scores, labels)


def test_auc_label_flip_identity_exact():
    rng = derive_rng(52)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.uniform(0, 1, size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == 1.0


def test_auc_monotone_transform_invariance():
    rng = derive_rng(53)
    scores = rng.uniform(0, 1, size=25)
    labels = np.array([1] * 10 + [0] * 15)
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(4 * scores), labels) == base
    assert roc_auc(scores**3 + 2 * scores, labels) == base


def test_auc_single_class_error():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])


# ---------------------------------------------------------------------------
# cross-validation


def test_fold_assignment_partitions_evenly():
    rng = derive_rng(61)
    for n, folds in [(23, 10), (10, 10), (14, 3)]:
        fold = stratified_fold_assignment(n, folds, rng)
        assert len(fold) == n
        sizes = np.bincount(fold, minlength=folds)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1


def test_cv_separable_feature_dominates():
    rng = derive_rng(62)
    a = np.hstack([np.zeros((30, 1)), rng.normal(size=(30, 4))])
    b = np.hstack([np.ones((30, 1)), rng.normal(size=(30, 4))])
    result = cross_validated_auc(a, b, folds=5, seed=3,
                                 params=ForestParams(n_trees=30))
    assert result.mean_auc >= 0.99
    assert result.importance[0] > 0.5


def test_cv_null_distribution_stays_near_half():
    rng = derive_rng(63)
    pool = rng.normal(size=(100, 6))
    hits = 0
    for seed in range(20):
        srng = derive_rng(64, seed)
        perm = srng.permutation(100)
        a, b = pool[perm[:50]], pool[perm[50:]]
        result = cross_validated_auc(a, b, folds=10, seed=seed,
                                     params=ForestParams(n_trees=20))
        if 0.35 <= result.mean_auc <= 0.65:
            hits += 1
    assert hits >= 18


def test_cv_label_symmetry_on_identical_classes():
    # smallest legal configuration: two samples per class, two folds
    rng = derive_rng(65)
    data = rng.normal(size=(2, 3))
    r1 = cross_validated_auc(data, data, folds=2, seed=7,
                             params=ForestParams(n_trees=5))
    r2 = cross_validated_auc(data, data, folds=2, seed=7,
                             params=ForestParams(n_trees=5))
    folded1 = max(r1.mean_auc, 1 - r1.mean_auc)
    folded2 = max(r2.mean_auc, 1 - r2.mean_auc)
    assert folded1 == folded2
    assert folded1 >= 0.5


def test_cv_determinism():
    rng = derive_rng(66)
    a = rng.normal(size=(12, 4))
    b = rng.normal(size=(12, 4)) + 0.3
    r1 = cross_validated_auc(a, b, folds=3, seed=11, params=ForestParams(n_trees=8))
    r2 = cross_validated_auc(a, b, folds=3, seed=11, params=ForestParams(n_trees=8))
    assert r1.mean_auc == r2.mean_auc
    assert np.array_equal(r1.importance, r2.importance)


def test_cv_errors():
    a = np.zeros((4, 2))
    b = np.ones((12, 2))
    with pytest.raises(ValueError):
        cross_validated_auc(a, b, folds=10)
    with pytest.raises(ValueError):
        cross_validated_auc(b, b, folds=1)
