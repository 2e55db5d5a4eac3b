"""From-scratch binary random forest, ROC-AUC and cross-validation.

Trees split on axis-aligned thresholds chosen by Gini gain; every source
of randomness is derived from an explicit seed, so training and scoring
are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from placenet.seeding import derive_rng, derive_seed


@dataclass
class Dataset:
    """Feature matrix plus binary labels (1 = positive class)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        uniq = set(np.unique(self.labels).tolist())
        if not uniq <= {0, 1}:
            raise ValueError("labels must be binary (0/1)")
        self.labels = self.labels.astype(np.int8)


@dataclass(frozen=True)
class ForestParams:
    """Hyperparameters; ``features_per_split=None`` means ceil(sqrt(d))."""

    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None
    seed: int = 0


class _Tree:
    """Flat array representation; feature[i] == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "prob")

    def __init__(self, feature, threshold, left, right, prob):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.prob = np.asarray(prob, dtype=float)

    def score(self, x: np.ndarray) -> float:
        i = 0
        while self.feature[i] >= 0:
            i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
        return float(self.prob[i])


@dataclass
class Forest:
    trees: list[_Tree]
    importances: np.ndarray
    n_features: int


def _best_split(Xn: np.ndarray, yn: np.ndarray, feats: np.ndarray, min_leaf: int):
    """Best Gini-gain split among candidate features.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values. Ties on gain break deterministically by lowest global feature
    index, then lowest threshold. Returns None when no split has positive
    gain.
    """
    n = len(yn)
    Xf = Xn[:, feats]
    order = np.argsort(Xf, axis=0, kind="stable")
    xs = np.take_along_axis(Xf, order, axis=0)
    ys = yn[order].astype(float)
    c1_left = np.cumsum(ys, axis=0)[:-1]
    total1 = float(yn.sum())
    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    c1_right = total1 - c1_left
    gini_left = 1.0 - (c1_left / nl) ** 2 - ((nl - c1_left) / nl) ** 2
    gini_right = 1.0 - (c1_right / nr) ** 2 - ((nr - c1_right) / nr) ** 2
    weighted = (nl * gini_left + nr * gini_right) / n
    valid = xs[1:] != xs[:-1]
    if min_leaf > 1:
        valid &= (nl >= min_leaf) & (nr >= min_leaf)
    weighted = np.where(valid, weighted, np.inf)
    best = weighted.min()
    if not np.isfinite(best):
        return None
    p = total1 / n
    gain = (1.0 - p * p - (1.0 - p) * (1.0 - p)) - best
    if gain <= 0.0:
        return None
    ii, jj = np.nonzero(weighted == best)
    candidates = []
    for i, j in zip(ii, jj):
        lo, hi = xs[i, j], xs[i + 1, j]
        thr = lo + (hi - lo) / 2.0
        if thr >= hi:  # adjacent floats: keep the cut strictly below hi
            thr = lo
        candidates.append((int(feats[j]), float(thr)))
    feat, thr = min(candidates)
    left_mask = Xn[:, feat] <= thr
    return float(gain), feat, thr, left_mask


def _grow_tree(X, y, rng, params: ForestParams, q: int, importance: np.ndarray) -> _Tree:
    n_root = len(y)
    d = X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    prob: list[float] = []

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(0.0)
        return len(feature) - 1

    stack = [(np.arange(n_root), 0, alloc())]
    while stack:
        idx, depth, slot = stack.pop()
        yn = y[idx]
        n = len(idx)
        c1 = int(yn.sum())
        depth_hit = params.max_depth is not None and depth >= params.max_depth
        if c1 == 0 or c1 == n or depth_hit or n < 2 * params.min_leaf:
            prob[slot] = c1 / n
            continue
        feats = np.sort(rng.choice(d, size=q, replace=False))
        found = _best_split(X[idx], yn, feats, params.min_leaf)
        if found is None:
            prob[slot] = c1 / n
            continue
        gain, feat, thr, left_mask = found
        importance[feat] += (n / n_root) * gain
        lslot = alloc()
        rslot = alloc()
        feature[slot] = feat
        threshold[slot] = thr
        left[slot] = lslot
        right[slot] = rslot
        stack.append((idx[~left_mask], depth + 1, rslot))
        stack.append((idx[left_mask], depth + 1, lslot))
    return _Tree(feature, threshold, left, right, prob)


def train_random_forest(dataset: Dataset, params: ForestParams = ForestParams()) -> Forest:
    """Bagged trees on bootstrap resamples; deterministic given the seed.

    Raises:
        ValueError: if the dataset holds a single class or the
            hyperparameters are out of range.
    """
    X, y = dataset.features, dataset.labels
    n, d = X.shape
    if params.n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if params.min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if int(y.sum()) in (0, n):
        raise ValueError("training requires samples of both classes")
    q = params.features_per_split
    if q is None:
        q = math.ceil(math.sqrt(d))
    if not 1 <= q <= d:
        raise ValueError(f"features_per_split must be in [1, {d}]")

    trees: list[_Tree] = []
    per_tree = np.zeros((params.n_trees, d))
    for t in range(params.n_trees):
        rng = derive_rng(params.seed, 31, t)
        boot = rng.integers(0, n, size=n)
        raw = np.zeros(d)
        trees.append(_grow_tree(X[boot], y[boot], rng, params, q, raw))
        total = raw.sum()
        if total > 0:
            per_tree[t] = raw / total
    mean_imp = per_tree.mean(axis=0)
    total = mean_imp.sum()
    importances = mean_imp / total if total > 0 else np.full(d, 1.0 / d)
    return Forest(trees=trees, importances=importances, n_features=d)


def predict_score(forest: Forest, x: Sequence[float]) -> float:
    """Mean positive-class leaf probability over the forest's trees."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (forest.n_features,):
        raise ValueError(
            f"expected a vector of dimension {forest.n_features}, got {vec.shape}"
        )
    return float(sum(t.score(vec) for t in forest.trees) / len(forest.trees))


def predict_scores(forest: Forest, X) -> np.ndarray:
    mat = np.asarray(X, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != forest.n_features:
        raise ValueError(f"expected an (n, {forest.n_features}) matrix")
    return np.array([predict_score(forest, row) for row in mat])


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg), ties counted 1/2.

    Computed from exact integer rank sums with a single final division, so
    the result matches pairwise counting bit-for-bit and
    ``roc_auc(s, y) + roc_auc(s, ~y) == 1`` exactly.

    Raises:
        ValueError: if either class is absent.
    """
    s = np.asarray(scores, dtype=float)
    lab = np.asarray(labels).astype(bool)
    if s.ndim != 1 or s.shape != lab.shape:
        raise ValueError("scores and labels must be aligned 1-D sequences")
    n_pos = int(lab.sum())
    n_neg = len(lab) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc requires at least one sample of each class")
    order = np.argsort(s, kind="stable")
    ss = s[order]
    ll = lab[order]
    _, inverse, counts = np.unique(ss, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    doubled_rank = 2 * starts + counts + 1  # twice the average 1-based rank
    rank2_pos = int(doubled_rank[inverse][ll].sum())
    num2 = rank2_pos - n_pos * (n_pos + 1)
    return num2 / (2 * n_pos * n_neg)


def stratified_fold_assignment(n: int, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffle indices, then deal them round-robin into ``folds`` folds."""
    order = rng.permutation(n)
    fold = np.empty(n, dtype=int)
    fold[order] = np.arange(n) % folds
    return fold


class CvResult(NamedTuple):
    mean_auc: float
    importance: np.ndarray


def cross_validated_auc(
    a,
    b,
    folds: int = 10,
    seed: int = 0,
    params: ForestParams | None = None,
) -> CvResult:
    """Stratified k-fold AUC for distinguishing sample sets ``a`` and ``b``.

    Class ``a`` is scored as positive. Fold assignment shuffles within each
    class by the seed and deals round-robin, so per-class fold sizes differ
    by at most one. Returns the unweighted mean AUC over folds and the mean
    normalized Gini importance over the fold models.

    Raises:
        ValueError: if folds < 2 or either class has fewer samples than
            folds.
    """
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("a and b must be 2-D with the same feature dimension")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(A) < folds or len(B) < folds:
        raise ValueError(
            f"each class needs at least {folds} samples "
            f"(got {len(A)} and {len(B)})"
        )
    params = params or ForestParams()
    rng = derive_rng(seed, 23)
    fold_a = stratified_fold_assignment(len(A), folds, rng)
    fold_b = stratified_fold_assignment(len(B), folds, rng)

    aucs = []
    imps = []
    for f in range(folds):
        X_train = np.vstack([A[fold_a != f], B[fold_b != f]])
        y_train = np.concatenate(
            [np.ones((fold_a != f).sum(), dtype=np.int8),
             np.zeros((fold_b != f).sum(), dtype=np.int8)]
        )
        model = train_random_forest(
            Dataset(X_train, y_train),
            replace(params, seed=derive_seed(seed, 29, f)),
        )
        X_test = np.vstack([A[fold_a == f], B[fold_b == f]])
        y_test = np.concatenate(
            [np.ones((fold_a == f).sum(), dtype=np.int8),
             np.zeros((fold_b == f).sum(), dtype=np.int8)]
        )
        aucs.append(roc_auc(predict_scores(model, X_test), y_test))
        imps.append(model.importances)

    importance = np.mean(imps, axis=0)
    total = importance.sum()
    if total > 0:
        importance = importance / total
    return CvResult(float(np.mean(aucs)), importance)
