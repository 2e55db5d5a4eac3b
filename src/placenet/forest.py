"""From-scratch binary random forest, ROC-AUC and cross-validation.

Trees split on axis-aligned thresholds chosen by Gini gain; every source
of randomness is derived from an explicit seed, so training and scoring
are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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
        for r, c in np.argwhere(~np.isfinite(self.features))[:1]:
            raise ValueError(f"features must be finite; row {r}, column {c} is not")
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


# Each step scores its nodes, largest first, in blocks of at most this many
# rows after padding to the block's largest node (and at least one node):
# padding then costs little, and a block's arrays stay small.
_BLOCK_ROWS = 4096


@dataclass
class Forest:
    trees: list[_Tree]
    importances: np.ndarray
    n_features: int


def _best_splits(rank, order, xs, ys, counts, tree_of, rows, n, c1, feats, min_leaf: int):
    """Best Gini-gain split of each of K nodes, scored as one block.

    Row ``order[f, i]`` has the i-th smallest value ``xs[f, i]`` of
    feature f, label ``ys[f, i]`` and rank ``rank[f, order[f, i]] == i``;
    the last row, N, pads (+inf, label 0). Node k of tree ``tree_of[k]``
    holds ``n[k]`` rows, ``c1[k]`` of them positive: ``counts[tree_of[k],
    r]`` copies of each distinct row r in ``rows[k]``, padded with N.
    Thresholds lie midway between consecutive distinct values of the
    node's rows on its ascending ``feats[k]``; gain ties break by lowest
    feature, then lowest threshold. Per node: None without a positive
    gain, else ``(gain, feature, threshold, left rows, right rows, left
    size, left positives)``.
    """
    K, U = rows.shape
    N1 = rank.shape[1]
    k = np.arange(K)
    base = feats[:, :, None] * N1
    at = base + np.sort(rank.take(base + rows[:, None, :]), axis=2)  # rows in value order
    srows = order.take(at)
    w = counts.take(srows + N1 * tree_of[:, None, None])
    x = xs.take(at)
    nl = np.cumsum(w, axis=2)
    c1_left = np.cumsum(w * ys.take(at), axis=2)
    nn = n[:, None, None]
    nr = nn - nl
    c1_right = c1[:, None, None] - c1_left
    valid = np.zeros(x.shape, dtype=bool)
    np.not_equal(x[:, :, 1:], x[:, :, :-1], out=valid[:, :, :-1])
    valid &= (nl >= min_leaf) & (nr >= min_leaf)
    with np.errstate(all="ignore"):  # cuts with an empty side are masked
        gini_left = 1.0 - (c1_left / nl) ** 2 - ((nl - c1_left) / nl) ** 2
        gini_right = 1.0 - (c1_right / nr) ** 2 - ((nr - c1_right) / nr) ** 2
        weighted = (nl * gini_left + nr * gini_right) / nn
        # the first minimum in (feature, value) order breaks the ties
        weighted = np.where(valid, weighted, np.inf).reshape(K, -1)
        j, i = np.divmod(weighted.argmin(axis=1), U)
        p = c1 / n
        gain = (1.0 - p * p - (1.0 - p) * (1.0 - p)) - weighted[k, j * U + i]
        lo, hi = x[k, j, i], x[k, j, i + 1]
        thr = lo + (hi - lo) / 2.0
        thr = np.where(thr >= hi, lo, thr)  # adjacent floats: cut strictly below hi
    ends = (rows < N1 - 1).sum(axis=1).tolist()
    sizes = nl[k, j, i].astype(int).tolist()
    positives = c1_left[k, j, i].astype(int).tolist()
    j, i = j.tolist(), i.tolist()
    return [
        (g, f, t, srows[k, j[k], : i[k] + 1], srows[k, j[k], i[k] + 1 : ends[k]], sizes[k],
         positives[k]) if g > 0.0 else None
        for k, (g, f, t) in enumerate(zip(gain.tolist(), feats[k, j].tolist(), thr.tolist()))
    ]


def train_random_forest(dataset: Dataset, params: ForestParams = ForestParams()) -> Forest:
    """Bagged trees on bootstrap resamples; deterministic given the seed.

    Tree t draws its bootstrap, then one feature subset per node it splits
    in depth-first order (left child first), from ``derive_rng(seed, 31,
    t)``. The trees grow in lockstep: each step takes the next node to
    split from every tree and scores them together in ``_best_splits``
    blocks over one presort of the training rows. That gives the same
    forest as growing the trees one after another.

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

    max_depth = math.inf if params.max_depth is None else params.max_depth
    Xp = np.vstack([X, np.full(d, np.inf)]).T  # padding row n sorts last
    order = np.argsort(Xp, axis=1, kind="stable")
    rank, xs = np.argsort(order, axis=1), np.take_along_axis(Xp, order, axis=1)
    ys = np.append(y, 0.0)[order]
    rngs = [derive_rng(params.seed, 31, t) for t in range(params.n_trees)]
    boots = np.array([rng.integers(0, n, size=n) for rng in rngs])
    counts = np.array([np.bincount(boot, minlength=n + 1) for boot in boots], dtype=float)
    # per tree: [feature, threshold, left, right, prob] per node, and a
    # depth-first stack of (distinct rows, size, positives, depth, node)
    nodes = [[[-1, 0.0, -1, -1, 0.0]] for _ in rngs]
    stacks = [[(np.flatnonzero(c), n, c1, 0, 0)] for c, c1 in zip(counts, y[boots].sum(1).tolist())]
    per_tree = np.zeros((params.n_trees, d))
    growing = range(params.n_trees)
    while growing:
        batch = []
        for t in growing:
            stack = stacks[t]
            while stack:
                rows, m, c1, depth, slot = stack.pop()
                if c1 == 0 or c1 == m or depth >= max_depth or m < 2 * params.min_leaf:
                    nodes[t][slot][4] = c1 / m
                    continue
                batch.append((t, rows, m, c1, depth, slot, rngs[t].choice(d, q, replace=False)))
                break
        growing = [b[0] for b in batch]
        batch.sort(key=lambda b: -len(b[1]))
        while batch:
            width = len(batch[0][1])
            cut = max(1, _BLOCK_ROWS // width)
            chunk, batch = batch[:cut], batch[cut:]
            block = np.full((len(chunk), width), n)
            for k, b in enumerate(chunk):
                block[k, : len(b[1])] = b[1]
            owners, _, sizes, positives, _, _, feats = zip(*chunk)
            splits = _best_splits(
                rank, order, xs, ys, counts, np.array(owners), block, np.array(sizes, dtype=float),
                np.array(positives, dtype=float), np.sort(feats, axis=1), params.min_leaf,
            )
            for (t, _, m, c1, depth, slot, _), split in zip(chunk, splits):
                tree = nodes[t]
                if split is None:
                    tree[slot][4] = c1 / m
                    continue
                gain, feat, thr, left, right, m_left, c1_left = split
                per_tree[t, feat] += (m / n) * gain
                tree[slot][:4] = feat, thr, len(tree), len(tree) + 1
                tree += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
                stacks[t] += [
                    (right, m - m_left, c1 - c1_left, depth + 1, len(tree) - 1),
                    (left, m_left, c1_left, depth + 1, len(tree) - 2),
                ]
    totals = per_tree.sum(axis=1, keepdims=True)
    np.divide(per_tree, totals, out=per_tree, where=totals > 0)
    importances = mean_importance(per_tree)
    flat = np.array([node for tree in nodes for node in tree]).T
    columns = [flat[c].astype(np.int32 if c in (0, 2, 3) else float) for c in range(5)]
    ends = np.cumsum([len(tree) for tree in nodes]).tolist()
    trees = [_Tree(*(c[e - len(tree) : e] for c in columns)) for tree, e in zip(nodes, ends)]
    return Forest(trees=trees, importances=importances, n_features=d)


def mean_importance(importances) -> np.ndarray:
    """Mean of importance vectors, renormalized to sum 1; uniform if all are 0."""
    mean = np.mean(importances, axis=0)
    total = mean.sum()
    return mean / total if total > 0 else np.full(len(mean), 1.0 / len(mean))


def predict_scores(forest: Forest, X) -> np.ndarray:
    """Mean positive-class leaf probability over the forest's trees, for
    every row of ``X``.

    All rows descend all trees at once, one level per step; each row's
    leaf probabilities are summed in tree order.
    """
    mat = np.asarray(X, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != forest.n_features:
        raise ValueError(f"expected an (n, {forest.n_features}) matrix")
    trees = forest.trees
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, prob = (
        np.concatenate([getattr(t, name) for t in trees]) for name in _Tree.__slots__
    )
    left = left + np.repeat(roots, sizes)  # children as indices into the concatenation
    right = right + np.repeat(roots, sizes)
    node = np.repeat(roots[:, None], len(mat), axis=1)
    cols = np.arange(len(mat))
    f = feature[node]
    while (f >= 0).any():
        go_left = mat[cols, f] <= threshold[node]
        node = np.where(f < 0, node, np.where(go_left, left[node], right[node]))
        f = feature[node]
    return sum(prob[node]) / len(trees)


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
    # ranks are half-integers, so twice their sum is an exact integer
    rank2_pos = int(2 * average_ranks(s[:, None])[lab].sum())
    num2 = rank2_pos - n_pos * (n_pos + 1)
    return num2 / (2 * n_pos * n_neg)


def average_ranks(X: np.ndarray) -> np.ndarray:
    """Column-wise 1-based ranks of a 2-D array; ties share their average rank.

    Equals ``scipy.stats.rankdata(X, axis=0, method="average")`` on finite
    input: a tie run over sorted positions i..j gets rank (i + j + 2) / 2.
    """
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    edge = np.ones((X.shape[0] + 1, X.shape[1]), dtype=bool)  # run boundaries
    edge[1:-1] = xs[1:] != xs[:-1]
    pos = np.arange(X.shape[0])[:, None]
    first = np.maximum.accumulate(np.where(edge[:-1], pos, 0), axis=0)
    last = np.minimum.accumulate(np.where(edge[1:], pos, len(pos) - 1)[::-1], axis=0)[::-1]
    ranks = np.empty(X.shape)
    np.put_along_axis(ranks, order, (first + last + 2) / 2.0, axis=0)
    return ranks


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
    return CvResult(float(np.mean(aucs)), mean_importance(imps))
