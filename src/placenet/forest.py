"""From-scratch binary random forest, ROC-AUC and cross-validation.

Trees split on axis-aligned thresholds chosen by Gini gain; every source
of randomness is derived from an explicit seed, so training and scoring
are bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
        if not set(np.unique(self.labels).tolist()) <= {0, 1}:
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
# rows padded to the block's largest node (and at least one node). A step holds
# many forests' nodes, so padded rows stay 1.3-1.4 times the real ones (c3,
# ensemble); 1024 or 2048 rows, or cutting a block where a node falls below
# half its width, were no faster, and 8192 doubled a process's page faults.
_BLOCK_ROWS = 4096

# Each forest's stream draws feature-subset keys for this many nodes of
# every tree at a time: chunk c keys nodes c*_KEY_ROWS to (c+1)*_KEY_ROWS - 1.
_KEY_ROWS = 16

# A call grows its forests in groups whose tables (per tree: 4-byte bootstrap
# and positive counts per table row, and 8-byte keys) fit in this many bytes,
# scoring each group before the next, so memory does not grow with the number
# of forests. A group peaks at about twice its tables; bigger ones gained ~1 %.
_GROUP_BYTES = 3 << 21


@dataclass
class Forest:
    trees: list[_Tree]
    importances: np.ndarray
    n_features: int


def _checked(params: ForestParams, d: int) -> tuple[int, float]:
    """The features per split and the depth bound of ``params`` on d features."""
    for name in ("n_trees", "min_leaf"):
        if getattr(params, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if params.max_depth is not None and params.max_depth < 1:
        raise ValueError("max_depth must be >= 1 or None")
    q = math.ceil(math.sqrt(d)) if params.features_per_split is None else params.features_per_split
    if not 1 <= q <= d:
        raise ValueError(f"features_per_split must be in [1, {d}]")
    return q, math.inf if params.max_depth is None else params.max_depth


def _presort(X: np.ndarray):
    """``(order, rank, xs)``: ``xs[f, i]`` is the i-th smallest value of feature
    f, of row ``order[f, i]``, ``rank[f, order[f, i]] == i``; row N pads (+inf)."""
    Xp = np.vstack([X, np.full(X.shape[1], np.inf)]).T
    order = np.argsort(Xp, axis=1, kind="stable")
    return order, np.argsort(order, axis=1), np.take_along_axis(Xp, order, axis=1)


def _best_splits(presort, counts, positives, tree_of, rows, n, c1, feats, min_leaf: int):
    """Best Gini-gain split of each of K nodes, scored as one block.

    Node k of tree ``tree_of[k]`` holds ``n[k]`` rows, ``c1[k]`` positive:
    ``counts[tree_of[k], r]`` copies of each distinct row r in ``rows[k]``
    (padded with the presort's last row), ``positives[tree_of[k], r]`` of
    them positive. Thresholds lie midway between consecutive distinct values
    on ``feats[k]``; ties break by lowest feature, then lowest threshold.
    Per node: the gain (no split unless positive), feature, threshold, rows
    in value order (the cut after ``cut``), left size and left positives.
    """
    order, rank, xs = presort
    (K, U), N1 = rows.shape, rank.shape[1]
    k = np.arange(K)
    base = feats[:, :, None] * N1
    at = base + np.sort(rank.take(base + rows[:, None, :]), axis=2)  # rows in value order
    srows = order.take(at)
    cells = srows + N1 * tree_of[:, None, None]
    x = xs.take(at)
    nl = np.cumsum(counts.take(cells), axis=2)
    c1_left = np.cumsum(positives.take(cells), axis=2)
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
    return gain, feats[k, j], thr, srows[k, j], i, nl[k, j, i], c1_left[k, j, i]


def _grow(presort, jobs, params: ForestParams, q: int, max_depth: float):
    """The forests of ``jobs``, ``(training rows, 0/1 labels, seed)`` each, in
    one lockstep. A job's stream, ``derive_rng(seed, 31)``, draws its trees'
    bootstraps (``(n_trees, len(rows))`` positions in ``rows``), then a
    ``(n_trees, _KEY_ROWS, d)`` chunk of keys whenever one of its trees
    scores node ``c * _KEY_ROWS``. A tree's j-th scored node (depth first,
    left first) splits on the q features with the smallest keys in row
    ``j % _KEY_ROWS`` of chunk ``j // _KEY_ROWS``, as if grown tree by tree.
    Returns flat ``(feature, threshold, left, right, prob)`` node columns
    (feature -1: a leaf), each node's tree (job j's tree t is tree and root
    ``j * n_trees + t``) and each job's mean importances."""
    d, N1 = presort[0].shape
    n_trees, min_leaf = params.n_trees, params.min_leaf
    T = n_trees * len(jobs)
    rngs, cells, positive = [], [], []
    for j, (rows, labels, seed) in enumerate(jobs):
        rngs.append(derive_rng(seed, 31))
        boots = rngs[-1].integers(0, len(rows), size=(n_trees, len(rows)))
        cell = rows[boots] + (N1 * np.arange(j * n_trees, (j + 1) * n_trees))[:, None]
        cells.append(cell.ravel())
        positive.append(cell[labels[boots] == 1])
    # copies of each table row in each tree's bootstrap, and positive copies
    counts, positives = (np.bincount(np.concatenate(c), minlength=T * N1).astype(np.int32)
                         .reshape(T, N1) for c in (cells, positive))
    del cells, positive
    n_of = np.repeat([len(rows) for rows, _, _ in jobs], n_trees)
    stacks = [[] for _ in range(T)]  # per tree, the nodes it has yet to score
    splits = [(np.empty(0, int),) * 5]  # per block: nodes, features, thresholds, trees, children
    leaves = []  # per block: nodes and positive shares

    def settle(t, rows, m, c1, depth, slot):
        """Push the nodes that can split onto their trees' stacks; the rest are leaves."""
        leaf = (c1 == 0) | (c1 == m) | (depth >= max_depth) | (m < 2 * min_leaf)
        leaves.append((slot[leaf], c1[leaf] / m[leaf]))
        nodes = zip(t.tolist(), rows, m.tolist(), c1.tolist(), depth.tolist(), slot.tolist())
        for node in itertools.compress(nodes, (~leaf).tolist()):
            stacks[node[0]].append(node)

    row = np.nonzero(counts)[1]  # each tree's distinct rows, tree after tree
    ends = [0] + np.cumsum(np.count_nonzero(counts, axis=1)).tolist()
    settle(np.arange(T), [row[a:b] for a, b in zip(ends, ends[1:])], n_of.astype(float),
           positives.sum(axis=1), np.zeros(T), np.arange(T))
    per_tree, keys = np.zeros((T, d)), np.empty((T, _KEY_ROWS, d))
    growing = [t for t in range(T) if stacks[t]]
    step, n_nodes = 0, T  # every growing tree scores its step-th node in this step
    while growing:
        if step % _KEY_ROWS == 0:
            for j in sorted({t // n_trees for t in growing}):
                rngs[j].random(out=keys[j * n_trees : (j + 1) * n_trees])
        subsets = np.argsort(keys[growing, step % _KEY_ROWS], axis=1, kind="stable")
        step += 1
        batch = [stacks[t].pop() for t in growing]
        widths = np.array([len(node[1]) for node in batch])
        by_size = np.argsort(-widths, kind="stable")
        batch = [batch[k] for k in by_size.tolist()]
        subsets, widths = np.sort(subsets[by_size, :q], axis=1), widths[by_size]
        start = 0
        while start < len(batch):
            stop = min(len(batch), start + max(1, _BLOCK_ROWS // int(widths[start])))
            t, rows, m, c1, depth, slot = zip(*batch[start:stop])
            t, m, c1, depth, slot = map(np.array, (t, m, c1, depth, slot))
            width = widths[start:stop]
            block = np.full((len(t), width[0]), N1 - 1)
            block[np.arange(width[0]) < width[:, None]] = np.concatenate(rows)
            gain, feat, thr, srows, cut, m_left, c1_left = _best_splits(
                presort, counts, positives, t, block, m, c1, subsets[start:stop], min_leaf)
            start = stop
            split = gain > 0.0
            leaves.append((slot[~split], c1[~split] / m[~split]))
            s = np.flatnonzero(split)
            t, m, c1, depth, feat, m_left, c1_left = (
                x[s] for x in (t, m, c1, depth + 1, feat, m_left, c1_left))
            kids = n_nodes + 2 * np.arange(len(s))
            n_nodes += 2 * len(s)
            splits.append((slot[s], feat, thr[s], t, kids))
            per_tree[t, feat] += (m / n_of[t]) * gain[s]
            # each right child goes on its tree's stack first: the left is scored first
            cut, width, s = cut[s].tolist(), width[s].tolist(), s.tolist()
            settle(t, [srows[k, i + 1 : w] for k, i, w in zip(s, cut, width)],
                   m - m_left, c1 - c1_left, depth, kids + 1)
            settle(t, [srows[k, : i + 1] for k, i in zip(s, cut)], m_left, c1_left, depth, kids)
        growing = [t for t in growing if stacks[t]]
    totals = per_tree.sum(axis=1, keepdims=True)
    np.divide(per_tree, totals, out=per_tree, where=totals > 0)
    importances = [mean_importance(per_tree[t : t + n_trees]) for t in range(0, T, n_trees)]
    slot, feat, thr, t, kids = (np.concatenate(c) for c in zip(*splits))
    (feature, left), (threshold, prob) = np.full((2, n_nodes), -1), np.zeros((2, n_nodes))
    feature[slot], threshold[slot], left[slot] = feat, thr, kids
    leaf, share = (np.concatenate(c) for c in zip(*leaves))
    prob[leaf] = share
    owner = np.arange(n_nodes)
    owner[kids] = owner[kids + 1] = t
    return (feature, threshold, left, np.where(left < 0, -1, left + 1), prob), owner, importances


def _scores(columns, roots: np.ndarray, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per column r, the mean leaf probability of row ``X[rows[r]]`` over the
    trees rooted at nodes ``roots[:, r]``, summed in that order. All lanes
    descend the flat ``columns`` at once, one level per step."""
    feature, threshold, left, right, prob = columns
    node, f = roots, feature[roots]
    while (f >= 0).any():
        go_left = X[rows, f] <= threshold[node]
        node = np.where(f < 0, node, np.where(go_left, left[node], right[node]))
        f = feature[node]
    return sum(prob[node]) / len(node)


def train_random_forest(dataset: Dataset, params: ForestParams = ForestParams()) -> Forest:
    """Bagged trees on bootstrap resamples, grown by ``_grow`` as its one
    job; one stream, ``derive_rng(seed, 31)``, serves the whole forest.

    Raises:
        ValueError: if the dataset holds a single class or the
            hyperparameters are out of range.
    """
    X, y = dataset.features, dataset.labels
    n, d = X.shape
    q, max_depth = _checked(params, d)
    if int(y.sum()) in (0, n):
        raise ValueError("training requires samples of both classes")
    job = (np.arange(n), y, params.seed)
    columns, owner, (importances,) = _grow(_presort(X), [job], params, q, max_depth)
    return Forest(_trees(columns, owner, params.n_trees), importances, d)


def _trees(columns, owner: np.ndarray, n_trees: int) -> list[_Tree]:
    """One ``_Tree`` per tree of flat ``_grow`` nodes, in allocation order."""
    by_tree = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=n_trees)
    ends = np.cumsum(sizes)
    local = np.empty_like(by_tree)
    local[by_tree] = np.arange(len(by_tree)) - np.repeat(ends - sizes, sizes)
    feature, threshold, left, right, prob = (c[by_tree] for c in columns)
    left, right = (np.where(c < 0, -1, local[c]) for c in (left, right))
    return [_Tree(*(c[e - size : e] for c in (feature, threshold, left, right, prob)))
            for size, e in zip(sizes.tolist(), ends.tolist())]


def mean_importance(importances) -> np.ndarray:
    """Mean of importance vectors, renormalized to sum 1; uniform if all are 0."""
    mean = np.mean(importances, axis=0)
    total = mean.sum()
    return mean / total if total > 0 else np.full(len(mean), 1.0 / len(mean))


def predict_scores(forest: Forest, X) -> np.ndarray:
    """Mean positive-class leaf probability over the forest's trees, for
    every row of ``X``, summed in tree order (``_scores``)."""
    mat = np.asarray(X, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != forest.n_features:
        raise ValueError(f"expected an (n, {forest.n_features}) matrix")
    sizes = [len(t.feature) for t in forest.trees]
    roots = np.cumsum([0] + sizes[:-1])
    columns = [np.concatenate([getattr(t, name) for t in forest.trees]) for name in _Tree.__slots__]
    columns[2:4] = [c + np.repeat(roots, sizes) for c in columns[2:4]]  # children, as indices
    return _scores(columns, np.repeat(roots[:, None], len(mat), axis=1), mat, np.arange(len(mat)))


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
    num2 = int(2 * average_ranks(s[:, None])[lab].sum()) - n_pos * (n_pos + 1)
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


def cross_validated_auc(a, b, folds: int = 10, seed: int = 0,
                        params: ForestParams | None = None) -> CvResult:
    """Stratified k-fold AUC for distinguishing sample sets ``a`` and ``b``.

    Class ``a`` is scored as positive. Fold assignment shuffles within each
    class by the seed and deals round-robin, so per-class fold sizes differ
    by at most one. Returns the unweighted mean AUC over folds and the mean
    normalized Gini importance over the fold models.

    Raises:
        ValueError: if folds < 2 or either class has fewer samples than
            folds.
    """
    A, B = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("a and b must be 2-D with the same feature dimension")
    if len(A) < folds or len(B) < folds:
        raise ValueError(f"each class needs at least {folds} samples "
                         f"(got {len(A)} and {len(B)})")
    X = Dataset(np.vstack([A, B]), np.repeat([1, 0], [len(A), len(B)])).features
    pair = (np.arange(len(A)), np.arange(len(A), len(X)), seed)
    return _cross_validate(X, [pair], folds, params or ForestParams())[0]


def _cross_validate(X: np.ndarray, pairs, folds: int, params: ForestParams) -> list[CvResult]:
    """``cross_validated_auc`` of each pair ``(a rows, b rows, seed)`` of
    table X. Fold f's forest trains on the rows outside the fold, a rows
    then b rows, with seed ``derive_seed(seed, 29, f)``; every (pair, fold)
    forest grows in ``_grow`` groups over one presort of X."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    q, max_depth = _checked(params, X.shape[1])
    presort = _presort(X)

    def labelled(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of a (label 1), then those of b (label 0), and their labels."""
        return np.concatenate([a, b]), np.repeat(np.int8([1, 0]), [len(a), len(b)])

    jobs = []  # (train rows, labels, seed, test rows, labels) per (pair, fold)
    for a, b, seed in pairs:
        rng = derive_rng(seed, 23)
        fold_a = stratified_fold_assignment(len(a), folds, rng)
        fold_b = stratified_fold_assignment(len(b), folds, rng)
        for f in range(folds):
            jobs.append((*labelled(a[fold_a != f], b[fold_b != f]), derive_seed(seed, 29, f),
                         *labelled(a[fold_a == f], b[fold_b == f])))
    n_trees = params.n_trees
    per_group = max(1, _GROUP_BYTES // (n_trees * 8 * (len(X) + 1 + _KEY_ROWS * X.shape[1])))
    aucs, imps = [], []
    for start in range(0, len(jobs), per_group):
        group = jobs[start : start + per_group]
        columns, _, grown = _grow(presort, [job[:3] for job in group], params, q, max_depth)
        sizes = [len(job[3]) for job in group]
        first = np.repeat(np.arange(len(group)) * n_trees, sizes)  # each test row's first tree
        rows = np.concatenate([job[3] for job in group])
        scores = np.split(_scores(columns, np.arange(n_trees)[:, None] + first, X, rows),
                          np.cumsum(sizes)[:-1])
        aucs += [roc_auc(s, job[4]) for s, job in zip(scores, group)]
        imps += grown
    return [CvResult(float(np.mean(aucs[p : p + folds])), mean_importance(imps[p : p + folds]))
            for p in range(0, len(aucs), folds)]
