"""Pairwise category distinguishability and representative-graph selection.

Category distance is the cross-validated ROC-AUC of a binary classifier
trained to tell two categories' feature vectors apart: 0.5 means
indistinguishable, 1.0 perfectly distinguishable. Reported values are
orientation-folded to max(auc, 1 - auc).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from placenet.features import feature_names
from placenet.forest import ForestParams, cross_validated_auc
from placenet.seeding import derive_seed


class Ensemble:
    """Labelled collection: category name -> list of (graph id, features).

    Graph ids must be unique across the whole ensemble and all vectors must
    share one dimension (18 for the canonical feature set).
    """

    def __init__(self):
        self._cats: dict[str, list[tuple[str, np.ndarray]]] = {}
        self._seen: set[str] = set()
        self._dim: int | None = None

    def add(self, category: str, graph_id: str, features) -> None:
        vec = np.asarray(features, dtype=float)
        if vec.ndim != 1:
            raise ValueError(f"graph {graph_id!r}: features must be a flat vector")
        if not np.isfinite(vec).all():
            raise ValueError(f"graph {graph_id!r}: features must be finite")
        if self._dim is None:
            self._dim = len(vec)
        elif len(vec) != self._dim:
            raise ValueError(
                f"graph {graph_id!r}: expected {self._dim} features, got {len(vec)}"
            )
        if graph_id in self._seen:
            raise ValueError(f"duplicate graph id {graph_id!r}")
        self._seen.add(graph_id)
        self._cats.setdefault(category, []).append((graph_id, vec))

    def category_names(self) -> list[str]:
        return sorted(self._cats)

    def members(self, category: str) -> list[tuple[str, np.ndarray]]:
        if category not in self._cats:
            raise KeyError(category)
        return list(self._cats[category])

    def size(self, category: str) -> int:
        return len(self.members(category))

    def matrix(self, category: str) -> np.ndarray:
        return np.vstack([vec for _, vec in self.members(category)])

    @property
    def dim(self) -> int | None:
        return self._dim


@dataclass(frozen=True)
class AucMatrix:
    """Symmetric category x category matrix; diagonal fixed at 0.5."""

    categories: tuple[str, ...]
    values: np.ndarray


def auc_matrix(
    ensemble: Ensemble,
    folds: int = 10,
    seed: int = 0,
    params: ForestParams | None = None,
) -> tuple[AucMatrix, np.ndarray]:
    """Folded cross-validated AUC for every pair of categories.

    Categories are processed in sorted-name order with a per-pair derived
    seed, so the matrix is deterministic and assembly order-independent.
    Also returns the per-feature importance averaged (unweighted) over all
    pair runs, normalized to sum 1.

    Raises:
        ValueError: fewer than 2 categories, or a category smaller than the
            fold count (the message names it).
    """
    cats = ensemble.category_names()
    if len(cats) < 2:
        raise ValueError("auc_matrix requires at least 2 categories")
    for c in cats:
        if ensemble.size(c) < folds:
            raise ValueError(
                f"category {c!r} has {ensemble.size(c)} graphs; needs >= {folds}"
            )
    k = len(cats)
    values = np.full((k, k), 0.5)
    importance_sum = None
    pair_index = 0
    for i in range(k):
        for j in range(i + 1, k):
            result = cross_validated_auc(
                ensemble.matrix(cats[i]),
                ensemble.matrix(cats[j]),
                folds=folds,
                seed=derive_seed(seed, 37, pair_index),
                params=params,
            )
            folded = max(result.mean_auc, 1.0 - result.mean_auc)
            values[i, j] = values[j, i] = folded
            if importance_sum is None:
                importance_sum = result.importance.copy()
            else:
                importance_sum += result.importance
            pair_index += 1
    importance = importance_sum / pair_index
    total = importance.sum()
    if total > 0:
        importance = importance / total
    return AucMatrix(tuple(cats), values), importance


def _default_names(dim: int) -> list[str]:
    """The canonical 18 feature names, or ``feature_<i>`` for any other dimension."""
    return feature_names() if dim == 18 else [f"feature_{i}" for i in range(dim)]


def global_importance_ranking(
    importance, names: list[str] | None = None
) -> list[tuple[str, int]]:
    """Features by descending importance; ties keep canonical feature order."""
    imp = np.asarray(importance, dtype=float)
    names = _default_names(len(imp)) if names is None else names
    if len(names) != len(imp):
        raise ValueError("importance and names must align")
    order = sorted(range(len(imp)), key=lambda f: (-imp[f], f))
    return [(names[f], rank + 1) for rank, f in enumerate(order)]


def _average_ranks(X: np.ndarray) -> np.ndarray:
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


def representative_distances(
    ensemble: Ensemble,
    category: str,
    importance,
    *,
    rank_scope: str = "pooled",
    weight_mode: str = "squared",
) -> list[tuple[str, float]]:
    """Importance-weighted rank distance of each member to its category mean.

    Every graph is ranked per feature (ascending value, ties get the
    average rank) over the pooled ensemble by default, or within the
    category with ``rank_scope="per_category"``. The distance of a member
    with rank vector r to the category mean rank vector rbar is
    sqrt(sum_f w_f (r_f - rbar_f)^2); ``weight_mode="presquare"`` uses
    sqrt(sum_f (w_f (r_f - rbar_f))^2) instead.
    """
    members = ensemble.members(category)  # KeyError for unknown categories
    if not members:
        raise KeyError(category)
    weights = np.asarray(importance, dtype=float)
    if weights.shape != (ensemble.dim,):
        raise ValueError(f"importance must have dimension {ensemble.dim}")
    if rank_scope == "pooled":
        rows: list[np.ndarray] = []
        member_rows: list[int] = []
        for cat in ensemble.category_names():
            for graph_id, vec in ensemble.members(cat):
                if cat == category:
                    member_rows.append(len(rows))
                rows.append(vec)
        ranks = _average_ranks(np.vstack(rows))
        cat_ranks = ranks[member_rows]
    elif rank_scope == "per_category":
        cat_ranks = _average_ranks(ensemble.matrix(category))
    else:
        raise ValueError(f"unknown rank_scope {rank_scope!r}")
    mean_rank = cat_ranks.mean(axis=0)
    dev = cat_ranks - mean_rank
    if weight_mode == "squared":
        d2 = (weights * dev**2).sum(axis=1)
    elif weight_mode == "presquare":
        d2 = ((weights * dev) ** 2).sum(axis=1)
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    dists = np.sqrt(d2)
    return [(graph_id, float(d)) for (graph_id, _), d in zip(members, dists)]


def representative_graph(
    ensemble: Ensemble,
    category: str,
    importance,
    *,
    rank_scope: str = "pooled",
    weight_mode: str = "squared",
) -> str:
    """Graph id nearest to the category's mean feature ranks (ties: smallest id)."""
    dists = representative_distances(
        ensemble, category, importance, rank_scope=rank_scope, weight_mode=weight_mode
    )
    return min(dists, key=lambda pair: (pair[1], pair[0]))[0]


def write_auc_matrix_csv(matrix: AucMatrix, path: str) -> None:
    """Header row/column of category names; 4-decimal values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["category"] + list(matrix.categories))
        for i, cat in enumerate(matrix.categories):
            writer.writerow([cat] + [f"{v:.4f}" for v in matrix.values[i]])


def write_importance_csv(path: str, importance, names: list[str] | None = None) -> None:
    """Rows in canonical feature order: feature, importance, rank."""
    imp = np.asarray(importance, dtype=float)
    canonical = _default_names(len(imp)) if names is None else list(names)
    rank_of = dict(global_importance_ranking(imp, canonical))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "importance", "rank"])
        for name, value in zip(canonical, imp):
            writer.writerow([name, repr(float(value)), rank_of[name]])


def read_importance_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read back (feature names, importance values) in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["feature", "importance"]:
            raise ValueError(f"{path}: missing importance CSV header")
        names: list[str] = []
        values: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) < 2:
                raise ValueError(f"{path}: line {line_no}: expected >= 2 cells")
            names.append(row[0])
            values.append(float(row[1]))
    return names, np.asarray(values, dtype=float)
