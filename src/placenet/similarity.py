"""Pairwise category distinguishability and representative-graph selection.

Category distance is the cross-validated ROC-AUC of a binary classifier
trained to tell two categories' feature vectors apart: 0.5 means
indistinguishable, 1.0 perfectly distinguishable. Reported values are
orientation-folded to max(auc, 1 - auc).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from placenet.forest import ForestParams, average_ranks, cross_validated_auc, mean_importance
from placenet.seeding import derive_seed
from placenet.tables import number, read_csv, unique, write_csv


class Ensemble:
    """The feature table: graph ``ids[i]`` of category ``categories[i]`` has
    feature vector ``X[i]``.

    Built once and read-only. Graph ids are unique and every row is a
    finite vector of one dimension (18 for the canonical feature set).
    """

    def __init__(self, ids, categories, X):
        X = np.array(X, dtype=float)
        if X.ndim != 2 or not len(ids) == len(categories) == len(X):
            raise ValueError("an ensemble needs one id, category and feature row per graph")
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"graph {ids[bad[0]]!r}: features must be finite")
        seen: set[str] = set()
        self.ids = tuple(unique(seen, graph_id, "graph id") for graph_id in ids)
        X.setflags(write=False)
        self.categories = np.array(categories, dtype=object)
        self.categories.setflags(write=False)
        self.X = X

    @classmethod
    def from_rows(cls, rows) -> "Ensemble":
        """The table of ``(category, graph id, feature vector)`` rows, in order."""
        rows = [(cat, graph_id, np.asarray(vec, dtype=float)) for cat, graph_id, vec in rows]
        for _, graph_id, vec in rows:
            if vec.ndim != 1 or len(vec) != len(rows[0][2]):
                raise ValueError(
                    f"graph {graph_id!r}: expected a flat vector of {len(rows[0][2])} features"
                )
        X = [vec for *_, vec in rows] if rows else np.empty((0, 0))
        return cls([r[1] for r in rows], [r[0] for r in rows], X)

    def category_names(self) -> list[str]:
        return sorted(set(self.categories))

    @property
    def dim(self) -> int:
        return self.X.shape[1]


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
    rows = {c: ensemble.X[ensemble.categories == c] for c in cats}
    for c in cats:
        if len(rows[c]) < folds:
            raise ValueError(f"category {c!r} has {len(rows[c])} graphs; needs >= {folds}")
    k = len(cats)
    values = np.full((k, k), 0.5)
    results = []
    for i in range(k):
        for j in range(i + 1, k):
            result = cross_validated_auc(
                rows[cats[i]],
                rows[cats[j]],
                folds=folds,
                seed=derive_seed(seed, 37, len(results)),
                params=params,
            )
            values[i, j] = values[j, i] = max(result.mean_auc, 1.0 - result.mean_auc)
            results.append(result)
    importance = mean_importance([r.importance for r in results])
    return AucMatrix(tuple(cats), values), importance


def global_importance_ranking(importance, names: list[str]) -> list[tuple[str, int]]:
    """Features by descending importance; ties keep canonical feature order."""
    imp = np.asarray(importance, dtype=float)
    if len(names) != len(imp):
        raise ValueError("importance and names must align")
    order = sorted(range(len(imp)), key=lambda f: (-imp[f], f))
    return [(names[f], rank + 1) for rank, f in enumerate(order)]


def representative_distances(
    ensemble: Ensemble,
    category: str,
    importance,
    *,
    rank_scope: str = "pooled",
    weight_mode: str = "squared",
) -> list[tuple[str, float]]:
    """Importance-weighted rank distance of each member to its category
    mean, as ``(graph id, distance)`` pairs sorted by distance, then id: the
    first is the category's representative.

    Every graph is ranked per feature (ascending value, ties get the
    average rank) over the pooled ensemble by default, or within the
    category with ``rank_scope="per_category"``. The distance of a member
    with rank vector r to the category mean rank vector rbar is
    sqrt(sum_f w_f (r_f - rbar_f)^2); ``weight_mode="presquare"`` uses
    sqrt(sum_f (w_f (r_f - rbar_f))^2) instead.
    """
    members = np.flatnonzero(ensemble.categories == category)
    if not members.size:
        raise ValueError(f"category {category!r} is not in the ensemble")
    weights = np.asarray(importance, dtype=float)
    if weights.shape != (ensemble.dim,):
        raise ValueError(f"importance must have dimension {ensemble.dim}")
    if rank_scope == "pooled":
        cat_ranks = average_ranks(ensemble.X)[members]
    elif rank_scope == "per_category":
        cat_ranks = average_ranks(ensemble.X[members])
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
    return sorted(((ensemble.ids[i], float(d)) for i, d in zip(members, dists)),
                  key=lambda pair: (pair[1], pair[0]))


def representative_graph(
    ensemble: Ensemble,
    category: str,
    importance,
    *,
    rank_scope: str = "pooled",
    weight_mode: str = "squared",
) -> str:
    """Graph id nearest to the category's mean feature ranks (ties: smallest id)."""
    return representative_distances(
        ensemble, category, importance, rank_scope=rank_scope, weight_mode=weight_mode
    )[0][0]


def write_auc_matrix_csv(matrix: AucMatrix, path: str) -> None:
    """Header row/column of category names; 4-decimal values."""
    write_csv(path, ["category"] + list(matrix.categories), (
        [cat] + [f"{v:.4f}" for v in matrix.values[i]]
        for i, cat in enumerate(matrix.categories)
    ))


def write_importance_csv(path: str, importance, names: list[str]) -> None:
    """Rows in canonical feature order: feature, importance, rank."""
    imp = np.asarray(importance, dtype=float)
    rank_of = dict(global_importance_ranking(imp, names))
    write_csv(path, ["feature", "importance", "rank"], (
        [name, repr(float(value)), rank_of[name]] for name, value in zip(names, imp)
    ))


def read_importance_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Read back (feature names, importance values) in file order."""
    _, rows = read_csv(path, ["feature", "importance"], lambda name, value: (
        name, number(value)
    ))
    return [name for name, _ in rows], np.array([value for _, value in rows], dtype=float)
