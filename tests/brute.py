"""Independent brute-force oracles for cross-checking the library.

Everything here re-derives results from first principles (dense matrices,
exhaustive enumeration, naive fixpoints) and deliberately shares no code
path with the functions it checks.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np


def edge_list(g) -> list[tuple[str, str]]:
    """All edges as id pairs ``(u, v)``, u < v, sorted, from ``g.edge_indices()``."""
    names = g.nodes()
    u, v = g.edge_indices()
    return [(names[i], names[j]) for i, j in zip(u.tolist(), v.tolist())]


def adjacency_sets(g) -> dict[str, set[str]]:
    """Each node id's neighbour ids, from ``g.nodes()`` and ``edge_list(g)``."""
    adj: dict[str, set[str]] = {u: set() for u in g.nodes()}
    for u, v in edge_list(g):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def degrees(g) -> dict[str, int]:
    return {u: len(nbrs) for u, nbrs in adjacency_sets(g).items()}


def component_count(nodes, edges) -> int:
    """Union-find component count over an explicit node/edge collection."""
    parent = {u: u for u in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(u) for u in nodes})


def components_lists(g) -> list[list[str]]:
    nodes = sorted(g.nodes())
    parent = {u: u for u in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_list(g):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[str, list[str]] = {}
    for u in nodes:
        groups.setdefault(find(u), []).append(u)
    return sorted((sorted(c) for c in groups.values()), key=lambda c: c[0])


def largest_component_nodes(g) -> list[str]:
    comps = components_lists(g)
    if not comps:
        return []
    return max(comps, key=len)  # first maximum = smallest leading node id


def degree_stats(g) -> dict[str, float]:
    n = g.node_count()
    m = g.edge_count()
    degs = np.array(list(degrees(g).values()), dtype=float)
    out = {"n_nodes": float(n), "n_edges": float(m)}
    out["density"] = 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0
    out["avg_degree"] = 2.0 * m / n if n else 0.0
    if n:
        mean = degs.sum() / n
        out["degree_variance"] = float(((degs - mean) ** 2).sum() / n)
    else:
        out["degree_variance"] = 0.0
    return out


def clustering_by_enumeration(g) -> float:
    """Per-node triangle counts via explicit triple enumeration."""
    nodes = sorted(g.nodes())
    n = len(nodes)
    if n == 0:
        return 0.0
    adj = adjacency_sets(g)
    total = 0.0
    for u in nodes:
        d = len(adj[u])
        if d < 2:
            continue
        tri = 0
        for v, w in combinations(sorted(adj[u]), 2):
            if w in adj[v]:
                tri += 1
        total += tri / (d * (d - 1) / 2)
    return total / n


def assortativity_corrcoef(g) -> float:
    m = g.edge_count()
    if m == 0:
        return 0.0
    deg = degrees(g)
    xs, ys = [], []
    for u, v in edge_list(g):
        xs += [deg[u], deg[v]]
        ys += [deg[v], deg[u]]
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def assortativity_exact(g) -> float:
    """Degree assortativity from exact integer sums, rounded once.

    Both orientations of every edge give x and y the same values, so their
    variances are equal and r = cov(x, y) / var(x).
    """
    deg = degrees(g)
    xs, ys = [], []
    for u, v in edge_list(g):
        xs += [deg[u], deg[v]]
        ys += [deg[v], deg[u]]
    n, sx = len(xs), sum(xs)
    var = n * sum(x * x for x in xs) - sx * sx
    if var == 0:
        return 0.0
    return (n * sum(x * y for x, y in zip(xs, ys)) - sx * sx) / var


def apl_floyd_warshall(g) -> float:
    nodes = largest_component_nodes(g)
    n = len(nodes)
    if n < 2:
        return 0.0
    idx = {u: i for i, u in enumerate(nodes)}
    adj = adjacency_sets(g)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u in nodes:
        for v in adj[u]:
            if v in idx:
                dist[idx[u], idx[v]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    total = dist.sum()
    return float(total / (n * (n - 1)))


def lambda2_dense(g, scope: str = "lcc") -> float:
    if scope == "global":
        nodes = sorted(g.nodes())
        if component_count(nodes, edge_list(g)) > 1:
            return 0.0
    else:
        nodes = largest_component_nodes(g)
    n = len(nodes)
    if n < 2:
        return 0.0
    idx = {u: i for i, u in enumerate(nodes)}
    adj = adjacency_sets(g)
    lap = np.zeros((n, n))
    for u in nodes:
        for v in adj[u]:
            if v in idx:
                lap[idx[u], idx[v]] = -1.0
                lap[idx[u], idx[u]] += 1.0
    return float(np.linalg.eigvalsh(lap)[1])


def kcore_peel_naive(g, k: int) -> tuple[set[str], set[tuple[str, str]]]:
    """Whole-pass peeling to a fixpoint (different order than the library)."""
    nodes = set(g.nodes())
    edges = set(edge_list(g))
    while True:
        deg: dict[str, int] = {u: 0 for u in nodes}
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        doomed = {u for u in nodes if deg[u] < k}
        if not doomed:
            return nodes, edges
        nodes -= doomed
        edges = {(u, v) for u, v in edges if u not in doomed and v not in doomed}


def kbrace_fixpoint_naive(g, k: int) -> tuple[set[str], set[tuple[str, str]]]:
    """Recompute every edge's embeddedness from scratch each pass."""
    edges = set(edge_list(g))
    while True:
        nbrs: dict[str, set[str]] = {}
        for u, v in edges:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        weak = {
            (u, v)
            for u, v in edges
            if len(nbrs.get(u, set()) & nbrs.get(v, set())) < k
        }
        if not weak:
            break
        edges -= weak
    nodes = {u for e in edges for u in e}
    return nodes, edges


def modularity_of(g, assignment: dict[str, int]) -> float:
    m = g.edge_count()
    if m == 0:
        return 0.0
    comms = set(assignment.values())
    degree = degrees(g)
    q = 0.0
    for c in comms:
        members = {u for u, cc in assignment.items() if cc == c}
        intra = sum(1 for u, v in edge_list(g) if u in members and v in members)
        deg = sum(degree[u] for u in members)
        q += intra / m - (deg / (2.0 * m)) ** 2
    return q


def cnm_reference(g) -> tuple[float, dict[str, int]]:
    """Greedy agglomerative modularity maximization, one fresh heap entry per
    neighbour after every merge; stale entries are skipped on pop.

    Starts from singleton communities and repeatedly merges the connected
    pair with the largest modularity gain until no positive gain remains.
    Gains are compared in exact integer arithmetic, ties broken by the
    smallest (community-index, community-index) pair, so the result is
    fully deterministic. Returns the final (best) modularity and a node ->
    community assignment with 0-based contiguous indices.

    A graph without edges returns (0.0, all-singletons).
    """
    nodes = g.nodes()
    n = len(nodes)
    m = g.edge_count()
    if m == 0:
        return 0.0, {u: i for i, u in enumerate(nodes)}
    comm_deg = np.diff(g.indptr).tolist()
    intra = [0] * n
    # each node's community, named by its smallest member as merges keep i < j
    parent = list(range(n))
    nbr: list[dict[int, int]] = [{} for _ in range(n)]
    eu, ev = g.edge_indices()
    for i, j in zip(eu.tolist(), ev.tolist()):
        nbr[i][j] = 1
        nbr[j][i] = 1

    def gain2(i: int, j: int) -> int:
        # Merge gain scaled by 2*m^2: positive iff modularity increases.
        return 2 * m * nbr[i].get(j, 0) - comm_deg[i] * comm_deg[j]

    heap = [(-gain2(i, j), i, j) for i in range(n) for j in nbr[i] if i < j]
    heapq.heapify(heap)
    while heap:
        neg, i, j = heapq.heappop(heap)
        if parent[i] != i or parent[j] != j:
            continue
        current = gain2(i, j)
        if -neg != current:
            continue  # stale entry; a fresh one is (or was) in the heap
        if current <= 0:
            break
        # merge j into i (i < j)
        parent[j] = i
        intra[i] += intra[j] + nbr[i].get(j, 0)
        comm_deg[i] += comm_deg[j]
        nbr[i].pop(j, None)
        for k, cnt in nbr[j].items():
            if k == i:
                continue
            del nbr[k][j]
            nbr[i][k] = nbr[i].get(k, 0) + cnt
            nbr[k][i] = nbr[i][k]
        nbr[j] = {}
        for k in nbr[i]:
            a, b = (i, k) if i < k else (k, i)
            heapq.heappush(heap, (-gain2(a, b), a, b))

    roots = [c for c in range(n) if parent[c] == c]
    intra_sum = sum(intra[c] for c in roots)
    sq_sum = sum(comm_deg[c] * comm_deg[c] for c in roots)
    q = (4 * m * intra_sum - sq_sum) / (4 * m * m)

    for x in range(n):  # parent[x] < x unless x is a root
        parent[x] = parent[parent[x]]
    label = {root: i for i, root in enumerate(dict.fromkeys(parent))}
    return q, {u: label[root] for u, root in zip(nodes, parent)}


def modularity_exact(g, assignment: dict[str, int]) -> Fraction:
    """Q from its definition, sum over communities of e_c/m - (a_c/2m)^2."""
    m = g.edge_count()
    if m == 0:
        return Fraction(0)
    intra: dict[int, int] = {}
    deg: dict[int, int] = {}
    for u, v in edge_list(g):
        if assignment[u] == assignment[v]:
            intra[assignment[u]] = intra.get(assignment[u], 0) + 1
    for u, d in degrees(g).items():
        deg[assignment[u]] = deg.get(assignment[u], 0) + d
    return sum((Fraction(intra.get(c, 0), m) - Fraction(d, 2 * m) ** 2
                for c, d in deg.items()), Fraction(0))


def all_partition_assignments(n: int) -> np.ndarray:
    """Every set partition of n items as community-index rows (Bell(n) rows)."""
    parts = np.zeros((1, 1), dtype=np.int8)
    maxes = np.zeros(1, dtype=np.int8)
    for _ in range(1, n):
        choices = (maxes + 2).astype(np.int64)
        total = int(choices.sum())
        rows = np.repeat(np.arange(len(parts)), choices)
        starts = np.concatenate(([0], np.cumsum(choices)[:-1]))
        newval = (np.arange(total) - np.repeat(starts, choices)).astype(np.int8)
        parts = np.concatenate([parts[rows], newval[:, None]], axis=1)
        maxes = np.maximum(maxes[rows], newval)
    return parts


def best_modularity_exhaustive(g) -> float:
    """Maximum modularity over every partition; caller keeps n small."""
    nodes = sorted(g.nodes())
    n = len(nodes)
    m = g.edge_count()
    assert m >= 1
    idx = {u: i for i, u in enumerate(nodes)}
    degree = degrees(g)
    deg = np.array([degree[u] for u in nodes], dtype=float)
    adj = np.zeros((n, n))
    for u, v in edge_list(g):
        adj[idx[u], idx[v]] = adj[idx[v], idx[u]] = 1.0
    parts = all_partition_assignments(n)
    q = np.full(len(parts), -float((deg**2).sum()) / (4.0 * m * m))
    for i in range(n):
        for j in range(i + 1, n):
            w = adj[i, j] / m - deg[i] * deg[j] / (2.0 * m * m)
            q += w * (parts[:, i] == parts[:, j])
    return float(q.max())


def auc_pair_count(scores, labels) -> float:
    """Literal Mann-Whitney: count ordered (positive, negative) pairs."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def average_ranks(values) -> list[float]:
    """1-based average ranks with mean rank for ties."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + 1 + j + 1) / 2.0
        for t in range(i, j + 1):
            ranks[order[t]] = mean_rank
        i = j + 1
    return ranks


def representative_by_definition(
    items_by_cat: dict[str, list[tuple[str, list[float]]]],
    category: str,
    weights,
    pooled: bool = True,
    presquare: bool = False,
) -> tuple[str, dict[str, float]]:
    """Literal weighted-rank-distance selection."""
    if pooled:
        rows = [(gid, vec) for cat in sorted(items_by_cat)
                for gid, vec in items_by_cat[cat]]
    else:
        rows = list(items_by_cat[category])
    d = len(rows[0][1])
    ranks_per_feature = [average_ranks([vec[f] for _, vec in rows]) for f in range(d)]
    rank_of = {
        gid: [ranks_per_feature[f][i] for f in range(d)]
        for i, (gid, _) in enumerate(rows)
    }
    member_ids = [gid for gid, _ in items_by_cat[category]]
    mean_rank = [
        sum(rank_of[gid][f] for gid in member_ids) / len(member_ids)
        for f in range(d)
    ]
    dists = {}
    for gid in member_ids:
        if presquare:
            d2 = sum((weights[f] * (rank_of[gid][f] - mean_rank[f])) ** 2 for f in range(d))
        else:
            d2 = sum(weights[f] * (rank_of[gid][f] - mean_rank[f]) ** 2 for f in range(d))
        dists[gid] = math.sqrt(d2)
    best = min(member_ids, key=lambda gid: (dists[gid], gid))
    return best, dists


def pearson(xs, ys) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    return float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))


class Page(NamedTuple):
    """One page of a places table: its id, region and distinct categories."""

    page_id: str
    region_id: str
    categories: tuple[str, ...]


def page_tally_reference(records) -> dict[tuple[str, tuple[str, ...]], int]:
    """Pages per (region, sorted category set), counted page by page, in
    first-seen order."""
    tally: dict[tuple[str, tuple[str, ...]], int] = {}
    for rec in records:
        key = (rec.region_id, tuple(sorted(rec.categories)))
        tally[key] = tally.get(key, 0) + 1
    return tally


def fractional_counts_reference(records) -> dict[tuple[str, str], Fraction]:
    """Per (region, category): 1/c added once per page, c its category count."""
    counts: dict[tuple[str, str], Fraction] = {}
    for rec in records:
        share = Fraction(1, len(rec.categories))
        for cat in rec.categories:
            key = (rec.region_id, cat)
            counts[key] = counts.get(key, Fraction(0)) + share
    return counts


def per_capita_reference(counts, populations) -> dict[tuple[str, str], tuple]:
    """(weighted count, per-1000 rate, decile) of every region for every
    counted category: floats of the exact values, deciles ceil(10 i / n) of
    the 1-based rank i by (rate, region id)."""
    out = {}
    for cat in sorted({cat for _, cat in counts}):
        mass = {r: Fraction(counts.get((r, cat), 0)) for r in populations}
        rate = {r: float(Fraction(1000) * mass[r] / pop) for r, pop in populations.items()}
        ordered = sorted(populations, key=lambda r: (rate[r], r))
        for i, r in enumerate(ordered, start=1):
            out[(r, cat)] = (float(mass[r]), rate[r], math.ceil(Fraction(10 * i, len(ordered))))
    return out


def best_split_reference(Xn, yn, feats, min_leaf: int):
    """One node's best Gini-gain split, scored on its own sorted matrix.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values. Ties on gain break by lowest global feature index, then lowest
    threshold. Returns None when no split has positive gain.
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


def grow_tree_reference(X, y, keys, params, q: int, importance: np.ndarray):
    """One tree grown depth first, one node at a time (left child first).

    ``keys(j)`` is the row of uniform keys of the j-th node the tree
    scores; the node's feature subset is the first q columns of its
    argsort. Returns the flat ``(feature, threshold, left, right, prob)``
    lists; ``feature == -1`` marks a leaf. Adds each split's weighted gain
    to ``importance``.
    """
    n_root = len(y)
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

    scored = 0
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
        feats = np.sort(np.argsort(keys(scored), kind="stable")[:q])
        scored += 1
        found = best_split_reference(X[idx], yn, feats, params.min_leaf)
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
    return feature, threshold, left, right, prob


def forest_reference(X, y, params, derive_rng, key_rows) -> tuple[list[tuple], np.ndarray]:
    """Trees grown one after another on bootstrap resamples, and the
    forest's normalized mean importances.

    ``derive_rng`` is the library's stream derivation. One stream per
    forest draws every tree's bootstrap at once, then chunks of
    ``(n_trees, key_rows, d)`` uniform keys in order, each the first time
    some tree scores a node that the chunks drawn so far do not cover.
    """
    n, d = X.shape
    q = params.features_per_split or math.ceil(math.sqrt(d))
    rng = derive_rng(params.seed, 31)
    boots = rng.integers(0, n, size=(params.n_trees, n))
    chunks = []

    def key_row(t, j):
        while len(chunks) * key_rows <= j:
            chunks.append(rng.random((params.n_trees, key_rows, d)))
        return chunks[j // key_rows][t, j % key_rows]

    trees = []
    per_tree = np.zeros((params.n_trees, d))
    for t, boot in enumerate(boots):
        raw = np.zeros(d)
        keys = functools.partial(key_row, t)
        trees.append(grow_tree_reference(X[boot], y[boot], keys, params, q, raw))
        total = raw.sum()
        if total > 0:
            per_tree[t] = raw / total
    mean_imp = per_tree.mean(axis=0)
    total = mean_imp.sum()
    importances = mean_imp / total if total > 0 else np.full(d, 1.0 / d)
    return trees, importances


def sgns_block_reference(records, rng, *, dim, epochs, negatives, learning_rate,
                         min_count, block) -> tuple[list[str], np.ndarray, list[float]]:
    """Skip-gram with negative sampling, one pair at a time, under the block rule.

    Re-derives the trainer's schedule from ``rng`` (vocabulary by falling
    count then label, unigram^(3/4) negatives, records permuted per epoch,
    rates decaying linearly over all pairs). Within each block of ``block``
    consecutive pairs every pair reads the weights as they stood at the
    block's start, and each pair's gradient is added to the live weights.
    At ``block = 1`` this is plain sequential SGD. Returns the vocabulary,
    the input vectors and the per-epoch mean loss at block-start weights.
    """
    records = [sorted(set(r)) for r in records]
    counts: dict[str, int] = {}
    for rec in records:
        for label in rec:
            counts[label] = counts.get(label, 0) + 1
    vocab = sorted((l for l in counts if counts[l] >= min_count), key=lambda l: (-counts[l], l))
    index = {label: i for i, label in enumerate(vocab)}
    noise = np.array([counts[l] for l in vocab], dtype=float) ** 0.75
    noise /= noise.sum()
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    w_out = np.zeros((len(vocab), dim))
    kept = [[index[l] for l in rec if l in index] for rec in records]
    per_epoch = sum(len(rec) * (len(rec) - 1) for rec in kept)
    total = max(1, per_epoch * epochs)

    losses = []
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(kept))
        if not per_epoch:
            losses.append(0.0)
            continue
        pairs = [(c, o) for ri in order for c in kept[ri] for o in kept[ri] if o != c]
        negs = rng.choice(len(vocab), size=(per_epoch, negatives), p=noise)
        loss = 0.0
        for i, (center, context) in enumerate(pairs):
            if i % block == 0:
                start_in, start_out = w_in.copy(), w_out.copy()
            rate = learning_rate * max(1e-4, 1.0 - (step + i) / total)
            rows = [context, *negs[i].tolist()]
            vec = start_in[center]
            grads = []
            for j, r in enumerate(rows):
                score = float(start_out[r] @ vec)
                label = 1.0 if j == 0 else 0.0
                loss += math.log1p(math.exp(-score)) if label else math.log1p(math.exp(score))
                grads.append(rate * (1.0 / (1.0 + math.exp(-score)) - label))
            for g, r in zip(grads, rows):
                w_in[center] -= g * start_out[r]
                w_out[r] -= g * vec
        step += per_epoch
        losses.append(loss / per_epoch)
    return vocab, w_in, losses


def padded_ids(prefix: str, n: int) -> list[str]:
    """``prefix`` plus 0 .. n-1, zero-padded to the width of n-1."""
    width = len(str(n - 1)) if n > 1 else 1
    return [prefix + str(i).zfill(width) for i in range(n)]


def block_model_reference(blocks, pairs, rng) -> list[tuple[str, str]]:
    """The generators' block model drawn per candidate: for each ``(a, b, p)``
    every index pair of blocks a and b is built up front (the upper
    triangle by ``np.triu_indices`` if a == b, else all of ``np.indices``,
    both row-major) and gets one draw, kept if below p."""
    edges = []
    for a, b, p in pairs:
        left, right = blocks[a], blocks[b]
        if a == b:
            i, j = np.triu_indices(len(left), 1)
        else:
            i, j = np.indices((len(left), len(right))).reshape(2, -1)
        hit = rng.random(len(i)) < p
        edges += [(left[x], right[y]) for x, y in zip(i[hit].tolist(), j[hit].tolist())]
    return edges


def scatter_reference(n_components: int, dyad_fraction: float, rng) -> list[tuple[str, str]]:
    """The dyad/triad scatter as string pairs: one draw per component, a dyad
    ``g<i>a -- g<i>b`` if below dyad_fraction, else the triangle on
    ``g<i>a``, ``g<i>b``, ``g<i>c``; i zero-padded as in ``padded_ids``."""
    width = max(1, len(str(max(n_components - 1, 0))))
    edges: list[tuple[str, str]] = []
    draws = rng.random(n_components)
    for ci in range(n_components):
        a, b, c = (f"g{ci:0{width}d}{tag}" for tag in "abc")
        if draws[ci] < dyad_fraction:
            edges.append((a, b))
        else:
            edges += [(a, b), (b, c), (a, c)]
    return edges


# The per-node and per-edge loops that computed clustering, the k-core and
# k-brace counts and the components before they became array passes over a
# union of graphs; kept as oracles for ``placenet.features.decompose``.


def edge_supports(g) -> tuple[list[tuple[int, int]], list[set[int]], list[int]]:
    """The edges ``(u, v)``, u < v, in ``edge_indices()`` order, each node's
    neighbour set and each edge's support ``|N(u) & N(v)|``, all by node
    index."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    adj = [set(indices[indptr[i]:indptr[i + 1]]) for i in range(g.node_count())]
    u, v = g.edge_indices()
    edges = list(zip(u.tolist(), v.tolist()))
    return edges, adj, [len(adj[a] & adj[b]) for a, b in edges]


def link_counts(g) -> list[int]:
    """Each node's sum of its edges' supports: twice its triangles."""
    edges, _, support = edge_supports(g)
    links = [0] * g.node_count()
    for (u, v), s in zip(edges, support):
        links[u] += s
        links[v] += s
    return links


def peel(keys: list[int], lowered) -> list[int]:
    """Level of every item in a sequential bucket peel.

    At each level k, from 0 up, items whose key is at most k are removed
    one by one and get level k; ``lowered(i)`` names the items whose key
    drops by one when item i goes. ``keys`` is consumed.
    """
    buckets: list[list[int]] = [[] for _ in range(max(keys, default=0) + 1)]
    for i, key in enumerate(keys):
        buckets[key].append(i)
    level = [-1] * len(keys)
    for k, bucket in enumerate(buckets):
        while bucket:
            i = bucket.pop()
            if level[i] < 0:
                level[i] = k
                for j in lowered(i):
                    if level[j] < 0:
                        key = keys[j] = keys[j] - 1
                        buckets[key if key > k else k].append(j)
    return level


def core_numbers(g) -> list[int]:
    """Core number of every node: nodes peeled by degree one at a time
    (Batagelj & Zaversnik 2003)."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    return peel(np.diff(g.indptr).tolist(), lambda v: indices[indptr[v]:indptr[v + 1]])


def brace_numbers(g) -> list[int]:
    """Brace number of every edge, in ``edge_indices()`` order: edges peeled
    by support one at a time; a going edge lowers the support of the other
    two edges of every triangle it closed."""
    edges, adj, support = edge_supports(g)
    n = len(adj)
    edge_id = {u * n + v: e for e, (u, v) in enumerate(edges)}

    def lowered(e: int):
        u, v = edges[e]
        adj[u].discard(v)
        adj[v].discard(u)
        for w in adj[u] & adj[v]:
            yield edge_id[min(u, w) * n + max(u, w)]
            yield edge_id[min(v, w) * n + max(v, w)]

    return peel(list(support), lowered)


def core_edge_levels(g) -> list[int]:
    """Each edge's smaller end core number, in ``edge_indices()`` order."""
    core = core_numbers(g)
    return [min(core[u], core[v]) for u, v in edge_supports(g)[0]]


def union(parent: list[int], u: int, v: int) -> bool:
    """Join the sets of ``u`` and ``v`` in a union-find forest whose roots
    are their sets' smallest members; True if they were apart."""
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    if u == v:
        return False
    if u < v:
        parent[v] = u
    else:
        parent[u] = v
    return True


def component_roots(g) -> list[int]:
    """Each node's component, named by the index of its smallest member."""
    parent = list(range(g.node_count()))
    u, v = g.edge_indices()
    for a, b in zip(u.tolist(), v.tolist()):
        union(parent, a, b)
    for x in range(len(parent)):  # parent[x] <= x: one pass reaches every root
        parent[x] = parent[parent[x]]
    return parent


def level_counts(g, edge_level: list[int], ks, count_mode: str) -> list[int]:
    """For each k of ``ks``, the components (or nodes) of the subgraph formed
    by the edges of level at least k and their ends: one union-find adds
    the edges from the top level down."""
    n = g.node_count()
    edges = edge_supports(g)[0]
    top = max(edge_level, default=0)
    edges_at: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for edge, level in zip(edges, edge_level):
        edges_at[level].append(edge)
    parent = list(range(n))
    seen = [False] * n
    count = [0] * (top + 1)
    nodes = comps = 0
    for level in range(top, 0, -1):
        for u, v in edges_at[level]:
            fresh = (not seen[u]) + (not seen[v])
            seen[u] = seen[v] = True
            nodes += fresh
            comps += fresh - union(parent, u, v)
        count[level] = comps if count_mode == "components" else nodes
    return [count[k] if k <= top else 0 for k in ks]
