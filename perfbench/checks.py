"""Independent checks of each stage's outputs.

Reference values come from networkx, scipy and numpy, or from properties
the outputs must have by construction of the inputs; nothing is compared
with a stored copy of an earlier output. The one call into placenet is
``max_modularity_cnm``, whose partition is re-scored with networkx. Each
check raises ``CheckError`` naming the file and what is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.linalg
from scipy.sparse import csgraph

from inputs import EXTERNAL_MULTIPLE, Workload

K_SET = (2, 4, 8, 16)
FEATURES = [
    "n_nodes", "n_edges", "density", "avg_degree", "degree_variance",
    "avg_clustering", "degree_assortativity", "avg_path_length_lcc",
    "algebraic_connectivity", "max_modularity",
    *(f"kcore_{k}" for k in K_SET), *(f"kbrace_{k}" for k in K_SET),
]
# Separable category pairs must reach this folded AUC.
SEPARABLE_MIN = 0.9
# Folded AUC bounds for planted null pairs: each pair, and their mean.
NULL_PAIR_MAX = 0.95
NULL_MEAN_MAX = 0.85


class CheckError(Exception):
    pass


def _fail(path: Path, message: str) -> None:
    raise CheckError(f"{path}: {message}")


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def read_csv(path: Path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path}: cannot read ({exc})")


def read_manifest(path: Path) -> list[dict]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckError(f"{path}: cannot read ({exc})")
    return [json.loads(line) for line in lines if line.strip()]


def read_graph(path: Path) -> nx.Graph:
    g = nx.Graph()
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if len(parts) != 2:
            _fail(path, f"bad edge line {line!r}")
        u, v = parts
        if u == v:
            g.add_node(u)
        else:
            g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# generate


def check_generate(out_dir: Path, wl: Workload) -> None:
    """Graph count per section, category, and node count per graph."""
    manifest_path = out_dir / "manifest.jsonl"
    entries = read_manifest(manifest_path)
    expected = [
        (f"{name}_{i:03d}", kind, params, category)
        for name, kind, params, count, category in wl.graphs.sections
        for i in range(count)
    ]
    if [e["id"] for e in entries] != [e[0] for e in expected]:
        _fail(manifest_path, "graph ids differ from the config's sections and counts")
    for entry, (graph_id, kind, params, category) in zip(entries, expected):
        if entry["category"] != category:
            _fail(manifest_path, f"{graph_id}: category {entry['category']!r}")
        path = out_dir / entry["path"]
        g = read_graph(path)
        n = g.number_of_nodes()
        if kind == "erdos_renyi":
            want = params["n"]
        elif kind == "core_periphery":
            want = params["n_core"] + params["n_periphery"]
            if sum(u.startswith("c") for u in g) != params["n_core"]:
                _fail(path, "core size differs from n_core")
        elif kind == "multi_core_community":
            want = params["n_cores"] * params["core_size"]
        else:  # dyad_triad_scatter: every component a dyad or a triangle
            comps = [g.subgraph(c) for c in nx.connected_components(g)]
            if len(comps) != params["n_components"] or any(
                not ((c.number_of_nodes() == 2 and c.number_of_edges() == 1)
                     or (c.number_of_nodes() == 3 and c.number_of_edges() == 3))
                for c in comps
            ):
                _fail(path, "components are not n_components dyads and triangles")
            want = n
        if n != want:
            _fail(path, f"{n} nodes, expected {want}")


# ---------------------------------------------------------------------------
# features


def _lcc(g: nx.Graph) -> nx.Graph:
    """Largest component; size ties go to the one holding the smallest id."""
    comps = [sorted(c) for c in nx.connected_components(g)]
    if not comps:
        return nx.Graph()
    size = max(len(c) for c in comps)
    return g.subgraph(min((c for c in comps if len(c) == size), key=lambda c: c[0]))


def _avg_path_length(h: nx.Graph) -> float:
    n = h.number_of_nodes()
    if n < 2:
        return 0.0
    adj = nx.to_scipy_sparse_array(h, format="csr")
    dist = csgraph.shortest_path(adj, unweighted=True, directed=False)
    return float(dist.sum() / (n * (n - 1)))


def _lambda2(h: nx.Graph) -> float:
    if h.number_of_nodes() < 2:
        return 0.0
    lap = nx.laplacian_matrix(h).toarray().astype(float)
    return float(scipy.linalg.eigh(lap, eigvals_only=True, subset_by_index=[1, 1])[0])


def _modularity_of_cnm_partition(text: str, g: nx.Graph) -> float:
    from placenet.features import max_modularity_cnm
    from placenet.graph import parse_edge_list

    if g.number_of_edges() == 0:
        return 0.0
    _, assignment = max_modularity_cnm(parse_edge_list(text))
    groups: dict[int, set[str]] = {}
    for node, label in assignment.items():
        groups.setdefault(label, set()).add(node)
    return float(nx.community.modularity(g, list(groups.values())))


def _components(h: nx.Graph) -> int:
    h = h.copy()
    h.remove_nodes_from(list(nx.isolates(h)))
    return nx.number_connected_components(h) if h.number_of_nodes() else 0


def reference_features(path: Path) -> dict[str, float]:
    text = path.read_text(encoding="utf-8")
    g = read_graph(path)
    n, m = g.number_of_nodes(), g.number_of_edges()
    degrees = np.array([d for _, d in g.degree()], dtype=float)
    positive = {d for d in degrees if d > 0}
    ref = {
        "n_nodes": n,
        "n_edges": m,
        "density": 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0,
        "avg_degree": 2.0 * m / n if n else 0.0,
        "degree_variance": float(degrees.var()) if n else 0.0,
        "avg_clustering": nx.average_clustering(g) if n else 0.0,
        "degree_assortativity": (
            nx.degree_assortativity_coefficient(g) if m and len(positive) > 1 else 0.0
        ),
    }
    lcc = _lcc(g)
    ref["avg_path_length_lcc"] = _avg_path_length(lcc)
    ref["algebraic_connectivity"] = _lambda2(lcc)
    ref["max_modularity"] = _modularity_of_cnm_partition(text, g)
    for k in K_SET:
        ref[f"kcore_{k}"] = _components(nx.k_core(g, k))
        ref[f"kbrace_{k}"] = _components(nx.k_truss(g, k + 2))
    return ref


def check_features(out_dir: Path, gen_dir: Path) -> None:
    """Every feature of every graph against networkx / scipy."""
    path = out_dir / "features.csv"
    rows = read_csv(path)
    if not rows or rows[0] != ["graph_id"] + FEATURES:
        _fail(path, "header differs from graph_id plus the 18 feature names")
    entries = read_manifest(gen_dir / "manifest.jsonl")
    if [r[0] for r in rows[1:]] != [e["id"] for e in entries]:
        _fail(path, "rows differ from the manifest's graphs")
    for row, entry in zip(rows[1:], entries):
        ref = reference_features(gen_dir / entry["path"])
        for name, cell in zip(FEATURES, row[1:]):
            value = float(cell)
            # lambda2 is accepted by the program at residual 1e-8
            rel, abs_ = (1e-6, 1e-7) if name == "algebraic_connectivity" else (1e-9, 1e-12)
            if not _close(value, ref[name], rel, abs_):
                _fail(path, f"{row[0]} {name} = {value!r}, reference {ref[name]!r}")


# ---------------------------------------------------------------------------
# similarity and represent


def _categories(manifest: Path) -> dict[str, str]:
    return {e["id"]: e["category"] for e in read_manifest(manifest)}


def read_importance(path: Path) -> tuple[list[str], np.ndarray, list[int]]:
    rows = read_csv(path)
    if not rows or rows[0] != ["feature", "importance", "rank"]:
        _fail(path, "missing feature,importance,rank header")
    names = [r[0] for r in rows[1:]]
    return names, np.array([float(r[1]) for r in rows[1:]]), [int(r[2]) for r in rows[1:]]


def check_similarity(out_dir: Path, manifest: Path, wl: Workload) -> None:
    """Matrix shape and symmetry, importance normalisation, planted pairs."""
    path = out_dir / "auc_matrix.csv"
    rows = read_csv(path)
    cats = sorted(set(_categories(manifest).values()))
    if not rows or rows[0] != ["category"] + cats or [r[0] for r in rows[1:]] != cats:
        _fail(path, "header or row labels differ from the manifest's categories")
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    if values.shape != (len(cats), len(cats)) or not np.all(np.isfinite(values)):
        _fail(path, "matrix is not square and finite")
    if not np.array_equal(values, values.T):
        _fail(path, "matrix is not symmetric")
    if not np.all(np.diag(values) == 0.5):
        _fail(path, "diagonal is not 0.5")
    if values.min() < 0.5 or values.max() > 1.0:
        _fail(path, "values outside [0.5, 1]")
    index = {c: i for i, c in enumerate(cats)}
    null = {tuple(sorted(p)) for p in wl.graphs.null_pairs}
    null_values = [values[index[a], index[b]] for a, b in null]
    if any(v > NULL_PAIR_MAX for v in null_values) or (
        null_values and np.mean(null_values) > NULL_MEAN_MAX
    ):
        _fail(path, f"planted null pairs {sorted(null)} score {null_values}")
    if wl.graphs.separable:
        for i, a in enumerate(cats):
            for b in cats[i + 1:]:
                if (a, b) not in null and values[index[a], index[b]] < SEPARABLE_MIN:
                    _fail(path, f"separable pair {a}/{b} scores {values[index[a], index[b]]}")

    imp_path = out_dir / "importance.csv"
    names, imp, ranks = read_importance(imp_path)
    if names != FEATURES:
        _fail(imp_path, "features differ from the canonical 18")
    if not np.all(np.isfinite(imp)) or imp.min() < 0 or abs(imp.sum() - 1.0) > 1e-9:
        _fail(imp_path, "importances are not non-negative with sum 1")
    order = sorted(range(len(imp)), key=lambda f: (-imp[f], f))
    want = [0] * len(imp)
    for rank, f in enumerate(order, start=1):
        want[f] = rank
    if ranks != want:
        _fail(imp_path, "ranks do not follow descending importance")


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Column-wise 1-based ranks, ties sharing their average rank."""
    ranks = np.empty_like(x, dtype=float)
    for j in range(x.shape[1]):
        col = x[:, j]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        start = 0
        while start < len(col):
            end = start
            while end + 1 < len(col) and sorted_col[end + 1] == sorted_col[start]:
                end += 1
            ranks[order[start:end + 1], j] = (start + end) / 2.0 + 1.0
            start = end + 1
    return ranks


def _safe(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


def check_represent(out_dir: Path, features: Path, importance: Path,
                    manifest: Path) -> None:
    """The chosen graph minimises the importance-weighted rank distance."""
    rows = read_csv(features)
    ids = [r[0] for r in rows[1:]]
    x = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    _, weights, _ = read_importance(importance)
    category = _categories(manifest)
    ranks = average_ranks(x)
    path = out_dir / "representatives.csv"
    got = read_csv(path)
    cats = sorted(set(category[i] for i in ids))
    if not got or got[0] != ["category", "graph_id", "distance"] or [
        r[0] for r in got[1:]
    ] != cats:
        _fail(path, "rows differ from one per category")
    copies = out_dir / "representatives"
    expected_copies = set()
    for cat, row in zip(cats, got[1:]):
        members = [k for k, i in enumerate(ids) if category[i] == cat]
        dev = ranks[members] - ranks[members].mean(axis=0)
        dist = np.sqrt((weights * dev**2).sum(axis=1))
        best = min(range(len(members)), key=lambda k: (dist[k], ids[members[k]]))
        want_id = ids[members[best]]
        if row[1] != want_id or not _close(float(row[2]), float(dist[best])):
            _fail(path, f"{cat}: chose {row[1]} at {row[2]}, expected {want_id} "
                        f"at {dist[best]!r}")
        name = f"{_safe(cat)}__{_safe(want_id)}.edges"
        expected_copies.add(name)
        source = manifest.parent / next(
            e["path"] for e in read_manifest(manifest) if e["id"] == want_id
        )
        if not (copies / name).is_file() or (copies / name).read_bytes() != source.read_bytes():
            _fail(copies / name, "copy differs from the chosen graph's edge list")
    if {p.name for p in copies.iterdir()} != expected_copies:
        _fail(copies, "holds other files than the representatives' copies")


# ---------------------------------------------------------------------------
# embed


def check_embed(out_dir: Path, wl: Workload) -> None:
    """Losses fall and every planted partner is its label's nearest neighbour."""
    losses_path = out_dir / "losses.csv"
    losses = [float(r[1]) for r in read_csv(losses_path)[1:]]
    if len(losses) != wl.labels.epochs or not all(map(math.isfinite, losses)):
        _fail(losses_path, f"expected {wl.labels.epochs} finite epoch losses")
    if not losses[-1] < losses[0]:
        _fail(losses_path, f"loss did not fall: {losses[0]} -> {losses[-1]}")

    model_path = out_dir / "model.tsv"
    labels, vectors = [], []
    for line in model_path.read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        labels.append(parts[0])
        vectors.append([float(v) for v in parts[1:]])
    vec = np.array(vectors)
    unit = vec / np.linalg.norm(vec, axis=1, keepdims=True)
    index = {label: i for i, label in enumerate(labels)}

    neighbors_path = out_dir / "neighbors.csv"
    table = read_csv(neighbors_path)
    by_type: dict[str, list[list[str]]] = {}
    for row in table[1:]:
        by_type.setdefault(row[0], []).append(row)
    for place_type, a, b in wl.planted:
        if a not in index or b not in index:
            _fail(model_path, f"planted labels {a}, {b} missing")
        cos = unit @ unit[index[a]]
        cos[index[a]] = -np.inf
        if labels[int(np.argmax(cos))] != b:
            _fail(model_path, f"nearest neighbour of {a} is {labels[int(np.argmax(cos))]}, not {b}")
        rows = by_type.get(place_type, [])
        if not rows or rows[0][1] != a or rows[0][2] != "1" or rows[0][3] != b:
            _fail(neighbors_path, f"{place_type}: first neighbour of {a} is not {b}")
        previous = math.inf
        for row in rows:
            value = float(row[4])
            if not _close(value, float(cos[index[row[3]]])) or value > previous:
                _fail(neighbors_path, f"{place_type}: cosine of {row[3]} is {value}")
            previous = value


# ---------------------------------------------------------------------------
# prevalence


def check_prevalence(out_dir: Path, input_dir: Path) -> None:
    """Exact page mass, recomputed rates and deciles, planted log-r = 1."""
    places = read_csv(input_dir / "places.csv")[1:]
    regions = {r[0]: int(r[1]) for r in read_csv(input_dir / "regions.csv")[1:]}
    mass: dict[tuple[str, str], Fraction] = {}
    pages: dict[str, int] = {}
    for _, region, cats in places:
        picks = sorted(set(cats.split(";")))
        pages[region] = pages.get(region, 0) + 1
        for cat in picks:
            mass[(region, cat)] = mass.get((region, cat), Fraction(0)) + Fraction(1, len(picks))
    categories = sorted({cat for _, cat in mass})

    path = out_dir / "prevalence.csv"
    rows = read_csv(path)
    if not rows or rows[0] != ["region_id", "category", "weighted_count", "per_1000", "decile"]:
        _fail(path, "missing header")
    table = {(r[0], r[1]): (float(r[2]), float(r[3]), int(r[4])) for r in rows[1:]}
    if sorted(table) != sorted((r, c) for r in regions for c in categories):
        _fail(path, "rows differ from every region for every category")
    region_mass: dict[str, float] = {}
    for (region, cat), (wc, rate, decile) in table.items():
        exact = mass.get((region, cat), Fraction(0))
        region_mass[region] = region_mass.get(region, 0.0) + wc
        if not _close(wc, float(exact)) and not (wc == 0 and exact == 0):
            _fail(path, f"{region}/{cat}: weighted count {wc}, expected {float(exact)}")
        want_rate = float(Fraction(1000) * exact / regions[region])
        if not _close(rate, want_rate) and not (rate == 0 and want_rate == 0):
            _fail(path, f"{region}/{cat}: per_1000 {rate}, expected {want_rate}")
        if not 1 <= decile <= 10:
            _fail(path, f"{region}/{cat}: decile {decile} outside 1..10")
    for region, total in region_mass.items():
        if abs(total - pages.get(region, 0)) > 1e-9 * max(1, pages.get(region, 0)):
            _fail(path, f"{region}: page mass {total}, expected {pages.get(region, 0)}")
    for cat in categories:
        rates = {r: Fraction(1000) * mass.get((r, cat), Fraction(0)) / pop
                 for r, pop in regions.items()}
        ordered = sorted(rates, key=lambda r: (rates[r], r))
        for i, region in enumerate(ordered):
            if table[(region, cat)][2] != -(-10 * (i + 1) // len(ordered)):
                _fail(path, f"{region}/{cat}: decile differs from its rank")

    corr_path = out_dir / "correlation.csv"
    corr = read_csv(corr_path)
    if [r[0] for r in corr[1:]] != categories:
        _fail(corr_path, "rows differ from the counted categories")
    for cat, r, n_pairs, n_dropped in corr[1:]:
        empty = sum(1 for region in regions if (region, cat) not in mass)
        if not _close(float(r), 1.0) or int(n_dropped) != empty or (
            int(n_pairs) != len(regions) - empty
        ):
            _fail(corr_path, f"{cat}: r={r} n_pairs={n_pairs} n_dropped={n_dropped}, "
                             f"planted r=1 with {empty} empty regions "
                             f"(external = {EXTERNAL_MULTIPLE} x page mass)")


def check_op(op_name: str, out: Path, round_dir: Path, wl: Workload) -> None:
    """Check the outputs in ``out`` of one invocation of ``op_name``, whose
    inputs are the outputs of the other ops in ``round_dir``."""
    gen = round_dir / "generate"
    if op_name == "generate":
        check_generate(out, wl)
    elif op_name == "features":
        check_features(out, gen)
    elif op_name == "similarity":
        check_similarity(out, gen / "manifest.jsonl", wl)
    elif op_name == "represent":
        check_represent(out, round_dir / "features" / "features.csv",
                        round_dir / "similarity" / "importance.csv",
                        gen / "manifest.jsonl")
    elif op_name == "embed":
        check_embed(out, wl)
    elif op_name == "prevalence":
        check_prevalence(out, wl.input_dir)
    else:
        raise ValueError(op_name)

