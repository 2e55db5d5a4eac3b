"""Spans around placenet's layers, recorded from outside the program.

``Tracer.install`` replaces each traced function at the name where its
callers look it up (``placenet.features.bfs_distances``, not
``placenet.graph.bfs_distances``) with a wrapper that records a span:
layer metric, start, end and the index of the enclosing span. Spans stay
in memory until ``export``. Counts (nodes, trees, updates, calls) are
read at the same boundaries, from the call's arguments or its result.

Only the traced benchmark run installs a tracer; timed runs call the
program unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute looked up by the callers, layer metric)
SPANS = [
    ("placenet.cli", "main", "cli.io"),
    ("placenet.cli", "parse_edge_list", "graph.parse"),
    ("placenet.cli", "serialize_edge_list", "graph.serialize"),
    ("placenet.features", "connected_components", "graph.components"),
    ("placenet.features", "largest_connected_component", "graph.components"),
    ("placenet.graph", "connected_components", "graph.components"),
    ("placenet.features", "bfs_distances", "graph.bfs"),
    ("placenet.cli", "compute_features", "features.compute"),
    ("placenet.features", "avg_path_length_lcc", "features.apl"),
    ("placenet.features", "algebraic_connectivity", "features.lambda2"),
    ("placenet.features", "max_modularity_cnm", "features.cnm"),
    ("placenet.features", "avg_clustering", "features.clustering"),
    ("placenet.features", "degree_assortativity", "features.assortativity"),
    ("placenet.features", "k_core_subgraph", "features.kcore"),
    ("placenet.features", "k_brace_subgraph", "features.kbrace"),
    ("placenet.cli", "write_features_csv", "features.csv_write"),
    ("placenet.cli", "read_features_csv", "features.csv_read"),
    ("placenet.cli", "_load_ensemble", "similarity.load"),
    ("placenet.cli", "auc_matrix", "similarity.auc_matrix"),
    ("placenet.cli", "representative_distances", "similarity.representative"),
    ("placenet.similarity", "cross_validated_auc", "forest.cv"),
    ("placenet.forest", "train_random_forest", "forest.train"),
    ("placenet.forest", "predict_scores", "forest.predict"),
    ("placenet.forest", "roc_auc", "forest.auc"),
    ("placenet.cli", "derive_seed", "seeding.derive"),
    ("placenet.similarity", "derive_seed", "seeding.derive"),
    ("placenet.forest", "derive_seed", "seeding.derive"),
    ("placenet.forest", "derive_rng", "seeding.derive"),
    ("placenet.features", "derive_rng", "seeding.derive"),
    ("placenet.generators", "derive_rng", "seeding.derive"),
    ("placenet.embedding", "derive_rng", "seeding.derive"),
    ("placenet.cli", "load_corpus_jsonl", "embedding.load"),
    ("placenet.cli", "train_skipgram", "embedding.train"),
    ("placenet.cli", "nearest_categories", "embedding.nearest"),
    ("placenet.cli", "save_model_tsv", "embedding.save"),
    ("placenet.cli", "load_places_csv", "prevalence.load"),
    ("placenet.cli", "load_regions_csv", "prevalence.load"),
    ("placenet.cli", "load_external_counts_csv", "prevalence.load"),
    ("placenet.cli", "fractional_counts", "prevalence.fractional_counts"),
    ("placenet.cli", "per_capita", "prevalence.per_capita"),
    ("placenet.cli", "bin_medians", "prevalence.bin_medians"),
    ("placenet.cli", "log_pearson", "prevalence.log_pearson"),
    ("placenet.cli", "write_prevalence_csv", "prevalence.write"),
    ("placenet.cli", "write_bin_medians_csv", "prevalence.write"),
    ("placenet.cli", "write_correlation_csv", "prevalence.write"),
]

# ArchetypeSpec.build looks the generator up in this table by kind.
KIND_SPANS = {
    "erdos_renyi": "generators.er",
    "core_periphery": "generators.core_periphery",
    "dyad_triad_scatter": "generators.scatter",
    "multi_core_community": "generators.multi_core",
}


def _count_features(counts, args, kwargs, result):
    counts["features.nodes"] += result.n_nodes
    counts["features.edges"] += result.n_edges


def _count_forest(counts, args, kwargs, result):
    counts["forest.trees"] += len(result.trees)
    counts["forest.tree_nodes"] += sum(len(t.feature) for t in result.trees)


def _count_updates(counts, args, kwargs, result):
    # One update per ordered pair of distinct labels in a record, per epoch
    # (every label is kept: the benchmark runs with min_count 1).
    pairs = sum(len(set(r)) * (len(set(r)) - 1) for r in args[0])
    counts["embedding.updates"] += pairs * kwargs.get("epochs", 15)


def _count_calls(name: str):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


COUNTERS = {
    "graph.bfs": _count_calls("graph.bfs_calls"),
    "seeding.derive": _count_calls("seeding.derive_calls"),
    "features.compute": _count_features,
    "forest.train": _count_forest,
    "embedding.train": _count_updates,
}

COUNT_NAMES = ("graph.bfs_calls", "seeding.derive_calls", "features.nodes",
               "features.edges", "forest.trees", "forest.tree_nodes",
               "embedding.updates")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []

    def _wrap(self, fn, layer: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, layer in SPANS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), layer))
        kinds = importlib.import_module("placenet.generators")._KIND_FUNCS
        for kind, layer in KIND_SPANS.items():
            kinds[kind] = self._wrap(kinds[kind], layer)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans: list) -> dict[str, float]:
    """Seconds per layer metric: each span's duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (layer, *_), value in zip(spans, own):
        totals[layer] = totals.get(layer, 0.0) + value
    return totals
