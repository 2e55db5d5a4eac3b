"""Batch command-line pipeline.

Subcommands: generate, features, similarity, represent, embed, prevalence.
Every run writes its outputs plus a ``run_metadata.json`` sidecar recording
the resolved options, seed, input digests and the digests of the files the
run wrote; given identical inputs, options and seed, all outputs are
byte-identical. Exit codes: 0 success, 1 usage error, 2 data/validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import re
import sys
from pathlib import Path

from placenet.embedding import (
    load_corpus_jsonl,
    nearest_categories,
    save_model_tsv,
    train_skipgram,
)
from placenet.features import (
    DEFAULT_K_SET,
    ConvergenceError,
    compute_features,
    decomposed,
    read_features_csv,
    write_features_csv,
)
from placenet.forest import ForestParams
from placenet.generators import archetype
from placenet.graph import GraphParseError, parse_edge_list, serialize_edge_list
from placenet.prevalence import (
    BIN_KEYS,
    bin_medians,
    fractional_counts,
    load_external_counts_csv,
    load_places_csv,
    load_regions_csv,
    log_pearson,
    per_capita,
    write_bin_medians_csv,
    write_correlation_csv,
    write_prevalence_csv,
)
from placenet.seeding import derive_seed
from placenet.similarity import (
    Ensemble,
    auc_matrix,
    read_importance_csv,
    representative_distances,
    write_auc_matrix_csv,
    write_importance_csv,
)
from placenet.tables import open_text, read_jsonl, read_text, unique, write_csv, write_jsonl


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _combined_digest(named: dict[str, str]) -> str:
    joined = "\n".join(f"{name}:{digest}" for name, digest in sorted(named.items()))
    return _sha256_text(joined)


# Namespace entries that are not recorded under "options".
_NOT_OPTIONS = {"out_dir", "seed", "subcommand", "func"}


def _write_metadata(args, written: list[str], extra_inputs: dict[str, str]) -> None:
    """Location-independent provenance: names and digests only, no paths.

    Options are the parsed arguments. File arguments (``Path`` values) are
    recorded by basename and digested as inputs. Outputs are exactly the
    files this run wrote, relative to ``--out-dir``.
    """
    options: dict = {}
    inputs = dict(extra_inputs)
    for key, value in vars(args).items():
        if key in _NOT_OPTIONS:
            continue
        if isinstance(value, Path):
            inputs[value.name] = _sha256_file(value)
            value = value.name
        options[key] = value
    meta = {
        "command": args.subcommand,
        "seed": getattr(args, "seed", None),
        "options": options,
        "inputs": inputs,
        "outputs": {rel: _sha256_file(args.out_dir / rel) for rel in written},
    }
    (args.out_dir / "run_metadata.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _read_manifest(path: Path) -> list[tuple[int, dict]]:
    """JSONL entries {"id", "path", "category"}, validated, with their line numbers."""
    seen: set[str] = set()

    def entry(obj) -> dict:
        if not isinstance(obj, dict) or not all(
            isinstance(obj.get(key), str) and obj[key] for key in ("id", "path", "category")
        ):
            raise ValueError("entry needs id, path and category as non-empty strings")
        unique(seen, obj["id"], "id")
        return obj

    return read_jsonl(path, entry)


def _k_set(text: str) -> tuple[int, ...]:
    """``--k-set`` type: comma-separated k >= 1; repeats dropped, order kept."""
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not ks or min(ks) < 1:
        raise argparse.ArgumentTypeError(f"expected k values >= 1, got {text!r}")
    return tuple(dict.fromkeys(ks))


def _positive(kind, low=None):
    """Argument type: a finite ``kind`` (``int`` or ``float``) value > 0,
    or >= ``low`` when that is given."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (0 < value if low is None else low <= value) or value == math.inf:
            bound = "> 0" if low is None else f">= {low}"
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} {bound}, got {text!r}")
        return value
    return parse


def _forest_params(args) -> ForestParams:
    return ForestParams(
        n_trees=args.n_trees,
        max_depth=args.max_depth if args.max_depth > 0 else None,
        min_leaf=args.min_leaf,
        features_per_split=args.features_per_split if args.features_per_split > 0 else None,
    )


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


# ---------------------------------------------------------------------------
# Subcommands: each writes into ``out_dir`` and returns the relative paths it
# wrote plus any input digests beyond those of its file arguments.


def _read_config(path: Path) -> configparser.ConfigParser:
    """The INI archetype config, values taken literally; a syntax error names
    the file and line."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open_text(path) as fh:
            parser.read_file(fh)
    except configparser.MissingSectionHeaderError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: expected a [section] header, "
                         f"got {exc.line.strip()!r}")
    except configparser.ParsingError as exc:
        raise ValueError(f"{path}: line {exc.errors[0][0]}: expected 'key = value'")
    except configparser.DuplicateOptionError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: option {exc.option!r} repeats "
                         f"in section [{exc.section}]")
    except configparser.DuplicateSectionError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: section [{exc.section}] repeats")
    return parser


def _cmd_generate(args, out_dir: Path):
    parser = _read_config(args.config)
    if not parser.sections():
        raise ValueError(f"{args.config}: no sections")

    def integer(key: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {text!r}")

    graphs = []  # (graph id, category, recipe, seed), checked before any write
    for section_index, section in enumerate(parser.sections()):
        items = dict(parser.items(section))
        try:
            if set(section) & {"/", "\\", "\0"}:
                raise ValueError("a section name must not hold '/', '\\' or NUL")
            count = integer("count", items.pop("count", "1"))
            if count < 1:
                raise ValueError("count must be >= 1")
            category = items.pop("category", section)
            if not category:
                raise ValueError("category must not be empty")
            section_seed = items.pop("seed", None)
            if section_seed is not None:
                section_seed = integer("seed", section_seed)
            recipe = archetype(items)
        except ValueError as exc:
            raise ValueError(f"{args.config}: section [{section}]: {exc}")
        for i in range(count):
            if section_seed is not None:
                graph_seed = derive_seed(section_seed, i)
            else:
                graph_seed = derive_seed(args.seed, section_index, i)
            graphs.append((f"{section}_{i:03d}", category, recipe, graph_seed))
    (out_dir / "graphs").mkdir(exist_ok=True)
    for graph_id, _, recipe, graph_seed in graphs:
        (out_dir / "graphs" / f"{graph_id}.edges").write_text(
            serialize_edge_list(recipe(seed=graph_seed)), encoding="utf-8"
        )
    manifest = [{"id": graph_id, "path": f"graphs/{graph_id}.edges", "category": category}
                for graph_id, category, _, _ in graphs]
    write_jsonl(out_dir / "manifest.jsonl", manifest)
    return [entry["path"] for entry in manifest] + ["manifest.jsonl"], {}


def _cmd_features(args, out_dir: Path):
    graph_digests: dict[str, str] = {}

    def graphs():  # ((graph id, edge list), graph) of each manifest entry
        for line_no, entry in _read_manifest(args.manifest):
            gpath = args.manifest.parent / entry["path"]  # an absolute path stays as it is
            try:
                text = read_text(gpath)
            except OSError as exc:  # names the graph's path
                raise ValueError(f"{args.manifest}: line {line_no}: {exc}")
            graph_digests[entry["id"]] = _sha256_text(text)
            try:
                graph = parse_edge_list(text)
            except GraphParseError as exc:
                raise ValueError(f"{gpath}: {exc}")
            yield (entry["id"], gpath), graph

    rows = []
    for (graph_id, gpath), graph in decomposed(graphs()):
        try:
            rows.append((graph_id, compute_features(
                graph,
                args.k_set,
                count_mode=args.count_mode,
                lambda2_scope=args.lambda2_scope,
                lambda2_tol=args.lambda2_tol,
                lambda2_max_iter=args.lambda2_max_iter,
                path_sample_sources=args.path_sample_sources or None,
                path_sample_seed=args.seed,
            )))
        except ConvergenceError as exc:
            exc.args = (f"{gpath}: {exc}",)  # keeps exit 3; names the graph
            raise
    write_features_csv(str(out_dir / "features.csv"), rows, args.k_set)
    return ["features.csv"], {"graphs": _combined_digest(graph_digests)}


def _load_ensemble(
    features_path: Path, manifest_path: Path
) -> tuple[Ensemble, list[str], dict[str, str]]:
    """The feature table with the manifest's categories, the feature names
    and each graph id's edge-list path."""
    ids, names, matrix = read_features_csv(str(features_path))
    entries = {e["id"]: e for _, e in _read_manifest(manifest_path)}
    missing = [graph_id for graph_id in ids if graph_id not in entries]
    if missing:
        raise ValueError(f"{features_path}: graph {missing[0]!r} is not in the manifest")
    categories = [entries[graph_id]["category"] for graph_id in ids]
    path_of = {graph_id: entry["path"] for graph_id, entry in entries.items()}
    return Ensemble(ids, categories, matrix), names, path_of


def _cmd_similarity(args, out_dir: Path):
    ensemble, names, _ = _load_ensemble(args.features, args.manifest)
    try:
        matrix, importance = auc_matrix(
            ensemble, folds=args.folds, seed=args.seed, params=_forest_params(args)
        )
    except ValueError as exc:
        raise ValueError(f"{args.features}: {exc}")
    write_auc_matrix_csv(matrix, str(out_dir / "auc_matrix.csv"))
    write_importance_csv(str(out_dir / "importance.csv"), importance, names)
    return ["auc_matrix.csv", "importance.csv"], {}


def _cmd_represent(args, out_dir: Path):
    ensemble, names, path_of = _load_ensemble(args.features, args.manifest)
    imp_names, importance = read_importance_csv(str(args.importance))
    if imp_names != names:
        raise ValueError(
            f"{args.importance}: feature names do not match {args.features.name}"
        )
    rows = []
    copies: dict[str, tuple[str, str]] = {}  # path -> (category, graph id)
    for category in ensemble.category_names():
        rep_id, dist = representative_distances(
            ensemble,
            category,
            importance,
            rank_scope=args.rank_scope,
            weight_mode=args.weight_mode,
        )[0]
        rows.append([category, rep_id, repr(dist)])
        rel = f"representatives/{_safe_name(category)}__{_safe_name(rep_id)}.edges"
        if rel in copies:
            raise ValueError(f"categories {copies[rel][0]!r} and {category!r} would both "
                             f"write their representative to {rel}")
        copies[rel] = (category, rep_id)
    (out_dir / "representatives").mkdir(exist_ok=True)
    for rel, (_, rep_id) in copies.items():
        src = args.manifest.parent / path_of[rep_id]
        (out_dir / rel).write_bytes(src.read_bytes())
    write_csv(out_dir / "representatives.csv", ["category", "graph_id", "distance"], rows)
    return ["representatives.csv", *copies], {}


def _cmd_embed(args, out_dir: Path):
    records = load_corpus_jsonl(str(args.corpus))
    seeds_map: dict[str, str] = {}
    allow: set[str] | None = None
    if args.seeds:
        try:
            seeds_map = json.loads(read_text(args.seeds))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.seeds}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        if not isinstance(seeds_map, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in seeds_map.items()
        ):
            raise ValueError(f"{args.seeds}: expected a JSON object of type -> label")
    if args.allowlist:
        # read_text ends each line with "\n"; splitlines() would also split at "\x0c"
        lines = (line.strip() for line in read_text(args.allowlist).split("\n"))
        allow = {line for line in lines if line and not line.startswith("#")}
    try:
        model = train_skipgram(
            records,
            dim=args.dim,
            epochs=args.epochs,
            negatives=args.negatives,
            learning_rate=args.learning_rate,
            min_count=args.min_count,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ValueError(f"{args.corpus}: {exc}")
    for place_type, seed_label in sorted(seeds_map.items()):  # checked before any write
        if seed_label not in model:
            raise ValueError(
                f"{args.seeds}: seed label {seed_label!r} for type "
                f"{place_type!r} is not in the vocabulary"
            )
    save_model_tsv(model, str(out_dir / "model.tsv"))
    write_csv(out_dir / "losses.csv", ["epoch", "loss"], (
        [epoch, repr(loss)] for epoch, loss in enumerate(model.epoch_losses, start=1)
    ))
    written = ["model.tsv", "losses.csv"]
    if not args.seeds:
        return written, {}

    rows = []
    for place_type, seed_label in sorted(seeds_map.items()):
        neighbors = nearest_categories(model, seed_label, top_k=args.top_k)
        for rank, (label, cosine) in enumerate(neighbors, start=1):
            if allow is None or label in allow:
                rows.append([place_type, seed_label, rank, label, repr(cosine)])
    write_csv(out_dir / "neighbors.csv",
              ["type", "seed_label", "rank", "label", "cosine"], rows)
    return written + ["neighbors.csv"], {}


def _cmd_prevalence(args, out_dir: Path):
    regions = load_regions_csv(str(args.regions))
    pages = load_places_csv(str(args.places), regions, str(args.regions))
    external = (load_external_counts_csv(str(args.external), regions, str(args.regions))
                if args.external else None)
    counts = fractional_counts(pages)
    table = per_capita(counts, regions)
    medians = {key: bin_medians(table, regions, key) for key in BIN_KEYS}
    results = {}  # every correlation is taken before the first write
    for cat in sorted({cat for _, cat in table} & set(external or {})):
        # Zero-count regions stay in the map so the log transform drops
        # them visibly (reported in n_dropped) instead of silently.
        page_mass = {region: table[region, cat].weighted_count for region in regions}
        try:
            results[cat] = log_pearson(page_mass, external[cat])
        except ValueError as exc:
            raise ValueError(f"{args.external}: category {cat!r}: {exc}")
    write_prevalence_csv(str(out_dir / "prevalence.csv"), table)
    write_bin_medians_csv(str(out_dir / "bin_medians.csv"), medians)
    written = ["prevalence.csv", "bin_medians.csv"]
    if external is None:
        return written, {}
    write_correlation_csv(str(out_dir / "correlation.csv"), results)
    return written + ["correlation.csv"], {}


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="placenet",
        description="Fingerprint and compare ensembles of social-place friendship networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, summary, seeded=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out-dir", type=Path, required=True)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
        return p

    p = command("generate", _cmd_generate, "synthesize graphs from an archetype config")
    p.add_argument("--config", type=Path, required=True, help="INI-style archetype sections")

    p = command("features", _cmd_features, "compute feature CSV from a graph manifest")
    p.add_argument("--manifest", type=Path, required=True, help="JSONL of {id, path, category}")
    p.add_argument("--k-set", type=_k_set, default=DEFAULT_K_SET)
    p.add_argument("--count-mode", choices=["components", "nodes"], default="components")
    p.add_argument("--lambda2-scope", choices=["lcc", "global"], default="lcc")
    p.add_argument("--lambda2-tol", type=_positive(float), default=1e-8,
                   help="eigenpair residual bound of the shift-invert Lanczos for "
                        "components above 128 nodes; smaller ones use a dense eigensolver")
    p.add_argument("--lambda2-max-iter", type=_positive(int), default=10_000,
                   help="budget of sparse LU solves for lambda2 on components "
                        "above 128 nodes (exhausting it exits 3)")
    p.add_argument("--path-sample-sources", type=_positive(int, low=0), default=0,
                   help="BFS source sample size for huge components (0 = exact)")

    p = command("similarity", _cmd_similarity, "pairwise category AUC matrix + importance")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--folds", type=_positive(int, low=2), default=10)
    p.add_argument("--n-trees", type=_positive(int), default=100)
    p.add_argument("--max-depth", type=_positive(int, low=0), default=0,
                   help="0 = unbounded")
    p.add_argument("--min-leaf", type=_positive(int), default=1)
    p.add_argument("--features-per-split", type=_positive(int, low=0), default=0,
                   help="0 = ceil(sqrt(d))")

    p = command("represent", _cmd_represent, "pick each category's representative graph",
                seeded=False)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--importance", type=Path, required=True)
    p.add_argument("--rank-scope", choices=["pooled", "per_category"], default="pooled")
    p.add_argument("--weight-mode", choices=["squared", "presquare"], default="squared")

    p = command("embed", _cmd_embed, "train label embeddings and report neighbors")
    p.add_argument("--corpus", type=Path, required=True, help="JSONL of {categories: [...]}")
    p.add_argument("--dim", type=_positive(int), default=64)
    p.add_argument("--epochs", type=_positive(int), default=15)
    p.add_argument("--negatives", type=_positive(int, low=0), default=5)
    p.add_argument("--learning-rate", type=_positive(float), default=0.025)
    p.add_argument("--min-count", type=_positive(int, low=0), default=1)
    p.add_argument("--top-k", type=_positive(int, low=0), default=300)
    p.add_argument("--seeds", type=Path, help="JSON object: place type -> seed label")
    p.add_argument("--allowlist", type=Path, help="optional file of permitted labels")

    p = command("prevalence", _cmd_prevalence, "per-capita prevalence statistics",
                seeded=False)
    p.add_argument("--places", type=Path, required=True)
    p.add_argument("--regions", type=Path, required=True)
    p.add_argument("--external", type=Path, help="optional external counts for correlation")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        written, extra_inputs = args.func(args, args.out_dir)
        _write_metadata(args, written, extra_inputs)
        return 0
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
