"""Seeded inputs and the per-round operation list of each workload.

Every workload runs the same six-stage pipeline (generate, features,
similarity, represent, embed, prevalence) so that every end-to-end metric
is measured on every workload; the workloads differ in what they feed it.
A workload combines one graph corpus with one label corpus:

- ``ensemble``: many small graphs in six categories; tiny label corpus.
- ``large_graphs``: four graphs of 990-2500 nodes; tiny label corpus.
- ``labels``: tiny graph corpus; large co-occurrence corpus and place table.

The tiny parts exist only so that each stage reports its metric on every
workload; they are sized to stay a small share of a round.

The program only sees the files written here. Graphs come from
``placenet generate`` itself, seeded with a value derived from the
benchmark seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("ensemble", "large_graphs", "labels")

# (section, kind, params, count, category)
Section = tuple[str, str, dict, int, str]

_CP = {"n_core": 12, "n_periphery": 108, "p_cc": 0.6, "p_cp": 0.08, "p_pp": 0.01}
_SCATTER = {"n_components": 60, "dyad_fraction": 0.5}

# Two categories share the core-periphery archetype and two the scatter
# archetype: those pairs are indistinguishable, so their forests grow deep
# trees, which is what a forest optimisation has to speed up. The other
# pairs differ in node count or structure and grow stumps.
# The null categories hold 24 graphs each: with 12, the cross-validated AUC
# of a null pair reached 0.82 within 80 seeds, too close to separable.
ENSEMBLE_SECTIONS: list[Section] = [
    ("bar", "core_periphery", _CP, 24, "bar"),
    ("pub", "core_periphery", _CP, 24, "pub"),
    ("restaurant", "dyad_triad_scatter", _SCATTER, 24, "restaurant"),
    ("diner", "dyad_triad_scatter", _SCATTER, 24, "diner"),
    ("park", "erdos_renyi", {"n": 200, "p": 0.02}, 12, "park"),
    ("club", "multi_core_community",
     {"n_cores": 3, "core_size": 60, "p_in": 0.15, "p_out": 0.005}, 12, "club"),
]
ENSEMBLE_NULL_PAIRS = [("bar", "pub"), ("diner", "restaurant")]

# One scatter of many tiny components loads the component code instead of
# the path code. Categories pair the graphs two by two so that similarity
# and represent can run on them with two folds.
# The sizes leave time for three or four rounds in a 35 s run: APL's
# all-pairs BFS and the generators' candidate-pair build grow with n
# squared, and graphs of 2000 nodes left time for two.
LARGE_SECTIONS: list[Section] = [
    ("er", "erdos_renyi", {"n": 1600, "p": 0.001875}, 1, "diffuse"),
    ("multi_core", "multi_core_community",
     {"n_cores": 3, "core_size": 330, "p_in": 0.015, "p_out": 0.0007}, 1, "diffuse"),
    ("core_periphery", "core_periphery",
     {"n_core": 80, "n_periphery": 1520, "p_cc": 0.3, "p_cp": 0.01, "p_pp": 0.0005},
     1, "cored"),
    ("scatter", "dyad_triad_scatter", {"n_components": 1000, "dyad_fraction": 0.5},
     1, "cored"),
]

# The tiny graphs are many and of kinds whose feature cost hardly depends
# on the seed: a two-block graph has a clear Fiedler gap, so the inverse
# iteration for lambda2 takes about the same steps on every draw (one
# feature pass per graph varies by about 11 %, against 27-43 % for sparse
# Erdos-Renyi graphs of the same size, whose lambda2 iteration count
# varies). Summed over 24 graphs, the corpus's cost then moves by about 2 %
# from seed to seed.
TINY_SECTIONS: list[Section] = [
    ("tiny_blocks", "multi_core_community",
     {"n_cores": 2, "core_size": 10, "p_in": 0.5, "p_out": 0.05}, 12, "tiny_blocks"),
    ("tiny_scatter", "dyad_triad_scatter", {"n_components": 8, "dyad_fraction": 0.5},
     12, "tiny_scatter"),
]


@dataclass(frozen=True)
class GraphCorpus:
    sections: list[Section]
    folds: int
    n_trees: int
    null_pairs: list[tuple[str, str]]
    # Whether every pair other than the null pairs must reach an AUC of
    # 0.9; off where categories of two graphs leave the AUC meaningless.
    separable: bool


@dataclass(frozen=True)
class LabelCorpus:
    groups: int        # planted (A, B, hub) label groups
    group_records: int  # records per planted sub-pair
    fillers: int       # filler labels
    filler_records: int
    epochs: int
    places: int
    regions: int
    categories: int


GRAPH_CORPORA = {
    "ensemble": GraphCorpus(ENSEMBLE_SECTIONS, folds=4, n_trees=25,
                            null_pairs=ENSEMBLE_NULL_PAIRS, separable=True),
    "large": GraphCorpus(LARGE_SECTIONS, folds=2, n_trees=25,
                         null_pairs=[], separable=False),
    "tiny": GraphCorpus(TINY_SECTIONS, folds=2, n_trees=10,
                        null_pairs=[], separable=True),
}

LABEL_CORPORA = {
    "large": LabelCorpus(groups=8, group_records=6, fillers=40, filler_records=500,
                         epochs=15, places=20000, regions=300, categories=24),
    "tiny": LabelCorpus(groups=3, group_records=6, fillers=10, filler_records=40,
                        epochs=15, places=2400, regions=60, categories=6),
}

WORKLOAD_CORPORA = {
    "ensemble": ("ensemble", "tiny"),
    "large_graphs": ("large", "tiny"),
    "labels": ("tiny", "large"),
}

# Invocations per round of the stages that are short on a workload. A
# stage that takes milliseconds lands in one of the machine's fast or slow
# phases, so it needs 15-20 repetitions in a run for a steady median.
REPS = {
    "ensemble": {"generate": 3, "similarity": 2, "represent": 2, "embed": 4,
                 "prevalence": 4},
    "large_graphs": {"similarity": 4, "represent": 4, "embed": 4, "prevalence": 4},
    "labels": {"generate": 4, "features": 4, "similarity": 4, "represent": 4,
               "prevalence": 2},
}

# External establishment counts are planted as this multiple of the page
# mass, so the log-log correlation must come out as exactly 1.
EXTERNAL_MULTIPLE = 7


@dataclass
class Op:
    """One stage, invoked ``reps`` times per round; ``@name/file`` in argv
    means this round's output directory of the op named ``name``."""

    name: str
    stage: str
    argv: list[str]
    work: int
    reps: int = 1

    def out_dir(self, round_dir: Path, rep: int) -> Path:
        return round_dir / (self.name if rep == 0 else f"{self.name}.{rep}")

    def resolve(self, round_dir: Path, rep: int = 0) -> list[str]:
        out = []
        for arg in self.argv:
            if arg.startswith("@"):
                out.append(str(round_dir / arg[1:]))
            else:
                out.append(arg)
        return out + ["--out-dir", str(self.out_dir(round_dir, rep))]


@dataclass
class Workload:
    input_dir: Path
    graphs: GraphCorpus
    labels: LabelCorpus
    planted: list[tuple[str, str, str]] = field(default_factory=list)  # type, A, B
    ops: list[Op] = field(default_factory=list)


def _write_config(path: Path, sections: list[Section]) -> None:
    lines = []
    for name, kind, params, count, category in sections:
        lines.append(f"[{name}]")
        lines.append(f"kind = {kind}")
        lines.extend(f"{key} = {value}" for key, value in params.items())
        lines.append(f"count = {count}")
        lines.append(f"category = {category}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def _write_corpus(input_dir: Path, spec: LabelCorpus, rng: random.Random):
    """Planted groups: A and B never co-occur but both co-occur with their own
    hub H, so skip-gram gives them the same context and each is the other's
    nearest neighbour. Fillers co-occur at random, two or three to a record."""
    records: list[list[str]] = []
    planted = []
    for g in range(spec.groups):
        a, b, hub = f"A{g:02d}", f"B{g:02d}", f"H{g:02d}"
        planted.append((f"type{g:02d}", a, b))
        for pair in ((a, hub), (b, hub)):
            records.extend([list(pair)] * spec.group_records)
    fillers = [f"F{i:02d}" for i in range(spec.fillers)]
    for _ in range(spec.filler_records):
        records.append(rng.sample(fillers, rng.choice((2, 3))))
    rng.shuffle(records)
    with open(input_dir / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"categories": rec}) + "\n")
    (input_dir / "seeds.json").write_text(
        json.dumps({t: a for t, a, _ in planted}, sort_keys=True), encoding="utf-8"
    )
    updates = sum(len(set(r)) * (len(set(r)) - 1) for r in records) * spec.epochs
    return planted, updates


def _write_places(input_dir: Path, spec: LabelCorpus, rng: random.Random) -> None:
    regions = [f"R{i:04d}" for i in range(spec.regions)]
    cats = [f"cat{i:02d}" for i in range(spec.categories)]
    # Skewed region and category weights leave some (region, category)
    # cells empty, which exercises the zero-count path of the correlation.
    region_w = [rng.paretovariate(1.2) for _ in regions]
    cat_w = [1.0 / (i + 1) for i in range(len(cats))]
    mass: dict[tuple[str, str], Fraction] = {}
    with open(input_dir / "places.csv", "w", encoding="utf-8") as fh:
        fh.write("page_id,region_id,categories\n")
        for i in range(spec.places):
            region = rng.choices(regions, region_w)[0]
            picks = set(rng.choices(cats, cat_w, k=rng.choice((1, 1, 2, 3))))
            for cat in picks:
                mass[(region, cat)] = mass.get((region, cat), 0) + Fraction(1, len(picks))
            fh.write(f"p{i:06d},{region},{';'.join(sorted(picks))}\n")
    with open(input_dir / "regions.csv", "w", encoding="utf-8") as fh:
        fh.write("region_id,population,rucc,income,education,foreign_born_share\n")
        for region in regions:
            fh.write(
                f"{region},{rng.randint(2000, 900000)},{rng.randint(1, 9)},"
                f"{rng.uniform(20000, 120000):.2f},{rng.uniform(0.05, 0.6):.4f},"
                f"{rng.uniform(0.0, 0.4):.4f}\n"
            )
    with open(input_dir / "external.csv", "w", encoding="utf-8") as fh:
        fh.write("region_id,category,count\n")
        for region in regions:
            for cat in cats:
                # Regions without pages get a positive count, so they are
                # dropped for the zero page mass alone.
                count = float(EXTERNAL_MULTIPLE * mass.get((region, cat), 0)) or 1.0
                fh.write(f"{region},{cat},{count!r}\n")


def build(name: str, seed: int, input_dir: Path) -> Workload:
    """Write the workload's inputs for ``seed`` and list one round's ops."""
    graph_key, label_key = WORKLOAD_CORPORA[name]
    wl = Workload(input_dir, GRAPH_CORPORA[graph_key], LABEL_CORPORA[label_key])
    input_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    gen_seed = rng.randrange(1 << 31)
    cv_seed = rng.randrange(1 << 31)
    _write_config(input_dir / "archetypes.ini", wl.graphs.sections)
    wl.planted, updates = _write_corpus(input_dir, wl.labels, rng)
    _write_places(input_dir, wl.labels, rng)

    n_graphs = sum(count for _, _, _, count, _ in wl.graphs.sections)
    n_cats = len({cat for *_, cat in wl.graphs.sections})
    forests = n_cats * (n_cats - 1) // 2 * wl.graphs.folds
    inp = str(input_dir)
    wl.ops = [
        Op("generate", "generate",
           ["generate", "--config", f"{inp}/archetypes.ini", "--seed", str(gen_seed)],
           n_graphs),
        Op("features", "features",
           ["features", "--manifest", "@generate/manifest.jsonl"], n_graphs),
        Op("similarity", "similarity",
           ["similarity", "--features", "@features/features.csv",
            "--manifest", "@generate/manifest.jsonl", "--folds", str(wl.graphs.folds),
            "--n-trees", str(wl.graphs.n_trees), "--seed", str(cv_seed)],
           forests),
        Op("represent", "represent",
           ["represent", "--features", "@features/features.csv",
            "--manifest", "@generate/manifest.jsonl",
            "--importance", "@similarity/importance.csv"],
           n_cats),
        Op("embed", "embed",
           # At the default rate of 0.025 all label vectors of these corpora
           # stay within cosine 0.99 of each other and nearest neighbours are
           # noise; 0.1 separates the planted groups on every seed tried.
           ["embed", "--corpus", f"{inp}/corpus.jsonl", "--seeds", f"{inp}/seeds.json",
            "--epochs", str(wl.labels.epochs), "--learning-rate", "0.1",
            "--top-k", "5", "--seed", str(seed)],
           updates),
        Op("prevalence", "prevalence",
           ["prevalence", "--places", f"{inp}/places.csv",
            "--regions", f"{inp}/regions.csv", "--external", f"{inp}/external.csv"],
           wl.labels.places),
    ]
    for op in wl.ops:
        op.reps = REPS[name].get(op.name, 1)
    return wl
