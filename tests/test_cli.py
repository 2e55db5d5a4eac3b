"""Command-line pipeline: shapes, exit codes, determinism, provenance."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import placenet.cli
import placenet.features
from placenet.cli import main
from placenet.features import read_features_csv
from placenet.graph import parse_edge_list

GEN_CONFIG = """\
[er]
kind = erdos_renyi
n = 18
p = 0.15
count = 5

[cp]
kind = core_periphery
n_core = 5
n_periphery = 9
p_cc = 0.9
p_cp = 0.3
p_pp = 0.02
count = 5
category = coreper

[scatter]
kind = dyad_triad_scatter
n_components = 6
dyad_fraction = 0.5
count = 5
"""


def run_pipeline(root, seed=11):
    (root / "gen.ini").write_text(GEN_CONFIG)
    assert main(["generate", "--config", str(root / "gen.ini"),
                 "--out-dir", str(root / "gen"), "--seed", str(seed)]) == 0
    assert main(["features", "--manifest", str(root / "gen" / "manifest.jsonl"),
                 "--out-dir", str(root / "feat")]) == 0
    assert main(["similarity", "--features", str(root / "feat" / "features.csv"),
                 "--manifest", str(root / "gen" / "manifest.jsonl"),
                 "--out-dir", str(root / "sim"),
                 "--folds", "2", "--n-trees", "8", "--seed", str(seed)]) == 0
    assert main(["represent", "--features", str(root / "feat" / "features.csv"),
                 "--manifest", str(root / "gen" / "manifest.jsonl"),
                 "--importance", str(root / "sim" / "importance.csv"),
                 "--out-dir", str(root / "rep")]) == 0


def collect_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
    return out


def test_generate_writes_manifest_and_graphs(tmp_path):
    (tmp_path / "gen.ini").write_text(GEN_CONFIG)
    assert main(["generate", "--config", str(tmp_path / "gen.ini"),
                 "--out-dir", str(tmp_path / "out"), "--seed", "3"]) == 0
    manifest = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == 15
    entry = json.loads(manifest[0])
    assert entry["id"] == "er_000"
    assert entry["category"] == "er"
    g = parse_edge_list((tmp_path / "out" / entry["path"]).read_text())
    assert g.node_count() == 18
    cp_entry = json.loads(manifest[5])
    assert cp_entry["category"] == "coreper"
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
    assert meta["command"] == "generate"
    assert meta["seed"] == 3
    assert "gen.ini" in meta["inputs"]


PIN_CONFIG = """\
[er]
kind = erdos_renyi
n = 120
p = 0.05
count = 2

[cp]
kind = core_periphery
n_core = 12
n_periphery = 100
p_cc = 0.6
p_cp = 0.08
p_pp = 0.01
count = 2

[scatter]
kind = dyad_triad_scatter
n_components = 40
dyad_fraction = 0.5
count = 2

[club]
kind = multi_core_community
n_cores = 3
core_size = 50
p_in = 0.2
p_out = 0.01
count = 2
"""

# SHA-256 of each output of `generate --seed 7` on PIN_CONFIG, recorded
# with the set-based graph core of commit 85d70f0, and of features.csv under
# each count mode, recorded with ARPACK's shift-invert Lanczos (eigsh) for
# lambda2. The club graphs (150 nodes) take that iterative path, the others
# the dense one. Moving from the hand-written Lanczos loop to eigsh changed
# only their algebraic_connectivity cells, by at most 7.2e-16 relative.
# Re-recorded with degree variance and assortativity from exact integer
# sums: only those two columns moved.
PINNED_DIGESTS = {
    "graphs/club_000.edges": "bd57e732f5f8a329d032ed5e921f502a3e8253ca70c357483c224916079db986",
    "graphs/club_001.edges": "fd92c4da70ff55ae090f779fb6ef698f5c275542c389ff567137b23884933c15",
    "graphs/cp_000.edges": "ab9c70b89e74bfada1ccf7d28752eb9d9e425f4504c18c0f5f9661d1bc270b3f",
    "graphs/cp_001.edges": "9af8929a0d08e5b7863c66ed41be98f0ac226e3f18d7a43fe72d15e6687a27a1",
    "graphs/er_000.edges": "5ac2d4c75be1d756daec48a4eac4dd4ad22e23bca59d8b97bb26ad68c7e9f202",
    "graphs/er_001.edges": "8afbff45d6b2bc9e9ffe1ca8011d453f90cc02a8d520e35b1f2dfa3857ab4430",
    "graphs/scatter_000.edges": "47f6f21a8a9b7c212f3776bbc9d1814432ad28153e7c6d674f01f748fd9f1375",
    "graphs/scatter_001.edges": "1784aa4038a7aee0b8b19fe20da45be5406a4720a4ffae7ccd890d6390a23e54",
    "manifest.jsonl": "f60d839c8e032e2a8cfd4664da680a6e8cb52fa2a4b8a5d34f2889647bafaf09",
    "components/features.csv": "40eced2dbae6a478a225135f779719acec9166135baee2592b1ec6cb2cfcefa3",
    "nodes/features.csv": "72b7326d0620cc17b2a8ed1f4cbf1bf5b945635863bf29583364a9fbacb68cc7",
}


def test_generate_and_features_bytes_are_pinned(tmp_path):
    (tmp_path / "pin.ini").write_text(PIN_CONFIG)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(tmp_path / "pin.ini"),
                 "--out-dir", str(gen), "--seed", "7"]) == 0
    for mode in ("components", "nodes"):
        assert main(["features", "--manifest", str(gen / "manifest.jsonl"),
                     "--out-dir", str(tmp_path / mode), "--count-mode", mode]) == 0
    digests = {
        name: hashlib.sha256((gen / name).read_bytes()).hexdigest()
        for name in PINNED_DIGESTS if not name.endswith("features.csv")
    }
    for mode in ("components", "nodes"):
        name = f"{mode}/features.csv"
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == PINNED_DIGESTS
    assert sorted(p.name for p in (gen / "graphs").iterdir()) == \
        sorted(name[len("graphs/"):] for name in PINNED_DIGESTS if name.startswith("graphs/"))


@pytest.mark.parametrize("flags", [[], ["--count-mode", "nodes", "--k-set", "1,3,5,30"]],
                         ids=["default", "nodes"])
def test_features_bytes_do_not_depend_on_the_chunk_budget(tmp_path, monkeypatch, flags):
    # PIN_CONFIG's graphs (about 2 800 edges) and two edgeless ones
    (tmp_path / "chunk.ini").write_text(PIN_CONFIG + "\n[lone]\nkind = erdos_renyi\n"
                                        "n = 4\np = 0.0\ncount = 2\n")
    gen = tmp_path / "gen"
    assert main(["generate", "--config", str(tmp_path / "chunk.ini"),
                 "--out-dir", str(gen), "--seed", "7"]) == 0
    chunks = []

    def decompose(graphs):
        chunks.append([g.edge_count() for g in graphs])
        return placenet.features.decompose(graphs)

    monkeypatch.setattr(placenet.cli, "decompose", decompose)
    outputs = []
    for budget, sizes in ((1, [1] * 8 + [2]), (1000, [3, 3, 1, 3]),
                          (placenet.cli._CHUNK_EDGES, [10])):
        monkeypatch.setattr(placenet.cli, "_CHUNK_EDGES", budget)
        chunks.clear()
        out = tmp_path / f"out{budget}"
        assert main(["features", "--manifest", str(gen / "manifest.jsonl"),
                     "--out-dir", str(out), *flags]) == 0
        outputs.append((out / "features.csv").read_bytes())
        assert all(sum(c) <= budget or len(c) == 1 for c in chunks), chunks
        assert [len(c) for c in chunks] == sizes, chunks
    assert outputs[0] == outputs[1] == outputs[2]


SIM_PIN_CONFIG = """\
[er_a]
kind = erdos_renyi
n = 30
p = 0.12
count = 12

[er_b]
kind = erdos_renyi
n = 30
p = 0.12
count = 12

[cp]
kind = core_periphery
n_core = 6
n_periphery = 24
p_cc = 0.8
p_cp = 0.15
p_pp = 0.03
count = 12
"""

# SHA-256 of the similarity and represent outputs on the 36 graphs of
# `generate --seed 3` on SIM_PIN_CONFIG, recorded with one stream per
# forest: every tree's bootstrap in its first draw, then feature-subset keys
# in chunks of (trees, _KEY_ROWS = 16 nodes, features). er_a and er_b are a
# null pair, so their forests grow deep trees. representatives.csv was
# re-recorded with degree variance and assortativity from exact integer
# sums: the distances moved, the chosen graphs did not.
SIM_PINNED_DIGESTS = {
    "sim/auc_matrix.csv": "c58f3408158e9babc7a26bea0a10014a0fe10b01f8210d027ed2aeae63a99efc",
    "sim/importance.csv": "5fb4a427e8a5650dc4293200009156d66f3b8d80767768018e0cb68390afdb77",
    "rep/representatives.csv": "d96dba4bfb9791b1258e6eb7d981ca344774104393391e0f6b47d5d3acfc5f41",
    "rep/representatives/": ["cp__cp_007.edges", "er_a__er_a_009.edges", "er_b__er_b_001.edges"],
}


def test_similarity_and_represent_bytes_are_pinned(tmp_path):
    (tmp_path / "pin.ini").write_text(SIM_PIN_CONFIG)
    gen, feat = tmp_path / "gen", tmp_path / "feat"
    assert main(["generate", "--config", str(tmp_path / "pin.ini"),
                 "--out-dir", str(gen), "--seed", "3"]) == 0
    assert main(["features", "--manifest", str(gen / "manifest.jsonl"),
                 "--out-dir", str(feat)]) == 0
    assert main(["similarity", "--features", str(feat / "features.csv"),
                 "--manifest", str(gen / "manifest.jsonl"), "--out-dir", str(tmp_path / "sim"),
                 "--folds", "3", "--n-trees", "20", "--seed", "5"]) == 0
    assert main(["represent", "--features", str(feat / "features.csv"),
                 "--manifest", str(gen / "manifest.jsonl"),
                 "--importance", str(tmp_path / "sim" / "importance.csv"),
                 "--out-dir", str(tmp_path / "rep")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("sim/auc_matrix.csv", "sim/importance.csv", "rep/representatives.csv")
    }
    digests["rep/representatives/"] = sorted(
        p.name for p in (tmp_path / "rep" / "representatives").iterdir()
    )
    assert digests == SIM_PINNED_DIGESTS


def test_features_csv_shape(tmp_path):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    for i, text in enumerate(["a b\nb c\n", "x y\n", "p q\nq r\nr p\n"]):
        (graphs / f"g{i}.edges").write_text(text)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(
        json.dumps({"id": f"g{i}", "path": f"graphs/g{i}.edges", "category": "c"})
        for i in range(3)
    ) + "\n")
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "features.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 graphs
    assert all(len(line.split(",")) == 19 for line in lines)


def test_similarity_twelve_categories(tmp_path):
    cfg = "\n".join(
        f"[cat{i:02d}]\nkind = erdos_renyi\nn = {8 + i}\np = 0.3\ncount = 2\n"
        for i in range(12)
    )
    (tmp_path / "gen.ini").write_text(cfg)
    assert main(["generate", "--config", str(tmp_path / "gen.ini"),
                 "--out-dir", str(tmp_path / "gen"), "--seed", "1"]) == 0
    assert main(["features", "--manifest", str(tmp_path / "gen" / "manifest.jsonl"),
                 "--out-dir", str(tmp_path / "feat")]) == 0
    assert main(["similarity", "--features", str(tmp_path / "feat" / "features.csv"),
                 "--manifest", str(tmp_path / "gen" / "manifest.jsonl"),
                 "--out-dir", str(tmp_path / "sim"),
                 "--folds", "2", "--n-trees", "1", "--seed", "1"]) == 0
    lines = (tmp_path / "sim" / "auc_matrix.csv").read_text().splitlines()
    assert len(lines) == 13
    assert len(lines[0].split(",")) == 13


def test_pipeline_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    run_pipeline(a)
    run_pipeline(b)
    assert collect_bytes(a) == collect_bytes(b)


def test_pipeline_seed_changes_outputs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    run_pipeline(a, seed=11)
    run_pipeline(b, seed=12)
    assert (a / "gen" / "graphs" / "er_000.edges").read_bytes() != \
        (b / "gen" / "graphs" / "er_000.edges").read_bytes()


def test_represent_copies_parse_identically(tmp_path):
    run_pipeline(tmp_path)
    rows = (tmp_path / "rep" / "representatives.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        category, rep_id, _ = row.split(",")
        copies = list((tmp_path / "rep" / "representatives").glob(f"*__{rep_id}.edges"))
        assert len(copies) == 1
        source = tmp_path / "gen" / "graphs" / f"{rep_id}.edges"
        assert parse_edge_list(copies[0].read_text()) == \
            parse_edge_list(source.read_text())


def test_embed_command(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(
        [json.dumps({"categories": ["CAFE", "COFFEE"]})] * 8
        + [json.dumps({"categories": ["CHURCH", "TEMPLE"]})] * 8
        + [json.dumps({"categories": ["CAFE", "FOOD"]})] * 4
    ) + "\n")
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"restaurants": "CAFE"}))
    allow = tmp_path / "allow.txt"
    allow.write_text("# curated\nCOFFEE\nFOOD\n")
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(tmp_path / "emb"),
                 "--dim", "8", "--epochs", "4", "--seeds", str(seeds),
                 "--allowlist", str(allow), "--top-k", "10", "--seed", "2"]) == 0
    neighbors = (tmp_path / "emb" / "neighbors.csv").read_text().splitlines()
    labels = {line.split(",")[3] for line in neighbors[1:]}
    assert labels <= {"COFFEE", "FOOD"}  # CHURCH/TEMPLE filtered by allowlist
    losses = (tmp_path / "emb" / "losses.csv").read_text().splitlines()
    assert len(losses) == 5
    model_lines = (tmp_path / "emb" / "model.tsv").read_text().splitlines()
    assert all(len(line.split("\t")) == 9 for line in model_lines)


EMBED_PIN_CORPUS = (
    [["CAFE", "COFFEE"]] * 6 + [["BAKERY", "CAFE", "COFFEE"]] * 3
    + [["CHURCH", "TEMPLE"]] * 5 + [["PARK"]] * 2 + [["CAFE", "FOOD"]] * 4
    + [["GALLERY", "MUSEUM", "PARK"]] * 2 + [["CAFE", "RARE"]]
)

# SHA-256 of the embed outputs on EMBED_PIN_CORPUS, recorded with the
# block-synchronous trainer. The bytes moved from those of the per-pair
# trainer because a block's pairs now score against the weights at the
# block's start and their gradients are summed. EMBED_PIN_CORPUS has 62
# pairs, so each epoch is one block. RARE occurs once, so --min-count 2
# drops it.
EMBED_PINNED_DIGESTS = {
    (): {
        "model.tsv": "62a5b5ef18b9236b04b211602d0356cf1e8cdc1f35b6502b2fd09c1ab985a657",
        "losses.csv": "deaf371a75e9c3b79fe92490e3809568e0980ffdc467e67ecfeb18789d615c12",
        "neighbors.csv": "ed663941a6831288cfaab82a18314f43d6ba91b5117e22d089fdfe4032266dff",
    },
    ("--negatives", "0", "--min-count", "2"): {
        "model.tsv": "d99b7ca441f4de0082f14556c2816221f92f0f28941d4be206e8c04b4a388ed6",
        "losses.csv": "f5b65ca72c19518f1414bedef8fee0f062ab4e23003b2dd7a0c16c591a944d34",
        "neighbors.csv": "ed43ad9115ddce7e9b6201240cf5619b146f247b0a0c5a35b511cba50500b9b0",
    },
}


@pytest.mark.parametrize("flags", list(EMBED_PINNED_DIGESTS), ids=["default", "no-negatives"])
def test_embed_bytes_are_pinned(tmp_path, flags):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"categories": r}) + "\n" for r in EMBED_PIN_CORPUS))
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"cafes": "CAFE", "worship": "CHURCH"}))
    out = tmp_path / "emb"
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(out),
                 "--seeds", str(seeds), *flags]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("model.tsv", "losses.csv", "neighbors.csv")
    }
    assert digests == EMBED_PINNED_DIGESTS[flags]


def test_embed_bytes_do_not_depend_on_blas_threads(tmp_path):
    # A block's gradient sums run through np.einsum, which never calls
    # BLAS. The second run leaves the thread count to OpenBLAS, which uses
    # every CPU. With 200 labels a block touches 31-44 input rows and
    # 153-174 output rows, where a GEMM in place of einsum gave other
    # bytes under 1 and 2 threads; 600 records make 38 blocks per epoch.
    rng = random.Random(5)
    labels = [f"L{i:03d}" for i in range(200)]
    (tmp_path / "corpus.jsonl").write_text("".join(
        json.dumps({"categories": rng.sample(labels, rng.choice((2, 3)))}) + "\n"
        for _ in range(600)
    ))
    (tmp_path / "seeds.json").write_text(json.dumps({"t": "L000", "u": "L117"}))
    src = os.path.dirname(os.path.dirname(placenet.features.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for dim in ("64", "300"):
        outputs = []
        for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
            out = tmp_path / f"out{dim}_{len(outputs)}"
            subprocess.run([sys.executable, "-m", "placenet.cli", "embed",
                            "--corpus", str(tmp_path / "corpus.jsonl"),
                            "--seeds", str(tmp_path / "seeds.json"), "--dim", dim,
                            "--epochs", "4", "--out-dir", str(out)],
                           check=True, env={**env, **threads})
            outputs.append([(out / name).read_bytes()
                            for name in ("model.tsv", "losses.csv", "neighbors.csv")])
        assert outputs[0] == outputs[1], f"--dim {dim}"


def test_prevalence_command(tmp_path):
    (tmp_path / "places.csv").write_text(
        "page_id,region_id,categories\n"
        "p1,r1,cafe;bar\np2,r1,cafe\np3,r2,cafe\np4,r2,bar\np5,r3,cafe;bar\n"
    )
    (tmp_path / "regions.csv").write_text(
        "region_id,population,rucc,income,education,foreign_born_share\n"
        "r1,10000,1,60000,0.3,0.2\n"
        "r2,2000,5,45000,0.2,0.05\n"
        "r3,500,9,35000,0.1,0.01\n"
    )
    (tmp_path / "external.csv").write_text(
        "region_id,category,count\n"
        "r1,cafe,30\nr2,cafe,4\nr3,cafe,1\nr1,bar,12\nr2,bar,6\nr3,bar,2\n"
    )
    assert main(["prevalence", "--places", str(tmp_path / "places.csv"),
                 "--regions", str(tmp_path / "regions.csv"),
                 "--external", str(tmp_path / "external.csv"),
                 "--out-dir", str(tmp_path / "prev")]) == 0
    prevalence = (tmp_path / "prev" / "prevalence.csv").read_text().splitlines()
    assert len(prevalence) == 1 + 3 * 2  # 3 regions x 2 categories
    medians = (tmp_path / "prev" / "bin_medians.csv").read_text().splitlines()
    assert medians[0] == "bin_key,bin,category,median_per_1000"
    assert len(medians) > 1
    correlation = (tmp_path / "prev" / "correlation.csv").read_text().splitlines()
    assert correlation[0] == "category,r,n_pairs,n_dropped"
    assert len(correlation) == 3


PREVALENCE_PIN_CATEGORIES = ["arts", "bar", "cafe", "church", "gym", "library", "park",
                             "school", "zoo"]


def write_prevalence_pin_inputs(root):
    """Pages with 1, 2, 3, 4, 5 and 7 categories, so the common denominator
    lcm(1, 2, 3, 4, 5, 7) = 420 exceeds every category count; regions r10
    and r11 have no pages; r03 has a population near 10**9."""
    cats = PREVALENCE_PIN_CATEGORIES
    (root / "places.csv").write_text("page_id,region_id,categories\n" + "".join(
        f"p{i:03d},r{i * 7 % 10:02d},"
        + ";".join(cats[(i + 2 * j) % 9] for j in range((1, 2, 3, 4, 5, 7)[i % 6])) + "\n"
        for i in range(150)
    ))
    (root / "regions.csv").write_text(
        "region_id,population,rucc,income,education,foreign_born_share\n" + "".join(
            f"r{r:02d},{987_654_321 if r == 3 else 1_000 + 7_919 * r * r},{r % 9 + 1},"
            f"{30_000 + 4_001 * (r * 5 % 12)},{0.1 + 0.05 * (r * 7 % 12):.2f},"
            f"{0.01 * (r * 11 % 12):.2f}\n"
            for r in range(12)
        ))
    (root / "external.csv").write_text("region_id,category,count\n" + "".join(
        f"r{r:02d},{cat},{(r * 13 + c * 5) % 17}\n"
        for r in range(12) for c, cat in enumerate(cats[:5])
    ))


# SHA-256 of the prevalence outputs on the inputs above, recorded before
# fractional_counts and per_capita moved from per-record Fraction sums to
# one Fraction per cell and integer true division.
PREVALENCE_PINNED_DIGESTS = {
    (): {
        "bin_medians.csv": "bf8e6512872c6c2bf1ab82bff1723f5a884a93967df11f90fcacc53d3fa4cef1",
        "prevalence.csv": "e45d125251c2cc8a39261bcad7dba935501d3b8532f853d6d20106d24003b4fb",
        "run_metadata.json": "e732a9cbda06030490e0fd240cae1e9902b155caacd7e9015f63b2b0f0d5bcb2",
    },
    ("--external", "external.csv"): {
        "bin_medians.csv": "bf8e6512872c6c2bf1ab82bff1723f5a884a93967df11f90fcacc53d3fa4cef1",
        "correlation.csv": "291144fd31f22b0a11a7ddccba9ad0b3e963674ad32024617287a3b15aa7fa65",
        "prevalence.csv": "e45d125251c2cc8a39261bcad7dba935501d3b8532f853d6d20106d24003b4fb",
        "run_metadata.json": "e515fb36853fae0446108f51f9e6384bdef01e120a57b07e4105fd842f0aa81d",
    },
}


@pytest.mark.parametrize("flags", list(PREVALENCE_PINNED_DIGESTS),
                         ids=["no-external", "external"])
def test_prevalence_bytes_are_pinned(tmp_path, flags):
    write_prevalence_pin_inputs(tmp_path)
    out = tmp_path / "prev"
    assert main(["prevalence", "--places", str(tmp_path / "places.csv"),
                 "--regions", str(tmp_path / "regions.csv"),
                 *[str(tmp_path / f) if f.endswith(".csv") else f for f in flags],
                 "--out-dir", str(out)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    assert digests == PREVALENCE_PINNED_DIGESTS[flags]


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error():
    assert main(["features"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["features", "--manifest", str(tmp_path / "nope.jsonl"),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "data error" in capsys.readouterr().err


def test_malformed_manifest_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"id": "a"}\n')
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_malformed_edge_file_names_file_and_line(tmp_path, capsys):
    (tmp_path / "bad.edges").write_text("a b\noops\n")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(
        {"id": "g", "path": "bad.edges", "category": "c"}) + "\n")
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad.edges" in err and "line 2" in err


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"), ("directory", "Is a directory"),
])
def test_unreadable_edge_list_names_manifest_line_and_path(tmp_path, capsys, kind, reason):
    (tmp_path / "p.edges").write_text("a b\n")
    if kind == "directory":
        (tmp_path / "q.edges").mkdir()
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(  # line 2 is blank
        json.dumps({"id": gid, "path": f"{gid}.edges", "category": "c"}) + "\n\n"
        for gid in ("p", "q")))
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {manifest}: line 3: "), err
    assert f"{reason}: '{tmp_path / 'q.edges'}'" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_edge_file_id_starting_with_hash_names_file_and_line(tmp_path, capsys):
    (tmp_path / "bad.edges").write_text("a b\n# a comment\nb #c\n")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(
        {"id": "g", "path": "bad.edges", "category": "c"}) + "\n")
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad.edges" in err and "line 3" in err and "'#c'" in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_stray_key_error_is_not_a_data_error(tmp_path, monkeypatch):
    # a lookup bug propagates instead of reading as bad input (exit 2)
    def lookup_bug(*args, **kwargs):
        raise KeyError("stray")

    monkeypatch.setattr(placenet.cli, "compute_features", lookup_bug)
    manifest = write_path_manifest(tmp_path, 3)
    with pytest.raises(KeyError, match="stray"):
        main(["features", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])


def write_path_manifest(root, n):
    (root / "p.edges").write_text(
        "\n".join(f"n{i:03d} n{i + 1:03d}" for i in range(n - 1)) + "\n"
    )
    manifest = root / "manifest.jsonl"
    manifest.write_text(json.dumps(
        {"id": "p", "path": "p.edges", "category": "c"}) + "\n")
    return manifest


def test_eigensolver_budget_exhaustion_is_numerical_error(tmp_path, capsys):
    # above the 128-node dense cap, where the iteration budget binds
    manifest = write_path_manifest(tmp_path, 200)
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out"),
                 "--lambda2-max-iter", "1"]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_numerical_error_names_the_edge_list(tmp_path, capsys):
    manifest = write_path_manifest(tmp_path, 200)
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out"), "--lambda2-max-iter", "1"]) == 3
    err = capsys.readouterr().err
    assert f"numerical error: {tmp_path / 'p.edges'}: no convergence after 1 " in err, err


def test_non_finite_solve_is_numerical_error_naming_the_edge_list(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(placenet.features, "splu",
                        lambda *args, **kwargs: SimpleNamespace(solve=lambda x: x * math.nan))
    manifest = write_path_manifest(tmp_path, 200)
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"numerical error: {tmp_path / 'p.edges'}: no convergence after 1 " in err, err


@pytest.mark.parametrize("command, entry", [
    ("features", {"id": ["x"], "path": "p.edges", "category": "c"}),
    ("features", {"id": "q", "path": 5, "category": "c"}),
    ("features", {"id": "", "path": "p.edges", "category": "c"}),
    ("similarity", {"id": "q", "path": "p.edges", "category": ["c"]}),
], ids=["list-id", "int-path", "empty-id", "list-category"])
def test_manifest_fields_must_be_non_empty_strings(tmp_path, capsys, command, entry):
    manifest = write_path_manifest(tmp_path, 20)
    with manifest.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    features = tmp_path / "features.csv"
    features.write_text("graph_id,f0\np,1.0\n")
    inputs = {"features": [], "similarity": ["--features", str(features)]}
    assert main([command, *inputs[command], "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{manifest}: line 2: entry needs id, path and category as non-empty strings" in err


def test_repeated_graph_id_in_features_csv_names_file_and_line(tmp_path, capsys):
    manifest = write_path_manifest(tmp_path, 20)
    features = tmp_path / "features.csv"
    features.write_text("graph_id,f0\np,1.0\np,2.0\n")
    assert main(["similarity", "--features", str(features), "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert f"data error: {features}: line 3: duplicate graph id 'p'" in capsys.readouterr().err


def test_repeated_header_column_in_features_csv_names_file_and_line(tmp_path, capsys):
    # two "a" columns would make two importance rows of one rank
    manifest = write_path_manifest(tmp_path, 20)
    features = tmp_path / "features.csv"
    features.write_text("graph_id,a,a\np,1.0,2.0\n")
    assert main(["similarity", "--features", str(features), "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert f"data error: {features}: line 1: header names column 'a' twice" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--lambda2-tol", "nan"), ("--lambda2-tol", "inf"), ("--lambda2-tol", "0"),
    ("--lambda2-tol", "-1e-8"), ("--lambda2-tol", "x"),
    ("--lambda2-max-iter", "0"), ("--lambda2-max-iter", "-1"), ("--lambda2-max-iter", "2.5"),
])
def test_bad_lambda2_budget_is_usage_error(tmp_path, capsys, flag, value):
    manifest = write_path_manifest(tmp_path, 200)
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out"), flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("embed", "--dim", "0"), ("embed", "--dim", "-3"), ("embed", "--epochs", "0"),
    ("embed", "--epochs", "-1"), ("embed", "--learning-rate", "-0.1"),
    ("embed", "--learning-rate", "nan"), ("embed", "--learning-rate", "0"),
    ("embed", "--negatives", "-1"), ("embed", "--min-count", "-1"), ("embed", "--top-k", "-1"),
    ("similarity", "--max-depth", "-1"), ("similarity", "--features-per-split", "-1"),
    ("similarity", "--n-trees", "0"), ("similarity", "--min-leaf", "0"),
    ("similarity", "--folds", "1"),
    ("features", "--path-sample-sources", "-5"),
])
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"categories": ["CAFE", "COFFEE"]}) + "\n")
    manifest = write_path_manifest(tmp_path, 20)
    inputs = {
        "embed": ["--corpus", str(corpus), "--dim", "4", "--epochs", "1"],
        "features": ["--manifest", str(manifest)],
        # not read: the flags are checked first
        "similarity": ["--features", str(tmp_path / "features.csv"),
                       "--manifest", str(manifest)],
    }
    assert main([command, *inputs[command], "--out-dir", str(tmp_path / "out"),
                 flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_is_a_valid_count_flag(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"categories": ["CAFE", "COFFEE"]}) + "\n")
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(tmp_path / "emb"),
                 "--dim", "4", "--epochs", "1", "--negatives", "0", "--min-count", "0",
                 "--top-k", "0"]) == 0
    assert read_meta(tmp_path / "emb")["options"]["negatives"] == 0


def test_represent_tie_names_smallest_id_and_copies_its_graph(tmp_path):
    # g2 and g1 have identical rows, g2 listed first; g3 is the outlier
    for gid, edges in [("g1", "a b\n"), ("g2", "c d\n"), ("g3", "e f\n")]:
        (tmp_path / f"{gid}.edges").write_text(edges)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"id": gid, "path": f"{gid}.edges", "category": "c"}) + "\n"
        for gid in ("g2", "g1", "g3")))
    features = tmp_path / "features.csv"
    features.write_text("graph_id,f0,f1\ng2,1.0,2.0\ng1,1.0,2.0\ng3,5.0,6.0\n")
    importance = tmp_path / "importance.csv"
    importance.write_text("feature,importance,rank\nf0,0.5,1\nf1,0.5,2\n")
    assert main(["represent", "--features", str(features), "--manifest", str(manifest),
                 "--importance", str(importance), "--out-dir", str(tmp_path / "rep")]) == 0
    rows = (tmp_path / "rep" / "representatives.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["c", "g1"]]
    copy = tmp_path / "rep" / "representatives" / "c__g1.edges"
    assert copy.read_bytes() == (tmp_path / "g1.edges").read_bytes()
    assert sorted(p.name for p in copy.parent.iterdir()) == ["c__g1.edges"]


@pytest.mark.parametrize("picks, rel", [
    ([("a", "b__c"), ("a__b", "c")], "a__b__c.edges"),
    ([("x y", "g+1"), ("x_y", "g=1")], "x_y__g_1.edges"),
], ids=["separator", "replaced characters"])
def test_represent_copies_with_one_path_are_data_error(tmp_path, capsys, picks, rel):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"id": gid, "path": "g.edges", "category": cat}) + "\n"
        for cat, gid in picks))
    (tmp_path / "g.edges").write_text("a b\n")
    features = tmp_path / "features.csv"
    features.write_text("graph_id,f0\n" + "".join(f"{gid},1.0\n" for _, gid in picks))
    importance = tmp_path / "importance.csv"
    importance.write_text("feature,importance,rank\nf0,1.0,1\n")
    out = tmp_path / "rep"
    assert main(["represent", "--features", str(features), "--manifest", str(manifest),
                 "--importance", str(importance), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    (first, _), (second, _) = picks
    assert f"categories {first!r} and {second!r}" in err, err
    assert f"representatives/{rel}" in err, err
    assert list(out.iterdir()) == []


def test_undersized_similarity_category_is_data_error(tmp_path, capsys):
    run_pipeline(tmp_path)
    assert main(["similarity", "--features", str(tmp_path / "feat" / "features.csv"),
                 "--manifest", str(tmp_path / "gen" / "manifest.jsonl"),
                 "--out-dir", str(tmp_path / "sim2"), "--folds", "10"]) == 2
    assert "needs >= 10" in capsys.readouterr().err


def relabelled_manifest(root, categories):
    """The manifest of ``run_pipeline(root)`` with the i-th graph put in
    ``categories[i]``."""
    entries = [json.loads(line) for line in
               (root / "gen" / "manifest.jsonl").read_text().splitlines()]
    path = root / "gen" / "relabelled.jsonl"
    path.write_text("".join(json.dumps({**entry, "category": category}) + "\n"
                            for entry, category in zip(entries, categories)))
    return path


@pytest.mark.parametrize("categories, folds, message", [
    (["one"] * 15, "2", "auc_matrix requires at least 2 categories"),
    (["rest"] * 2 + ["other"] * 13, "3", "category 'rest' has 2 graphs; needs >= 3"),
], ids=["one category", "category below fold count"])
def test_refused_similarity_table_names_features_file(tmp_path, capsys, categories, folds,
                                                      message):
    run_pipeline(tmp_path)
    features = tmp_path / "feat" / "features.csv"
    out = tmp_path / "sim2"
    assert main(["similarity", "--features", str(features),
                 "--manifest", str(relabelled_manifest(tmp_path, categories)),
                 "--out-dir", str(out), "--folds", folds, "--n-trees", "2"]) == 2
    assert f"data error: {features}: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_similarity_on_non_finite_features_is_data_error(tmp_path, capsys):
    run_pipeline(tmp_path)
    features = tmp_path / "feat" / "features.csv"
    lines = features.read_text().splitlines()
    cells = lines[4].split(",")
    cells[6] = "nan"  # avg_clustering of one graph
    lines[4] = ",".join(cells)
    bad = tmp_path / "nan_features.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["similarity", "--features", str(bad),
                 "--manifest", str(tmp_path / "gen" / "manifest.jsonl"),
                 "--out-dir", str(tmp_path / "sim_nan"),
                 "--folds", "2", "--n-trees", "4"]) == 2
    err = capsys.readouterr().err
    assert "nan_features.csv" in err and "line 5" in err
    assert not (tmp_path / "sim_nan" / "auc_matrix.csv").exists()


@pytest.mark.parametrize("k_set", ["0", "2,x", ","])
def test_malformed_k_set_is_usage_error(tmp_path, capsys, k_set):
    assert main(["features", "--manifest", str(tmp_path / "m.jsonl"),
                 "--out-dir", str(tmp_path / "out"), "--k-set", k_set]) == 1
    assert "--k-set" in capsys.readouterr().err


ER_SECTION = "[er]\nkind = erdos_renyi\nn = 6\np = 0.3\n"
BAD_CONFIGS = [
    ("no header", "garbage line\n" + ER_SECTION, "line 1: expected a [section] header"),
    ("bad line", ER_SECTION + "garbage\n", "line 5: expected 'key = value'"),
    ("repeated section", ER_SECTION + ER_SECTION, "line 5: section [er] repeats"),
    ("repeated option", ER_SECTION + "n = 7\n", "line 5: option 'n' repeats in section [er]"),
    ("count", ER_SECTION + "count = two\n",
     "section [er]: count must be an integer, got 'two'"),
    ("seed", ER_SECTION + "seed = 1.5\n", "section [er]: seed must be an integer, got '1.5'"),
    ("interpolation", ER_SECTION.replace("0.3", "30%"),
     "section [er]: archetype 'erdos_renyi': parameter 'p' must be float"),
    ("not utf-8", ER_SECTION.encode() + b"count = \xff\n", "line 5: not valid UTF-8"),
    # a bad second section: the first one's graphs are not written either
    ("unknown kind", ER_SECTION + "[b]\nkind = nope\n",
     "section [b]: unknown archetype kind 'nope'"),
    ("probability", ER_SECTION + "[b]\nkind = erdos_renyi\nn = 6\np = 1.5\n",
     "section [b]: p must be a probability in [0, 1], got 1.5"),
    ("slash", ER_SECTION + ER_SECTION.replace("[er]", "[../../escaped]"),
     "section [../../escaped]: a section name must not hold '/', '\\' or NUL"),
    ("backslash", ER_SECTION + ER_SECTION.replace("[er]", "[..\\escaped]"),
     "section [..\\escaped]: a section name must not hold '/', '\\' or NUL"),
    ("empty category", ER_SECTION + ER_SECTION.replace("[er]", "[b]") + "category =\n",
     "section [b]: category must not be empty"),
    ("empty file", "", "no sections"),
    ("only DEFAULT", ER_SECTION.replace("[er]", "[DEFAULT]") + "count = 2\n", "no sections"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in BAD_CONFIGS],
                         ids=[case[0] for case in BAD_CONFIGS])
def test_bad_config_names_file_and_place(tmp_path, capsys, text, message):
    config = tmp_path / "gen.ini"
    if isinstance(text, bytes):
        config.write_bytes(text)
    else:
        config.write_text(text)
    assert main(["generate", "--config", str(config),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"gen.ini: {message}" in err, err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.edges"))
    assert not list(tmp_path.rglob("manifest.jsonl"))


def test_config_values_are_literal(tmp_path):
    config = tmp_path / "gen.ini"
    config.write_text(ER_SECTION + "category = 100% local\n")
    assert main(["generate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
    entry = json.loads((tmp_path / "out" / "manifest.jsonl").read_text())
    assert entry["category"] == "100% local"


def test_nul_in_section_name_stops_generate_before_any_write(tmp_path, capsys):
    config = tmp_path / "gen.ini"
    config.write_text(ER_SECTION.replace("[er]", "[a]") + ER_SECTION.replace("[er]", "[b\0c]"))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"data error: {config}: section [b\0c]: a section name must not hold" in err, err
    assert not (out / "graphs").exists()
    assert not (out / "manifest.jsonl").exists()


def test_invalid_seeds_json_names_file_line_and_column(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"categories": ["CAFE", "COFFEE"]}) + "\n")
    seeds = tmp_path / "seeds.json"
    seeds.write_text('{"restaurants": "CAFE",\n}\n')
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(tmp_path / "emb"),
                 "--dim", "4", "--epochs", "1", "--seeds", str(seeds)]) == 2
    assert "seeds.json: line 2 column 1: Expecting property name" in capsys.readouterr().err


def test_bad_seeds_file_stops_embed_before_any_output(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"categories": ["CAFE", "COFFEE"]}) + "\n")
    seeds = tmp_path / "seeds.json"
    seeds.write_text('{"restaurants": "CA')  # truncated
    out = tmp_path / "emb"
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(out),
                 "--dim", "4", "--epochs", "1", "--seeds", str(seeds)]) == 2
    assert "seeds.json: line 1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag, text, message", [
    ("--seeds", b'{"bars": "PUB", "cafes": "CAFE"}',
     "seeds.json: seed label 'PUB' for type 'bars' is not in the vocabulary"),
    ("--allowlist", None, "No such file or directory"),  # read even without --seeds
    ("--allowlist", b"COFFEE\n\xff\n", "allow.txt: line 2: not valid UTF-8"),
], ids=["unknown seed label", "missing allowlist", "allowlist not utf-8"])
def test_bad_embed_input_stops_before_any_output(tmp_path, capsys, flag, text, message):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"categories": ["CAFE", "COFFEE"]}) + "\n")
    path = tmp_path / ("seeds.json" if flag == "--seeds" else "allow.txt")
    if text is not None:
        path.write_bytes(text)
    out = tmp_path / "emb"
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(out),
                 "--dim", "4", "--epochs", "1", flag, str(path)]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_bad_external_table_stops_prevalence_before_any_output(tmp_path, capsys):
    assert run_in(tmp_path, PREVALENCE,
                  **{"external.csv": "region_id,category,count\nr1,cafe,nan\n"}) == 2
    assert "external.csv: line 2:" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_uncorrelatable_external_category_stops_prevalence_before_any_output(tmp_path,
                                                                            capsys):
    # cafe has one region with positive counts on both sides: no correlation
    assert run_in(tmp_path, PREVALENCE,
                  **{"external.csv": "region_id,category,count\nr1,cafe,3\n"}) == 2
    err = capsys.readouterr().err
    assert (f"data error: {tmp_path / 'external.csv'}: category 'cafe': "
            "log_pearson needs >= 2 positive pairs, got 1") in err, err
    assert list((tmp_path / "out").iterdir()) == []


def test_empty_corpus_names_corpus_file(tmp_path, capsys):
    assert run_in(tmp_path, COMMAND_OF["corpus.jsonl"], **{"corpus.jsonl": ""}) == 2
    err = capsys.readouterr().err
    assert f"data error: {tmp_path / 'corpus.jsonl'}: corpus is empty" in err, err
    assert list((tmp_path / "out").iterdir()) == []


def test_place_in_unlisted_region_names_places_file_page_and_region(tmp_path, capsys):
    places = "page_id,region_id,categories\np1,r1,cafe\np2,R9,bar\np3,R8,cafe\np4,R9,bar\n"
    assert run_in(tmp_path, PREVALENCE, **{"places.csv": places}) == 2
    err = capsys.readouterr().err
    assert (f"data error: {tmp_path / 'places.csv'}: line 3: page 'p2' has region 'R9', "
            f"which {tmp_path / 'regions.csv'} does not list") in err, err
    assert list((tmp_path / "out").iterdir()) == []


def test_external_count_in_unlisted_region_stops_prevalence_before_any_output(tmp_path,
                                                                              capsys):
    external = "region_id,category,count\nr1,cafe,3\nr2,cafe,5\nZZ,cafe,100\n"
    assert run_in(tmp_path, PREVALENCE, **{"external.csv": external}) == 2
    err = capsys.readouterr().err
    assert (f"data error: {tmp_path / 'external.csv'}: line 4: category 'cafe' has a count "
            f"for region 'ZZ', which {tmp_path / 'regions.csv'} does not list") in err, err
    assert list((tmp_path / "out").iterdir()) == []


# One bad row of each kind, on lines 3-6 of the places table in every order.
BAD_PLACE_ROWS = {
    "short": ("p1,r1", "expected 3 cells, found 2"),
    "no category": ("p2,r1, ;; ", "record 'p2' rejected: empty category set"),
    "repeated page": ("p0,r2,bar", "duplicate page_id 'p0'"),
    "unlisted region": ("p3,ZZ,bar", "page 'p3' has region 'ZZ', which"),
}


@pytest.mark.parametrize("order", list(itertools.permutations(BAD_PLACE_ROWS)), ids="-".join)
def test_first_bad_place_row_is_named_whatever_its_kind(tmp_path, capsys, order):
    rows = ["page_id,region_id,categories", "p0,r1,cafe"] + [BAD_PLACE_ROWS[k][0] for k in order]
    assert run_in(tmp_path, PREVALENCE, **{"places.csv": "\n".join(rows) + "\n"}) == 2
    err = capsys.readouterr().err
    assert f"data error: {tmp_path / 'places.csv'}: line 3: {BAD_PLACE_ROWS[order[0]][1]}" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_region_table_without_rows_stops_prevalence_before_any_output(tmp_path, capsys):
    # with no places either, the first failure used to come after
    # prevalence.csv was written
    assert run_in(tmp_path, PREVALENCE, **{
        "places.csv": "page_id,region_id,categories\n",
        "regions.csv": "region_id,population,rucc,income,education,foreign_born_share\n\n",
    }) == 2
    err = capsys.readouterr().err
    assert f"data error: {tmp_path / 'regions.csv'}: the region table has no rows" in err, err
    assert list((tmp_path / "out").iterdir()) == []


# ---------------------------------------------------------------------------
# provenance


def read_meta(out_dir):
    return json.loads((out_dir / "run_metadata.json").read_text())


def test_metadata_records_options_inputs_and_outputs(tmp_path):
    run_pipeline(tmp_path)
    meta = read_meta(tmp_path / "feat")
    assert meta["command"] == "features"
    assert meta["seed"] == 0
    assert meta["options"] == {
        "manifest": "manifest.jsonl", "k_set": [2, 4, 8, 16],
        "count_mode": "components", "lambda2_scope": "lcc",
        "lambda2_tol": 1e-8, "lambda2_max_iter": 10_000,
        "path_sample_sources": 0,
    }
    assert sorted(meta["inputs"]) == ["graphs", "manifest.jsonl"]
    assert list(meta["outputs"]) == ["features.csv"]
    meta = read_meta(tmp_path / "rep")
    assert meta["seed"] is None
    assert sorted(meta["inputs"]) == ["features.csv", "importance.csv", "manifest.jsonl"]


def test_stale_file_is_not_an_output(tmp_path):
    run_pipeline(tmp_path)
    out = tmp_path / "feat_again"
    out.mkdir()
    (out / "stale.txt").write_text("left over from another run\n")
    assert main(["features", "--manifest", str(tmp_path / "gen" / "manifest.jsonl"),
                 "--out-dir", str(out)]) == 0
    assert read_meta(out)["outputs"] == read_meta(tmp_path / "feat")["outputs"]
    assert "stale.txt" not in read_meta(out)["outputs"]


def test_represent_rerun_omits_stale_copies(tmp_path):
    run_pipeline(tmp_path)
    rep = tmp_path / "rep"
    old_copies = {p.name for p in (rep / "representatives").glob("*.edges")}
    # drop the scatter category and pick representatives again in place
    lines = (tmp_path / "feat" / "features.csv").read_text().splitlines()
    reduced = tmp_path / "reduced.csv"
    reduced.write_text("\n".join(
        line for line in lines if not line.startswith("scatter_")) + "\n")
    assert main(["represent", "--features", str(reduced),
                 "--manifest", str(tmp_path / "gen" / "manifest.jsonl"),
                 "--importance", str(tmp_path / "sim" / "importance.csv"),
                 "--out-dir", str(rep)]) == 0
    outputs = set(read_meta(rep)["outputs"])
    copies = {name for name in outputs if name.startswith("representatives/")}
    assert len(copies) == 2
    stale = {f"representatives/{name}" for name in old_copies} - copies
    assert len(stale) == 1 and next(iter(stale)).startswith("representatives/scatter__")
    assert (rep / next(iter(stale))).exists()  # still on disk, but not reported
    assert outputs == copies | {"representatives.csv"}


def test_allowlist_lines_end_only_at_newlines(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"categories": ["CAFE", label]}) + "\n"
                              for label in ["COFFEE"] * 8 + ["FOOD"] * 4))
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"restaurants": "CAFE"}))
    allow = tmp_path / "allow.txt"
    allow.write_text("COFFEE\x0cTEA\nFOOD\n")  # one label that holds a form feed
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(tmp_path / "emb"),
                 "--dim", "4", "--epochs", "2", "--seeds", str(seeds),
                 "--allowlist", str(allow), "--top-k", "10"]) == 0
    neighbors = (tmp_path / "emb" / "neighbors.csv").read_text().splitlines()
    assert {line.split(",")[3] for line in neighbors[1:]} == {"FOOD"}


def test_allowlist_without_seeds_is_digested(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"categories": ["CAFE", "COFFEE"]}) + "\n")
    allow = tmp_path / "allow.txt"
    allow.write_text("COFFEE\n")
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(tmp_path / "emb"),
                 "--dim", "4", "--epochs", "1", "--allowlist", str(allow)]) == 0
    meta = read_meta(tmp_path / "emb")
    assert meta["options"]["allowlist"] == "allow.txt"
    assert meta["options"]["seeds"] is None
    assert sorted(meta["inputs"]) == ["allow.txt", "corpus.jsonl"]
    assert sorted(meta["outputs"]) == ["losses.csv", "model.tsv"]


# ---------------------------------------------------------------------------
# input tables: every bad row exits 2 naming the file and its physical line

GOOD_INPUTS = {
    "manifest.jsonl": '{"category": "c", "id": "g1", "path": "g1.edges"}\n'
                      '{"category": "d", "id": "g2", "path": "g2.edges"}\n',
    "g1.edges": "a b\n",
    "g2.edges": "a b\nb c\n",
    "features.csv": "graph_id,x,y\ng1,1.0,2.0\ng2,3.0,4.0\n",
    "importance.csv": "feature,importance,rank\nx,0.75,1\ny,0.25,2\n",
    "corpus.jsonl": '{"categories": ["A", "B"]}\n{"categories": ["B", "C"]}\n',
    "places.csv": "page_id,region_id,categories\np1,r1,cafe\np2,r2,bar;cafe\n",
    "regions.csv": "region_id,population,rucc,income,education,foreign_born_share\n"
                   "r1,1000,1,50000,0.3,0.1\nr2,2000,5,40000,0.2,0.05\n",
    "external.csv": "region_id,category,count\nr1,cafe,3\nr2,cafe,5\n",
}

REPRESENT = ["represent", "--features", "features.csv", "--manifest", "manifest.jsonl",
             "--importance", "importance.csv"]
PREVALENCE = ["prevalence", "--places", "places.csv", "--regions", "regions.csv",
              "--external", "external.csv"]
COMMAND_OF = {
    "manifest.jsonl": ["features", "--manifest", "manifest.jsonl"],
    "corpus.jsonl": ["embed", "--corpus", "corpus.jsonl", "--dim", "2", "--epochs", "1"],
    "features.csv": REPRESENT,
    "importance.csv": REPRESENT,
    "places.csv": PREVALENCE,
    "regions.csv": PREVALENCE,
    "external.csv": PREVALENCE,
    "g1.edges": ["features", "--manifest", "manifest.jsonl"],
}

# (table, case, text, physical line of the bad row)
BAD_TABLES = [
    ("manifest.jsonl", "short", '{"category": "c", "id": "g1", "path": "g1.edges"}\n'
                                '{"id": "g2", "path": "g2.edges"}\n', 2),
    ("manifest.jsonl", "after blank", '{"category": "c", "id": "g1", "path": "g1.edges"}\n'
                                      "\n{not json\n", 3),
    ("corpus.jsonl", "short", '{"categories": ["A", "B"]}\n{"categories": []}\n', 2),
    ("corpus.jsonl", "after blank", '{"categories": ["A", "B"]}\n\n["A"]\n', 3),
    ("features.csv", "short", "graph_id,x,y\ng1,1.0,2.0\ng2,3.0\n", 3),
    ("features.csv", "nan", "graph_id,x,y\ng1,1.0,2.0\ng2,nan,4.0\n", 3),
    ("features.csv", "after blank", "graph_id,x,y\ng1,1.0,2.0\n\ng2,3.0,4.0,5.0\n", 4),
    ("importance.csv", "short", "feature,importance,rank\nx,0.75,1\ny\n", 3),
    ("importance.csv", "nan", "feature,importance,rank\nx,0.75,1\ny,nan,2\n", 3),
    ("importance.csv", "after blank", "feature,importance,rank\nx,0.75,1\n\ny,oops,2\n", 4),
    ("places.csv", "short", "page_id,region_id,categories\np1,r1,cafe\np2,r2\n", 3),
    ("places.csv", "after blank", "page_id,region_id,categories\np1,r1,cafe\n\np2,r2,;\n", 4),
    ("places.csv", "repeated page_id", "page_id,region_id,categories\np1,r1,park\np1,r1,park\n", 3),
    ("regions.csv", "short", "region_id,population,rucc,income,education,foreign_born_share\n"
                             "r1,1000,1,50000,0.3,0.1\nr2,2000,5,40000,0.2\n", 3),
    ("regions.csv", "nan", "region_id,population,rucc,income,education,foreign_born_share\n"
                           "r1,1000,1,50000,0.3,0.1\nr2,2000,5,nan,0.2,0.05\n", 3),
    ("regions.csv", "after blank",
     "region_id,population,rucc,income,education,foreign_born_share\n"
     "r1,1000,1,50000,0.3,0.1\n\nr2,2000,12,40000,0.2,0.05\n", 4),
    ("external.csv", "short", "region_id,category,count\nr1,cafe,3\nr2,cafe\n", 3),
    ("external.csv", "nan", "region_id,category,count\nr1,cafe,3\nr2,cafe,nan\n", 3),
    ("external.csv", "after blank", "region_id,category,count\nr1,cafe,3\n\nr2,cafe,x\n", 4),
    # bytes that do not decode as UTF-8
    ("g1.edges", "not utf-8", b"\xffa b\n", 1),
    ("manifest.jsonl", "not utf-8", b'{"category": "c", "id": "g1", "path": "g1.edges"}\n'
                                    b'{"category": "d", "id": "\xff", "path": "g2.edges"}\n', 2),
    ("corpus.jsonl", "not utf-8", b'{"categories": ["A", "B"]}\n\n{"categories": ["\xe9"]}\n', 3),
    ("features.csv", "not utf-8", b"graph_id,x,y\ng1,1.0,2.0\ng2,3.0,4.0\xc3\n", 3),
    ("importance.csv", "not utf-8", b"feature,importance,rank\n\xfex,0.75,1\ny,0.25,2\n", 2),
    ("places.csv", "not utf-8", b"page_id,region_id,categories\np1,r1,caf\xe9\n", 2),
    ("regions.csv", "not utf-8", b"region_id,population,rucc,income,education,"
                                 b"foreign_born_share\xff\nr1,1000,1,50000,0.3,0.1\n", 1),
    ("external.csv", "not utf-8", b"region_id,category,count\nr1,cafe,3\nr2,\x80,5\n", 3),
    # ... past the first block the decoder reads, after rows already parsed
    ("places.csv", "not utf-8 at row 3000", b"page_id,region_id,categories\n"
     + b"".join(b"p%d,r1,cafe\n" % i for i in range(3000)) + b"px,r1,caf\xe9\n", 3002),
    ("corpus.jsonl", "not utf-8 at line 3001",
     b'{"categories": ["A", "B"]}\n' * 3000 + b'{"categories": ["\xe9"]}\n', 3001),
]


def run_in(root, argv, **replace):
    for name, text in {**GOOD_INPUTS, **replace}.items():
        if isinstance(text, bytes):
            (root / name).write_bytes(text)
        else:
            (root / name).write_text(text)
    resolved = [str(root / arg) if arg in GOOD_INPUTS else arg for arg in argv]
    return main(resolved + ["--out-dir", str(root / "out")])


@pytest.mark.parametrize("table", sorted(COMMAND_OF))
def test_good_input_tables_pass(tmp_path, table):
    assert run_in(tmp_path, COMMAND_OF[table]) == 0


@pytest.mark.parametrize("table, case, text, line", BAD_TABLES,
                         ids=[f"{table}-{case}" for table, case, *_ in BAD_TABLES])
def test_bad_input_table_names_file_and_line(tmp_path, capsys, table, case, text, line):
    assert run_in(tmp_path, COMMAND_OF[table], **{table: text}) == 2
    err = capsys.readouterr().err
    assert f"{table}: line {line}:" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["similarity", "--features", "features.csv", "--manifest", "manifest.jsonl"], REPRESENT,
], ids=["similarity", "represent"])
def test_features_csv_without_feature_columns_names_file(tmp_path, capsys, argv):
    assert run_in(tmp_path, argv, **{"features.csv": "graph_id\ng1\ng2\n"}) == 2
    err = capsys.readouterr().err
    assert (f"data error: {tmp_path / 'features.csv'}: line 1: "
            "expected graph_id and feature names in the header") in err, err
    assert list((tmp_path / "out").iterdir()) == []
