"""Command-line pipeline: shapes, exit codes, determinism, provenance."""

import hashlib
import json
import os
from pathlib import Path

import pytest

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
# each count mode, recorded with the shift-invert Lanczos for lambda2. The
# club graphs (150 nodes) take that iterative path, the others the dense one.
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
    "components/features.csv": "c3fde20a65634150d439f2a36170493c36298c55b11fe6d24ff03719fa7ef20c",
    "nodes/features.csv": "3d92752011c1c2a16877bcaaa077467ac3c3bf0a296e23125454b402cddd2e6b",
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
# `generate --seed 3` on SIM_PIN_CONFIG, recorded with the tree-by-tree
# forest that preceded lockstep growth. er_a and er_b are a null pair, so
# their forests grow deep trees.
SIM_PINNED_DIGESTS = {
    "sim/auc_matrix.csv": "0bf0e6d2f944aad0796fedfdd0ab8a32d38b07d72b4d978d2b302c0e78d93a34",
    "sim/importance.csv": "cfd22bfb46bb90e152f6d273e03004a2687f6401676eef1f49c4f70464890ecd",
    "rep/representatives.csv": "d2ed1643b1484e7275cf7c283fd3d28adf85aed79efb65e51ebc48eb579520e6",
    "rep/representatives/": ["cp__cp_004.edges", "er_a__er_a_009.edges", "er_b__er_b_006.edges"],
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


def test_undersized_similarity_category_is_data_error(tmp_path, capsys):
    run_pipeline(tmp_path)
    assert main(["similarity", "--features", str(tmp_path / "feat" / "features.csv"),
                 "--manifest", str(tmp_path / "gen" / "manifest.jsonl"),
                 "--out-dir", str(tmp_path / "sim2"), "--folds", "10"]) == 2
    assert "needs >= 10" in capsys.readouterr().err


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
    ("interpolation", ER_SECTION.replace("0.3", "30%"), "section [er]: '%' must be followed"),
    ("not utf-8", ER_SECTION.encode() + b"count = \xff\n", "line 5: not valid UTF-8"),
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


def test_invalid_seeds_json_names_file_line_and_column(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"categories": ["CAFE", "COFFEE"]}) + "\n")
    seeds = tmp_path / "seeds.json"
    seeds.write_text('{"restaurants": "CAFE",\n}\n')
    assert main(["embed", "--corpus", str(corpus), "--out-dir", str(tmp_path / "emb"),
                 "--dim", "4", "--epochs", "1", "--seeds", str(seeds)]) == 2
    assert "seeds.json: line 2 column 1: Expecting property name" in capsys.readouterr().err


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
