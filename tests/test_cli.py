"""Command-line pipeline: shapes, exit codes, determinism, provenance."""

import json
import os

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
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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


def test_eigensolver_budget_exhaustion_is_numerical_error(tmp_path, capsys):
    (tmp_path / "p.edges").write_text(
        "\n".join(f"n{i:02d} n{i + 1:02d}" for i in range(11)) + "\n"
    )
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(
        {"id": "p", "path": "p.edges", "category": "c"}) + "\n")
    assert main(["features", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out"),
                 "--lambda2-max-iter", "1"]) == 3
    assert "numerical error" in capsys.readouterr().err


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
