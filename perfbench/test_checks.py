"""Each output check accepts the program's real outputs and rejects a
corrupted copy of them.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from placenet.cli import main as placenet_main  # noqa: E402


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One round of the labels workload (tiny graphs), run in-process."""
    base = tmp_path_factory.mktemp("round")
    wl = inputs.build("labels", 3, base / "inputs")
    round_dir = base / "round"
    for op in wl.ops:
        assert placenet_main(op.resolve(round_dir)) == 0, op.name
    return wl, round_dir


@pytest.fixture
def copy(pipeline, tmp_path):
    wl, round_dir = pipeline
    target = tmp_path / "round"
    shutil.copytree(round_dir, target)
    return wl, target


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _cell(path: Path, row: int, col: int, value) -> None:
    def edit(rows):
        rows[row][col] = value(rows[row][col])
    _edit_csv(path, edit)


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _first_graph(d: Path) -> Path:
    return d / "generate" / json.loads(
        (d / "generate" / "manifest.jsonl").read_text().splitlines()[0])["path"]


def _swap_representative(d: Path) -> None:
    manifest = (d / "generate" / "manifest.jsonl").read_text().splitlines()
    ids = [json.loads(line)["id"] for line in manifest]

    def edit(rows):
        other = next(i for i in ids if i.startswith(rows[1][0]) and i != rows[1][1])
        rows[1][1] = other
    _edit_csv(d / "represent" / "representatives.csv", edit)


def _swap_losses(d: Path) -> None:
    def edit(rows):
        rows[1][1], rows[-1][1] = rows[-1][1], rows[1][1]
    _edit_csv(d / "embed" / "losses.csv", edit)


def _move_partner(d: Path) -> None:
    """Give B00 the vector of a filler label."""
    path = d / "embed" / "model.tsv"
    lines = path.read_text().splitlines()
    vectors = {line.split("\t", 1)[0]: line.split("\t", 1)[1] for line in lines}
    lines = [f"B00\t{vectors['F00']}" if line.startswith("B00\t") else line
             for line in lines]
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "extra node": ("generate", lambda d: _first_graph(d).open("a").write("zz zz\n")),
    "dropped graph": ("generate", lambda d: (d / "generate" / "manifest.jsonl").write_text(
        "\n".join((d / "generate" / "manifest.jsonl").read_text().splitlines()[1:]) + "\n")),
    "perturbed clustering": ("features", lambda d: _cell(
        d / "features" / "features.csv", 1, 6, _scale(1 + 1e-6))),
    "perturbed lambda2": ("features", lambda d: _cell(
        d / "features" / "features.csv", 2, 9, _scale(1.001))),
    "perturbed modularity": ("features", lambda d: _cell(
        d / "features" / "features.csv", 3, 10, _scale(1 + 1e-6))),
    "kbrace count": ("features", lambda d: _cell(
        d / "features" / "features.csv", 1, 15, lambda c: str(int(c) + 1))),
    "asymmetric auc": ("similarity", lambda d: _cell(
        d / "similarity" / "auc_matrix.csv", 1, 2, lambda c: "0.9000")),
    "separable pair low": ("similarity", lambda d: [_cell(
        d / "similarity" / "auc_matrix.csv", r, c, lambda _: "0.6000")
        for r, c in ((1, 2), (2, 1))]),
    "diagonal": ("similarity", lambda d: _cell(
        d / "similarity" / "auc_matrix.csv", 1, 1, lambda _: "0.6000")),
    "importance sum": ("similarity", lambda d: _cell(
        d / "similarity" / "importance.csv", 1, 1, lambda c: repr(float(c) + 0.1))),
    "swapped representative": ("represent", _swap_representative),
    "distance": ("represent", lambda d: _cell(
        d / "represent" / "representatives.csv", 1, 2, lambda c: repr(float(c) + 0.01))),
    "stale copy": ("represent", lambda d: (
        d / "represent" / "representatives" / "gone__x.edges").write_text("a b\n")),
    "rising loss": ("embed", _swap_losses),
    "moved partner": ("embed", _move_partner),
    "neighbour cosine": ("embed", lambda d: _cell(
        d / "embed" / "neighbors.csv", 2, 4, _scale(0.9))),
    "broken mass": ("prevalence", lambda d: _cell(
        d / "prevalence" / "prevalence.csv", 1, 2, lambda c: repr(float(c) + 0.5))),
    "per_1000": ("prevalence", lambda d: _cell(
        d / "prevalence" / "prevalence.csv", 2, 3, lambda c: repr(float(c) + 0.001))),
    "decile": ("prevalence", lambda d: _cell(
        d / "prevalence" / "prevalence.csv", 3, 4, lambda _: "11")),
    "log r": ("prevalence", lambda d: _cell(
        d / "prevalence" / "correlation.csv", 1, 1, lambda _: "0.99")),
    "n_dropped": ("prevalence", lambda d: _cell(
        d / "prevalence" / "correlation.csv", 1, 3, lambda c: str(int(c) + 1))),
}


def test_real_outputs_pass(pipeline):
    wl, round_dir = pipeline
    for op in wl.ops:
        checks.check_op(op.name, round_dir / op.name, round_dir, wl)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corruption_is_caught(copy, corruption):
    wl, round_dir = copy
    op_name, corrupt = CORRUPTIONS[corruption]
    corrupt(round_dir)
    with pytest.raises(checks.CheckError):
        checks.check_op(op_name, round_dir / op_name, round_dir, wl)


def test_null_pair_that_separates_is_caught(pipeline):
    """The tiny categories separate perfectly, so declaring them a planted
    null pair must fail."""
    wl, round_dir = pipeline
    graphs = dataclasses.replace(
        wl.graphs, null_pairs=[("tiny_blocks", "tiny_scatter")], separable=False)
    with pytest.raises(checks.CheckError):
        checks.check_op("similarity", round_dir / "similarity", round_dir,
                        dataclasses.replace(wl, graphs=graphs))


def test_self_times_subtract_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {"setup_s"} | {m for rate, _, rss in run.STAGE_METRICS.values()
                         for m in (rate, rss) if m}
    layers = ({f"{name}_s" for name in run.LAYER_TIMES} | set(tracing.COUNT_NAMES)
              | {"cli.import_s", "trace.overhead_pct"})
    assert {m["name"] for m in spec["end_to_end"]} == e2e
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
