"""Stage-level benchmark of the placenet CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

The benchmark writes the workload's inputs for ``--seed`` (see
``inputs.py``), then runs whole rounds of the six-stage pipeline until
``--seconds`` of stage work have passed. Each stage invocation runs in its
own process, forked from the run's stage server, an interpreter that has
only imported ``placenet.cli`` (see ``stage.py``). It writes into a fresh,
empty output directory, and its outputs are checked against independent
computations (see ``checks.py``). Outputs stay under ``.perfbench_work/``
after the run (see the README).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
per stage the work done over its median repetition time, the median peak
RSS, and ``setup_s``, the median time a fresh interpreter takes to import
``placenet.cli``. Times are scaled to the reference speed of a calibration
mix (see ``scaled_times``). With ``--trace 1`` rounds alternate between
untraced and traced, and the line reports per-layer self times and counts
of the traced rounds (median) plus the tracing overhead.

Every process started here gets ``PYTHONHASHSEED=0`` and one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)  # before numpy loads, for the checks in this process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import inputs  # noqa: E402
from inputs import Op, Workload  # noqa: E402
from stage import CALIBRATION_REF_S  # noqa: E402

# stage -> (throughput metric, unit, peak RSS metric or None)
STAGE_METRICS = {
    "generate": ("generate_graphs_per_s", "graphs/s", "generate_peak_rss_mb"),
    "features": ("features_graphs_per_s", "graphs/s", "features_peak_rss_mb"),
    "similarity": ("similarity_forests_per_s", "forests/s", None),
    "embed": ("embed_updates_per_s", "updates/s", "embed_peak_rss_mb"),
    "prevalence": ("prevalence_records_per_s", "records/s", "prevalence_peak_rss_mb"),
}

LAYER_TIMES = [
    "cli.io", "graph.parse", "graph.serialize", "graph.components", "graph.bfs",
    "generators.er", "generators.core_periphery", "generators.scatter",
    "generators.multi_core", "features.compute", "features.apl", "features.lambda2",
    "features.cnm", "features.clustering", "features.assortativity", "features.kcore",
    "features.kbrace", "features.csv_write", "features.csv_read", "forest.train",
    "forest.predict", "forest.auc", "forest.cv", "similarity.load",
    "similarity.auc_matrix", "similarity.representative", "seeding.derive",
    "embedding.load", "embedding.train", "embedding.nearest", "embedding.save",
    "prevalence.load", "prevalence.fractional_counts", "prevalence.per_capita",
    "prevalence.bin_medians", "prevalence.log_pearson", "prevalence.write",
]
MIN_SETUP_SAMPLES = 3


class BenchError(Exception):
    pass


class StageServer:
    """A fresh interpreter that imports placenet.cli and forks one process
    per stage invocation (``stage.py``)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stage.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, start_new_session=True,
        )
        first = json.loads(self._read())
        # The import time at the calibration mix's reference speed.
        self.import_s = first["import_s"] * CALIBRATION_REF_S / first["calibration_s"]

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("stage server exited; see its error output above")
        return line

    def run(self, argv: list[str], trace: bool, result: Path, log: Path) -> int:
        job = {"argv": argv, "trace": int(trace), "result": str(result), "log": str(log)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        return json.loads(self._read())["status"]

    def close(self, kill: bool = False) -> None:
        """End the server; ``kill`` also ends a stage process still running."""
        if not kill:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                kill = True
        if kill:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        self.close(kill=exc_type is not None)


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\0")
        h.update(file.read_bytes())
    return h.hexdigest()


def _check_key(op: Op, round_dir: Path, rep: int) -> str:
    """Digest of the op's outputs and of the upstream outputs its check reads."""
    upstream = sorted({a[1:].split("/")[0] for a in op.argv if a.startswith("@")})
    dirs = [op.out_dir(round_dir, rep)] + [round_dir / name for name in upstream]
    return ":".join(_dir_digest(d) for d in dirs)


class Recorder:
    """Per-op results of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        # (op name, traced, wall s, calibration s) of every invocation that
        # passed its check, in the order they ran
        self.timings: list[tuple[str, bool, float, float]] = []
        self.rss_kb: dict[str, list[int]] = {}
        self.imports: list[float] = []
        self.round_s: list[float] = []
        self.check_s = 0.0
        self.traced_rounds: list[dict[str, float]] = []
        self.verified: set[tuple[str, str]] = set()


def run_round(server: StageServer, wl: Workload, round_dir: Path, traced: bool,
              rec: Recorder) -> None:
    """Run every op ``op.reps`` times, check each output, record the times.

    A traced round records each layer's self time and counts per pass of
    the pipeline, so repeated ops count once (their mean)."""
    import checks
    import tracing

    round_dir.mkdir(parents=True)
    layer: dict[str, float] = dict.fromkeys(LAYER_TIMES, 0.0)
    counts: dict[str, int] = {}
    for op in wl.ops:
        for rep in range(op.reps):
            out = op.out_dir(round_dir, rep)
            result = out.with_name(out.name + ".result.json")
            log = out.with_name(out.name + ".log")
            rec.attempted += 1
            status = server.run(op.resolve(round_dir, rep), traced, result, log)
            if status != 0 or not result.is_file():
                rec.failed += 1
                print(f"{out.name}: exit {status}\n{log.read_text(errors='replace')[-2000:]}",
                      file=sys.stderr)
                continue
            try:
                key = (op.name, _check_key(op, round_dir, rep))
                if key not in rec.verified:
                    check_start = time.perf_counter()
                    checks.check_op(op.name, out, round_dir, wl)
                    rec.check_s += time.perf_counter() - check_start
                    rec.verified.add(key)
            except checks.CheckError as exc:
                rec.failed += 1
                rec.wrong += 1
                print(f"{out.name}: check failed: {exc}", file=sys.stderr)
                continue
            res = json.loads(result.read_text())
            rec.timings.append((op.name, traced, res["wall_s"], res["calibration_s"]))
            if not traced:
                rec.rss_kb.setdefault(op.name, []).append(res["maxrss_kb"])
                continue
            for name, value in tracing.self_times(res["spans"]).items():
                layer[name] += value / op.reps
            for name, value in res["counts"].items():
                counts[name] = counts.get(name, 0) + value // op.reps
    if traced:
        metrics = {f"{name}_s": value for name, value in layer.items()}
        metrics.update(counts)
        metrics["cli.import_s"] = server.import_s
        rec.traced_rounds.append(metrics)


def speed_scale(rec: Recorder) -> float:
    """Factor that converts this run's times to the calibration mix's
    reference speed, from the median of every calibration sample of the
    run. It scales the per-layer times."""
    if not rec.timings:  # no invocation succeeded
        return 1.0
    return CALIBRATION_REF_S / statistics.median(t[3] for t in rec.timings)


def scaled_times(rec: Recorder) -> dict[tuple[str, bool], list[float]]:
    """Each invocation's wall time at the calibration mix's reference
    speed, keyed by (op name, traced).

    The machine's speed during an invocation is taken as the mean of the
    calibration sample timed just before it and the one timed just before
    the next invocation (the last invocation has only the first)."""
    scaled: dict[tuple[str, bool], list[float]] = {}
    for i, (name, traced, wall, before) in enumerate(rec.timings):
        after = rec.timings[i + 1][3] if i + 1 < len(rec.timings) else before
        scaled.setdefault((name, traced), []).append(
            wall * CALIBRATION_REF_S / ((before + after) / 2))
    return scaled


def end_to_end(wl: Workload, rec: Recorder) -> dict:
    metrics = {"setup_s": (statistics.median(rec.imports), "s")}
    scaled = scaled_times(rec)
    for op in wl.ops:
        if op.stage not in STAGE_METRICS or (op.name, False) not in scaled:
            continue
        rate, unit, rss = STAGE_METRICS[op.stage]
        metrics[rate] = (op.work / statistics.median(scaled[(op.name, False)]), unit)
        if rss:
            metrics[rss] = (statistics.median(rec.rss_kb[op.name]) / 1024.0, "MB")
    return metrics


def per_layer(wl: Workload, rec: Recorder) -> dict:
    if not rec.traced_rounds:
        return {}
    metrics = {}
    scale = speed_scale(rec)
    for name in rec.traced_rounds[0]:
        value = statistics.median(r[name] for r in rec.traced_rounds)
        if name == "cli.import_s":  # already at reference speed
            metrics[name] = (value, "s")
        elif name.endswith("_s"):
            metrics[name] = (value * scale, "s")
        else:
            metrics[name] = (value, "count")
    scaled = scaled_times(rec)
    plain = sum(statistics.median(scaled[(op.name, False)]) for op in wl.ops
                if (op.name, False) in scaled)
    traced = sum(statistics.median(scaled[(op.name, True)]) for op in wl.ops
                 if (op.name, True) in scaled)
    if plain > 0:
        metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its stage processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = ROOT / "src"
    if not (src / "placenet" / "cli.py").is_file():
        print(f"perfbench: no placenet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )

    # Nothing under the work directory is deleted, by this run or a later
    # one (README, "Outputs are kept"): on ext4 without a journal an
    # unlinked inode is skipped, at a cost, by every file creation in its
    # block group for 60-360 s, so deletions would slow the stages' own
    # file creation in this run and in the runs that follow it.
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=ROOT / ".perfbench_work"))
    rec = Recorder()
    try:
        wl = inputs.build(args.workload, args.seed, work / "inputs")
        min_rounds = 2 if args.trace else 1
        rounds = 0
        # The first check of each output (later rounds reuse its verdict)
        # does not count against the measuring time. A round starts only if
        # half of it fits in the time left.
        with StageServer(env) as server:
            rec.imports.append(server.import_s)
            while rounds < min_rounds or (
                sum(rec.round_s) - rec.check_s + statistics.fmean(rec.round_s) / 2
                < args.seconds
            ):
                round_dir = work / f"round{rounds:03d}"
                round_start = time.perf_counter()
                run_round(server, wl, round_dir, bool(args.trace and rounds % 2), rec)
                rec.round_s.append(time.perf_counter() - round_start)
                rounds += 1
        while len(rec.imports) < MIN_SETUP_SAMPLES:
            with StageServer(env) as server:
                rec.imports.append(server.import_s)
        metrics = per_layer(wl, rec) if args.trace else end_to_end(wl, rec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    walls: dict[tuple[str, bool], list[float]] = {}
    for name, traced, wall, _ in rec.timings:
        walls.setdefault((name, traced), []).append(wall)
    for (name, traced), values in sorted(walls.items()):
        print(f"# {name}{' traced' if traced else ''}: wall "
              + " ".join(f"{w:.4f}" for w in values) + " s")
    if rec.timings:
        print(f"# calibration median {statistics.median(t[3] for t in rec.timings):.4f} s"
              f" over {len(rec.timings)} samples")
    print(f"# rounds {' '.join(f'{s:.1f}' for s in rec.round_s)} s, checks {rec.check_s:.1f} s,"
          f" setup {' '.join(f'{s:.3f}' for s in rec.imports)} s")
    print(json.dumps({
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
