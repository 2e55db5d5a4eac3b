"""Stage server: import ``placenet.cli`` once, then run each requested CLI
invocation in its own forked process.

Usage: ``python3 perfbench/stage.py`` with ``src`` on ``PYTHONPATH``. The
server first prints ``{"import_s": ..., "calibration_s": ...}``: the time a
fresh interpreter spends importing ``placenet.cli``, and the calibration
sample timed just before the import. It then reads one JSON job per stdin
line, ``{"argv": [...], "trace": 0|1, "result": path, "log": path}``, and
answers each with ``{"status": exit code}`` once the job's process has
ended.

Each job runs in a child forked from the server, which has done nothing
but a calibration sample and the import, so every invocation starts from
the state of a fresh ``placenet`` process. The child times a calibration
sample and then ``placenet.cli.main(argv)``, reads its own peak RSS and
writes all three to the ``result`` file; its stdout and stderr go to the
``log`` file. With
``trace`` set the child first wraps the layers' public functions (see
``tracing.py``) and also writes the recorded spans.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback


# The machine's speed drifts by 10-20 % over minutes (other tenants share
# its cores and caches). A fixed mix of pure-Python work timed before each
# invocation samples that speed; run.py divides each invocation's wall time
# by the mean of the samples timed just before and just after it. The mix
# (integer arithmetic, random reads across 4 MB, building and sorting small
# containers, about 11 ms each) tracks the stages' speed better than
# arithmetic alone. In a test with a longer mix of the same kinds (random
# reads in a large dict), fixed feature work divided by the mix varied by
# 2.2 % (CV) over 10 s windows, against 3.9 % divided by arithmetic alone
# and 6.0 % undivided.
CALIBRATION_REF_S = 0.038  # the mix's median time on the reference machine
# Read at random by the calibration. It is filled, so that its pages are
# real memory and not the kernel's shared zero page, and allocated before
# any fork, so every child's peak RSS counts its 4 MB equally.
_SCRATCH = bytes(range(256)) * (4 << 20 >> 8)


def calibrate() -> float:
    """Seconds taken by the calibration mix, with the collector paused."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    buf, j, mask = _SCRATCH, 1, len(_SCRATCH) - 1
    for _ in range(40_000):
        j = (j * 1103515245 + 12345) & mask
        total += buf[j]
    for k in range(80):
        table = {(i, k): [i] for i in range(500)}
        sorted(table, key=lambda key: -key[0])
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def _child(cli, job: dict) -> None:
    code = 70
    try:
        log = os.open(job["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        tracer = None
        if job["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        # The child shares the server's memory copy-on-write. A full
        # collection writes to every tracked object, so the copies happen
        # here, before the clock starts, and not at random inside main().
        gc.collect()
        calibration = calibrate()
        start = time.perf_counter()
        code = cli.main(job["argv"])
        wall = time.perf_counter() - start
        result = {
            "exit": code,
            "wall_s": wall,
            "calibration_s": calibration,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            result.update(tracer.export())
        tmp = job["result"] + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        os.replace(tmp, job["result"])
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
        code = 70
    finally:
        os._exit(code if isinstance(code, int) else 70)


def main() -> int:
    calibration = calibrate()
    start = time.perf_counter()
    import placenet.cli as cli

    import_s = time.perf_counter() - start
    out = sys.stdout
    out.write(json.dumps({"import_s": import_s, "calibration_s": calibration}) + "\n")
    out.flush()
    for line in sys.stdin:
        job = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _child(cli, job)
        _, status = os.waitpid(pid, 0)
        out.write(json.dumps({"status": os.waitstatus_to_exitcode(status)}) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
