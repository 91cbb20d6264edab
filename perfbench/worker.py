"""One workload in one fresh interpreter: set up, make inputs, run the loop.

Started by ``run.py``.  Prints one line when set-up is done (its timings as
JSON, then ``time.time()``) and, unless ``--setup-only`` is given, one JSON
line with the run's raw results.  The loop is closed with one client: a task
starts only when the previous one has finished, until ``--seconds`` have
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clock import kernel_time, speed_scale  # noqa: E402
from spans import Tracer, layer_metrics, plain_call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_loop(workload, inputs: list, seconds: float, trace: bool) -> dict:
    """Run tasks until ``seconds`` have passed, cycling through the inputs.

    Each task's wall time is scaled to the host's reference speed, read
    from the calibration kernel just before and just after the task (see
    ``clock``); the raw wall times are kept too.  With ``trace`` set, every
    other task is traced, so traced and untraced throughput share one run;
    the parity flips on each pass over the input pool, so every input is
    traced in turn.
    """
    tracer = Tracer()
    latencies: list[float | None] = []  # scaled; None for a failed task
    costs: list[float] = []             # scaled, failed tasks too
    walls: list[float] = []
    busy = {True: [0, 0.0], False: [0, 0.0]}  # traced? -> [tasks, scaled seconds]
    first_failure = None
    start = perf_counter()
    before = kernel_time()
    i = 0
    while perf_counter() - start < seconds:
        traced = trace and (i + i // len(inputs)) % 2 == 0
        if traced:
            tracer.begin_task(i)
        t0 = perf_counter()
        try:
            workload.task(inputs[i % len(inputs)], tracer.call if traced else plain_call)
            ok = True
        except Exception:  # a failed task is counted, and the loop goes on
            ok = False
            if first_failure is None:
                first_failure = traceback.format_exc(limit=4)
        dt = perf_counter() - t0
        after = kernel_time()
        scale = speed_scale(before, after)
        before = after
        if traced:
            tracer.end_task(ok, scale)
        busy[traced][0] += 1
        busy[traced][1] += dt * scale
        walls.append(dt)
        costs.append(dt * scale)
        latencies.append(dt * scale if ok else None)
        i += 1
    out = {"wall_s": perf_counter() - start, "latencies_s": latencies, "costs_s": costs,
           "walls_s": walls, "first_failure": first_failure}
    if trace:
        rate = {k: n / s if s else 0.0 for k, (n, s) in busy.items()}
        out["layers"] = layer_metrics(tracer.spans)
        out["layers"]["trace_overhead"] = rate[True] / rate[False] if rate[False] else 0.0
        out["tracer"] = tracer
    return out


def environment() -> dict:
    """Interpreter, numpy and BLAS build, and the BLAS thread setting."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=ROOT / "perfbench" / "results")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    before = kernel_time()
    setup = workload.setup()
    after = kernel_time()
    setup = {k: v * speed_scale(before, after) for k, v in setup.items()}
    setup["kernel_s"] = after
    # set-up timings, then the wall-clock time at which the first task may start
    print(json.dumps(setup), time.time(), flush=True)
    if args.setup_only:
        return 0

    args.results.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.make_inputs(args.seed, args.results)
        out = run_loop(workload, inputs, args.seconds, bool(args.trace))
    finally:
        workload.close()
    tracer = out.pop("tracer", None)
    if tracer is not None:
        tracer.write(args.results / f"spans-{args.workload}-seed{args.seed}.jsonl")
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.update(setup=setup, sizes=workload.sizes, pool=len(inputs), env=environment(),
               # ru_maxrss is in KiB on Linux; cli-cold reports its children
               peak_rss_kib=child_rss if args.workload == "cli-cold" else self_rss)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
