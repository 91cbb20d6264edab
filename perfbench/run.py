"""The qflag benchmark: one command, one workload per fresh process.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload decomp-n32 --seed 1 --seconds 30 --trace 0

Every time is scaled to the host's reference speed, read from a
calibration kernel just before and after it was taken (see ``clock``);
each result records the unscaled wall times too.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` traces every
other task and reports the per-layer metrics.
Each run is appended, with its metadata, to ``runs.jsonl`` in the results
directory (``--results``, default ``perfbench/results``).  Compare two such
result sets, one row per workload and metric::

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Exit codes: 0 when every task passed its check, 1 when some task failed
(the result is still printed), 2 when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import kernel_time, speed_scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decomp-n32", "exterior-sp3", "geometry-small", "cli-cold")

# A plain single-threaded run: on a small host, BLAS threads compete for the
# few cores and widen the run-to-run spread.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qflag.cli; "
                "print(time.perf_counter() - t, time.time())")
UNITS = {"setup_s": "s", "throughput_tasks_s": "1/s", "task_p50_ms": "ms",
         "task_p90_ms": "ms", "pass_ratio": "ratio", "peak_rss_mb": "MiB"}
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)


def worker_cmd(workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", workload, *extra]


def run_child(cmd: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run ``cmd`` to the end; return the seconds from its start to the
    moment it reported ready, and its stdout lines.

    A child reports ready by printing, as the last field of its first line,
    the wall-clock time ``time.time()`` at that moment.
    """
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return float(lines[0].split()[-1]) - t0, lines


def probe_setup(workload: str, results: Path) -> list[dict]:
    """Time SETUP_PROBES fresh interpreters from start to the first task,
    scaled to the host's reference speed read before and after each.

    For cli-cold a probe is ``python -c "import qflag.cli"``; it also
    reports the import alone, timed inside the interpreter.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        before = kernel_time()
        if workload == "cli-cold":
            wall, lines = run_child([sys.executable, "-c", IMPORT_PROBE], CHILD_TIMEOUT_S)
            setup = {"cli.import_s": float(lines[0].split()[0])}
        else:
            wall, lines = run_child(worker_cmd(workload, "--setup-only", "--results",
                                               str(results)), CHILD_TIMEOUT_S)
            setup = json.loads(lines[0].rsplit(" ", 1)[0])
        scale = speed_scale(before, kernel_time())
        if workload == "cli-cold":
            setup["cli.import_s"] *= scale
        probes.append({"wall_s": wall * scale, "raw_wall_s": wall, "setup": setup})
    return probes


def run_worker(args, results: Path) -> tuple[float, dict]:
    """Run the timed loop in a fresh worker; return its scaled set-up time
    and its raw results."""
    cmd = worker_cmd(args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--results", str(results))
    before = kernel_time()
    setup_wall, lines = run_child(cmd, args.seconds + CHILD_TIMEOUT_S)
    out = json.loads(lines[-1])
    out["setup"] = json.loads(lines[0].rsplit(" ", 1)[0])
    # the worker reports the kernel's time when it became ready
    return setup_wall * speed_scale(before, out["setup"]["kernel_s"]), out


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(raw: dict, setup_samples: list[float]) -> dict[str, float]:
    """The user-visible metrics of one untraced run.

    Times are at the host's reference speed (see ``clock``); throughput is
    the passed tasks over the summed task times.  A failed task misses
    every latency limit: it sorts as infinitely slow.
    """
    lat = sorted(math.inf if x is None else x for x in raw["latencies_s"])
    passed = sum(x is not None for x in raw["latencies_s"])
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_tasks_s": passed / sum(raw["costs_s"]),
        "task_p50_ms": 1e3 * nearest_rank(lat, 0.50),
        "task_p90_ms": 1e3 * nearest_rank(lat, 0.90),
        "pass_ratio": passed / len(lat),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }


def raw_wall_metrics(raw: dict, probes: list[dict]) -> dict[str, float]:
    """Set-up and task times as the wall clock read them, unscaled."""
    walls = sorted(raw["walls_s"])
    return {"setup_s": statistics.median(p["raw_wall_s"] for p in probes),
            "task_p50_ms": 1e3 * nearest_rank(walls, 0.50),
            "task_p90_ms": 1e3 * nearest_rank(walls, 0.90)}


def per_layer(raw: dict, probes: list[dict]) -> dict[str, float]:
    """Span-derived layer metrics plus the set-up times the probes measured."""
    setups = [p["setup"] for p in probes] + [raw["setup"]]
    out = dict(raw["layers"])
    for key in ("liealg.setup_s", "cli.import_s"):
        values = [s[key] for s in setups if key in s]
        out[key] = statistics.median(values) if values else 0.0
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run(args) -> int:
    if not (ROOT / "src" / "qflag" / "__init__.py").is_file():
        print(f"error: no qflag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = args.results.resolve()
    results.mkdir(parents=True, exist_ok=True)
    try:
        probes = probe_setup(args.workload, results)
        setup_wall, raw = run_worker(args, results)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup_samples = [p["wall_s"] for p in probes]
    if args.workload != "cli-cold":
        setup_samples.append(setup_wall)
    attempted = len(raw["latencies_s"])
    failed = sum(x is None for x in raw["latencies_s"])
    if args.trace:
        metrics = per_layer(raw, probes)
        units = {}
    else:
        metrics = end_to_end(raw, setup_samples)
        units = UNITS
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": raw["sizes"], "input_pool": raw["pool"],
        "tasks": attempted, "p90_tail_samples": attempted - math.ceil(0.9 * attempted),
        "wall_s": raw["wall_s"], "raw": raw_wall_metrics(raw, probes),
        "setup_samples_s": setup_samples, **raw["env"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_lines": src_lines(),
        "first_failure": raw["first_failure"],
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, layer_unit(k))}
                    for k, v in metrics.items()},
    }
    with open(results / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({**result, "meta": meta}) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} tasks, {failed} failed, "
          f"trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if raw["first_failure"]:
        print(raw["first_failure"], file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflops_computed"):
        return "GFLOP/s"
    if name == "trace_overhead":
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    """Relative delta (positive = worse) and one of improved, unchanged,
    worse or unresolved, following the benchmark's bound for the metric."""
    sign = 1.0 if better == "lower" else -1.0
    a1, a2, a3 = quartiles(parent)
    b1, b2, b3 = quartiles(change)
    if a2 == 0.0:
        return 0.0, "unresolved"
    delta = sign * (b2 - a2) / abs(a2)
    spread = max((a3 - a1) / abs(a2), (b3 - b1) / abs(b2) if b2 else math.inf)
    all_better = all(sign * (y - x) < 0 for x in parent for y in change)
    if spread > bound and not all_better:
        return delta, "unresolved"
    if delta > bound:
        return delta, "worse"
    pairs = list(zip(parent, change))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if -delta * abs(a2) > (a3 - a1) and wins >= 0.9 * len(pairs):
        return delta, "improved"
    return delta, "unchanged"


def load_set(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over the untraced runs of a result set."""
    out: dict[str, dict[str, list[float]]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["meta"]["trace"]:
                continue
            by_metric = out.setdefault(rec["meta"]["workload"], {})
            for name, m in rec["metrics"].items():
                by_metric.setdefault(name, []).append(m["value"])
    return out


def compare(parent_path: Path, change_path: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_set(parent_path), load_set(change_path)
    print(f"{'workload':15s} {'metric':19s} {'unit':5s} "
          f"{'parent q1/med/q3':>28s} {'change q1/med/q3':>28s} "
          f"{'delta':>8s} {'bound':>6s} verdict")
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        for m in spec["end_to_end"]:
            a, b = parent[workload].get(m["name"]), change[workload].get(m["name"])
            if not a or not b:
                continue
            delta, word = verdict(a, b, m["better"], m["bound"])
            qa = "/".join(f"{v:.4g}" for v in quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{workload:15s} {m['name']:19s} {m['unit']:5s} {qa:>28s} {qb:>28s} "
                  f"{delta:>+8.1%} {m['bound']:>6.0%} {word}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BENCH / "results",
                    help="directory for spans, scratch inputs and the result set "
                    "runs.jsonl")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
