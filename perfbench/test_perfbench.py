"""Tests of the benchmark itself: smoke runs of every workload, failure
counting, the compare verdicts, and the printed metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import pytest

import clock
import run as bench
import worker
from qflag.hmat import QMatrix
from qflag.hp1geom import FieldSample
from spans import LAYERS, Tracer, plain_call
from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request, tmp_path):
    w = WORKLOADS[request.param]()
    w.setup()
    w.inputs = w.make_inputs(seed=7, scratch=tmp_path)
    yield w
    w.close()


def _smoke_inputs(w) -> list:
    if w.name == "cli-cold":  # one task per command
        return list({inp[0]: inp for inp in w.inputs}.values())
    return w.inputs[:2]


def test_smoke_each_workload(workload):
    for inp in _smoke_inputs(workload):
        workload.task(inp, plain_call)
    tracer = Tracer()
    tracer.begin_task(0)
    workload.task(workload.inputs[0], tracer.call)
    tracer.end_task(True)
    calls = [s for s in tracer.spans if s["parent"] == 0]
    assert calls and all(s["ok"] and s["end"] >= s["start"] for s in calls)
    assert {s["name"].split(".")[0] for s in calls} <= set(LAYERS)


def _perturb_first(target: str, perturb):
    """A caller that corrupts the first result of the op named ``target``."""
    done = []

    def call(layer, op, fn, *args, flops=0):
        out = fn(*args)
        if f"{layer}.{op}" == target and not done:
            done.append(True)
            return perturb(out)
        return out
    return call


def _bump_first_term(mv):
    out = mv.copy()
    key = next(iter(out.coeffs))
    out.coeffs[key] += 1e-6
    return out


def _bump_u(form):
    u = form.U.data.copy()
    u[0, -1, 2] += 1e-3
    return replace(form, U=QMatrix(u))


PERTURBATIONS = {
    "decomp-n32": ("decomp.bruhat", _bump_u),
    "exterior-sp3": ("liealg.apply_exterior.moved", _bump_first_term),
    "geometry-small": ("hp1geom.bruhat_field",
                       lambda s: FieldSample(at=s.at, coeff=s.coeff * (1.0 + 1e-5))),
    "cli-cold": ("cli.ddet", lambda out: {"dieudonne_det": out["dieudonne_det"] * (1 + 1e-6)}),
}


def test_perturbed_result_fails_its_check(workload):
    target, perturb = PERTURBATIONS[workload.name]
    inp = workload.inputs[0]
    if workload.name == "cli-cold":
        inp = next(i for i in workload.inputs if i[0] == "ddet")
    with pytest.raises(CheckFailed):
        workload.task(inp, _perturb_first(target, perturb))


class _HalfFailing:
    def task(self, inp, call):
        if inp:
            raise CheckFailed("perturbed")


def test_failed_tasks_count_against_every_metric(monkeypatch, tmp_path, capsys):
    raw = worker.run_loop(_HalfFailing(), [False, True], seconds=0.05, trace=False)
    raw.update(peak_rss_kib=1024, setup={}, sizes={}, pool=2, env={})
    passed = sum(x is not None for x in raw["latencies_s"])
    assert 0 < passed < len(raw["latencies_s"])

    metrics = bench.end_to_end(raw, [0.1])
    assert metrics["pass_ratio"] == passed / len(raw["latencies_s"])
    assert metrics["throughput_tasks_s"] == passed / sum(raw["costs_s"])
    assert metrics["task_p90_ms"] == float("inf")

    probes = [{"wall_s": 0.1, "raw_wall_s": 0.1, "setup": {}}]
    monkeypatch.setattr(bench, "probe_setup", lambda *a: probes)
    monkeypatch.setattr(bench, "run_worker", lambda *a: (0.1, raw))
    args = Namespace(workload="geometry-small", seed=0, seconds=0.05, trace=0,
                     results=tmp_path)
    assert bench.run(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == len(raw["latencies_s"]) - passed


class _Sleeper:
    def task(self, inp, call):
        time.sleep(0.002)


def test_task_times_are_scaled_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(worker, "speed_scale", lambda a, b: 0.5)  # host at twice its speed
    raw = worker.run_loop(_Sleeper(), [None], seconds=0.05, trace=False)
    assert raw["latencies_s"] and raw["costs_s"] == raw["latencies_s"]
    assert raw["latencies_s"] == [0.5 * w for w in raw["walls_s"]]


def test_speed_scale_reads_the_kernel():
    k = clock.kernel_time()
    assert k > 0.0 and clock.speed_scale(k, k) == clock.REF_S / k
    assert clock.kernel() == clock.kernel()


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert bench.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[1] == "improved"
    assert bench.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[1] == "worse"
    assert bench.verdict(parent, [v * 1.01 for v in parent], "lower", 0.1)[1] == "unchanged"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert bench.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[1] == "unresolved"
    assert bench.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)[1] == "worse"


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "geometry-small", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_agree():
    assert list(bench.WORKLOADS) == list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "decomp-n32",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
