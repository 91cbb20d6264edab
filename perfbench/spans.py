"""Spans recorded around the benchmark's calls into qflag's layers.

A traced task opens one root span; every call the task makes into a layer
(``hmat``, ``decomp``, ``liealg``, ``hp1geom``, ``flags``, ``cli``) becomes a
child span of it.  Time spent inside nested library calls counts toward the
layer the benchmark called.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

LAYERS = ("hmat", "decomp", "liealg", "hp1geom", "flags", "cli")

# The ops whose mean latency is reported as ``<layer>.<op>.mean_ms``.
TIMED_OPS = (
    "hmat.matmul", "hmat.inverse", "hmat.expm",
    "decomp.bruhat", "decomp.iwasawa", "decomp.dress", "decomp.dieudonne_det",
    "decomp.leaf_signature",
    "liealg.ad_group_matrix", "liealg.apply_exterior.lambda",
    "liealg.apply_exterior.moved", "liealg.schouten", "liealg.wedge",
    "liealg.four_bracket", "liealg.ad_group.n2",
    "hp1geom.bruhat_field", "hp1geom.rank_at", "hp1geom.lie_derivative_check",
    "flags.leaf_point", "flags.cell_of",
    "cli.decompose_bruhat", "cli.decompose_iwasawa", "cli.ddet", "cli.dress",
    "cli.leaf", "cli.verify_leaves", "cli.verify_lambda", "cli.verify_spheroid",
)

# Real flops of one quaternion multiply-add: 16 multiplies and 16 adds.
FLOPS_PER_QMADD = 32


def plain_call(layer, op, fn, *args, flops=0):
    """Untraced caller: the same signature as :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._task = None
        self._root = None

    def begin_task(self, task_id: int) -> None:
        self._task = task_id
        self._root = {"id": len(self.spans), "parent": None, "task": task_id,
                      "name": "task", "start": perf_counter(), "end": None,
                      "ok": True, "flops": 0, "terms": 0, "scale": 1.0}
        self.spans.append(self._root)

    def end_task(self, ok: bool, scale: float = 1.0) -> None:
        """Close the task's root span; ``scale`` turns its durations into
        durations at the host's reference speed (see ``clock``)."""
        self._root["end"] = perf_counter()
        self._root["ok"] = ok
        self._root["scale"] = scale
        self._task = self._root = None

    def call(self, layer, op, fn, *args, flops=0):
        """Run ``fn(*args)`` inside a span named ``<layer>.<op>``."""
        span = {"id": len(self.spans), "parent": self._root["id"], "task": self._task,
                "name": f"{layer}.{op}", "start": 0.0, "end": None, "ok": False,
                "flops": flops, "terms": 0}
        self.spans.append(span)
        span["start"] = perf_counter()
        try:
            out = fn(*args)
        finally:
            span["end"] = perf_counter()
        span["ok"] = True
        coeffs = getattr(out, "coeffs", None)
        if isinstance(coeffs, dict):
            span["terms"] = len(coeffs)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics derived from the spans of the traced tasks.

    Durations are scaled by their task's ``scale``.  A mean over zero calls
    reads 0.  ``liealg.terms_out`` counts the output terms of the liealg
    calls in the first traced task, so for one seed it is an exact count
    that does not depend on how many tasks ran.
    """
    calls = {layer: 0 for layer in LAYERS}
    failed = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    op_calls = {op: 0 for op in TIMED_OPS}
    op_busy = {op: 0.0 for op in TIMED_OPS}
    matmul_flops = 0
    first_task = min((s["task"] for s in spans), default=None)
    terms_out = 0
    scale = {s["id"]: s["scale"] for s in spans if s["parent"] is None}
    for s in spans:
        if s["parent"] is None:
            continue
        layer = s["name"].split(".", 1)[0]
        dt = (s["end"] - s["start"]) * scale[s["parent"]]
        calls[layer] += 1
        busy[layer] += dt
        failed[layer] += not s["ok"]
        if s["name"] in op_calls:
            op_calls[s["name"]] += 1
            op_busy[s["name"]] += dt
        if s["name"] == "hmat.matmul":
            matmul_flops += s["flops"]
        if layer == "liealg" and s["task"] == first_task:
            terms_out += s["terms"]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.failed"] = failed[layer]
    for op in TIMED_OPS:
        out[f"{op}.mean_ms"] = 1e3 * op_busy[op] / op_calls[op] if op_calls[op] else 0.0
    mm_busy = op_busy["hmat.matmul"]
    out["hmat.matmul.gflops_computed"] = matmul_flops / mm_busy / 1e9 if mm_busy else 0.0
    out["liealg.terms_out"] = terms_out
    return out
