"""Golden outputs, compared exactly and in process: the stdout of
``qflag verify lambda|spheroid|schouten --n 2..5 --seed 3`` through ``cli.main``,
and the ``to_json()`` of seeded Schouten brackets and wedges (the grade pattern
(2, 3, 2) on sp(3) with the nested brackets of the Schouten axioms, empty and
grade-1 operands, and [Lambda_4, Lambda_4]).  The bracket inputs are stored
next to their outputs and read back with ``Multivector.from_json``.

A change that alters an output on purpose regenerates the files, names them in
CHANGES.md and updates ``golden/versions.json``::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from qflag import cli
from qflag.liealg import Multivector, lambda_element, schouten

from util import random_multivector

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 3
VERIFY = [(suite, n) for suite in ("lambda", "spheroid", "schouten") for n in (2, 3, 4, 5)]
BRACKET_SEEDS = (0, 1)


def _verify(suite: str, n: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite, "--n", str(n), "--seed", str(SEED)])
    return code, out.getvalue()


def _brackets(inputs: dict[str, Multivector]) -> dict[str, Multivector]:
    """The outputs of one case: for P, Q, R every bracket and wedge the three
    Schouten axioms evaluate (as ``verify schouten`` does), for A and B their bracket."""
    if "A" in inputs:
        return {"[A,B]": schouten(inputs["A"], inputs["B"])}
    P, Q, R = inputs["P"], inputs["Q"], inputs["R"]
    PQ, PR, QR, RP = schouten(P, Q), schouten(P, R), schouten(Q, R), schouten(R, P)
    QwR = Q.wedge(R)
    return {"[P,Q]": PQ, "[Q,P]": schouten(Q, P), "Q^R": QwR, "[P,Q^R]": schouten(P, QwR),
            "[P,Q]^R": PQ.wedge(R), "[P,R]": PR, "Q^[P,R]": Q.wedge(PR), "[Q,R]": QR,
            "[P,[Q,R]]": schouten(P, QR), "[R,P]": RP, "[Q,[R,P]]": schouten(Q, RP),
            "[R,[P,Q]]": schouten(R, PQ)}


def _bracket_cases() -> dict[str, dict[str, Multivector]]:
    """The inputs of each bracket case, drawn with ``util.random_multivector``."""
    cases = {}
    for seed in BRACKET_SEEDS:
        rng = np.random.default_rng(seed)
        cases[f"brackets_sp3_232_seed{seed}"] = dict(
            zip("PQR", (random_multivector(3, k, rng) for k in (2, 3, 2))))
    rng = np.random.default_rng(SEED)
    cases["brackets_sp3_grade1"] = dict(
        zip("PQR", (random_multivector(3, 1, rng, nterms=5) for _ in range(3))))
    cases["brackets_sp3_empty"] = {"P": random_multivector(3, 2, rng), "Q": Multivector(3, 3),
                                   "R": random_multivector(3, 1, rng)}
    cases["bracket_lambda4"] = {"A": lambda_element(4), "B": lambda_element(4)}
    return cases


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _dump(mvs: dict[str, Multivector]) -> str:
    return _compact({name: mv.to_json() for name, mv in mvs.items()})


BRACKETS = ("brackets_sp3_232_seed0", "brackets_sp3_232_seed1", "brackets_sp3_grade1",
            "brackets_sp3_empty", "bracket_lambda4")


@pytest.mark.parametrize("suite, n", VERIFY, ids=[f"{s}-n{n}" for s, n in VERIFY])
def test_verify_stdout_matches_golden(suite, n):
    code, stdout = _verify(suite, n)
    assert code == cli.EXIT_OK
    assert stdout == (GOLDEN / f"verify_{suite}_n{n}_seed{SEED}.json").read_text()


@pytest.mark.parametrize("name", BRACKETS)
def test_brackets_match_golden(name):
    stored = json.loads((GOLDEN / f"{name}.json").read_text())
    inputs = {k: Multivector.from_json(v) for k, v in stored["inputs"].items()}
    assert _dump(_brackets(inputs)) == _compact(stored["outputs"])


def _versions() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for suite, n in VERIFY:
        code, stdout = _verify(suite, n)
        assert code == cli.EXIT_OK, (suite, n, code)
        (GOLDEN / f"verify_{suite}_n{n}_seed{SEED}.json").write_text(stdout)
    cases = _bracket_cases()
    assert tuple(cases) == BRACKETS
    for name, inputs in cases.items():
        obj = {"inputs": {k: v.to_json() for k, v in inputs.items()},
               "outputs": json.loads(_dump(_brackets(inputs)))}
        (GOLDEN / f"{name}.json").write_text(_compact(obj) + "\n")
    (GOLDEN / "versions.json").write_text(json.dumps(_versions(), indent=1) + "\n")


if __name__ == "__main__":
    write_goldens()
