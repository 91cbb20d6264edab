"""Golden outputs, compared exactly and in process through ``cli.main``:

* the stdout of ``qflag verify lambda|spheroid|schouten --n 2..5 --seed 3``;
* for every other command (``CASES``: ``decompose bruhat|iwasawa``, ``ddet``,
  ``dress``, ``leaf``, ``profile`` and ``verify hp1|leaves|dressing``), the
  exit code, stdout, stderr and the bytes of the ``--out`` file, kept in one
  ``cli_<case>.json`` record; the matrix inputs are the ``input_*.json`` files,
  and the cases include usage (exit 1) and mathematical (exit 2) failures;
* the ``to_json()`` of seeded Schouten brackets and wedges (the grade pattern
  (2, 3, 2) on sp(3) with the nested brackets of the Schouten axioms, empty and
  grade-1 operands, and [Lambda_4, Lambda_4]).  The bracket inputs are stored
  next to their outputs and read back with ``Multivector.from_json``.

A command's result reaches stdout or ``--out`` by one path, ``cli.main``, which
also picks the exit code; every subcommand and every ``verify`` suite must have
a golden here (``test_every_command_and_suite_has_a_golden``).

A change that alters an output on purpose regenerates the files, names them in
CHANGES.md and updates ``golden/versions.json``, which records the Python, numpy
and BLAS versions and the kernel set OpenBLAS picked for the CPU (``openblas_core``):
the command goldens hold to the last bit only on that kernel set, so a mismatch
names the recorded core and the running one::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import argparse
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qflag import cli
from qflag.flags import random_ru
from qflag.hmat import QMatrix, random_symplectic
from qflag.liealg import Multivector, lambda_element, schouten

from util import from_rows, random_invertible, random_multivector

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 3
VERIFY = [(suite, n) for suite in ("lambda", "spheroid", "schouten") for n in (2, 3, 4, 5)]
BRACKET_SEEDS = (0, 1)

# argv of each command case; ``{golden}`` names this directory, and ``--out``
# paths are relative to the empty directory the case runs in
G4 = "{golden}/input_g4_seed3.json"
PROFILE = ["profile", "--rho-min", "0.25", "--rho-max", "3", "--steps", "4",
           "--directions", "2", "--seed", str(SEED)]
CASES = {
    "decompose_bruhat": ["decompose", "bruhat", "--input", G4],
    "decompose_iwasawa": ["decompose", "iwasawa", "--input", G4],
    "ddet": ["ddet", "--input", G4],
    "ddet_out": ["ddet", "--input", G4, "--out", "ddet.json"],
    "dress": ["dress", "--g", "{golden}/input_ru4_seed3.json",
              "--k", "{golden}/input_k4_seed3.json"],
    "leaf": ["leaf", "--word", "1 2 1 3", "--n", "4", "--seed", str(SEED)],
    "profile": PROFILE,
    "profile_out": [*PROFILE, "--out", "profile.csv"],
    **{f"verify_{suite}_n{n}": ["verify", suite, "--n", str(n), "--seed", str(SEED)]
       for suite, n in (("hp1", 2), ("leaves", 3), ("leaves", 4), ("dressing", 2),
                        ("dressing", 3), ("dressing", 8))},
    # exit 1: a size outside the suite's range, an --out in a missing directory
    "verify_schouten_n7": ["verify", "schouten", "--n", "7", "--seed", str(SEED)],
    "ddet_out_missing_dir": ["ddet", "--input", G4, "--out", "missing/ddet.json"],
    # exit 2: a singular matrix, a point past the chart boundary
    "decompose_bruhat_singular": ["decompose", "bruhat", "--input",
                                  "{golden}/input_singular2.json"],
    "profile_chart_boundary": ["profile", "--rho-min", "1", "--rho-max", "1e11",
                               "--steps", "2"],
}


def _verify(suite: str, n: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite, "--n", str(n), "--seed", str(SEED)])
    return code, out.getvalue()


def _inputs() -> dict[str, QMatrix]:
    """The matrices the command cases read, drawn from SEED."""
    rng = np.random.default_rng(SEED)
    return {"input_g4_seed3": random_invertible(4, rng), "input_ru4_seed3": random_ru(4, rng),
            "input_k4_seed3": random_symplectic(4, rng),
            "input_singular2": from_rows([[1, 1], [1, 1]])}


def _run(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and, if written, the ``--out`` file of one
    in-process run, in a fresh empty directory."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([a.format(golden=GOLDEN) for a in argv])
            record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            if "--out" in argv and (path := Path(argv[argv.index("--out") + 1])).exists():
                record["out"] = path.read_bytes().decode()
        finally:
            os.chdir(cwd)
    return record


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


@pytest.mark.parametrize("name", CASES)
def test_command_matches_golden(name):
    recorded = json.loads((GOLDEN / "versions.json").read_text())["openblas_core"]
    assert _run(CASES[name]) == json.loads((GOLDEN / f"cli_{name}.json").read_text()), (
        f"recorded on OpenBLAS core {recorded}, running on {_openblas_core()}")


def test_every_command_and_suite_has_a_golden():
    argvs = [*CASES.values(), *(["verify", suite] for suite, _ in VERIFY)]
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {argv[0] for argv in argvs}
    assert set(cli.SUITES) <= {argv[1] for argv in argvs if argv[0] == "verify"}
    # and no record outlives its case
    assert {p.name for p in GOLDEN.glob("cli_*.json")} == {f"cli_{name}.json" for name in CASES}


@pytest.mark.parametrize("name", BRACKETS)
def test_brackets_match_golden(name):
    stored = json.loads((GOLDEN / f"{name}.json").read_text())
    inputs = {k: Multivector.from_json(v) for k, v in stored["inputs"].items()}
    assert _dump(_brackets(inputs)) == _compact(stored["outputs"])


def _openblas_core() -> str | None:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU, or None where
    that library is not found."""
    root = Path(np.__file__).resolve().parent
    for path in [*root.parent.glob("numpy.libs/*scipy_openblas*"),
                 *root.glob(".dylibs/*scipy_openblas*")]:
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = (), ctypes.c_char_p
            return corename().decode()
    return None


def _versions() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "openblas_core": _openblas_core()}


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for suite, n in VERIFY:
        code, stdout = _verify(suite, n)
        assert code == cli.EXIT_OK, (suite, n, code)
        (GOLDEN / f"verify_{suite}_n{n}_seed{SEED}.json").write_text(stdout)
    for name, m in _inputs().items():
        (GOLDEN / f"{name}.json").write_text(_compact(m.to_json()) + "\n")
    for path in GOLDEN.glob("cli_*.json"):
        path.unlink()
    for name, argv in CASES.items():
        (GOLDEN / f"cli_{name}.json").write_text(
            json.dumps(_run(argv), indent=1, sort_keys=True) + "\n")
    cases = _bracket_cases()
    assert tuple(cases) == BRACKETS
    for name, inputs in cases.items():
        obj = {"inputs": {k: v.to_json() for k, v in inputs.items()},
               "outputs": json.loads(_dump(_brackets(inputs)))}
        (GOLDEN / f"{name}.json").write_text(_compact(obj) + "\n")
    (GOLDEN / "versions.json").write_text(json.dumps(_versions(), indent=1) + "\n")


if __name__ == "__main__":
    write_goldens()
