"""The benchmark's four workloads.

Each workload makes a pool of inputs from a seed before timing starts, and
each of its tasks is the same composite unit of work on one input, so that
task latency has a single mode.  A task calls qflag only through ``call``,
which either runs the function (untraced) or records a span around it.  A
task raises :class:`CheckFailed` when an output misses its bound; the bounds
are the acceptance gate's where the gate has one.

Workloads, and the layer each one isolates:

* ``decomp-n32``: one random 32x32 quaternion matrix through every
  decomposition, the inverse and ``expm``; the O(n^3) Python loops of
  ``hmat``/``decomp`` dominate and ``liealg``/``hp1geom`` stay idle.
* ``exterior-sp3``: the multiplicativity identity of Ad on Lambda_3, one
  Schouten-axiom triple and one 4-bracket sign check over sp(3); pure
  ``liealg`` dict arithmetic, ``hmat`` sees only n = 3.
* ``geometry-small``: chart geometry on HP^1 and a leaf probe in S_3; every
  call works on 2x2 or 3x3 matrices, so per-call overhead dominates.
* ``cli-cold``: one fresh ``qflag`` process per task running a
  startup-dominated command; import, argparse and JSON dominate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from qflag import decomp, flags, hmat, hp1geom, liealg
from qflag.hmat import QMatrix
from qflag.quat import Quaternion

from spans import FLOPS_PER_QMADD

ROOT = Path(__file__).resolve().parent.parent

# Reduced words of the six elements of S_3 (0-based adjacent transpositions).
S3_WORDS = ([], [0], [1], [0, 1], [1, 0], [0, 1, 0])


class CheckFailed(Exception):
    """A task's output missed its correctness bound."""


def _check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Input generation and oracles in plain numpy, independent of qflag's kernels
# ---------------------------------------------------------------------------

def chi(d: np.ndarray) -> np.ndarray:
    """Complex adjoint of a (rows, cols, 4) quaternion array.

    ``q = z1 + z2 j`` becomes the block ``[[z1, z2], [-conj(z2), conj(z1)]]``;
    the map is an injective algebra homomorphism.
    """
    z1 = d[..., 0] + 1j * d[..., 1]
    z2 = d[..., 2] + 1j * d[..., 3]
    rows, cols = z1.shape
    out = np.empty((2 * rows, 2 * cols), dtype=complex)
    out[0::2, 0::2] = z1
    out[0::2, 1::2] = z2
    out[1::2, 0::2] = -z2.conj()
    out[1::2, 1::2] = z1.conj()
    return out


def unchi(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`chi` on its image."""
    z1, z2 = c[0::2, 0::2], c[0::2, 1::2]
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def qmm(*mats: np.ndarray) -> np.ndarray:
    """Product of quaternion arrays, computed through the complex adjoint."""
    out = chi(mats[0])
    for m in mats[1:]:
        out = out @ chi(m)
    return unchi(out)


def qstar(d: np.ndarray) -> np.ndarray:
    out = d.transpose(1, 0, 2).copy()
    out[..., 1:] *= -1.0
    return out


def unitarity_error(d: np.ndarray) -> float:
    """||K* K - I||_F for a quaternion array K."""
    c = chi(d)
    # chi doubles every entry of the quaternion Frobenius norm's square.
    return float(np.linalg.norm(c.conj().T @ c - np.eye(len(c))) / np.sqrt(2.0))


def ru_error(d: np.ndarray) -> float:
    """Distance of a square quaternion array from RU, relative to its norm.

    RU holds the upper triangular matrices with positive real diagonal.
    """
    n = d.shape[0]
    diag = d[np.arange(n), np.arange(n)]
    if np.any(diag[:, 0] <= 0.0):
        return float("inf")
    lower = d[np.tril_indices(n, -1)]
    off = np.sqrt(np.sum(lower * lower) + np.sum(diag[:, 1:] ** 2))
    return float(off / np.linalg.norm(d))


def random_sp(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian element of sp(n): X = (A - A*)/2."""
    a = rng.normal(size=(n, n, 4))
    return 0.5 * (a - qstar(a))


def random_symplectic(n: int, rng: np.random.Generator) -> QMatrix:
    """Cayley transform (I - X)^{-1}(I + X) of a Gaussian X in sp(n)."""
    x = chi(random_sp(n, rng))
    eye = np.eye(2 * n)
    return QMatrix(unchi(np.linalg.solve(eye - x, eye + x)))


def random_ru(n: int, rng: np.random.Generator) -> QMatrix:
    """Log-uniform diagonal in [0.5, 2], Gaussian (sigma 0.5) upper entries."""
    d = np.zeros((n, n, 4))
    d[np.arange(n), np.arange(n), 0] = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=n))
    iu = np.triu_indices(n, 1)
    d[iu] = rng.normal(scale=0.5, size=(len(iu[0]), 4))
    return QMatrix(d)


def random_multivector(n: int, grade: int, rng: np.random.Generator,
                       nterms: int = 4) -> liealg.Multivector:
    dim = n * (2 * n + 1)
    terms: dict[tuple[int, ...], float] = {}
    while len(terms) < nterms:
        t = tuple(sorted(int(i) for i in rng.choice(dim, size=grade, replace=False)))
        terms.setdefault(t, float(rng.normal()))
    return liealg.Multivector(n, grade, terms)


def word_permutation(word, n: int) -> tuple[int, ...]:
    """One-line form of s_{r_1} o ... o s_{r_m} (0-based)."""
    out = []
    for j in range(n):
        x = j
        for r in reversed(word):
            x = r + 1 if x == r else r if x == r + 1 else x
        out.append(x)
    return tuple(out)


def _matmul(call, a: QMatrix, b: QMatrix) -> QMatrix:
    flops = FLOPS_PER_QMADD * a.n_rows * a.n_cols * b.n_cols
    return call("hmat", "matmul", QMatrix.__matmul__, a, b, flops=flops)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A named task with its seeded inputs; ``task`` raises on a bad output."""

    name: str
    sizes: dict

    def setup(self) -> dict:
        """One-time set-up paid before the first task; returns timings."""
        return {}

    def make_inputs(self, seed: int, scratch: Path) -> list:
        raise NotImplementedError

    def task(self, inp, call) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``make_inputs`` created."""


class DecompN32(Workload):
    """bruhat, dieudonne_det, iwasawa, dress, inverse and expm at n = 32."""

    name = "decomp-n32"
    n = 32
    pool = 32
    sizes = {"n": 32}

    def make_inputs(self, seed: int, scratch: Path) -> list:
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.pool):
            g = rng.normal(size=(self.n, self.n, 4))
            # det of the complex adjoint is the squared Dieudonne determinant
            det_chi = float(np.linalg.det(chi(g)).real)
            out.append((QMatrix(g), random_ru(self.n, rng),
                        QMatrix(random_sp(self.n, rng)), det_chi))
        return out

    def task(self, inp, call) -> None:
        g, ru, x, det_chi = inp
        scale = g.frobenius()

        form = call("decomp", "bruhat", decomp.bruhat, g)
        recon = _matmul(call, _matmul(call, _matmul(call, form.U, form.D),
                                      form.w.matrix()), form.V)
        _check((recon - g).frobenius() <= 1e-8 * scale, "bruhat: U D P_w V != G")

        ddet = call("decomp", "dieudonne_det", decomp.dieudonne_det, g)
        _check(abs(ddet * ddet / det_chi - 1.0) <= 1e-9,
               "dieudonne_det: squared value != det of the complex adjoint")

        k, r, u = call("decomp", "iwasawa", decomp.iwasawa, g)
        recon = _matmul(call, _matmul(call, k, r), u)
        _check((recon - g).frobenius() <= 1e-8 * scale, "iwasawa: K R U != G")
        _check(unitarity_error(k.data) <= 1e-10, "iwasawa: K* K != I")
        _check(ru_error(r.data) == 0.0 and ru_error(u.data) <= 1e-12,
               "iwasawa: R or U outside RU")

        k2 = call("decomp", "dress", decomp.dress, ru, k)
        _check(unitarity_error(k2.data) <= 1e-10, "dress: K'* K' != I")
        t = _matmul(call, k2.conj_transpose(), _matmul(call, ru, k))
        _check(ru_error(t.data) <= 1e-8, "dress: K'^-1 G K outside RU")

        ginv = call("hmat", "inverse", QMatrix.inverse, g)
        err = (_matmul(call, g, ginv) - QMatrix.identity(self.n)).frobenius()
        _check(err <= 1e-8, "inverse: G G^-1 != I")

        e = call("hmat", "expm", hmat.expm, x)
        _check(unitarity_error(e.data) <= 1e-10, "expm: exp(X) not symplectic")


class ExteriorSp3(Workload):
    """Criterion 11's identity, Schouten axioms and a 4-bracket over sp(3)."""

    name = "exterior-sp3"
    n = 3
    pool = 128
    # Fixed grades keep every task the same work: the cost of the axiom
    # checks grows about 80-fold from grades (1, 1, 1) to (4, 4, 4).
    grades = (2, 3, 2)
    sizes = {"n": 3, "dim": 21, "multivector_terms": 4, "schouten_grades": grades}

    def setup(self) -> dict:
        t0 = perf_counter()
        liealg.sp_basis(self.n).struct
        setup_s = perf_counter() - t0
        self.lam = liealg.lambda_element(self.n)
        return {"liealg.setup_s": setup_s}

    def make_inputs(self, seed: int, scratch: Path) -> list:
        rng = np.random.default_rng(seed)
        dim = self.sizes["dim"]
        out = []
        for _ in range(self.pool):
            g, h = random_symplectic(self.n, rng), random_symplectic(self.n, rng)
            mvs = tuple(random_multivector(self.n, k, rng) for k in self.grades)
            zs = tuple(liealg.DualVector(self.n, rng.normal(size=dim)) for _ in range(4))
            out.append((g, h, mvs, zs))
        return out

    def task(self, inp, call) -> None:
        g, h, (P, Q, R), zs = inp
        p, q, r = self.grades
        lam = self.lam

        def ad_matrix(m):
            return call("liealg", "ad_group_matrix", liealg.ad_group_matrix, m)

        def ad(a, mv, kind):
            return call("liealg", f"apply_exterior.{kind}", liealg.apply_exterior, a, mv)

        a_gh = ad_matrix(_matmul(call, g, h))
        a_g, a_h = ad_matrix(g), ad_matrix(h)
        lhs = ad(a_gh, lam, "lambda") - lam
        moved_h = ad(a_h, lam, "lambda") - lam
        rhs = ad(a_g, moved_h, "moved") + (ad(a_g, lam, "lambda") - lam)
        _check((lhs - rhs).max_abs() <= 1e-10, "multiplicativity of Ad on Lambda_3")

        def br(a, b):
            return call("liealg", "schouten", liealg.schouten, a, b)

        def wedge(a, b):
            return call("liealg", "wedge", liealg.Multivector.wedge, a, b)

        anti = br(P, Q) - br(Q, P).scale((-1.0) ** (p * q))
        leib = (br(P, wedge(Q, R)) - wedge(br(P, Q), R)
                - wedge(Q, br(P, R)).scale((-1.0) ** (p * q + q)))
        jac = (br(P, br(Q, R)).scale((-1.0) ** (p * (r - 1)))
               + br(Q, br(R, P)).scale((-1.0) ** (q * (p - 1)))
               + br(R, br(P, Q)).scale((-1.0) ** (r * (q - 1))))
        _check(anti.max_abs() <= 1e-10, "Schouten antisymmetry")
        _check(leib.max_abs() <= 1e-10, "Schouten Leibniz rule")
        _check(jac.max_abs() <= 1e-10, "Schouten Jacobi identity")

        z1, z2, z3, z4 = zs
        fb = call("liealg", "four_bracket", liealg.four_bracket, z1, z2, z3, z4)
        swapped = call("liealg", "four_bracket", liealg.four_bracket, z2, z1, z3, z4)
        size = max(1.0, float(np.max(np.abs(fb.coeffs))))
        _check(float(np.max(np.abs(fb.coeffs + swapped.coeffs))) <= 1e-10 * size,
               "four_bracket does not change sign under a swap")


class GeometrySmall(Workload):
    """HP^1 field, rank and Lie-derivative checks plus a leaf probe in S_3."""

    name = "geometry-small"
    pool = 256
    sizes = {"n_chart": 2, "n_leaf": 3, "rho": [0.1, 3.0], "x_terms": 4}

    def setup(self) -> dict:
        t0 = perf_counter()
        liealg.sp_basis(2).struct
        setup_s = perf_counter() - t0
        self.lam = liealg.lambda_element(2)
        # scales the Bruhat coefficient to the closed form (1 + rho^2)(1 + 3 rho^4)
        self.norm = hp1geom.bruhat_normalization()
        return {"liealg.setup_s": setup_s}

    def make_inputs(self, seed: int, scratch: Path) -> list:
        rng = np.random.default_rng(seed)
        return [self._input(rng) for _ in range(self.pool)]

    @staticmethod
    def _input(rng: np.random.Generator) -> tuple:
        rho = float(rng.uniform(0.1, 3.0))
        d = rng.normal(size=4)
        p = hp1geom.ChartPoint.south(Quaternion.from_array(rho * d / np.linalg.norm(d)))
        x = random_multivector(2, 1, rng)
        word = S3_WORDS[int(rng.integers(len(S3_WORDS)))]
        params = [Quaternion.from_array(v) for v in 0.7 * rng.normal(size=(len(word), 4))]
        return p, rho, x, word, params, word_permutation(word, 3), random_ru(3, rng)

    def task(self, inp, call) -> None:
        p, rho, x, word, params, perm, ru = inp

        f = call("hp1geom", "bruhat_field", hp1geom.bruhat_field, p).coeff
        closed = self.norm * (1.0 + rho ** 2) * (1.0 + 3.0 * rho ** 4)
        _check(abs(f / closed - 1.0) <= 1e-6, "bruhat_field: off the closed form")

        k = call("hp1geom", "coset_rep", hp1geom.coset_rep, p)
        moved = call("liealg", "ad_group.n2", liealg.ad_group, k, self.lam) - self.lam
        f2 = call("hp1geom", "pushforward_coeff", hp1geom.pushforward_coeff, p, moved)
        _check(abs(f2 - f) <= 1e-9 * abs(f), "bruhat_field != pushforward of Ad_k Lambda - Lambda")

        _check(call("hp1geom", "rank_at", hp1geom.rank_at, p) == 4, "rank_at != 4")
        resid = call("hp1geom", "lie_derivative_check", hp1geom.lie_derivative_check, p, x)
        _check(resid <= 1e-3, "lie_derivative_check residual above 1e-3")

        lp = call("flags", "leaf_point", flags.leaf_point, word, params, 3)
        cell = call("flags", "cell_of", flags.cell_of, lp.matrix)
        _check(cell.one_line == perm, "cell_of != permutation of the word")
        sig0 = call("decomp", "leaf_signature", decomp.leaf_signature, lp.matrix)
        k2 = call("decomp", "dress", decomp.dress, ru, lp.matrix)
        sig1 = call("decomp", "leaf_signature", decomp.leaf_signature, k2)
        _check(sig1.w.one_line == sig0.w.one_line, "dressing changed the leaf's cell")
        dev = max((np.linalg.norm(a.to_array() - b.to_array())
                   for a, b in zip(sig0.phases, sig1.phases)), default=0.0)
        _check(dev <= 1e-8, "dressing changed the leaf's phases")


CLI_COMMANDS = ("decompose_bruhat", "decompose_iwasawa", "ddet", "dress", "leaf",
                "verify_leaves", "verify_lambda", "verify_spheroid")


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(argv: list[str]) -> dict:
    """Run one ``qflag`` command in a fresh interpreter and parse its JSON."""
    proc = subprocess.run([sys.executable, "-m", "qflag.cli", *argv], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise CheckFailed(f"qflag {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


class CliCold(Workload):
    """One fresh ``qflag`` process per task, commands taken round-robin."""

    name = "cli-cold"
    pool = 4  # inputs per command
    sizes = {"decompose_n": 8, "dress_n": 4, "leaf_n": 3, "verify_n": 3,
             "commands": len(CLI_COMMANDS)}
    tmp: Path | None = None

    def make_inputs(self, seed: int, scratch: Path) -> list:
        rng = np.random.default_rng(seed)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-inputs-", dir=scratch))
        out = []
        for j in range(self.pool):
            g = rng.normal(size=(8, 8, 4))
            ru, k = random_ru(4, rng), random_symplectic(4, rng)
            paths = {}
            for key, m in (("g", QMatrix(g)), ("ru", ru), ("k", k)):
                paths[key] = str(self.tmp / f"{key}{j}.json")
                with open(paths[key], "w") as fh:
                    json.dump(m.to_json(), fh)
            word = S3_WORDS[1 + int(rng.integers(len(S3_WORDS) - 1))]
            vseed = str(int(rng.integers(1 << 30)))
            out += [
                ("decompose_bruhat", ["decompose", "bruhat", "--input", paths["g"]], g),
                ("decompose_iwasawa", ["decompose", "iwasawa", "--input", paths["g"]], g),
                ("ddet", ["ddet", "--input", paths["g"]], float(np.linalg.det(chi(g)).real)),
                ("dress", ["dress", "--g", paths["ru"], "--k", paths["k"]], (ru.data, k.data)),
                ("leaf", ["leaf", "--word", " ".join(str(r + 1) for r in word), "--n", "3",
                          "--seed", vseed], word_permutation(word, 3)),
                ("verify_leaves", ["verify", "leaves", "--n", "3", "--seed", vseed], "leaves"),
                ("verify_lambda", ["verify", "lambda", "--n", "3", "--seed", vseed], "lambda"),
                ("verify_spheroid", ["verify", "spheroid", "--n", "3", "--seed", vseed],
                 "spheroid"),
            ]
        return [out[i] for i in rng.permutation(len(out))]

    def task(self, inp, call) -> None:
        command, argv, expect = inp
        out = call("cli", command, run_cli, argv)
        check_cli_output(command, out, expect)

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


def _entries(obj: dict) -> np.ndarray:
    return np.array(obj["entries"], dtype=float)


def _perm_matrix(one_line_1based) -> np.ndarray:
    n = len(one_line_1based)
    p = np.zeros((n, n, 4))
    for j, i in enumerate(one_line_1based):
        p[i - 1, j, 0] = 1.0
    return p


def check_cli_output(command: str, out: dict, expect) -> None:
    """Check a parsed CLI result with numpy oracles."""
    if command == "decompose_bruhat":
        g = expect
        recon = qmm(_entries(out["U"]), _entries(out["D"]),
                    _perm_matrix(out["w"]["one_line"]), _entries(out["V"]))
        _check(np.linalg.norm(recon - g) <= 1e-8 * np.linalg.norm(g), "bruhat: U D P_w V != G")
    elif command == "decompose_iwasawa":
        g = expect
        k = _entries(out["K"])
        recon = qmm(k, _entries(out["R"]), _entries(out["U"]))
        _check(np.linalg.norm(recon - g) <= 1e-8 * np.linalg.norm(g), "iwasawa: K R U != G")
        _check(unitarity_error(k) <= 1e-10, "iwasawa: K* K != I")
    elif command == "ddet":
        value = float(out["dieudonne_det"])
        _check(abs(value * value / expect - 1.0) <= 1e-9,
               "ddet: squared value != det of the complex adjoint")
    elif command == "dress":
        ru, k = expect
        k2 = _entries(out)
        _check(unitarity_error(k2) <= 1e-10, "dress: K'* K' != I")
        _check(ru_error(qmm(qstar(k2), ru, k)) <= 1e-8, "dress: K'^-1 G K outside RU")
    elif command == "leaf":
        w = tuple(i - 1 for i in out["signature"]["w"]["one_line"])
        _check(w == expect, "leaf: signature permutation != word")
        _check(unitarity_error(_entries(out["matrix"])) <= 1e-10, "leaf: matrix not symplectic")
        phases = np.array(out["signature"]["phases"], dtype=float)
        _check(np.max(np.abs(phases - [1.0, 0.0, 0.0, 0.0])) <= 1e-8, "leaf: nontrivial phases")
    else:
        _check(out.get("suite") == expect and out.get("ok") is True, f"verify {expect} failed")


WORKLOADS = {w.name: w for w in (DecompN32, ExteriorSp3, GeometrySmall, CliCold)}
