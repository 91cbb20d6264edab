"""Command-line front end: decompositions, verification suites, CSV profiles.

Each ``cmd_*`` returns its result, a JSON object or the CSV text of ``profile``;
``main`` alone writes it, to stdout or ``--out``, and picks the exit code: 0 success,
1 usage/parse error or a path that cannot be opened, 2 mathematical failure (singular
input, a Dieudonne determinant outside the normal float range, a factor or result that
is not finite, a point at a chart boundary, or a report with ``"ok": false``).  Every
command is deterministic given its input and seed; QFLAG_SEED is the only environment fallback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import os
import sys
from functools import reduce
from itertools import permutations
from math import comb, ldexp

import numpy as np

from . import decomp, flags, hp1geom, liealg
from .hmat import Permutation, QMatrix, SingularMatrixError, pow2_scaled, word_to_permutation
from .quat import Quaternion

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2

# The tolerance of each verification suite.
DEFAULT_TOLERANCES = {
    "schouten_identity": 1e-10,
    "lambda_vanishing": 1e-12,
    "spheroid_invariance": 1e-12,
    "profile_ratio": 1e-6,
    "phase_deviation": 1e-8,
}
# verify lambda counts [Lambda_n, Lambda_n] as nonzero (n > 2) above this largest
# coefficient; verify hp1 counts the field at the North pole as zero up to this one
LAMBDA_NONZERO = 1e-3
NORTH_COEFF_TOL = 1e-10
# Random trials of the schouten and spheroid suites, orbit samples of dressing
SCHOUTEN_TRIALS = 25
SPHEROID_TRIALS = 50
DRESSING_SAMPLES = 100


def _load_matrix(path: str) -> QMatrix:
    with open(path) as fh:
        return QMatrix.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> dict:
    g = _load_matrix(args.input)
    if args.kind == "bruhat":
        form = decomp.bruhat(g)
        out, factors = form.to_json(), [form.U, form.D, form.w.matrix(), form.V]
    else:
        factors = list(decomp.iwasawa(g))
        out = dict(zip("KRU", (f.to_json() for f in factors)))
    # D or R scaled by 2^-e, exactly, so finite factors of a G near the float range have a
    # finite product; the error scaled back by 2^e is the unscaled one wherever that is finite
    scaled, e = pow2_scaled(g.data)
    factors[1] = QMatrix(np.ldexp(factors[1].data, -e))
    rebuilt = reduce(operator.matmul, factors)
    return out | {"reconstruction_error": ldexp((rebuilt - QMatrix(scaled)).frobenius(), e)}


def cmd_ddet(args) -> dict:
    return {"dieudonne_det": decomp.dieudonne_det(_load_matrix(args.input))}


def cmd_dress(args) -> dict:
    return decomp.dress(_load_matrix(args.g), _load_matrix(args.k)).to_json()


def cmd_leaf(args) -> dict:
    if not LEAF_N[0] <= args.n <= LEAF_N[1]:
        raise ValueError("leaf needs {} <= n <= {}".format(*LEAF_N))
    word = [int(r) - 1 for r in args.word.split()]
    rng = np.random.default_rng(args.seed)
    params = [Quaternion.from_array(x) for x in rng.normal(size=(len(word), 4))]
    lp = flags.leaf_point(word, params, args.n)
    sig = decomp.leaf_signature(lp.matrix)
    return {
        "word": [r + 1 for r in word],
        "n": args.n,
        "seed": args.seed,
        "matrix": lp.matrix.to_json(),
        "signature": {"w": sig.w.to_json(),
                      "phases": [p.to_json() for p in sig.phases]},
    }


def cmd_profile(args) -> str:
    if (not (0 < args.rho_min < args.rho_max < np.inf) or args.steps < 2 or args.directions < 1
            or args.steps * args.directions > PROFILE_POINTS):
        raise ValueError("need 0 < rho-min < rho-max < inf, steps >= 2, directions >= 1 "
                         f"and steps * directions <= {PROFILE_POINTS}")
    rhos = np.linspace(args.rho_min, args.rho_max, args.steps)
    rows = list(hp1geom.radial_profile(rhos, args.directions, args.seed))
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _random_multivector(n: int, grade: int, rng, nterms: int = 4) -> liealg.Multivector:
    dim = liealg.sp_basis(n).dim
    terms: dict[tuple[int, ...], float] = {}  # drawn without listing the C(dim, grade) subsets
    while len(terms) < min(nterms, comb(dim, grade)):
        t = tuple(sorted(int(i) for i in rng.choice(dim, size=grade, replace=False)))
        terms.setdefault(t, float(rng.normal()))
    return liealg.Multivector(n, grade, terms)


def suite_schouten(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(SCHOUTEN_TRIALS):
        p, q, r = (int(x) for x in rng.integers(1, 5, size=3))
        P = _random_multivector(n, p, rng)
        Q = _random_multivector(n, q, rng)
        R = _random_multivector(n, r, rng)
        anti = (liealg.schouten(P, Q)
                - liealg.schouten(Q, P).scale((-1.0) ** (p * q))).max_abs()
        leib = (liealg.schouten(P, Q.wedge(R))
                - liealg.schouten(P, Q).wedge(R)
                - Q.wedge(liealg.schouten(P, R)).scale((-1.0) ** (p * q + q))).max_abs()
        jac = (liealg.schouten(P, liealg.schouten(Q, R)).scale((-1.0) ** (p * (r - 1)))
               + liealg.schouten(Q, liealg.schouten(R, P)).scale((-1.0) ** (q * (p - 1)))
               + liealg.schouten(R, liealg.schouten(P, Q)).scale((-1.0) ** (r * (q - 1)))
               ).max_abs()
        worst = max(worst, anti, leib, jac)
    return {"suite": "schouten", "n": n, "seed": seed, "trials": SCHOUTEN_TRIALS,
            "max_residual": worst, "ok": worst <= DEFAULT_TOLERANCES["schouten_identity"]}


def suite_lambda(n: int, seed: int) -> dict:
    lam = liealg.lambda_element(n)
    br = liealg.schouten(lam, lam)
    ok = (br.max_abs() <= DEFAULT_TOLERANCES["lambda_vanishing"] if n == 2
          else br.max_abs() > LAMBDA_NONZERO)
    return {"suite": "lambda", "n": n, "seed": seed,
            "bracket_max_coeff": br.max_abs(), "ok": bool(ok)}


def suite_spheroid(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    basis = liealg.sp_basis(n)
    lam = liealg.lambda_element(n)
    worst = 0.0
    for _ in range(SPHEROID_TRIALS):
        coeffs = {(int(i),): float(rng.normal()) for i in basis.spheroid_indices}
        x = liealg.Multivector(n, 1, coeffs)
        worst = max(worst, liealg.ad_multivector(x, lam).max_abs())
    return {"suite": "spheroid", "n": n, "seed": seed, "trials": SPHEROID_TRIALS,
            "max_residual": worst, "ok": worst <= DEFAULT_TOLERANCES["spheroid_invariance"]}


def suite_hp1(n: int, seed: int) -> dict:
    rhos = [0.1, 0.25, 0.5, 1.0, 2.0, 3.0]
    rows = list(hp1geom.radial_profile(rhos, directions=5, seed=seed))
    worst = max(row["abs_err"] / row["expected_ratio"] for row in rows)
    north = abs(hp1geom.bruhat_field(hp1geom.ChartPoint.north(Quaternion())).coeff)
    ok = worst <= DEFAULT_TOLERANCES["profile_ratio"] and north <= NORTH_COEFF_TOL
    return {"suite": "hp1", "n": 2, "seed": seed, "max_rel_err": worst,
            "north_coeff": north, "ok": bool(ok)}


def suite_leaves(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    checked = []
    ok = True
    for word in (Permutation(perm).reduced_word() for perm in permutations(range(n))):
        w = len(word)
        params = [Quaternion.from_array(x)
                  for x in rng.normal(size=(w, 4)) * 0.7]
        lp = flags.leaf_point(word, params, n)
        cell = flags.cell_of(lp.matrix)
        good = cell == word_to_permutation(word, n)
        ok = ok and good
        checked.append({"word": [r + 1 for r in word], "cell_ok": good})
    return {"suite": "leaves", "n": n, "seed": seed, "words": checked, "ok": ok}


def suite_dressing(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    w = Permutation.longest(n)
    sigma = [Quaternion.from_array(x) for x in rng.normal(size=(n, 4))]
    sigma = [q * (1.0 / q.norm()) for q in sigma]
    k = QMatrix.diag(sigma) @ w.matrix()
    report = flags.orbit_probe(k, samples=DRESSING_SAMPLES, seed=seed + 1)
    report.update({"suite": "dressing", "seed": seed,
                   "ok": report["phase_dev"] <= DEFAULT_TOLERANCES["phase_deviation"]})
    return report


SUITES = {
    "schouten": suite_schouten,
    "lambda": suite_lambda,
    "spheroid": suite_spheroid,
    "hp1": suite_hp1,
    "leaves": suite_leaves,
    "dressing": suite_dressing,
}

# The sizes each suite runs on, (least n, most n): Lambda needs n >= 2, the
# Schouten draws go up to grade 4 > dim sp(1), and HP^1 sits in Sp(2).  The
# upper bounds keep a run under about a second and 50 MiB: the sp(n) suites
# build the dense structure constants, n^6 floats, in 45 ms with an 11 MiB peak
# at n = 6 (0.11 s, 28 MiB at n = 7); `leaves` checks all n! words; and
# `dressing` runs 100 Iwasawa factorizations of size n.
SUITE_N = {"schouten": (2, 6), "lambda": (2, 6), "spheroid": (2, 6),
           "hp1": (2, 2), "leaves": (1, 6), "dressing": (1, 32)}
# `leaf` multiplies n x n matrices along up to n(n - 1)/2 letters: at n = 64 the longest
# word, with its signature, takes 0.55 s and 0.9 MiB traced on a 2-vCPU host.  `profile`
# holds 1.8 KB per point: 10^4 points take 0.08 s and 17.5 MiB (0.75 s, 174 MiB at 10^5).
LEAF_N = (1, 64)
PROFILE_POINTS = 10_000


def cmd_verify(args) -> dict:
    least, most = SUITE_N[args.suite]
    if not least <= args.n <= most:
        raise ValueError(f"verify {args.suite} needs {least} <= n <= {most}")
    return SUITES[args.suite](args.n, args.seed)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qflag",
        description="Quaternionic Bruhat decompositions and 4-vector-field checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # argparse converts a string default by type=int only when --seed is absent,
    # so a malformed QFLAG_SEED is a usage error of the commands that take a seed
    seed = os.environ.get("QFLAG_SEED", "0")

    p = sub.add_parser("decompose", help="strict Bruhat or Iwasawa decomposition")
    p.add_argument("kind", choices=["bruhat", "iwasawa"])
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("ddet", help="Dieudonne determinant")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_ddet)

    p = sub.add_parser("dress", help="dressing action of an RU element")
    p.add_argument("--g", required=True)
    p.add_argument("--k", required=True)
    p.set_defaults(fn=cmd_dress)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("profile", help="emit the HP^1 radial-profile CSV")
    p.add_argument("--rho-min", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--directions", type=int, default=1)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("leaf", help="sample a leaf point for a reduced word")
    p.add_argument("--word", required=True, help="1-based positions, e.g. '1 2 1'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(fn=cmd_leaf)

    for p in sub.choices.values():
        p.add_argument("--out")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        result = args.fn(args)  # a JSON object, or the text of a CSV
        try:
            text = (result if isinstance(result, str)
                    else json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n")
        except ValueError:  # a NaN or an infinity, which JSON cannot hold
            raise OverflowError("result is not finite") from None
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (SingularMatrixError, OverflowError, hp1geom.ChartBoundaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_MATH if isinstance(result, dict) and not result.get("ok", True) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
