"""General-n experiments: leaf parametrizations, cells, and dressing orbits.

A leaf point for a reduced word (r_1, ..., r_m) is the product of embedded
2x2 blocks ``k_{v_i}`` at rows (r_i, r_i + 1); for generic parameters its
Bruhat permutation type is the product of the word's adjacent transpositions
and its diagonal phases are trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import Chart, _coset_reps, south_coord
from .decomp import _iwasawa_k, _leaf_signature, _row_reduce
from .hmat import Permutation, QMatrix, chi, require_symplectic, word_to_permutation
from .quat import Quaternion, qconj

__all__ = [
    "LeafPoint",
    "leaf_point",
    "cell_of",
    "leaf_dimension",
    "orbit_probe",
    "random_ru",
]

# orbit_probe takes a base point's phases as trivial within this distance of 1
TRIVIAL_PHASE_TOL = 1e-8


@dataclass
class LeafPoint:
    n: int
    matrix: QMatrix


def _reduced_word(word, n: int) -> list[int]:
    """The word's letters; ``ValueError`` unless they lie in range(n - 1) and it is reduced."""
    word = [int(r) for r in word]
    if word_to_permutation(word, n).length() != len(word):
        raise ValueError("word is not reduced")
    return word


def leaf_point(word, params, n: int) -> LeafPoint:
    """Product of embedded k_{v_i} blocks along a reduced word, one _coset_reps batch."""
    word = _reduced_word(word, n)
    params = list(params)
    if len(word) != len(params):
        raise ValueError("word and params must have the same length")
    m = QMatrix.identity(n)
    pairs = m.data.view(complex).reshape(n, 2 * n)  # row i of m as (z1, z2) pairs
    blocks = _coset_reps(Chart.SOUTH, np.reshape([v.to_array() for v in params], (-1, 4)))
    for r, k in zip(word, chi(blocks)):
        pairs[:, 2 * r:2 * r + 4] = pairs[:, 2 * r:2 * r + 4] @ k  # the two columns it moves
    return LeafPoint(n=n, matrix=m)


def cell_of(k: QMatrix) -> Permutation:
    """Bruhat cell (permutation type) of a symplectic matrix, read off the
    row reduction of its Bruhat form."""
    require_symplectic(k.data, "cell_of")
    return Permutation(_row_reduce(k)[1])


def _leaf_jacobian(word: list[int], base: np.ndarray, n: int) -> np.ndarray:
    """(4m, dim sp(n)) differential of the word map at the (m, 4) parameters
    ``base``, right-translated to sp(n) coordinates: row 4i + a is
    ``Ad_P(dk_v/dv_a k_v*)`` for v = v_i and P the product of the blocks before
    block i, of which only columns r_i, r_i + 1 enter.  By the closed form of
    k_v (:func:`chart._coset_reps`), ``dk_v/dv_a = s diag(-conj(e_a), e_a)
    - v_a s^2 k_v`` with ``s = (1 + |v|^2)^(-1/2)``; the second term adds
    ``-v_a s^2 C C*`` for those two columns C of P, which is Hermitian, so the
    projection onto sp(n) drops it.  Only :func:`leaf_dimension` calls it, so
    ``sp_basis`` is imported here and the leaf commands load no :mod:`qflag.liealg`."""
    from .liealg import sp_basis
    units = np.zeros((4, 2, 2, 4))
    units[:, 0, 0], units[:, 1, 1] = -qconj(np.eye(4)), np.eye(4)
    units = chi(units)
    prefix = np.eye(2 * n, dtype=complex)  # chi of the product of the blocks so far
    tangents = []
    for r, v, k in zip(word, base, chi(_coset_reps(Chart.SOUTH, base))):
        cols = prefix[:, 2 * r:2 * r + 4]
        tangents.append(cols @ units @ k.conj().T @ cols.conj().T / np.sqrt(1.0 + v @ v))
        prefix[:, 2 * r:2 * r + 4] = cols @ k
    return sp_basis(n).coords(np.reshape(tangents, (-1, 2 * n, 2 * n)))


def leaf_dimension(word, n: int, seed: int = 0) -> int:
    """Numerical rank of the differential of the word product map, the exact
    :func:`_leaf_jacobian` at a random base point, with numpy's default
    tolerance ``sigma_max * max(M, N) * eps``.  Expected 4m for a reduced
    word of length m; ``ValueError`` for a word :func:`leaf_point` rejects."""
    word = _reduced_word(word, n)
    m = len(word)
    if m == 0:
        return 0
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(m, 4))
    base *= (0.3 + 0.9 * rng.random((m, 1))) / np.linalg.norm(base, axis=1, keepdims=True)
    return int(np.linalg.matrix_rank(_leaf_jacobian(word, base, n)))


def random_ru(n: int, rng: np.random.Generator) -> QMatrix:
    """Random element of RU: log-uniform positive diagonal in [0.5, 2],
    Gaussian (sigma = 0.5) strictly-upper quaternion entries."""
    g = QMatrix.zeros(n, n)
    for i in range(n):
        g.data[i, i, 0] = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        g.data[i, i + 1:] = rng.normal(scale=0.5, size=(n - 1 - i, 4))
    return g


def orbit_probe(k: QMatrix, samples: int, seed: int) -> dict:
    """Dressing-orbit report: signature constancy across random RU samples.

    For n = 2 with base point in the 4-cell, also reports the worst
    reconstruction error of orbit points against the k_v chart form.
    """
    require_symplectic(k.data, "orbit_probe")
    n = k.n_rows
    rng = np.random.default_rng(seed)
    sig0 = _leaf_signature(k)
    trivial_phases = all((p - Quaternion(1)).norm() < TRIVIAL_PHASE_TOL for p in sig0.phases)
    max_dev = 0.0
    max_recon = None
    for _ in range(samples):
        k2 = _iwasawa_k(random_ru(n, rng) @ k)[0]  # dress, unchecked: RU by construction
        sig = _leaf_signature(k2)
        max_dev = max(max_dev, sig0.deviation(sig))
        if n == 2 and sig0.w.length() == 1 and trivial_phases:
            rep = _coset_reps(Chart.SOUTH, south_coord(k2).to_array()[None])[0]
            recon = (k2 - QMatrix(rep)).frobenius()
            max_recon = recon if max_recon is None else max(max_recon, recon)
    report = {
        "kind": "orbit_probe",
        "n": n,
        "w": [i + 1 for i in sig0.w.one_line],
        "phase_dev": max_dev,
        "samples": samples,
        "seed": seed,
    }
    if max_recon is not None:
        report["kv_reconstruction_err"] = max_recon
    return report
