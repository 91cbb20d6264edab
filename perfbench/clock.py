"""Host speed, read from a fixed calibration kernel that does not use qflag.

On a shared host, other tenants slow this machine by up to about 2 times,
in phases of seconds to minutes, and the calibration kernel slows with it.
The benchmark scales every duration it reports to the host's reference
speed: a duration ``dt`` measured between two kernel timings ``k0`` and
``k1`` reads ``dt * REF_S / ((k0 + k1) / 2)``.  A change to qflag does not
move the kernel.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the kernel's time on a 2-vCPU Xeon VM (2.1 GHz) when its host is
# idle, so scaled times read close to that machine's unloaded wall times.
REF_S = 0.00115
SAMPLES = 3

_M = np.full((8, 8), 0.125)  # M @ M == M, so the products stay bounded
_Q = np.full((32, 32, 4), 1.0 / 32.0)  # a 32x32 quaternion-shaped array, likewise


def kernel() -> float:
    """Python dict and tuple work, small numpy calls and a 32x32x4 array
    contraction: the mix that qflag's hot paths run.  Host load slows the
    three parts by different factors (the contraction least), and the mix
    keeps the kernel's slowdown close to that of the workloads."""
    acc: dict[tuple[int, int], float] = {}
    for i in range(1500):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    m = _M
    x = np.arange(16.0)
    s = 0.0
    for _ in range(150):
        m = m @ _M
        s += float(np.dot(x, x))
        x = np.sqrt(x + 1.0)
    q = _Q
    for _ in range(2):
        q = np.einsum("ijk,jlk->ilk", q, _Q)
    return sum(acc.values()) + float(m[0, 0]) + s + float(q[0, 0, 0])


def kernel_time() -> float:
    """Median seconds of ``SAMPLES`` kernel runs."""
    times = []
    for _ in range(SAMPLES):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[SAMPLES // 2]


def speed_scale(before: float, after: float) -> float:
    """The factor that turns a duration measured between two kernel
    timings into one at the reference speed."""
    return REF_S / (0.5 * (before + after))
