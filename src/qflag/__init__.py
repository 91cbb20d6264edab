"""Quaternionic matrix decompositions and 4-vector-field machinery on flags.

Importing the package sets two glibc ``mallopt`` parameters for the whole
process, as numpy's import sets its hugepage policy: blocks up to 32 MiB come
from the heap rather than a fresh ``mmap``, and up to 64 MiB of freed heap stays
in the process rather than going back to the system, so repeated calls reuse
their transients instead of faulting fresh pages in.  Off glibc the import sets
nothing.
"""

import ctypes
import sys

__version__ = "0.1.0"

# glibc's malloc.h parameter numbers; the mmap threshold at its 64-bit maximum,
# the trim threshold at twice that, the ratio glibc's own dynamic rule keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


def _keep_freed_heap() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_keep_freed_heap()
