"""A fixed heap policy for glibc's malloc, set once at import.

The design-layer kernels allocate and free arrays of 10 to 90 MB.  By
default glibc's thresholds slide with them: each mapped block freed
raises the mmap threshold to its size (up to 32 MiB), so later arrays
below it come from the brk heap, and the heap top is trimmed only once
its free part passes twice that threshold, and then all of it.  Whether
50 MB of freed arrays stay resident or go back therefore depends on the
last mapped block freed and on where small allocations landed.  The
resident peak of the same call varied between identical runs (the n = 13
balanced extension in a repeated benchmark pass: 287, 341 or 362 MB).

Here both thresholds are fixed instead: arrays below 32 MiB come from
the heap, and a freed heap top keeps a 64 MiB reserve resident, for the
next arrays to reuse without page faults, and goes back past it.
Without the reserve every array is faulted in afresh, and the n = 13
certificate pipeline took ~4.0 s per pass instead of ~3.0 s.  The
setting is process-wide; it changes how freed memory is reused, never
a result.
"""

from __future__ import annotations

import ctypes
import sys

_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20   # glibc's largest; the default slides up to it
TOP_PAD = 64 << 20


def configure_malloc() -> bool:
    """Fix the mmap threshold and the heap-top reserve of the C
    library's malloc; True when both settings took.  Linux C libraries
    have ``mallopt`` (musl accepts and ignores it); elsewhere nothing is
    done."""
    if not sys.platform.startswith("linux"):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # The threshold first: the reserve alone would freeze the threshold
    # wherever it had slid to.
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TOP_PAD, TOP_PAD) == 1)
