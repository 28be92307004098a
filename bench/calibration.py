"""A fixed piece of work that tells how fast the machine runs right now.

The benchmark runs on shared hosts whose speed can swing by tens of
percent within minutes, and the same job's wall time swings with it. The
kernel below is timed next to every job; scaling the job's wall time by
``REFERENCE_S / kernel time`` gives the job's time at one fixed machine
speed, the speed at which the kernel takes REFERENCE_S. The kernel never
calls the package, so a change to the program moves the scaled time by as
much as it moves the wall time.

The kernel mixes the kinds of work a transfer job does: formatting and
parsing floats as text (the CSV layer), a pure-Python multiply-add loop
(the autocorrelation loop), and small least-squares fits and an FFT in
numpy (trend fits and the power spectrum).

A cold start of the interpreter is mostly process creation, loading shared
libraries and importing modules, work the kernel does not resemble and
does not track. Cold starts are scaled instead by a cold start that
imports only numpy, the bulk of what ``import cycletransfer.cli`` loads.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-core machine the workload sizes were set on.
REFERENCE_S = 0.02

# Code run by the reference cold start, and its median wall time on that machine.
IMPORT_REFERENCE = "import numpy"
IMPORT_REFERENCE_S = 0.2

_RNG = np.random.default_rng(20211)
_VALUES = _RNG.standard_normal(7_500)
_SERIES = list(_RNG.standard_normal(1_000))
_DESIGN = np.column_stack([np.ones(300), np.arange(300.0), np.arange(300.0) ** 2])
_OBSERVED = _RNG.standard_normal(300)
_SIGNAL = _RNG.standard_normal(65_536)


def kernel() -> float:
    """Do the fixed work once; return a checksum of it."""
    text = ",".join("%.9g" % v for v in _VALUES)
    total = sum(float(cell) for cell in text.split(","))
    n = len(_SERIES)
    for lag in range(0, 80, 2):
        acc = 0.0
        for i in range(n - lag):
            acc += _SERIES[i] * _SERIES[i + lag]
        total += acc
    for _ in range(200):
        coef, *_ = np.linalg.lstsq(_DESIGN, _OBSERVED, rcond=None)
        total += float(coef[0])
    total += float(np.abs(np.fft.rfft(_SIGNAL)).max())
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
