"""Calibration probe: a measure of the machine's speed while a run goes on.

The machine this benchmark was built on is a shared VM whose speed changes
with the host's load. A fixed loop runs up to twice as slow while the host is
busy, and the busy share drifts from minute to minute, so raw times of the
same code move by 20-30% between runs. After every task the run calls the
probe, which does not touch the library, for ``PROBE_SHARE`` of that task's
time. A round's time divided by the probe's mean time in that round is the
round's cost in probe units; the normalized metrics are that cost times
``PROBE_REF_S``, i.e. seconds on a machine where one probe takes exactly 3 ms.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_SHARE = 0.15
PROBE_REF_S = 3e-3
STEPS = 400
_MATRIX = np.array([[0.6, 0.1, 0.0], [0.0, 0.5, 0.2], [0.1, 0.0, 0.7]])
_OFFSET = np.array([0.1, 0.2, 0.3])
_rng = np.random.default_rng(0)
_CLOUD_A = _rng.random((300, 2))
_CLOUD_B = _rng.random((200, 2))


def probe():
    """Two fixed parts, each like one kind of the library's work: interpreter
    steps with 3x3 numpy products, like orbit stepping, and a 300x200
    pairwise-distance array, like thinning and distances between clouds."""
    y = np.zeros(3)
    total = 0.0
    for i in range(STEPS):
        y = _MATRIX @ y + _OFFSET
        total += float(y[0]) * 0.5 + i % 3
    gaps = _CLOUD_A[:, None, :] - _CLOUD_B[None, :, :]
    return total + float(np.sqrt((gaps**2).sum(axis=-1)).min(axis=1).sum())


def run_probes(seconds, times):
    """Call the probe until ``seconds`` have passed, at least once, appending
    each call's time to ``times``."""
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return
