"""Machine-speed references for the benchmark's timings.

On a host shared with other tenants, their load slows the benchmark in
phases that last from seconds to minutes.  The slowdown does not show as
steal time, and CPU time tracks wall time, so no clock of the
benchmark's own process can subtract it.  How much a phase slows a piece
of code depends on the kind of work it does, so each workload is scaled
by a fixed kernel of its own kind of work, timed before its first unit
and after each unit:

- ``riccati``: 100 four-stage steps of a complex array of 1280
  transform nodes, with a scalar numpy variance rate per stage and an
  overflow check per step, the shape of the characteristic function's
  Riccati pass.  It is the reference of calibrate.
- ``mc_block``: one block of 8192 paths, 100 steps of Philox normals,
  a 3x3 correlation product and Euler updates, the shape of the MC
  engine's inner loop.  It is the reference of drift-study and strip.
  It runs on one thread: on strip, probing with the engine's two threads
  at once tracked the workload worse than one thread did.

A timing multiplied by the `scale` of the probes around it reads as
seconds at the machine's reference speed, so runs made in slow and quiet
phases compare.  The kernels are part of the benchmark, not of the
program: a change to fwdvol moves the timings and leaves the probes
where they were.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Probe time of each kernel on one thread in a quiet phase on a 2-core
# Intel Xeon at 2.0 GHz.  They only set the scale of the scaled timings,
# which compare with each other.
REFERENCE_S = {"riccati": 0.030, "mc_block": 0.065}

_CORRELATION = np.array([[1.0, 0.0, 0.0], [0.3, 0.95, 0.0], [0.2, 0.1, 0.97]])


def _variance_rate(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 2.0):
        raise ValueError("t outside [0, 2]")
    h = 2.0 - t
    e1, e2 = np.exp(-0.3 * h), np.exp(-0.7 * h)
    out = np.maximum(0.04 * (e1 * e1 + (0.5 * e2) ** 2 + 0.3 * e1 * e2), 0.0)
    return float(out) if out.ndim == 0 else out


def _riccati() -> complex:
    theta = np.linspace(0.0, 50.0, 1280)
    a = np.zeros(theta.shape, dtype=complex)
    b = np.zeros(theta.shape, dtype=complex)
    tau, h = 0.0, 0.01
    for _ in range(100):
        for _stage in range(4):
            rate = _variance_rate(min(max(1.0 - tau, 0.0), 2.0))
            cross = 0.2 * math.exp(-0.3 * (1.0 + tau)) + 0.1 * math.exp(-0.7 * (1.0 + tau))
            db = (-0.5 * (theta**2 + 1j * theta) * rate - 0.5 * b
                  + 0.045 * b * b + 1j * theta * b * cross)
            a = a + 0.125 * h * b
        b = b + h * db
        tau += h
        if not np.all(np.isfinite(b.view(float))) or np.max(np.abs(b)) > 1e6:
            raise ArithmeticError("reference kernel diverged")
    return complex(a.sum() + b.sum())


def _mc_block() -> float:
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))
    draws = rng.standard_normal((100, 3, 8192))
    u, v, w = np.zeros(8192), np.ones(8192), np.zeros(8192)
    for n in range(100):
        z = _CORRELATION @ draws[n]
        root_v = np.sqrt(np.maximum(v, 0.0))
        u = u + 0.1 * root_v * z[0]
        v = v + 0.005 * (1.0 - np.maximum(v, 0.0)) + 0.03 * root_v * z[2]
        w = w + 0.01 * (np.maximum(v, 0.0) - 1.0)
    return float(u.sum() + w.sum())


KERNELS = {"riccati": _riccati, "mc_block": _mc_block}


def probe(kernel: str) -> float:
    """Wall time of one pass of the named reference kernel, in seconds."""
    run = KERNELS[kernel]
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def scale(kernel: str, samples) -> float:
    """Factor that turns a timing made between ``samples`` (probe times of
    ``kernel``) into seconds at the reference speed."""
    return REFERENCE_S[kernel] / statistics.median(samples)
