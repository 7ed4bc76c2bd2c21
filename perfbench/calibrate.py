"""Calibration kernels: fixed numpy/scipy work that tracks the machine's speed.

The 2-vCPU machines this benchmark was set up on change speed by tens of
percent over minutes, more than any affordable run length averages out.
The runner therefore times a calibration just before and after every timed
span and rescales the span to the speed at which the calibration takes its
reference time.  Each workload calibrates with its own mix of the kernels
below, with the kinds and sizes of operation its layers spent time on at
the seed, because they slow down by different amounts.  The kernels use
only numpy and scipy, so a change to paracasimir cannot move them.
"""

import time
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor

# Seconds each kernel takes on a 2-vCPU Intel Xeon at 2.1 GHz with one
# OpenBLAS thread, in its usual state.  A mix's reference time is the sum
# over its kernels.
REFERENCE_S = {
    "lu": 0.040,
    "lu_big": 0.049,
    "small_lu": 0.044,
    "gram": 0.029,
    "elementwise": 0.051,
    "interp": 0.054,
}


class Kernels:
    """The calibration kernels; arrays are made on first use."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    @cached_property
    def _dense(self):
        return self._rng.standard_normal((400, 400))

    @cached_property
    def _dense_big(self):
        return self._rng.standard_normal((800, 800))

    @cached_property
    def _small(self):
        return self._rng.standard_normal((60, 60))

    @cached_property
    def _cols(self):
        shape = (250, 800)
        return self._rng.standard_normal(shape) + 1j * self._rng.standard_normal(shape)

    def lu(self):
        """LU of order 400, as in the knife-edge parity blocks."""
        for _ in range(15):
            lu_factor(self._dense, check_finite=False)

    def lu_big(self):
        """LU of order 800, as in the body's deepest rung."""
        for _ in range(3):
            lu_factor(self._dense_big, check_finite=False)

    def small_lu(self):
        """Many LUs of order 60, where per-call cost dominates."""
        for _ in range(1000):
            lu_factor(self._small, check_finite=False)

    def gram(self):
        """Column-by-column complex powers and a complex Gram product."""
        z = self._cols
        phase = 0.9 * np.exp(1j * z[:, 0].real)
        for n in range(1, z.shape[1]):
            z[:, n] = z[:, n - 1] * phase
        (z.conj().T * np.abs(z[:, 0])) @ z

    def elementwise(self):
        """Exponentials, powers and selections over order-800 matrices, as in
        the balanced-gauge assembly."""
        n = np.arange(800)
        tot = n[:, None] + n[None, :]
        for _ in range(2):
            mag = np.exp(-1e-3 * tot)
            np.where(tot % 2 == 0, (-1.0) ** (tot // 2) * mag, 0.0)

    def interp(self):
        """Short numpy calls driven by the interpreter, as in the Miller
        recurrences."""
        v = np.linspace(1.0, 2.0, 133)
        a = b = v
        for _ in range(18000):
            a, b = 0.5 * (a + b) + v, a


def reference_seconds(mix: dict) -> float:
    return sum(reps * REFERENCE_S[name] for name, reps in mix.items())


def calibrate(kernels: Kernels, mix: dict) -> float:
    """Seconds for ``mix``: kernel name -> repetitions."""
    start = time.perf_counter()
    for name, reps in mix.items():
        fn = getattr(kernels, name)
        for _ in range(reps):
            fn()
    return time.perf_counter() - start
