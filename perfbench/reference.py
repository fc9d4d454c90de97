"""Reference kernel: fixed benchmark-own work that measures machine speed.

The host's speed drifts by tens of percent over minutes, with process CPU
time tracking wall time, so the drift is contention for shared hardware,
not scheduling. Timing this kernel between frames gives the machine's
speed at that moment. Frame times are scaled by ``REFERENCE_S`` over the
kernel time next to them, so they read as on a machine where the kernel
takes ``REFERENCE_S``. The kernel never calls the program, so no program
change can move it.

Its mix follows the frame chain: a streaming min-plus pass over a
per-label 5×400×640 stack, like a distance transform, and small per-item
numpy calls, like selection and pose updates.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on a quiet 2-core x86_64 host (Python 3.11, numpy 2.4).
REFERENCE_S = 0.015


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._grid = rng.random((5, 400, 640)) * 100.0
        self._out = np.empty_like(self._grid)
        self._rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        self._translation = rng.standard_normal(3)
        self._points = rng.standard_normal((300, 3))
        self.checksum = 0.0
        self()  # warm up

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        np.copyto(self._out, self._grid)
        for shift in range(1, 4):
            np.minimum(self._out[:, :, shift:], self._grid[:, :, :-shift] + shift * shift, out=self._out[:, :, shift:])
        total = 0.0
        for point in self._points:
            moved = point @ self._rotation.T + self._translation
            total += float(np.hypot(moved[0], moved[1]))
        self.checksum = total + float(self._out[0, 0, -1])
        return time.perf_counter() - start
