"""Machine-speed reference: a fixed numpy kernel timed next to every unit.

On a shared host the CPU's speed drifts by up to a third over a few seconds
as neighbours load it, which moves every wall time with it.  The benchmark
therefore times this kernel right before and right after each unit and
reports unit times scaled to the kernel's nominal speed:

    scaled_s = wall_s * REF_SECONDS / mean(ref_before_s, ref_after_s)

The kernel mixes what the program spends its time on (interpreter overhead,
small row-batched matmuls and elementwise ops, one 64x64 product) and uses
no apobench code, so no change to the program can move it.  Raw wall times
are kept beside the scaled ones in the result file.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's wall time on a 2-CPU x86-64 Linux VM (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31, one BLAS thread); it only fixes the scale.
REF_SECONDS = 0.010
ITERATIONS = 400


class RefKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 16))
        self.w1 = rng.standard_normal((16, 32)) / 4.0
        self.w2 = rng.standard_normal((32, 8)) / 6.0
        self.a = rng.standard_normal((64, 64)) / 8.0
        self.b = rng.standard_normal((64, 64)) / 8.0

    def work(self):
        x, w1, w2, a, b = self.x, self.w1, self.w2, self.a, self.b
        acc = 0.0
        for _ in range(ITERATIONS):
            h = np.maximum(x @ w1, 0.0)
            y = h @ w2
            g = (y - 1.0) / x.shape[0]
            gh = (g @ w2.T) * (h > 0)
            acc += float(np.vdot(gh, gh)) + float((a @ b)[0, 0])
        return acc

    def seconds(self):
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start
