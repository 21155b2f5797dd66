"""Speed calibration: fixed work, the benchmark's own, whose time over its
time at the reference speed measures the speed the machine gives this
process right now.

The 2-core virtual machine this benchmark was defined on runs identical work
at speeds that drift by up to 1.7x within a minute, and different kinds of
work drift by different amounts.  A measured time is therefore divided by
(a throughput multiplied by) a calibration timed next to it.  A program
change cannot move a calibration, so it moves a scaled metric as it moves
the unscaled one.

``python_work`` needs nothing but the interpreter, so the set-up probe can
run it before the import it measures.  ``Calibration`` adds two numpy loops
and is what the closed loop uses; its choice is recorded in
``baseline.json`` under ``calibration_choice``.
"""

from __future__ import annotations

import gc
import marshal
import time

# seconds each loop takes at the reference speed (measured on the 2-core
# virtual machine this benchmark was defined on)
PYTHON_REF_S = 0.021
BULK_REF_S = 0.0095
PER_TOKEN_REF_S = 0.007

# 150 small functions and classes, compiled once before anything is timed
MODULE_CODE = marshal.dumps(compile("\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a, b, {{'k{i}': a}}]\n"
    f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x + {i}\n"
    for i in range(150)
), "<calibration>", "exec"))


def python_work() -> float:
    """Work like an import's: an integer loop, then unmarshalling and
    executing module-like code."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(4):
        exec(marshal.loads(MODULE_CODE), {})
    return (time.perf_counter() - t0) / PYTHON_REF_S


class Calibration:
    """Geometric mean of three loops: ``python_work``, a bulk-vector loop (a
    counter hash, the uniform and double-log transforms and a row argmax over
    2^18 elements) and a per-token loop (numpy calls on 64-element vectors,
    tuple and dict work).  Each workload mixes these kinds of work.

    The buffers and rows are allocated once and reused, so after the first
    call the calibration adds next to nothing to the process's peak RSS.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        n = 1 << 18
        self.z = np.arange(n, dtype=np.uint64)
        self.t = np.empty(n, dtype=np.uint64)
        self.u = np.empty(n, dtype=np.float64)
        rows = [np.exp(np.arange(64.0) / (64.0 + k)) for k in range(13)]
        self.rows = {k: row / row.sum() for k, row in enumerate(rows)}

    def __call__(self) -> float:
        product = python_work() * self.bulk_work() * self.per_token_work()
        # the module-like code leaves classes, which are cyclic garbage:
        # collect them now, untimed, rather than inside the next round
        gc.collect()
        return product ** (1.0 / 3.0)

    def bulk_work(self) -> float:
        np, z, t, u = self.np, self.z, self.t, self.u
        t0 = time.perf_counter()
        for _ in range(3):
            np.multiply(z, np.uint64(0x9E3779B97F4A7C15), out=z)
            np.right_shift(z, np.uint64(31), out=t)
            np.bitwise_xor(z, t, out=z)
            np.right_shift(z, np.uint64(11), out=t)
            np.copyto(u, t, casting="unsafe")
            u *= 2.0**-53
            np.clip(u, 1e-300, 1.0 - 2.0**-53, out=u)
            np.log(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
            np.argmax(u.reshape(-1, 64), axis=1)
        return (time.perf_counter() - t0) / BULK_REF_S

    def per_token_work(self) -> float:
        np, rows = self.np, self.rows
        t0 = time.perf_counter()
        for i in range(1600):
            row = rows[i % 13]
            float(np.maximum(row - 0.01, 0.0).sum())
            tuple(row[:4].tolist())
        return (time.perf_counter() - t0) / PER_TOKEN_REF_S
