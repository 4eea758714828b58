"""The machine's current speed, measured with two fixed pure-Python loops.

The speed of a shared virtual machine drifts by up to half, in phases
lasting from a second to minutes, and work that moves memory slows more than
pure arithmetic does.  The benchmark times two loops around the work it
measures: one of integer arithmetic and one that fills a dict keyed by byte
slices.  The geometric mean of their times moves with ropforge's request
times at a slope close to 1 (measured with loops of this kind on a 2-vCPU
Xeon virtual machine, in log-log terms: 0.86 to 1.06, against 1.1 to 1.5 for
the arithmetic loop alone).  Every time is
scaled by ``REFERENCE_S`` over that mean, so it reads as on a machine where
the mean is ``REFERENCE_S``.

This module imports nothing but ``time``, so a fresh interpreter can use it
without loading anything the set-up time it measures would then miss.
"""

from time import perf_counter

ARITH_ITERATIONS = 20_000
DICT_ITERATIONS = 16_000
REFERENCE_S = 0.0022


def _fixed_bytes(n: int) -> bytes:
    """``n`` pseudo-random bytes from a 64-bit linear congruential generator."""
    out = bytearray(n)
    x = 1
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        out[i] = x >> 56
    return bytes(out)


_DATA = _fixed_bytes(2 * DICT_ITERATIONS + 2)


def _arith() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(ARITH_ITERATIONS):
        total += i * i
    return perf_counter() - t0


def _dict() -> float:
    t0 = perf_counter()
    counts: dict[bytes, int] = {}
    for i in range(0, 2 * DICT_ITERATIONS, 2):
        key = _DATA[i : i + 3]
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - t0


def loop_seconds() -> float:
    """Geometric mean of the two loops' times, each the median of three."""
    arith = sorted(_arith() for _ in range(3))[1]
    mapping = sorted(_dict() for _ in range(3))[1]
    return (arith * mapping) ** 0.5


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time, given the loop times around it."""
    return REFERENCE_S / ((before + after) / 2)
