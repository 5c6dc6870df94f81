"""CPU speed reference for the benchmark's timings.

On a shared VM the same call can run 1.5-2x slower for stretches of
seconds to minutes while another tenant loads the host.  Each timed call
is therefore bracketed by a fixed pure-Python loop that uses no abprime
code.  The loop's nominal time over its measured time is the CPU's speed
around the call, and the gated timings are wall times multiplied by it:
seconds at the reference speed.  A change to the library moves them; the
neighbours' load, which slows the loop as much as the call, does not.

This module imports nothing but ``time``, so a fresh interpreter can load
it before timing ``import abprime``.
"""
import time

# the loop's time on an unloaded core of the 2-core VM the bounds were set on
NOMINAL_S = 0.0025


def reference_seconds() -> float:
    """Wall time of 60 products of two degree-23 polynomials mod 10007."""
    t0 = time.perf_counter()
    p = 10007
    a = [(i * 7919) % p for i in range(24)]
    for _ in range(60):
        out = [0] * 47
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
        a = [v % p for v in out[:24]]
    return time.perf_counter() - t0


def speed(before: float, after: float) -> float:
    """Relative CPU speed from the reference times measured around a call."""
    return NOMINAL_S / ((before + after) / 2)
