"""The sliding-window method of exponentiation, and opt-in operation counting.

binary_power is the library's one left-to-right ladder: at window width 1
it is the binary method, square and multiply, and at width w it scans the
exponent in windows of up to w bits that end in a 1 bit and multiplies by
precomputed odd powers.  window_mults(e, w) is the exact number of
multiplications it spends, binary_method_mults(e) the width-1 count, and
window_width(e) the width in 1..6 that spends the fewest.

Multiplication counts are the portable way to talk about the cost of the
arithmetic kernels: wall-clock assertions are flaky, counter assertions are
exact.  Counting is disabled by default and enabled per invocation with
``count_operations()``; the active counter lives in a context variable, so
concurrent callers never share state.
"""
from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["OpCounter", "count_operations", "active_counter", "binary_method_mults",
           "binary_power", "window_mults", "window_width"]


@dataclass
class OpCounter:
    """Tally of the two multiplication kinds the library instruments.

    int_mults: modular multiplications of integers in Z/mZ.
    poly_mults: ring multiplications in (Z/NZ[x])/(f).
    """

    int_mults: int = 0
    poly_mults: int = 0


_active: ContextVar[Optional[OpCounter]] = ContextVar("abprime_opcounter", default=None)


@contextlib.contextmanager
def count_operations() -> Iterator[OpCounter]:
    """Enable counting for the dynamic extent of the with-block."""
    counter = OpCounter()
    token = _active.set(counter)
    try:
        yield counter
    finally:
        _active.reset(token)


def active_counter() -> Optional[OpCounter]:
    """The counter currently in effect, or None when counting is off."""
    return _active.get()


def binary_method_mults(e: int) -> int:
    """Multiplications left-to-right binary exponentiation spends on e >= 0:
    bitlen(e) - 1 squarings plus popcount(e) - 1 multiplies (0 for e = 0)."""
    if e == 0:
        return 0
    return e.bit_length() + bin(e).count("1") - 2


def _windows(e: int, w: int) -> list[tuple[int, str]]:
    """The windows of e >= 1, left to right (Menezes, van Oorschot and
    Vanstone, Handbook of Applied Cryptography, Alg. 14.85): (end, bits)
    for each, bits the longest run of at most w bits from the next 1 bit
    that ends in a 1 bit, and end the number of bits of e up to its end."""
    bits, out = bin(e)[2:], []
    start = 0
    while start >= 0:
        chunk = bits[start:start + w].rstrip("0")
        end = start + len(chunk)
        out.append((end, chunk))
        start = bits.find("1", end)
    return out


def window_mults(e: int, w: int) -> int:
    """Multiplications binary_power(x, e, mul, w) spends on e >= 0: the
    table x^2, x^3, x^5, ..., x^(2^w - 1) (none at w = 1), one squaring per
    bit of e below the first window and one multiply per later window (0
    for e = 0).  window_mults(e, 1) == binary_method_mults(e)."""
    if e == 0:
        return 0
    windows = _windows(e, w)
    table = 2 ** (w - 1) if w > 1 else 0
    return table + e.bit_length() - len(windows[0][1]) + len(windows) - 1


def window_width(e: int) -> int:
    """The width w in 1..6 with the fewest window_mults(e, w), the smallest
    such w on a tie, so never more multiplications than the binary method."""
    return min(range(1, 7), key=lambda w: window_mults(e, w))


def binary_power(x, e: int, mul, w: int = 1):
    """x^e for e >= 1 by the left-to-right sliding-window method of width
    w (Knuth, TAOCP Vol. 2, 4.6.3), with mul(y, z) = y*z and mul(y, y) for
    every squaring: window_mults(e, w) calls in all.  At w = 1 it is the
    binary method: mul(y, y) once per bit of e below the top one, then
    mul(y, x) where that bit is set."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    table = [x]
    if w > 1:
        x2 = mul(x, x)
        for _ in range(2 ** (w - 1) - 1):
            table.append(mul(table[-1], x2))
    windows = _windows(e, w)
    done, chunk = windows[0]
    y = table[int(chunk, 2) >> 1]
    for end, chunk in windows[1:]:
        for _ in range(end - done):
            y = mul(y, y)
        y = mul(y, table[int(chunk, 2) >> 1])
        done = end
    for _ in range(e.bit_length() - done):
        y = mul(y, y)
    return y
