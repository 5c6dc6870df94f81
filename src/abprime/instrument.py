"""The binary method of exponentiation, and opt-in operation counting.

binary_power is the library's one square-and-multiply ladder, and
binary_method_mults the number of multiplications it spends.

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
           "binary_power"]


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


def binary_power(x, e: int, square, times_x):
    """x^e for e >= 1 by left-to-right binary exponentiation (Knuth, TAOCP
    Vol. 2, 4.6.3): square(y) = y*y once per bit of e below the top one, then
    times_x(y) = y*x where that bit is set, binary_method_mults(e) calls in
    all."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    y = x
    for bit in bin(e)[3:]:
        y = square(y)
        if bit == "1":
            y = times_x(y)
    return y
