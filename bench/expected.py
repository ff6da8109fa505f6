"""Pinned exact heat-kernel coefficients of the builtin spaces.

The benchmark checks every answer against these constants, so building
its inputs never runs heatgen's pipeline and leaves every cache cold.
Each entry is a_0..a_K as rational strings, K being the largest order
any workload requests for that space, as `heatgen coeffs <space>
--order K --json` prints them with every structural check passing.
"""

from fractions import Fraction

PINNED = {
    "S2": ("1", "1/3", "1/15", "4/315", "1/315", "4/3465", "382/675675"),
    "S3": ("1", "1", "1/2", "1/6", "1/24", "1/120", "1/720"),
    "S2xS2": ("1", "2/3", "11/45", "22/315", "13/675", "106/17325",
              "35258/14189175"),
    "S2xS3": ("1", "4/3", "9/10", "26/63", "41/280"),
    "S4": ("1", "2", "29/15", "74/63", "149/315"),
    "S5": ("1", "10/3", "16/3", "16/3"),
}


def coeffs(space: str, order: int) -> list[Fraction]:
    """Pinned a_0..a_order of a builtin space."""
    table = PINNED[space]
    if order >= len(table):
        raise KeyError(f"{space} is pinned only up to order {len(table) - 1}")
    return [Fraction(x) for x in table[: order + 1]]


def series_value(space: str, order: int, t: float) -> float:
    """Horner value of the pinned truncated series at t."""
    acc = 0.0
    for c in reversed(coeffs(space, order)):
        acc = acc * t + float(c)
    return acc
