"""Closed forms and stored reference data that input generation needs.

Imports neither lplab nor mpmath, so loading it before the timed loop adds
nothing to the workload's memory.  ``refdata.json`` is written by
``python3 perfbench/oracle.py``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Sequence

REFDATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refdata.json")

# closed-form verdict bands of the eulerF family
Q2_BELOW_3 = (3.0 + math.sqrt(17.0)) / 2.0  # q_2 < 3   <=>  a < this
Q2_AT_LEAST_4 = 2.0 + math.sqrt(7.0)  # q_2 >= 4  <=>  a >= this

# parameters whose zero moduli are stored, per family
ZERO_POOL = {
    "eulerF": [3.6, 3.75, 3.9, 4.0, 4.2, 4.5, 5.0, 6.0],
    "theta": [1.6, 1.7, 1.85, 2.0, 2.2, 2.5],
    "eulerH": [2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
}


def ratio(kind: str, a, k: int):
    """a_k / a_{k-1} of the named family, in the scalar type of ``a``."""
    if kind == "eulerF":
        return 1 / (a**k + 1)
    if kind == "theta":
        return a ** (1 - 2 * k)
    if kind == "eulerH":
        return 1 / (a**k - 1)
    raise ValueError(f"unknown family {kind!r}")


def q(kind: str, a: float, n: int) -> float:
    """q_n = a_{n-1}^2 / (a_{n-2} a_n), straight from the ratios."""
    return ratio(kind, a, n - 1) / ratio(kind, a, n)


def q2_euler(a: float) -> float:
    return (a * a + 1.0) / (a + 1.0)


def block_radius(kind: str, a: float, j: int) -> float:
    """rho_j = q_2 ... q_j sqrt(q_{j+1}) in the normalized variable u."""
    log_rho = sum(math.log(q(kind, a, i)) for i in range(2, j + 1))
    return math.exp(log_rho + 0.5 * math.log(q(kind, a, j + 1)))


def zero_count(moduli: Sequence[float], r: float) -> int:
    return sum(1 for m in moduli if m < r)


def zero_gap(moduli: Sequence[float], r: float) -> float:
    """Distance of log r from the nearest zero modulus, in nats."""
    return min(abs(math.log(r / m)) for m in moduli)


def load() -> Dict:
    with open(REFDATA_PATH) as fh:
        return json.load(fh)
