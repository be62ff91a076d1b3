"""Weight sequences q_k with cached partial sums Q_n = sum_{k<n} q_k.

A sequence is a value: its weights q_0..q_{n_max} and their partial sums,
both read-only float64 arrays, the weights copied from the caller's input.
It never grows, so reading q_k or Q_n past its end raises, and a property
of the values, such as their order class, is computed where it is read.
Partial sums are accumulated with compensated (Kahan) summation so the
Abel-transform identities downstream hold to near machine precision.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateWeightsError, DomainError


def _kahan_partials(q: np.ndarray) -> np.ndarray:
    out = np.empty(len(q) + 1, dtype=np.float64)
    out[0] = 0.0
    total = 0.0
    comp = 0.0
    for i, v in enumerate(q.tolist()):   # Python floats: the same IEEE steps, faster
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i + 1] = total
    return out


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """q_0..q_{n_max} with partial sums Q_0..Q_{n_max+1}, both read-only; == is identity."""

    values: np.ndarray
    partials: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        q = np.array(self.values, dtype=np.float64)
        if q.ndim != 1 or len(q) == 0:
            raise DomainError("weight sequence must be a nonempty 1-d array")
        if np.any(q < 0):
            raise DomainError("weights must be nonnegative")
        partials = _kahan_partials(q)
        if not math.isfinite(partials[-1]):   # a NaN or inf weight, or a sum past the float range
            raise DomainError("weights and their sum must be finite")
        for name, arr in (("values", q), ("partials", partials)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def q(self, k: int) -> float:
        self.extend(k)
        return float(self.values[k])

    def Q(self, n: int) -> float:
        """Q_n = sum_{k<n} q_k; raises on a vanishing normalizer."""
        self.extend(n - 1)
        val = float(self.partials[n])
        if n >= 1 and val <= 0.0:
            raise DegenerateWeightsError(f"Q_{n} = {val} is not positive")
        return val

    def extend(self, n_max: int) -> None:
        """Check that q_0..q_{n_max} exist: a sequence never grows past its end."""
        if n_max > self.n_max:
            raise DomainError("explicit weight list cannot be extended")


def from_values(values: Sequence[float]) -> WeightSequence:
    return WeightSequence(values=values)


def from_function(fn: Callable[[int], float], n_max: int) -> WeightSequence:
    """q_k = fn(k) for k = 0..n_max."""
    return WeightSequence(values=[fn(k) for k in range(n_max + 1)])


def ones(n_max: int) -> WeightSequence:
    """q == 1; turns Norlund and T means into the Fejer mean family."""
    return from_function(lambda k: 1.0, n_max)


def power_weights(alpha: float, n_max: int) -> WeightSequence:
    """q_0 = 1, q_k = k^(alpha-1); nonincreasing for 0 < alpha <= 1."""
    if not 0 < alpha <= 1:
        raise DomainError("power weights require 0 < alpha <= 1")
    fn = lambda k: 1.0 if k == 0 else float(k) ** (alpha - 1.0)
    return from_function(fn, n_max)


def log_weights(alpha: float, n_max: int) -> WeightSequence:
    """q_0 = 0, q_k = alpha log k; nondecreasing unbounded class."""
    if alpha <= 0:
        raise DomainError("log weights require alpha > 0")
    return from_function(lambda k: alpha * math.log(k) if k else 0.0, n_max)


# l_n for n < len(_HARMONIC), grown on demand up to _HARMONIC_CAP entries
# (about 2 MiB of Python floats).  Every float is an integer multiple of
# 2^-1074, so _HARMONIC_SUM holds sum_{k < len(_HARMONIC) - 1} fl(1/k)
# exactly, as an int in units of 2^-1074.
_HARMONIC_CAP = 1 << 16
_HARMONIC = [0.0, 0.0]
_HARMONIC_SUM = 0
_HARMONIC_LOCK = threading.Lock()


def harmonic_number(n: int) -> float:
    """l_n = sum_{k=1}^{n-1} 1/k (the log-mean normalizer).

    The value is ``math.fsum`` of the terms fl(1/k): the correctly rounded
    exact sum of those floats.  For n < ``_HARMONIC_CAP`` it comes from a
    module table that keeps that exact running sum as an int and stores its
    int / int quotient per n, which CPython rounds correctly too, so both
    routes give the same float; filling the table costs O(1) per new n
    instead of O(n) per call.  Larger n (and n < 0) take the fsum directly.
    """
    global _HARMONIC_SUM
    if not 0 <= n < _HARMONIC_CAP:
        return float(math.fsum(1.0 / k for k in range(1, n)))
    if n >= len(_HARMONIC):
        with _HARMONIC_LOCK:
            while n >= len(_HARMONIC):
                num, den = (1.0 / (len(_HARMONIC) - 1)).as_integer_ratio()
                _HARMONIC_SUM += num << (1074 - den.bit_length() + 1)
                _HARMONIC.append(_HARMONIC_SUM / (1 << 1074))
    return _HARMONIC[n]
