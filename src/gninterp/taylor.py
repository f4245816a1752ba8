"""Truncated multivariate Taylor arithmetic with array-valued coefficients.

A :class:`TaylorSeries` holds the coefficients of a polynomial in ``nvars``
formal variables, truncated at total degree ``order``. Coefficients may be
scalars or numpy arrays of a common shape, so seeding the variables with one
value per grid point propagates derivative data for the whole grid in a single
pass through the expression tree.

The test-function jets (:mod:`gninterp.testfn`) use it in one variable only:
each profile's series in ``t = 1 - |y|^2`` and each one-axis factor is built
here, then testfn composes them into the n-variable jet with a fixed table,
so no n-variable product runs on that path.

The coefficient of the monomial ``t^alpha`` in the expansion of
``f(x + t)`` equals ``D^alpha f(x) / alpha!``; extracting jets is therefore a
matter of multiplying by factorials, which the caller does.

All coefficient reductions iterate keys in one canonical order (total degree,
then lexicographic), so repeated runs produce bit-identical floats.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Dict, Tuple, Union

import numpy as np

Key = Tuple[int, ...]
Coeff = Union[float, np.ndarray]


@lru_cache(maxsize=None)
def multi_indices(nvars: int, max_order: int) -> tuple[Key, ...]:
    """All exponent tuples with total degree <= max_order, canonically ordered."""
    out = [
        key
        for key in product(range(max_order + 1), repeat=nvars)
        if sum(key) <= max_order
    ]
    out.sort(key=lambda key: (sum(key), key))
    return tuple(out)


@lru_cache(maxsize=None)
def multi_indices_exact(nvars: int, order: int) -> tuple[Key, ...]:
    """Exponent tuples with total degree exactly ``order``, canonically ordered."""
    return tuple(k for k in multi_indices(nvars, order) if sum(k) == order)


def factorial_of(key: Key) -> float:
    out = 1.0
    for e in key:
        out *= math.factorial(e)
    return out


class TaylorSeries:
    """Polynomial in ``nvars`` variables truncated at total degree ``order``."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: Dict[Key, Coeff] | None = None):
        self.nvars = nvars
        self.order = order
        self.coeffs: Dict[Key, Coeff] = coeffs if coeffs is not None else {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, value: Coeff, nvars: int, order: int) -> "TaylorSeries":
        return cls(nvars, order, {(0,) * nvars: value})

    @classmethod
    def variable(cls, axis: int, values: Coeff, nvars: int, order: int) -> "TaylorSeries":
        """The seed ``x_axis``: constant term = values, unit linear term."""
        coeffs: Dict[Key, Coeff] = {(0,) * nvars: values}
        if order >= 1:
            unit = tuple(1 if i == axis else 0 for i in range(nvars))
            coeffs[unit] = 1.0
        return cls(nvars, order, coeffs)

    # -- basics ---------------------------------------------------------------

    def copy(self) -> "TaylorSeries":
        return TaylorSeries(self.nvars, self.order, dict(self.coeffs))

    @property
    def const(self) -> Coeff:
        return self.coeffs.get((0,) * self.nvars, 0.0)

    def items(self):
        """Coefficients in canonical order (degree, then lexicographic)."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other) -> "TaylorSeries":
        if not isinstance(other, TaylorSeries):
            out = self.copy()
            zero = (0,) * self.nvars
            out.coeffs[zero] = out.coeffs.get(zero, 0.0) + other
            return out
        out = dict(self.coeffs)
        for key, val in other.items():
            out[key] = out[key] + val if key in out else val
        return TaylorSeries(self.nvars, self.order, out)

    __radd__ = __add__

    def __neg__(self) -> "TaylorSeries":
        return TaylorSeries(self.nvars, self.order, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other) -> "TaylorSeries":
        return self + (-other)

    def __rsub__(self, other) -> "TaylorSeries":
        return (-self) + other

    def scale(self, factor: Coeff) -> "TaylorSeries":
        return TaylorSeries(self.nvars, self.order, {k: v * factor for k, v in self.coeffs.items()})

    def __mul__(self, other) -> "TaylorSeries":
        if not isinstance(other, TaylorSeries):
            return self.scale(other)
        out: Dict[Key, Coeff] = {}
        order = self.order
        for k1, v1 in self.items():
            d1 = sum(k1)
            for k2, v2 in other.items():
                if d1 + sum(k2) > order:
                    continue
                key = tuple(a + b for a, b in zip(k1, k2))
                term = v1 * v2
                out[key] = out[key] + term if key in out else term
        return TaylorSeries(self.nvars, order, out)

    __rmul__ = __mul__

    def drop_const(self) -> "TaylorSeries":
        out = dict(self.coeffs)
        out.pop((0,) * self.nvars, None)
        return TaylorSeries(self.nvars, self.order, out)


def _horner_geometric(u: TaylorSeries) -> TaylorSeries:
    """1 + u + u^2 + ... + u^order for a series u with zero constant term."""
    acc = TaylorSeries.constant(1.0, u.nvars, u.order)
    for _ in range(u.order):
        acc = u * acc + 1.0
    return acc


def reciprocal(g: TaylorSeries) -> TaylorSeries:
    """1/g as a truncated series. The constant term must be nonzero."""
    inv0 = 1.0 / g.const
    u = g.drop_const().scale(-inv0)  # g = g0*(1 - u)
    return _horner_geometric(u).scale(inv0)


def exp(g: TaylorSeries) -> TaylorSeries:
    """exp(g) as a truncated series."""
    e0 = np.exp(g.const)
    u = g.drop_const()
    acc = TaylorSeries.constant(1.0, g.nvars, g.order)
    for j in range(g.order, 0, -1):
        acc = u * acc.scale(1.0 / j) + 1.0
    return acc.scale(e0)


def sin_cos(g: TaylorSeries) -> tuple[TaylorSeries, TaylorSeries]:
    """(sin g, cos g) as truncated series, sharing the power table."""
    c0 = g.const
    u = g.drop_const()
    powers = [TaylorSeries.constant(1.0, g.nvars, g.order)]
    for _ in range(g.order):
        powers.append(powers[-1] * u)
    sin_u = TaylorSeries(g.nvars, g.order, {})
    cos_u = TaylorSeries(g.nvars, g.order, {})
    for j, pw in enumerate(powers):
        term = pw.scale(((-1.0) ** (j // 2)) / math.factorial(j))
        if j % 2 == 0:
            cos_u = cos_u + term
        else:
            sin_u = sin_u + term
    s0, cs0 = np.sin(c0), np.cos(c0)
    return (cos_u.scale(s0) + sin_u.scale(cs0), cos_u.scale(cs0) - sin_u.scale(s0))


def int_pow(g: TaylorSeries, k: int) -> TaylorSeries:
    if k < 0:
        raise ValueError("negative powers go through reciprocal()")
    acc = TaylorSeries.constant(1.0, g.nvars, g.order)
    for _ in range(k):
        acc = acc * g
    return acc
