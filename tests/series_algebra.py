"""Truncated n-variable Taylor arithmetic: the reference algebra of the jet oracle.

A :class:`TaylorSeries` holds the coefficients of a polynomial in ``nvars``
formal variables, truncated at total degree ``order``, as a dict from
exponent tuples to scalars or arrays. The coefficient of ``h^alpha`` in
``f(x + h)`` is ``D^alpha f(x) / alpha!``.

This is test-only code. ``reciprocal``, ``exp`` and ``sin_cos`` sum Horner
and power series of the non-constant part, and the product multiplies
n-variable dicts, so nothing here shares an algorithm with the one-variable
recurrences of :mod:`gninterp.testfn` that the oracle checks. Coefficient
reductions iterate keys in one canonical order (total degree, then
lexicographic), so repeated runs give identical floats.
"""

from __future__ import annotations

import math

import numpy as np


class TaylorSeries:
    """Polynomial in ``nvars`` variables truncated at total degree ``order``."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars, order, coeffs=None):
        self.nvars = nvars
        self.order = order
        self.coeffs = coeffs if coeffs is not None else {}

    @classmethod
    def constant(cls, value, nvars, order):
        return cls(nvars, order, {(0,) * nvars: value})

    @classmethod
    def variable(cls, axis, values, nvars, order):
        """The seed ``x_axis``: constant term = values, unit linear term."""
        coeffs = {(0,) * nvars: values}
        if order >= 1:
            coeffs[tuple(1 if i == axis else 0 for i in range(nvars))] = 1.0
        return cls(nvars, order, coeffs)

    @property
    def const(self):
        return self.coeffs.get((0,) * self.nvars, 0.0)

    def items(self):
        """Coefficients in canonical order (degree, then lexicographic)."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __add__(self, other):
        out = dict(self.coeffs)
        if not isinstance(other, TaylorSeries):
            zero = (0,) * self.nvars
            out[zero] = out.get(zero, 0.0) + other
            return TaylorSeries(self.nvars, self.order, out)
        for key, val in other.items():
            out[key] = out[key] + val if key in out else val
        return TaylorSeries(self.nvars, self.order, out)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor):
        return TaylorSeries(self.nvars, self.order, {k: v * factor for k, v in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.items():
            for k2, v2 in other.items():
                if sum(k1) + sum(k2) <= self.order:
                    key = tuple(a + b for a, b in zip(k1, k2))
                    out[key] = out[key] + v1 * v2 if key in out else v1 * v2
        return TaylorSeries(self.nvars, self.order, out)

    def drop_const(self):
        out = dict(self.coeffs)
        out.pop((0,) * self.nvars, None)
        return TaylorSeries(self.nvars, self.order, out)


def reciprocal(g):
    """1/g: ``g0 (1 - u)`` inverted as ``(1 + u + ... + u^order) / g0`` by Horner."""
    inv0 = 1.0 / g.const
    u = g.drop_const().scale(-inv0)
    acc = TaylorSeries.constant(1.0, g.nvars, g.order)
    for _ in range(g.order):
        acc = u * acc + 1.0
    return acc.scale(inv0)


def exp(g):
    """exp(g) = e^g0 * sum_j u^j / j! with u = g - g0, by Horner."""
    u = g.drop_const()
    acc = TaylorSeries.constant(1.0, g.nvars, g.order)
    for j in range(g.order, 0, -1):
        acc = u * acc.scale(1.0 / j) + 1.0
    return acc.scale(np.exp(g.const))


def sin_cos(g):
    """(sin g, cos g) from the power series of u = g - g0 and the addition theorems."""
    u = g.drop_const()
    power = TaylorSeries.constant(1.0, g.nvars, g.order)
    sin_u = TaylorSeries(g.nvars, g.order)
    cos_u = TaylorSeries(g.nvars, g.order)
    for j in range(g.order + 1):
        term = power.scale((-1.0) ** (j // 2) / math.factorial(j))
        if j % 2:
            sin_u = sin_u + term
        else:
            cos_u = cos_u + term
        power = power * u
    s0, c0 = np.sin(g.const), np.cos(g.const)
    return cos_u.scale(s0) + sin_u.scale(c0), cos_u.scale(c0) - sin_u.scale(s0)


def int_pow(g, k):
    """g^k for an integer k >= 0, by repeated products."""
    acc = TaylorSeries.constant(1.0, g.nvars, g.order)
    for _ in range(k):
        acc = acc * g
    return acc
