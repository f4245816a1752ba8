"""Multiplicative interpolation between three scale-indexed norms.

A triple of scales ``left < mid < right`` (each a rational s = 1/p, with
negative values meaning Holder-type spaces) is *interpolable* when the middle
norm is bounded by the product of the outer norms raised to the affine
weights: ``mid = eta*left + (1-eta)*right``. This module classifies a triple
by how such a bound is proved and, where the proof is quantitative, exposes
the constant.

Case taxonomy (precedence order):

* ``lebesgue``: all scales >= 0; log-convexity of Lebesgue norms, constant 1.
* ``holder_same``: all scales negative within one signature level; constant 1
  for the seminorm parts.
* ``holder_step``: the middle scale sits exactly on the signature boundary
  separating the outer levels; explicit constant ``(1+1/p2_left)^(1-eta)``.
* ``ck_step``: all scales are negative integer multiples of 1/n; classical
  derivative interpolation, with the factor-2 bound for one-step triples.
* ``*_bridged``: the right scale is a boundary (or 0), ``shift = -n*right``
  whole derivatives from the sup.  Trading them lowers ``p1`` by the shift
  and keeps ``p2``, so the triple is same-shaped when both ``p1`` equal the
  shift and step-shaped when ``p1`` is shift+1 left and shift in the middle,
  against a sup norm; that costs the quantitative constant (bound None).
* ``mixed``: the middle scale is exactly 0 with the left scale in [-1/n, 0);
  a ball-averaging argument gives an analytic constant, exposed separately.
* ``composite``: everything else; the span is cut at every signature boundary
  (and at 0 when crossing) and the pieces are chained by reiteration.

Only the standard library is used here;
:func:`gninterp.measure.check_interpolation` measures a triple on a sample
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import IntegralDiverges, NotInterpolable
from .indices import Rational, SpaceIndex, as_rational, holder_signature


class InterpCase(str, Enum):
    LEBESGUE = "lebesgue"
    HOLDER_SAME = "holder_same"
    HOLDER_STEP = "holder_step"
    CK_STEP = "ck_step"
    HOLDER_SAME_BRIDGED = "holder_same_bridged"
    HOLDER_STEP_BRIDGED = "holder_step_bridged"
    MIXED = "mixed"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class InterpolationTriple:
    """Scales left < mid < right with the induced affine weight.

    The weight of the left norm is ``eta = (right - mid) / (right - left)``,
    so that ``mid = eta*left + (1-eta)*right`` exactly.
    """

    n: int
    left: Fraction
    mid: Fraction
    right: Fraction

    def __post_init__(self):
        object.__setattr__(self, "left", as_rational(self.left))
        object.__setattr__(self, "mid", as_rational(self.mid))
        object.__setattr__(self, "right", as_rational(self.right))
        for s in (self.left, self.mid, self.right):
            SpaceIndex(s, self.n)  # validates n >= 1 and s <= 1
        if not (self.left < self.mid < self.right):
            raise NotInterpolable(
                f"scales must be strictly ordered, got {self.left} < {self.mid} < {self.right}"
            )

    @property
    def eta(self) -> Fraction:
        return (self.right - self.mid) / (self.right - self.left)


@dataclass(frozen=True)
class Classification:
    case: InterpCase
    eta: Fraction
    bound: Optional[float]
    shift: int = 0


def holder_step_constant(p2_left: Fraction | float, eta: Fraction | float) -> float:
    """Constant for a boundary-step triple: (1 + 1/p2_left)^(1-eta)."""
    return float((1.0 + 1.0 / float(p2_left)) ** (1.0 - float(eta)))


# Pure in the (frozen) triple and hit repeatedly with the same scales when
# chains are enumerated, so the recursion into composites is worth caching.
@lru_cache(maxsize=None)
def classify_triple(t: InterpolationTriple) -> Classification:
    """Decide how the middle norm interpolates and with what constant.

    Bounds returned here apply to seminorm-mode norms for the Holder cases
    and to full norms in the Lebesgue case; cases without a quantitative
    constant return ``bound=None``.  Every negative-range case is read from
    the signatures of the three scales, each computed once: a scale is a
    signature boundary exactly when its ``p2`` is 1.
    """
    n, eta = t.n, t.eta

    if t.left >= 0:
        return Classification(InterpCase.LEBESGUE, eta, 1.0)

    if t.right <= 0:
        left, mid = holder_signature(SpaceIndex(t.left, n)), holder_signature(SpaceIndex(t.mid, n))
        shift = 0  # whole derivatives -n*right when right is a boundary or 0
        if t.right < 0:
            right = holder_signature(SpaceIndex(t.right, n))
            if right.p2 != 1:
                if left.p1 == mid.p1 == right.p1:
                    return Classification(InterpCase.HOLDER_SAME, eta, 1.0)
                if mid.p1 == right.p1 and left.p1 == mid.p1 + 1 and mid.p2 == 1:
                    return Classification(InterpCase.HOLDER_STEP, eta, holder_step_constant(left.p2, eta))
                return _classify_composite(t, eta)
            shift = right.p1 + 1
        if left.p2 == mid.p2 == 1:
            # Whole-derivative sups of orders left.p1+1 > mid.p1+1 > shift.
            # One-step bound via second differences along a coordinate line:
            # |D^j| <= 2 sqrt(|D^(j-1)| * |D^(j+1)|) pointwise in the sups.
            one_step = left.p1 == mid.p1 + 1 and mid.p1 == shift
            return Classification(InterpCase.CK_STEP, eta, 2.0 if one_step else None)
        # Trading `shift` whole derivatives makes the right norm a sup; it
        # lowers each p1 by the shift and keeps p2, so the same/step shapes
        # are read off p1 - shift.
        if left.p1 == mid.p1 == shift:
            return Classification(InterpCase.HOLDER_SAME_BRIDGED, eta, None, shift)
        if left.p1 == shift + 1 and mid.p1 == shift and mid.p2 == 1:
            return Classification(InterpCase.HOLDER_STEP_BRIDGED, eta, None, shift)
        return _classify_composite(t, eta)

    # crossing: left < 0 < right
    if t.mid == 0 and t.left >= Fraction(-1, n):
        return Classification(InterpCase.MIXED, eta, None)
    return _classify_composite(t, eta)


def composite_nodes(t: InterpolationTriple) -> tuple[Fraction, ...]:
    """Cut points for a composite triple: endpoints, mid, every signature
    boundary strictly inside the span, and 0 when the span crosses it."""
    nodes = {t.left, t.mid, t.right}
    boundaries = (Fraction(-j, t.n) for j in range(1, math.ceil(-t.n * t.left)))
    nodes.update(b for b in boundaries if b < t.right)
    if t.left < 0 < t.right:
        nodes.add(Fraction(0))
    return tuple(sorted(nodes))


def _classify_composite(t: InterpolationTriple, eta: Fraction) -> Classification:
    nodes = composite_nodes(t)
    etas = []
    for scales in zip(nodes, nodes[1:], nodes[2:]):
        sub = InterpolationTriple(t.n, *scales)
        c = classify_triple(sub)
        if c.case is InterpCase.COMPOSITE:
            raise AssertionError(f"composite piece failed to reduce: {sub}")
        etas.append(c.eta)
    # Sanity: eliminating the interior nodes must land on the original weight.
    final = _eliminate_to_triple(etas, nodes.index(t.mid) - 1)
    if final != eta:
        raise AssertionError(f"reiteration weight mismatch: {final} != {eta}")
    return Classification(InterpCase.COMPOSITE, eta, None)


# -- reiteration --------------------------------------------------------------


def reiteration_theta(eta1: Rational, eta2: Rational) -> Fraction:
    """Weight of the far-left norm after chaining two interpolation facts.

    Fact 1 places x between (a, y) with weight eta1; fact 2 places y between
    (x, b) with weight eta2. Then x sits between (a, b) with this weight.
    """
    e1, e2 = as_rational(eta1), as_rational(eta2)
    return e1 / (1 - e2 + e1 * e2)


def reiteration_second(eta1: Rational, eta2: Rational) -> Fraction:
    """Weight placing y (from the same two facts) between (a, b)."""
    e1, e2 = as_rational(eta1), as_rational(eta2)
    return e1 * e2 / (1 - e2 + e1 * e2)


def reiteration_constants(c1: float, c2: float, eta1: Rational, eta2: Rational) -> tuple[float, float]:
    """Constants accompanying the two reiterated facts.

    Returns (constant for x between (a,b), constant for y between (a,b)).
    """
    e1, e2 = float(as_rational(eta1)), float(as_rational(eta2))
    d = 1.0 - e2 + e1 * e2
    return (c1 * c2 ** (1.0 - e1)) ** (1.0 / d), (c2 * c1**e2) ** (1.0 / d)


def _eliminate_to_triple(etas: Sequence[Fraction], m: int) -> Fraction:
    """Chain adjacent-triple facts down to one triple and return the final
    weight of its left endpoint.  ``etas[i]`` places node ``i + 1`` between
    its two neighbours, and ``etas[m]`` is the fact about the middle node.
    Elimination is exact in rationals."""
    etas = list(etas)
    # Left of mid, leftmost first: fold each fact into its right neighbour's.
    for i in range(m):
        etas[i + 1] = reiteration_second(etas[i], etas[i + 1])
    # Right of mid, rightmost first: mirror image (weights flip to 1-eta).
    for i in range(len(etas) - 1, m, -1):
        etas[i - 1] = 1 - reiteration_second(1 - etas[i], 1 - etas[i - 1])
    return etas[m]


# -- the crossing case constant ----------------------------------------------


def mixed_case_integral(n: int, lam2: float, p: float) -> float:
    """(1/lam2) * integral_0^1 (1-s)^p s^(n/lam2 - 1) ds.

    The kernel arising from averaging over the ball on which a function stays
    within its Holder modulus of the sup. Diverges for p <= -1 or lam2 <= 0.
    Evaluated in closed form as ``B(n/lam2, p+1) / lam2`` (DLMF 5.12.1).
    """
    lam2, p = float(lam2), float(p)
    if p <= -1.0 or lam2 <= 0.0 or n < 1:
        raise IntegralDiverges(f"integral parameters out of range: n={n}, lam2={lam2}, p={p}")
    a = n / lam2
    return math.exp(math.lgamma(a) + math.lgamma(p + 1.0) - math.lgamma(a + p + 1.0)) / lam2


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def mixed_case_constant(n: int, left: Rational, right: Rational) -> float:
    """Analytic constant for the mixed case: sup norm between a Holder
    seminorm (scale ``left`` in [-1/n, 0)) and a Lebesgue norm (scale
    ``right`` in (0, 1]).

    Equals ``(n * omega_n * M)^(-right*(1-eta))`` with M the kernel integral
    and eta the affine weight of the left norm.
    """
    left, right = as_rational(left), as_rational(right)
    if not (Fraction(-1, n) <= left < 0 < right <= 1):
        raise IntegralDiverges(f"scales out of the mixed-case range: {left}, {right}")
    lam2 = float(-n * left)
    p = 1.0 / float(right)
    eta = InterpolationTriple(n, left, 0, right).eta
    m = mixed_case_integral(n, lam2, p)
    expo = -float(right * (1 - eta))
    return (n * unit_ball_volume(n) * m) ** expo
