"""Exact arithmetic on the reciprocal integrability scale s = 1/p.

A single rational parameter s describes the whole scale of spaces used here:
``s in (0, 1]`` is the Lebesgue range (p = 1/s >= 1), ``s = 0`` is the sup
norm, and ``s < 0`` is the Holder range, where the space C^{p1,p2} is read off
from the signature

    p1 = -floor(n*s + 1),    p2 = -n*s - p1,    p2 in (0, 1].

All index manipulation is done in ``fractions.Fraction``; floats never enter
parameter logic, so round-trips and balance checks are exact.  The hottest
checks compare numerators and denominators by cross-multiplication instead
of building intermediate Fractions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BadParams, BorderlineIndex, InvalidInstance, MalformedIndex

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


def as_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Convert exact input to a Fraction.

    Accepts ints, Fractions and strings of the form ``"num"`` or ``"num/den"``.
    Decimal strings and floats are rejected: indices must stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise MalformedIndex(f"not an exact rational: {value!r} (use num or num/den)")
        return Fraction(text)
    raise MalformedIndex(f"cannot convert {type(value).__name__} to an exact rational")


@dataclass(frozen=True)
class SpaceIndex:
    """One point s = 1/p on the scale, in ambient dimension n."""

    s: Fraction
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.s, Fraction):
            object.__setattr__(self, "s", as_rational(self.s))
        if self.n < 1:
            raise BadParams(f"dimension must be positive, got n={self.n}")
        if self.s.numerator > self.s.denominator:  # s > 1
            raise BadParams(f"s={self.s} lies above the scale (p in (0,1) is excluded)")

    @property
    def regime(self) -> str:
        if self.s > 0:
            return "lebesgue"
        if self.s == 0:
            return "sup"
        return "holder"

    @property
    def p(self) -> Optional[Fraction]:
        """The exponent p = 1/s, or None for s = 0 (p = infinity)."""
        if self.s == 0:
            return None
        return 1 / self.s


@dataclass(frozen=True)
class HolderSignature:
    """Integer and fractional smoothness (p1, p2) of a Holder-range index."""

    p1: int
    p2: Fraction

    def __post_init__(self) -> None:
        if self.p1 < 0:
            raise BadParams(f"integer part must be >= 0, got {self.p1}")
        if not (0 < self.p2 <= 1):
            raise BadParams(f"fractional part must lie in (0,1], got {self.p2}")


def holder_signature(idx: SpaceIndex) -> HolderSignature:
    """Signature (p1, p2) of a Holder-range index, with p2 in (0, 1].

    Boundary values s = -j/n carry p2 = 1 (the Lipschitz end of C^{j-1,p2}),
    not p2 = 0; that choice keeps p2 positive and makes the map s -> (p1, p2)
    a bijection onto its range.
    """
    a, b = idx.s.numerator, idx.s.denominator
    if a >= 0:
        raise BadParams(f"s={idx.s} is not in the Holder range (need s < 0)")
    na = idx.n * a  # n*s = na/b
    p1 = -((na + b) // b)
    return HolderSignature(p1=p1, p2=Fraction(-na - p1 * b, b))


def sobolev_sharp(idx: SpaceIndex) -> SpaceIndex:
    """Index after one derivative is given up: s* = s - 1/n.

    Raises BorderlineIndex at s = 1/n (p = n), where no target space exists.
    """
    step = Fraction(1, idx.n)
    if idx.s == step:
        raise BorderlineIndex(f"s={idx.s} equals 1/n: p = n has no sharp conjugate")
    return SpaceIndex(s=idx.s - step, n=idx.n)


def sobolev_flat(idx: SpaceIndex) -> SpaceIndex:
    """Index after one derivative is gained: s_* = s + 1/n.

    Raises BadParams when the result would leave the scale (s_* > 1).
    """
    out = idx.s + Fraction(1, idx.n)
    if out > 1:
        raise BadParams(f"s={idx.s} + 1/{idx.n} = {out} exceeds 1")
    return SpaceIndex(s=out, n=idx.n)


def _require_dimension(n: int) -> None:
    """The balance divides by n: reject n < 1 before it does."""
    if n < 1:
        raise InvalidInstance(f"dimension must be positive, got n={n}")


def solve_theta(
    n: int, k: int, l: int, sp: Fraction, sq: Fraction, sr: Fraction
) -> Fraction:
    """Weight theta from the balance sq - l/n = theta*(sp - k/n) + (1-theta)*sr.

    Raises InvalidInstance for n < 1, where the balance is undefined, and
    when the balance holds for every theta or for none.
    """
    _require_dimension(n)
    num = sq - Fraction(l, n) - sr
    den = sp - Fraction(k, n) - sr
    if den == 0:
        if num == 0:
            raise InvalidInstance("balance holds for every theta (sp - k/n = sr and sq - l/n = sr)")
        raise InvalidInstance(f"no theta satisfies the balance: sp - k/n = sr = {sr} but sq - l/n != sr")
    return num / den


def solve_q(
    n: int, k: int, l: int, sp: Fraction, sr: Fraction, theta: Fraction
) -> Fraction:
    """Target index sq from the balance, for theta in [l/k, 1].

    Raises InvalidInstance for n < 1 or k < 1, where the balance or the
    window is undefined, and for theta outside the window.
    """
    _require_dimension(n)
    if k < 1:
        raise InvalidInstance(f"derivative order must satisfy k >= 1, got k={k}")
    if not (Fraction(l, k) <= theta <= 1):
        raise InvalidInstance(f"theta={theta} outside [{Fraction(l, k)}, 1]")
    return Fraction(l, n) + theta * (sp - Fraction(k, n)) + (1 - theta) * sr


@dataclass(frozen=True)
class InequalityInstance:
    """One fully specified instance: derivative orders, indices and weight.

    ``sp`` indexes the norm of the k-th derivatives, ``sr`` the norm of the
    function itself, ``sq`` the norm of the l-th derivatives, and ``theta``
    weights the two right-hand factors.
    """

    n: int
    k: int
    l: int
    sp: Fraction
    sq: Fraction
    sr: Fraction
    theta: Fraction


@dataclass(frozen=True)
class Violation:
    kind: str  # 'range' | 'balance' | 'exclusion' | 'theta'
    message: str


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[Violation, ...]


# Report order of violation kinds.
_KINDS = ("range", "balance", "exclusion", "theta")


def structural_violations(inst: InequalityInstance, min_order: int = 1) -> list[Violation]:
    """Range, balance and theta-window violations: the failures that make a
    derivation meaningless.

    The target order must satisfy ``min_order <= l < k``; an embedding
    (theta = 1, as :func:`~gninterp.derivation.sobolev_chain` builds) may
    descend to order 0 and is checked with ``min_order=0``.  The balance is
    only defined for n >= 1 and the theta window [l/k, 1] for k != 0, so
    each is checked only then; a bad n or k is already a range violation.
    Every check compares numerators and denominators by cross-multiplication;
    Fractions are built only for messages.
    """
    out = []
    n, k, l = inst.n, inst.k, inst.l
    if n < 1:
        out.append(Violation("range", f"dimension n={n} must be >= 1"))
    if not (min_order <= l < k):
        out.append(Violation("range", f"orders must satisfy {min_order} <= l < k, got l={l}, k={k}"))
    for name, s in (("sp", inst.sp), ("sq", inst.sq), ("sr", inst.sr)):
        if s.numerator > s.denominator:
            out.append(Violation("range", f"{name}={s} above the scale (p in (0,1) excluded)"))
    a, b = inst.sp.numerator, inst.sp.denominator
    c, d = inst.sq.numerator, inst.sq.denominator
    e, f = inst.sr.numerator, inst.sr.denominator
    t, u = inst.theta.numerator, inst.theta.denominator
    # The balance times n*b*d*f*u, then divided by n.
    if n >= 1 and (c * n - l * d) * u * b * f != (t * (a * n - k * b) * f + (u - t) * e * b * n) * d:
        lhs = inst.sq - Fraction(l, n)
        rhs = inst.theta * (inst.sp - Fraction(k, n)) + (1 - inst.theta) * inst.sr
        out.append(
            Violation("balance", f"sq - l/n = {lhs} but theta*(sp - k/n) + (1-theta)*sr = {rhs}")
        )
    if k != 0:
        lo_num, lo_den = (l, k) if k > 0 else (-l, -k)
        if not (lo_num * u <= t * lo_den and t <= u):
            out.append(Violation("theta", f"theta={inst.theta} outside [{Fraction(l, k)}, 1]"))
    return out


def validate_instance(inst: InequalityInstance) -> ValidityReport:
    """Check range, balance, the p-exclusion set, and the theta window.

    Beyond :func:`structural_violations`, rejects any index at scale 0 and
    the exclusion n*sp in {1, ..., k-l}: exactly the values for which some
    index in the descent from order k to order l lands on the borderline
    p = n and the sharp embedding chain breaks.
    """
    violations = structural_violations(inst)
    for name, s in (("sp", inst.sp), ("sq", inst.sq), ("sr", inst.sr)):
        if s == 0:
            violations.append(
                Violation("range", f"{name}=0 (p = infinity) is outside the admissible exponents")
            )

    nsp = inst.n * inst.sp
    if nsp.denominator == 1 and 1 <= nsp.numerator <= inst.k - inst.l:
        violations.append(
            Violation("exclusion", f"n*sp = {nsp} lies in the excluded set {{1,...,{inst.k - inst.l}}}")
        )

    violations.sort(key=lambda v: _KINDS.index(v.kind))
    return ValidityReport(ok=not violations, violations=tuple(violations))


def format_index(s: Fraction, n: int) -> str:
    """Readable form of an index, e.g. ``s=-1/2 (p=-2, C^{1,1/2})`` for n=3."""
    if s > 0:
        p = 1 / s
        space = f"L^{p}"
        return f"s={s} (p={p}, {space})"
    if s == 0:
        return "s=0 (p=inf, L^inf)"
    sig = holder_signature(SpaceIndex(s=s, n=n))
    p = 1 / s
    return f"s={s} (p={p}, C^{{{sig.p1},{sig.p2}}})"


def solve_missing(
    n: int,
    k: int,
    l: int,
    sp: Optional[Fraction] = None,
    sq: Optional[Fraction] = None,
    sr: Optional[Fraction] = None,
    theta: Optional[Fraction] = None,
) -> tuple[dict, list[str]]:
    """Fill in unknowns of the balance relation from the known values.

    Returns ``(values, unconstrained)`` where ``values`` maps each of
    ``sp, sq, sr, theta`` to its (given or solved) Fraction, and
    ``unconstrained`` lists names whose value does not influence the balance
    (e.g. ``sr`` when theta = 1). Raises InvalidInstance when the system
    cannot determine the unknowns, and for n < 1, where the balance is
    undefined.
    """
    _require_dimension(n)
    known = {"sp": sp, "sq": sq, "sr": sr, "theta": theta}
    missing = [name for name, v in known.items() if v is None]
    if not missing:
        return dict(known), []

    if theta is None:
        if sp is None or sq is None or sr is None:
            raise InvalidInstance(
                "cannot solve: theta unknown together with " + ", ".join(m for m in missing if m != "theta")
            )
        known["theta"] = solve_theta(n, k, l, sp, sq, sr)
        return known, []

    # theta known: the balance is linear in sp, sq, sr with coefficients
    # (theta, -1, 1-theta); zero coefficients leave their index unconstrained.
    coeff = {"sp": theta, "sq": Fraction(-1), "sr": 1 - theta}
    unconstrained = [name for name in missing if coeff[name] == 0]
    to_solve = [name for name in missing if coeff[name] != 0]
    if len(to_solve) > 1:
        raise InvalidInstance("underdetermined: " + " and ".join(to_solve) + " both unknown")
    if to_solve:
        name = to_solve[0]
        const = Fraction(l, n) - theta * Fraction(k, n)
        acc = const  # balance rewritten as sum(coeff_i * s_i) + const = 0
        for other, c in coeff.items():
            if other != name and known[other] is not None:
                acc += c * known[other]
        known[name] = -acc / coeff[name]
    return known, unconstrained
