"""Numeric checks of the exact layer's statements on sample functions.

:mod:`gninterp.interp` and :mod:`gninterp.derivation` state inequalities in
exact index algebra, with the standard library alone. This module measures an
interpolation triple, every step of a chain, and a chain's end ratio across
dilations. Each call, or each dilation, reads its norms from one set of fields
(:func:`gninterp.norms._slot_norms`): each point set is evaluated once.

Every measured inequality ``N(out) <= C * prod N(in)^e`` gets one verdict
(:func:`_verdict`): the ratio ``N(out) / prod N(in)^e`` is 1 when both sides
are 0 and infinite when only the product is, and it holds when
``ratio <= C * (1 + rel + slack)`` with ``rel`` the exponent-weighted sum of
relative error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .derivation import ProofChain, Slot, Step
from .errors import BadParams
from .indices import InequalityInstance, as_rational
from .interp import Classification, InterpCase, InterpolationTriple, classify_triple
from .norms import GridSpec, NormValue, _slot_norms
from .testfn import TestFunction

# Relative slack added to the propagated grid errors before a measured ratio
# counts as exceeding an explicit constant.
VERDICT_SLACK = 1e-9


def _verdict(
    lhs: NormValue, factors: Sequence[tuple[NormValue, Fraction]], bound: Optional[float]
) -> tuple[float, float, float, Optional[bool]]:
    """``(rhs, ratio, rel, ok)`` for ``lhs <= bound * prod(nv^e for nv, e in factors)``.

    ``ratio = lhs / rhs`` is 1 when both sides are 0 and infinite when only
    ``rhs`` is. ``rel`` sums the relative error estimates, each weighted by
    its exponent. ``ok`` is None without a bound.
    """
    rhs = 1.0
    for nv, e in factors:
        rhs *= nv.value ** float(e)
    weighted = ((lhs, 1), *factors)
    rel = sum((float(e) * (nv.error_estimate / nv.value) for nv, e in weighted if nv.value > 0), 0.0)
    ratio = lhs.value / rhs if rhs > 0 else (math.inf if lhs.value > 0 else 1.0)
    ok = None if bound is None else bool(ratio <= bound * (1 + rel + VERDICT_SLACK))
    return rhs, ratio, rel, ok


def _same_dimension(n: int, fn: TestFunction) -> None:
    """Raise BadParams unless ``fn`` lives in dimension ``n``."""
    if fn.ndim != n:
        raise BadParams(f"sample function has dimension {fn.ndim}, but the inequality has n={n}")


@dataclass(frozen=True)
class InterpolationReport:
    triple: InterpolationTriple
    classification: Classification
    mid_norm: NormValue
    left_norm: NormValue
    right_norm: NormValue
    ratio: float
    bound: Optional[float]
    ok: Optional[bool]
    rel_error: float


def check_interpolation(
    t: InterpolationTriple,
    fn: TestFunction,
    mode: str = "seminorm",
    lp_grid: GridSpec | None = None,
    pair_grid: GridSpec | None = None,
) -> InterpolationReport:
    """Measure the interpolation ratio for one function and compare it to the
    classified bound (when one exists).

    ``ratio = mid / (left^eta * right^(1-eta))`` with all three norms taken
    in the requested mode and read from one set of fields; ``ck_step``
    triples take whole-derivative sup norms instead, the scale-0 norms of
    orders ``-n*s``. ``ok`` is None for cases without a quantitative bound,
    else the verdict of :func:`_verdict`. A function whose dimension is not
    ``t.n``, or a mode other than "full" or "seminorm", raises BadParams.
    """
    _same_dimension(t.n, fn)
    cls = classify_triple(t)
    # Integer scales mean whole-derivative sup norms; the factor-2 bound is a
    # statement about those, not about the pair-scan seminorms.
    ck = cls.case is InterpCase.CK_STEP
    slots = [(0, int(-t.n * s)) if ck else (s, 0) for s in (t.mid, t.left, t.right)]
    mid, left, right = _slot_norms(fn, slots, mode, lp_grid, pair_grid)
    _, ratio, rel, ok = _verdict(mid, ((left, t.eta), (right, 1 - t.eta)), cls.bound)
    return InterpolationReport(t, cls, mid, left, right, ratio, cls.bound, ok, rel)


def split_sum_inequality(a: Sequence[float], b: Sequence[float], eta: float) -> tuple[float, float]:
    """Termwise vs summed geometric mixing of two nonnegative sequences.

    Returns ``(sum_i a_i^eta * b_i^(1-eta), (sum a)^eta * (sum b)^(1-eta))``;
    the first never exceeds the second. This is what lets per-component
    seminorm sups be summed without losing the interpolation exponent.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise BadParams("sequences must have equal length")
    if np.any(av < 0) or np.any(bv < 0):
        raise BadParams("sequences must be nonnegative")
    if not (0.0 <= eta <= 1.0):
        raise BadParams(f"eta must lie in [0, 1], got {eta}")
    lhs = float(np.sum(av**eta * bv ** (1.0 - eta)))
    rhs = float(np.sum(av)) ** eta * float(np.sum(bv)) ** (1.0 - eta)
    return lhs, rhs


@dataclass(frozen=True)
class StepMeasurement:
    """One step measured on a sample function."""

    step: Step
    lhs: NormValue
    rhs: float
    ratio: float
    rel_error: float
    violation: bool


@dataclass(frozen=True)
class ChainEvaluation:
    """A chain measured slot by slot on one sample function."""

    chain: ProofChain
    norms: tuple[tuple[Slot, NormValue], ...]
    steps: tuple[StepMeasurement, ...]
    end_ratio: float

    @property
    def violations(self) -> tuple[StepMeasurement, ...]:
        return tuple(m for m in self.steps if m.violation)

    @property
    def ok(self) -> bool:
        return not self.violations


def _end_slots(inst: InequalityInstance, sq: Fraction) -> list[Slot]:
    """The slots of N(l, sq) / (N(k, sp)^theta * N(0, sr)^(1 - theta)); N(0, sr) is not measured at theta = 1."""
    return [Slot(inst.l, sq), Slot(inst.k, inst.sp)] + ([Slot(0, inst.sr)] if inst.theta != 1 else [])


def _end_ratio(inst: InequalityInstance, norms: Mapping[Slot, NormValue], sq: Fraction) -> float:
    lhs, top, *low = (norms[sl] for sl in _end_slots(inst, sq))
    factors = [(top, inst.theta)] + [(nv, 1 - inst.theta) for nv in low]
    return _verdict(lhs, factors, None)[1]


def _measure(
    fn: TestFunction, slots: Sequence[Slot], lp_grid: GridSpec | None, pair_grid: GridSpec | None
) -> dict[Slot, NormValue]:
    """Seminorm of every slot, all read from one evaluation of ``fn``'s fields."""
    values = _slot_norms(fn, [(sl.scale, sl.order) for sl in slots], "seminorm", lp_grid, pair_grid)
    return dict(zip(slots, values))


def evaluate_chain(
    chain: ProofChain,
    fn: TestFunction,
    lp_grid: GridSpec | None = None,
    pair_grid: GridSpec | None = None,
) -> ChainEvaluation:
    """Measure every step of a chain on one sample function, in seminorms.

    A step with an explicit constant is flagged as a violation when the
    verdict of :func:`_verdict` fails.  Empirical steps are measured but
    never flagged.  A function whose dimension is not the instance's raises
    BadParams.  Every slot reads one set of fields: each point set is
    evaluated once, at the orders the slots read.  The Holder seminorms
    refine together, one evaluation per round for all of them at the
    orders they read, and a seminorm that several slots read is computed
    once.

    Known limitation: a ``ck_step`` interpolation step is measured here in
    pair seminorms, while its factor-2 constant is stated for whole-derivative
    sups, which :func:`check_interpolation` measures.  On ``bump(1)`` the two
    readings differ by about 1e-5 relative.
    """
    inst = chain.instance
    _same_dimension(inst.n, fn)
    slots = {st.output for st in chain.steps} | {sl for st in chain.steps for sl in st.inputs}
    slots |= set(_end_slots(inst, inst.sq))
    ordered = sorted(slots, key=lambda sl: (sl.order, sl.scale))
    norms = _measure(fn, ordered, lp_grid, pair_grid)

    measured = []
    for step in chain.steps:
        lhs = norms[step.output]
        factors = [(norms[sl], e) for sl, e in zip(step.inputs, step.exponents)]
        rhs, ratio, rel, ok = _verdict(lhs, factors, step.constant)
        measured.append(StepMeasurement(step, lhs, rhs, ratio, rel, ok is False))

    return ChainEvaluation(
        chain=chain,
        norms=tuple((sl, norms[sl]) for sl in ordered),
        steps=tuple(measured),
        end_ratio=_end_ratio(inst, norms, inst.sq),
    )


def _covers(grid: GridSpec, fn: TestFunction) -> bool:
    """Whether ``grid``'s box contains ``fn``'s support box."""
    lo, hi = fn.bounding_box()
    return grid.ndim == fn.ndim and all(np.less_equal(grid.lo, lo)) and all(np.greater_equal(grid.hi, hi))


def dilation_sweep(
    inst: InequalityInstance,
    fn: TestFunction,
    lambdas: Iterable[float],
    sq_shift: Fraction | int | str = 0,
    lp_grid: GridSpec | None = None,
    pair_grid: GridSpec | None = None,
) -> list[tuple[float, float]]:
    """End-to-end seminorm ratio across rescalings u(lambda x) of the sample.

    With the balance intact the ratio is invariant in lambda.  ``sq_shift``
    perturbs the target scale by an exact rational, which tilts the log-log
    curve to slope -n * shift: a direct check that the balance is the only
    exponent relation the ratio tolerates.  A function whose dimension is
    not the instance's raises BadParams.

    A grid fits the box of the one dilation it was built on: with ``lp_grid``
    or ``pair_grid`` set, ``lambdas`` must hold one value, and each grid must
    cover the support box of ``fn.dilate(lam)``, else BadParams.  Without
    grids every dilation gets its default grids.  Each dilation's slots read
    one set of fields.
    """
    _same_dimension(inst.n, fn)
    lambdas = list(lambdas)
    if len(lambdas) > 1 and (lp_grid, pair_grid) != (None, None):
        raise BadParams(f"a grid fits one dilation's box: pass one lambda per call, got {len(lambdas)} lambdas")
    sq = inst.sq + as_rational(sq_shift)
    dilated = [(float(lam), fn.dilate(lam)) for lam in lambdas]
    for lam, v in dilated:
        for name, grid in (("lp_grid", lp_grid), ("pair_grid", pair_grid)):
            if grid is not None and not _covers(grid, v):
                lo, hi = v.bounding_box()
                raise BadParams(
                    f"{name} box {grid.lo}..{grid.hi} does not cover the support box "
                    f"{tuple(lo.tolist())}..{tuple(hi.tolist())} at lambda={lam!r}; build it on fn.dilate(lam)"
                )
    return [(lam, _end_ratio(inst, _measure(v, _end_slots(inst, sq), lp_grid, pair_grid), sq)) for lam, v in dilated]


def dilation_slope(sweep: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(ratio) against log(lambda).

    Raises BadParams unless every lambda and every ratio is finite and
    positive and at least two lambdas are distinct.
    """
    lams = [float(lam) for lam, _ in sweep]
    ratios = [float(r) for _, r in sweep]
    if not all(math.isfinite(x) and x > 0 for x in lams) or len(set(lams)) < 2:
        raise BadParams(f"a slope needs at least two distinct finite positive lambdas, got {lams}")
    bad = [(lam, r) for lam, r in zip(lams, ratios) if not (math.isfinite(r) and r > 0)]
    if bad:
        lam, r = bad[0]
        raise BadParams(f"ratio {r} at lambda {lam} has no logarithm: ratios must be finite and positive")
    return float(np.polyfit(np.log(lams), np.log(ratios), 1)[0])
