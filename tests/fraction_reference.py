"""The exact layer's checks written as plain ``Fraction`` sums.

This is test-only code: the reference that the integer checks of
:mod:`gninterp.derivation` and :mod:`gninterp.indices` are compared against.
Each function decides with ``Fraction`` arithmetic, never with the
cross-multiplied numerators and denominators of the library, and raises or
returns the same messages, so a test can require byte-identical verdicts.
Only the exception and violation types and the rule names are shared.
"""

from __future__ import annotations

from fractions import Fraction

from gninterp.derivation import RULES, ProofChain, Slot, Step
from gninterp.errors import BrokenChain
from gninterp.indices import InequalityInstance, Violation


def verify_step(step: Step, n: int) -> None:
    """Check one step's slot algebra exactly; raise BrokenChain on failure."""
    if step.rule not in RULES:
        raise BrokenChain(f"unknown rule {step.rule!r}")
    if len(step.inputs) != len(step.exponents) or not step.inputs:
        raise BrokenChain(f"{step.rule}: {len(step.inputs)} inputs, {len(step.exponents)} exponents")
    if sum(step.exponents, Fraction(0)) != 1:
        raise BrokenChain(f"{step.rule}: exponents {step.exponents} do not sum to 1")
    for e in step.exponents:
        if not (0 <= e <= 1):
            raise BrokenChain(f"{step.rule}: exponent {e} outside [0, 1]")
    if len(step.inputs) == 1:
        dj = step.output.order - step.inputs[0].order
        ds = step.output.scale - step.inputs[0].scale
        if abs(dj) != 1 or Fraction(dj) != n * ds:
            raise BrokenChain(
                f"{step.rule}: order shift {dj} does not match scale shift {ds} in dimension {n}"
            )
        return
    order = sum((e * sl.order for e, sl in zip(step.exponents, step.inputs)), Fraction(0))
    scale = sum((e * sl.scale for e, sl in zip(step.exponents, step.inputs)), Fraction(0))
    if order != step.output.order:
        raise BrokenChain(f"{step.rule}: output order {step.output.order}, inputs combine to {order}")
    if scale != step.output.scale:
        raise BrokenChain(f"{step.rule}: output scale {step.output.scale}, inputs combine to {scale}")


def verify_chain(chain: ProofChain) -> None:
    """Re-check a whole chain against its instance, with sets of Slots."""
    if not chain.steps:
        raise BrokenChain("empty chain")
    inst = chain.instance
    for step in chain.steps:
        verify_step(step, inst.n)
    produced = {step.output for step in chain.steps}
    consumed = {sl for step in chain.steps for sl in step.inputs}
    allowed = {Slot(inst.k, inst.sp), Slot(0, inst.sr)}
    free = consumed - produced
    if not free <= allowed:
        raise BrokenChain(f"unresolved slots {sorted(str(s) for s in free - allowed)}")
    target = Slot(inst.l, inst.sq)
    if chain.steps[-1].output != target:
        raise BrokenChain(f"chain ends at {chain.steps[-1].output}, target {target}")


def structural_violations(inst: InequalityInstance) -> list[Violation]:
    """Range, balance and theta-window violations, in Fraction arithmetic."""
    out = []
    if inst.n < 1:
        out.append(Violation("range", f"dimension n={inst.n} must be >= 1"))
    if not (1 <= inst.l < inst.k):
        out.append(Violation("range", f"orders must satisfy 1 <= l < k, got l={inst.l}, k={inst.k}"))
    for name, s in (("sp", inst.sp), ("sq", inst.sq), ("sr", inst.sr)):
        if s > 1:
            out.append(Violation("range", f"{name}={s} above the scale (p in (0,1) excluded)"))
    if inst.n >= 1:
        lhs = inst.sq - Fraction(inst.l, inst.n)
        rhs = inst.theta * (inst.sp - Fraction(inst.k, inst.n)) + (1 - inst.theta) * inst.sr
        if lhs != rhs:
            out.append(
                Violation("balance", f"sq - l/n = {lhs} but theta*(sp - k/n) + (1-theta)*sr = {rhs}")
            )
    if inst.k != 0:
        lo = Fraction(inst.l, inst.k)
        if not (lo <= inst.theta <= 1):
            out.append(Violation("theta", f"theta={inst.theta} outside [{lo}, 1]"))
    return out
