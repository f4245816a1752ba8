"""The integer slot-algebra checks against their Fraction-sum reference.

Every step of a seeded sample of criterion-8 chains (every n, k and l), and
single-field mutations of it, must get the same verdict and byte-identical
message from :func:`gninterp.derivation.verify_step` as from the reference
in ``fraction_reference``; mutations that pass the step check also go
through both ``verify_chain``. A float exponent, which the reference judges
by value, is a broken chain here. Every sampled chain survives a
certificate round trip.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F

import pytest

import fraction_reference as ref
from gninterp.derivation import (
    ProofChain,
    Slot,
    derive_chain,
    format_certificate,
    parse_certificate,
    verify_chain,
    verify_step,
)
from gninterp.errors import BrokenChain, InternalBorderline
from gninterp.indices import InequalityInstance, structural_violations


def _window(lo: int, hi: int, maxden: int) -> list[F]:
    return sorted({F(num, d) for d in range(1, maxden + 1) for num in range(lo * d, hi * d + 1)})


SCALES = _window(-2, 1, 6)
THETAS = _window(0, 1, 6)
PER_ORDERS = 8  # derived chains per (n, k, l)


def _sample_chains() -> list[ProofChain]:
    """A seeded sample of the criterion-8 window: PER_ORDERS chains per (n, k, l)."""
    rng = random.Random(12)
    chains = []
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            for l in range(1, k):
                ths = [t for t in THETAS if F(l, k) <= t]
                got = 0
                while got < PER_ORDERS:
                    sp, sr, th = rng.choice(SCALES), rng.choice(SCALES), rng.choice(ths)
                    sq = F(l, n) + th * (sp - F(k, n)) + (1 - th) * sr
                    if sq.denominator > 6 or sq > 1:
                        continue
                    try:
                        chains.append(derive_chain(InequalityInstance(n, k, l, sp, sq, sr, th)))
                    except InternalBorderline:
                        continue
                    got += 1
    return chains


CHAINS = _sample_chains()


def _mutations(step, n):
    """Single-field mutations of one step; a slot order never goes negative."""
    exps, ins, out = step.exponents, step.inputs, step.output
    swap = dataclasses.replace
    cands = []
    for i, e in enumerate(exps):
        for delta in (F(1, e.denominator), -F(1, e.denominator)):
            cands.append(swap(step, exponents=exps[:i] + (e + delta,) + exps[i + 1 :]))
    if len(exps) == 2:
        cands.append(swap(step, exponents=(F(-1, 2), F(3, 2))))
        cands.append(swap(step, exponents=(F(3, 2), F(-1, 2))))
        cands.append(swap(step, inputs=ins[::-1]))
    d = out.scale.denominator
    for delta in (F(1, d), -F(1, d)):
        cands.append(swap(step, output=Slot(out.order, out.scale + delta)))
    for delta in (1, -1):
        if out.order + delta >= 0:
            cands.append(swap(step, output=out.shifted(delta)))
        if ins[0].order + delta >= 0:
            cands.append(swap(step, inputs=(ins[0].shifted(delta),) + ins[1:]))
        if min(sl.order for sl in (*ins, out)) + delta >= 0:
            cands.append(step.shifted(delta))  # valid algebra, unresolved in the chain
    if len(ins) == 1:
        for delta in (F(1, n), -F(1, n)):
            cands.append(swap(step, output=Slot(out.order, out.scale + delta)))
            cands.append(swap(step, inputs=(Slot(ins[0].order, ins[0].scale + delta),)))
    return cands


def _verdict(check, *args) -> str | None:
    try:
        check(*args)
    except BrokenChain as exc:
        return str(exc)
    return None


def test_sample_covers_every_order_pair():
    orders = {(c.instance.n, c.instance.k, c.instance.l) for c in CHAINS}
    assert len(orders) == 18
    assert len(CHAINS) == 18 * PER_ORDERS


def test_steps_and_mutations_match_the_reference():
    checked = rejected = chain_checked = 0
    for chain in CHAINS:
        n = chain.instance.n
        for i, step in enumerate(chain.steps):
            assert _verdict(verify_step, step, n) is None
            assert _verdict(ref.verify_step, step, n) is None
            for bad in _mutations(step, n):
                want = _verdict(ref.verify_step, bad, n)
                assert _verdict(verify_step, bad, n) == want, bad
                checked += 1
                rejected += want is not None
                if want is None:
                    mutated = dataclasses.replace(chain, steps=chain.steps[:i] + (bad,) + chain.steps[i + 1 :])
                    assert _verdict(verify_chain, mutated) == _verdict(ref.verify_chain, mutated), bad
                    chain_checked += 1
    # Both verdicts occur, and the chain-level sets and target are exercised.
    assert 0 < rejected < checked
    assert chain_checked > 0


def test_float_exponents_are_broken_chains():
    # A float exponent has no exact numerator: the step is rejected as a
    # broken chain, even where its float values would sum to 1, and never
    # escapes as AttributeError.
    floated = 0
    for chain in CHAINS:
        n = chain.instance.n
        for step in chain.steps:
            exps = step.exponents
            for i, e in enumerate(exps):
                bad = dataclasses.replace(step, exponents=exps[:i] + (float(e),) + exps[i + 1 :])
                want = f"{step.rule}: exponents {bad.exponents} are not exact rationals"
                assert _verdict(verify_step, bad, n) == want
                floated += 1
    assert floated > 0
    chain = next(c for c in CHAINS if len(c.steps[-1].inputs) == 2)
    step, n = chain.steps[-1], chain.instance.n
    for exps in ((0.5, 0.5), (0.25, 0.75), (0.1, 0.2), (1.0, 0.0)):
        with pytest.raises(BrokenChain, match="are not exact rationals"):
            verify_step(dataclasses.replace(step, exponents=exps), n)


def test_certificates_round_trip():
    for chain in CHAINS:
        assert parse_certificate(format_certificate(chain)) == chain


def test_structural_violations_match_the_reference():
    rng = random.Random(7)
    values = SCALES[::5] + [F(7, 5), F(3, 2)]
    seen = set()
    for _ in range(3000):
        inst = InequalityInstance(
            rng.choice((-1, 0, 1, 2, 3)),
            rng.choice((-2, 0, 1, 2, 3, 4)),
            rng.choice((-1, 0, 1, 2, 3)),
            rng.choice(values),
            rng.choice(values),
            rng.choice(values),
            rng.choice(THETAS + [F(-1, 2), F(5, 4)]),
        )
        got = structural_violations(inst)
        assert got == ref.structural_violations(inst), inst
        seen.update(v.kind for v in got)
    # Balanced instances drawn from the sample chains pass both.
    for chain in CHAINS:
        assert structural_violations(chain.instance) == ref.structural_violations(chain.instance) == []
    assert seen == {"range", "balance", "theta"}
