"""Proof chains: construction, exact re-verification, serialization, numerics."""

import dataclasses
import math
from fractions import Fraction as F

import pytest

from gninterp import derivation, measure
from gninterp.derivation import (
    RULE_BASE,
    RULE_INDUCT_DIAG,
    RULE_ENDPOINT,
    RULE_IDENTITY,
    RULE_INDUCT_K,
    RULE_INTERP,
    RULE_SOBOLEV,
    ProofChain,
    _interp_step,
    Slot,
    Step,
    base_lemma_steps,
    chain_constant,
    derive_chain,
    describe_step,
    format_certificate,
    parse_certificate,
    sobolev_chain,
    verify_chain,
    verify_step,
)
from gninterp.errors import (
    BadCertificate,
    BadParams,
    BorderlineIndex,
    BrokenChain,
    InternalBorderline,
    InvalidInstance,
)
from gninterp.indices import InequalityInstance, solve_q
from gninterp.interp import InterpolationTriple
from gninterp.measure import check_interpolation, dilation_slope, dilation_sweep, evaluate_chain
from gninterp.norms import default_grid, sup_norm, xnorm
from gninterp.testfn import bump, bump_poly, plateau

from conftest import make_instance, mesh_evaluations, record_mesh_evaluations

GOLDEN_INSTANCE = InequalityInstance(3, 2, 1, F(1, 2), F(1, 12), F(-1, 3), F(1, 2))

GOLDEN_CERT = """gninterp-certificate 1
instance n=3 k=2 l=1 sp=1/2 sq=1/12 sr=-1/3 theta=1/2
steps 4
step SOBOLEV_STEP in=2,1/2 out=1,1/6 exp=1 constant=empirical
step HOLDER_IDENTITY in=0,-1/3 out=1,0 exp=1 constant=empirical note=pair quotients on a mesh undershoot the derivative sup
step LEMMA31 in=1,0;1,1/6 out=1,1/12 exp=1/2;1/2 constant=1.0 note=lebesgue
step BASE_LEMMA in=2,1/2;0,-1/3 out=1,1/12 exp=1/2;1/2 constant=empirical note=first-order route (lebesgue)
"""


class TestSobolevChain:
    def test_lebesgue_descent(self):
        chain = sobolev_chain(3, 2, 0, F(1))
        scales = [chain.steps[0].inputs[0].scale] + [s.output.scale for s in chain.steps]
        assert scales == [F(1), F(2, 3), F(1, 3)]
        assert [s.rule for s in chain.steps] == [RULE_SOBOLEV, RULE_SOBOLEV]

    def test_borderline_rejected(self):
        with pytest.raises(BorderlineIndex):
            sobolev_chain(2, 2, 0, F(1, 2))

    def test_holder_descent_is_identity(self):
        chain = sobolev_chain(1, 2, 1, F(-1, 2))
        assert len(chain.steps) == 1
        step = chain.steps[0]
        assert step.rule == RULE_IDENTITY
        assert step.output == Slot(1, F(-3, 2))
        assert step.constant == 1.0
        assert chain.final_constant == 1.0

    def test_crossing_descent_switches_rules(self):
        chain = sobolev_chain(1, 3, 1, F(1, 2))
        assert [s.rule for s in chain.steps] == [RULE_SOBOLEV, RULE_IDENTITY]
        verify_chain(chain)

    def test_descent_to_order_zero(self):
        # Order l = 0 is outside derive_chain's range (1 <= l < k).
        chain = sobolev_chain(1, 3, 0, F(-1, 2))
        assert chain.instance == InequalityInstance(1, 3, 0, F(-1, 2), F(-7, 2), F(-7, 2), F(1))
        assert [(s.inputs[0], s.output) for s in chain.steps] == [
            (Slot(3, F(-1, 2)), Slot(2, F(-3, 2))),
            (Slot(2, F(-3, 2)), Slot(1, F(-5, 2))),
            (Slot(1, F(-5, 2)), Slot(0, F(-7, 2))),
        ]
        assert {s.rule for s in chain.steps} == {RULE_IDENTITY}
        assert chain.final_constant == 1.0

    @pytest.mark.parametrize("n,k,l,sp", [(1, 2, 1, F(1)), (2, 3, 0, F(1, 2)), (2, 3, 0, F(1)),
                                          (3, 4, 1, F(1, 3)), (3, 4, 1, F(2, 3)), (3, 4, 1, F(1))])
    def test_excluded_set_is_borderline(self, n, k, l, sp):
        # n*sp in {1, ..., k-l}: some descent scale lands on 1/n.
        with pytest.raises(BorderlineIndex):
            sobolev_chain(n, k, l, sp)

    def test_just_outside_excluded_set_descends(self):
        # n*sp = 3 > k - l = 2 never reaches 1/n.
        chain = sobolev_chain(3, 3, 1, F(1))
        assert chain.steps[-1].output == Slot(1, F(1, 3))

    @pytest.mark.parametrize("n,k,l", [(0, 2, 1), (1, 2, 2), (1, 2, 3), (1, 2, -1)])
    def test_invalid_orders_or_dimension_rejected(self, n, k, l):
        with pytest.raises(InvalidInstance):
            sobolev_chain(n, k, l, F(1, 2))


class TestBaseLemma:
    @pytest.mark.parametrize(
        "args,rules,note,constant",
        [
            # First-order route, every child explicit: sqrt(1 * 1) * 2.
            ((1, F(-2), F(-2)), [RULE_IDENTITY, RULE_IDENTITY, RULE_INTERP, RULE_BASE],
             "first-order route (ck_step)", 2.0),
            # First-order route with coincident targets: no interpolation child.
            ((1, F(-1), F(-3)), [RULE_IDENTITY, RULE_IDENTITY, RULE_BASE],
             "first-order route, coincident targets", 1.0),
            # First-order route with an empirical embedding child.
            ((3, F(1, 2), F(-1, 3)), [RULE_SOBOLEV, RULE_IDENTITY, RULE_INTERP, RULE_BASE],
             "first-order route (lebesgue)", None),
            # Zero-order route: the order-0 interpolation child is empirical.
            ((1, F(-1, 2), F(-1, 2)),
             [RULE_IDENTITY, RULE_IDENTITY, RULE_INTERP, RULE_IDENTITY, RULE_BASE],
             "zero-order route (composite)", None),
            # Direct: a single generous leaf.
            ((2, F(1, 2), F(-1, 2)), [RULE_BASE], "direct (mixed)", None),
        ],
        ids=["first_order", "first_order_coincident", "first_order_empirical", "zero_order", "direct"],
    )
    def test_route_shape_and_constant(self, args, rules, note, constant):
        n, sp, sr = args
        steps = base_lemma_steps(n, sp, sr)
        assert [s.rule for s in steps] == rules
        parent = steps[-1]
        assert parent.note == note
        assert parent.constant == constant
        assert parent.inputs == (Slot(2, sp), Slot(0, sr))
        assert parent.output == Slot(1, (sp + sr) / 2)
        assert chain_constant(steps) == constant

    def test_first_order_route(self):
        steps = base_lemma_steps(3, F(1, 2), F(-1, 3))
        assert [s.rule for s in steps] == [
            RULE_SOBOLEV,
            RULE_IDENTITY,
            RULE_INTERP,
            RULE_BASE,
        ]
        parent = steps[-1]
        assert parent.output == Slot(1, F(1, 12))
        assert parent.exponents == (F(1, 2), F(1, 2))
        assert "first-order route" in parent.note

    def test_zero_order_route(self):
        steps = base_lemma_steps(1, F(1, 3), F(-2, 3))
        parent = steps[-1]
        assert parent.rule == RULE_BASE
        assert "zero-order route" in parent.note
        assert parent.output.scale == (F(1, 3) + F(-2, 3)) / 2

    def test_classical_lebesgue(self):
        steps = base_lemma_steps(1, F(1), F(1))
        assert len(steps) == 1
        assert steps[0].note == "direct (equal scales)"
        assert steps[0].output == Slot(1, F(1))

    def test_mixed_middle(self):
        steps = base_lemma_steps(2, F(1, 2), F(-1, 2))
        assert steps[-1].output.scale == 0
        assert "mixed" in steps[-1].note

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInstance):
            base_lemma_steps(1, F(3, 2), F(-1))


class TestDeriveChainShapes:
    def test_pure_base(self):
        chain = derive_chain(InequalityInstance(1, 2, 1, F(1), F(0), F(-1), F(1, 2)))
        assert [s.rule for s in chain.steps] == [RULE_BASE]
        assert chain.steps[-1].output == Slot(1, F(0))

    def test_induct_k_over_base_pair(self):
        inst = make_instance(3, 3, 1, F(1), F(-1, 3), F(1, 3))
        chain = derive_chain(inst)
        assert [s.rule for s in chain.steps] == [
            RULE_SOBOLEV,
            RULE_IDENTITY,
            RULE_INTERP,
            RULE_BASE,
            RULE_BASE,
            RULE_INDUCT_K,
        ]
        assert chain.steps[-1].exponents == (F(1, 3), F(2, 3))

    def test_theta_one_is_pure_descent(self):
        inst = make_instance(1, 3, 1, F(1, 2), F(-1), F(1))
        chain = derive_chain(inst)
        assert [s.rule for s in chain.steps] == [RULE_SOBOLEV, RULE_IDENTITY]

    def test_diagonal_with_endpoint(self):
        inst = make_instance(1, 3, 2, F(-1, 2), F(-2), F(3, 4))
        chain = derive_chain(inst)
        rules = [s.rule for s in chain.steps]
        assert rules.count(RULE_INDUCT_DIAG) == 1
        assert rules[-1] == RULE_ENDPOINT
        assert rules.count(RULE_BASE) == 2

    def test_interior_theta_two_legs(self):
        inst = make_instance(2, 2, 1, F(-1, 2), F(-1), F(3, 4))
        chain = derive_chain(inst)
        assert chain.steps[-1].rule == RULE_ENDPOINT
        # eta = (theta - l/k) / (1 - l/k) = 1/2
        assert chain.steps[-1].exponents == (F(1, 2), F(1, 2))

    def test_invalid_balance_rejected(self):
        with pytest.raises(InvalidInstance):
            derive_chain(InequalityInstance(1, 2, 1, F(1), F(1, 7), F(-1), F(1, 2)))

    def test_order_range_rejected(self):
        with pytest.raises(InvalidInstance):
            derive_chain(InequalityInstance(1, 2, 2, F(1), F(1), F(1), F(1)))

    def test_excluded_index_reports_borderline(self):
        inst = make_instance(1, 2, 1, F(1), F(-1), F(3, 4))
        with pytest.raises(InternalBorderline) as exc:
            derive_chain(inst)
        # The convexity leg, built before the descent fails, is carried whole.
        convexity = derive_chain(make_instance(1, 2, 1, F(1), F(-1), F(1, 2)))
        assert exc.value.partial_steps == convexity.steps

    def test_excluded_index_at_theta_one_has_no_partial_steps(self):
        with pytest.raises(InternalBorderline) as exc:
            derive_chain(make_instance(1, 2, 1, F(1), F(-1), F(1)))
        assert exc.value.partial_steps == ()

    def test_every_chain_reverifies(self):
        rosters = [
            make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(1, 2)),
            make_instance(1, 2, 1, F(1, 3), F(-3), F(1, 2)),
            make_instance(1, 3, 1, F(1, 3), F(-2), F(1, 3)),
            make_instance(1, 3, 2, F(-1, 2), F(-2), F(3, 4)),
            make_instance(2, 2, 1, F(3, 4), F(-1, 2), F(3, 4)),
            make_instance(3, 4, 2, F(1), F(-1, 3), F(2, 3)),
        ]
        for inst in rosters:
            verify_chain(derive_chain(inst))


class TestExactVerification:
    def test_tampered_exponents_detected(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        bad = dataclasses.replace(chain.steps[2], exponents=(F(2, 3), F(1, 3)))
        with pytest.raises(BrokenChain):
            verify_step(bad, GOLDEN_INSTANCE.n)

    def test_exponents_must_sum_to_one(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        bad = dataclasses.replace(chain.steps[2], exponents=(F(1, 2), F(1, 3)))
        with pytest.raises(BrokenChain):
            verify_step(bad, GOLDEN_INSTANCE.n)

    def test_tampered_output_scale_detected(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        bad = dataclasses.replace(chain.steps[0], output=Slot(1, F(1, 5)))
        with pytest.raises(BrokenChain):
            verify_step(bad, GOLDEN_INSTANCE.n)

    def test_dangling_slot_detected(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        broken = ProofChain(chain.instance, chain.steps[1:])
        with pytest.raises(BrokenChain):
            verify_chain(broken)

    def test_wrong_final_slot_detected(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        wrong = dataclasses.replace(
            chain.instance, sq=F(1, 11), theta=chain.instance.theta
        )
        with pytest.raises(BrokenChain):
            verify_chain(ProofChain(wrong, chain.steps))

    def test_empty_steps_have_no_constant(self):
        assert chain_constant(()) is None

    def test_chain_constant_matches_property(self):
        chain = derive_chain(make_instance(1, 3, 2, F(-1, 2), F(-2), F(3, 4)))
        assert chain.final_constant == chain_constant(chain.steps)

    @pytest.mark.parametrize(
        "args,want",
        [
            # Pure Holder descent: one identity step.
            ((1, 2, 1, F(-1, 2), F(-2), F(1)), 1.0),
            # First-order route through a one-step C^k triple (factor 2).
            ((1, 2, 1, F(-2), F(-2), F(1, 2)), 2.0),
            # First-order route through a boundary-step triple: the
            # holder_step bound (1 + 1/p2_left)^(1-eta) = sqrt(2.2).
            ((1, 2, 1, F(-5, 6), F(-7, 6), F(1, 2)), math.sqrt(2.2)),
        ],
        ids=["holder_identity", "ck_step", "holder_step"],
    )
    def test_explicit_chain_constant(self, args, want):
        chain = derive_chain(make_instance(*args))
        assert chain_constant(chain.steps) == want

    @pytest.mark.parametrize(
        "args,want",
        [
            # theta = l/k: the convexity leg alone, its INDUCT_DIAG parent
            # combining the explicit constants of both sub-legs.
            ((1, 3, 2, F(-2), F(-2), F(2, 3)), 4.0),
            ((2, 3, 2, F(-2, 3), F(-5, 3), F(2, 3)), 2 ** (4 / 3)),
        ],
        ids=["line", "plane"],
    )
    def test_diagonal_explicit_constant(self, args, want):
        chain = derive_chain(make_instance(*args))
        assert chain.steps[-1].rule == RULE_INDUCT_DIAG
        assert chain.steps[-1].constant == want
        assert chain.final_constant == want


class TestCertificates:
    def test_golden_bytes(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        assert format_certificate(chain) == GOLDEN_CERT

    def test_round_trip_identical(self):
        for inst in (
            GOLDEN_INSTANCE,
            make_instance(1, 3, 2, F(-1, 2), F(-2), F(3, 4)),
            make_instance(2, 2, 1, F(-1, 2), F(-1), F(3, 4)),
        ):
            chain = derive_chain(inst)
            text = format_certificate(chain)
            again = parse_certificate(text)
            assert format_certificate(again) == text
            assert again.instance == chain.instance

    def test_embedding_to_order_zero_round_trips(self):
        # sobolev_chain instances (theta = 1) may end at order 0.
        for chain in (sobolev_chain(1, 3, 0, F(-1, 2)), sobolev_chain(3, 2, 0, F(1))):
            assert chain.instance.l == 0
            assert parse_certificate(format_certificate(chain)) == chain
        text = format_certificate(sobolev_chain(1, 3, 0, F(-1, 2)))
        with pytest.raises(BadCertificate, match="orders must satisfy 1 <= l < k"):
            parse_certificate(text.replace("theta=1", "theta=1/2"))

    def test_read_back_chain_shares_the_written_steps(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        parsed = parse_certificate(format_certificate(chain))
        assert parsed.instance is chain.instance
        assert all(a is b for a, b in zip(parsed.steps, chain.steps))

    def test_step_line_never_written_parses_to_an_equal_step(self):
        # A stored step is taken only when it equals what the reader parsed.
        chain = derive_chain(GOLDEN_INSTANCE)
        text = format_certificate(chain)
        step = chain.steps[0]
        odd = dataclasses.replace(step, note=step.note + " (not this line's step)")
        line = text.splitlines()[3]
        derivation._WRITTEN[line] = odd
        try:
            parsed = parse_certificate(text)
        finally:
            derivation._WRITTEN[line] = step
        assert parsed.steps[0] == step and parsed.steps[0] is not odd

    def test_written_lines_table_starts_over_when_full(self, monkeypatch):
        monkeypatch.setattr(derivation, "_WRITTEN", {"stale": None})
        monkeypatch.setattr(derivation, "_WRITTEN_MAX", 0)
        chain = derive_chain(GOLDEN_INSTANCE)
        lines = format_certificate(chain).splitlines()
        assert derivation._WRITTEN.keys() == {lines[1], *lines[3:]}

    def test_derived_slots_and_exponents_are_interned(self):
        a, b = derive_chain(GOLDEN_INSTANCE), derive_chain(GOLDEN_INSTANCE)
        for x, y in zip(a.steps, b.steps):
            assert all(s is t for s, t in zip((*x.inputs, x.output), (*y.inputs, y.output)))
            assert x.exponents is y.exponents

    def test_determinism_across_runs(self):
        a = format_certificate(derive_chain(GOLDEN_INSTANCE))
        b = format_certificate(derive_chain(GOLDEN_INSTANCE))
        assert a == b

    def test_describe_mentions_rule_and_slots(self):
        chain = derive_chain(GOLDEN_INSTANCE)
        line = describe_step(chain.steps[-1])
        assert "[BASE_LEMMA]" in line
        assert "N(1,1/12)" in line

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: t.replace("gninterp-certificate 1", "gninterp-certificate 9"),
            lambda t: t.replace("steps 4", "steps 5"),
            lambda t: t.replace("exp=1/2;1/2", "exp=1/2;1/3"),
            lambda t: t.replace("step SOBOLEV_STEP", "step MYSTERY_RULE"),
            lambda t: t.replace("n=3", "n=x"),
            lambda t: "\n".join(t.splitlines()[1:]),
            lambda t: t.replace("out=1,1/6", "out=1,1/7", 1),
            lambda t: t.replace("exp=1/2;1/2", "exp=1/0;1/2"),
            lambda t: t.replace("sp=1/2", "sp=3/0"),
            lambda t: t.replace("instance n=3", "instance n=0 n=3"),
            lambda t: t.replace("instance n=3", "instance n=2 n=0"),
        ],
    )
    def test_mangled_certificates_rejected(self, mangle):
        with pytest.raises((BadCertificate, BrokenChain)):
            parse_certificate(mangle(GOLDEN_CERT))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("exp=1/2;1/2", "exp=1/0;1/2", "denominator of '1/0' must be positive"),
            ("sp=1/2", "sp=3/0", "denominator of '3/0' must be positive"),
            ("exp=1/2;1/2", "exp=0.5;1/2", "invalid literal for int"),
            ("instance n=3", "instance n=0 n=3", "duplicate key"),
            ("out=1,1/6 exp=1", "out=1,1/6 out=1,1/6 exp=1", "duplicate key"),
            ("n=3", "n=0", "invalid instance: dimension n=0 must be >= 1"),
            ("sq=1/12", "sq=1/11", "invalid instance: sq - l/n = -8/33 but"),
            ("theta=1/2", "theta=1/3", "invalid instance: .*theta=1/3 outside \\[1/2, 1\\]"),
            ("theta=1/2\n", "theta=1/2 bogus=7\n", "unknown keys \\['bogus'\\] in 'n=3 "),
            (" constant=empirical", " extra=5 constant=empirical", "unknown keys \\['extra'\\] in 'in=2,1/2 "),
            # No step constant is zero, negative or non-finite; before, each verified.
            ("constant=1.0", "constant=nan", "LEMMA31: constant must be finite and positive, got 'nan'"),
            ("constant=1.0", "constant=inf", "LEMMA31: constant must be finite and positive, got 'inf'"),
            ("constant=1.0", "constant=-5.0", "LEMMA31: constant must be finite and positive, got '-5.0'"),
            ("constant=1.0", "constant=0.0", "LEMMA31: constant must be finite and positive, got '0.0'"),
        ],
        ids=["zero-denominator", "zero-denominator-index", "decimal", "duplicate-instance-key",
             "duplicate-step-key", "zero-dimension", "unbalanced", "theta-window", "unknown-instance-key",
             "unknown-step-key", "constant-nan", "constant-inf", "constant-negative", "constant-zero"],
    )
    def test_malformed_fields_are_bad_certificates(self, old, new, message):
        # Not broken chains: the text does not describe a valid instance or step.
        with pytest.raises(BadCertificate, match=message):
            parse_certificate(GOLDEN_CERT.replace(old, new, 1))

    @pytest.mark.parametrize(
        "text,message",
        [
            (GOLDEN_CERT + "hello world\n", "expected a step line, got 'hello world'"),
            (GOLDEN_CERT + GOLDEN_CERT.splitlines()[-1] + "\n", "header promises 4 steps, found 5"),
            (GOLDEN_CERT.replace("instance n=3", "garbage n=3"), "expected an instance line"),
            (GOLDEN_CERT.replace("steps 4", "stops 4"), "expected a steps line"),
            (GOLDEN_CERT.replace("steps 4", "steps 4 more"), "malformed certificate: too many values"),
        ],
        ids=["trailing-text", "trailing-step", "instance-keyword", "steps-keyword", "steps-tokens"],
    )
    def test_lines_outside_the_layout_are_bad_certificates(self, text, message):
        assert parse_certificate(GOLDEN_CERT).steps  # the unmangled text verifies
        with pytest.raises(BadCertificate, match=message):
            parse_certificate(text)


class TestNumericWalk:
    def test_identity_steps_measure_one(self):
        inst = make_instance(1, 3, 2, F(-1, 2), F(-2), F(1))
        chain = derive_chain(inst)
        ev = evaluate_chain(chain, bump(1))
        for m in ev.steps:
            if m.step.rule == RULE_IDENTITY and m.step.constant == 1.0:
                assert m.ratio == pytest.approx(1.0, abs=1e-10)
        assert ev.ok

    def test_no_violations_on_family(self):
        inst = make_instance(1, 2, 1, F(1, 3), F(-1), F(1, 2))
        chain = derive_chain(inst)
        for fn in (bump(1), bump_poly(1, deg=2), plateau(1, rho=0.5)):
            ev = evaluate_chain(chain, fn)
            assert ev.violations == ()

    def test_amplitude_invariance(self):
        inst = make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(1, 2))
        chain = derive_chain(inst)
        base = evaluate_chain(chain, bump(1)).end_ratio
        scaled = evaluate_chain(chain, bump(1).scaled(10.0)).end_ratio
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_step_verdict_matches_the_triple_check(self):
        step = _interp_step(1, 0, F(-3), F(-2), F(-3, 2))
        inst = make_instance(1, 2, 1, F(-1, 2), F(-2), F(1))
        (m,) = evaluate_chain(ProofChain(inst, (step,)), bump(1)).steps
        rep = check_interpolation(InterpolationTriple(1, F(-3), F(-2), F(-3, 2)), bump(1))
        assert rep.classification.case.value == "holder_step"
        assert (m.ratio, m.rel_error) == (rep.ratio, rep.rel_error)
        assert m.violation is (rep.ok is False)

    def test_dimension_mismatch_rejected(self):
        chain = derive_chain(make_instance(2, 2, 1, F(3, 4), F(-1, 2), F(1, 2)))
        with pytest.raises(BadParams, match="dimension 1.*n=2"):
            evaluate_chain(chain, bump(1))

    def test_each_point_set_is_evaluated_once(self, monkeypatch):
        # Slots: sup of order 1, Lebesgue norms of orders 2 and 3, Holder
        # seminorms at orders 0 and 1 (sup order 1 is no Lebesgue order, so
        # the lp nodes are evaluated on their own).
        chain = derive_chain(make_instance(2, 3, 1, F(3, 4), F(-1, 2), F(2, 3)))
        fn = bump_poly(2, deg=2).translate(0.1)
        lp_grid = dataclasses.replace(default_grid(fn, "lp"), points_per_axis=65)
        slots = [sl for sl, _ in evaluate_chain(chain, fn, lp_grid=lp_grid).norms]
        calls = record_mesh_evaluations(monkeypatch)
        ev = evaluate_chain(chain, fn, lp_grid=lp_grid)
        assert sorted(mesh_evaluations(calls, fn, lp_grid, default_grid(fn, "pair"))) == [
            ("fine", "fields", (2, 3)),
            ("nodes", "fields", (1,)),
            ("pair", "jet", (1,)),
        ]
        monkeypatch.undo()
        # Shared fields give each slot the value its own norm call gives.
        assert [sl for sl, _ in ev.norms] == slots
        for sl, nv in ev.norms:
            alone = xnorm(fn, sl.scale, order=sl.order, mode="seminorm", lp_grid=lp_grid)
            assert (nv.value, nv.error_estimate) == (alone.value, alone.error_estimate), sl

    def test_sup_nodes_are_sliced_from_the_fine_field(self, monkeypatch):
        # Sup of order 1 and Lebesgue norms of order 1: the lp nodes need no evaluation.
        chain = derive_chain(make_instance(2, 2, 1, F(3, 4), F(-1, 2), F(1, 2)))
        fn = plateau(2, rho=0.5)
        lp_grid = default_grid(fn, "lp")
        calls = record_mesh_evaluations(monkeypatch)
        ev = evaluate_chain(chain, fn)
        assert sorted(mesh_evaluations(calls, fn, lp_grid, default_grid(fn, "pair"))) == [
            ("fine", "fields", (1, 2)),
            ("pair", "jet", (0,)),
        ]
        monkeypatch.undo()
        (sup,) = [nv for sl, nv in ev.norms if sl.scale == 0]
        assert sup == sup_norm(fn, order=1)

    def test_walk_is_deterministic(self):
        inst = make_instance(1, 2, 1, F(1, 3), F(-1), F(1, 2))
        chain = derive_chain(inst)
        first = evaluate_chain(chain, bump(1))
        second = evaluate_chain(chain, bump(1))
        assert [m.ratio for m in first.steps] == [m.ratio for m in second.steps]
        assert first.end_ratio == second.end_ratio


class TestDilation:
    def test_balanced_sweep_is_flat(self):
        inst = make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4))
        points = dilation_sweep(inst, bump(1), [0.5, 1.0, 2.0])
        ratios = [r for _, r in points]
        assert max(ratios) / min(ratios) <= 1.0 + 1e-9

    def test_lambda_one_matches_chain_walk(self):
        inst = make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4))
        chain = derive_chain(inst)
        end = evaluate_chain(chain, bump(1)).end_ratio
        points = dilation_sweep(inst, bump(1), [1.0])
        assert points[0][1] == pytest.approx(end, rel=1e-14)

    def test_theta_one_skips_the_weightless_norm(self, monkeypatch):
        # At theta = 1 the factor N(0, sr) has weight 0 and is not measured.
        inst = make_instance(1, 2, 1, F(-1, 2), F(-2), F(1))
        calls = []
        slot_norms = measure._slot_norms

        def recording(fn, slots, mode, *grids):
            calls.append([(order, s) for s, order in slots])
            return slot_norms(fn, slots, mode, *grids)

        monkeypatch.setattr(measure, "_slot_norms", recording)
        points = dilation_sweep(inst, bump(1), [0.5, 1.0])
        assert calls == [[(1, inst.sq), (2, inst.sp)]] * 2
        assert all(math.isfinite(r) and r > 0 for _, r in points)

    def test_dimension_mismatch_rejected(self):
        inst = make_instance(2, 2, 1, F(3, 4), F(-1, 2), F(1, 2))
        with pytest.raises(BadParams, match="dimension 3.*n=2"):
            dilation_sweep(inst, bump(3), [1.0])

    def test_each_dilation_is_evaluated_once(self, monkeypatch):
        # N(1, sq) and N(2, sp) are Lebesgue norms, N(0, sr) a Holder seminorm.
        inst = make_instance(2, 2, 1, F(3, 4), F(-1, 2), F(1, 2))
        fn = bump(2)
        calls = record_mesh_evaluations(monkeypatch)
        dilation_sweep(inst, fn, [0.5, 1.0, 2.0])
        for lam in (0.5, 1.0, 2.0):
            v = fn.dilate(lam)
            evaluated = mesh_evaluations(calls, v, default_grid(v, "lp"), default_grid(v, "pair"))
            assert sorted(evaluated) == [("fine", "fields", (1, 2)), ("pair", "jet", (0,))], lam

    @pytest.mark.parametrize("kind", ["lp", "pair"])
    def test_explicit_grid_must_cover_the_dilated_support(self, kind):
        # bump(1)'s grid has half-width 1.05; at lambda 0.5 the support has radius 2.
        inst = make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4))
        grid = dataclasses.replace(default_grid(bump(1), kind), points_per_axis=257)
        with pytest.raises(BadParams, match=f"{kind}_grid box .* does not cover .* at lambda=0.5"):
            dilation_sweep(inst, bump(1), [0.5], **{f"{kind}_grid": grid})
        # The same grid covers lambda 1 and 2, and any grid built on the dilation itself.
        for lam in (1.0, 2.0):
            dilation_sweep(inst, bump(1), [lam], **{f"{kind}_grid": grid})
        dilation_sweep(inst, bump(1), [0.5], **{f"{kind}_grid": default_grid(bump(1).dilate(0.5), kind)})

    @pytest.mark.parametrize("kind", ["lp", "pair"])
    def test_explicit_grid_takes_one_lambda(self, kind):
        # A grid built on one dilation's box would misread the others.
        inst = make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4))
        grid = {f"{kind}_grid": default_grid(bump(1), kind)}
        with pytest.raises(BadParams, match="pass one lambda per call, got 3"):
            dilation_sweep(inst, bump(1), [0.5, 1.0, 2.0], **grid)

    @pytest.mark.parametrize("points,pair_points", [(257, None), (None, 129), (257, 129)])
    def test_grids_on_each_dilation_read_the_balanced_ratio(self, points, pair_points):
        inst = make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4))
        fn, rows = bump(1), []
        for lam in (0.5, 1.0, 2.0):
            grids = {}
            for kind, value in (("lp", points), ("pair", pair_points)):
                if value is not None:
                    grid = default_grid(fn.dilate(lam), kind)
                    grids[f"{kind}_grid"] = dataclasses.replace(grid, points_per_axis=value)
            rows += dilation_sweep(inst, fn, [lam], **grids)
        assert [repr(r) for _, r in rows] == ["0.7302117815661451", "0.730211781566145", "0.7302117815661451"]

    def test_broken_balance_has_analytic_slope(self):
        inst = make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4))
        shift = F(1, 10)
        points = dilation_sweep(inst, bump(1), [0.5, 1.0, 2.0], sq_shift=shift)
        slope = dilation_slope(points)
        assert slope == pytest.approx(-float(inst.n * shift), rel=5e-2)

    @pytest.mark.parametrize(
        "sweep,message",
        [
            ([], "two distinct finite positive lambdas, got \\[\\]"),
            ([(1.0, 2.0)], "two distinct finite positive lambdas"),
            ([(1.0, 2.0), (1.0, 3.0)], "two distinct finite positive lambdas"),
            ([(0.0, 2.0), (1.0, 3.0)], "two distinct finite positive lambdas"),
            ([(0.5, 2.0), (math.inf, 3.0)], "two distinct finite positive lambdas"),
            ([(0.5, 0.0), (1.0, 3.0)], "ratio 0.0 at lambda 0.5 has no logarithm"),
            ([(0.5, 2.0), (1.0, math.inf)], "ratio inf at lambda 1.0 has no logarithm"),
            ([(0.5, 2.0), (1.0, math.nan)], "ratio nan at lambda 1.0 has no logarithm"),
        ],
    )
    def test_slope_rejects_sweeps_without_one(self, sweep, message, capfd):
        with pytest.raises(BadParams, match=message):
            dilation_slope(sweep)
        assert capfd.readouterr() == ("", "")  # nothing reaches LAPACK's stderr
