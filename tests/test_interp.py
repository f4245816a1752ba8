"""Three-point interpolation: classification, constants, measured bounds."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import beta

import gninterp
from gninterp.errors import BadParams, GNInterpError, MalformedIndex
from gninterp.interp import (
    InterpCase,
    _eliminate_to_triple,
    InterpolationTriple,
    classify_triple,
    composite_nodes,
    holder_step_constant,
    mixed_case_constant,
    mixed_case_integral,
    reiteration_constants,
    reiteration_second,
    reiteration_theta,
    unit_ball_volume,
)
from gninterp.measure import check_interpolation, split_sum_inequality
from gninterp.norms import GridSpec, default_grid, sup_norm, xnorm
from gninterp.testfn import bump, bump_poly, bump_wave

from conftest import mesh_evaluations, record_mesh_evaluations

etas = st.fractions(min_value=F(1, 60), max_value=F(59, 60), max_denominator=60)


class TestTriple:
    def test_eta_is_affine_weight(self):
        t = InterpolationTriple(1, F(-1), F(-1, 3), F(1, 3))
        assert t.eta == F(1, 2)
        assert t.eta * t.left + (1 - t.eta) * t.right == t.mid

    def test_rejects_unordered(self):
        with pytest.raises(BadParams):
            InterpolationTriple(1, F(1, 2), F(0), F(-1, 2))

    def test_rejects_equal_scales(self):
        with pytest.raises(BadParams):
            InterpolationTriple(1, F(0), F(0), F(1, 2))


class TestClassification:
    def test_lebesgue(self):
        c = classify_triple(InterpolationTriple(1, F(1, 4), F(1, 2), F(1)))
        assert c.case is InterpCase.LEBESGUE
        assert c.bound == 1.0

    def test_lebesgue_includes_left_zero(self):
        c = classify_triple(InterpolationTriple(1, F(0), F(1, 4), F(1, 2)))
        assert c.case is InterpCase.LEBESGUE

    def test_holder_same_level(self):
        c = classify_triple(InterpolationTriple(1, F(-1, 2), F(-1, 3), F(-1, 4)))
        assert c.case is InterpCase.HOLDER_SAME
        assert c.bound == 1.0

    def test_holder_step_across_boundary(self):
        c = classify_triple(InterpolationTriple(1, F(-3, 2), F(-1), F(-1, 2)))
        assert c.case is InterpCase.HOLDER_STEP
        assert c.bound == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_holder_step_constant_formula(self):
        assert holder_step_constant(F(1, 2), F(1, 2)) == pytest.approx(3**0.5)
        assert holder_step_constant(F(1, 3), F(0)) == pytest.approx(4.0)
        assert holder_step_constant(F(1, 2), F(1)) == 1.0

    def test_ck_one_step(self):
        c = classify_triple(InterpolationTriple(1, F(-2), F(-1), F(0)))
        assert c.case is InterpCase.CK_STEP
        assert c.bound == 2.0

    def test_ck_one_step_planar(self):
        c = classify_triple(InterpolationTriple(2, F(-1), F(-1, 2), F(0)))
        assert c.case is InterpCase.CK_STEP
        assert c.bound == 2.0

    def test_ck_wide_gap_unquantified(self):
        c = classify_triple(InterpolationTriple(1, F(-3), F(-1), F(0)))
        assert c.case is InterpCase.CK_STEP
        assert c.bound is None

    def test_holder_same_bridged(self):
        c = classify_triple(InterpolationTriple(1, F(-3, 2), F(-5, 4), F(-1)))
        assert c.case is InterpCase.HOLDER_SAME_BRIDGED
        assert c.shift == 1
        assert c.bound is None

    def test_holder_step_bridged(self):
        c = classify_triple(InterpolationTriple(1, F(-5, 2), F(-2), F(-1)))
        assert c.case is InterpCase.HOLDER_STEP_BRIDGED
        assert c.shift == 1

    def test_mixed(self):
        c = classify_triple(InterpolationTriple(1, F(-1, 2), F(0), F(1, 2)))
        assert c.case is InterpCase.MIXED
        assert c.bound is None

    def test_mixed_planar_window(self):
        c = classify_triple(InterpolationTriple(2, F(-1, 4), F(0), F(1, 4)))
        assert c.case is InterpCase.MIXED

    def test_composite_crossing(self):
        t = InterpolationTriple(1, F(-5, 2), F(-1, 2), F(1, 2))
        c = classify_triple(t)
        assert c.case is InterpCase.COMPOSITE
        assert composite_nodes(t) == (F(-5, 2), F(-2), F(-1), F(-1, 2), F(0), F(1, 2))
        assert c.eta == t.eta

    def test_composite_nodes_insert_boundaries(self):
        t = InterpolationTriple(1, F(-5, 2), F(-3, 2), F(-1, 4))
        assert composite_nodes(t) == (F(-5, 2), F(-2), F(-3, 2), F(-1), F(-1, 4))

    def test_elimination_with_nodes_on_both_sides_lands_on_eta(self):
        t = InterpolationTriple(3, F(-7, 4), F(-7, 6), F(1, 2))
        nodes = composite_nodes(t)
        assert nodes == (
            F(-7, 4), F(-5, 3), F(-4, 3), F(-7, 6), F(-1), F(-2, 3), F(-1, 3), F(0), F(1, 2)
        )
        pieces = [classify_triple(InterpolationTriple(3, *abc)) for abc in zip(nodes, nodes[1:], nodes[2:])]
        etas = [c.eta for c in pieces]
        assert etas == [(c - b) / (c - a) for a, b, c in zip(nodes, nodes[1:], nodes[2:])]
        assert InterpCase.COMPOSITE not in {c.case for c in pieces}
        assert _eliminate_to_triple(etas, nodes.index(t.mid) - 1) == t.eta == F(20, 27)
        assert classify_triple(t).case is InterpCase.COMPOSITE

    def test_window_digest_is_frozen(self):
        # (case, eta, bound, shift) of every ordered triple of scales with
        # denominator <= 4 in [-2, 1], for n = 1..3: 2,907 triples.
        scales = sorted({F(a, d) for d in range(1, 5) for a in range(-2 * d, d + 1)})
        h = hashlib.sha256()
        for n in (1, 2, 3):
            for left, mid, right in itertools.combinations(scales, 3):
                c = classify_triple(InterpolationTriple(n, left, mid, right))
                h.update(repr((n, left, mid, right, c.case.value, c.eta, c.bound, c.shift)).encode())
        assert h.hexdigest() == "82ca14183addbc367ba3dbf72a3a88c2cb7d975a02bce34aa0719f274244795a"


class TestReiteration:
    @given(e1=etas, e2=etas, a=st.fractions(max_denominator=20), b=st.fractions(max_denominator=20))
    def test_weight_matches_affine_elimination(self, e1, e2, a, b):
        if a == b:
            return
        # y between (x, b), x between (a, y): eliminate and compare weights.
        theta1 = reiteration_theta(e1, e2)
        x = (e1 * a + (1 - e1) * (1 - e2) * b) / (1 - e2 + e1 * e2)
        assert x == theta1 * a + (1 - theta1) * b
        y = e2 * x + (1 - e2) * b
        theta2 = reiteration_second(e1, e2)
        assert y == theta2 * a + (1 - theta2) * b

    @given(e1=etas, e2=etas)
    def test_weights_stay_in_range(self, e1, e2):
        t1 = reiteration_theta(e1, e2)
        t2 = reiteration_second(e1, e2)
        assert 0 < t2 < t1 < 1

    def test_constants_power_balance(self):
        # With both step constants equal to 1 the reiterated constants are 1.
        c1, c2 = reiteration_constants(1.0, 1.0, F(1, 3), F(2, 5))
        assert c1 == 1.0
        assert c2 == 1.0

    def test_constants_example(self):
        c1, c2 = reiteration_constants(2.0, 3.0, F(1, 2), F(1, 2))
        d = 1 - 0.5 + 0.25
        assert c1 == pytest.approx((2.0 * 3.0**0.5) ** (1 / d))
        assert c2 == pytest.approx((3.0 * 2.0**0.5) ** (1 / d))


class TestSplitSum:
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        eta=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_termwise_never_exceeds_summed(self, pairs, eta):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        lhs, rhs = split_sum_inequality(a, b, eta)
        assert lhs <= rhs * (1 + 1e-14) + 1e-300

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            split_sum_inequality([1.0, -1.0], [1.0, 1.0], 0.5)

    def test_rejects_eta_outside(self):
        with pytest.raises(ValueError):
            split_sum_inequality([1.0], [1.0], 1.5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            split_sum_inequality([1.0], [1.0, 2.0], 0.5)


class TestMixedConstant:
    @pytest.mark.parametrize(
        "n,lam2,p",
        [
            (1, 0.5, 2.0),
            (1, 1.0, 1.0),
            (2, 0.5, 3.0),
            (2, 1.0, 4.0),
            (3, 0.75, 2.0),
            # Adaptive quadrature missed this one by about 1e-6 relative.
            (2, 0.25, 100.0),
        ],
    )
    def test_kernel_integral_matches_beta(self, n, lam2, p):
        # Independent route: the integral is Beta(n/lam2, p+1), here from
        # scipy's own implementation rather than from log-gamma.
        assert mixed_case_integral(n, lam2, p) == pytest.approx(
            beta(n / lam2, p + 1.0) / lam2, rel=1e-12, abs=0.0
        )

    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(gninterp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, gninterp; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_kernel_frozen_value(self):
        # n=1, lam2=1/2, p=2: Beta(2,3)/lam2 = (1/12)/(1/2) = 1/6.
        assert mixed_case_integral(1, 0.5, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_kernel_divergence(self):
        with pytest.raises(BadParams):
            mixed_case_integral(1, 0.5, -1.0)
        with pytest.raises(BadParams):
            mixed_case_integral(1, 0.0, 2.0)

    def test_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_constant_frozen_value(self):
        # (1, -1/2, 1/2): (n*omega_n*M)^(-1/4) = (2/6)^(-1/4) = 3^(1/4).
        assert mixed_case_constant(1, F(-1, 2), F(1, 2)) == pytest.approx(3.0**0.25, rel=1e-12)

    def test_constant_range_check(self):
        with pytest.raises(BadParams):
            mixed_case_constant(1, F(-3, 2), F(1, 2))

    def test_float_scales_raise_a_package_error(self):
        with pytest.raises(MalformedIndex) as info:
            mixed_case_constant(1, -0.5, 0.5)
        assert isinstance(info.value, GNInterpError)

    @pytest.mark.parametrize("fn", [bump(1), bump_poly(1, deg=1), bump_wave(1, omega=2.0)])
    def test_constant_dominates_measured_ratio(self, fn):
        t = InterpolationTriple(1, F(-1, 2), F(0), F(1, 2))
        rep = check_interpolation(t, fn, mode="seminorm")
        c = mixed_case_constant(1, t.left, t.right)
        assert rep.ratio <= c * (1 + rep.rel_error + 1e-9)


class TestMeasuredInterpolation:
    def test_lebesgue_log_convexity(self, bump1):
        t = InterpolationTriple(1, F(1, 4), F(1, 2), F(1))
        rep = check_interpolation(t, bump1, mode="full")
        assert rep.ok is True
        assert rep.ratio <= 1.0 + rep.rel_error + 1e-9

    def test_holder_same_seminorm(self, bump1):
        t = InterpolationTriple(1, F(-1, 2), F(-1, 3), F(-1, 4))
        rep = check_interpolation(t, bump1)
        assert rep.ok is True

    def test_holder_step_bound_holds(self, bump1):
        t = InterpolationTriple(1, F(-3, 2), F(-1), F(-1, 2))
        rep = check_interpolation(t, bump1)
        assert rep.ok is True
        assert rep.bound == pytest.approx(math.sqrt(3.0))

    def test_ck_step_delegation(self, bump1):
        t = InterpolationTriple(1, F(-2), F(-1), F(0))
        rep = check_interpolation(t, bump1)
        assert rep.classification.case is InterpCase.CK_STEP
        assert rep.ok is True
        assert rep.ratio <= 2.0

    def test_mixed_has_no_verdict(self, bump1):
        t = InterpolationTriple(1, F(-1, 2), F(0), F(1, 2))
        rep = check_interpolation(t, bump1)
        assert rep.ok is None
        assert rep.bound is None

    def test_zero_over_zero_holds(self, bump1):
        # The grid lies off the support, so all three norms are 0.
        t = InterpolationTriple(1, F(1, 4), F(3, 8), F(1, 2))
        rep = check_interpolation(t, bump1, lp_grid=GridSpec((5.0,), (6.0,), 33))
        assert (rep.mid_norm.value, rep.left_norm.value, rep.right_norm.value) == (0.0, 0.0, 0.0)
        assert rep.ratio == 1.0
        assert rep.ok is True

    @pytest.mark.parametrize(
        "scales,mode,evaluated",
        [
            ((F(1, 4), F(3, 8), F(1, 2)), "full", [("fine", "fields", (0,))]),
            ((F(-1, 2), F(-1, 3), F(-1, 4)), "full", [("nodes", "fields", (0,)), ("pair", "rows", (0,))]),
            ((F(-2), F(-1), F(0)), "seminorm", [("nodes", "fields", (0, 1, 2))]),
            ((F(-1, 2), F(0), F(1, 2)), "seminorm", [("fine", "fields", (0,)), ("pair", "rows", (0,))]),
        ],
        ids=["lebesgue", "holder-same-full", "ck-step", "mixed"],
    )
    def test_each_point_set_is_evaluated_once(self, bump1, monkeypatch, scales, mode, evaluated):
        t = InterpolationTriple(1, *scales)
        calls = record_mesh_evaluations(monkeypatch)
        rep = check_interpolation(t, bump1, mode=mode)
        assert sorted(mesh_evaluations(calls, bump1, default_grid(bump1, "lp"), default_grid(bump1, "pair"))) == evaluated
        monkeypatch.undo()
        # Shared fields give each norm the value its own norm call gives.
        for s, nv in zip(scales, (rep.left_norm, rep.mid_norm, rep.right_norm)):
            if rep.classification.case is InterpCase.CK_STEP:
                assert nv == sup_norm(bump1, order=int(-s))
            else:
                assert nv == xnorm(bump1, s, mode=mode)

    def test_ck_step_reads_sups_in_either_mode(self, bump1):
        # Any other mode raises (tests/test_errors.py, "ck-step-mode").
        t = InterpolationTriple(1, F(-2), F(-1), F(0))
        assert check_interpolation(t, bump1, mode="full") == check_interpolation(t, bump1, mode="seminorm")

    def test_dimension_mismatch_rejected(self, bump1):
        t = InterpolationTriple(2, F(-1, 2), F(-1, 4), F(1, 2))
        with pytest.raises(BadParams, match="dimension 1.*n=2"):
            check_interpolation(t, bump1)

    def test_ck_check_rejects_bad_orders(self, bump1):
        # Orders (1, 2, 0) are scales -1, -2, 0: not increasing.
        with pytest.raises(BadParams):
            check_interpolation(InterpolationTriple(1, F(-1), F(-2), F(0)), bump1)

    @pytest.mark.parametrize("make", [bump, lambda n: bump_poly(n, deg=2), lambda n: bump_wave(n, omega=3.0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_step_margin_positive(self, make, n):
        fn = make(n)
        rep = check_interpolation(InterpolationTriple(n, F(-2, n), F(-1, n), F(0)), fn)
        assert rep.ok is True
        assert rep.ratio < 2.0
