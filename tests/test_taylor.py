"""Taylor series checks: the jet kernel's one-variable recurrences, the
oracle's n-variable series algebra, and jets against finite differences and
closed forms."""

from math import factorial

import numpy as np
import pytest

from gninterp.testfn import (
    _cos_rows,
    _exp,
    _linear,
    _mul,
    _power_rows,
    _reciprocal,
    bump,
    bump_wave,
    multi_indices,
    multi_indices_exact,
)
from series_algebra import TaylorSeries, exp, int_pow, reciprocal, sin_cos


def fd_derivative(f, x: float, order: int, h: float = 1e-2) -> float:
    """Central finite difference with one Richardson pass, scalar 1d input."""

    def stencil(step: float) -> float:
        if order == 0:
            return f(np.array([[x]]))[0]
        offsets = np.arange(-order, order + 1)
        from math import comb

        # Central difference of order `order` with accuracy O(step^2):
        # iterate first differences to keep the weights simple and exact.
        vals = f((x + offsets * step).reshape(-1, 1)).astype(float)
        for _ in range(order):
            vals = (vals[2:] - vals[:-2]) / (2 * step)
        assert vals.shape[0] == 1
        return float(vals[0])

    coarse, fine = stencil(h), stencil(h / 2)
    return (4 * fine - coarse) / 3


def _rows_of(series: TaylorSeries, npts: int) -> np.ndarray:
    """A one-variable oracle series as (order + 1, npts) rows, absent keys zero."""
    return np.array([np.broadcast_to(series.coeffs.get((k,), 0.0), npts) for k in range(series.order + 1)])


class TestKernel:
    """The one-variable recurrences jets are built from."""

    def test_reciprocal_times_self_is_unit_series(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-2.0, 2.0, size=(7, 40))
        a[0] = rng.uniform(0.2, 3.0, size=40) * rng.choice([-1.0, 1.0], size=40)
        prod = _mul(a, _reciprocal(a))
        np.testing.assert_allclose(prod[0], 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(prod[1:], 0.0, rtol=0, atol=1e-11)

    def test_exp_of_seed_is_inverse_factorials(self):
        e = _exp(_linear(np.array([0.0, 0.0]), 1.0, 6))
        for j in range(7):
            np.testing.assert_allclose(e[j], 1.0 / factorial(j), rtol=1e-15, atol=0)

    def test_exp_of_shifted_seed(self):
        t0 = np.array([-1.5, 0.2, 2.0])
        e = _exp(_linear(t0, 1.0, 6))
        for j in range(7):
            np.testing.assert_allclose(e[j], np.exp(t0) / factorial(j), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("deg", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("order", [0, 2, 6])
    def test_power_rows_match_oracle(self, deg, order):
        x = np.linspace(-1.0, 1.0, 9)
        got = np.array(_power_rows(x, deg, order))
        want = _rows_of(int_pow(TaylorSeries.variable(0, x, 1, order), deg), x.size)
        assert len(got) == min(deg, order) + 1
        np.testing.assert_allclose(got, want[: len(got)], rtol=0, atol=1e-14)
        np.testing.assert_array_equal(want[len(got) :], 0.0)
        np.testing.assert_array_equal(got[0], want[0])

    @pytest.mark.parametrize("omega", [0.5, 3.0, 4.0])
    @pytest.mark.parametrize("order", [0, 3, 6])
    def test_cos_rows_match_oracle(self, omega, order):
        x = np.linspace(-1.0, 1.0, 9)
        got = np.array(_cos_rows(x, omega, order))
        _, want = sin_cos(TaylorSeries.variable(0, x, 1, order).scale(omega))
        want = _rows_of(want, x.size)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(1.0, np.max(np.abs(want))))
        np.testing.assert_array_equal(got[0], np.cos(x * omega))


class TestSeriesAlgebra:
    def test_polynomial_product_exact(self):
        x = TaylorSeries.variable(0, np.array([0.5]), 1, 4)
        p = int_pow(x, 3)
        # coefficients of (t + 1/2)^3 around 0.5
        want = {(0,): 0.125, (1,): 0.75, (2,): 1.5, (3,): 1.0}
        for key, val in want.items():
            got = float(np.asarray(p.coeffs[key]).ravel()[0])
            assert got == pytest.approx(val, abs=1e-15)
        tail = np.asarray(p.coeffs.get((4,), 0.0))
        assert np.all(np.abs(tail) < 1e-15)

    def test_reciprocal_times_self_is_one(self):
        g = TaylorSeries.constant(np.array([2.0]), 1, 5) + TaylorSeries.variable(
            0, np.array([0.3]), 1, 5
        ).drop_const()
        prod = g * reciprocal(g)
        assert prod.const[0] == pytest.approx(1.0, abs=1e-14)
        for key, c in prod.items():
            if sum(key) > 0:
                assert abs(c[0]) < 1e-13

    def test_exp_matches_series(self):
        x = TaylorSeries.variable(0, np.array([0.0]), 1, 6)
        e = exp(x)
        for j in range(7):
            assert e.coeffs.get((j,), np.zeros(1))[0] == pytest.approx(
                1.0 / factorial(j), abs=1e-14
            )

    def test_pythagorean_identity(self):
        g = TaylorSeries.variable(0, np.array([0.7]), 1, 5)
        s, c = sin_cos(g)
        total = s * s + c * c
        assert total.const[0] == pytest.approx(1.0, abs=1e-14)
        for key, coeff in total.items():
            if sum(key) > 0:
                assert abs(coeff[0]) < 1e-12

    def test_multi_index_counts(self):
        assert len(multi_indices(2, 2)) == 6
        assert len(multi_indices_exact(2, 2)) == 3
        assert len(multi_indices_exact(3, 1)) == 3


class TestBumpJets:
    def test_value_at_center(self):
        fn = bump(1)
        assert fn(np.array([[0.0]]))[0] == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_first_derivative_closed_form(self):
        fn = bump(1)
        xs = np.array([-0.7, -0.2, 0.0, 0.4, 0.9])
        jet = fn.jet(xs.reshape(-1, 1), 1)
        u = np.exp(-1.0 / (1 - xs**2))
        du = u * (-2 * xs / (1 - xs**2) ** 2)
        np.testing.assert_allclose(jet[(1,)], du, rtol=1e-12, atol=1e-300)

    def test_second_derivative_closed_form(self):
        fn = bump(1)
        xs = np.array([-0.5, 0.25, 0.6])
        jet = fn.jet(xs.reshape(-1, 1), 2)
        g = 1 - xs**2
        u = np.exp(-1.0 / g)
        d2 = u * ((2 * xs / g**2) ** 2 - (2 + 6 * xs**2) / g**3)
        np.testing.assert_allclose(jet[(2,)], d2, rtol=1e-11)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_against_finite_differences(self, order):
        fn = bump(1)
        for x in (-0.6, 0.1, 0.45):
            got = fn.jet(np.array([[x]]), order)[(order,)][0]
            ref = fd_derivative(fn, x, order, h=5e-3)
            assert got == pytest.approx(ref, rel=1e-4, abs=1e-8)

    def test_wave_finite_differences(self):
        fn = bump_wave(1, omega=3.0)
        for x in (-0.3, 0.2, 0.55):
            got = fn.jet(np.array([[x]]), 2)[(2,)][0]
            ref = fd_derivative(fn, x, 2, h=5e-3)
            assert got == pytest.approx(ref, rel=5e-5, abs=1e-7)

    def test_flat_outside_support(self):
        fn = bump(1)
        jet = fn.jet(np.array([[1.0], [1.5], [-2.0]]), 4)
        for key, vals in jet.items():
            np.testing.assert_array_equal(vals, 0.0)

    def test_planar_gradient_is_radial(self):
        fn = bump(2)
        pts = np.array([[0.3, 0.4]])
        jet = fn.jet(pts, 1)
        gx, gy = jet[(1, 0)][0], jet[(0, 1)][0]
        # grad parallel to x with ratio y/x = 4/3
        assert gy / gx == pytest.approx(4.0 / 3.0, rel=1e-12)


class TestTransformsChainRule:
    def test_dilate_derivative(self):
        fn = bump(1)
        lam = 2.0
        squeezed = fn.dilate(lam)
        x = 0.21
        inner = fn.jet(np.array([[lam * x]]), 1)[(1,)][0]
        outer = squeezed.jet(np.array([[x]]), 1)[(1,)][0]
        assert outer == pytest.approx(lam * inner, rel=1e-13)

    def test_translate_moves_values(self):
        fn = bump(1).translate(0.5)
        assert fn(np.array([[0.5]]))[0] == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert fn(np.array([[0.0]]))[0] == pytest.approx(
            bump(1)(np.array([[-0.5]]))[0], rel=1e-15
        )

    def test_scaled_multiplies_jet(self):
        fn = bump(1)
        doubled = fn.scaled(2.0)
        x = np.array([[0.3]])
        for order in (0, 1, 2):
            a = fn.jet(x, order)[(order,)][0]
            b = doubled.jet(x, order)[(order,)][0]
            assert b == pytest.approx(2.0 * a, rel=1e-15)
