"""Family functions, their jets and their descriptor grammar."""

import functools
import itertools
import math

import numpy as np
import pytest

from gninterp import testfn
from gninterp.errors import BadParams, DslSyntaxError, JetOrderOverflow
from gninterp.norms import default_grid
from gninterp.testfn import MAX_JET_ORDER, bump, bump_poly, bump_wave, multi_indices, parse_testfn, plateau
from series_algebra import TaylorSeries, exp, int_pow, reciprocal, sin_cos


class TestFamilies:
    def test_bump_poly_vanishes_with_odd_symmetry(self):
        fn = bump_poly(1, deg=1)
        xs = np.array([[-0.4], [0.4]])
        vals = fn(xs)
        assert vals[0] == pytest.approx(-vals[1], rel=1e-14)
        assert fn(np.array([[0.0]]))[0] == 0.0

    def test_bump_wave_modulates(self):
        fn = bump_wave(1, omega=np.pi)
        base = bump(1)
        x = np.array([[0.5]])
        assert fn(x)[0] == pytest.approx(np.cos(np.pi * 0.5) * base(x)[0], rel=1e-12)

    def test_plateau_is_one_inside(self):
        fn = plateau(1, rho=0.5)
        xs = np.array([[-0.4], [0.0], [0.3]])
        np.testing.assert_array_equal(fn(xs), 1.0)

    def test_plateau_jets_vanish_on_flat_part(self):
        fn = plateau(1, rho=0.5)
        jet = fn.jet(np.array([[0.2]]), 3)
        for order in (1, 2, 3):
            assert jet[(order,)][0] == 0.0

    def test_plateau_transition_monotone(self):
        fn = plateau(1, rho=0.5)
        xs = np.linspace(0.55, 0.95, 9).reshape(-1, 1)
        vals = fn(xs)
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals < 1))

    def test_bad_params(self):
        with pytest.raises(BadParams):
            bump(1, R=-2.0)
        with pytest.raises(BadParams):
            plateau(1, rho=1.5)
        with pytest.raises(BadParams):
            bump_poly(2, axis=5)

    def test_dimension_cap(self):
        with pytest.raises(BadParams):
            bump(4)

    def test_jet_order_cap(self):
        with pytest.raises(JetOrderOverflow):
            bump(1).jet(np.zeros((1, 1)), 9)


class TestSupportGeometry:
    def test_bounding_box_margin(self):
        fn = bump(2, R=2.0).translate([1.0, -1.0])
        lo, hi = fn.bounding_box(1.5)
        np.testing.assert_allclose(lo, [-2.0, -4.0])
        np.testing.assert_allclose(hi, [4.0, 2.0])

    def test_dilate_shrinks_support(self):
        fn = bump(1).dilate(4.0)
        _, r = fn.support()
        assert r == pytest.approx(0.25)
        assert fn(np.array([[0.3]]))[0] == 0.0


class TestDescriptorGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "bump(R=1)",
            "bump_poly(R=1.5,deg=2)",
            "bump_wave(R=1,omega=4.5)",
            "plateau(R=1,rho=0.25)",
            "bump(R=1)*dilate(2)*translate(0.3)*amp(0.5)",
        ],
    )
    def test_describe_round_trip(self, text):
        fn = parse_testfn(text, 1)
        again = parse_testfn(fn.describe(), 1)
        xs = np.linspace(-1.2, 1.2, 7).reshape(-1, 1)
        np.testing.assert_array_equal(fn(xs), again(xs))
        assert again.describe() == fn.describe()

    def test_vector_translate(self):
        fn = parse_testfn("bump(R=1)*translate(0.2,-0.4)", 2)
        assert fn.center == pytest.approx((0.2, -0.4))

    def test_transforms_compose_in_order(self):
        fn = parse_testfn("bump(R=1)*translate(1)*dilate(2)", 1)
        # translate then dilate: support center ends at 1/2
        assert fn.center[0] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "bad,exc",
        [
            ("mystery(R=1)", DslSyntaxError),
            ("bump", DslSyntaxError),
            ("bump(1)", DslSyntaxError),
            ("bump(R=x)", DslSyntaxError),
            ("bump(R=1)*spin(3)", DslSyntaxError),
            ("bump(R=1)*dilate(1,2)", DslSyntaxError),
            ("bump(R=1)*dilate(a)", DslSyntaxError),
            ("", DslSyntaxError),
            ("bump(q=3)", BadParams),
        ],
    )
    def test_rejects_malformed(self, bad, exc):
        with pytest.raises(exc):
            parse_testfn(bad, 1)


# -- radial jets against n-variable series algebra -----------------------------

FAMILIES = {"bump": bump, "bump_poly": bump_poly, "bump_wave": bump_wave, "plateau": plateau}
# (shift per axis, dilation, amplitude): u(x) = amp * P((lam * x - shift) / R)
FRAMES = [(0.0, 1.0, 1.0), (0.3, 2.5, -1.7), (-0.45, 0.6, 0.25)]


def _family_kwargs(name: str, n: int) -> dict:
    return {
        "bump": {"R": 1.0},
        "bump_poly": {"R": 1.3, "deg": 3, "axis": n - 1},
        "bump_wave": {"R": 0.9, "omega": 4.0},
        "plateau": {"R": 1.1, "rho": 0.4},
    }[name]


def _reference_profile(name, kw, seeds):
    """The profile as products, quotients and exponentials of n-variable series."""
    t = 1.0 - sum((s * s for s in seeds[1:]), seeds[0] * seeds[0])

    def phi(v):
        return exp(-reciprocal(v))

    if name == "plateau":
        tau = t.scale(1.0 / (1.0 - kw["rho"] ** 2))
        return phi(tau) * reciprocal(phi(tau) + phi(1.0 - tau))
    if name == "bump_poly":
        return int_pow(seeds[kw["axis"]], kw["deg"]) * phi(t)
    if name == "bump_wave":
        return sin_cos(seeds[0].scale(kw["omega"]))[1] * phi(t)
    return phi(t)


def _reference_jet(name, kw, frame, x):
    """All derivatives to MAX_JET_ORDER, zero where the true jet underflows.

    The algebra runs in long double, so its own rounding (about 1e-13 of a
    component's maximum at order 6 in double) stays out of the comparison.
    """
    shift, lam, amp = frame
    n = x.shape[1]
    y = (lam * x.astype(np.longdouble) - shift) / kw["R"]
    t0 = 1.0 - np.sum(y * y, axis=1)
    flat = (t0 / (1.0 - kw["rho"] ** 2) > 1.0 - 1e-9) if name == "plateau" else np.zeros(len(x), bool)
    live = (t0 > 1e-9) & ~flat
    seeds = [TaylorSeries.variable(i, y[live, i], n, MAX_JET_ORDER) for i in range(n)]
    series = _reference_profile(name, kw, seeds)
    out = {}
    for alpha in multi_indices(n, MAX_JET_ORDER):
        col = np.zeros(len(x), np.longdouble)
        col[live] = series.coeffs.get(alpha, 0.0)
        col[flat] = 0.0 if any(alpha) else 1.0
        out[alpha] = col * amp * (lam / kw["R"]) ** sum(alpha) * math.prod(math.factorial(a) for a in alpha)
    return out, y


def _oracle_points(fn, kw, frame, n):
    """The default grid plus points within 1e-6 of the support sphere and of |y| = rho."""
    shift, lam, _ = frame
    rng = np.random.default_rng(n)
    dirs = rng.normal(size=(24, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = [r + d for r in (1.0, kw.get("rho", 0.5)) for d in (-1e-6, -1e-9, 1e-9, 1e-6)]
    y = (dirs[:, None, :] * np.array(radii)[None, :, None]).reshape(-1, n)
    return np.concatenate([default_grid(fn).mesh(), (kw["R"] * y + shift) / lam])


def _framed(name, n, frame):
    kw = _family_kwargs(name, n)
    shift, lam, amp = frame
    return FAMILIES[name](n, **kw).translate(np.full(n, shift)).dilate(lam).scaled(amp), kw


def _check_against_reference(fn, kw, name, frame, x):
    n = x.shape[1]
    amp = frame[2]
    ref, y = _reference_jet(name, kw, frame, x)
    r2 = np.sum(y * y, axis=1)
    outside = r2 > 1.0 + 1e-9
    flat = r2 < kw["rho"] ** 2 - 1e-9 if name == "plateau" else np.zeros(len(x), bool)
    assert outside.any() and (flat.any() or name != "plateau")
    for order in range(MAX_JET_ORDER + 1):
        jet = fn.jet(x, order)
        assert list(jet) == list(multi_indices(n, order))
        for alpha, got in jet.items():
            want = ref[alpha]
            tol = 1e-13 * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= tol, (order, alpha)
            assert np.all(got[outside] == 0.0), alpha
            assert np.all(got[flat] == (0.0 if any(alpha) else amp)), alpha


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="the reference needs an extended long double")
class TestRadialJetOracle:
    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jet_matches_series_algebra(self, n, name, frame):
        fn, kw = _framed(name, n, frame)
        _check_against_reference(fn, kw, name, frame, _oracle_points(fn, kw, frame, n))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_edges_match_series_algebra(self, n, name, monkeypatch):
        # The oracle's point sets fit in one default block; a 37-point block
        # puts edges inside the support, in the 1e-9 band around the support
        # sphere and, for plateau, in the flat core.
        monkeypatch.setattr(testfn, "_JET_BLOCK", 37)
        frame = FRAMES[1]
        fn, kw = _framed(name, n, frame)
        x = _oracle_points(fn, kw, frame, n)
        y = (frame[1] * x - frame[0]) / kw["R"]
        r = np.sqrt(np.sum(y * y, axis=1))[37::37]
        assert np.any(r < 1.0 - 1e-6) and np.any(np.abs(r - 1.0) < 2e-9)
        assert name != "plateau" or np.any(r < kw["rho"] - 1e-6)
        _check_against_reference(fn, kw, name, frame, x)


class TestJetBlocks:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocked_jet_equals_jets_of_slices(self, n, name):
        fn, _ = _framed(name, n, FRAMES[1])
        lo, hi = fn.bounding_box(1.1)
        npts = 3 * testfn._JET_BLOCK + 1001
        x = lo + (hi - lo) * np.random.default_rng(n).random((npts, n))
        cuts = [0, 1, 4999, testfn._JET_BLOCK + 3, 2 * testfn._JET_BLOCK - 17, npts]
        for order in range(MAX_JET_ORDER + 1):
            whole = fn.jet(x, order)
            parts = [fn.jet(x[a:b], order) for a, b in zip(cuts, cuts[1:])]
            for alpha, got in whole.items():
                want = np.concatenate([part[alpha] for part in parts])
                assert got.tobytes() == want.tobytes(), (order, alpha)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_points_give_empty_rows(self, n):
        for order in range(MAX_JET_ORDER + 1):
            jet = plateau(n).jet(np.empty((0, n)), order)
            assert list(jet) == list(multi_indices(n, order))
            assert all(row.shape == (0,) for row in jet.values())


class TestMaxAbsFields:
    """The norms' kernel against the reference: abs-max over the jet's rows of each order."""

    @staticmethod
    def _reference(fn, x, order):
        jet = fn.jet(x, order)
        rows = [np.abs(v) for alpha, v in jet.items() if sum(alpha) == order]
        return functools.reduce(np.maximum, rows)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_order_set_equals_jet_abs_max(self, n, name):
        # A translated, dilated and scaled frame; the box reaches past the
        # support, and the points span more than one block.
        fn, _ = _framed(name, n, FRAMES[1])
        lo, hi = fn.bounding_box(1.1)
        x = lo + (hi - lo) * np.random.default_rng(n).random((testfn._JET_BLOCK + 1001, n))
        value = self._reference(fn, x, 0)
        assert (value == 0.0).any() and (value > 0.0).any()
        want = {m: self._reference(fn, x, m).tobytes() for m in range(MAX_JET_ORDER + 1)}
        for size in range(1, MAX_JET_ORDER + 2):
            for orders in itertools.combinations(range(MAX_JET_ORDER + 1), size):
                got = fn._max_abs_fields(x, orders)
                assert list(got) == list(orders)
                for m in orders:
                    assert got[m].tobytes() == want[m], (orders, m)

    def test_rejects_orders_outside_the_jet_range(self):
        fn = bump(2)
        for orders in [(2, MAX_JET_ORDER + 1), (-1,)]:
            with pytest.raises(JetOrderOverflow):
                fn._max_abs_fields(np.zeros((1, 2)), orders)
