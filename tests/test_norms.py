"""Norm evaluation against quadrature oracles and closed forms."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad

from gninterp import norms
from gninterp.errors import BadParams, GridTooCoarse
from gninterp.norms import (
    PAIR_POINT_CAP,
    GridSpec,
    _clouds,
    _cloud_scan,
    _exact_order_components,
    _grid_pair_scan,
    _mesh,
    _min_separation,
    _pair_scan,
    _simpson_integral,
    _slot_norms,
    brute_force_holder,
    check_holder_equality,
    default_grid,
    holder_seminorm,
    lp_norm,
    lp_norm_midpoint_oracle,
    sup_norm,
    xnorm,
)
from gninterp.interp import InterpolationTriple
from gninterp.measure import check_interpolation
from gninterp.testfn import bump, bump_poly, bump_wave, multi_indices, plateau

from conftest import record_mesh_evaluations


def bump_profile(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1
    out[inside] = np.exp(-1.0 / (1 - x[inside] ** 2))
    return out


class TestGridSpec:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            ((1.05,), (-1.05,)),  # reversed: Simpson weights turn negative
            ((-1.0, 0.5), (1.0, 0.5)),  # zero width on one axis
            ((-1.0,), (float("nan"),)),
            ((-float("inf"), 0.0), (1.0, 1.0)),
        ],
    )
    def test_rejects_reversed_empty_or_nonfinite_box(self, lo, hi):
        with pytest.raises(ValueError):
            GridSpec(lo, hi, 257)

    def test_numpy_integer_point_count(self, bump1):
        grid = GridSpec((-1.05,), (1.05,), np.int64(33))
        assert type(grid.points_per_axis) is int
        assert grid == GridSpec((-1.05,), (1.05,), 33)
        assert sup_norm(bump1, order=1, grid=grid) == sup_norm(bump1, order=1, grid=GridSpec((-1.05,), (1.05,), 33))

    def test_default_grid_rejects_unknown_kind(self, bump2):
        assert default_grid(bump2, "pair").points_per_axis == 25
        with pytest.raises(ValueError, match="'pairs'"):
            default_grid(bump2, "pairs")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clouds_equal_per_axis_linspace(n):
    # One linspace over every centre and axis gives the per-axis calls' bytes.
    rng = np.random.default_rng(n)
    for count in (5, 9):
        centers = rng.uniform(-2.0, 2.0, size=(400, n)) * 10.0 ** rng.integers(-3, 2, size=(400, 1))
        h = rng.uniform(1e-6, 0.3, size=n)
        want = []
        for c in centers:
            axes = [np.linspace(c[i] - h[i], c[i] + h[i], count) for i in range(n)]
            want += [np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)]
        assert _clouds(centers, h, count).tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 2, 6)])
def test_mesh_equals_meshgrid(shape):
    axes = [np.linspace(-1.0 - i, 0.5 + 0.25 * i, m) for i, m in enumerate(shape)]
    want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    got = _mesh(axes)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSimpsonWhiteBox:
    def test_exact_on_quadratic(self):
        grid = GridSpec((-1.0,), (1.0,), 5)
        xs = grid.mesh()[:, 0]
        assert _simpson_integral(1 - xs**2, grid) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_weights_sum_to_length(self):
        grid = GridSpec((0.0,), (2.0,), 9)
        total = _simpson_integral(np.ones(9), grid)
        assert total == pytest.approx(2.0, abs=1e-15)

    def test_2d_separable(self):
        grid = GridSpec((-1.0, -1.0), (1.0, 1.0), 5)
        pts = grid.mesh()
        field = (1 - pts[:, 0] ** 2) * (1 - pts[:, 1] ** 2)
        assert _simpson_integral(field, grid) == pytest.approx(16.0 / 9.0, abs=1e-14)


class TestLpNorm:
    @pytest.mark.parametrize(
        "fn,lo,hi,points",
        [
            (bump(1), (-1.05,), (1.05,), 5),
            (bump_wave(1, omega=3.0).translate(0.3), (-0.8,), (1.37,), 257),
            (bump_poly(2, deg=2).dilate(2.0), (-0.6, -0.55), (0.5, 0.61), 33),
            (plateau(3, rho=0.5), (-1.05, -0.9, -1.2), (1.1, 1.05, 0.95), 9),
        ],
    )
    def test_coarse_pass_is_the_fine_pass_at_even_nodes(self, fn, lo, hi, points):
        # lp_norm evaluates one jet, on the refined grid, and takes the coarse
        # Simpson pass from its even-index nodes: that has to be the field a
        # jet on the coarse grid itself would give, bit for bit.
        grid = GridSpec(lo, hi, points)
        fine = grid.refined()
        even = (slice(None, None, 2),) * grid.ndim
        shape = (fine.points_per_axis,) * grid.ndim
        fine_mesh = fine.mesh().reshape(shape + (grid.ndim,))[even]
        assert np.array_equal(fine_mesh.reshape(-1, grid.ndim), grid.mesh())
        for order in range(3):
            coarse = fn._max_abs_fields(grid.mesh(), (order,))[order]
            sliced = fn._max_abs_fields(fine.mesh(), (order,))[order].reshape(shape)[even]
            assert np.array_equal(sliced.ravel(), coarse)

    def test_bump_l2_against_quad(self, bump1):
        oracle, est = quad(lambda x: bump_profile(x) ** 2, -1, 1, epsabs=1e-13)
        nv = lp_norm(bump1, 2)
        assert nv.value == pytest.approx(np.sqrt(oracle), rel=1e-9)
        assert abs(nv.value - np.sqrt(oracle)) <= 10 * nv.error_estimate + 1e-12

    def test_bump_l1_against_quad(self, bump1):
        oracle, _ = quad(bump_profile, -1, 1, epsabs=1e-13)
        nv = lp_norm(bump1, 1)
        assert nv.value == pytest.approx(oracle, rel=1e-9)

    def test_planar_l1_against_polar_quad(self, bump2):
        oracle, _ = quad(lambda r: r * np.exp(-1.0 / (1 - r * r)), 0, 1, epsabs=1e-13)
        nv = lp_norm(bump2, 1)
        # 33 points per axis: Richardson leaves a few-ppm residual in 2d.
        assert nv.value == pytest.approx(2 * np.pi * oracle, rel=2e-5)

    def test_derivative_norm_against_quad(self, bump1):
        def dphi(x):
            g = 1 - x * x
            return np.where(np.abs(x) < 1, np.exp(-1.0 / g) * 2 * np.abs(x) / g**2, 0.0)

        oracle, _ = quad(lambda x: dphi(x) ** 2, -1, 1, epsabs=1e-13)
        nv = lp_norm(bump1, 2, order=1)
        assert nv.value == pytest.approx(np.sqrt(oracle), rel=1e-8)

    @pytest.mark.parametrize("lam,order", [(0.5, 0), (2.0, 0), (2.0, 1)])
    def test_dilation_scaling(self, bump1, lam, order):
        p = 2.0
        base = lp_norm(bump1, p, order=order)
        squeezed = lp_norm(bump1.dilate(lam), p, order=order)
        want = lam ** (order - 1.0 / p) * base.value
        assert squeezed.value == pytest.approx(want, rel=1e-12)

    def test_amplitude_homogeneity(self, bump1):
        base = lp_norm(bump1, 3)
        tripled = lp_norm(bump1.scaled(3.0), 3)
        assert tripled.value == pytest.approx(3.0 * base.value, rel=1e-12)

    def test_grid_too_coarse(self):
        fn = bump_wave(1, omega=5.0)
        with pytest.raises(GridTooCoarse):
            lp_norm(fn, 2, grid=GridSpec((-1.1,), (1.1,), 5))

    def test_rejects_p_below_one(self, bump1):
        with pytest.raises(ValueError):
            lp_norm(bump1, 0.5)

    def test_even_grid_rejected_before_any_jet(self, bump1, monkeypatch):
        calls = record_mesh_evaluations(monkeypatch)
        lp_norm(bump1, 2, order=2, grid=GridSpec((-1.05,), (1.05,), 65))
        assert [orders for *_, orders in calls] == [(2,)]  # the counter sees the evaluation an odd grid makes
        calls.clear()
        with pytest.raises(BadParams, match="odd point count, got 64"):
            lp_norm(bump1, 2, order=2, grid=GridSpec((-1.05,), (1.05,), 64))
        assert calls == []

    @pytest.mark.parametrize("norm", [lp_norm, lp_norm_midpoint_oracle])
    @pytest.mark.parametrize("p", [float("inf"), float("nan"), 0.5])
    def test_rejects_p_outside_finite_range(self, bump1, norm, p):
        with pytest.raises(ValueError, match="sup_norm"):
            norm(bump1, p)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("norm", [lp_norm, lp_norm_midpoint_oracle])
    @pytest.mark.parametrize("order,p", [(0, 2), (1, 4)])
    def test_overflowing_integral_rejected(self, bump1, norm, order, p):
        # |amp * u|^p overflows: NaN would pass every tolerance test and print.
        with pytest.raises(BadParams) as info:
            norm(bump1.scaled(1e200), p, order=order)
        assert str(info.value) == f"the L^{p} integral of the order-{order} field is inf, not finite"


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "norm,message",
    [
        (lambda: sup_norm(bump(1).scaled(1e308), order=2), "the sup of the order-2 field is inf, not finite"),
        # Every entry of the pair field is -inf, so every quotient is NaN and the scan alone would read 0.
        (lambda: holder_seminorm(bump(1).scaled(1e308), 2, 0.5, grid=GridSpec((-0.01,), (0.01,), 129)),
         "the order-2 field is -inf, not finite"),
        # The brute-force oracle checks its own fields and total, apart from the fast path's checks.
        (lambda: brute_force_holder(bump(1).scaled(1e308), 2, 0.5, GridSpec((-0.01,), (0.01,), 129)),
         "the order-2 field is -inf, not finite"),
        # Finite fields whose difference quotients overflow.
        (lambda: holder_seminorm(bump(1).scaled(1e308), 1, 0.5),
         "the exponent-0.5 seminorm of the order-1 field is inf, not finite"),
        (lambda: brute_force_holder(bump(1).scaled(1e308), 1, 0.5, default_grid(bump(1), "pair")),
         "the exponent-0.5 seminorm of the order-1 field is inf, not finite"),
        # A finite sup and a finite seminorm whose sum overflows.
        (lambda: xnorm(bump(1).scaled(1.7e308), -1), "the C^{0,1} norm of the order-0 field is inf, not finite"),
    ],
    ids=["sup", "pair-field", "brute", "seminorm", "brute-seminorm", "holder-sum"],
)
def test_overflowing_norms_rejected(norm, message):
    # Before, each printed inf; a check then read a ratio of 0.0 as a violation.
    with pytest.raises(BadParams) as info:
        norm()
    assert str(info.value) == message


class TestSupNorm:
    def test_bump_peak_exact(self, bump1):
        nv = sup_norm(bump1)
        assert nv.value == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_derivative_sup_against_dense_scan(self, bump1):
        xs = np.linspace(-1, 1, 2_000_001)
        g = 1 - xs[1:-1] ** 2
        dense = np.max(np.exp(-1.0 / g) * 2 * np.abs(xs[1:-1]) / g**2)
        nv = sup_norm(bump1, order=1)
        assert nv.value == pytest.approx(dense, rel=1e-8)

    def test_planar_peak(self, bump2):
        nv = sup_norm(bump2)
        assert nv.value == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_error_estimates_are_plain_floats(self, bump1, bump2):
        # The machine-precision floor wins in all three.
        grid = GridSpec((-1.05,), (1.05,), 65)
        for nv in (
            sup_norm(bump2),
            holder_seminorm(bump1, 0, 0.5, grid=grid, refinements=0),
            brute_force_holder(bump1, 0, 0.5, grid=grid),
        ):
            assert type(nv.error_estimate) is float
            assert nv.error_estimate == np.finfo(float).eps * nv.value

    @pytest.mark.parametrize(
        "norms_of,orders",
        [
            # Full Holder norms reading sups of orders 0..2, 0..1 and 0.
            (lambda: check_interpolation(InterpolationTriple(1, F(-5, 2), F(-2), F(-1)), bump(1), mode="full"), 3),
            # Both sides read the sups of orders 1 and 2.
            (lambda: check_holder_equality(bump(2), F(-3, 4)), 2),
        ],
        ids=["check-full", "holder-equality"],
    )
    def test_each_sup_order_is_refined_once(self, monkeypatch, norms_of, orders):
        # One cloud per sup order and refine round, however many norms read the order.
        calls = record_mesh_evaluations(monkeypatch)
        norms_of()
        clouds = [read for fn, kind, points, read in calls if kind == "fields" and len(points) == 9**fn.ndim]
        first = 3 - orders
        assert sorted(clouds) == [(m,) for m in range(first, 3) for _ in range(norms._SUP_REFINEMENTS)]

    def test_homogeneity(self, bump1):
        base = sup_norm(bump1, order=2)
        assert sup_norm(bump1.scaled(0.25), order=2).value == pytest.approx(
            0.25 * base.value, rel=1e-14
        )


class TestMidpointOracle:
    @pytest.mark.parametrize(
        "fn,p,order",
        [
            (bump(1), 2.0, 0),
            (bump(1), 1.0, 1),
            (bump_poly(1, deg=2), 3.0, 0),
            (plateau(1, rho=0.4), 2.0, 1),
            (bump(2), 2.0, 0),
        ],
    )
    def test_agreement_within_budget(self, fn, p, order):
        a = lp_norm(fn, p, order=order)
        b = lp_norm_midpoint_oracle(fn, p, order=order)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate

    def test_zero_function_reads_zero(self, bump1):
        nv = lp_norm_midpoint_oracle(bump1.scaled(0.0), 2)
        assert (nv.value, nv.error_estimate) == (0.0, 0.0)

    def test_independent_points(self, bump1):
        # Midpoint nodes fall strictly between Simpson nodes on the same box.
        grid = default_grid(bump1, "lp")
        simpson_nodes = set(np.round(grid.axes()[0], 12))
        m = grid.points_per_axis - 1
        h = (grid.hi[0] - grid.lo[0]) / m
        mid_nodes = grid.lo[0] + (np.arange(m) + 0.5) * h
        assert not simpson_nodes.intersection(np.round(mid_nodes, 12))


class TestHolderSeminorm:
    def test_matches_brute_force_bitwise(self, bump1):
        grid = GridSpec((-1.05,), (1.05,), 65)
        fast = holder_seminorm(bump1, 0, 0.5, grid=grid, refinements=0)
        brute = brute_force_holder(bump1, 0, 0.5, grid=grid)
        assert fast.value == brute.value

    def test_matches_brute_force_2d(self, bump2):
        grid = GridSpec((-1.05, -1.05), (1.05, 1.05), 11)
        fast = holder_seminorm(bump2, 0, 0.75, grid=grid, refinements=0)
        brute = brute_force_holder(bump2, 0, 0.75, grid=grid)
        assert fast.value == brute.value

    def test_refinement_monotone(self, bump1):
        grid = GridSpec((-1.05,), (1.05,), 33)
        values = [
            holder_seminorm(bump1, 0, 0.5, grid=grid, refinements=r).value for r in (0, 1, 2, 3)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_numpy_integer_refinements(self, bump1):
        grid = GridSpec((-1.05,), (1.05,), 33)
        assert holder_seminorm(bump1, 0, 0.5, grid=grid, refinements=np.int64(2)) == holder_seminorm(
            bump1, 0, 0.5, grid=grid, refinements=2
        )

    def test_lipschitz_exponent_bounded_by_derivative_sup(self, bump1):
        semi = holder_seminorm(bump1, 0, 1.0)
        dsup = sup_norm(bump1, order=1)
        assert semi.value <= dsup.value * (1 + 1e-12)
        assert semi.value >= 0.95 * dsup.value

    def test_gamma_range(self, bump1):
        with pytest.raises(ValueError):
            holder_seminorm(bump1, 0, 0.0)
        with pytest.raises(ValueError):
            holder_seminorm(bump1, 0, 1.5)

    def test_oracle_cap(self, bump1):
        with pytest.raises(BadParams):
            brute_force_holder(bump1, 0, 0.5, grid=GridSpec((-1.05,), (1.05,), 4097))

    def test_fast_scan_has_no_point_cap(self, bump1):
        grid = GridSpec((-1.05,), (1.05,), 8193)
        assert grid.npoints > PAIR_POINT_CAP
        semi = holder_seminorm(bump1, 0, 0.5, grid=grid)
        coarse = holder_seminorm(bump1, 0, 0.5, grid=GridSpec((-1.05,), (1.05,), 4097))
        assert semi.value == pytest.approx(coarse.value, rel=1e-6)
        with pytest.raises(BadParams):
            brute_force_holder(bump1, 0, 0.5, grid=grid)

    @pytest.mark.parametrize("fn,order", [(bump(2), 1), (bump_poly(3, deg=1), 1)])
    def test_refinement_matches_full_rescan(self, fn, order):
        grid = default_grid(fn, "pair")
        semi = holder_seminorm(fn, order, 0.5, grid=grid)
        assert (semi.value, semi.error_estimate) == _rescanned_seminorm(fn, order, 0.5, grid)

    def test_mesh_and_clouds_ask_the_profile_for_the_rows_read(self):
        # An order-2 read of a 2-D bump needs its 3 order-2 rows, not the 3
        # rows of orders 0 and 1: on the pair mesh and on each refine cloud.
        asked = []

        def recording(y, t0, order, rows):
            asked.append((order, rows))
            return bump(2).profile(y, t0, order, rows)

        fn = replace(bump(2), profile=recording)
        assert holder_seminorm(fn, 2, 0.5) == holder_seminorm(bump(2), 2, 0.5)
        order_two = tuple(i for i, alpha in enumerate(multi_indices(2, 2)) if sum(alpha) == 2)
        assert asked == [(2, order_two)] * 4 and len(order_two) == 3

    def test_several_reads_match_full_rescan(self):
        # Two orders, two exponents, a repeated slot, and a second slot with
        # the read (1, 1/2): every read is refined on the shared jets, once.
        fn = bump_poly(2, deg=1).translate([0.1, -0.05])
        slots = [(F(-1, 4), 0), (F(-1, 2), 0), (F(-1, 4), 1), (F(-3, 4), 0), (F(-1, 4), 0), (F(-1, 2), 1)]
        reads = [(0, 0.5), (0, 1.0), (1, 0.5), (1, 0.5), (0, 0.5), (1, 1.0)]
        values = _slot_norms(fn, slots, "seminorm")
        grid = default_grid(fn, "pair")
        for nv, (order, gamma) in zip(values, reads):
            assert (nv.value, nv.error_estimate) == _rescanned_seminorm(fn, order, gamma, grid), (order, gamma)
        assert values[4] is values[0] and values[3] is values[2]

    def test_one_global_scan_per_distinct_read(self, monkeypatch):
        scans = []

        def recording(grid, comps, gamma):
            scans.append((sum(next(iter(comps))), gamma))
            return _grid_pair_scan(grid, comps, gamma)

        monkeypatch.setattr(norms, "_grid_pair_scan", recording)
        slots = [(F(-1, 4), 0), (F(-3, 4), 0), (F(-1, 4), 1), (F(-1, 2), 0), (F(-1, 4), 0)]
        full = _slot_norms(bump(2), slots, "full")
        assert scans == [(0, 0.5), (1, 0.5), (0, 1.0)]
        assert full[4] is full[0] and full[1] is not full[2]


def _rescanned_seminorm(fn, order, gamma, grid):
    """``holder_seminorm``'s value and error estimate, rebuilt from the brute
    sweep: each component refines on its own cloud, with a jet of its own order."""
    pts = grid.mesh()
    min_dist = _min_separation(grid)
    sups, pairs = _pair_scan(pts, _exact_order_components(fn, pts, order), gamma, min_dist)
    improvement = 0.0
    for key in sorted(sups):
        h = grid.spacing()
        for _ in range(3):
            cloud = []
            for c in pairs[key]:
                axes = [np.linspace(c[i] - h[i], c[i] + h[i], 5) for i in range(fn.ndim)]
                mesh = np.meshgrid(*axes, indexing="ij")
                cloud.append(np.stack([g.ravel() for g in mesh], axis=-1))
            local = np.concatenate(cloud, axis=0)
            lsup, lpair = _pair_scan(local, _exact_order_components(fn, local, order), gamma, min_dist)
            if lsup[key] > sups[key]:
                improvement = max(improvement, lsup[key] - sups[key])
                sups[key], pairs[key] = lsup[key], lpair[key]
            h = h / 4.0
    total = 0.0
    for key in sorted(sups):
        total += sups[key]
    return total, max(improvement, np.finfo(float).eps * total)


class TestCloudScan:
    """The refine loop's cloud scan against the brute sweep, value and pair."""

    @pytest.mark.parametrize("gamma", [0.25, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("field", ["wave", "constant", "symmetric"])
    def test_matches_brute_sweep(self, n, gamma, field):
        h = np.full(n, 0.3)
        if field == "symmetric":
            # One cloud around the origin, twice: every quotient is met by
            # many pairs, and the brute sweep's first must win.
            local = _clouds(np.zeros((2, n)), h, 5)
            v = bump(n).jet(local, 0)[(0,) * n]
        else:
            local = _clouds(np.array([[0.2] * n, [-0.35] * n]), h, 5)
            v = bump_wave(n, omega=3.0).jet(local, 1)[(1,) + (0,) * (n - 1)]
            if field == "constant":
                v = np.full_like(v, 0.75)
        want_sups, want_pairs = _pair_scan(local, {"v": v}, gamma, 1e-9)
        got, a, b = _cloud_scan(local, v, gamma, 1e-9)
        assert got == want_sups["v"]
        assert np.array_equal(a, want_pairs["v"][0]) and np.array_equal(b, want_pairs["v"][1])
        assert (got == 0.0) is (field == "constant")


# Boxes with unequal per-axis widths, centred (symmetric functions give tied
# pairs) or dyadic and off-centre (exact coordinates, exact distance ties).
_CENTRED_BOX = ((-1.3, -0.9, -1.1), (1.3, 0.9, 1.1))
_DYADIC_BOX = ((-0.5, -1.0, 0.0), (1.5, 1.0, 1.0))
_PAIR_FUNCTIONS = (
    lambda n: bump(n),
    lambda n: plateau(n, rho=0.5).translate([0.25] * n),
    lambda n: bump_poly(n, deg=1).dilate(1.5),
    lambda n: bump_wave(n, omega=3.0).translate([-0.2] * n).dilate(0.8),
)
_PAIR_POINTS = {1: (3, 40, 257), 2: (3, 13, 24), 3: (3, 6, 9)}


class TestPairScanIndependence:
    """The offset scan against the untouched brute sweep, value and pair."""

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_sweep(self, n, order, gamma):
        g = int(4 * gamma) - 1
        fn = _PAIR_FUNCTIONS[(g + order + n) % 4](n)
        lo, hi = _CENTRED_BOX if (g + order) % 2 == 0 else _DYADIC_BOX
        grid = GridSpec(lo[:n], hi[:n], _PAIR_POINTS[n][(g + 2 * order) % 3])

        fast = holder_seminorm(fn, order, gamma, grid=grid, refinements=0)
        brute = brute_force_holder(fn, order, gamma, grid)
        assert fast.value == brute.value

        pts = grid.mesh()
        comps = _exact_order_components(fn, pts, order)
        want_sups, want_pairs = _pair_scan(pts, comps, gamma, _min_separation(grid))
        got_sups, got_pairs = _grid_pair_scan(grid, comps, gamma)
        assert got_sups == want_sups
        for key in want_pairs:
            assert np.array_equal(got_pairs[key][0], want_pairs[key][0])
            assert np.array_equal(got_pairs[key][1], want_pairs[key][1])

    def test_zero_field_keeps_first_point(self, bump2):
        # Outside the support every quotient is 0; the brute sweep keeps its
        # initial pair (point 0 twice).
        grid = GridSpec((2.0, 2.0), (3.0, 4.0), 7)
        comps = _exact_order_components(bump2, grid.mesh(), 1)
        want_sups, want_pairs = _pair_scan(grid.mesh(), comps, 0.5, _min_separation(grid))
        got_sups, got_pairs = _grid_pair_scan(grid, comps, 0.5)
        assert got_sups == want_sups == {key: 0.0 for key in comps}
        for key in comps:
            assert np.array_equal(np.stack(got_pairs[key]), np.stack(want_pairs[key]))


class TestTinySupports:
    """Pair separation is relative to the pair grid: an absolute 1e-9 skipped
    every pair of a support of radius 1e-10 and read 0."""

    @pytest.mark.parametrize("n,order,gamma", [(1, 0, 0.5), (1, 1, 0.25), (2, 0, 0.75), (2, 1, 0.5)])
    def test_dilation_law_holds_down_to_radius_1e_12(self, n, order, gamma):
        base = holder_seminorm(bump(n), order, gamma).value
        for e in range(6, 13):
            radius = 10.0**-e
            fn = bump(n, R=radius)
            law = base * radius ** -(order + gamma)
            assert holder_seminorm(fn, order, gamma).value == pytest.approx(law, rel=1e-14), e
            raw = holder_seminorm(fn, order, gamma, refinements=0).value
            assert raw == brute_force_holder(fn, order, gamma, default_grid(fn, "pair")).value, e


class TestPairScanChunks:
    """The brute sweep's chunking changes no float and no attaining pair."""

    @pytest.mark.parametrize("n,points,order", [(1, 41, 2), (2, 11, 1), (3, 9, 0)])
    def test_any_budget_gives_the_default_result(self, monkeypatch, n, points, order):
        # A centred dyadic box and a symmetric bump: v(x) and v(-x) agree up
        # to sign exactly, so each best quotient is met by mirrored pairs (and
        # by both orders of a pair) in rows far apart; the first must win.
        fn = bump(n)
        grid = GridSpec((-1.25,) * n, (1.25,) * n, points)
        pts = grid.mesh()
        size = pts.shape[0]
        comps = _exact_order_components(fn, pts, order)
        want_value = brute_force_holder(fn, order, 0.5, grid).value
        want_sups, want_pairs = _pair_scan(pts, comps, 0.5, _min_separation(grid))

        ragged_rows = 4
        assert size % ragged_rows
        for key, v in comps.items():
            dist_sq = sum((pts[:, None, i] - pts[None, :, i]) ** 2 for i in range(n))
            ok, denom = norms._pair_denominators(dist_sq, 0.5, _min_separation(grid))
            q = np.where(ok, np.abs(v[:, None] - v[None, :]) / denom, 0.0)
            tops = np.flatnonzero(q == q.max())
            assert len(set(tops // size // ragged_rows)) > 1, key
            assert np.array_equal(np.stack(want_pairs[key]), pts[[tops[0] // size, tops[0] % size]])

        # One row per chunk, 4 rows per chunk with a ragged last chunk, and
        # a single chunk of every pair.
        for budget in (1, ragged_rows * size + 3, size * size):
            monkeypatch.setattr(norms, "_PAIR_BUDGET", budget)
            assert brute_force_holder(fn, order, 0.5, grid).value == want_value
            got_sups, got_pairs = _pair_scan(pts, comps, 0.5, _min_separation(grid))
            assert got_sups == want_sups
            for key in want_pairs:
                assert np.array_equal(np.stack(got_pairs[key]), np.stack(want_pairs[key])), (budget, key)

    @pytest.mark.parametrize("n,points,order", [(3, 16, 0), (2, 64, 1), (1, 4096, 2)])
    def test_sweep_memory_is_bounded(self, n, points, order):
        # At the point cap the quadratic sweep holds one chunk at a time:
        # 512-row chunks traced 116-162 MiB on these grids.
        grid = GridSpec((-1.05,) * n, (1.05,) * n, points)
        assert grid.npoints == PAIR_POINT_CAP
        tracemalloc.start()
        try:
            brute_force_holder(bump(n), order, 0.5, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestXnormDispatch:
    def test_methods_by_regime(self, bump1):
        assert xnorm(bump1, F(1, 2)).method == "simpson+richardson"
        assert xnorm(bump1, F(0)).method == "grid_sup"
        assert xnorm(bump1, F(-1, 2)).method == "pair_sup"

    def test_full_at_least_seminorm(self, bump1):
        full = xnorm(bump1, F(-1, 2), mode="full")
        semi = xnorm(bump1, F(-1, 2), mode="seminorm")
        assert full.value >= semi.value

    def test_full_includes_sup_term(self, bump1):
        # At scale -1/2 the full norm is sup|u| plus the exponent-1/2 seminorm.
        full = xnorm(bump1, F(-1, 2), mode="full")
        semi = xnorm(bump1, F(-1, 2), mode="seminorm")
        assert full.value == pytest.approx(semi.value + np.exp(-1.0), rel=1e-12)

    def test_bad_mode(self, bump1):
        with pytest.raises(ValueError):
            xnorm(bump1, F(1, 2), mode="partial")

    def test_homogeneity_all_regimes(self, bump1):
        for s in (F(1, 2), F(0), F(-1, 2)):
            base = xnorm(bump1, s)
            doubled = xnorm(bump1.scaled(2.0), s)
            assert doubled.value == pytest.approx(2 * base.value, rel=1e-12)

    def test_seminorm_dilation_law(self, bump1):
        # Top-order functional scales like lambda^(l - n*s).
        for s, order in ((F(1, 3), 1), (F(0), 1), (F(-1, 2), 0)):
            base = xnorm(bump1, s, order=order, mode="seminorm")
            lam = 2.0
            moved = xnorm(bump1.dilate(lam), s, order=order, mode="seminorm")
            want = lam ** (order - 1 * float(s)) * base.value
            assert moved.value == pytest.approx(want, rel=5e-3)


class TestHolderEqualityIdentity:
    @pytest.mark.parametrize(
        "make,n,s",
        [
            (bump, 1, F(-1, 2)),
            (bump, 1, F(-1)),
            (bump, 2, F(-1, 2)),
            (lambda n: bump_wave(n, omega=8.0), 1, F(-1)),
        ],
    )
    def test_two_paths_agree(self, make, n, s):
        fn = make(n)
        lhs, rhs = check_holder_equality(fn, s)
        assert lhs.value == pytest.approx(rhs.value, rel=1e-10)

    def test_sides_are_identical_floats(self, bump1):
        lhs, rhs = check_holder_equality(bump1, F(-1, 4))
        assert lhs.value == rhs.value
