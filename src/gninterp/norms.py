"""Grid-based norm evaluation for smooth compactly supported functions.

Three numerical primitives, each returning a value plus an error estimate:

* Lebesgue norms by tensor-product composite Simpson quadrature with one
  Richardson halving step (the discrepancy between the coarse and fine pass
  drives both the extrapolation and the error estimate).
* Sup norms by grid maximization with local refinement around the argmax.
* Holder seminorms by scanning pairwise difference quotients over the
  lattice offsets of the grid, skipping offsets that exact bounds rule out,
  again with local refinement around the best pair.

Derivative norms read fields, not jets. A private holder, built from the
slots a caller will read, evaluates each point set of one function once,
through :meth:`TestFunction._evaluate` at exactly the orders read: the lp
grid's refined mesh (Simpson) and its nodes (sup) as the pointwise max over
the components of each order, the pair grid's mesh (Holder scans) as the
components themselves. The nodes are the refined mesh's even-index nodes:
every lp order is sliced there for Simpson's coarse pass, and a sup order
that is also an lp order is not evaluated again. Each read of a field set
is reduced once: each sup order is refined once, however many Holder norms
take the max over it, and the Holder seminorm reads together, each distinct
(order, gamma) once, with one evaluation per round at the orders they read;
seminorm parts sum the per-component pair sups.

:func:`holder_seminorm` and its oracle :func:`brute_force_holder` scan pairs
with separate routines that share one thing, :func:`_pair_denominators`: the
separation mask and ``|x-y|^gamma`` from squared distances. The fast scan
walks lattice offsets of the uniform grid and prunes, and its refine
clouds get a scan of their own (:func:`_cloud_scan`); the oracle sweeps
every ordered pair in row-major chunks and uses nothing of the grid's
structure. Each of the sweep's arrays holds at most one chunk's pairs,
2^18 (2 MiB of floats), so a sweep at ``PAIR_POINT_CAP`` points traces
about 13 MiB; a smaller budget swept faster but slowed the offset scan
that runs after it (see :func:`_pair_scan`). With refinement turned off
the two agree bit for bit on the same grid, attaining pairs included,
which the tests check rather than assume.
All reductions run in a fixed order; repeated calls give identical floats.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Dict, Mapping, Sequence

import numpy as np

from .errors import BadParams, GridTooCoarse
from .indices import SpaceIndex, holder_signature
from .testfn import Key, TestFunction, multi_indices_exact

# Pair grids are coarser than quadrature grids: every Holder slot scans one.
DEFAULT_LP_POINTS = {1: 257, 2: 33, 3: 17}
DEFAULT_PAIR_POINTS = {1: 129, 2: 25, 3: 9}

# Hard ceiling on points entering the brute-force oracle (its sweep is quadratic).
PAIR_POINT_CAP = 4096

# Pairs closer than this times the pair grid's widest side are skipped in
# difference quotients: relative, so the dilation law holds on any support.
MIN_PAIR_SEPARATION = 1e-9

# Pairs per chunk of the brute-force sweep: each of its pair arrays holds at
# most this many floats, 2 MiB (see _pair_scan for the choice).
_PAIR_BUDGET = 1 << 18

# Relative slack on the offset scan's pruning bounds, far above the rounding
# in the bounds and in the quotients they bound.
_PRUNE_MARGIN = 1e-9

# Pairs per vectorised batch of the offset scan.
_OFFSET_BATCH = 1 << 15

# Default grids cover the support box scaled by this factor.
_GRID_MARGIN = 1.05

# lp_norm refuses a grid whose two Simpson passes differ by more than this
# relative amount: its Richardson estimate assumes they nearly agree.
_COARSE_TOL = 0.10

# Local sweeps around the argmax in sup_norm.
_SUP_REFINEMENTS = 2


def _mesh(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of ``axes`` as an (npoints, ndim) array, C order.

    Each coordinate column is written once, broadcast from its axis.
    """
    ndim = len(axes)
    out = np.empty(tuple(len(a) for a in axes) + (ndim,))
    for i, a in enumerate(axes):
        out[..., i] = np.reshape(a, (-1,) + (1,) * (ndim - 1 - i))
    return out.reshape(-1, ndim)


def _integer(value, what: str) -> int:
    """``value`` by ``operator.index``: numpy integers pass, floats raise BadParams."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParams(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on a box, the same point count along every axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    points_per_axis: int

    def __post_init__(self):
        object.__setattr__(self, "points_per_axis", _integer(self.points_per_axis, "points per axis"))
        if len(self.lo) != len(self.hi):
            raise BadParams("lo and hi have different lengths")
        if self.points_per_axis < 3:
            raise BadParams("need at least 3 points per axis")
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in zip(self.lo, self.hi)):
            raise BadParams(f"box bounds must be finite, got lo={self.lo} hi={self.hi}")
        if any(b <= a for a, b in zip(self.lo, self.hi)):
            raise BadParams(f"need hi > lo on every axis, got lo={self.lo} hi={self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def npoints(self) -> int:
        return self.points_per_axis ** self.ndim

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(self.lo[i], self.hi[i], self.points_per_axis)
            for i in range(self.ndim)
        ]

    def spacing(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / (self.points_per_axis - 1)

    def mesh(self) -> np.ndarray:
        """All grid points as an (npoints, ndim) array, C order."""
        return _mesh(self.axes())

    def refined(self) -> "GridSpec":
        """Same box with doubled resolution (shared nodes at even indices)."""
        return GridSpec(self.lo, self.hi, 2 * self.points_per_axis - 1)


def default_grid(fn: TestFunction, kind: str = "lp") -> GridSpec:
    """Grid covering the support box of ``fn`` with a small margin.

    ``kind`` selects the resolution table: "lp" for quadrature and sup scans,
    "pair" for the quadratic-cost Holder scans.
    """
    if kind not in ("lp", "pair"):
        raise BadParams(f"grid kind must be 'lp' or 'pair', got {kind!r}")
    table = DEFAULT_PAIR_POINTS if kind == "pair" else DEFAULT_LP_POINTS
    lo, hi = fn.bounding_box(_GRID_MARGIN)
    return GridSpec(tuple(lo), tuple(hi), table[fn.ndim])


@dataclass(frozen=True)
class NormValue:
    """A computed norm with a (heuristic) error estimate and method tag."""

    value: float
    error_estimate: float
    method: str

    def __float__(self) -> float:
        return self.value


def _finite_exponent(p: float | Fraction) -> float:
    """``p`` checked to satisfy 1 <= p < inf, as given, then as a float."""
    if not 1 <= p < math.inf:
        raise BadParams(f"p must satisfy 1 <= p < inf (use sup_norm for p = inf), got {p}")
    return float(p)


def _clouds(centers: np.ndarray, h: np.ndarray, count: int) -> np.ndarray:
    """``count`` points per axis from ``c - h`` to ``c + h`` around each row
    ``c`` of ``centers``: one :func:`_mesh` per centre, stacked in order."""
    ndim = centers.shape[1]
    axes = np.linspace(centers - h, centers + h, count, axis=-1)
    at = np.indices((count,) * ndim).reshape(ndim, -1)
    return axes[:, np.arange(ndim)[:, None], at].transpose(0, 2, 1).reshape(-1, ndim)


def _finite(value, what: str):
    """``value``, or BadParams naming ``what`` when it (any entry, for an
    array) overflowed or is NaN: such a value passes every tolerance test
    and would print as a norm or a ratio.

    A float takes ``math.isfinite``: numpy's call on a scalar made a
    default-grid ``lp_norm`` about 4% slower."""
    if isinstance(value, float):
        bad = [] if math.isfinite(value) else [value]
    else:
        bad = value[~np.isfinite(value)]
    if len(bad):
        raise BadParams(f"{what} is {bad[0]}, not finite")
    return value


class _Fields:
    """What a set of norms of one function reads, each point set evaluated once.

    Built from the orders the norms will read: ``lp`` on the lp grid's
    refined mesh (Simpson), ``sup`` on the lp grid's nodes (grid sups) and
    ``pair`` on the pair grid's mesh (Holder scans). The first two hold one
    max-component field per order from one :meth:`TestFunction._max_abs_fields`
    pass per point set. The nodes are the refined mesh's even-index nodes, so
    every lp order is sliced there too, for Simpson's coarse pass, and a sup
    order that is also an lp order is not evaluated again. The pair mesh
    holds the components of each pair order, from one evaluation at exactly
    those orders. An even lp point count raises BadParams before any evaluation.
    Callers reduce each read once: one sup table (:func:`_sup_value` per
    order) and one :func:`_seminorm_values` call per field set.
    """

    def __init__(
        self,
        fn: TestFunction,
        lp_grid: GridSpec | None = None,
        pair_grid: GridSpec | None = None,
        lp: Collection[int] = (),
        sup: Collection[int] = (),
        pair: Collection[int] = (),
    ):
        self.fn = fn
        self.lp_grid = default_grid(fn, "lp") if lp_grid is None else lp_grid
        self.pair_grid = default_grid(fn, "pair") if pair_grid is None else pair_grid
        if lp and self.lp_grid.points_per_axis % 2 == 0:
            raise BadParams(f"composite Simpson needs an odd point count, got {self.lp_grid.points_per_axis}")
        fine = self.lp_grid.refined()
        self.fine = fn._max_abs_fields(fine.mesh(), lp) if lp else {}
        even = (slice(None, None, 2),) * fn.ndim
        shape = (fine.points_per_axis,) * fn.ndim
        self.nodes = {m: field.reshape(shape)[even].ravel() for m, field in self.fine.items()}
        rest = set(sup) - set(self.fine)
        if rest:
            self.nodes.update(fn._max_abs_fields(self.lp_grid.mesh(), rest))
        rows = fn._evaluate(self.pair_grid.mesh(), pair) if pair else {}
        # A pair scan skips a NaN quotient, so the pair fields are checked as
        # built; a Simpson sum or a grid sup carries a non-finite entry into
        # its value, which is checked there.
        self.pair = {
            m: {k: _finite(rows[k], f"the order-{m} field") for k in multi_indices_exact(fn.ndim, m)} for m in pair
        }


def _simpson_weights(m: int, h: float) -> np.ndarray:
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _simpson_integral(field: np.ndarray, grid: GridSpec) -> float:
    h = grid.spacing()
    out = field.reshape((grid.points_per_axis,) * grid.ndim)
    for ax in range(grid.ndim):
        out = np.tensordot(out, _simpson_weights(grid.points_per_axis, h[ax]), axes=([0], [0]))
    return float(out)


def lp_norm(
    fn: TestFunction,
    p: float | Fraction,
    order: int = 0,
    grid: GridSpec | None = None,
) -> NormValue:
    """L^p norm of the order-th derivative (pointwise max over components).

    ``p`` must be finite with 1 <= p < inf; the L^inf norm is :func:`sup_norm`.
    Composite Simpson on the given grid and on its refinement; the pair is
    Richardson-extrapolated and their discrepancy becomes the error estimate.
    A grid with an even point count raises BadParams before any evaluation;
    a relative discrepancy above ``_COARSE_TOL`` raises GridTooCoarse.
    """
    p = _finite_exponent(p)
    return _lp_value(_Fields(fn, lp_grid=grid, lp=(order,)), p, order)


def _lp_value(fields: _Fields, p: float, order: int) -> NormValue:
    grid = fields.lp_grid
    what = f"the L^{p:g} integral of the order-{order} field"
    ic = _finite(_simpson_integral(fields.nodes[order] ** p, grid), what)
    i_f = _finite(_simpson_integral(fields.fine[order] ** p, grid.refined()), what)
    if ic == 0.0 and i_f == 0.0:
        return NormValue(0.0, 0.0, "simpson+richardson")
    denom = max(abs(i_f), abs(ic))
    rel = abs(i_f - ic) / denom
    if rel > _COARSE_TOL:
        raise GridTooCoarse(
            f"Simpson passes disagree by {rel:.1%} (> {_COARSE_TOL:.0%}); refine the grid"
        )
    # Simpson error is O(h^4): the halved grid removes ~15/16 of it.
    correction = (i_f - ic) / 15.0
    integral = i_f + correction
    value = integral ** (1.0 / p)
    err = abs(correction) / (p * integral) * value if integral > 0 else 0.0
    return NormValue(value, err, "simpson+richardson")


def lp_norm_midpoint_oracle(
    fn: TestFunction,
    p: float | Fraction,
    order: int = 0,
    grid: GridSpec | None = None,
) -> NormValue:
    """Independent L^p check: midpoint rule on cell centers, for 1 <= p < inf.

    Shares no evaluation points with the Simpson grid, so agreement within
    the combined error estimates is meaningful evidence.
    """
    p = _finite_exponent(p)
    if grid is None:
        grid = default_grid(fn, "lp")
    m = grid.points_per_axis - 1  # cells per axis
    lo = np.asarray(grid.lo)
    h = (np.asarray(grid.hi) - lo) / m
    axes = [lo[i] + (np.arange(m) + 0.5) * h[i] for i in range(grid.ndim)]
    field = fn._max_abs_fields(_mesh(axes), (order,))[order] ** p
    what = f"the L^{p:g} integral of the order-{order} field"
    integral = _finite(float(np.sum(field.reshape((m,) * grid.ndim))) * float(np.prod(h)), what)
    if integral <= 0.0:
        return NormValue(0.0, 0.0, "midpoint")
    value = integral ** (1.0 / p)
    # Midpoint is O(h^2); estimate via a half-resolution pass.
    m2 = m // 2
    axes2 = [lo[i] + (np.arange(m2) + 0.5) * (h[i] * m / m2) for i in range(grid.ndim)]
    coarse_field = fn._max_abs_fields(_mesh(axes2), (order,))[order] ** p
    coarse = _finite(float(np.sum(coarse_field)) * float(np.prod(h * m / m2)), what)
    # Halving an O(h^2) rule leaves |I - I_coarse| ~ 3x the fine error for
    # smooth fields; /2 keeps headroom for the kinks |D^l u| introduces.
    err_int = abs(integral - coarse) / 2.0
    err = err_int / (p * integral) * value
    return NormValue(value, err, "midpoint")


def sup_norm(
    fn: TestFunction,
    order: int = 0,
    grid: GridSpec | None = None,
) -> NormValue:
    """Sup over space of the pointwise max over order-th derivative components.

    Grid maximum, then ``_SUP_REFINEMENTS`` local 9-points-per-axis sweeps
    around the argmax with the spacing shrunk 4x per round. The error estimate is the last observed
    improvement (floored at machine precision of the value).
    """
    return _sup_value(_Fields(fn, lp_grid=grid, sup=(order,)), order)


def _sup_value(fields: _Fields, order: int) -> NormValue:
    grid = fields.lp_grid
    field = fields.nodes[order]
    best_i = int(np.argmax(field))
    best = float(field[best_i])
    at = np.unravel_index(best_i, (grid.points_per_axis,) * grid.ndim)
    center = np.array([ax[i] for ax, i in zip(grid.axes(), at)])
    h = grid.spacing()
    improvement = 0.0
    for _ in range(_SUP_REFINEMENTS):
        local = _clouds(center[None], h, 9)
        lf = fields.fn._max_abs_fields(local, (order,))[order]
        li = int(np.argmax(lf))
        if float(lf[li]) > best:
            improvement = float(lf[li]) - best
            best = float(lf[li])
            center = local[li]
        h = h / 4.0
    _finite(best, f"the sup of the order-{order} field")
    err = float(max(improvement, np.finfo(float).eps * abs(best)))
    return NormValue(best, err, "grid_sup")


# -- pairwise Holder scans ----------------------------------------------------


def _min_separation(grid: GridSpec) -> float:
    """The shortest pair distance the scans on ``grid`` and its clouds read."""
    return MIN_PAIR_SEPARATION * max(b - a for a, b in zip(grid.lo, grid.hi))


def _pair_denominators(dist_sq: np.ndarray, gamma: float, min_dist: float) -> tuple[np.ndarray, np.ndarray]:
    """The separation mask (``|x-y| >= min_dist``) and ``|x-y|^gamma`` for
    squared distances, the float expression both pair scans share."""
    dist = np.sqrt(dist_sq)
    ok = dist >= min_dist
    return ok, np.where(ok, dist, 1.0) ** gamma


def _pair_scan(
    points: np.ndarray,
    comps: Mapping[Key, np.ndarray],
    gamma: float,
    min_dist: float,
) -> tuple[Dict[Key, float], Dict[Key, tuple[np.ndarray, np.ndarray]]]:
    """Best difference quotient |v(x)-v(y)| / |x-y|^gamma per component.

    Scans every ordered pair of rows of ``points`` in row-major order, in
    chunks of ``max(1, _PAIR_BUDGET // N)`` rows, so each pair array holds
    at most one chunk's pairs, and a later chunk takes over only with a
    strictly larger quotient: the first attaining pair wins.  Squared
    distances add one axis at a time, in axis order.  Returns per-component
    sups and the attaining pairs.

    The budget, 2^18 pairs (2 MiB per float64 array), keeps the sweep's
    traced peak near 13 MiB at ``PAIR_POINT_CAP`` points, against over
    100 MiB for 512-row chunks.  2^14 swept faster still, but then the
    offset scan run after it lost up to a fifth of its speed on some
    grids, one 2-D scan taking about 6,000 minor page faults per call
    instead of a few hundred: with no large array freed before it, the
    allocator likely hands its batch arrays fresh pages.
    """
    n = points.shape[0]
    rows = max(1, _PAIR_BUDGET // n)
    keys = sorted(comps)
    sups = {k: 0.0 for k in keys}
    pairs: Dict[Key, tuple[np.ndarray, np.ndarray]] = {
        k: (points[0], points[0]) for k in keys
    }
    for start in range(0, n, rows):
        block = points[start : start + rows]
        dist_sq = 0.0
        for ax in range(points.shape[1]):
            dist_sq = dist_sq + (block[:, ax, None] - points[None, :, ax]) ** 2
        ok, denom = _pair_denominators(dist_sq, gamma, min_dist)
        for k in keys:
            v = comps[k]
            num = np.abs(v[start : start + rows, None] - v[None, :])
            q = np.where(ok, num / denom, 0.0)
            fi = int(np.argmax(q))
            i, j = divmod(fi, n)
            if float(q[i, j]) > sups[k]:
                sups[k] = float(q[i, j])
                pairs[k] = (block[i], points[j])
    return sups, pairs


def _outer_sum(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``parts[0][:, None, ...] + parts[1][None, :, ...] + ...``, added in order; ``[0]`` for no parts."""
    if not parts:
        return np.zeros(1, dtype=np.intp)
    out = parts[0]
    for part in parts[1:]:
        out = np.add.outer(out, part)
    return out


def _grid_pair_scan(
    grid: GridSpec,
    comps: Mapping[Key, np.ndarray],
    gamma: float,
) -> tuple[Dict[Key, float], Dict[Key, tuple[np.ndarray, np.ndarray]]]:
    """Per-component sups of pair quotients on a uniform grid, by lattice offset.

    Each unordered pair is met once, as (a, a + d) for a lattice offset d
    whose first nonzero coordinate is positive. Offsets are visited in rows
    (leading coordinates fixed) ordered by nominal length, and within a row
    by the length of the last coordinate, in vectorised batches.

    Pruning: an offset is skipped for a component when no pair at it can
    reach the component's best quotient so far, by ``osc(v) / |d|^gamma`` or
    by telescoping along the axes, ``sum_i |d_i| max|Delta_i v| / |d|^gamma``;
    inside a batch, a pair is dropped when ``|v(a) - v(b)| / |d|^gamma`` is
    below the best. Every bound is inflated by ``_PRUNE_MARGIN``, and
    ``|d|`` is measured with the smallest coordinate gap per axis. The best
    starts from the quotient of the (argmax v, argmin v) pair.

    Surviving pairs get :func:`_pair_scan`'s float expression: per-axis
    squared coordinate differences summed in axis order, then
    :func:`_pair_denominators`, then ``|v(a) - v(b)| / denom``. Among tied
    pairs the one with the smallest first, then second, flat index wins: the
    pair the row-major brute sweep meets first. The returned sups and pairs
    therefore equal :func:`_pair_scan`'s on ``grid.mesh()``.
    """
    n, m = grid.ndim, grid.points_per_axis
    shape = (m,) * n
    axes = grid.axes()
    keys = sorted(comps)
    min_dist = _min_separation(grid)
    fields = {k: np.asarray(comps[k], dtype=float).reshape(shape) for k in keys}
    best = {k: 0.0 for k in keys}
    where = {k: (0, 0) for k in keys}

    def offer(k, q, a, b):
        """Take the earliest (a, b) among q's maxima if it beats best[k]."""
        top = float(q.max())
        if top <= 0.0 or top < best[k]:
            return
        hit = q == top
        a, b = a[hit], b[hit]
        i = np.lexsort((b, a))[0]
        cand = (int(a[i]), int(b[i]))
        if top > best[k] or cand < where[k]:
            best[k], where[k] = top, cand

    # Bounds over the offset cube; entry t along an axis is offset t - (m - 1).
    span = np.arange(1 - m, m)
    gaps = [float(np.min(np.diff(ax))) for ax in axes]
    bounds = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        nominal = np.sqrt(_outer_sum([(span * g) ** 2 for g in gaps])) ** gamma
        for k in keys:
            v = fields[k]
            osc = float(v.max() - v.min())
            if osc == 0.0:
                continue  # every quotient is 0: the brute sweep keeps its initial pair
            steps = [float(np.max(np.abs(np.diff(v, axis=i)))) for i in range(n)]
            reach = np.minimum(osc, _outer_sum([np.abs(span) * s for s in steps]))
            # reach 0 means every difference at that offset is 0, whatever |d|.
            bounds[k] = np.where(reach > 0.0, reach / nominal, 0.0) * (1.0 + _PRUNE_MARGIN)

            ends = sorted((int(np.argmax(v)), int(np.argmin(v))))
            ea, eb = (np.unravel_index(e, shape) for e in ends)
            dist_sq = 0.0
            for i in range(n):
                dist_sq = dist_sq + (axes[i][eb[i]] - axes[i][ea[i]]) ** 2
            ok, denom = _pair_denominators(np.array([dist_sq]), gamma, min_dist)
            q = np.where(ok, np.abs(v[eb] - v[ea]) / denom, 0.0)
            offer(k, q, np.array(ends[:1]), np.array(ends[1:]))

    # Rows of offsets: leading coordinates with the first nonzero one positive
    # (tuple order), nearest first.
    rows = [d for d in itertools.product(range(1 - m, m), repeat=n - 1) if d >= (0,) * (n - 1)]
    rows.sort(key=lambda d: sum((di * g) ** 2 for di, g in zip(d, gaps)))
    by_length = np.argsort(np.abs(span), kind="stable")
    index = np.arange(m)
    ax_last = axes[-1]

    for row in rows:
        at = tuple(d + m - 1 for d in row)
        cand = by_length if any(row) else by_length[span[by_length] > 0]
        ubound = {k: u[at][cand] for k, u in bounds.items()}
        ubound = {k: u for k, u in ubound.items() if u.max() >= best[k]}
        if not ubound:
            continue
        ds, nom = span[cand], nominal[at][cand]
        sl_a = tuple(slice(max(0, -d), m - max(0, d)) for d in row) + (slice(None),)
        sl_b = tuple(slice(max(0, d), m - max(0, -d)) for d in row) + (slice(None),)
        lead_sq = _outer_sum([(axes[i][sl_b[i]] - axes[i][sl_a[i]]) ** 2 for i in range(n - 1)]).ravel()
        base_a, base_b = (
            _outer_sum([index[s] * m ** (n - 1 - i) for i, s in enumerate(sl[:-1])]).ravel()
            for sl in (sl_a, sl_b)
        )
        r = lead_sq.size
        sliced = {k: (fields[k][sl_a].reshape(r, m), fields[k][sl_b].reshape(r, m)) for k in ubound}
        while ds.size:
            keep = np.logical_or.reduce([u >= best[k] for k, u in ubound.items()])
            ds, nom = ds[keep], nom[keep]
            ubound = {k: u[keep] for k, u in ubound.items()}
            if not ds.size:
                break
            lengths = m - np.abs(ds)
            take = max(1, int(np.searchsorted(np.cumsum(lengths) * r, _OFFSET_BATCH, "right")))
            lengths = lengths[:take]
            pos = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            ia = np.repeat(np.maximum(0, -ds[:take]), lengths) + pos
            ib = ia + np.repeat(ds[:take], lengths)
            nom_col = np.repeat(nom[:take], lengths)
            for k, u in ubound.items():
                if not (u[:take] >= best[k]).any():
                    continue
                va, vb = sliced[k]
                num = np.abs(vb[:, ib] - va[:, ia])
                sel = np.flatnonzero(num >= nom_col * (best[k] * (1.0 - _PRUNE_MARGIN)))
                if not sel.size:
                    continue
                rr, pp = np.divmod(sel, ia.size)
                dist_sq = lead_sq[rr] + (ax_last[ib[pp]] - ax_last[ia[pp]]) ** 2
                ok, denom = _pair_denominators(dist_sq, gamma, min_dist)
                q = np.where(ok, num.ravel()[sel] / denom, 0.0)
                offer(k, q, base_a[rr] + ia[pp], base_b[rr] + ib[pp])
            ds, nom = ds[take:], nom[take:]
            ubound = {k: u[take:] for k, u in ubound.items()}

    def point(flat):
        return np.array([axes[i][j] for i, j in enumerate(np.unravel_index(flat, shape))])

    pairs = {k: (point(where[k][0]), point(where[k][1])) for k in keys}
    return best, pairs


def _exact_order_components(fn: TestFunction, pts: np.ndarray, order: int) -> Dict[Key, np.ndarray]:
    jet = fn.jet(pts, order)
    return {k: jet[k] for k in multi_indices_exact(fn.ndim, order)}


def _gamma(gamma: float) -> float:
    """A quotient exponent checked to lie in (0, 1], as a float."""
    if not (0.0 < gamma <= 1.0):
        raise BadParams(f"gamma must lie in (0, 1], got {gamma}")
    return float(gamma)


def holder_seminorm(
    fn: TestFunction,
    order: int,
    gamma: float,
    grid: GridSpec | None = None,
    refinements: int = 3,
) -> NormValue:
    """Sum over order-th derivative components of the sup difference quotient.

    ``gamma`` is the quotient exponent in (0, 1]. The global scan runs over
    lattice offsets of the uniform grid and skips offsets that provably
    cannot hold a better pair (:func:`_grid_pair_scan`); it has no point cap.
    Each component's best pair is then refined locally: 5 points per axis
    around both endpoints, all pairs among the combined cloud, spacing shrunk
    4x per round. With ``refinements=0`` the value equals
    :func:`brute_force_holder` on the same grid bit for bit, a property the
    tests check, not one shared code guarantees. A negative or non-integer
    ``refinements`` raises BadParams.
    """
    gamma = _gamma(gamma)
    refinements = _integer(refinements, "refinements")
    if refinements < 0:
        raise BadParams(f"refinements must be >= 0, got {refinements}")
    return _seminorm_values(_Fields(fn, pair_grid=grid, pair=(order,)), [(order, gamma)], refinements)[order, gamma]


def _cloud_scan(
    points: np.ndarray, v: np.ndarray, gamma: float, min_dist: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """The best quotient among all pairs of rows of ``points`` and the first
    pair in row-major order that attains it: a refine cloud's scan.

    Squared distances add one axis at a time, in axis order, as in
    :func:`_grid_pair_scan`, then :func:`_pair_denominators`; the result
    equals :func:`_pair_scan` on the cloud bit for bit, a property the tests
    check."""
    dist_sq = 0.0
    for col in points.T:
        dist_sq = dist_sq + (col[:, None] - col[None, :]) ** 2
    ok, denom = _pair_denominators(dist_sq, gamma, min_dist)
    q = np.where(ok, np.abs(v[:, None] - v[None, :]) / denom, 0.0)
    i, j = divmod(int(np.argmax(q)), v.size)
    return float(q[i, j]), points[i], points[j]


def _seminorm_values(
    fields: _Fields, reads: Collection[tuple[int, float]], refinements: int = 3
) -> Dict[tuple[int, float], NormValue]:
    """The exponent-``gamma`` seminorm at ``order`` for each distinct
    ``(order, gamma)`` read, all refined together.

    Each read gets its own global scan. Each refine round then evaluates,
    once and at exactly the orders read, the clouds of every (read,
    component) stacked in order: 5 points per axis around both ends of the
    best pair. A row depends on its point alone, so every cloud reads the
    floats an evaluation of its own would give.
    """
    scans = {read: _grid_pair_scan(fields.pair_grid, fields.pair[read[0]], read[1]) for read in reads}
    jobs = [(read, key) for read in scans for key in sorted(fields.pair[read[0]])]
    improvement = dict.fromkeys(scans, 0.0)
    h, min_dist = fields.pair_grid.spacing(), _min_separation(fields.pair_grid)
    for _ in range(refinements if jobs else 0):
        local = _clouds(np.array([c for read, key in jobs for c in scans[read][1][key]]), h, 5)
        rows = fields.fn._evaluate(local, {order for order, _ in scans})
        size = local.shape[0] // len(jobs)
        for i, (read, key) in enumerate(jobs):
            part = slice(i * size, (i + 1) * size)
            sups, pairs = scans[read]
            lsup, a, b = _cloud_scan(local[part], rows[key][part], read[1], min_dist)
            if lsup > sups[key]:
                improvement[read] = max(improvement[read], lsup - sups[key])
                sups[key], pairs[key] = lsup, (a, b)
        h = h / 4.0
        del rows  # freed before the next round's are built: holding both costs peak RSS
    out = {}
    for (order, gamma), (sups, _) in scans.items():
        total = 0.0
        for key in sorted(sups):
            total += sups[key]
        _finite(total, f"the exponent-{gamma:g} seminorm of the order-{order} field")
        err = float(max(improvement[order, gamma], np.finfo(float).eps * abs(total)))
        out[order, gamma] = NormValue(total, err, "pair_sup")
    return out


def brute_force_holder(
    fn: TestFunction,
    order: int,
    gamma: float,
    grid: GridSpec,
) -> NormValue:
    """Reference Holder seminorm: every ordered pair, swept in row-major chunks.

    No refinement, no pruning and no use of the grid's structure: the oracle
    that :func:`holder_seminorm` with ``refinements=0`` must reproduce bit for
    bit. Its cost is quadratic, so grids beyond ``PAIR_POINT_CAP`` points
    raise BadParams. Its memory is not: each array of the sweep holds at
    most one chunk of 2^18 pairs, the budget at which the sweep stays fast
    without slowing the offset scan after it (see :func:`_pair_scan`).
    """
    gamma = _gamma(gamma)
    if grid.npoints > PAIR_POINT_CAP:
        raise BadParams(f"{grid.npoints} points exceed the pair-scan cap of {PAIR_POINT_CAP}")
    pts = grid.mesh()
    comps = _exact_order_components(fn, pts, order)
    # The scan skips a NaN quotient, so a non-finite field would read 0.
    # Checked here, not through the fast path's checks, to stay independent.
    for comp in comps.values():
        bad = comp[~np.isfinite(comp)]
        if bad.size:
            raise BadParams(f"the order-{order} field is {bad[0]}, not finite")
    sups, _ = _pair_scan(pts, comps, gamma, _min_separation(grid))
    total = 0.0
    for key in sorted(sups):
        total += sups[key]
    if not math.isfinite(total):
        raise BadParams(f"the exponent-{gamma:g} seminorm of the order-{order} field is {total}, not finite")
    return NormValue(total, float(np.finfo(float).eps * abs(total)), "pair_sup_brute")


# -- scale-indexed dispatch ---------------------------------------------------


def _holder_norm(sups: Mapping[int, NormValue], lo: int, top: int, gamma: float, semi: NormValue) -> NormValue:
    """The largest of the grid sups ``sups[lo .. top]`` plus ``semi``, the
    exponent-``gamma`` seminorm at order ``top``; error estimates add."""
    sup = max((sups[m] for m in range(lo, top + 1)), key=lambda nv: nv.value)
    value = _finite(sup.value + semi.value, f"the C^{{{top - lo},{gamma:g}}} norm of the order-{lo} field")
    return NormValue(value, sup.error_estimate + semi.error_estimate, "pair_sup")


def _slot_norms(
    fn: TestFunction,
    slots: Sequence[tuple[Fraction | int | str, int]],
    mode: str,
    lp_grid: GridSpec | None = None,
    pair_grid: GridSpec | None = None,
) -> list[NormValue]:
    """:func:`xnorm` of each ``(scale, order)`` slot, all read from one :class:`_Fields`.

    Every slot is checked, and the orders it reads collected, before the
    fields are evaluated. The distinct Holder seminorm reads are then
    refined together (:func:`_seminorm_values`), each sup order once into
    the table the Holder norms read, and each distinct read is reduced
    once: repeated slots share one NormValue.
    """
    if mode not in ("full", "seminorm"):
        raise BadParams(f"mode must be 'full' or 'seminorm', got {mode!r}")
    lp, sup, holder = set(), set(), {}
    reads = []
    for s, order in slots:
        idx = SpaceIndex(s, fn.ndim)
        if idx.s > 0:
            reads.append(("lp", order, _finite_exponent(1 / idx.s)))
            lp.add(order)
        elif idx.s == 0:
            reads.append(("sup", order, None))
            sup.add(order)
        else:
            sig = holder_signature(idx)
            semi = (order + sig.p1, float(sig.p2))
            holder[semi] = None
            reads.append((mode, order, semi))
            if mode == "full":
                sup.update(order + i for i in range(sig.p1 + 1))
    fields = _Fields(fn, lp_grid, pair_grid, lp, sup, {top for top, _ in holder})
    semis = _seminorm_values(fields, holder)
    sups = {m: _sup_value(fields, m) for m in sorted(sup)}
    values = {}
    for read in dict.fromkeys(reads):
        kind, order, arg = read
        if kind == "lp":
            values[read] = _lp_value(fields, arg, order)
        elif kind == "sup":
            values[read] = sups[order]
        elif kind == "seminorm":
            values[read] = semis[arg]
        else:
            values[read] = _holder_norm(sups, order, *arg, semis[arg])
    return [values[read] for read in reads]


def xnorm(
    fn: TestFunction,
    s: Fraction | int | str,
    order: int = 0,
    mode: str = "full",
    lp_grid: GridSpec | None = None,
    pair_grid: GridSpec | None = None,
) -> NormValue:
    """Norm of the order-th derivative in the space of scale ``s``.

    Positive scales are Lebesgue norms with p = 1/s, scale zero is the sup
    norm, negative scales are Holder norms assembled from the signature of
    the scale: sups of orders ``order .. order+p1`` plus the exponent-p2
    seminorm at order ``order+p1``.

    ``mode`` is "full" or "seminorm". For negative scales "seminorm" drops
    the sup part; for scale zero both modes are the grid sup; for positive
    scales both modes coincide.
    """
    return _slot_norms(fn, [(s, order)], mode, lp_grid, pair_grid)[0]


def check_holder_equality(
    fn: TestFunction,
    s: Fraction | int | str,
    lp_grid: GridSpec | None = None,
    pair_grid: GridSpec | None = None,
) -> tuple[NormValue, NormValue]:
    """Derivative norm at negative scale s against the space one step down.

    Returns ``(lhs, rhs)`` where ``rhs`` is the full scale-s norm of the
    gradient (orders 1 .. p1+1 sups plus the top seminorm) and ``lhs`` is
    the order->=1 part of the scale-(s - 1/n) norm of the function itself.
    The two sides enumerate the same components, so they agree up to
    floating-point identity; the order-0 sup belongs to neither side. Both
    read one set of fields.
    """
    idx = SpaceIndex(s, fn.ndim)
    sig = holder_signature(idx)  # s < 0 check
    down = holder_signature(SpaceIndex(idx.s - Fraction(1, fn.ndim), fn.ndim))
    tops = (down.p1, 1 + sig.p1)
    orders = range(1, max(tops) + 1)
    fields = _Fields(fn, lp_grid, pair_grid, sup=orders, pair=tops)
    reads = [(down.p1, float(down.p2)), (1 + sig.p1, float(sig.p2))]
    semis = _seminorm_values(fields, reads)
    sups = {m: _sup_value(fields, m) for m in orders}
    return tuple(_holder_norm(sups, 1, *read, semis[read]) for read in reads)
