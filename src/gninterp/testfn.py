"""Smooth, compactly supported test functions with exact derivative jets.

Every function here is built from a profile on the closed unit ball and an
affine frame: ``u(x) = amp * P((x - center) / radius)``. Every profile is
``G(1 - |y|^2)``, possibly times a factor in one coordinate. Derivatives come
from truncated one-variable Taylor series, not finite differences: at each
point inside the support, the Taylor coefficients of G at ``t0 = 1 - |y|^2``
come from the standard product, reciprocal and exponential recurrences on
dense coefficient rows (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., ch. 13). They are composed with the inner series
``-sum_i (2 y_i h_i + h_i^2)`` through a Faa di Bruno table cached per
``(n, order)``, then multiplied by the factor's closed-form series. Jets are
accurate to rounding even next to the support boundary, where the profiles
are flat to infinite order; points outside the support get exact zeros.

Jets are evaluated in consecutive blocks of points written into one output
array. Every operation of the kernel is per point, so the values do not
depend on the blocking; what the blocking buys is that the kernel's
temporaries stay small enough for the allocator to reuse them from its heap,
instead of mapping fresh pages from the OS and faulting them in on every jet.

:meth:`TestFunction.jet` returns every row ``|alpha| <= order`` and is the
reference. Norms read only ``max over |alpha| = m of |D^alpha u|`` for a few
orders m, and :meth:`TestFunction._max_abs_fields` computes just that in one
pass over the blocks: each block evaluates the rows of those orders alone,
plus the lower rows that an axis factor's product reads (a Taylor row needs
lower-order series, never the other rows of its order), and keeps one
abs-max row per order. Every value equals the abs-max of the jet's rows.

Families
--------
``bump(R)``
    The classical mollifier ``exp(-1/(1 - |y|^2))`` on ``|y| < 1``.
``bump_poly(R, deg, axis)``
    Bump times the monomial ``y_axis^deg``; odd degrees give sign changes.
``bump_wave(R, omega)``
    Bump times ``cos(omega * y_1)``; omega is radians per support radius, so
    dilation does not change the number of oscillations.
``plateau(R, rho)``
    Equal to 1 on ``|y| <= rho`` (exactly, with zero jets), 0 outside the unit
    ball, glued by the standard exp-quotient partition in between.

Functions can be described by and parsed from compact strings such as
``"bump(R=1)*dilate(2)*translate(0.3)*amp(0.5)"``; see :func:`parse_testfn`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, Sequence

import numpy as np

from .errors import BadParams, DslSyntaxError, JetOrderOverflow

MAX_JET_ORDER = 6
MAX_DIM = 3

# Points with t0 = 1 - |y|^2 at or below this value get an all-zero jet: every
# profile is smaller than any double there. Keeping the threshold this coarse
# also caps the one-variable series: the order-k coefficients of exp(-1/t)
# pass through magnitudes of about t0^(-2k), at most 1e144 at order 6, safely
# below overflow.
BOUNDARY_CUTOFF = 1e-12

# Points per block of TestFunction.jet. One coefficient row of a block is
# 96 KiB, under glibc's default 128 KiB mmap threshold, so the kernel's
# temporaries are reused from the heap instead of being mapped, returned to
# the OS and page-faulted in again on every jet. Each block also costs a fixed
# interpreter overhead, so this is the largest multiple of 4096 points whose
# rows stay under the threshold.
_JET_BLOCK = 12288

# (y, t0, order, rows) -> [h^alpha] P(y + h) at in-support points y, one row
# per alpha = multi_indices(n, order)[i] for i in rows, one column per point.
Profile = Callable[[np.ndarray, np.ndarray, int, tuple[int, ...]], np.ndarray]

Key = tuple[int, ...]


@lru_cache(maxsize=None)
def multi_indices(nvars: int, max_order: int) -> tuple[Key, ...]:
    """All exponent tuples with total degree <= max_order, canonically ordered."""
    out = [key for key in product(range(max_order + 1), repeat=nvars) if sum(key) <= max_order]
    out.sort(key=lambda key: (sum(key), key))
    return tuple(out)


@lru_cache(maxsize=None)
def multi_indices_exact(nvars: int, order: int) -> tuple[Key, ...]:
    """Exponent tuples with total degree exactly ``order``, canonically ordered."""
    return tuple(k for k in multi_indices(nvars, order) if sum(k) == order)


# -- one-variable series as (order + 1, npts) coefficient rows -----------------


def _linear(const: np.ndarray, slope: float, order: int) -> np.ndarray:
    """The series ``const + slope * h``."""
    out = np.zeros((order + 1, const.size))
    out[0] = const
    if order:
        out[1] = slope
    return out


def _conv(a: np.ndarray, b: np.ndarray, k: int, start: int = 0) -> np.ndarray:
    """``sum_{j=start..k} a_j b_{k-j}``, summed in ascending j."""
    acc = a[start] * b[k - start]
    for j in range(start + 1, k + 1):
        acc += a[j] * b[k - j]
    return acc


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product: ``c_k = sum_j a_j b_{k-j}``."""
    return np.array([_conv(a, b, k) for k in range(len(a))])


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """``1/a`` from ``a * r = 1``: ``r_k = -r_0 sum_{j>=1} a_j r_{k-j}``. Needs ``a_0 != 0``."""
    out = np.empty_like(a)
    out[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        out[k] = -out[0] * _conv(a, out, k, 1)
    return out


def _exp(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` from ``e' = a' e``: ``k e_k = sum_{j>=1} j a_j e_{k-j}``."""
    slopes = a * np.arange(len(a))[:, None]
    out = np.empty_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, len(a)):
        out[k] = _conv(slopes, out, k, 1) / k
    return out


@lru_cache(maxsize=None)
def _index_of(nvars: int, order: int) -> Dict[Key, int]:
    return {key: i for i, key in enumerate(multi_indices(nvars, order))}


@lru_cache(maxsize=None)
def _monomial_parents(nvars: int, order: int) -> tuple[tuple[int, int], ...]:
    """For every multi-index beta but the first: (index of beta - e_axis, axis)."""
    index = _index_of(nvars, order)
    out = []
    for beta in multi_indices(nvars, order)[1:]:
        axis = next(i for i, e in enumerate(beta) if e)
        out.append((index[beta[:axis] + (beta[axis] - 1,) + beta[axis + 1 :]], axis))
    return tuple(out)


@lru_cache(maxsize=None)
def _radial_table(nvars: int, order: int) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """Faa di Bruno table for G(t0 + s) with s = -sum_i (2 y_i h_i + h_i^2).

    Row alpha lists the terms (j, b, w) of
    ``[h^alpha] = sum_{2 gamma <= alpha} w * g_j * y^beta_b`` with
    ``beta = alpha - 2 gamma``, ``j = |alpha| - |gamma|`` and the exact integer
    ``w = j! / (beta! gamma!) * (-2)^|beta| * (-1)^|gamma|``.
    """
    index = _index_of(nvars, order)
    table = []
    for alpha in multi_indices(nvars, order):
        terms = []
        for gamma in product(*(range(a // 2 + 1) for a in alpha)):
            beta = tuple(a - 2 * c for a, c in zip(alpha, gamma))
            j = sum(beta) + sum(gamma)
            denom = math.prod(math.factorial(e) for e in beta + gamma)
            w = math.factorial(j) // denom * (-2) ** sum(beta) * (-1) ** sum(gamma)
            terms.append((j, index[beta], float(w)))
        table.append(tuple(terms))
    return tuple(table)


@lru_cache(maxsize=None)
def _axis_shifts(nvars: int, order: int, axis: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row alpha lists (m, index of alpha - m e_axis) for m = 0..alpha_axis."""
    index = _index_of(nvars, order)
    return tuple(
        tuple((m, index[alpha[:axis] + (alpha[axis] - m,) + alpha[axis + 1 :]]) for m in range(alpha[axis] + 1))
        for alpha in multi_indices(nvars, order)
    )


def _radial_coeffs(y: np.ndarray, g: np.ndarray, order: int, rows: tuple[int, ...]) -> np.ndarray:
    """Rows ``rows`` of ``[h^alpha] G(1 - |y + h|^2)`` from G's coefficients ``g[j]`` at t0 = 1 - |y|^2."""
    cols = np.ascontiguousarray(y.T)
    mono = [None]
    for parent, axis in _monomial_parents(y.shape[1], order):
        mono.append(cols[axis] if parent == 0 else mono[parent] * cols[axis])
    table = _radial_table(y.shape[1], order)
    out = np.zeros((len(rows), y.shape[0]))
    for row, i in zip(out, rows):
        for j, b, w in table[i]:
            term = w * g[j]
            if b:
                term *= mono[b]
            row += term
    return out


@lru_cache(maxsize=None)
def _axis_plan(
    nvars: int, order: int, axis: int, rows: tuple[int, ...], nfactor: int
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """What rows ``rows`` of a product with an ``nfactor``-row series in ``h_axis`` read.

    Returns the other operand's rows to compute, ascending, and for each
    output row its terms (m, position of ``alpha - m e_axis`` among them).
    """
    shifts = _axis_shifts(nvars, order, axis)
    picked = [shifts[i][:nfactor] for i in rows]
    sources = tuple(sorted({src for terms in picked for _, src in terms}))
    at = {src: i for i, src in enumerate(sources)}
    return sources, tuple(tuple((m, at[src]) for m, src in terms) for terms in picked)


def _times_axis_series(coeffs: np.ndarray, factor: list[np.ndarray], terms: tuple) -> np.ndarray:
    """Product of an n-variable series with ``factor``, the rows of a series in ``h_axis`` alone.

    ``coeffs`` holds the rows and ``terms`` the terms of an :func:`_axis_plan`.
    """
    out = np.zeros((len(terms), coeffs.shape[1]))
    for row, row_terms in zip(out, terms):
        for m, src in row_terms:
            row += factor[m] * coeffs[src]
    return out


def _power_rows(x: np.ndarray, deg: int, order: int) -> list[np.ndarray]:
    """``[h^m] (x + h)^deg = C(deg, m) x^(deg - m)`` for ``m <= min(deg, order)``, powers by repeated products."""
    powers = [np.ones_like(x)]
    for _ in range(deg):
        powers.append(powers[-1] * x)
    return [math.comb(deg, m) * powers[deg - m] for m in range(min(deg, order) + 1)]


def _cos_rows(x: np.ndarray, omega: float, order: int) -> list[np.ndarray]:
    """``[h^m] cos(omega (x + h)) = omega^m / m! * cos(omega x + m pi/2)`` for ``m <= order``."""
    wx = x * omega
    c, s = np.cos(wx), np.sin(wx)
    cycle = (c, -s, -c, s)
    return [omega**m / math.factorial(m) * cycle[m % 4] for m in range(order + 1)]


def _phi(t: np.ndarray) -> np.ndarray:
    """``exp(-1/t)`` for a series t with positive constant row."""
    return _exp(-_reciprocal(t))


def _bump(y: np.ndarray, t0: np.ndarray, order: int, rows: tuple[int, ...]) -> np.ndarray:
    return _radial_coeffs(y, _phi(_linear(t0, 1.0, order)), order, rows)


def _plateau(y: np.ndarray, t0: np.ndarray, order: int, rows: tuple[int, ...], rho: float) -> np.ndarray:
    # tau = t0 / (1 - rho^2) runs from 0 at the support sphere to 1 at the
    # plateau edge; the profile is psi(tau), identically 1 for tau >= 1.
    c = 1.0 / (1.0 - rho * rho)
    flat = t0 * c >= 1.0 - BOUNDARY_CUTOFF
    g = np.zeros((order + 1, t0.size))
    g[0, flat] = 1.0
    trans = ~flat
    tau = t0[trans] * c

    # psi = phi(tau) / (phi(tau) + phi(1-tau)) with phi = exp(-1/.): the sum's
    # constant term stays >= e^-2 on the transition band, so the quotient is
    # well conditioned even where one phi underflows to zero.
    phi_t = _phi(_linear(tau, c, order))
    phi_s = _phi(_linear(1.0 - tau, -c, order))
    g[:, trans] = _mul(phi_t, _reciprocal(phi_t + phi_s))
    return _radial_coeffs(y, g, order, rows)


@dataclass(frozen=True)
class TestFunction:
    """A smooth function of compact support with an affine frame.

    ``u(x) = amp * P((x - center) / radius)`` where the profile P lives on the
    unit ball. Instances are immutable; transforms return new objects.
    """

    ndim: int
    family: str
    profile: Profile = field(repr=False, compare=False)
    radius: float
    center: tuple[float, ...]
    amp: float = 1.0
    ops: tuple[str, ...] = ()

    def __post_init__(self):
        if not (1 <= self.ndim <= MAX_DIM):
            raise BadParams(f"ndim={self.ndim} not supported (1..{MAX_DIM})")
        # replace() re-runs this check, so every transform's frame passes it too.
        if not all(map(math.isfinite, (self.radius, self.amp, *self.center))):
            center = tuple(map(float, self.center))
            raise BadParams(
                f"radius, center and amp must be finite, got radius={self.radius}, center={center}, amp={self.amp}"
            )
        if not (self.radius > 0):
            raise BadParams(f"support radius must be positive, got {self.radius}")
        if len(self.center) != self.ndim:
            raise BadParams("center length does not match ndim")

    # -- geometry -------------------------------------------------------------

    def support(self) -> tuple[np.ndarray, float]:
        """Center and radius of the closed support ball."""
        return np.asarray(self.center, dtype=float), self.radius

    def bounding_box(self, margin: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        c, r = self.support()
        return c - margin * r, c + margin * r

    # -- transforms -----------------------------------------------------------

    def dilate(self, lam: float) -> "TestFunction":
        """x -> u(lam * x). Shrinks the support ball by lam."""
        if not (lam > 0):
            raise BadParams(f"dilation factor must be positive, got {lam}")
        return replace(
            self,
            radius=self.radius / lam,
            center=tuple(c / lam for c in self.center),
            ops=self.ops + (f"dilate({lam!r})",),
        )

    def translate(self, shift: Sequence[float] | float) -> "TestFunction":
        """x -> u(x - shift). A scalar shift moves along the first axis."""
        vec = np.zeros(self.ndim)
        arr = np.atleast_1d(np.asarray(shift, dtype=float))
        if arr.size == 1:
            vec[0] = arr[0]
        elif arr.size == self.ndim:
            vec = arr
        else:
            raise BadParams(f"shift has {arr.size} entries for ndim={self.ndim}")
        return replace(
            self,
            center=tuple(np.asarray(self.center) + vec),
            ops=self.ops + ("translate(" + ",".join(f"{float(v)!r}" for v in vec) + ")",),
        )

    def scaled(self, factor: float) -> "TestFunction":
        """Multiply amplitudes by a constant."""
        return replace(self, amp=self.amp * factor, ops=self.ops + (f"amp({factor!r})",))

    # -- evaluation -----------------------------------------------------------

    def _checked_points(self, points: np.ndarray, orders: Sequence[int]) -> np.ndarray:
        for order in orders:
            if not (0 <= order <= MAX_JET_ORDER):
                raise JetOrderOverflow(f"jet order {order} outside 0..{MAX_JET_ORDER}")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.ndim:
            raise BadParams(f"points have dimension {pts.shape[1]}, function has {self.ndim}")
        return pts

    def _scales(self, keys: Sequence[Key]) -> np.ndarray:
        """``amp * radius^-|alpha| * alpha!``: Taylor coefficient of the profile to ``D^alpha u``."""
        factorials = [math.prod(map(math.factorial, alpha)) for alpha in keys]
        return np.array([self.amp * self.radius ** (-sum(alpha)) * f for alpha, f in zip(keys, factorials)])

    def _profile_blocks(self, pts: np.ndarray, order: int, rows: tuple[int, ...]):
        """Per block of ``_JET_BLOCK`` points that meets the support: its
        start, its in-support indices and the profile's rows ``rows`` there."""
        center = np.asarray(self.center)
        for lo in range(0, pts.shape[0], _JET_BLOCK):
            # y = (x - center) / radius, one contiguous column per axis.
            cols = [(pts[lo : lo + _JET_BLOCK, ax] - center[ax]) / self.radius for ax in range(self.ndim)]
            r2 = cols[0] * cols[0]
            for col in cols[1:]:
                r2 = r2 + col * col
            t0 = 1.0 - r2
            inside = np.flatnonzero(t0 > BOUNDARY_CUTOFF)
            if inside.size:
                y = np.empty((self.ndim, inside.size))
                for col, row in zip(cols, y):
                    np.take(col, inside, out=row)
                yield lo, inside, self.profile(y.T, t0[inside], order, rows)

    def jet(self, points: np.ndarray, order: int) -> Dict[Key, np.ndarray]:
        """All derivatives up to total order at the given points.

        Returns ``{alpha: D^alpha u(points)}`` for every multi-index with
        ``|alpha| <= order``, each value an array over the points. The points
        are evaluated in blocks of ``_JET_BLOCK``, so temporaries are bounded
        by the block, not by the grid, and stay in the allocator's heap.
        """
        pts = self._checked_points(points, (order,))
        keys = multi_indices(self.ndim, order)
        scale = self._scales(keys)
        out = np.zeros((len(keys), pts.shape[0]))
        for lo, inside, coeffs in self._profile_blocks(pts, order, tuple(range(len(keys)))):
            block = out[:, lo : lo + _JET_BLOCK]
            for row, coeff, factor in zip(block, coeffs, scale):
                row[inside] = coeff * factor
        return dict(zip(keys, out))

    def _max_abs_fields(self, points: np.ndarray, orders: Sequence[int]) -> Dict[int, np.ndarray]:
        """``{m: max over |alpha| = m of |D^alpha u(points)|}`` for each order m.

        One pass over the blocks of :meth:`jet`: each block computes only the
        rows of these orders (and the lower rows an axis factor reads), takes
        the abs-max per order inside the block and scatters one row per
        order. The values are the abs-max of :meth:`jet`'s rows, bit for bit.
        """
        pts = self._checked_points(points, orders)
        orders = sorted(set(orders))
        keys = multi_indices(self.ndim, orders[-1])
        rows = tuple(i for i, alpha in enumerate(keys) if sum(alpha) in orders)
        scale = self._scales([keys[i] for i in rows])
        groups = [(m, [j for j, i in enumerate(rows) if sum(keys[i]) == m]) for m in orders]
        out = {m: np.zeros(pts.shape[0]) for m in orders}
        for lo, inside, coeffs in self._profile_blocks(pts, orders[-1], rows):
            for m, group in groups:
                acc = np.abs(coeffs[group[0]] * scale[group[0]])
                for j in group[1:]:
                    np.maximum(acc, np.abs(coeffs[j] * scale[j]), out=acc)
                out[m][lo : lo + _JET_BLOCK][inside] = acc
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.jet(points, 0)[(0,) * self.ndim]

    def describe(self) -> str:
        """Round-trippable constructor string (see :func:`parse_testfn`)."""
        return "*".join((self.family,) + self.ops)


# -- family factories ---------------------------------------------------------


def _number(name: str, value) -> float:
    """``float(value)``, or BadParams naming the argument."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise BadParams(f"{name} must be a number, got {value!r}") from None


def _require_positive(name: str, value: float) -> float:
    value = _number(name, value)
    if not value > 0:
        raise BadParams(f"{name} must be positive, got {value}")
    return value


def bump(ndim: int, R: float = 1.0) -> TestFunction:
    R = _require_positive("R", R)
    return TestFunction(ndim, f"bump(R={R!r})", _bump, R, (0.0,) * ndim)


def bump_poly(ndim: int, R: float = 1.0, deg: int = 1, axis: int = 0) -> TestFunction:
    R = _require_positive("R", R)
    whole = _number("deg", deg)
    if not whole.is_integer() or whole < 0:
        raise BadParams(f"deg must be a nonnegative integer, got {deg}")
    deg = int(whole)
    if not (0 <= axis < ndim):
        raise BadParams(f"axis {axis} out of range for ndim={ndim}")
    axis = int(axis)

    def profile(y: np.ndarray, t0: np.ndarray, order: int, rows: tuple[int, ...]) -> np.ndarray:
        factor = _power_rows(y[:, axis], deg, order)
        sources, terms = _axis_plan(ndim, order, axis, rows, len(factor))
        return _times_axis_series(_bump(y, t0, order, sources), factor, terms)

    return TestFunction(ndim, f"bump_poly(R={R!r},deg={deg},axis={axis})", profile, R, (0.0,) * ndim)


def bump_wave(ndim: int, R: float = 1.0, omega: float = 3.0) -> TestFunction:
    R = _require_positive("R", R)
    omega = _number("omega", omega)
    if not math.isfinite(omega):
        raise BadParams(f"omega must be finite, got {omega}")

    def profile(y: np.ndarray, t0: np.ndarray, order: int, rows: tuple[int, ...]) -> np.ndarray:
        factor = _cos_rows(y[:, 0], omega, order)
        sources, terms = _axis_plan(ndim, order, 0, rows, len(factor))
        return _times_axis_series(_bump(y, t0, order, sources), factor, terms)

    return TestFunction(ndim, f"bump_wave(R={R!r},omega={omega!r})", profile, R, (0.0,) * ndim)


def plateau(ndim: int, R: float = 1.0, rho: float = 0.5) -> TestFunction:
    R = _require_positive("R", R)
    rho = _number("rho", rho)
    if not (0.0 < rho < 1.0):
        raise BadParams(f"rho must lie strictly between 0 and 1, got {rho}")

    def profile(y: np.ndarray, t0: np.ndarray, order: int, rows: tuple[int, ...]) -> np.ndarray:
        return _plateau(y, t0, order, rows, rho)

    return TestFunction(ndim, f"plateau(R={R!r},rho={rho!r})", profile, R, (0.0,) * ndim)


FAMILIES: Dict[str, Callable[..., TestFunction]] = {
    "bump": bump,
    "bump_poly": bump_poly,
    "bump_wave": bump_wave,
    "plateau": plateau,
}

_CALL_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*\((.*)\)\s*$")
_INT_PARAMS = {"deg", "axis"}


def _parse_call(piece: str) -> tuple[str, str]:
    m = _CALL_RE.match(piece)
    if m is None:
        raise DslSyntaxError(f"expected name(args), got {piece!r}")
    return m.group(1), m.group(2).strip()


def parse_testfn(text: str, ndim: int) -> TestFunction:
    """Build a test function from a descriptor string.

    The grammar is a family call followed by zero or more transforms, joined
    by ``*``: ``bump(R=1)*dilate(2)*translate(0.3,-0.1)*amp(0.5)``. Family
    arguments are ``key=value``; transform arguments are positional numbers.
    """
    pieces = text.split("*")
    if not pieces or not pieces[0].strip():
        raise DslSyntaxError("empty descriptor")

    name, argstr = _parse_call(pieces[0])
    factory = FAMILIES.get(name)
    if factory is None:
        raise DslSyntaxError(f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}")
    kwargs: Dict[str, float] = {}
    if argstr:
        for part in argstr.split(","):
            if "=" not in part:
                raise DslSyntaxError(f"family arguments must be key=value, got {part!r}")
            key, _, val = part.partition("=")
            key = key.strip()
            try:
                kwargs[key] = int(val) if key in _INT_PARAMS else float(val)
            except ValueError as exc:
                raise DslSyntaxError(f"bad value for {key}: {val.strip()!r}") from exc
    try:
        fn = factory(ndim, **kwargs)
    except TypeError as exc:
        raise BadParams(f"bad arguments for {name}: {exc}") from exc

    for piece in pieces[1:]:
        op, argstr = _parse_call(piece)
        try:
            args = [float(v) for v in argstr.split(",")] if argstr else []
        except ValueError as exc:
            raise DslSyntaxError(f"bad transform arguments: {argstr!r}") from exc
        if op == "dilate":
            if len(args) != 1:
                raise DslSyntaxError("dilate takes one factor")
            fn = fn.dilate(args[0])
        elif op == "translate":
            if not args:
                raise DslSyntaxError("translate needs at least one coordinate")
            fn = fn.translate(args if len(args) > 1 else args[0])
        elif op == "amp":
            if len(args) != 1:
                raise DslSyntaxError("amp takes one factor")
            fn = fn.scaled(args[0])
        else:
            raise DslSyntaxError(f"unknown transform {op!r}")
    return fn
