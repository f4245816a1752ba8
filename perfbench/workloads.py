"""The four workloads: seeded inputs, timed calls into gninterp, result checks.

Every workload is a closed loop: one caller issues one operation after the
previous one returned, as the library is used.  Only calls into the public
API (``gninterp.__all__`` plus ``GridSpec.refined``) sit inside the timed
regions; input generation and every correctness check run outside them.

Functions are always looked up on the package at call time (``gn.lp_norm``,
never a stored reference), so the tracer's wrappers see every call.

``derive_sweep`` runs a fixed sample once, in blocks (its units).  The other
three repeat one pass over a fixed list of operations while the time budget
lasts, and each operation's time is its median over the passes, so a stall
on a shared machine moves one sample, not the result.  Rates are total work
over the summed times of the operations.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F
from time import perf_counter

import checks


@dataclasses.dataclass
class Op:
    """Timings of one operation over the passes of a run.

    ``work`` counts what the first timed call does (instances, walks, solved
    norms, point pairs), ``check_work`` what the second does.
    """

    work: float = 0.0
    check_work: float = 0.0
    main_s: list = dataclasses.field(default_factory=list)
    check_s: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Tally:
    """What one workload run did and saw; turned into metrics by child.py."""

    attempted: int = 0
    # Calls refused past the budget, and solutions the oracle contradicts:
    # both lower ok_frac, neither fails the run.
    unsolved: int = 0
    disagree: int = 0
    wrong: list = dataclasses.field(default_factory=list)  # check failures: the run fails
    notes: list = dataclasses.field(default_factory=list)  # what disagreed
    ops: dict = dataclasses.field(default_factory=dict)  # key -> Op
    timed_s: float = 0.0  # every timed second, both calls
    units: int = 0
    counts: dict = dataclasses.field(default_factory=dict)

    def record(self, key, main_s: float, work: float, check_s: float | None = None,
               check_work: float = 0.0, wall_s: float | None = None) -> None:
        """One timing of operation ``key``; ``wall_s`` if the two calls overlap."""
        op = self.ops.setdefault(key, Op())
        op.work, op.check_work = work, check_work
        op.main_s.append(main_s)
        if check_s is not None:
            op.check_s.append(check_s)
        self.timed_s += main_s + (check_s or 0.0) if wall_s is None else wall_s

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def fail(self, what: str) -> None:
        self.wrong.append(what)


def _draw_function(gn, rng: random.Random, ndim: int, family: str):
    """A sample function drawn as the calibration sweep draws its samples.

    Radius, amplitude and shift are seeded; the shape parameter of each
    family is fixed, because it (unlike the frame) changes how fine a grid
    the function needs and so how much work an operation does.
    """
    radius = rng.uniform(0.6, 1.6)
    amp = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-0.3, 0.3)
    if family == "bump":
        fn = gn.bump(ndim, R=radius)
    elif family == "bump_poly":
        fn = gn.bump_poly(ndim, R=radius, deg=2)
    elif family == "bump_wave":
        fn = gn.bump_wave(ndim, R=radius, omega=3.0)
    else:
        fn = gn.plateau(ndim, R=radius, rho=0.5)
    return fn.scaled(amp).translate(shift)


FAMILIES = ("bump", "bump_poly", "bump_wave", "plateau")


def _grid(gn, fn, kind: str, points: int):
    """The default grid of ``fn`` (its support box) at an explicit resolution."""
    return dataclasses.replace(gn.default_grid(fn, kind), points_per_axis=points)


# Passes per run at least, so that every operation's median has three samples.
MIN_PASSES = 3


def _run_passes(tally: Tally, run_pass, budget_s: float, max_units: int | None) -> None:
    """Repeat a pass while the budget lasts (at least MIN_PASSES), or exactly ``max_units``."""
    while True:
        if max_units is not None:
            if tally.units >= max_units:
                return
        elif tally.units >= MIN_PASSES and tally.timed_s * (1 + 1 / tally.units) > budget_s:
            return
        run_pass()
        tally.units += 1


# --- derive_sweep -------------------------------------------------------------


def _window(lo: int, hi: int, maxden: int) -> list[F]:
    return sorted({F(num, d) for d in range(1, maxden + 1) for num in range(lo * d, hi * d + 1)})


class DeriveSweep:
    """A seeded 3/8 sample of the criterion-8 window, derived, then re-read.

    The window is every balanced instance with n <= 3, k <= 4, index
    denominators <= 6 and free scales in [-2, 1]: 45,378 instances, of
    which 2,176 (4.8%) are borderline.  The sample is drawn uniformly
    without replacement, in random order.  Call A derives, verifies, takes
    the final constant and writes the certificate; call B parses the
    certificate back.  B runs right after its A, not in a phase of its own,
    so that both are timed across the whole run: machine speed on a shared
    host drifts over tens of seconds, and a short phase at the end would
    catch one drift, not the average.  Parsing uses none of the caches
    deriving fills, so the order does not change its work.

    The sample size is fixed rather than set by the time budget: the
    library's caches grow with every new instance, so both memory and the
    cache hit ratio depend on how far a run gets.  A quarter of the window
    (17 s on the reference machine) left run-to-run spread too close to
    the metric bounds.
    """

    name = "derive_sweep"
    WINDOW_SIZE = 45_378
    SAMPLE = WINDOW_SIZE * 3 // 8
    BLOCK = 200

    def __init__(self, gn, seed: int):
        self.gn = gn
        rng = random.Random(seed)
        scales = _window(-2, 1, 6)
        combos = [
            (n, k, l, th)
            for n in (1, 2, 3)
            for k in (2, 3, 4)
            for l in range(1, k)
            for th in _window(0, 1, 6)
            if F(l, k) <= th <= 1
        ]
        # Every combo has the same number of (sp, sr) candidates, so drawing
        # a combo, then sp and sr, then rejecting what falls outside the
        # window is uniform over the window.
        seen = set()
        sample = []
        while len(sample) < self.SAMPLE:
            n, k, l, th = rng.choice(combos)
            sp, sr = rng.choice(scales), rng.choice(scales)
            sq = F(l, n) + th * (sp - F(k, n)) + (1 - th) * sr
            key = (n, k, l, sp, sr, th)
            if sq.denominator > 6 or sq > 1 or key in seen:
                continue
            seen.add(key)
            sample.append(gn.InequalityInstance(n, k, l, sp, sq, sr, th))
        self.sample = sample
        self.records: list = []  # [instance, outcome, chain, constant, text, parsed]

    def run(self, tally: Tally, budget_s: float, max_units: int | None) -> None:
        """Runs the whole sample, or its first ``max_units`` blocks; ``budget_s`` is unused."""
        gn = self.gn
        blocks = [self.sample[i : i + self.BLOCK] for i in range(0, len(self.sample), self.BLOCK)]
        for block in blocks[:max_units]:
            for inst in block:
                t0 = perf_counter()
                try:
                    chain = gn.derive_chain(inst)
                    gn.verify_chain(chain)
                    const = chain.final_constant
                    text = gn.format_certificate(chain)
                except gn.GNInterpError as exc:
                    tally.record(inst, perf_counter() - t0, 1.0)
                    borderline = isinstance(exc, gn.InternalBorderline)
                    outcome = "borderline" if borderline else f"{type(exc).__name__}: {exc}"
                    self.records.append([inst, outcome, None, None, None, None])
                    continue
                t1 = perf_counter()
                try:
                    parsed = gn.parse_certificate(text)
                except gn.GNInterpError as exc:
                    parsed = exc
                t2 = perf_counter()
                self.records.append([inst, "derived", chain, const, text, parsed])
                tally.record(inst, t1 - t0, 1.0, t2 - t1, 1.0)
            tally.units += 1

    def check(self, tally: Tally) -> None:
        gn = self.gn
        for inst, outcome, chain, const, text, parsed in self.records:
            tally.attempted += 1
            if outcome == "borderline":
                tally.bump("borderline")
                problem = checks.borderline_problem(gn, inst)
            elif outcome == "derived":
                problem = checks.certificate_problem(chain, const, parsed)
            else:
                problem = outcome
            if problem:
                tally.fail(f"{inst}: {problem}")


# --- chain_walk ---------------------------------------------------------------

# Valid instances (n, k, l, sp, sr, theta) with the family each is walked
# with.  Families rotate so that each appears about equally often, and are
# fixed rather than drawn: walk cost depends on the family (a plateau jet
# costs about twice a bump jet), and a drawn family would make the work per
# run depend on the seed.
WALK_ROSTER = (
    (1, 2, 1, F(1, 2), F(-1, 2), F(2, 3), "bump"),
    (1, 3, 1, F(1, 3), F(-1), F(1, 3), "bump_poly"),
    (1, 3, 2, F(-1, 2), F(-2), F(3, 4), "bump_wave"),
    (1, 4, 1, F(1, 3), F(-1), F(1, 2), "plateau"),
    (1, 4, 2, F(1, 2), F(-1, 2), F(3, 4), "bump"),
    (1, 4, 3, F(-1, 2), F(-1), F(7, 8), "bump_poly"),
    (2, 2, 1, F(3, 4), F(-1, 2), F(1, 2), "bump_wave"),
    (2, 2, 1, F(1, 4), F(-1, 2), F(3, 4), "plateau"),
    (2, 3, 1, F(3, 4), F(-1, 2), F(2, 3), "bump"),
    (2, 3, 2, F(-1, 4), F(-1), F(5, 6), "bump_poly"),
    (2, 4, 2, F(3, 4), F(-1, 2), F(3, 4), "bump_wave"),
    (3, 2, 1, F(3, 4), F(-1, 3), F(1, 2), "plateau"),
)

# Lebesgue grids per walk, as criterion 9 chooses them: explicit point
# counts on each function's own support box.  n=2, k=4 needs 257 because
# its L^16 slot of third derivatives raises GridTooCoarse below that.
WALK_LP_POINTS = {1: 513, 2: 65, 3: 33}
WALK_LP_POINTS_N2_K4 = 257
LAMBDAS = (0.5, 1.0, 2.0)


class ChainWalk:
    """Derive a chain, measure every slot on a sample function, then sweep.

    The dilation sweep calls ``dilation_sweep`` once per lambda, each with
    the walk's lp resolution on the dilated function's own box: one grid
    for all three lambdas would either miss the support at lambda 0.5 or
    under-resolve it at lambda 2.
    """

    name = "chain_walk"

    def __init__(self, gn, seed: int):
        self.gn = gn
        rng = random.Random(seed)
        plan = []
        for n, k, l, sp, sr, th, family in WALK_ROSTER:
            sq = gn.solve_q(n, k, l, sp, sr, th)
            inst = gn.InequalityInstance(n, k, l, sp, sq, sr, th)
            points = WALK_LP_POINTS_N2_K4 if (n, k) == (2, 4) else WALK_LP_POINTS[n]
            plan.append((inst, _draw_function(gn, rng, n, family), points))
        rng.shuffle(plan)
        self.plan = plan
        self.results: list = []  # (instance, evaluation, ratios)

    def run(self, tally: Tally, budget_s: float, max_units: int | None) -> None:
        gn = self.gn

        def walk_pass():
            for i, (inst, fn, points) in enumerate(self.plan):
                t0 = perf_counter()
                chain = gn.derive_chain(inst)
                ev = gn.evaluate_chain(chain, fn, lp_grid=_grid(gn, fn, "lp", points))
                t1 = perf_counter()
                ratios = []
                for lam in LAMBDAS:
                    grid = _grid(gn, fn.dilate(lam), "lp", points)
                    ratios += [r for _, r in gn.dilation_sweep(inst, fn, [lam], lp_grid=grid)]
                t2 = perf_counter()
                # A walk's time includes its sweep; the sweep is also timed alone.
                tally.record(i, t2 - t0, 1.0, t2 - t1, 1.0, wall_s=t2 - t0)
                self.results.append((inst, ev, ratios))

        _run_passes(tally, walk_pass, budget_s, max_units)

    def check(self, tally: Tally) -> None:
        for inst, ev, ratios in self.results:
            tally.attempted += 1
            problem = checks.walk_problem(ev, ratios)
            if problem:
                tally.fail(f"{inst}: {problem}")


# --- norm_census --------------------------------------------------------------

CENSUS = tuple(
    (n, family, order, p)
    for n in (2, 3)
    for family in FAMILIES
    for order in range(5)
    for p in (1, 2, 4)
)

# The census retries a refused call on grid.refined() while the fine pass of
# the next attempt stays within this many points.  It admits two 2-D rounds
# (to 257^2 fine points) and no 3-D round, whose 65^3 fine pass costs up to
# 3.5 s and 560 MiB per call.
CENSUS_POINT_BUDGET = 100_000


def solve_norm(gn, fn, p, order, budget=CENSUS_POINT_BUDGET):
    """The caller's loop: ``lp_norm`` at the default grid, refined on refusal.

    Returns ``(value or None, grid used, refusals)``.  ``grid`` is None when
    the library's own default succeeded.
    """
    grid = None
    refusals = 0
    while True:
        try:
            return gn.lp_norm(fn, p, order=order, grid=grid), grid, refusals
        except gn.GridTooCoarse:
            refusals += 1
            nxt = (grid or gn.default_grid(fn, "lp")).refined()
            if nxt.refined().npoints > budget:
                return None, grid, refusals
            grid = nxt


class NormCensus:
    """``lp_norm`` to a solution over n in {2, 3}, four families, orders 0-4, p in {1, 2, 4}.

    Right after each solution, the midpoint oracle re-measures the norm on
    the grid that solved it; that is the second timed call.  A solution
    outside the summed error estimates of the two is counted as a
    disagreement: like an unsolved call it lowers ``ok_frac``, and it is
    reported, but it does not fail the run.  When this benchmark was
    written, 6 of the 94 solutions disagreed, all at the default 2-D grid
    and by 1.2 to 6.9 times their error budget: a defect of the default
    grid's error estimates, not of the benchmark.
    """

    name = "norm_census"

    def __init__(self, gn, seed: int):
        self.gn = gn
        rng = random.Random(seed)
        calls = [(n, order, p, _draw_function(gn, rng, n, fam)) for n, fam, order, p in CENSUS]
        rng.shuffle(calls)
        self.calls = calls
        self.results: list = []  # [call, value, grid, oracle value]

    def run(self, tally: Tally, budget_s: float, max_units: int | None) -> None:
        gn = self.gn

        def census_pass():
            for i, call in enumerate(self.calls):
                n, order, p, fn = call
                t0 = perf_counter()
                value, grid, refusals = solve_norm(gn, fn, p, order)
                t1 = perf_counter()
                oracle = oracle_s = None
                if value is not None:
                    oracle = gn.lp_norm_midpoint_oracle(fn, p, order=order, grid=grid)
                    oracle_s = perf_counter() - t1
                tally.bump("grid_too_coarse", refusals)
                tally.bump("refine_rounds", refusals - (value is None))
                self.results.append([call, value, grid, oracle])
                solved = float(value is not None)
                tally.record(i, t1 - t0, solved, oracle_s, solved)

        _run_passes(tally, census_pass, budget_s, max_units)

    def check(self, tally: Tally) -> None:
        for (n, order, p, fn), value, grid, oracle in self.results:
            tally.attempted += 1
            if value is None:
                tally.unsolved += 1
                continue
            problem = checks.norm_problem(value, oracle)
            if problem:
                tally.disagree += 1
                tally.notes.append(f"n={n} {fn.describe()} order={order} p={p}: {problem}")


# --- pair_oracle --------------------------------------------------------------

# One pass: a 1-D order-2, a 2-D order-1 and a 3-D order-0 scan, each on a
# grid of exactly PAIR_POINT_CAP (4096) points: 4096, 64^2 and 16^3.  The
# orders are fixed per dimension because scan cost grows with the number of
# derivative components (up to 6 for a 3-D order-2 jet); the family and
# the quotient exponent are drawn, since neither changes the work.
PAIR_PLAN = ((1, 2, 4096), (2, 1, 64), (3, 0, 16))
GAMMAS = (0.25, 0.5, 0.75, 1.0)


class PairOracle:
    """``holder_seminorm`` at default refinements, then ``brute_force_holder``.

    Work is counted as unordered pairs of grid points, N(N-1)/2 per call:
    the problem size, not the work the scan happens to do.
    """

    name = "pair_oracle"

    def __init__(self, gn, seed: int):
        self.gn = gn
        rng = random.Random(seed)
        plan = []
        for n, order, points in PAIR_PLAN:
            fn = _draw_function(gn, rng, n, rng.choice(FAMILIES))
            plan.append((fn, order, rng.choice(GAMMAS), _grid(gn, fn, "pair", points)))
        rng.shuffle(plan)
        self.plan = plan
        self.results: list = []  # (plan index, refined, brute)

    def run(self, tally: Tally, budget_s: float, max_units: int | None) -> None:
        gn = self.gn

        def scan_pass():
            for i, (fn, order, gamma, grid) in enumerate(self.plan):
                t0 = perf_counter()
                refined = gn.holder_seminorm(fn, order, gamma, grid=grid)
                t1 = perf_counter()
                brute = gn.brute_force_holder(fn, order, gamma, grid)
                t2 = perf_counter()
                pairs = grid.npoints * (grid.npoints - 1) / 2
                tally.record(i, t1 - t0, pairs, t2 - t1, pairs)
                self.results.append((i, refined, brute))

        _run_passes(tally, scan_pass, budget_s, max_units)

    def check(self, tally: Tally) -> None:
        gn = self.gn
        raw = {}
        for i, refined, brute in self.results:
            tally.attempted += 1
            fn, order, gamma, grid = self.plan[i]
            if i not in raw:
                raw[i] = gn.holder_seminorm(fn, order, gamma, grid=grid, refinements=0)
            problem = checks.pair_problem(refined, raw[i], brute)
            if problem:
                tally.fail(f"{fn.describe()} order={order} gamma={gamma}: {problem}")


WORKLOADS = {cls.name: cls for cls in (DeriveSweep, ChainWalk, NormCensus, PairOracle)}

