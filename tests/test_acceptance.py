"""Acceptance suite: ten criteria, one verdict line each.

Each test measures its criterion at the stated tolerance, appends a PASS/FAIL
line that conftest echoes after the run summary, and only then asserts. Grid
resolutions follow the library defaults except where a walk needs the finer
lp grids the CLI exposes through --points.
"""

import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction as F

from gninterp.derivation import derive_chain, format_certificate, verify_chain
from gninterp.errors import InternalBorderline
from gninterp.indices import (
    InequalityInstance,
    SpaceIndex,
    holder_signature,
    sobolev_flat,
    sobolev_sharp,
    solve_q,
    solve_theta,
    validate_instance,
)
from gninterp.interp import InterpolationTriple, reiteration_theta
from gninterp.measure import (
    check_interpolation,
    dilation_slope,
    dilation_sweep,
    evaluate_chain,
    split_sum_inequality,
)
from gninterp.norms import (
    GridSpec,
    brute_force_holder,
    check_holder_equality,
    default_grid,
    holder_seminorm,
    lp_norm,
    lp_norm_midpoint_oracle,
    sup_norm,
    xnorm,
)
from gninterp.testfn import bump, bump_poly, bump_wave, plateau

from conftest import acceptance_lines


def _report(num, name, ok, detail, elapsed, cap):
    ok = ok and elapsed < cap
    line = (
        f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
        f"({detail}, {elapsed:.1f}s / cap {cap:.0f}s)"
    )
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def _family(n):
    return [
        bump(n),
        bump_poly(n, deg=1),
        bump_poly(n, deg=2),
        bump_wave(n, omega=3.0),
        plateau(n, rho=0.5),
    ]


def test_criterion_01_index_algebra():
    rng = random.Random(20260822)
    t0 = time.perf_counter()
    failures = 0
    count = 0
    while count < 1000:
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        l = rng.randint(1, k - 1)
        den = rng.randint(1, 12)
        sp = F(rng.randint(-2 * den, den), den)
        den = rng.randint(1, 12)
        sr = F(rng.randint(-2 * den, den), den)
        if sp - F(k, n) - sr == 0:
            continue  # theta not recoverable; the solver refuses by contract
        lk = F(l, k)
        theta = lk + (1 - lk) * F(rng.randint(0, 12), 12)
        count += 1

        sq = solve_q(n, k, l, sp, sr, theta)
        if solve_theta(n, k, l, sp, sq, sr) != theta:
            failures += 1
        if sq - F(l, n) != theta * (sp - F(k, n)) + (1 - theta) * sr:
            failures += 1

        idx = SpaceIndex(sp, n)
        if idx.s != F(1, n) and sobolev_flat(sobolev_sharp(idx)).s != idx.s:
            failures += 1
        if idx.s != 0 and idx.s + F(1, n) <= 1:
            if sobolev_sharp(sobolev_flat(idx)).s != idx.s:
                failures += 1

        if sr < 0:
            sig = holder_signature(SpaceIndex(sr, n))
            down = holder_signature(SpaceIndex(sr - F(1, n), n))
            if (down.p1, down.p2) != (sig.p1 + 1, sig.p2):
                failures += 1
    _report(
        1, "index algebra", failures == 0,
        f"1000 instances, {failures} failures", time.perf_counter() - t0, 1.0,
    )


def test_criterion_02_derivative_norm_identity():
    t0 = time.perf_counter()
    fns = _family(1) + _family(2)
    worst = 0.0
    for fn in fns:
        for s in (F(-1, 4), F(-1, 2), F(-1)):
            lhs, rhs = check_holder_equality(fn, s)
            worst = max(worst, abs(lhs.value - rhs.value) / abs(rhs.value))
    _report(
        2, "derivative norm identity", worst <= 1e-10,
        f"10 functions x 3 scales, worst rel {worst:.2e}",
        time.perf_counter() - t0, 60.0,
    )


def test_criterion_03_seminorm_scaling_law():
    t0 = time.perf_counter()
    cases = [
        (bump(1), 1), (bump_poly(1, deg=2), 1), (bump_wave(1, omega=3.0), 1),
        (plateau(1, rho=0.5), 1), (bump(2), 2),
    ]
    worst = 0.0
    for fn, n in cases:
        # s = 1/2 would zero the 2-d exponent, so the middle dimension probes
        # the integral regime at 1/4 instead.
        scales = (F(1, 2), F(0), F(-1, 2)) if n == 1 else (F(1, 4), F(0), F(-1, 2))
        for s in scales:
            target = float(1 - n * s)
            base = xnorm(fn, s, order=1, mode="seminorm").value
            for lam in (0.5, 2.0):
                value = xnorm(fn.dilate(lam), s, order=1, mode="seminorm").value
                measured = math.log(value / base) / math.log(lam)
                worst = max(worst, abs(measured - target) / abs(target))
    _report(
        3, "seminorm scaling law", worst <= 0.005,
        f"5 functions x 3 regimes x 2 dilations, worst exponent rel {worst:.2e}",
        time.perf_counter() - t0, 120.0,
    )


def test_criterion_04_interpolation_constants():
    t0 = time.perf_counter()
    fns1, fns2 = _family(1), _family(2)
    bad = 0

    for fn, n in [(f, 1) for f in fns1] + [(f, 2) for f in fns2]:
        for t in (
            InterpolationTriple(n, F(1, 4), F(3, 8), F(1, 2)),
            InterpolationTriple(n, F(1, 3), F(2, 3), F(1)),
        ):
            rep = check_interpolation(t, fn)
            if not rep.ratio <= 1.0 + 3.0 * rep.rel_error:
                bad += 1

    same = [(f, InterpolationTriple(1, F(-3, 4), F(-1, 2), F(-1, 4))) for f in fns1]
    same += [(f, InterpolationTriple(2, F(-3, 8), F(-1, 4), F(-1, 8))) for f in fns2]
    for fn, t in same:
        rep = check_interpolation(t, fn)
        assert rep.classification.case.value == "holder_same"
        if not (rep.ok and rep.ratio <= 1.0 + 0.01):
            bad += 1

    step = [(f, InterpolationTriple(1, F(-3, 2), F(-1), F(-1, 2))) for f in fns1]
    step += [(f, InterpolationTriple(2, F(-3, 4), F(-1, 2), F(-1, 4))) for f in fns2]
    for fn, t in step:
        rep = check_interpolation(t, fn)
        assert rep.classification.case.value == "holder_step"
        assert abs(rep.bound - math.sqrt(3.0)) < 1e-12
        if not (rep.ok and rep.ratio <= rep.bound + 0.01):
            bad += 1

    _report(
        4, "interpolation constants", bad == 0,
        f"20 integral + 10 same-level + 10 boundary-step checks, {bad} over bound",
        time.perf_counter() - t0, 300.0,
    )


def test_criterion_05_one_step_gradient_bound():
    t0 = time.perf_counter()
    fns = []
    for n in (1, 2):
        fns += _family(n)
        fns += [
            bump(n, R=0.6),
            bump_poly(n, deg=3),
            bump_wave(n, omega=2.0),
            bump_wave(n, omega=5.0),
            plateau(n, rho=0.3),
        ]
    min_margin = math.inf
    for fn in fns:
        s0 = sup_norm(fn, order=0).value
        s1 = sup_norm(fn, order=1).value
        s2 = sup_norm(fn, order=2).value
        min_margin = min(min_margin, 2.0 * math.sqrt(s0 * s2) - s1)
    _report(
        5, "one-step gradient bound", min_margin > 0,
        f"{len(fns)} functions, min margin {min_margin:.4f}",
        time.perf_counter() - t0, 60.0,
    )


def test_criterion_06_split_mixing_bound():
    rng = random.Random(20260806)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        a = (rng.uniform(1e-6, 10.0), rng.uniform(1e-6, 10.0))
        b = (rng.uniform(1e-6, 10.0), rng.uniform(1e-6, 10.0))
        eta = rng.uniform(1e-9, 1.0 - 1e-9)
        lhs, rhs = split_sum_inequality(a, b, eta)
        if lhs > rhs * (1.0 + 1e-14) + 1e-300:
            failures += 1
    _report(
        6, "split mixing bound", failures == 0,
        f"10000 quadruples, {failures} failures", time.perf_counter() - t0, 1.0,
    )


def test_criterion_07_reiteration_exactness():
    rng = random.Random(1729)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        d1, d2 = rng.randint(2, 20), rng.randint(2, 20)
        eta1 = F(rng.randint(1, d1 - 1), d1)
        eta2 = F(rng.randint(1, d2 - 1), d2)
        mu0 = F(rng.randint(-100, 100), rng.randint(1, 20))
        mu3 = F(rng.randint(-100, 100), rng.randint(1, 20))
        # Chain the two relations and eliminate the inner nodes exactly.
        mu1 = (eta1 * mu0 + (1 - eta1) * (1 - eta2) * mu3) / (1 - (1 - eta1) * eta2)
        theta1 = reiteration_theta(eta1, eta2)
        if mu1 != theta1 * mu0 + (1 - theta1) * mu3:
            failures += 1
    _report(
        7, "reiteration exactness", failures == 0,
        f"1000 configurations, {failures} failures", time.perf_counter() - t0, 1.0,
    )


def test_criterion_08_certificate_soundness():
    # Exhaustive sweep: every balanced instance with n <= 3, k <= 4 whose
    # four indices all have denominator <= 6, with the free scales windowed
    # to [-2, 1]. Valid instances must derive and re-verify exactly; the
    # exclusion-set instances must surface as InternalBorderline, never as
    # anything else. The digest freezes the full certificate stream.
    golden = "507e12de2beba5912274964b3319ece1575d88dd94e929080f3953dfac590bdf"
    t0 = time.perf_counter()

    def window(lo, hi, maxden):
        vals = set()
        for d in range(1, maxden + 1):
            for num in range(lo * d, hi * d + 1):
                vals.add(F(num, d))
        return sorted(vals)

    scales = window(-2, 1, 6)
    thetas = window(0, 1, 6)
    h = hashlib.sha256()
    derived = borderline = valid_blocked = 0
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            for l in range(1, k):
                lk = F(l, k)
                ths = [t for t in thetas if lk <= t <= 1]
                for sp in scales:
                    for sr in scales:
                        for th in ths:
                            sq = F(l, n) + th * (sp - F(k, n)) + (1 - th) * sr
                            if sq.denominator > 6 or sq > 1:
                                continue
                            inst = InequalityInstance(n, k, l, sp, sq, sr, th)
                            try:
                                chain = derive_chain(inst)
                                verify_chain(chain)
                                h.update(format_certificate(chain).encode())
                                derived += 1
                            except InternalBorderline:
                                h.update(
                                    f"borderline n={inst.n} k={inst.k} l={inst.l} sp={inst.sp} "
                                    f"sq={inst.sq} sr={inst.sr} theta={inst.theta}\n".encode()
                                )
                                borderline += 1
                                if validate_instance(inst).ok:
                                    valid_blocked += 1
    digest = h.hexdigest()
    ok = digest == golden and valid_blocked == 0 and derived == 43202 and borderline == 2176
    _report(
        8, "certificate soundness", ok,
        f"{derived} derived + {borderline} borderline, {valid_blocked} valid blocked, "
        f"digest {'match' if digest == golden else 'MISMATCH ' + digest[:16]}",
        time.perf_counter() - t0, 60.0,
    )


def _walk_roster():
    def mk(n, k, l, sp, sr, th):
        sq = solve_q(n, k, l, sp, sr, th)
        return InequalityInstance(n, k, l, sp, sq, sr, th)

    return [
        mk(1, 2, 1, F(1, 2), F(-1, 2), F(2, 3)),
        mk(1, 2, 1, F(1, 3), F(-1), F(1, 2)),
        mk(1, 2, 1, F(1, 2), F(-1), F(3, 4)),
        mk(1, 2, 1, F(1, 3), F(-1, 2), F(2, 3)),
        mk(1, 3, 1, F(1, 3), F(-1), F(1, 3)),
        mk(1, 3, 1, F(1, 2), F(-1, 2), F(1, 2)),
        mk(1, 3, 2, F(-1, 2), F(-2), F(3, 4)),
        mk(1, 3, 2, F(1, 3), F(-1), F(5, 6)),
        mk(2, 2, 1, F(3, 4), F(-1, 2), F(1, 2)),
        mk(2, 2, 1, F(1, 4), F(-1, 2), F(3, 4)),
    ]


def test_criterion_09_numeric_chain_walk():
    t0 = time.perf_counter()
    roster = _walk_roster()
    for inst in roster:
        assert validate_instance(inst).ok

    violations = 0
    for inst in roster:
        chain = derive_chain(inst)
        fam = (
            [bump(1), bump_poly(1, deg=2), bump_wave(1, omega=3.0)]
            if inst.n == 1
            else [bump(2), bump_poly(2, deg=2), plateau(2, rho=0.5)]
        )
        for fn in fam:
            lp = dataclasses.replace(
                default_grid(fn, "lp"),
                points_per_axis=513 if inst.n == 1 else 65,
            )
            violations += len(evaluate_chain(chain, fn, lp_grid=lp).violations)

    worst_spread = 1.0
    for inst in roster:
        ratios = [r for _, r in dilation_sweep(inst, bump(inst.n), [0.5, 1.0, 2.0])]
        worst_spread = max(worst_spread, max(ratios) / min(ratios))

    shift = F(1, 10)
    sweep = dilation_sweep(roster[0], bump(1), [0.5, 1.0, 2.0], sq_shift=shift)
    slope = dilation_slope(sweep)
    target = -float(roster[0].n * shift)
    slope_rel = abs(slope - target) / abs(target)

    ok = violations == 0 and worst_spread <= 1.01 and slope_rel <= 0.05
    _report(
        9, "numeric chain walk", ok,
        f"10 instances x 3 functions, {violations} violations, "
        f"spread {worst_spread:.6f}, slope defect rel {slope_rel:.2e}",
        time.perf_counter() - t0, 600.0,
    )


def test_criterion_10_oracle_agreement():
    t0 = time.perf_counter()
    g64 = GridSpec((-1.1,), (1.1,), 64)
    g4096 = GridSpec((-1.1, -1.1), (1.1, 1.1), 64)
    g16_3d = GridSpec((-1.1, -1.2, -1.0), (1.1, 1.2, 1.0), 16)
    pair_cases = [
        (bump(1), 0, 0.5, g64),
        (bump_poly(1, deg=2), 1, 1.0, g64),
        (bump_wave(1, omega=3.0), 0, 0.25, g64),
        (plateau(1, rho=0.5), 1, 0.5, g64),
        (bump(2), 0, 0.5, g4096),
        (bump_poly(2, deg=1), 1, 1.0, g4096),
        (plateau(2, rho=0.5), 0, 0.75, g4096),
        (bump(3), 0, 0.5, g16_3d),
    ]
    mismatched = 0
    for fn, order, gamma, grid in pair_cases:
        fast = holder_seminorm(fn, order, gamma, grid=grid, refinements=0)
        brute = brute_force_holder(fn, order, gamma, grid)
        if fast.value != brute.value:
            mismatched += 1

    lp_cases = [
        (bump(1), 2.0, 0), (bump(1), 1.0, 1), (bump_poly(1, deg=2), 2.0, 1),
        (bump_wave(1, omega=3.0), 2.0, 0), (plateau(1, rho=0.5), 3.0, 0),
        (bump(2), 2.0, 0), (bump(2), 1.0, 1), (bump_poly(2, deg=1), 2.0, 1),
        (bump_wave(2, omega=3.0), 2.0, 0), (plateau(2, rho=0.5), 3.0, 0),
    ]
    over_budget = 0
    for fn, p, order in lp_cases:
        fast = lp_norm(fn, p, order=order)
        oracle = lp_norm_midpoint_oracle(fn, p, order=order)
        if abs(fast.value - oracle.value) > fast.error_estimate + oracle.error_estimate:
            over_budget += 1

    ok = mismatched == 0 and over_budget == 0
    _report(
        10, "oracle agreement", ok,
        f"{len(pair_cases)} pair grids bit-exact ({mismatched} off), "
        f"10 integral norms in budget ({over_budget} out)",
        time.perf_counter() - t0, 120.0,
    )
