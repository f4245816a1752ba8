"""Self-test of the result checks: each must flag a deliberately wrong result.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 0 when every check flags every wrong result fed to it and passes the
right ones, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction as F

import gninterp as gn

import checks
from workloads import NormCensus, Tally, solve_norm

failures: list[str] = []


def expect(flagged: str, what: str) -> None:
    """``flagged`` is a check's verdict on a wrong result: it must be non-empty."""
    if not flagged:
        failures.append(f"not caught: {what}")


def expect_clean(verdict: str, what: str) -> None:
    if verdict:
        failures.append(f"false alarm on {what}: {verdict}")


def test_certificates() -> None:
    sq = gn.solve_q(1, 3, 2, F(-1, 2), F(-2), F(3, 4))
    inst = gn.InequalityInstance(1, 3, 2, F(-1, 2), sq, F(-2), F(3, 4))
    chain = gn.derive_chain(inst)
    text = gn.format_certificate(chain)
    expect_clean(checks.certificate_problem(chain, chain.final_constant, gn.parse_certificate(text)),
                 "a round-tripped certificate")

    # One exponent altered: the step no longer sums to 1, so parsing fails.
    lines = text.splitlines()
    i = next(j for j, ln in enumerate(lines) if " exp=" in ln and ";" in ln.split(" exp=")[1].split()[0])
    head, _, tail = lines[i].partition(" exp=")
    exps, _, rest = tail.partition(" ")
    first, _, others = exps.partition(";")
    lines[i] = f"{head} exp={F(first) + F(1, 7)};{others} {rest}"
    try:
        parsed = gn.parse_certificate("\n".join(lines) + "\n")
    except gn.GNInterpError as exc:
        parsed = exc
    expect(checks.certificate_problem(chain, chain.final_constant, parsed), "a certificate with one exponent altered")

    # A constant altered: the certificate parses and verifies, but is not the chain.
    steps = list(chain.steps)
    j = next(k for k, st in enumerate(steps) if st.constant is not None)
    steps[j] = dataclasses.replace(steps[j], constant=steps[j].constant * 1.5)
    other = gn.parse_certificate(gn.format_certificate(dataclasses.replace(chain, steps=tuple(steps))))
    expect(checks.certificate_problem(chain, chain.final_constant, other), "a certificate with one constant altered")


def test_borderline() -> None:
    valid = gn.InequalityInstance(1, 2, 1, F(1, 2), gn.solve_q(1, 2, 1, F(1, 2), F(-1, 2), F(2, 3)), F(-1, 2), F(2, 3))
    expect(checks.borderline_problem(gn, valid), "a valid instance reported as borderline")
    # n*sp = 1 lies in the exclusion set {1, ..., k-l}.
    excluded = gn.InequalityInstance(1, 2, 1, F(1), gn.solve_q(1, 2, 1, F(1), F(-1), F(1)), F(-1), F(1))
    expect_clean(checks.borderline_problem(gn, excluded), "an excluded instance")


@dataclasses.dataclass
class _Evaluation:
    violations: tuple


def test_walks() -> None:
    expect_clean(checks.walk_problem(_Evaluation(()), [1.0, 1.0 + 1e-12, 1.0]), "a clean walk")
    fake_step = gn.Step("LEMMA31", (gn.Slot(0, F(1)),), gn.Slot(0, F(1)), (F(1),), 1.0)
    expect(checks.walk_problem(_Evaluation((gn.StepMeasurement(fake_step, None, 1.0, 2.0, 0.0, True),)), [1.0] * 3),
           "a walk with a step violation")
    expect(checks.walk_problem(_Evaluation(()), [1.0, 1.02, 1.0]), "a dilation spread of 1.02")
    expect(checks.walk_problem(_Evaluation(()), [1.0, float("inf"), 1.0]), "an infinite dilation ratio")


def test_norms() -> None:
    fn = gn.bump(1)
    fast = gn.lp_norm(fn, 2.0)
    oracle = gn.lp_norm_midpoint_oracle(fn, 2.0)
    expect_clean(checks.norm_problem(fast, oracle), "an agreeing Simpson/midpoint pair")
    budget = fast.error_estimate + oracle.error_estimate
    perturbed = gn.NormValue(oracle.value + 2 * budget + 1e-12, oracle.error_estimate, oracle.method)
    expect(checks.norm_problem(fast, perturbed), "a perturbed oracle value")

    # A call still refused when the next fine pass would pass the budget is
    # unsolved, and an unsolved call lowers ok_frac without failing the run.
    hard = gn.bump(3)
    value, grid, refusals = solve_norm(gn, hard, 4, 4, budget=40_000)
    if value is not None or refusals != 1:
        failures.append(f"GridTooCoarse past the budget returned {value!r} after {refusals} refusals")
    census = NormCensus.__new__(NormCensus)
    census.results = [[(3, 4, 4, hard), value, grid, None], [(1, 0, 2.0, fn), fast, None, perturbed]]
    tally = Tally()
    census.check(tally)
    if (tally.attempted, tally.unsolved, tally.disagree, len(tally.wrong)) != (2, 1, 1, 0):
        failures.append(f"census accounting: {tally}")


def test_pairs() -> None:
    fn = gn.bump(1)
    grid = gn.GridSpec((-1.1,), (1.1,), 64)
    raw = gn.holder_seminorm(fn, 0, 0.5, grid=grid, refinements=0)
    refined = gn.holder_seminorm(fn, 0, 0.5, grid=grid)
    brute = gn.brute_force_holder(fn, 0, 0.5, grid)
    expect_clean(checks.pair_problem(refined, raw, brute), "an exact pair scan")
    off = gn.NormValue(brute.value * (1 + 2.0 ** -52), brute.error_estimate, brute.method)
    expect(checks.pair_problem(refined, raw, off), "an oracle one ulp off")
    lower = gn.NormValue(raw.value * 0.5, raw.error_estimate, raw.method)
    expect(checks.pair_problem(lower, raw, brute), "a refined value below the unrefined one")


def main() -> int:
    for test in (test_certificates, test_borderline, test_walks, test_norms, test_pairs):
        test()
    for failure in failures:
        print(failure)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
