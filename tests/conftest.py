from fractions import Fraction

import numpy as np
import pytest

from gninterp import bump, solve_q, testfn
from gninterp.indices import InequalityInstance


@pytest.fixture
def bump1():
    return bump(1, R=1.0)


@pytest.fixture
def bump2():
    return bump(2, R=1.0)


def make_instance(n, k, l, sp, sr, theta) -> InequalityInstance:
    """Balanced instance with sq computed from the other indices."""
    sp, sr, theta = Fraction(sp), Fraction(sr), Fraction(theta)
    sq = solve_q(n, k, l, sp, sr, theta)
    return InequalityInstance(n=n, k=k, l=l, sp=sp, sq=sq, sr=sr, theta=theta)


def record_mesh_evaluations(monkeypatch):
    """Patch the evaluation loop of ``TestFunction``; return the list each call appends
    ``(function, kind, points, orders)`` to, kind "rows" (``jet``, pair meshes and
    refine clouds) or "fields" (abs-max per order)."""
    calls = []
    evaluate = testfn.TestFunction._evaluate

    def recording(fn, points, orders, by_order=False):
        calls.append((fn, "fields" if by_order else "rows", points, tuple(orders)))
        return evaluate(fn, points, orders, by_order)

    monkeypatch.setattr(testfn.TestFunction, "_evaluate", recording)
    return calls


def mesh_evaluations(calls, fn, lp_grid, pair_grid):
    """The recorded calls on ``fn`` whose points are one of its full meshes, as (mesh, kind, orders)."""
    meshes = {"fine": lp_grid.refined().mesh(), "nodes": lp_grid.mesh(), "pair": pair_grid.mesh()}
    out = []
    for f, kind, points, orders in calls:
        for name, mesh in meshes.items():
            if f == fn and np.array_equal(points, mesh):
                out.append((name, kind, orders))
    return out


# One line per acceptance criterion, echoed after the test summary so the
# verdicts stay visible under captured output.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
