"""Every deliberate failure is a GNInterpError, raised where its input enters."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import gninterp
from gninterp import errors
from gninterp.cli import RunConfig, _index_scale, load_config, parse_instance
from gninterp.derivation import (
    Slot,
    base_lemma_steps,
    derive_chain,
    format_certificate,
    parse_certificate,
)
from gninterp.errors import BadParams, BrokenChain, DslSyntaxError, GNInterpError, InvalidInstance, MalformedIndex
from gninterp.indices import (
    HolderSignature,
    InequalityInstance,
    SpaceIndex,
    as_rational,
    holder_signature,
    sobolev_flat,
    solve_missing,
    solve_q,
    solve_theta,
)
from gninterp.interp import InterpolationTriple, mixed_case_constant, mixed_case_integral
from gninterp.measure import check_interpolation, split_sum_inequality
from gninterp.norms import GridSpec, brute_force_holder, default_grid, holder_seminorm, lp_norm, sup_norm, xnorm
from gninterp.testfn import bump, bump_poly, bump_wave, parse_testfn, plateau

# Each check that once raised a bare ValueError, with its message. A case gets
# ``path(text)``, which writes a config file and returns its path; ``{cfg}``
# in a message stands for that path.
FORMER_VALUE_ERRORS = {
    "grid-lengths": (lambda path: GridSpec((0.0,), (1.0, 1.0), 5), "lo and hi have different lengths"),
    "grid-points": (lambda path: GridSpec((0.0,), (1.0,), 2), "need at least 3 points per axis"),
    "grid-finite": (
        lambda path: GridSpec((0.0,), (float("nan"),), 5),
        "box bounds must be finite, got lo=(0.0,) hi=(nan,)",
    ),
    "grid-order": (lambda path: GridSpec((1.0,), (0.0,), 5), "need hi > lo on every axis, got lo=(1.0,) hi=(0.0,)"),
    "grid-kind": (lambda path: default_grid(bump(1), "pairs"), "grid kind must be 'lp' or 'pair', got 'pairs'"),
    "lp-exponent": (
        lambda path: lp_norm(bump(1), 0.5),
        "p must satisfy 1 <= p < inf (use sup_norm for p = inf), got 0.5",
    ),
    "seminorm-gamma": (lambda path: holder_seminorm(bump(1), 0, 1.5), "gamma must lie in (0, 1], got 1.5"),
    "brute-gamma": (
        lambda path: brute_force_holder(bump(1), 0, 1.5, GridSpec((-1.05,), (1.05,), 9)),
        "gamma must lie in (0, 1], got 1.5",
    ),
    "simpson-odd": (
        lambda path: lp_norm(bump(1), 2, grid=GridSpec((-1.05,), (1.05,), 64)),
        "composite Simpson needs an odd point count, got 64",
    ),
    "xnorm-mode": (
        lambda path: xnorm(bump(1), F(1, 2), mode="partial"),
        "mode must be 'full' or 'seminorm', got 'partial'",
    ),
    "index-dimension": (lambda path: SpaceIndex(F(1, 2), 0), "dimension must be positive, got n=0"),
    "signature-integer": (lambda path: HolderSignature(-1, F(1, 2)), "integer part must be >= 0, got -1"),
    "signature-fraction": (lambda path: HolderSignature(0, F(0)), "fractional part must lie in (0,1], got 0"),
    "split-lengths": (lambda path: split_sum_inequality([1.0], [1.0, 2.0], 0.5), "sequences must have equal length"),
    "split-sign": (lambda path: split_sum_inequality([-1.0], [1.0], 0.5), "sequences must be nonnegative"),
    "split-eta": (lambda path: split_sum_inequality([1.0], [1.0], 1.5), "eta must lie in [0, 1], got 1.5"),
    "slot-order": (lambda path: Slot(-1, F(0)), "derivative order must be >= 0, got -1"),
    "config-tolerance": (lambda path: RunConfig(tolerance_ratio=0.0), "tolerance_ratio must be positive, got 0.0"),
    "config-key": (
        lambda path: load_config(str(path(b"bogus=1"))),
        "{cfg}:1: unknown config entry 'bogus=1'",
    ),
    "config-value": (
        lambda path: load_config(str(path(b"points=abc"))),
        "{cfg}:1: invalid literal for int() with base 10: 'abc'",
    ),
    "exponent-zero": (lambda path: _index_scale("0"), "exponent 0 has no index scale (use 'inf' for s=0)"),
    "instance-entry": (lambda path: parse_instance("n=1,k=2,foo"), "instance entry 'foo' is not key=value"),
    "instance-key": (lambda path: parse_instance("n=1,k=2,l=1,x=3"), "unknown instance keys ['x']"),
    "instance-orders": (lambda path: parse_instance("k=2,l=1"), "instance needs n, k and l (missing 'n')"),
    "instance-repeated-key": (
        lambda path: parse_instance("n=1,k=2,l=1,p=2,r=-1,theta=3/4,p=4"), "instance key 'p' given twice"
    ),
    "instance-integer": (
        lambda path: parse_instance("n=x,k=2,l=1,p=2,r=-1,theta=3/4"), "instance key 'n' must be an integer, got 'x'"
    ),
    "bump-radius": (lambda path: bump(1, R="x"), "R must be a number, got 'x'"),
    "wave-omega": (lambda path: bump_wave(1, omega="x"), "omega must be a number, got 'x'"),
    "plateau-rho": (lambda path: plateau(1, rho="x"), "rho must be a number, got 'x'"),
    "poly-deg": (lambda path: bump_poly(1, deg="x"), "deg must be a number, got 'x'"),
}


@pytest.mark.parametrize("call,message", FORMER_VALUE_ERRORS.values(), ids=FORMER_VALUE_ERRORS.keys())
def test_former_value_errors_are_bad_params(tmp_path, call, message):
    cfg = tmp_path / "run.cfg"

    def path(text):
        cfg.write_bytes(text)
        return cfg

    with pytest.raises(BadParams) as info:
        call(path)
    assert isinstance(info.value, GNInterpError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message.format(cfg=cfg)


def _unmatched_exponents():
    # The base lemma's two inputs left with a single exponent.
    text = format_certificate(derive_chain(InequalityInstance(3, 2, 1, F(1, 2), F(1, 12), F(-1, 3), F(1, 2))))
    return parse_certificate(text.replace("exp=1/2;1/2 constant=empirical", "exp=1 constant=empirical"))


INPUT_CHECKS = {
    "base-dimension": (
        lambda: base_lemma_steps(0, F(1, 2), F(-1)), InvalidInstance, "dimension must be positive, got n=0"
    ),
    "certificate-exponent-count": (_unmatched_exponents, BrokenChain, "BASE_LEMMA: 2 inputs, 1 exponents"),
    "radius": (lambda: replace(bump(1), radius=0.0), BadParams, "support radius must be positive, got 0.0"),
    "center": (lambda: replace(bump(2), center=(0.0,)), BadParams, "center length does not match ndim"),
    "dilate": (lambda: bump(1).dilate(0), BadParams, "dilation factor must be positive, got 0"),
    "translate": (lambda: bump(3).translate([0.1, 0.2]), BadParams, "shift has 2 entries for ndim=3"),
    "jet-points": (lambda: bump(3).jet(np.zeros((4, 2)), 0), BadParams, "points have dimension 2, function has 3"),
    "jet-points-axes": (
        lambda: bump(1).jet(np.zeros((2, 1, 1)), 0), BadParams, "points must be an (npoints, ndim) array, got shape (2, 1, 1)"
    ),
    # A derivative order is read as an index, as a point count is: numpy
    # integers pass, and 1.5 is no order (multi_indices raised a bare TypeError).
    "jet-order-float": (
        lambda: bump(1).jet(np.zeros((1, 1)), 1.5), BadParams, "derivative order must be an integer, got 1.5"
    ),
    "lp-order-float": (lambda: lp_norm(bump(1), 2, order=1.5), BadParams, "derivative order must be an integer, got 1.5"),
    "brute-order-float": (
        lambda: brute_force_holder(bump(1), 1.5, 0.5, GridSpec((-1.1,), (1.1,), 33)),
        BadParams,
        "derivative order must be an integer, got 1.5",
    ),
    "xnorm-holder-order-float": (
        lambda: xnorm(bump(1), F(-1, 2), order=1.5), BadParams, "derivative order must be an integer, got 1.5"
    ),
    # radius**-2 overflows a float: OverflowError would exit 1, as a failed bound does.
    "jet-radius-overflow": (
        lambda: bump(1).dilate(1e200).jet(np.zeros((1, 1)), 2),
        BadParams,
        "radius 1e-200 is too small for derivative order 2: radius**-2 overflows",
    ),
    # amp * radius**-2 * 2! times a Taylor coefficient overflows: the row read -inf silently.
    "jet-row-overflow": (
        lambda: bump(1, R=1e-154).jet([[0.3e-154]], 2), BadParams, "the order-2 field is -inf, not finite"
    ),
    "sup-radius-overflow": (
        lambda: sup_norm(bump(1, R=1e-200), order=2),
        BadParams,
        "radius 1e-200 is too small for derivative order 2: radius**-2 overflows",
    ),
    "deg": (lambda: bump_poly(1, deg=-1), BadParams, "deg must be a nonnegative integer, got -1"),
    # An axis is read as an index: int() would truncate 0.5 to axis 0.
    "axis-float": (lambda: bump_poly(2, axis=0.5), BadParams, "axis must be an integer, got 0.5"),
    "axis-string": (lambda: bump_poly(2, axis="x"), BadParams, "axis must be an integer, got 'x'"),
    "dsl-translate": (
        lambda: parse_testfn("bump(R=1)*translate()", 1), DslSyntaxError, "translate needs at least one coordinate"
    ),
    "dsl-amp": (lambda: parse_testfn("bump(R=1)*amp(1,2)", 1), DslSyntaxError, "amp takes one factor"),
    # A whole float is no point count: numpy's linspace would raise a bare TypeError later.
    "grid-points-whole-float": (
        lambda: GridSpec((-1.1,), (1.1,), 5.0), BadParams, "points per axis must be an integer, got 5.0"
    ),
    "grid-points-float": (
        lambda: GridSpec((-1.1,), (1.1,), 4.5), BadParams, "points per axis must be an integer, got 4.5"
    ),
    "refinements-float": (
        lambda: holder_seminorm(bump(1), 0, 0.5, refinements=2.0), BadParams, "refinements must be an integer, got 2.0"
    ),
    "refinements-negative": (
        lambda: holder_seminorm(bump(1), 0, 0.5, refinements=-2), BadParams, "refinements must be >= 0, got -2"
    ),
    # A non-finite frame would print NaN norms and pass every verdict; each
    # transform re-runs the constructor's check.
    "amp-nan": (
        lambda: bump(1).scaled(float("nan")),
        BadParams,
        "radius, center and amp must be finite, got radius=1.0, center=(0.0,), amp=nan",
    ),
    "dsl-amp-inf": (
        lambda: parse_testfn("bump(R=1)*amp(inf)", 1),
        BadParams,
        "radius, center and amp must be finite, got radius=1.0, center=(0.0,), amp=inf",
    ),
    "translate-nan": (
        lambda: bump(2).translate([0.0, float("nan")]),
        BadParams,
        "radius, center and amp must be finite, got radius=1.0, center=(0.0, nan), amp=1.0",
    ),
    "radius-inf": (
        lambda: bump(1, R=float("inf")),
        BadParams,
        "radius, center and amp must be finite, got radius=inf, center=(0.0,), amp=1.0",
    ),
    "dilate-overflow": (
        lambda: bump(1).dilate(1e-320),
        BadParams,
        "radius, center and amp must be finite, got radius=inf, center=(0.0,), amp=1.0",
    ),
    "omega-nan": (lambda: bump_wave(1, omega=float("nan")), BadParams, "omega must be finite, got nan"),
    "dsl-omega-inf": (lambda: parse_testfn("bump_wave(R=1,omega=inf)", 1), BadParams, "omega must be finite, got inf"),
    # A ck_step triple reads whole-derivative sups, in either mode; any other mode is an error.
    "ck-step-mode": (
        lambda: check_interpolation(InterpolationTriple(1, F(-2), F(-1), F(0)), bump(1), mode="bogus"),
        BadParams,
        "mode must be 'full' or 'seminorm', got 'bogus'",
    ),
}


@pytest.mark.parametrize("call,exc,message", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_checks_raise_their_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


# Every raise site of the classes folded into their families, by the old
# class name, with the family that raises it now and its unchanged message.
FOLDED = {
    "InexactIndex": (lambda: as_rational(0.5), MalformedIndex, "cannot convert float to an exact rational"),
    "NonHolderIndex": (
        lambda: holder_signature(SpaceIndex(F(0), 1)), BadParams, "s=0 is not in the Holder range (need s < 0)"
    ),
    "ScaleOverflow-index": (
        lambda: SpaceIndex(F(3, 2), 1), BadParams, "s=3/2 lies above the scale (p in (0,1) is excluded)"
    ),
    "ScaleOverflow-flat": (lambda: sobolev_flat(SpaceIndex(F(1), 2)), BadParams, "s=1 + 1/2 = 3/2 exceeds 1"),
    "UnsupportedDimension": (lambda: bump(4), BadParams, "ndim=4 not supported (1..3)"),
    "OracleTooLarge": (
        lambda: brute_force_holder(bump(1), 0, 0.5, GridSpec((-1.05,), (1.05,), 4097)),
        BadParams,
        "4097 points exceed the pair-scan cap of 4096",
    ),
    "NotInterpolable": (
        lambda: InterpolationTriple(1, F(1, 2), F(0), F(-1, 2)),
        BadParams,
        "scales must be strictly ordered, got 1/2 < 0 < -1/2",
    ),
    "IntegralDiverges-kernel": (
        lambda: mixed_case_integral(1, 0.5, -1.0), BadParams, "integral parameters out of range: n=1, lam2=0.5, p=-1.0"
    ),
    "IntegralDiverges-constant": (
        lambda: mixed_case_constant(1, F(-3, 2), F(1, 2)), BadParams, "scales out of the mixed-case range: -3/2, 1/2"
    ),
    "DegenerateCondition-balance": (
        lambda: solve_theta(1, 2, 1, F(1, 2), F(0), F(-3, 2)),
        InvalidInstance,
        "no theta satisfies the balance: sp - k/n = sr = -3/2 but sq - l/n != sr",
    ),
    "DegenerateCondition-theta": (
        lambda: solve_missing(3, 2, 1, sp=F(1, 2), sq=F(1, 12)),
        InvalidInstance,
        "cannot solve: theta unknown together with sr",
    ),
    "DegenerateCondition-underdetermined": (
        lambda: solve_missing(3, 2, 1, sp=F(1, 2), theta=F(1, 2)),
        InvalidInstance,
        "underdetermined: sq and sr both unknown",
    ),
    "IndeterminateTheta": (
        lambda: solve_theta(1, 2, 1, F(1, 2), F(-1, 2), F(-3, 2)),
        InvalidInstance,
        "balance holds for every theta (sp - k/n = sr and sq - l/n = sr)",
    ),
    "ThetaOutOfRange": (
        lambda: solve_q(1, 3, 1, F(1, 2), F(-1), F(1, 4)), InvalidInstance, "theta=1/4 outside [1/3, 1]"
    ),
    # The other InvalidBase site, n < 1, is INPUT_CHECKS' base-dimension.
    "InvalidBase": (
        lambda: base_lemma_steps(1, F(3, 2), F(-1)),
        InvalidInstance,
        "scales must lie at or below 1, got sp=3/2, sr=-1",
    ),
    "UnknownFamily": (
        lambda: parse_testfn("mystery(R=1)", 1),
        DslSyntaxError,
        "unknown family 'mystery'; known: bump, bump_poly, bump_wave, plateau",
    ),
}

FAMILIES = {
    "GNInterpError", "BadParams", "MalformedIndex", "BorderlineIndex", "DslSyntaxError", "JetOrderOverflow",
    "GridTooCoarse", "InvalidInstance", "InternalBorderline", "BrokenChain", "BadCertificate",
}


@pytest.mark.parametrize("call,family,message", FOLDED.values(), ids=FOLDED.keys())
def test_folded_classes_raise_their_family(call, family, message):
    with pytest.raises(family) as info:
        call()
    assert type(info.value) is family
    assert str(info.value) == message


def test_one_class_per_decision():
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == FAMILIES
    removed = {name.split("-")[0] for name in FOLDED}
    assert len(removed) == 12
    assert not removed & (set(gninterp.__all__) | set(dir(errors)))
    assert len(gninterp.__all__) == 72
