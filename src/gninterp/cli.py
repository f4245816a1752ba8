"""Command-line front end.

Subcommands wrap the library modules one-to-one: ``params`` solves and
validates index tuples, ``norm`` evaluates a single norm, ``check`` measures
one interpolation triple, ``sweep`` runs the dilation invariance check,
``derive`` builds and serializes proof chains, ``verify`` re-verifies a
certificate file, ``oracle`` compares the fast norm paths against their
brute-force references.

Exit codes: 0 success, 1 mathematical violation, 2 parse or config errors.
Machine output is CSV with a comment header naming version and config source;
nothing is written to stderr on success.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .derivation import derive_chain, describe_step, format_certificate, parse_certificate
from .errors import BadParams, BrokenChain, GNInterpError, InternalBorderline
from .indices import (
    InequalityInstance,
    as_rational,
    format_index,
    solve_missing,
    validate_instance,
)
from .interp import InterpolationTriple

# The numeric layer (numpy) is imported inside the commands that measure, so
# params, derive and verify run on the standard library alone.
if TYPE_CHECKING:
    from .norms import GridSpec

ENV_CONFIG = "GNINTERP_CONFIG"

# Config keys and the parser of each value.
_CONFIG_KEYS = {"points": int, "pair_points": int, "tolerance_ratio": float, "out": str}


@dataclass(frozen=True)
class RunConfig:
    points: Optional[int] = None
    pair_points: Optional[int] = None
    tolerance_ratio: float = 0.01
    out: Optional[str] = None
    source: str = "-"

    def __post_init__(self) -> None:
        # The flag and the config key both arrive through here.
        if not self.tolerance_ratio > 0:
            raise BadParams(f"tolerance_ratio must be positive, got {self.tolerance_ratio}")


def load_config(path: Optional[str]) -> RunConfig:
    """Read a key=value config file; unknown keys are errors."""
    if path is None:
        return RunConfig()
    cfg = RunConfig(source=path)
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise BadParams(f"{path}:{lineno}: unknown config entry {raw.strip()!r}")
        try:
            cfg = replace(cfg, **{key: _CONFIG_KEYS[key](value)})
        except ValueError as exc:
            raise BadParams(f"{path}:{lineno}: {exc}") from exc
    return cfg


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(os.environ.get(ENV_CONFIG))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg = replace(cfg, **{key: value})
    return cfg


# --- small parsers ------------------------------------------------------------


def _rational(text: str) -> Fraction:
    return as_rational(text)


def _index_scale(text: str) -> Fraction:
    """Integrability exponent -> scale: s = 1/p, with "inf" meaning s = 0."""
    if text.strip().lower() == "inf":
        return Fraction(0)
    p = as_rational(text)
    if p == 0:
        raise BadParams("exponent 0 has no index scale (use 'inf' for s=0)")
    return 1 / p


def _exponent_str(s: Fraction) -> str:
    return "inf" if s == 0 else str(1 / s)


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"need at least one value, got {text!r}")
    return values


def _instance(
    n: int, k: int, l: int, p: Optional[str], q: Optional[str], r: Optional[str], theta: Optional[str]
) -> tuple[InequalityInstance, list[str]]:
    """The instance with these exponents and weight (None when missing), the
    rest solved by :func:`solve_missing`; unconstrained indices left open
    take ``sq``. Returns the instance and the unconstrained names."""
    values, unconstrained = solve_missing(
        n, k, l,
        sp=None if p is None else _index_scale(p),
        sq=None if q is None else _index_scale(q),
        sr=None if r is None else _index_scale(r),
        theta=None if theta is None else as_rational(theta),
    )
    for name in unconstrained:
        if values[name] is None:
            values[name] = values["sq"]
    return InequalityInstance(n=n, k=k, l=l, **values), unconstrained


def parse_instance(text: str) -> InequalityInstance:
    """Instance string "n=1,k=2,l=1,p=2,r=-1,theta=3/4"; missing indices solved.

    ``p``/``q``/``r`` follow the exponent convention (scale = reciprocal,
    "inf" for the sup scale); ``theta`` is a rational weight.
    """
    fields: dict[str, str] = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        key, sep, value = tok.partition("=")
        if not sep:
            raise BadParams(f"instance entry {tok!r} is not key=value")
        key = key.strip()
        if key in fields:
            raise BadParams(f"instance key {key!r} given twice")
        fields[key] = value.strip()
    unknown = set(fields) - {"n", "k", "l", "p", "q", "r", "theta"}
    if unknown:
        raise BadParams(f"unknown instance keys {sorted(unknown)}")
    orders = [_instance_order(fields, key) for key in ("n", "k", "l")]
    return _instance(*orders, *(fields.get(key) for key in ("p", "q", "r", "theta")))[0]


def _instance_order(fields: dict[str, str], key: str) -> int:
    if key not in fields:
        raise BadParams(f"instance needs n, k and l (missing {key!r})")
    try:
        return int(fields[key])
    except ValueError:
        raise BadParams(f"instance key {key!r} must be an integer, got {fields[key]!r}") from None


def _grid(fn, kind: str, points: Optional[int]) -> GridSpec:
    """The grid of this kind on ``fn``'s own box: the default, with ``points``
    per axis when set. Pass it the function that is measured on it."""
    from .norms import default_grid

    grid = default_grid(fn, kind=kind)
    return grid if points is None else replace(grid, points_per_axis=points)


def _grids(fn, cfg: RunConfig) -> tuple[GridSpec, GridSpec]:
    return _grid(fn, "lp", cfg.points), _grid(fn, "pair", cfg.pair_points)


# --- output -------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, float):
        # float() strips numpy scalar wrappers so repr stays plain.
        return repr(float(value))
    return str(value)


def _emit(cfg: RunConfig, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [f"# gninterp {__version__} config={cfg.source}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


# --- subcommands --------------------------------------------------------------


def _cmd_params(args: argparse.Namespace, cfg: RunConfig) -> int:
    given = (args.p, args.q, args.r, args.theta)
    if sum(v is not None for v in given) < 2:
        print("error: need at least two of --p --q --r --theta", file=sys.stderr)
        return 2
    inst, unconstrained = _instance(args.n, args.k, args.l, *given)
    print(f"n={args.n} k={args.k} l={args.l}")
    for flag, name in (("p", "sp"), ("q", "sq"), ("r", "sr")):
        s = getattr(inst, name)
        tag = " (unconstrained)" if name in unconstrained else ""
        print(f"{flag}={_exponent_str(s)} {format_index(s, args.n)}{tag}")
    print(f"theta={inst.theta}")
    report = validate_instance(inst)
    if report.ok:
        print("valid: yes")
        return 0
    print("valid: no")
    for v in report.violations:
        print(f"violation[{v.kind}]: {v.message}")
    return 2


def _cmd_norm(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .norms import xnorm
    from .testfn import parse_testfn

    fn = parse_testfn(args.fn, args.n)
    lp_grid, pair_grid = _grids(fn, cfg)
    mode = "seminorm" if args.seminorm else "full"
    nv = xnorm(fn, args.s, order=args.order, mode=mode, lp_grid=lp_grid, pair_grid=pair_grid)
    _emit(
        cfg,
        ("fn", "n", "s", "order", "mode", "value", "error_estimate", "method"),
        [(args.fn, args.n, args.s, args.order, mode, nv.value, nv.error_estimate, nv.method)],
    )
    return 0


def _cmd_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .measure import check_interpolation
    from .testfn import parse_testfn

    fn = parse_testfn(args.fn, args.n)
    lp_grid, pair_grid = _grids(fn, cfg)
    triple = InterpolationTriple(args.n, args.left, args.mid, args.right)
    mode = "full" if args.full else "seminorm"
    rep = check_interpolation(triple, fn, mode=mode, lp_grid=lp_grid, pair_grid=pair_grid)
    _emit(
        cfg,
        ("case", "eta", "left", "mid", "right", "ratio", "bound", "ok"),
        [(
            rep.classification.case.value,
            rep.classification.eta,
            args.left,
            args.mid,
            args.right,
            rep.ratio,
            "-" if rep.bound is None else rep.bound,
            "-" if rep.ok is None else rep.ok,
        )],
    )
    return 1 if rep.ok is False else 0


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .measure import dilation_sweep
    from .testfn import parse_testfn

    inst = parse_instance(args.instance)
    fn = parse_testfn(args.fn, inst.n)
    # One lambda per call, so each dilation is measured on its own box.
    rows = []
    for lam in args.lambdas:
        lp_grid, pair_grid = _grids(fn.dilate(lam), cfg)
        rows += dilation_sweep(inst, fn, [lam], lp_grid=lp_grid, pair_grid=pair_grid)
    _emit(cfg, ("lambda", "ratio"), rows)
    ratios = [r for _, r in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("inf")
    return 1 if spread > 1 + cfg.tolerance_ratio else 0


def _print_final_constant(chain) -> None:
    const = chain.final_constant
    print(f"final constant: {'empirical' if const is None else f'{const:.6g}'}")


def _cmd_derive(args: argparse.Namespace, cfg: RunConfig) -> int:
    inst = parse_instance(args.instance)
    chain = derive_chain(inst)
    certificate = format_certificate(chain)
    print(certificate.splitlines()[1])  # the certificate's instance line
    for step in chain.steps:
        print(describe_step(step))
    _print_final_constant(chain)
    if args.out:
        Path(args.out).write_text(certificate)
    return 0


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    chain = parse_certificate(Path(args.file).read_text())
    print(format_certificate(chain).splitlines()[1])
    print(f"verified: {len(chain.steps)} steps")
    _print_final_constant(chain)
    return 0


def _cmd_oracle(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .norms import brute_force_holder, holder_seminorm, lp_norm, lp_norm_midpoint_oracle
    from .testfn import parse_testfn

    fn = parse_testfn(args.fn, args.n)
    if args.holder:
        grid = _grid(fn, "pair", cfg.points)
        gamma = as_rational(args.p2)
        # The oracle first: it refuses a grid past its point cap before any evaluation.
        brute = brute_force_holder(fn, args.order, gamma, grid=grid)
        fast = holder_seminorm(fn, args.order, gamma, grid=grid, refinements=0)
        equal = fast.value == brute.value
        _emit(
            cfg,
            ("mode", "points", "fast", "brute", "equal"),
            [("holder", grid.points_per_axis, fast.value, brute.value, equal)],
        )
        return 0 if equal else 1
    grid = _grid(fn, "lp", 65 if cfg.points is None else cfg.points)
    p = as_rational(args.p)
    fast = lp_norm(fn, p, order=args.order, grid=grid)
    brute = lp_norm_midpoint_oracle(fn, p, order=args.order, grid=grid)
    budget = fast.error_estimate + brute.error_estimate
    agree = abs(fast.value - brute.value) <= budget
    _emit(
        cfg,
        ("mode", "points", "fast", "brute", "difference", "budget", "agree"),
        [("lp", grid.points_per_axis, fast.value, brute.value, abs(fast.value - brute.value), budget, agree)],
    )
    return 0 if agree else 1


# --- parser -------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, points: bool = True) -> None:
    sub.add_argument("--out", help="write CSV to this path instead of stdout")
    if points:
        sub.add_argument("--points", type=int, help="integration grid points per axis (odd)")
        sub.add_argument("--pair-points", dest="pair_points", type=int, help="pair-scan grid points per axis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gninterp",
        description="Derivative interpolation inequalities on the unified Lebesgue/Holder scale.",
    )
    parser.add_argument("--version", action="version", version=f"gninterp {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("params", help="solve and validate an index tuple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", help="exponent for the k-th derivative norm (rational or 'inf')")
    p.add_argument("--q", help="exponent for the l-th derivative norm")
    p.add_argument("--r", help="exponent for the undifferentiated norm")
    p.add_argument("--theta", help="interpolation weight (rational)")
    p.set_defaults(handler=_cmd_params)

    p = subs.add_parser("norm", help="evaluate one norm of a family function")
    p.add_argument("--fn", required=True, help="function DSL, e.g. \"bump(R=1)\"")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--s", type=_rational, required=True, help="index scale s = 1/p")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--seminorm", action="store_true", help="top-order functional only")
    _add_common(p)
    p.set_defaults(handler=_cmd_norm)

    p = subs.add_parser("check", help="measure one interpolation triple")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--left", type=_rational, required=True)
    p.add_argument("--mid", type=_rational, required=True)
    p.add_argument("--right", type=_rational, required=True)
    p.add_argument("--full", action="store_true", help="full norms instead of seminorms")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser("sweep", help="dilation invariance of the end-to-end ratio")
    p.add_argument("--instance", required=True, help="e.g. \"n=1,k=2,l=1,p=2,r=-1,theta=3/4\"")
    p.add_argument("--fn", default="bump(R=1)")
    p.add_argument("--lambdas", type=_float_list, default=[0.5, 1.0, 2.0])
    p.add_argument(
        "--tolerance-ratio", dest="tolerance_ratio", type=float, help="allowed ratio spread (positive)"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = subs.add_parser("derive", help="build the proof chain for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", help="write the certificate file here")
    p.set_defaults(handler=_cmd_derive)

    p = subs.add_parser("verify", help="re-verify a certificate written by derive --out")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("oracle", help="fast paths against brute-force references")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--holder", action="store_true", help="pair-scan seminorm against brute force")
    group.add_argument("--lp", action="store_true", help="Simpson integral against midpoint rule")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--p2", help="Holder exponent (rational), for --holder")
    p.add_argument("--p", help="Lebesgue exponent (rational), for --lp")
    p.add_argument(
        "--points",
        type=int,
        help="grid points per axis (default: the config's points, else the pair grid for --holder, 65 for --lp)",
    )
    _add_common(p, points=False)
    p.set_defaults(handler=_cmd_oracle)

    # Bare negative rationals ("-1/2") must parse as values, not flags.
    matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    for sub in [parser, *subs.choices.values()]:
        if hasattr(sub, "_negative_number_matcher"):
            sub._negative_number_matcher = matcher

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.subcommand == "oracle":
            if args.holder and args.p2 is None:
                parser.error("--holder requires --p2")
            if args.lp and args.p is None:
                parser.error("--lp requires --p")
        return args.handler(args, cfg)
    except InternalBorderline as exc:
        print(f"internal borderline: {exc}", file=sys.stderr)
        for step in exc.partial_steps:
            print(f"  partial: {describe_step(step)}", file=sys.stderr)
        return 1
    except BrokenChain as exc:
        print(f"broken chain: {exc}", file=sys.stderr)
        return 1
    except (GNInterpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
