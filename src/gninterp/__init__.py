"""Derivative interpolation inequalities on a unified Lebesgue/Holder scale.

Each admissible index is a rational scale s = 1/p: positive for Lebesgue
exponents, zero for the sup norm, negative for Holder classes. The package
solves and validates index tuples, evaluates the matching norms on smooth
compactly supported families, classifies and measures three-point
interpolation bounds, and derives machine-checkable proof chains for the
full derivative inequality, including their numerical verification.

``import gninterp`` loads the exact layer alone (``errors``, ``indices``,
``interp``, ``derivation``: the standard library only). The numeric layer
(``testfn``, ``norms``, ``measure``: numpy) is loaded, all of it, the first
time one of its names is read from the package, so index algebra,
derivation and certificate checks never import numpy.
"""

from importlib import import_module as _import_module
from types import ModuleType as _Module

from .errors import (
    BadCertificate,
    BadParams,
    BorderlineIndex,
    BrokenChain,
    DslSyntaxError,
    GNInterpError,
    GridTooCoarse,
    InternalBorderline,
    InvalidInstance,
    JetOrderOverflow,
    MalformedIndex,
)
from .indices import (
    HolderSignature,
    InequalityInstance,
    SpaceIndex,
    ValidityReport,
    Violation,
    as_rational,
    format_index,
    holder_signature,
    sobolev_flat,
    sobolev_sharp,
    solve_missing,
    solve_q,
    solve_theta,
    validate_instance,
)
from .interp import (
    Classification,
    InterpCase,
    InterpolationTriple,
    classify_triple,
    composite_nodes,
    holder_step_constant,
    mixed_case_constant,
    reiteration_constants,
    reiteration_second,
    reiteration_theta,
)
from .derivation import (
    ProofChain,
    Slot,
    Step,
    base_lemma_steps,
    chain_constant,
    derive_chain,
    describe_step,
    format_certificate,
    parse_certificate,
    sobolev_chain,
    verify_chain,
    verify_step,
)

__version__ = "0.1.0"

# The numeric layer's public names, by module.
_NUMERIC = {
    "testfn": ("TestFunction", "bump", "bump_poly", "bump_wave", "parse_testfn", "plateau"),
    "norms": (
        "GridSpec", "NormValue", "brute_force_holder", "check_holder_equality", "default_grid",
        "holder_seminorm", "lp_norm", "lp_norm_midpoint_oracle", "sup_norm", "xnorm",
    ),
    "measure": (
        "ChainEvaluation", "InterpolationReport", "StepMeasurement", "check_interpolation",
        "dilation_slope", "dilation_sweep", "evaluate_chain", "split_sum_inequality",
    ),
}

__all__ = [
    "__version__",
    # The exact layer: every name imported above that is not a submodule.
    *(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module)),
    *(name for names in _NUMERIC.values() for name in names),
]


def __getattr__(name: str):
    """Load the whole numeric layer on the first read of any of its names,
    and bind all of them here, so no later read comes back to this hook."""
    if not any(name in names for names in _NUMERIC.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _NUMERIC.items():
        values = vars(_import_module(f".{module}", __name__))
        globals().update((n, values[n]) for n in names)
    return globals()[name]
