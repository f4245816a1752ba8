"""Result checks, one per workload.  Each returns "" when the result is right
and a one-line description of the problem otherwise.

They run outside every timed region, and ``selftest.py`` feeds each one a
deliberately wrong result to show that it is caught.
"""

from __future__ import annotations

import math

# A dilation sweep with the balance intact is invariant in lambda; criterion 9
# allows this much spread between the largest and smallest ratio.
MAX_DILATION_SPREAD = 1.01


def certificate_problem(chain, constant, parsed) -> str:
    """A derived chain must survive ``parse_certificate(format_certificate(c))``."""
    if isinstance(parsed, Exception):
        return f"certificate does not parse back: {type(parsed).__name__}: {parsed}"
    if parsed != chain:
        return "parsed certificate differs from the derived chain"
    if parsed.final_constant != constant:
        return f"final constant {constant!r} reads back as {parsed.final_constant!r}"
    return ""


def borderline_problem(gn, inst) -> str:
    """An instance that hit the borderline scale must not validate."""
    if gn.validate_instance(inst).ok:
        return "raised InternalBorderline but validates"
    return ""


def walk_problem(evaluation, ratios) -> str:
    """No explicit constant violated, and the sweep invariant in lambda."""
    if evaluation.violations:
        rules = sorted({m.step.rule for m in evaluation.violations})
        return f"{len(evaluation.violations)} step violations ({', '.join(rules)})"
    if not ratios or not all(math.isfinite(r) and r > 0 for r in ratios):
        return f"dilation ratios not finite and positive: {ratios}"
    spread = max(ratios) / min(ratios)
    if spread > MAX_DILATION_SPREAD:
        return f"dilation spread {spread:.6f} > {MAX_DILATION_SPREAD}"
    return ""


def norm_problem(fast, oracle) -> str:
    """Simpson and the midpoint oracle agree within their summed error estimates."""
    gap = abs(fast.value - oracle.value)
    budget = fast.error_estimate + oracle.error_estimate
    if not gap <= budget:
        return f"lp_norm {fast.value!r} vs midpoint oracle {oracle.value!r}: gap {gap:.3e} > {budget:.3e}"
    return ""


def pair_problem(refined, unrefined, brute) -> str:
    """The unrefined fast scan equals the oracle bit for bit; refining never lowers it."""
    if unrefined.value != brute.value:
        return f"holder_seminorm(refinements=0) {unrefined.value!r} != brute force {brute.value!r}"
    if not refined.value >= unrefined.value:
        return f"refined {refined.value!r} < unrefined {unrefined.value!r}"
    return ""
