"""Observed envelope constants for steps that carry no explicit bound.

Steps tagged empirical in a chain (embeddings, generous base leaves,
bridged interpolations) have no closed-form constant here.  The shipped
table records, per step shape, the largest ratio observed over a fixed
seeded sweep of sample functions; it is a measured envelope, not a proof.
Regenerate with ``python3 -m gninterp._calibration``.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from importlib import resources
from typing import Optional

from .derivation import ChainEvaluation, ProofChain, Step, _demand_walk
from .indices import SpaceIndex

TABLE_VERSION = 1
TABLE_RESOURCE = "data/empirical_constants.json"

# Trailing parenthesized case word, e.g. "direct (mixed)" -> "mixed".
_CASE_RE = re.compile(r"\(([a-z_ ]+)\)\s*$")


def step_key(step: Step, n: int) -> str:
    """Canonical table key: rule, input/output regimes, and case word if any."""
    ins = "|".join(SpaceIndex(sl.scale, n).regime for sl in step.inputs)
    out = SpaceIndex(step.output.scale, n).regime
    key = f"{step.rule}:{ins}->{out}"
    match = _CASE_RE.search(step.note)
    if match:
        key += ":" + match.group(1).replace(" ", "_")
    elif step.note and " " not in step.note:
        key += ":" + step.note
    return key


@lru_cache(maxsize=1)
def load_table() -> dict:
    path = resources.files("gninterp").joinpath(TABLE_RESOURCE)
    table = json.loads(path.read_text())
    if table.get("version") != TABLE_VERSION:
        raise ValueError(f"unsupported table version {table.get('version')!r}")
    return table


def lookup(step: Step, n: int) -> Optional[float]:
    """Envelope for one step, or None when the sweep never saw its shape."""
    return load_table()["constants"].get(step_key(step, n))


def _constant_or_envelope(step: Step, n: int) -> Optional[float]:
    return step.constant if step.constant is not None else lookup(step, n)


def envelope_constant(chain: ProofChain) -> Optional[float]:
    """End-to-end constant with table envelopes standing in for empirical steps.

    Walks the same resolving structure as the exact chain constant; returns
    None if some needed step has neither an explicit constant nor a table
    entry.
    """
    n = chain.instance.n
    return _demand_walk(chain.steps, lambda step: _constant_or_envelope(step, n))


def annotate(evaluation: ChainEvaluation) -> list[tuple[Step, float, Optional[float], Optional[bool]]]:
    """Pair each measured step with its envelope and whether it stayed inside.

    The last element is None when no envelope exists for the step; an
    exceeded envelope is information about the sweep's coverage, never a
    violation.
    """
    n = evaluation.chain.instance.n
    out = []
    for m in evaluation.steps:
        env = _constant_or_envelope(m.step, n)
        within = None if env is None else m.ratio <= env * (1 + m.rel_error + 1e-9)
        out.append((m.step, m.ratio, env, within))
    return out
