"""Step-by-step derivations of the derivative interpolation inequality.

A chain reduces one instance to two endpoint legs: a sharp-embedding descent
carrying full weight, and a convexity leg built by induction on derivative
orders from the second-order base inequality.  A final interpolation step
joins the legs.  Every step records exact rational slot algebra (which norms
enter, with which exponents).  :func:`verify_chain` is the one consistency
check on an assembled chain: it re-verifies that algebra independently of
how the chain was produced, and whether the chain resolves to the
instance's slots.  Only the standard library is used here;
:func:`gninterp.measure.evaluate_chain` measures a chain on a sample
function, slot by slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Collection, Optional, Sequence

from .errors import (
    BadCertificate,
    BadParams,
    BorderlineIndex,
    BrokenChain,
    InternalBorderline,
    InvalidInstance,
)
from .indices import (
    InequalityInstance,
    SpaceIndex,
    as_rational,
    sobolev_sharp,
    structural_violations,
)
from .interp import InterpolationTriple, classify_triple

RULE_SOBOLEV = "SOBOLEV_STEP"
RULE_IDENTITY = "HOLDER_IDENTITY"
RULE_BASE = "BASE_LEMMA"
RULE_INDUCT_K = "INDUCT_K"
RULE_INDUCT_DIAG = "INDUCT_DIAG"
RULE_ENDPOINT = "ENDPOINT_INTERP"
RULE_INTERP = "LEMMA31"

RULES = frozenset(
    {
        RULE_SOBOLEV,
        RULE_IDENTITY,
        RULE_BASE,
        RULE_INDUCT_K,
        RULE_INDUCT_DIAG,
        RULE_ENDPOINT,
        RULE_INTERP,
    }
)

CERTIFICATE_VERSION = 1


@dataclass(frozen=True)
class Slot:
    """One norm in a chain: derivative order and index scale."""

    order: int
    scale: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.scale, Fraction):
            object.__setattr__(self, "scale", as_rational(self.scale))
        if self.order < 0:
            raise BadParams(f"derivative order must be >= 0, got {self.order}")
        # Plain integers for verify_chain's sets: hashing them skips Fraction.__hash__.
        object.__setattr__(self, "_key", (self.order, self.scale.numerator, self.scale.denominator))

    def shifted(self, offset: int) -> "Slot":
        return _slot(self.order + offset, self.scale)

    def __str__(self) -> str:
        return f"{self.order},{self.scale}"


# Enumerated chains repeat a few thousand distinct slots hundreds of
# thousands of times, so every slot the derivation builds is interned: one
# object per (order, scale), looked up by integers (Fraction.__hash__ is slow).
_SLOTS: dict[tuple[int, int, int], Slot] = {}


def _slot(order: int, scale: Fraction) -> Slot:
    key = (order, scale.numerator, scale.denominator)
    slot = _SLOTS.get(key)
    if slot is None:
        slot = _SLOTS[key] = Slot(order, scale)
    return slot


# Exponent tuples repeat more still (a few dozen distinct): interned the same way.
_EXPONENTS: dict[tuple[int, ...], tuple[Fraction, ...]] = {}


def _exponents(*exps: Fraction) -> tuple[Fraction, ...]:
    key = tuple(x for e in exps for x in (e.numerator, e.denominator))
    return _EXPONENTS.setdefault(key, exps)


@dataclass(frozen=True)
class Step:
    """One inequality: the output norm against a product of input norms.

    ``constant`` is an explicit multiplicative constant when the step carries
    one, or None for steps whose constant is only known empirically.
    """

    rule: str
    inputs: tuple[Slot, ...]
    output: Slot
    exponents: tuple[Fraction, ...]
    constant: Optional[float] = None
    note: str = ""

    def shifted(self, offset: int) -> "Step":
        return replace(
            self,
            inputs=tuple(sl.shifted(offset) for sl in self.inputs),
            output=self.output.shifted(offset),
        )


@dataclass(frozen=True)
class ProofChain:
    """A full derivation: the instance it proves and its steps in proof order.

    Child steps of a compound rule precede the parent step that resolves
    them, so the last step always produces the target slot (l, sq).
    """

    instance: InequalityInstance
    steps: tuple[Step, ...]

    @property
    def final_constant(self) -> Optional[float]:
        return chain_constant(self.steps)


def chain_constant(steps: Sequence[Step]) -> Optional[float]:
    """End-to-end constant of a step list, or None if any needed step is empirical.

    Walks backward from the final output, propagating exponent demand onto
    input slots, and multiplies ``step.constant ** demand`` over the steps
    the final output needs.  Parent steps of compound rules already summarize
    their subtree, so the walk only visits the resolving structure.
    """
    if not steps:
        return None
    demand: dict[Slot, Fraction] = {steps[-1].output: Fraction(1)}
    acc = 1.0
    for step in reversed(steps):
        weight = demand.pop(step.output, None)
        if weight is None or weight == 0:
            continue
        if step.constant is None:
            return None
        acc *= step.constant ** float(weight)
        for slot, exp in zip(step.inputs, step.exponents):
            demand[slot] = demand.get(slot, Fraction(0)) + weight * exp
    return acc


# --- exact re-verification ----------------------------------------------------


def verify_step(step: Step, n: int) -> None:
    """Check one step's slot algebra exactly; raise BrokenChain on failure.

    Sums are kept as unreduced integer ratios and compared by
    cross-multiplication (Knuth, TAOCP Vol. 2, 4.5.1), so no gcd is taken
    and no Fraction is built unless a message needs one.
    """
    rule, inputs, exps, out = step.rule, step.inputs, step.exponents, step.output
    if rule not in RULES:
        raise BrokenChain(f"unknown rule {rule!r}")
    if len(inputs) != len(exps) or not inputs:
        raise BrokenChain(f"{rule}: {len(inputs)} inputs, {len(exps)} exponents")
    num, den = 0, 1
    try:
        for e in exps:
            num, den = num * e.denominator + e.numerator * den, den * e.denominator
    except AttributeError:
        raise BrokenChain(f"{rule}: exponents {exps} are not exact rationals") from None
    if num != den:
        raise BrokenChain(f"{rule}: exponents {exps} do not sum to 1")
    for e in exps:
        if not 0 <= e.numerator <= e.denominator:
            raise BrokenChain(f"{rule}: exponent {e} outside [0, 1]")
    if len(inputs) == 1:
        # One derivative order and 1/n in scale, moved together.
        src = inputs[0]
        dj = out.order - src.order
        c_in, d_in = src.scale.numerator, src.scale.denominator
        c_out, d_out = out.scale.numerator, out.scale.denominator
        if abs(dj) != 1 or dj * d_out * d_in != n * (c_out * d_in - c_in * d_out):
            raise BrokenChain(
                f"{rule}: order shift {dj} does not match scale shift {out.scale - src.scale}"
                f" in dimension {n}"
            )
        return
    # order = onum / oden and scale = snum / sden, both unreduced.
    onum, oden, snum, sden = 0, 1, 0, 1
    for e, sl in zip(exps, inputs):
        a, b = e.numerator, e.denominator
        p, q = sl.scale.numerator, sl.scale.denominator
        onum, oden = onum * b + a * sl.order * oden, oden * b
        snum, sden = snum * b * q + a * p * sden, sden * b * q
    if onum != out.order * oden:
        raise BrokenChain(f"{rule}: output order {out.order}, inputs combine to {Fraction(onum, oden)}")
    if snum * out.scale.denominator != out.scale.numerator * sden:
        raise BrokenChain(f"{rule}: output scale {out.scale}, inputs combine to {Fraction(snum, sden)}")


def verify_chain(chain: ProofChain) -> None:
    """Re-check a whole chain against its instance, exactly.

    Beyond per-step algebra: the only slots consumed but never produced must
    be the two right-hand norms of the instance, and the last step must
    produce the left-hand slot.
    """
    if not chain.steps:
        raise BrokenChain("empty chain")
    inst = chain.instance
    for step in chain.steps:
        verify_step(step, inst.n)
    free = {sl._key for step in chain.steps for sl in step.inputs}
    free.difference_update(step.output._key for step in chain.steps)
    free.discard((inst.k, inst.sp.numerator, inst.sp.denominator))
    free.discard((0, inst.sr.numerator, inst.sr.denominator))
    if free:
        unresolved = (Slot(o, Fraction(c, d)) for o, c, d in free)
        raise BrokenChain(f"unresolved slots {sorted(str(s) for s in unresolved)}")
    last = chain.steps[-1].output
    if last.order != inst.l or last.scale != inst.sq:
        raise BrokenChain(f"chain ends at {last}, target {Slot(inst.l, inst.sq)}")


# --- elementary moves ---------------------------------------------------------


def _descent_step(n: int, order: int, s: Fraction) -> Step:
    """Give up one derivative: (order, s) -> (order-1, s - 1/n).

    In the negative range both sides have identical difference-quotient
    seminorms, so the constant is exactly 1; otherwise it is an embedding
    with an empirical constant.
    """
    nxt = sobolev_sharp(SpaceIndex(s, n))
    out = _slot(order - 1, nxt.s)
    if s < 0:
        return Step(RULE_IDENTITY, (_slot(order, s),), out, _exponents(Fraction(1)), 1.0)
    return Step(RULE_SOBOLEV, (_slot(order, s),), out, _exponents(Fraction(1)))


def _ascent_step(n: int, order: int, s: Fraction) -> Step:
    """Absorb one derivative: (order, s) -> (order+1, s + 1/n), for s <= -1/n.

    Strictly below the sup scale this is the same seminorm read at the next
    derivative order (constant exactly 1).  Landing at scale zero the target
    is a derivative sup, which mesh pair quotients undershoot, so no explicit
    constant is claimed there.
    """
    target = s + Fraction(1, n)
    const = 1.0 if target < 0 else None
    note = "" if const else "pair quotients on a mesh undershoot the derivative sup"
    return Step(RULE_IDENTITY, (_slot(order, s),), _slot(order + 1, target), _exponents(Fraction(1)), const, note)


def _interp_step(
    n: int, order: int, a: Fraction, mid: Fraction, b: Fraction, rule: str = RULE_INTERP, context: str = ""
) -> Step:
    """Interpolate N(order, mid) between N(order, a) and N(order, b), inputs
    kept in the order given; the weights and constant are the classified
    triple's.  The note is the case, after ``context`` when there is one."""
    lo, hi = sorted((a, b))
    cls = classify_triple(InterpolationTriple(n, lo, mid, hi))
    eta = cls.eta if a == lo else 1 - cls.eta
    note = f"{context} ({cls.case.value})" if context else cls.case.value
    return Step(rule, (_slot(order, a), _slot(order, b)), _slot(order, mid), _exponents(eta, 1 - eta), cls.bound, note)


# --- sharp embedding leg ------------------------------------------------------


def sobolev_chain(n: int, k: int, l: int, sp: Fraction | int | str) -> ProofChain:
    """Descend from (k, sp) to (l, sp - (k-l)/n) one derivative at a time.

    Raises BorderlineIndex if some intermediate scale hits 1/n, which is
    exactly the excluded set n*sp in {1, ..., k-l}.
    """
    sp = as_rational(sp)
    if n < 1:
        raise InvalidInstance(f"dimension must be positive, got n={n}")
    if not 0 <= l < k:
        raise InvalidInstance(f"orders must satisfy 0 <= l < k, got l={l}, k={k}")
    steps = _descent_steps(n, k, l, sp)
    s = steps[-1].output.scale
    inst = InequalityInstance(n=n, k=k, l=l, sp=sp, sq=s, sr=s, theta=Fraction(1))
    chain = ProofChain(instance=inst, steps=steps)
    verify_chain(chain)
    return chain


# Descents and convexity legs are pure in their arguments and recur across
# theta values when instances are enumerated; steps are frozen, so sharing
# the cached tuples is safe.
@lru_cache(maxsize=None)
def _descent_steps(n: int, k: int, l: int, sp: Fraction) -> tuple[Step, ...]:
    """The descent's steps from order k to order l; each one range-checks its scale."""
    steps = [_descent_step(n, k, sp)]
    for order in range(k - 1, l, -1):
        steps.append(_descent_step(n, order, steps[-1].output.scale))
    return tuple(steps)


# --- second-order base --------------------------------------------------------


def base_lemma_steps(
    n: int, sp: Fraction | int | str, sr: Fraction | int | str
) -> tuple[Step, ...]:
    """Base inequality N(1, (sp+sr)/2) <= C N(2, sp)^{1/2} N(0, sr)^{1/2}.

    Returns the sub-derivation followed by the resolving BASE_LEMMA record.
    Two constructive routes exist; when neither applies the base is emitted
    as a single generous leaf whose note names the shape of the obstruction.
    """
    sp = as_rational(sp)
    sr = as_rational(sr)
    if n < 1:
        raise InvalidInstance(f"dimension must be positive, got n={n}")
    if sp > 1 or sr > 1:
        raise InvalidInstance(f"scales must lie at or below 1, got sp={sp}, sr={sr}")
    sq = (sp + sr) / 2
    h = Fraction(1, 2)
    inv = Fraction(1, n)
    parent_inputs = (_slot(2, sp), _slot(0, sr))
    out = _slot(1, sq)

    if sr <= -inv and sp != inv:
        # Route through first-derivative norms: drop one derivative on the
        # p side, absorb one on the r side, interpolate at order one.
        down = _descent_step(n, 2, sp)
        up = _ascent_step(n, 0, sr)
        s_lo, s_hi = sorted((down.output.scale, up.output.scale))
        if s_lo == s_hi:
            children = [down, up]
            note = "first-order route, coincident targets"
        else:
            children = [down, up, _interp_step(n, 1, s_lo, sq, s_hi)]
            note = f"first-order route ({children[-1].note})"
    elif sq < 0 and sp != inv and sp != 2 * inv:
        # Route through undifferentiated norms: drop both derivatives on the
        # p side, interpolate at order zero, shift the result back up.
        d1 = _descent_step(n, 2, sp)
        d2 = _descent_step(n, 1, d1.output.scale)
        s_pp = d2.output.scale
        s_mid = sq - inv
        s_lo, s_hi = sorted((s_pp, sr))  # sq < 0 rules out s_pp == sr
        children = [d1, d2, _interp_step(n, 0, s_lo, s_mid, s_hi), _ascent_step(n, 0, s_mid)]
        note = f"zero-order route ({children[-2].note})"
    else:
        children = []
        if sp == sr:
            note = "direct (equal scales)"
        else:
            lo, hi = sorted((sp, sr))
            note = f"direct ({classify_triple(InterpolationTriple(n, lo, sq, hi)).case.value})"

    # The first two children enter at weight 1/2 each, the rest at full
    # weight; a direct base has no children and no explicit constant.
    cs = [st.constant for st in children]
    const = None
    if cs and None not in cs:
        const = math.sqrt(cs[0] * cs[1]) * math.prod(cs[2:])
    return (*children, Step(RULE_BASE, parent_inputs, out, _exponents(h, h), const, note))


# --- induction on derivative orders ------------------------------------------


def _one_k_steps(n: int, k: int, sp: Fraction, sr: Fraction) -> tuple[Step, ...]:
    """First-derivative claim N(1, sq) <= N(k, sp)^{1/k} N(0, sr)^{(k-1)/k};
    the last step outputs (1, sq)."""
    if k == 2:
        return base_lemma_steps(n, sp, sr)
    sq = (sp + (k - 1) * sr) / Fraction(k)
    ss = 2 * sq - sr  # = (2sp + (k-2)sr)/k, where the (k-1)-leg from (sp, sq) ends
    base = base_lemma_steps(n, ss, sr)
    sub = _one_k_steps(n, k - 1, sp, sq)
    shifted = tuple(st.shifted(1) for st in sub)
    ca, cb = base[-1].constant, sub[-1].constant
    const = None if ca is None or cb is None else (ca * ca * cb) ** ((k - 1) / k)
    parent = Step(
        RULE_INDUCT_K,
        (_slot(k, sp), _slot(0, sr)),
        _slot(1, sq),
        _exponents(Fraction(1, k), Fraction(k - 1, k)),
        const,
        note=f"first-order factor absorbed at weight {Fraction(k - 2, k - 1)}",
    )
    return base + shifted + (parent,)


def _diag_steps(n: int, l: int, k: int, sp: Fraction, sr: Fraction) -> tuple[Step, ...]:
    """Diagonal claim N(l, sq) <= N(k, sp)^{l/k} N(0, sr)^{(k-l)/k} for l >= 2;
    the last step outputs (l, sq)."""
    sq = (l * sp + (k - l) * sr) / Fraction(k)
    st = (sq + (l - 1) * sr) / Fraction(l)
    # The legs meet by identity: sub_a ends at ((l-1)sp + (k-l)st)/(k-1) = sq, sub_b at st.
    sub_a = _build_steps(n, l - 1, k - 1, sp, st)
    sub_b = _build_steps(n, 1, l, sq, sr)
    ca, cb = sub_a[-1].constant, sub_b[-1].constant
    const = None
    if ca is not None and cb is not None:
        const = float((ca * cb ** Fraction(k - l, k - 1)) ** Fraction((k - 1) * l, k * (l - 1)))
    parent = Step(
        RULE_INDUCT_DIAG,
        (_slot(k, sp), _slot(0, sr)),
        _slot(l, sq),
        _exponents(Fraction(l, k), Fraction(k - l, k)),
        const,
        note=f"gradient claim at orders ({l - 1}, {k - 1}) and first-order return leg",
    )
    return tuple(st_.shifted(1) for st_ in sub_a) + sub_b + (parent,)


@lru_cache(maxsize=None)
def _build_steps(n: int, l: int, k: int, sp: Fraction, sr: Fraction) -> tuple[Step, ...]:
    """Convexity leg N(l, sq) <= N(k, sp)^{l/k} N(0, sr)^{(k-l)/k}; the last
    step outputs (l, sq)."""
    if l == 1:
        return _one_k_steps(n, k, sp, sr)
    return _diag_steps(n, l, k, sp, sr)


# --- full derivation ----------------------------------------------------------


def derive_chain(inst: InequalityInstance) -> ProofChain:
    """Derive a complete chain for one instance.

    The convexity leg runs unless the weight is 1, the embedding leg unless
    it is l/k; when both run and end at different scales, a final
    interpolation joins them.  The assembled chain then goes through
    :func:`verify_chain`, the one consistency check on it.  Instances with a
    structural violation (see :func:`structural_violations`) raise
    InvalidInstance; instances whose embedding descent passes through the
    borderline scale 1/n raise InternalBorderline carrying the convexity
    steps built so far.
    """
    problems = structural_violations(inst)
    if problems:
        raise InvalidInstance("; ".join(v.message for v in problems))
    n, k, l = inst.n, inst.k, inst.l

    steps: tuple[Step, ...] = ()
    if inst.theta != 1:
        steps = _build_steps(n, l, k, inst.sp, inst.sr)
        sq2 = steps[-1].output.scale
    if inst.theta != Fraction(l, k):
        try:
            descent = _descent_steps(n, k, l, inst.sp)
        except BorderlineIndex as exc:
            raise InternalBorderline(str(exc), partial_steps=steps) from exc
        sq1 = descent[-1].output.scale
        steps = descent + steps
        if inst.theta != 1 and sq1 != sq2:
            context = "between embedding and convexity targets"
            steps += (_interp_step(n, l, sq1, inst.sq, sq2, RULE_ENDPOINT, context),)

    chain = ProofChain(instance=inst, steps=steps)
    verify_chain(chain)
    return chain


# --- certificates -------------------------------------------------------------


def describe_step(step: Step) -> str:
    """One-line rendering N(out) <= C * prod N(in)^e."""
    rhs = " * ".join(
        f"N({sl.order},{sl.scale})^{e}" for sl, e in zip(step.inputs, step.exponents)
    )
    c = "empirical" if step.constant is None else f"{step.constant:.6g}"
    line = f"[{step.rule}] N({step.output.order},{step.output.scale}) <= {c} * {rhs}"
    if step.note:
        line += f"   ({step.note})"
    return line


def _parse_rational(text: str) -> Fraction:
    """An ``int`` or ``int/int`` token, as :func:`format_certificate` writes them."""
    num, slash, den = text.partition("/")
    if not slash:
        return Fraction(int(num))
    d = int(den)
    if d <= 0:
        raise BadParams(f"denominator of {text!r} must be positive")
    return Fraction(int(num), d)


# The instance line's keys in written order, each with the reader of its value.
_INSTANCE_FIELDS = {"n": int, "k": int, "l": int, **dict.fromkeys(("sp", "sq", "sr", "theta"), _parse_rational)}


def format_certificate(chain: ProofChain) -> str:
    """Serialize a chain to the versioned line format, byte-deterministically."""
    if len(_WRITTEN) > _WRITTEN_MAX:
        _WRITTEN.clear()
    inst = chain.instance
    head = "instance " + " ".join(f"{key}={getattr(inst, key)}" for key in _INSTANCE_FIELDS)
    _WRITTEN[head] = inst
    lines = [f"gninterp-certificate {CERTIFICATE_VERSION}", head, f"steps {len(chain.steps)}"]
    for step in chain.steps:
        ins = ";".join(str(sl) for sl in step.inputs)
        exps = ";".join(str(e) for e in step.exponents)
        const = "empirical" if step.constant is None else repr(step.constant)
        line = f"step {step.rule} in={ins} out={step.output} exp={exps} constant={const}"
        if step.note:
            line += f" note={step.note}"
        lines.append(line)
        _WRITTEN[line] = step
    return "\n".join(lines) + "\n"


def _parse_slot(text: str) -> Slot:
    order, _, scale = text.partition(",")
    return Slot(int(order), _parse_rational(scale))


def _key_values(tokens: list[str], keys: Collection[str]) -> dict[str, str]:
    """``key=value`` tokens as a dict; a key given twice, or one the writer
    never writes, is malformed.  The caller reads every key in ``keys``, so an
    unknown one means too many keys here or a missing one (KeyError) there."""
    fields = dict(tok.split("=", 1) for tok in tokens)
    if len(fields) != len(tokens):
        raise BadCertificate(f"duplicate key in {' '.join(tokens)!r}")
    if len(fields) > len(keys):
        raise BadCertificate(f"unknown keys {sorted(fields.keys() - keys)} in {' '.join(tokens)!r}")
    return fields


# The instance and step lines format_certificate wrote, each with what it
# wrote it from, so that a chain read back in the same process shares the
# written chain's instance and steps (the table starts over past
# _WRITTEN_MAX lines).  The reader still parses every line and takes the
# written object only when it equals what it read, so its result never
# depends on what was written.
_WRITTEN: dict[str, InequalityInstance | Step] = {}
_WRITTEN_MAX = 1 << 16


def _as_written(line: str, read):
    written = _WRITTEN.get(line)
    return written if written == read else read


def _read_step(line: str) -> Step:
    body, _, note = line.partition(" note=")
    toks = body.split()
    if toks[0] != "step":
        raise BadCertificate(f"expected a step line, got {line!r}")
    kv = _key_values(toks[2:], ("in", "out", "exp", "constant"))
    constant = None if kv["constant"] == "empirical" else float(kv["constant"])
    if constant is not None and not 0 < constant < math.inf:
        raise BadCertificate(f"{toks[1]}: constant must be finite and positive, got {kv['constant']!r}")
    step = Step(
        rule=toks[1],
        inputs=tuple(_parse_slot(t) for t in kv["in"].split(";")),
        output=_parse_slot(kv["out"]),
        exponents=tuple(_parse_rational(t) for t in kv["exp"].split(";")),
        constant=constant,
        note=note,
    )
    return _as_written(line, step)


def parse_certificate(text: str) -> ProofChain:
    """Parse the line format back into a verified chain.

    Raises BadCertificate when the text is malformed or its instance has a
    structural violation, and BrokenChain when the steps do not verify.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        magic, version = lines[0].split()
        if magic != "gninterp-certificate" or int(version) != CERTIFICATE_VERSION:
            raise BadCertificate(f"unsupported header {lines[0]!r}")
        keyword, *tokens = lines[1].split()
        if keyword != "instance":
            raise BadCertificate(f"expected an instance line, got {lines[1]!r}")
        fields = _key_values(tokens, _INSTANCE_FIELDS)
        inst = InequalityInstance(**{key: read(fields[key]) for key, read in _INSTANCE_FIELDS.items()})
        inst = _as_written(lines[1], inst)
        problems = structural_violations(inst, min_order=0 if inst.theta == 1 else 1)
        if problems:
            raise BadCertificate("invalid instance: " + "; ".join(v.message for v in problems))
        keyword, count_text = lines[2].split()
        if keyword != "steps":
            raise BadCertificate(f"expected a steps line, got {lines[2]!r}")
        count = int(count_text)
        steps = tuple(map(_read_step, lines[3:]))
        if len(steps) != count:
            raise BadCertificate(f"header promises {count} steps, found {len(steps)}")
    except BadCertificate:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        raise BadCertificate(f"malformed certificate: {exc}") from exc
    chain = ProofChain(instance=inst, steps=steps)
    verify_chain(chain)
    return chain
