"""Envelope constants: the measured table standing in for empirical steps."""

import dataclasses
from fractions import Fraction as F

import pytest

from gninterp.derivation import chain_constant, derive_chain, evaluate_chain
from gninterp.empirical import annotate, envelope_constant, load_table, lookup
from gninterp.testfn import bump

from conftest import make_instance


class TestEnvelopeConstant:
    @pytest.mark.parametrize(
        "args",
        [
            (1, 2, 1, F(-1, 2), F(-2), F(1)),
            (1, 2, 1, F(-2), F(-2), F(1, 2)),
            (1, 2, 1, F(-5, 6), F(-7, 6), F(1, 2)),
        ],
    )
    def test_equals_exact_constant_when_explicit(self, args):
        chain = derive_chain(make_instance(*args))
        assert chain_constant(chain.steps) is not None
        assert envelope_constant(chain) == chain_constant(chain.steps)

    def test_none_when_a_needed_shape_is_missing(self):
        # The final ENDPOINT_INTERP step (holder|sup->holder) never occurs in
        # the calibration sweep, so the table has no entry for it.
        chain = derive_chain(make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4)))
        assert lookup(chain.steps[-1], 1) is None
        assert envelope_constant(chain) is None

    def test_hand_product_of_table_entries(self):
        # ENDPOINT_INTERP at weight 1, then the convexity leg's INDUCT_DIAG at
        # weight 3/4; the embedding leg's identity step contributes 1^(1/4).
        chain = derive_chain(make_instance(1, 3, 2, F(-1, 2), F(-2), F(3, 4)))
        assert chain_constant(chain.steps) is None
        table = load_table()["constants"]
        want = (
            table["ENDPOINT_INTERP:holder|holder->holder:holder_same_bridged"]
            * table["INDUCT_DIAG:holder|holder->holder"] ** 0.75
        )
        assert envelope_constant(chain) == pytest.approx(want, rel=1e-14)


class TestAnnotate:
    def test_envelopes_and_verdicts_per_step(self):
        chain = derive_chain(make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4)))
        ev = evaluate_chain(chain, bump(1))
        rows = annotate(ev)
        assert [row[0] for row in rows] == list(chain.steps)
        assert [row[1] for row in rows] == [m.ratio for m in ev.steps]
        table = load_table()["constants"]
        assert [row[2] for row in rows] == [
            table["SOBOLEV_STEP:lebesgue->holder"],
            table["BASE_LEMMA:lebesgue|holder->sup:mixed"],
            None,
        ]
        assert [row[3] for row in rows] == [True, True, None]

    def test_exceeded_envelope_is_reported(self):
        chain = derive_chain(make_instance(1, 2, 1, F(1, 2), F(-1, 2), F(3, 4)))
        ev = evaluate_chain(chain, bump(1))
        first = ev.steps[0]
        env = lookup(first.step, 1)
        over = dataclasses.replace(first, ratio=2.0 * env)
        rows = annotate(dataclasses.replace(ev, steps=(over,) + ev.steps[1:]))
        assert rows[0][3] is False
