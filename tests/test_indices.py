"""Exact index algebra: conversions, signatures, solvers, validation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gninterp.errors import BadParams, BorderlineIndex, GNInterpError, InvalidInstance, MalformedIndex
from gninterp.indices import (
    HolderSignature,
    InequalityInstance,
    SpaceIndex,
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

scales = st.fractions(min_value=F(-5), max_value=F(1), max_denominator=12)
neg_scales = st.fractions(min_value=F(-5), max_value=F(-1, 12), max_denominator=12)
dims = st.integers(min_value=1, max_value=3)


class TestAsRational:
    def test_string_fraction(self):
        assert as_rational("3/4") == F(3, 4)

    def test_negative_string(self):
        assert as_rational("-1/3") == F(-1, 3)

    def test_int_passthrough(self):
        assert as_rational(7) == F(7)

    def test_fraction_passthrough(self):
        assert as_rational(F(2, 5)) == F(2, 5)

    @pytest.mark.parametrize("bad", ["0.5", "1e-3", "one", "1/2/3", ""])
    def test_rejects_non_rational_strings(self, bad):
        with pytest.raises(ValueError):
            as_rational(bad)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    @pytest.mark.parametrize(
        "bad,exc,builtin", [(0.5, MalformedIndex, TypeError), ("0.5", MalformedIndex, ValueError)]
    )
    def test_rejections_are_package_errors(self, bad, exc, builtin):
        with pytest.raises(exc) as info:
            as_rational(bad)
        assert isinstance(info.value, GNInterpError)
        assert isinstance(info.value, builtin)


class TestSpaceIndex:
    def test_regimes(self):
        assert SpaceIndex(F(1, 2), 1).regime == "lebesgue"
        assert SpaceIndex(F(0), 1).regime == "sup"
        assert SpaceIndex(F(-1, 2), 1).regime == "holder"

    def test_scale_cap(self):
        with pytest.raises(BadParams):
            SpaceIndex(F(3, 2), 1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            SpaceIndex(F(1, 2), 0)

    def test_exponent_is_the_reciprocal_scale(self):
        assert [SpaceIndex(s, 2).p for s in (F(1, 3), F(0), F(-1, 2))] == [F(3), None, F(-2)]


class TestHolderSignature:
    @pytest.mark.parametrize(
        "s,n,p1,p2",
        [
            (F(-1, 2), 1, 0, F(1, 2)),
            (F(-1), 1, 0, F(1)),
            (F(-3, 2), 1, 1, F(1, 2)),
            (F(-1, 3), 3, 0, F(1)),
            (F(-1), 2, 1, F(1)),
            (F(-5, 2), 2, 4, F(1)),
        ],
    )
    def test_known_signatures(self, s, n, p1, p2):
        sig = holder_signature(SpaceIndex(s, n))
        assert (sig.p1, sig.p2) == (p1, p2)

    def test_rejects_nonnegative_scale(self):
        with pytest.raises(BadParams):
            holder_signature(SpaceIndex(F(0), 1))

    @given(s=neg_scales, n=dims)
    def test_round_trip(self, s, n):
        idx = SpaceIndex(s, n)
        sig = holder_signature(idx)
        assert SpaceIndex(-(sig.p1 + sig.p2) / n, n) == idx

    @given(s=neg_scales, n=dims)
    def test_fractional_part_range(self, s, n):
        sig = holder_signature(SpaceIndex(s, n))
        assert sig.p1 >= 0
        assert 0 < sig.p2 <= 1

    @given(s=neg_scales, n=dims)
    def test_shift_by_one_derivative(self, s, n):
        # Giving up one derivative raises the integer part, nothing else.
        sig = holder_signature(SpaceIndex(s, n))
        down = holder_signature(SpaceIndex(s - F(1, n), n))
        assert (down.p1, down.p2) == (sig.p1 + 1, sig.p2)

    def test_signature_validation(self):
        with pytest.raises(ValueError):
            HolderSignature(p1=-1, p2=F(1, 2))
        with pytest.raises(ValueError):
            HolderSignature(p1=0, p2=F(0))


class TestSobolevConjugates:
    def test_sharp_known(self):
        assert sobolev_sharp(SpaceIndex(F(1, 2), 1)).s == F(-1, 2)
        assert sobolev_sharp(SpaceIndex(F(1), 3)).s == F(2, 3)

    def test_sharp_borderline(self):
        with pytest.raises(BorderlineIndex):
            sobolev_sharp(SpaceIndex(F(1, 2), 2))

    def test_flat_overflow(self):
        with pytest.raises(BadParams):
            sobolev_flat(SpaceIndex(F(1), 2))

    @given(s=scales, n=dims)
    def test_flat_undoes_sharp(self, s, n):
        idx = SpaceIndex(s, n)
        if s == F(1, n):
            return
        assert sobolev_flat(sobolev_sharp(idx)) == idx

    @given(s=scales, n=dims)
    def test_sharp_undoes_flat(self, s, n):
        idx = SpaceIndex(s, n)
        if s + F(1, n) > 1 or s == 0:
            return
        assert sobolev_sharp(sobolev_flat(idx)) == idx


class TestBalanceSolvers:
    def test_solve_q_example(self):
        assert solve_q(3, 2, 1, F(1, 2), F(-1, 3), F(1, 2)) == F(1, 12)

    def test_solve_q_theta_one(self):
        # At theta = 1 the third index drops out entirely.
        assert solve_q(3, 2, 0, F(1), F(17), F(1)) == F(1, 3)

    def test_theta_window(self):
        with pytest.raises(InvalidInstance):
            solve_q(1, 3, 1, F(1, 2), F(-1), F(1, 4))

    def test_indeterminate_theta(self):
        # sp - k/n == sr makes the balance hold for every theta.
        with pytest.raises(InvalidInstance):
            solve_theta(1, 2, 1, F(1, 2), F(-1, 2), F(-3, 2))

    def test_inconsistent_degenerate(self):
        with pytest.raises(InvalidInstance):
            solve_theta(1, 2, 1, F(1, 2), F(0), F(-3, 2))

    @pytest.mark.parametrize(
        "solve,args,message",
        [
            (solve_q, (0, 2, 1, F(1, 2), F(-1), F(1, 2)), "dimension must be positive, got n=0"),
            (solve_q, (1, 0, 1, F(1, 2), F(-1), F(1, 2)), "derivative order must satisfy k >= 1, got k=0"),
            (solve_theta, (0, 2, 1, F(1, 2), F(1, 12), F(-1)), "dimension must be positive, got n=0"),
        ],
        ids=["solve_q_n0", "solve_q_k0", "solve_theta_n0"],
    )
    def test_zero_divisor_rejected(self, solve, args, message):
        # Each of these divided by zero before it was checked.
        with pytest.raises(InvalidInstance, match=message):
            solve(*args)

    @given(
        n=dims,
        k=st.integers(min_value=2, max_value=5),
        l=st.integers(min_value=1, max_value=4),
        sp=scales,
        sr=neg_scales,
        num=st.integers(min_value=0, max_value=12),
    )
    def test_round_trip(self, n, k, l, sp, sr, num):
        if l >= k:
            return
        theta = F(l, k) + F(num, 12) * (1 - F(l, k))
        sq = solve_q(n, k, l, sp, sr, theta)
        if sp - F(k, n) == sr:
            return
        assert solve_theta(n, k, l, sp, sq, sr) == theta


class TestValidation:
    def test_valid_instance(self):
        inst = InequalityInstance(3, 2, 1, F(1, 2), F(1, 12), F(-1, 3), F(1, 2))
        report = validate_instance(inst)
        assert report.ok
        assert report.violations == ()

    def test_order_range(self):
        inst = InequalityInstance(3, 2, 0, F(1), F(1, 3), F(1, 3), F(1))
        report = validate_instance(inst)
        assert not report.ok
        assert any(v.kind == "range" for v in report.violations)

    def test_sup_scale_rejected(self):
        inst = InequalityInstance(1, 2, 1, F(0), solve_q(1, 2, 1, F(0), F(-1), F(1, 2)), F(-1), F(1, 2))
        report = validate_instance(inst)
        assert any(v.kind == "range" and "infinity" in v.message for v in report.violations)

    def test_balance_violation(self):
        inst = InequalityInstance(3, 2, 1, F(1, 2), F(1, 11), F(-1, 3), F(1, 2))
        report = validate_instance(inst)
        assert any(v.kind == "balance" for v in report.violations)

    def test_exclusion(self):
        sq = solve_q(2, 3, 1, F(1, 2), F(-1), F(1, 2))
        inst = InequalityInstance(2, 3, 1, F(1, 2), sq, F(-1), F(1, 2))
        report = validate_instance(inst)
        assert any(v.kind == "exclusion" for v in report.violations)

    def test_exclusion_needs_integer_hit(self):
        # n*sp must land exactly on one of 1..k-l to trip the exclusion.
        sq = solve_q(2, 3, 1, F(3, 4), F(-1), F(1, 2))
        inst = InequalityInstance(2, 3, 1, F(3, 4), sq, F(-1), F(1, 2))
        assert validate_instance(inst).ok

    def test_theta_window_violation(self):
        bad = InequalityInstance(3, 2, 1, F(1, 2), F(1, 12), F(-1, 3), F(5, 4))
        report = validate_instance(bad)
        assert any(v.kind == "theta" for v in report.violations)

    @pytest.mark.parametrize(
        "inst",
        [
            InequalityInstance(0, 2, 1, F(1, 2), F(1, 12), F(-1, 3), F(1, 2)),
            InequalityInstance(1, 0, 1, F(1, 2), F(1, 12), F(-1, 3), F(1, 2)),
        ],
        ids=["n=0", "k=0"],
    )
    def test_zero_dimension_or_order_is_a_range_violation(self, inst):
        report = validate_instance(inst)
        assert not report.ok
        assert report.violations[0].kind == "range"


class TestSolveMissing:
    def test_solve_sq(self):
        values, un = solve_missing(3, 2, 1, sp=F(1, 2), sr=F(-1, 3), theta=F(1, 2))
        assert values["sq"] == F(1, 12)
        assert un == []

    def test_solve_theta_branch(self):
        values, un = solve_missing(3, 2, 1, sp=F(1, 2), sq=F(1, 12), sr=F(-1, 3))
        assert values["theta"] == F(1, 2)
        assert un == []

    def test_unconstrained_sr(self):
        values, un = solve_missing(3, 2, 0, sp=F(1), theta=F(1))
        assert values["sq"] == F(1, 3)
        assert un == ["sr"]
        assert values["sr"] is None

    def test_underdetermined(self):
        with pytest.raises(InvalidInstance):
            solve_missing(3, 2, 1, sp=F(1, 2), theta=F(1, 2))

    def test_theta_unknown_with_missing_index(self):
        with pytest.raises(InvalidInstance):
            solve_missing(3, 2, 1, sp=F(1, 2), sq=F(1, 12))

    def test_all_known_passthrough(self):
        values, un = solve_missing(3, 2, 1, sp=F(1, 2), sq=F(1, 12), sr=F(-1, 3), theta=F(1, 2))
        assert values == {"sp": F(1, 2), "sq": F(1, 12), "sr": F(-1, 3), "theta": F(1, 2)}
        assert un == []


class TestFormatIndex:
    def test_lebesgue(self):
        assert format_index(F(1, 2), 3) == "s=1/2 (p=2, L^2)"

    def test_sup(self):
        assert format_index(F(0), 1) == "s=0 (p=inf, L^inf)"

    def test_holder(self):
        assert format_index(F(-1, 3), 3) == "s=-1/3 (p=-3, C^{0,1})"
        assert format_index(F(-3, 2), 1) == "s=-3/2 (p=-2/3, C^{1,1/2})"
