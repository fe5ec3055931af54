import math
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab import GroupRingVector, Heisenberg, UsageError
from conjlab.ring import _TINY, _sqrt, exact_str, float_norm, lq_pow_exact
from conjlab.groups import random_payload

from conftest import delta, scaled


def frac(num, den=1):
    return Fraction(num, den)


def window_sum(h3, m):
    """a_m = sum of Ax^k for |k| <= m."""
    v = GroupRingVector(h3, {})
    for k in range(-m, m + 1):
        v = v + delta(h3, (0, k, 0))
    return v


class TestNorms:
    def test_zero_vector(self, h3):
        z = GroupRingVector(h3, {})
        assert z.lp_norm(1) == 0 and z.lp_norm(2) == 0 and z.lp_norm(math.inf) == 0

    def test_window_sum_l2(self, h3):
        # ||a_m||_2 = sqrt(2m+1); m = 4 gives exactly 3
        assert window_sum(h3, 4).lp_norm(2) == pytest.approx(3.0, abs=1e-12)
        assert lq_pow_exact(window_sum(h3, 4).terms.values(), 2) == 9

    def test_two_deltas_l1(self, h3):
        v = delta(h3, (1, 0, 0)) + delta(h3, (0, 1, 0))
        assert v.lp_norm(1) == 2.0

    def test_p_below_one_rejected(self, h3):
        with pytest.raises(UsageError):
            GroupRingVector(h3, {}).lp_norm(0.5)

    def test_p_nan_rejected(self, h3):
        with pytest.raises(UsageError):
            GroupRingVector(h3, {}).lp_norm(math.nan)

    def test_p_inf_is_sup_norm(self, h3):
        v = GroupRingVector(h3, {(0, 0, 0): frac(-3), (1, 0, 0): frac(1, 2)})
        assert v.lp_norm(math.inf) == 3.0
        assert GroupRingVector(h3, {}).lp_norm(math.inf) == 0.0

    def test_sum_independent_of_term_order(self, h3):
        # 1 + 1e-16 + 1e-16 rounds to 1.0 when summed left to right, but not
        # when the two small terms are added first
        terms = list(zip([(k, 0, 0) for k in range(3)],
                         [frac(1), Fraction(1e-16), Fraction(1e-16)]))
        fwd = GroupRingVector(h3, dict(terms))
        bwd = GroupRingVector(h3, dict(reversed(terms)))
        assert fwd.lp_norm(1) == bwd.lp_norm(1)

    @pytest.mark.parametrize("scale", [Fraction(10**200), Fraction(1, 10**200),
                                       Fraction(1, 10**170), Fraction(10**100),
                                       Fraction(1, 10**100)])
    @pytest.mark.parametrize("p", [1, 2, 3.5, 4, math.inf])
    def test_squares_outside_float_range(self, h3, scale, p):
        # |c|^2 or its p/2-th power leaves float range, the norm does not
        terms = {(0, 0, 0): frac(5), (1, 0, 0): frac(-1, 2)}
        v = GroupRingVector(h3, terms)
        norm = scaled(v, scale).lp_norm(p)
        assert norm > 0
        assert norm == pytest.approx(float(scale) * v.lp_norm(p), rel=1e-14)

    def test_norm_beyond_float_range_rejected(self, h3):
        v = delta(h3, (0, 0, 0), Fraction(10**400))
        for norm in (lambda: v.lp_norm(2), lambda: v.lp_norm(1), lambda: v.lp_norm(math.inf)):
            with pytest.raises(UsageError, match="float range"):
                norm()

    def test_norm_below_float_range_rounds_to_zero(self, h3):
        v = delta(h3, (0, 0, 0), Fraction(1, 10**400))
        assert v.lp_norm(2) == v.lp_norm(1) == v.lp_norm(math.inf) == 0.0

    def test_lq_pow_exact_takes_absolute_values(self, h3):
        v = GroupRingVector(h3, {(0, 0, 0): frac(-1, 2), (1, 0, 0): frac(1)})
        assert lq_pow_exact(v.terms.values(), 3) == frac(9, 8)
        assert lq_pow_exact(v.terms.values(), 2) == frac(5, 4)
        with pytest.raises(UsageError):
            lq_pow_exact(v.terms.values(), 0)

    def test_float_norm_adds_left_to_right(self):
        # 1 + 2^-53 rounds to 1, twice; a compensated sum (`sum` from
        # Python 3.12 on) gives 1 + 2^-52
        assert float_norm([1, 2**-53, 2**-53], 1) == 1.0

    def test_exact_str_refuses_what_python_cannot_print(self):
        assert exact_str(frac(-10**4299, 3)) == f"-{10**4299}/3"
        with pytest.raises(UsageError, match="too large to print"):
            exact_str(frac(10**4300, 3))

    @pytest.mark.parametrize("q", [20000, 10**12])
    def test_lq_pow_exact_too_long_to_print_rejected(self, h3, q):
        # 1 + 2^-q has more than 4300 digits; 10^12 is refused before the
        # power is taken
        v = GroupRingVector(h3, {(0, 0, 0): frac(1), (1, 0, 0): frac(1, 2)})
        with pytest.raises(UsageError, match="too large"):
            lq_pow_exact(v.terms.values(), q)
        assert lq_pow_exact(v.terms.values(), 14000) == 1 + frac(1, 2**14000)


class TestSqrt:
    def test_huge_squares_take_no_gcd(self, monkeypatch):
        # a gcd of million-bit operands takes seconds; _sqrt needs none
        gcd = math.gcd

        def small_gcd(*ints):
            if max(abs(i).bit_length() for i in ints) > 10**5:
                raise AssertionError("gcd on a huge int")
            return gcd(*ints)

        above = Fraction(10) ** 400000
        inside = [Fraction(3**300000, 2**475000), Fraction(2**475000, 3**300000)]
        want = [math.sqrt(float(s)).hex() for s in inside]
        monkeypatch.setattr(math, "gcd", small_gcd)
        with pytest.raises(UsageError, match="float range"):
            _sqrt(above)
        assert [_sqrt(s).hex() for s in inside] == want

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(
        st.builds(Fraction, st.integers(1, 2**300), st.integers(1, 2**300)),
        st.floats(min_value=_TINY, max_value=sys.float_info.max).map(Fraction)))
    def test_matches_math_sqrt_bit_for_bit(self, square):
        assert _sqrt(square).hex() == math.sqrt(float(square)).hex()


def _random_vector(h3, rng, size=4):
    terms = {}
    for _ in range(size):
        g = random_payload(h3, rng, max_len=3)
        terms[g] = frac(rng.randint(-4, 4), rng.randint(1, 4))
    return GroupRingVector(h3, {g: c for g, c in terms.items() if c})


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def vectors(draw):
    h3 = Heisenberg()
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        payload = tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in range(3))
        terms[payload] = draw(rationals)
    return GroupRingVector(h3, {p: c for p, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(vectors(), rationals, st.floats(min_value=1, max_value=6))
def test_norm_homogeneity(v, c, p):
    assert scaled(v, c).lp_norm(p) == pytest.approx(abs(float(c)) * v.lp_norm(p), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(vectors(), vectors(), st.floats(min_value=1, max_value=6))
def test_norm_triangle(v, w, p):
    assert (v + w).lp_norm(p) <= v.lp_norm(p) + w.lp_norm(p) + 1e-9


@settings(max_examples=60, deadline=None)
@given(vectors(), st.floats(min_value=1, max_value=4), st.floats(min_value=0, max_value=3))
def test_norm_monotone_in_p(v, p, dp):
    q = p + dp
    assert v.lp_norm(p) >= v.lp_norm(q) - 1e-9
    assert v.lp_norm(q) >= v.lp_norm(math.inf) - 1e-9


class TestVectorAlgebra:
    def test_delta_convolution(self, h3):
        rng = Random(21)
        for _ in range(50):
            g = random_payload(h3, rng)
            h = random_payload(h3, rng)
            assert delta(h3, g) * delta(h3, h) == delta(h3, h3.mul_payload(g, h))

    def test_convolution_associative(self, h3):
        rng = Random(22)
        for _ in range(20):
            u, v, w = (_random_vector(h3, rng, 3) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_zero_coefficients_dropped(self, h3):
        v = delta(h3, (0, 0, 0))
        zero = v + scaled(v, -1)
        assert zero.is_zero()
        assert not zero.terms

    def test_elem_multiplication(self, h3):
        rng = Random(23)
        v = _random_vector(h3, rng)
        g = random_payload(h3, rng)
        assert v.mul_elem_left(g) == delta(h3, g) * v
        assert v.mul_elem_right(g) == v * delta(h3, g)

    def test_iadd_in_place_drops_cancelled_terms(self, h3):
        e, ax = (0, 0, 0), (0, 1, 0)
        v = delta(h3, e) + delta(h3, ax, 2)
        terms = v.terms
        v += delta(h3, e, -1) + delta(h3, ax, 1)
        assert v.terms is terms
        assert list(v.terms) == [ax] and v.coefficient(ax) == 3

    def test_add_leaves_operands_unchanged(self, h3):
        rng = Random(25)
        a, b = _random_vector(h3, rng), _random_vector(h3, rng)
        a_terms, b_terms = dict(a.terms), dict(b.terms)
        total = a + b
        assert a.terms == a_terms and b.terms == b_terms
        assert total + scaled(b, -1) == a and total is not a

    def test_to_json_pinned(self, h3):
        # rows sorted by encoding string, imaginary column always "0"
        payloads = [(2, 0, 0), (0, 0, 0), (10, -1, 4), (-1, 0, 0)]
        v = GroupRingVector(h3, dict(zip(payloads, [frac(-1, 2), frac(3), frac(2, 3), frac(5)])))
        assert v.to_json() == [("H3(-1,0,0)", "5", "0"), ("H3(0,0,0)", "3", "0"),
                               ("H3(10,-1,4)", "2/3", "0"), ("H3(2,0,0)", "-1/2", "0")]
        assert repr(v) == "(5)*H3(-1,0,0) + (3)*H3(0,0,0) + (2/3)*H3(10,-1,4) + (-1/2)*H3(2,0,0)"
        assert v.coefficient((2, 0, 0)) == frac(-1, 2)
        assert v.coefficient((3, 0, 0)) == 0


@settings(max_examples=60, deadline=None)
@given(vectors(), st.floats(min_value=1, max_value=6))
def test_norm_in_float_range_keeps_the_plain_formula(v, p):
    floats = [float(c * c) for c in v.terms.values()]
    assert v.lp_norm(p) == math.fsum(f ** (p / 2.0) for f in floats) ** (1.0 / p)
    assert v.lp_norm(math.inf) == math.sqrt(max(floats, default=0.0))
