import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab import Coeff, GroupRingVector, Heisenberg, UsageError
from conjlab.sampling import random_element


def frac(num, den=1):
    return Fraction(num, den)


class TestCoeff:
    def test_arithmetic(self):
        z = Coeff(frac(1, 2), frac(1, 3))
        w = Coeff(frac(2), frac(-1))
        assert (z + w).re == frac(5, 2)
        assert (z * w).re == frac(1, 2) * 2 - frac(1, 3) * -1
        assert (-z).im == frac(-1, 3)

    def test_abs_sq_exact(self):
        z = Coeff(frac(3, 5), frac(4, 5))
        assert z.abs_sq() == 1
        assert z.modulus() == 1.0


def window_sum(h3, m):
    """a_m = sum of Ax^k for |k| <= m."""
    v = GroupRingVector.zero(h3)
    for k in range(-m, m + 1):
        v = v + GroupRingVector.delta(h3.element((0, k, 0)))
    return v


class TestNorms:
    def test_zero_vector(self, h3):
        z = GroupRingVector.zero(h3)
        assert z.lp_norm(1) == 0 and z.lp_norm(2) == 0 and z.sup_norm() == 0

    def test_window_sum_l2(self, h3):
        # ||a_m||_2 = sqrt(2m+1); m = 4 gives exactly 3
        assert window_sum(h3, 4).lp_norm(2) == pytest.approx(3.0, abs=1e-12)
        assert window_sum(h3, 4).lq_pow_exact(2) == 9

    def test_two_deltas_l1(self, h3):
        v = GroupRingVector.delta(h3.element((1, 0, 0))) + GroupRingVector.delta(
            h3.element((0, 1, 0))
        )
        assert v.lp_norm(1) == 2.0

    def test_p_below_one_rejected(self, h3):
        with pytest.raises(UsageError):
            GroupRingVector.zero(h3).lp_norm(0.5)

    def test_p_nan_rejected(self, h3):
        with pytest.raises(UsageError):
            GroupRingVector.zero(h3).lp_norm(math.nan)

    def test_p_inf_is_sup_norm(self, h3):
        v = GroupRingVector(h3, {h3.identity(): -3, h3.element((1, 0, 0)): frac(1, 2)})
        assert v.lp_norm(math.inf) == v.sup_norm() == 3.0
        assert GroupRingVector.zero(h3).lp_norm(math.inf) == 0.0

    def test_sum_independent_of_term_order(self, h3):
        # 1 + 1e-16 + 1e-16 rounds to 1.0 when summed left to right, but not
        # when the two small terms are added first
        terms = list(zip([h3.element((k, 0, 0)) for k in range(3)],
                         [frac(1), Fraction(1e-16), Fraction(1e-16)]))
        fwd = GroupRingVector(h3, dict(terms))
        bwd = GroupRingVector(h3, dict(reversed(terms)))
        assert fwd.lp_norm(1) == bwd.lp_norm(1)

    def test_odd_q_complex_rejected(self, h3):
        v = GroupRingVector(h3, {h3.identity(): Coeff(frac(0), frac(1))})
        with pytest.raises(UsageError):
            v.lq_pow_exact(3)
        assert v.lq_pow_exact(2) == 1


def _random_vector(h3, rng, size=4):
    terms = {}
    for _ in range(size):
        g = random_element(h3, rng, max_len=3)
        terms[g] = Coeff(
            frac(rng.randint(-4, 4), rng.randint(1, 4)),
            frac(rng.randint(-4, 4), rng.randint(1, 4)),
        )
    return GroupRingVector(h3, terms)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def vectors(draw):
    h3 = Heisenberg()
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        payload = tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in range(3))
        terms[h3.element(payload)] = Coeff(draw(rationals), draw(rationals))
    return GroupRingVector(h3, terms)


@settings(max_examples=60, deadline=None)
@given(vectors(), rationals, st.floats(min_value=1, max_value=6))
def test_norm_homogeneity(v, c, p):
    scaled = v.scale(Coeff(c))
    assert scaled.lp_norm(p) == pytest.approx(abs(float(c)) * v.lp_norm(p), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(vectors(), vectors(), st.floats(min_value=1, max_value=6))
def test_norm_triangle(v, w, p):
    assert (v + w).lp_norm(p) <= v.lp_norm(p) + w.lp_norm(p) + 1e-9


@settings(max_examples=60, deadline=None)
@given(vectors(), st.floats(min_value=1, max_value=4), st.floats(min_value=0, max_value=3))
def test_norm_monotone_in_p(v, p, dp):
    q = p + dp
    assert v.lp_norm(p) >= v.lp_norm(q) - 1e-9
    assert v.lp_norm(q) >= v.sup_norm() - 1e-9


class TestVectorAlgebra:
    def test_delta_convolution(self, h3):
        rng = Random(21)
        for _ in range(50):
            g = random_element(h3, rng)
            h = random_element(h3, rng)
            prod = GroupRingVector.delta(g) * GroupRingVector.delta(h)
            assert prod == GroupRingVector.delta(g * h)

    def test_convolution_associative(self, h3):
        rng = Random(22)
        for _ in range(20):
            u, v, w = (_random_vector(h3, rng, 3) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_zero_coefficients_dropped(self, h3):
        v = GroupRingVector.delta(h3.identity())
        assert (v - v).is_zero()
        assert not (v - v).terms

    def test_elem_multiplication(self, h3):
        rng = Random(23)
        v = _random_vector(h3, rng)
        g = random_element(h3, rng)
        assert v.mul_elem_left(g) == GroupRingVector.delta(g) * v
        assert v.mul_elem_right(g) == v * GroupRingVector.delta(g)

    def test_json_roundtrip(self, h3):
        v = _random_vector(h3, Random(24))
        assert GroupRingVector.from_json(h3, v.to_json()) == v
