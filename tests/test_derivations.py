import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab import (
    GroupElement,
    Derivation,
    DihedralInf,
    GroupRingVector,
    Morphism,
    Potential,
    UsageError,
    character_from_derivation,
    character_from_potential,
    compose_morphisms,
    explore_component,
    g_boundedness_probe,
    identity_morphism,
    leibniz_residual,
    quasi_inner_check,
    stabilisation_probe,
)
from conjlab.derivations import CLOSED_FORMS
from conjlab.ring import float_norm

from conjlab.sampling import (
    random_composable_pair,
    random_element,
    random_loop,
    random_potential,
)

from conftest import all_models, delta, inner_derivation_apply, scaled


# ---------------------------------------------------------------------------
# Inner derivations


class TestInner:
    def test_central_element_kills_everything(self, h3):
        rng = Random(31)
        x = delta(h3.element((0, 0, 1)))  # A1 is central
        for _ in range(20):
            a = delta(random_element(h3, rng))
            assert inner_derivation_apply(x, a).is_zero()

    def test_dinf_commutator(self):
        d = DihedralInf()
        a, b = delta(d.decode("a")), delta(d.decode("b"))
        got = inner_derivation_apply(a, b)
        assert got == delta(d.decode("ab")) + delta(d.decode("ba"), -1)

    def test_h3_commutator_support(self, h3):
        Ap, Ax = h3.element((1, 0, 0)), h3.element((0, 1, 0))
        got = inner_derivation_apply(delta(Ap), delta(Ax))
        s1, s2 = map(h3.element, got.terms)
        # the two support points differ by the central factor A1
        assert s1.inverse() * s2 in (h3.element((0, 0, 1)), h3.element((0, 0, -1)))


# ---------------------------------------------------------------------------
# Derivations from potentials


class TestDerivationApply:
    def test_zero_potential(self, model):
        d = Derivation(Potential(model, {}))
        rng = Random(32)
        for _ in range(10):
            assert d.apply(random_element(model, rng)).is_zero()

    def test_delta_ap_two_terms(self, h3):
        # phi = delta_{Ap}: d(Ax^k) = Ax^k Ap A1^k - Ax^k Ap, coefficients +1/-1
        phi = Potential(h3, {h3.element((1, 0, 0)): 1})
        d = Derivation(phi)
        for k in range(1, 6):
            img = d.apply(h3.element((0, k, 0)))
            assert img.coefficient(h3.element((1, k, k))) == 1
            assert img.coefficient(h3.element((1, k, 0))) == -1
            assert len(img.terms) == 2

    def test_harmonic_d_ax_matches_display(self, h3):
        # d(Ax) = sum_k (1/k)(Ax^{1-k} Ap A1^{1-k} - Ax^{1-k} Ap A1^{-k})
        K = 12
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=K)
        img = Derivation(phi).apply(h3.element((0, 1, 0)))
        for k in range(1, K + 1):
            plus = h3.element((1, 1 - k, 1 - k))
            minus = h3.element((1, 1 - k, -k))
            assert img.coefficient(plus) == Fraction(1, k)
            assert img.coefficient(minus) == Fraction(-1, k)
        assert len(img.terms) == 2 * K

    def test_inner_equals_from_potential(self, model):
        # [x, -] by convolution agrees with the derivation of x's table
        rng = Random(34)
        table = {}
        for _ in range(4):
            table[random_element(model, rng, max_len=4)] = Fraction(
                rng.randint(-3, 3), rng.randint(1, 3)
            )
        x = GroupRingVector(model, table)
        d_pot = Derivation(Potential(model, table))
        for _ in range(30):
            g = random_element(model, rng)
            assert inner_derivation_apply(x, delta(g)) == d_pot.apply(g)

    def test_closed_form_equals_its_table(self, h3):
        # values filled on lookup give the same derivation as the explicit
        # table of the truncated closed form, and as the inner derivation
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=12)
        table = {g: phi.value(g) for g in phi.support()}
        x = GroupRingVector(h3, table)
        derivations = [Derivation(phi), Derivation(Potential(h3, table))]
        rng = Random(49)
        for _ in range(30):
            g = random_element(h3, rng)
            first, *rest = [d.apply(g) for d in derivations]
            assert first == inner_derivation_apply(x, delta(g))
            assert all(img == first for img in rest)

    def test_terms_are_the_character(self, model):
        # d(g) = sum phi(s)(s g - g s): its coefficient at u is
        # chi(u, g) = phi(u g^-1) - phi(g^-1 u), and it has no other terms
        rng = Random(50)
        for _ in range(5):
            phi = random_potential(model, rng)
            d = Derivation(phi)
            supp = phi.support()
            for g in [random_element(model, rng) for _ in range(10)] + list(supp):
                img = d.apply(g)
                want = {}
                for u in {s * g for s in supp} | {g * s for s in supp}:
                    chi = character_from_potential(phi, Morphism(u, g))
                    if chi:
                        want[u.payload] = chi
                assert img.terms == want

    def test_central_element_gives_zero(self, h3):
        phi = Potential(h3, {h3.element((1, 2, 0)): 3},
                        closed_form="appendix_harmonic", trunc_k=30)
        d = Derivation(phi)
        for c in range(-3, 4):
            assert d.apply(h3.element((0, 0, c))).is_zero()
        assert not d.apply(h3.element((0, 1, 0))).is_zero()

    def test_add_derivation_accumulates_in_place(self, model):
        # d_phi(g) + d_{-phi}(g) added into one dict cancels to nothing
        rng = Random(51)
        phi = random_potential(model, rng)
        neg = Potential(model, {g: -v for g, v in phi.table.items()})
        for _ in range(10):
            gp = random_element(model, rng).payload
            acc = {}
            phi.add_derivation(gp, acc)
            assert all(acc.values())
            neg.add_derivation(gp, acc)
            assert acc == {}


class TestPayloadVectors:
    def test_apply_and_character_build_no_element(self, h3, monkeypatch):
        # the kernel's {payload: Fraction} dict is the vector; elements are
        # built only at the API boundary
        phi = Potential(h3, {}, closed_form="appendix_harmonic")
        d = Derivation(phi)
        g = h3.element((0, 2, 0))
        mor = Morphism(h3.element((1, -2, -2)), h3.element((0, 1, 0)))  # u v^-1 = (1,-3,-3)
        built = []
        init = GroupElement.__init__

        def counting_init(self, model, payload):
            built.append(payload)
            init(self, model, payload)

        monkeypatch.setattr(GroupElement, "__init__", counting_init)
        image = d.apply(g)
        chi = character_from_derivation(d, mor)
        assert built == []
        assert len(image.terms) == 2 * phi.trunc_k
        assert chi == character_from_potential(phi, mor) == Fraction(1, 3)

    def test_to_json_encodes_each_payload_once(self, h3, monkeypatch):
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=50)
        image = Derivation(phi).apply(h3.element((0, 1, 0)))
        encoded = []
        encode = type(h3).encode_payload

        def counting_encode(self, p):
            encoded.append(p)
            return encode(self, p)

        monkeypatch.setattr(type(h3), "encode_payload", counting_encode)
        rows = image.to_json()
        assert sorted(encoded) == sorted(image.terms)
        assert [r[0] for r in rows] == sorted(encode(h3, p) for p in image.terms)


# ---------------------------------------------------------------------------
# Morphisms and characters


class TestMorphisms:
    def test_source_target(self, model):
        rng = Random(35)
        mor = Morphism(random_element(model, rng), random_element(model, rng))
        assert mor.source() == mor.v.inverse() * mor.u
        assert mor.target() == mor.u * mor.v.inverse()

    def test_identity_composes(self, model):
        rng = Random(36)
        phi = Morphism(random_element(model, rng), random_element(model, rng))
        ident = identity_morphism(phi.target())
        assert compose_morphisms(ident, phi) == phi

    def test_non_composable_rejected(self, h3):
        phi = Morphism(h3.element((1, 0, 0)), h3.element((0, 1, 0)))
        psi = Morphism(h3.element((2, 0, 0)), h3.element((0, 0, 1)))
        if phi.target() != psi.source():
            with pytest.raises(UsageError):
                compose_morphisms(psi, phi)

    def test_random_pairs_compose(self, model):
        rng = Random(37)
        for _ in range(100):
            psi, phi = random_composable_pair(model, rng)
            out = compose_morphisms(psi, phi)
            assert out.u == psi.v * phi.u
            assert out.v == psi.v * phi.v


class TestCharacters:
    def test_loop_vanishes(self, model):
        rng = Random(38)
        phi = random_potential(model, rng)
        for _ in range(50):
            mor = random_loop(model, rng)
            assert character_from_potential(phi, mor) == 0

    def test_delta_potential_formula(self, h3):
        t0 = h3.element((1, 2, 3))
        phi = Potential(h3, {t0: 1})
        rng = Random(39)
        for _ in range(50):
            h = random_element(h3, rng)
            g = random_element(h3, rng)
            expected = int(h * g.inverse() == t0) - int(g.inverse() * h == t0)
            assert character_from_potential(phi, Morphism(h, g)) == expected

    def test_additive_on_composable_pairs(self, model):
        rng = Random(40)
        phi_pot = random_potential(model, rng)
        for _ in range(100):
            psi, phi = random_composable_pair(model, rng)
            lhs = character_from_potential(phi_pot, compose_morphisms(psi, phi))
            rhs = character_from_potential(phi_pot, phi) + character_from_potential(
                phi_pot, psi
            )
            assert lhs == rhs

    def test_derivation_and_potential_agree(self, model):
        rng = Random(41)
        pot = random_potential(model, rng)
        d = Derivation(pot)
        for _ in range(30):
            g = random_element(model, rng)
            img = d.apply(g)
            for h in map(model.element, img.terms):
                assert img.coefficient(h) == character_from_potential(
                    pot, Morphism(h, g)
                )
            # and a few off-support probes
            h = random_element(model, rng)
            assert character_from_derivation(d, Morphism(h, g)) == (
                character_from_potential(pot, Morphism(h, g))
            )

    def test_harmonic_window_coefficient(self, h3):
        # coefficient of Ax^-1 Ap A1^-1 in d(a_2) is 1/2 + 1/3 = 5/6
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=16)
        d = Derivation(phi)
        img = sum((d.apply(h3.element((0, k, 0))) for k in range(-2, 3)),
                  GroupRingVector(h3))
        got = img.coefficient(h3.element((1, -1, -1)))
        assert got == Fraction(5, 6)


# ---------------------------------------------------------------------------
# Leibniz rule


class TestLeibniz:
    def test_inner_exact(self, model):
        # [x, -] is the derivation of x's coefficient table
        rng = Random(42)
        table = {random_element(model, rng): Fraction(rng.randint(1, 3)) for _ in range(3)}
        d = Derivation(Potential(model, table))
        for _ in range(30):
            g = random_element(model, rng)
            h = random_element(model, rng)
            assert leibniz_residual(d, g, h).is_zero()

    def test_finite_potential_exact(self, model):
        rng = Random(43)
        d = Derivation(random_potential(model, rng))
        for _ in range(30):
            g = random_element(model, rng)
            h = random_element(model, rng)
            assert leibniz_residual(d, g, h).is_zero()

    def test_truncated_harmonic_still_exact(self, h3):
        # truncation replaces phi by a finite table, so the Leibniz identity
        # holds exactly for the truncated derivation too
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=10)
        d = Derivation(phi)
        rng = Random(44)
        for _ in range(10):
            g = random_element(h3, rng, max_len=4)
            h = random_element(h3, rng, max_len=4)
            assert leibniz_residual(d, g, h).is_zero()


# ---------------------------------------------------------------------------
# Quasi-innerness


class TestQuasiInner:
    def test_potential_characters_pass(self, model):
        rng = Random(45)
        phi = random_potential(model, rng)
        loops = [random_loop(model, rng) for _ in range(50)]
        ok, witness = quasi_inner_check(phi, loops)
        assert ok and witness is None

    def test_inner_on_h3_loops(self, h3):
        rng = Random(46)
        x = {h3.element((1, 0, 0)): 1, h3.element((0, 1, 2)): Fraction(1, 2)}
        d = Derivation(Potential(h3, x))
        loops = [random_loop(h3, rng) for _ in range(100)]
        ok, _ = quasi_inner_check(d, loops)
        assert ok

    def test_broken_character_caught(self, h3):
        # a constant nonzero "character" is not induced by any potential
        rng = Random(47)
        loops = [random_loop(h3, rng) for _ in range(10)]
        ok, witness = quasi_inner_check(lambda mor: Fraction(1), loops)
        assert not ok
        assert witness is not None and witness[1] == 1

    def test_non_loop_rejected(self, h3):
        mor = Morphism(h3.element((1, 0, 0)), h3.element((0, 1, 0)))
        assert not mor.is_loop()
        with pytest.raises(UsageError):
            quasi_inner_check(Potential(h3, {}), [mor])


# ---------------------------------------------------------------------------
# Probes


class TestBoundednessProbe:
    def test_zero_derivation(self, h3):
        d = Derivation(Potential(h3, {}))
        max_norm, argmax = g_boundedness_probe(d, h3, radius=2, p=2)
        assert max_norm == 0.0

    def test_inner_delta_ap_stabilises(self, h3):
        d = Derivation(Potential(h3, {h3.element((1, 0, 0)): 1}))
        for p in (1, 2, 3):
            max_norm, _ = g_boundedness_probe(d, h3, radius=3, p=p)
            assert max_norm == pytest.approx(2 ** (1 / p), rel=1e-12)

    def test_memoised_probe_matches_direct(self, h3):
        rng = Random(48)
        phi = random_potential(h3, rng, size=3, max_len=3)
        d = Derivation(phi)
        max_norm, argmax = g_boundedness_probe(d, h3, radius=2, p=2)
        direct = max(
            (d.apply(g).lp_norm(2) for g in h3.cayley_ball(2)),
        )
        assert max_norm == pytest.approx(direct, rel=1e-12)
        assert d.apply(argmax).lp_norm(2) == pytest.approx(max_norm, rel=1e-12)

    def test_p_inf_is_max_sup_norm(self, h3):
        phi = Potential(h3, {h3.element((1, 0, 0)): 3, h3.element((1, 0, 1)): Fraction(1, 2)})
        d = Derivation(phi)
        max_norm, argmax = g_boundedness_probe(d, h3, radius=2, p=math.inf)
        assert max_norm == max(d.apply(g).sup_norm() for g in h3.cayley_ball(2)) == 3.0
        assert d.apply(argmax).sup_norm() == max_norm

    def test_p_nan_rejected(self, h3):
        d = Derivation(Potential(h3, {h3.element((1, 0, 0)): 1}))
        with pytest.raises(UsageError):
            g_boundedness_probe(d, h3, radius=1, p=math.nan)


def support_keyed_probe(phi, model, radius, p):
    """The probe memoised on the images of the whole support, each norm the
    `float_norm` of the coefficients phi(g t g^-1) - phi(t) in support order,
    then phi(s) for each s that is no image: the oracle for the memo keyed
    by the generators' images and for the cached powers."""
    ball = model.cayley_ball(radius)
    supp = [s.payload for s in phi.support()]
    mul, inv, value = model.mul_payload, model.inv_payload, phi._value
    memo = {}
    best, argmax = -1.0, None
    for g in sorted(ball, key=lambda e: (ball[e], e.encode())):
        gp = g.payload
        images = tuple(mul(gp, mul(s, inv(gp))) for s in supp)
        if images not in memo:
            coeffs = [value(s) - value(t) for t, s in zip(supp, images)]
            image_set = set(images)
            coeffs += [value(s) for s in supp if s not in image_set]
            memo[images] = float_norm(coeffs, p)
        if memo[images] > best:
            best, argmax = memo[images], g
    return best, argmax


MODELS = all_models()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(range(len(MODELS))), st.integers(0, 2**32),
       st.sampled_from([1, 1.5, 2, 3.5, math.inf]),
       st.sampled_from([Fraction(1), Fraction(10**200), Fraction(1, 10**200)]))
def test_probe_matches_the_support_keyed_probe(index, seed, p, scale):
    # some entries are conjugates of others, so images land back in the
    # support, and values repeat, so some of those differences cancel
    model, rng = MODELS[index], Random(seed)
    table = {}
    for _ in range(rng.randint(0, 4)):
        s = random_element(model, rng, max_len=3)
        table[s] = scale * Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        if rng.random() < 0.6:
            g = random_element(model, rng, max_len=2)
            table[model.conjugate(g, s)] = rng.choice([table[s], scale])
    phi = Potential(model, table)
    got = g_boundedness_probe(Derivation(phi), model, 2, p)
    want = support_keyed_probe(phi, model, 2, p)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


def vector_residual(d, g, h):
    """d(gh) - d(g) h - g d(h) through vector arithmetic: the reference for
    the payload kernel of `leibniz_residual`."""
    return d.apply(g * h) + scaled(d.apply(g).mul_elem_right(h)
                                   + d.apply(h).mul_elem_left(g), -1)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(range(len(MODELS))), st.integers(0, 2**32))
def test_payload_leibniz_matches_the_vector_formula(index, seed):
    model, rng = MODELS[index], Random(seed)
    d = Derivation(random_potential(model, rng, size=rng.randint(0, 4), max_len=3))
    for _ in range(4):
        g, h = random_element(model, rng, 4), random_element(model, rng, 4)
        got = leibniz_residual(d, g, h)
        assert got.model is model and got == vector_residual(d, g, h)


def test_probe_builds_no_fraction_off_the_support_or_on_a_fixed_point(h3, monkeypatch):
    # H3(0,0,1) is central, so every g fixes it; g H3(1,0,0) g^-1 is
    # H3(1,0,-b) for g = (a, b, c): off the support, or fixed when b = 0
    phi = Potential(h3, {h3.element((0, 0, 1)): 3, h3.element((1, 0, 0)): Fraction(1, 2)})
    d = Derivation(phi)
    want = g_boundedness_probe(d, h3, 2, 2)  # this also caches phi's columns

    def refuse(*args, **kwargs):
        raise AssertionError("the probe built a Fraction")

    for name in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert g_boundedness_probe(d, h3, 2, 2) == want


class TestStabilisation:
    def test_finite_table_stabilises(self, h3):
        base = h3.element((1, 0, 0))
        ball = explore_component(h3, base, radius=6)
        phi = Potential(h3, {base: 1, h3.element((1, 0, 2)): Fraction(1, 2)})
        probe = stabilisation_probe(phi, ball, [0, 1, 2, 3])
        assert probe[0] == (0, Fraction(1, 2))  # (1,0,2) at distance 2
        assert probe[2] == (2, 0) and probe[3] == (3, 0)

    def test_harmonic_single_value_per_component(self, h3):
        base = h3.element((1, -1, -1))
        ball = explore_component(h3, base, radius=5)
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=50)
        probe = stabilisation_probe(phi, ball, [0, 1, 2])
        # the only nonzero value on this component sits at the base itself
        assert probe == [(0, 0), (1, 0), (2, 0)]

    def test_constant_potential_does_not_stabilise(self, h3):
        base = h3.element((1, 0, 0))
        ball = explore_component(h3, base, radius=4)
        phi = Potential(h3, {v: 1 for v in ball.vertices})
        probe = stabilisation_probe(phi, ball, [0, 1, 2])
        assert [s for _, s in probe] == [1, 1, 1]


# ---------------------------------------------------------------------------
# Potential plumbing


class TestPotential:
    def test_table_and_closed_form_disjoint(self, h3):
        with pytest.raises(UsageError):
            Potential(
                h3,
                {h3.element((1, -2, -2)): Fraction(1, 7)},
                closed_form="appendix_harmonic",
            )

    def test_harmonic_value_at_the_cutoff(self, h3):
        K = 7
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=K)
        assert phi.value(h3.element((1, -K, -K))) == Fraction(1, K)
        assert phi.value(h3.element((1, -K - 1, -K - 1))) == 0
        for off in [(1, -2, -3), (0, -2, -2), (2, -2, -2), (1, 2, 2), (0, 0, 0)]:
            assert phi.value(h3.element(off)) == 0

    def test_value_never_enumerates_the_support(self, h3, monkeypatch):
        def refuse(trunc_k):
            raise AssertionError("closed-form support enumerated")

        monkeypatch.setitem(CLOSED_FORMS["appendix_harmonic"], "support", refuse)
        phi = Potential(h3, {h3.element((1, 0, 0)): 2},
                        closed_form="appendix_harmonic")
        K = phi.trunc_k
        assert K == 10**4
        assert phi.value(h3.element((1, -K, -K))) == Fraction(1, K)
        assert phi.value(h3.element((1, -K - 1, -K - 1))) == 0
        assert phi.value(h3.element((1, 0, 0))) == 2
        rng = Random(50)
        loops = [random_loop(h3, rng) for _ in range(20)]
        assert quasi_inner_check(phi, loops) == (True, None)
        with pytest.raises(AssertionError):
            phi.support()

    def test_support_cached_in_encoding_order(self, h3):
        K = 30
        table = {h3.element((1, 0, 0)): 1, h3.element((2, 5, -1)): Fraction(1, 3)}
        phi = Potential(h3, table, closed_form="appendix_harmonic", trunc_k=K)
        harmonic = {h3.element((1, -k, -k)) for k in range(1, K + 1)}
        assert list(phi.support()) == sorted(set(table) | harmonic)
        assert phi.support() is phi.support()

    def test_disjointness_ignores_the_cutoff(self, h3):
        # a table entry on the closed-form support beyond the cutoff
        with pytest.raises(UsageError):
            Potential(h3, {h3.element((1, -50, -50)): 1},
                      closed_form="appendix_harmonic", trunc_k=10)

    @pytest.mark.parametrize("trunc", ["100", 10.5, 0, True])
    def test_truncation_must_be_a_positive_integer(self, h3, trunc):
        with pytest.raises(UsageError):
            Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=trunc)

    def test_unknown_closed_form(self, h3):
        with pytest.raises(UsageError):
            Potential(h3, {}, closed_form="nope")

    def test_closed_form_wrong_model(self):
        d = DihedralInf()
        with pytest.raises(UsageError):
            Potential(d, {}, closed_form="appendix_harmonic")

    def test_lq_norm_of_harmonic(self, h3):
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=100)
        assert phi.lq_pow(2) == sum(Fraction(1, k * k) for k in range(1, 101))
        assert phi.tail_bound_pow(2) == Fraction(1, 100)
        with pytest.raises(UsageError):
            phi.tail_bound_pow(1)

    def test_json_roundtrip(self, h3):
        phi = Potential(
            h3,
            {h3.element((1, 0, 0)): 1, h3.element((1, 0, -1)): Fraction(1, 2)},
        )
        again = Potential.from_json(phi.to_json())
        assert again.model.name == "h3"
        assert again.table == {
            again.model.decode(k.encode()): v for k, v in phi.table.items()
        }
