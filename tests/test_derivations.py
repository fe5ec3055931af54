import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjlab import derivations as dv
from conjlab import experiments as ex
from conjlab import (
    Derivation,
    DihedralInf,
    GroupRingVector,
    ModelMismatchError,
    Potential,
    UsageError,
    character,
    explore_component,
    g_boundedness_probe,
    get_model,
    leibniz_residual,
    quasi_inner_check,
    stabilisation_probe,
)
from conjlab.groups import GroupModel, Heisenberg, parse_word
from conjlab.ring import float_norm, lq_pow_exact

from conjlab.groups import random_loop, random_payload

from conftest import (
    Morphism,
    SkewDihedral,
    SkewHeisenberg,
    all_models,
    character_from_derivation,
    character_from_potential,
    compose_morphisms,
    delta,
    identity_morphism,
    inner_derivation_apply,
    loop_morphism,
    random_composable_pair,
    random_potential,
    scaled,
    six_sum_residual,
)
from test_corpus import MODELS as CORPUS_MODELS

# the six models and a three-factor product
CHARACTER_MODELS = all_models() + [get_model("dsemi*h3semi*free2")]


# ---------------------------------------------------------------------------
# Inner derivations


class TestInner:
    def test_central_element_kills_everything(self, h3):
        rng = Random(31)
        x = delta(h3, (0, 0, 1))  # A1 is central
        for _ in range(20):
            a = delta(h3, random_payload(h3, rng))
            assert inner_derivation_apply(x, a).is_zero()

    def test_dinf_commutator(self):
        d = DihedralInf()
        a, b = delta(d, d.decode_payload("a")), delta(d, d.decode_payload("b"))
        got = inner_derivation_apply(a, b)
        assert got == delta(d, d.decode_payload("ab")) + delta(d, d.decode_payload("ba"), -1)

    def test_h3_commutator_support(self, h3):
        Ap, Ax = (1, 0, 0), (0, 1, 0)
        got = inner_derivation_apply(delta(h3, Ap), delta(h3, Ax))
        s1, s2 = got.terms
        # the two support points differ by the central factor A1
        assert h3.mul_payload(h3.inv_payload(s1), s2) in ((0, 0, 1), (0, 0, -1))


# ---------------------------------------------------------------------------
# Derivations from potentials


class TestDerivationApply:
    def test_zero_potential(self, model):
        d = Derivation(Potential(model, {}))
        rng = Random(32)
        for _ in range(10):
            assert d.apply(random_payload(model, rng)).is_zero()

    def test_delta_ap_two_terms(self, h3):
        # phi = delta_{Ap}: d(Ax^k) = Ax^k Ap A1^k - Ax^k Ap, coefficients +1/-1
        phi = Potential(h3, {(1, 0, 0): 1})
        d = Derivation(phi)
        for k in range(1, 6):
            img = d.apply((0, k, 0))
            assert img.coefficient((1, k, k)) == 1
            assert img.coefficient((1, k, 0)) == -1
            assert len(img.terms) == 2

    def test_harmonic_d_ax_matches_display(self, h3):
        # d(Ax) = sum_k (1/k)(Ax^{1-k} Ap A1^{1-k} - Ax^{1-k} Ap A1^{-k})
        K = 12
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=K)
        img = Derivation(phi).apply((0, 1, 0))
        for k in range(1, K + 1):
            plus = (1, 1 - k, 1 - k)
            minus = (1, 1 - k, -k)
            assert img.coefficient(plus) == Fraction(1, k)
            assert img.coefficient(minus) == Fraction(-1, k)
        assert len(img.terms) == 2 * K

    def test_inner_equals_from_potential(self, model):
        # [x, -] by convolution agrees with the derivation of x's table
        rng = Random(34)
        table = {}
        for _ in range(4):
            table[random_payload(model, rng, max_len=4)] = Fraction(
                rng.randint(-3, 3), rng.randint(1, 3)
            )
        x = GroupRingVector(model, {p: c for p, c in table.items() if c})
        d_pot = Derivation(Potential(model, table))
        for _ in range(30):
            g = random_payload(model, rng)
            assert inner_derivation_apply(x, delta(model, g)) == d_pot.apply(g)

    def test_closed_form_equals_its_table(self, h3):
        # closed-form values give the same derivation as the explicit table
        # of the truncated closed form, and as the inner derivation
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=12)
        table = {g: phi.value(g) for g in phi.support()}
        x = GroupRingVector(h3, table)
        derivations = [Derivation(phi), Derivation(Potential(h3, table))]
        rng = Random(49)
        for _ in range(30):
            g = random_payload(h3, rng)
            first, *rest = [d.apply(g) for d in derivations]
            assert first == inner_derivation_apply(x, delta(h3, g))
            assert all(img == first for img in rest)

    def test_terms_are_the_character(self, model):
        # d(g) = sum phi(s)(s g - g s): its coefficient at u is
        # chi(u, g) = phi(u g^-1) - phi(g^-1 u), and it has no other terms
        rng = Random(50)
        for _ in range(5):
            phi = random_potential(model, rng)
            d = Derivation(phi)
            supp = list(phi.support())
            mul = model.mul_payload
            for g in [random_payload(model, rng) for _ in range(10)] + supp:
                img = d.apply(g)
                want = {}
                for u in {mul(s, g) for s in supp} | {mul(g, s) for s in supp}:
                    chi = character_from_potential(phi, Morphism(model, u, g))
                    if chi:
                        want[u] = chi
                assert img.terms == want

    def test_central_element_gives_zero(self, h3):
        phi = Potential(h3, {(1, 2, 0): 3}, closed_form="appendix_harmonic", trunc_k=30)
        d = Derivation(phi)
        for c in range(-3, 4):
            assert d.apply((0, 0, c)).is_zero()
        assert not d.apply((0, 1, 0)).is_zero()

    def test_add_derivation_accumulates_in_place(self, model):
        # d_phi(g) + d_{-phi}(g) added into one dict cancels to nothing
        rng = Random(51)
        phi = random_potential(model, rng)
        neg = Potential(model, {p: -v for p, v in phi.table.items()})
        for _ in range(10):
            gp = random_payload(model, rng)
            acc = {}
            phi.add_derivation(gp, acc)
            assert all(acc.values())
            neg.add_derivation(gp, acc)
            assert acc == {}


class TestPayloadVectors:
    def test_apply_and_character_build_no_element(self, h3):
        # the kernel's {payload: Fraction} dict is the vector
        phi = Potential(h3, {}, closed_form="appendix_harmonic")
        d = Derivation(phi)
        g = (0, 2, 0)
        mor = Morphism(h3, (1, -2, -2), (0, 1, 0))  # u v^-1 = (1,-3,-3)
        image = d.apply(g)
        chi = character_from_derivation(d, mor)
        payload_chi = character(phi, mor.u, mor.v)
        assert len(image.terms) == 2 * phi.trunc_k
        assert chi == payload_chi == character_from_potential(phi, mor) == Fraction(1, 3)

    def test_to_json_encodes_each_payload_once(self, h3, monkeypatch):
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=50)
        image = Derivation(phi).apply((0, 1, 0))
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
        mor = Morphism(model, random_payload(model, rng), random_payload(model, rng))
        mul, inv = model.mul_payload, model.inv_payload
        assert mor.source() == mul(inv(mor.v), mor.u)
        assert mor.target() == mul(mor.u, inv(mor.v))

    def test_identity_composes(self, model):
        rng = Random(36)
        phi = Morphism(model, random_payload(model, rng), random_payload(model, rng))
        ident = identity_morphism(model, phi.target())
        assert compose_morphisms(ident, phi) == phi

    def test_non_composable_rejected(self, h3):
        phi = Morphism(h3, (1, 0, 0), (0, 1, 0))
        psi = Morphism(h3, (2, 0, 0), (0, 0, 1))
        if phi.target() != psi.source():
            with pytest.raises(UsageError):
                compose_morphisms(psi, phi)

    def test_random_pairs_compose(self, model):
        rng = Random(37)
        for _ in range(100):
            psi, phi = random_composable_pair(model, rng)
            out = compose_morphisms(psi, phi)
            assert out.u == model.mul_payload(psi.v, phi.u)
            assert out.v == model.mul_payload(psi.v, phi.v)


class TestCharacters:
    def test_loop_vanishes(self, model):
        rng = Random(38)
        phi = random_potential(model, rng)
        for _ in range(50):
            loop = random_loop(model, rng)
            mor = loop_morphism(model, loop)
            assert mor.is_loop()
            assert character_from_potential(phi, mor) == character(phi, *loop) == 0

    def test_delta_potential_formula(self, h3):
        t0 = (1, 2, 3)
        phi = Potential(h3, {t0: 1})
        rng = Random(39)
        mul = h3.mul_payload
        for _ in range(50):
            h = random_payload(h3, rng)
            g = random_payload(h3, rng)
            gi = h3.inv_payload(g)
            expected = int(mul(h, gi) == t0) - int(mul(gi, h) == t0)
            assert character_from_potential(phi, Morphism(h3, h, g)) == expected
            assert character(phi, h, g) == expected

    @pytest.mark.parametrize("model", CHARACTER_MODELS, ids=lambda m: m.name)
    def test_additive_on_composable_pairs(self, model):
        rng = Random(40)
        phi_pot = random_potential(model, rng)

        def chi(mor):  # the payload character, checked against the element oracle
            value = character(phi_pot, mor.u, mor.v)
            assert value == character_from_potential(phi_pot, mor)
            return value

        for _ in range(100):
            psi, phi = random_composable_pair(model, rng)
            lhs = chi(compose_morphisms(psi, phi))
            rhs = chi(phi) + chi(psi)
            assert lhs == rhs

    @pytest.mark.parametrize("model", CHARACTER_MODELS, ids=lambda m: m.name)
    def test_derivation_and_potential_agree(self, model):
        rng = Random(41)
        pot = random_potential(model, rng)
        d = Derivation(pot)
        for _ in range(30):
            g = random_payload(model, rng)
            img = d.apply(g)
            for h in img.terms:
                assert img.coefficient(h) == character_from_potential(
                    pot, Morphism(model, h, g)
                ) == character(pot, h, g)
            # and a few off-support probes
            h = random_payload(model, rng)
            assert character_from_derivation(d, Morphism(model, h, g)) == (
                character_from_potential(pot, Morphism(model, h, g))
            ) == character(pot, h, g)

    def test_harmonic_window_coefficient(self, h3):
        # coefficient of Ax^-1 Ap A1^-1 in d(a_2) is 1/2 + 1/3 = 5/6
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=16)
        d = Derivation(phi)
        img = sum((d.apply((0, k, 0)) for k in range(-2, 3)), GroupRingVector(h3, {}))
        got = img.coefficient((1, -1, -1))
        assert got == Fraction(5, 6)


# ---------------------------------------------------------------------------
# Leibniz rule


class TestLeibniz:
    def test_inner_exact(self, model):
        # [x, -] is the derivation of x's coefficient table
        rng = Random(42)
        table = {random_payload(model, rng): Fraction(rng.randint(1, 3)) for _ in range(3)}
        phi = Potential(model, table)
        for _ in range(30):
            g = random_payload(model, rng)
            h = random_payload(model, rng)
            assert leibniz_residual(phi, g, h) == {}

    def test_finite_potential_exact(self, model):
        rng = Random(43)
        phi = random_potential(model, rng)
        for _ in range(30):
            g = random_payload(model, rng)
            h = random_payload(model, rng)
            assert leibniz_residual(phi, g, h) == {}

    def test_truncated_harmonic_still_exact(self, h3):
        # truncation replaces phi by a finite table, so the Leibniz identity
        # holds exactly for the truncated derivation too
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=10)
        rng = Random(44)
        for _ in range(10):
            g = random_payload(h3, rng, max_len=4)
            h = random_payload(h3, rng, max_len=4)
            assert leibniz_residual(phi, g, h) == {}

    def test_a_residual_by_hand_on_a_skew_product(self):
        # dinf_skew sends ab a to e.  For phi = -[b] - [ba] and g = h = a, only
        # the bracket (g s) h - g (s h) at s = b splits: (ab) a = e, a (ba) = aba
        model = SkewDihedral()
        phi = Potential(model, {"b": -1, "ba": -1})
        assert leibniz_residual(phi, "a", "a") == {"": -1, "aba": 1}


# two non-associative products, and payload draws for each: alternating
# words of length <= 4, and h3 triples in [-3, 3]^3
SKEW_MODELS = [SkewDihedral(), SkewHeisenberg()]
SKEW_PAYLOADS = [st.builds(lambda n, i: "ababa"[i:i + n], st.integers(0, 4), st.integers(0, 1)),
                 st.tuples(*[st.integers(-3, 3)] * 3)]
SKEW_VALUES = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 5]), st.integers(1, 4))


def test_leibniz_residual_is_the_six_sums_on_skew_products():
    # a residual computed, not patched in: at least a quarter of the draws
    # have one, and each equals the six termwise sums, with no term compared
    nonzero = []

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def check(data):
        index = data.draw(st.sampled_from(range(len(SKEW_MODELS))))
        model, payload = SKEW_MODELS[index], SKEW_PAYLOADS[index]
        table = data.draw(st.dictionaries(payload, SKEW_VALUES, min_size=1, max_size=4))
        phi = Potential(model, table)
        g, h = data.draw(payload), data.draw(payload)
        got = leibniz_residual(phi, g, h)
        assert type(got) is dict and got == six_sum_residual(phi, g, h)
        nonzero.append(got != {})

    check()
    assert 4 * sum(nonzero) >= len(nonzero), (sum(nonzero), len(nonzero))


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
        x = {(1, 0, 0): 1, (0, 1, 2): Fraction(1, 2)}
        loops = [random_loop(h3, rng) for _ in range(100)]
        ok, _ = quasi_inner_check(Potential(h3, x), loops)
        assert ok
        # the loops' characters, read off the derivation d(v)
        d = Derivation(Potential(h3, x))
        assert all(character_from_derivation(d, loop_morphism(h3, loop)) == 0
                   for loop in loops)

    def test_broken_character_caught(self, h3, monkeypatch):
        # a constant nonzero "character" is not induced by any potential;
        # each loop is checked and evaluated in one pass, so a generator of
        # loops gives the same witness as their list
        rng = Random(47)
        loops = [random_loop(h3, rng) for _ in range(10)]
        monkeypatch.setattr(dv, "character", lambda phi, up, vp: Fraction(1))
        phi = Potential(h3, {})
        ok, witness = quasi_inner_check(phi, loops)
        assert not ok
        assert witness == (*loops[0], 1)
        assert quasi_inner_check(phi, (loop for loop in loops)) == (ok, witness)

    def test_non_loop_rejected(self, h3):
        mor = Morphism(h3, (1, 0, 0), (0, 1, 0))
        assert not mor.is_loop()
        with pytest.raises(UsageError, match=r"^\(H3\(1,0,0\), H3\(0,1,0\)\) is not a loop$"):
            quasi_inner_check(Potential(h3, {}), iter([(mor.u, mor.v)]))


# ---------------------------------------------------------------------------
# Probes


class TestBoundednessProbe:
    def test_zero_derivation(self, h3):
        max_norm, argmax = g_boundedness_probe(Potential(h3, {}), radius=2, p=2)
        assert max_norm == 0.0

    def test_inner_delta_ap_stabilises(self, h3):
        phi = Potential(h3, {(1, 0, 0): 1})
        for p in (1, 2, 3):
            max_norm, _ = g_boundedness_probe(phi, radius=3, p=p)
            assert max_norm == pytest.approx(2 ** (1 / p), rel=1e-12)

    def test_memoised_probe_matches_direct(self, h3):
        rng = Random(48)
        phi = random_potential(h3, rng, size=3, max_len=3)
        d = Derivation(phi)
        max_norm, argmax = g_boundedness_probe(phi, radius=2, p=2)
        direct = max(
            (d.apply(g).lp_norm(2) for g in h3.cayley_ball(2)),
        )
        assert max_norm == pytest.approx(direct, rel=1e-12)
        assert d.apply(argmax).lp_norm(2) == pytest.approx(max_norm, rel=1e-12)

    def test_p_inf_is_max_sup_norm(self, h3):
        phi = Potential(h3, {(1, 0, 0): 3, (1, 0, 1): Fraction(1, 2)})
        d = Derivation(phi)
        max_norm, argmax = g_boundedness_probe(phi, radius=2, p=math.inf)
        assert max_norm == max(d.apply(g).lp_norm(math.inf) for g in h3.cayley_ball(2)) == 3.0
        assert d.apply(argmax).lp_norm(math.inf) == max_norm

    def test_p_nan_rejected(self, h3):
        with pytest.raises(UsageError):
            g_boundedness_probe(Potential(h3, {(1, 0, 0): 1}), radius=1, p=math.nan)


def support_keyed_probe(phi, model, radius, p):
    """The probe memoised on the images of the whole support, each norm the
    `float_norm` of the coefficients phi(g t g^-1) - phi(t) in support order,
    then phi(s) for each s that is no image: the oracle for the memo keyed
    by the generators' images and for the cached powers."""
    ball = model.cayley_ball(radius)
    supp = list(phi.support())
    mul, inv, value = model.mul_payload, model.inv_payload, phi.value
    memo = {}
    best, argmax = -1.0, None
    for gp in sorted(ball, key=lambda e: (ball[e], model.encode_payload(e))):
        images = tuple(mul(gp, mul(s, inv(gp))) for s in supp)
        if images not in memo:
            coeffs = [value(s) - value(t) for t, s in zip(supp, images)]
            image_set = set(images)
            coeffs += [value(s) for s in supp if s not in image_set]
            memo[images] = float_norm(coeffs, p)
        if memo[images] > best:
            best, argmax = memo[images], gp
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
        s = random_payload(model, rng, max_len=3)
        table[s] = scale * Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        if rng.random() < 0.6:
            g = random_payload(model, rng, max_len=2)
            table[model.conj_step(s, g, model.inv_payload(g))] = rng.choice([table[s], scale])
    phi = Potential(model, table)
    got = g_boundedness_probe(phi, 2, p)
    want = support_keyed_probe(phi, model, 2, p)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


def vector_residual(d, g, h):
    """d(gh) - d(g) h - g d(h), g and h payloads, through vector arithmetic:
    the reference for the payload kernel of `leibniz_residual` on a group.
    `mul_elem_right` and `mul_elem_left` take translations to be one to one,
    so the skew products above are checked against `six_sum_residual`."""
    m = d.model
    return d.apply(m.mul_payload(g, h)) + scaled(d.apply(g).mul_elem_right(h)
                                                 + d.apply(h).mul_elem_left(g), -1)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(range(len(MODELS))), st.integers(0, 2**32))
def test_payload_leibniz_matches_the_vector_formula(index, seed):
    model, rng = MODELS[index], Random(seed)
    phi = random_potential(model, rng, size=rng.randint(0, 4), max_len=3)
    for _ in range(4):
        g, h = random_payload(model, rng, 4), random_payload(model, rng, 4)
        got = leibniz_residual(phi, g, h)
        assert type(got) is dict and got == vector_residual(Derivation(phi), g, h).terms


def test_probe_builds_no_fraction_off_the_support_or_on_a_fixed_point(h3, monkeypatch):
    # H3(0,0,1) is central, so every g fixes it; g H3(1,0,0) g^-1 is
    # H3(1,0,-b) for g = (a, b, c): off the support, or fixed when b = 0
    phi = Potential(h3, {(0, 0, 1): 3, (1, 0, 0): Fraction(1, 2)})
    want = g_boundedness_probe(phi, 2, 2)  # this also caches phi's columns

    refuse_fractions(monkeypatch, "the probe built a Fraction")
    assert g_boundedness_probe(phi, 2, 2) == want


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_leibniz_adds_no_term_and_builds_no_fraction(name, monkeypatch):
    # on an associative model each bracket's two key columns are equal, so a
    # sample adds nothing and, once phi's columns are cached, builds no Fraction
    model, rng = get_model(name), Random(44)
    phi = Potential(model, seeded_table(model, rng))
    pairs = [(random_payload(model, rng), random_payload(model, rng)) for _ in range(20)]
    assert phi._columns  # cached here, before Fraction is refused

    def refuse(*args, **kwargs):
        raise AssertionError("leibniz_residual added a term")

    monkeypatch.setattr(dv, "add_terms", refuse)
    refuse_fractions(monkeypatch, "leibniz_residual built a Fraction")
    assert all(leibniz_residual(phi, g, h) == {} for g, h in pairs)


def refuse_fractions(monkeypatch, message):
    """Make every Fraction construction and arithmetic operation fail with `message`."""
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    for name in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__"):
        monkeypatch.setattr(Fraction, name, refuse)


# ---------------------------------------------------------------------------
# The h3 hit finder: the pairs (i, j) with g s_i g^-1 = s_j, found by (a, b)
# fibre, against the base class's conjugate-and-look-up


def h3_fibre_support(rng):
    """Distinct h3 payloads: central cells, fibres on one line through 0,
    other fibres, and c values that crowd a fibre, some around a huge c."""
    line = rng.choice([(1, 0), (0, 1), (1, 1), (1, -2), (2, 3), (3, -1)])
    centre = rng.choice([0, 0, 10**30, -(7**40)])
    cells = set()
    for _ in range(rng.randint(1, 14)):
        kind = rng.random()
        if kind < 0.2:
            a, b = 0, 0
        elif kind < 0.6:
            t = rng.choice([-3, -2, -1, 1, 2, 3])
            a, b = t * line[0], t * line[1]
        else:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        cells.add((a, b, centre + rng.randint(-6, 6)))
    return sorted(cells)


def test_h3_hit_finder_matches_the_base_class():
    h3 = get_model("h3")
    ball = h3.cayley_ball(3)
    rng = Random(34)
    for _ in range(150):
        support = h3_fibre_support(rng)
        fast, slow = h3.conj_hits(support), GroupModel.conj_hits(h3, support)
        for gp in ball:
            gi = h3.inv_payload(gp)
            got = fast(gp, gi)
            assert len(got) == len(set(got))
            assert sorted(got) == slow(gp, gi), (support, gp)


def test_h3_hit_finder_examples(h3):
    support = [(0, 0, 5), (1, 0, 0), (1, 0, 2), (2, 0, 7), (1, 1, 0), (0, 1, 3)]
    hits = h3.conj_hits(support)
    # (x, y) = (1, 0) shifts c by b: fixes the central cell and the line b = 0
    assert sorted(hits((1, 0, 9), None)) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    # (x, y) = (0, -2) shifts c by 2 a: (1, 0, 0) -> (1, 0, 2), and fixes (0, 1, 3)
    assert sorted(hits((0, -2, 0), None)) == [(0, 0), (1, 2), (5, 5)]
    assert sorted(hits((0, 0, 4), None)) == [(i, i) for i in range(6)]
    assert h3.conj_hits([])((1, 2, 3), None) == []


def test_probe_sums_once_per_hit_set(h3, monkeypatch):
    # g = (x, y, .) fixes H3(1,0,0) when y = 0 and moves it off the support
    # otherwise: many automorphisms, two hit sets, two power sums
    sums = []
    monkeypatch.setattr(dv, "left_sum", lambda pows: sums.append(pows) or math.fsum(pows))
    phi = Potential(h3, {(1, 0, 0): 1})
    assert g_boundedness_probe(phi, 4, 2) == (2 ** 0.5, (0, -1, 0))
    assert len(sums) == 2


def seeded_table(model, rng, size=4):
    """A table on elements of infinite conjugacy classes, some entries
    conjugates of others, some of those with equal values."""
    table = {}
    while len(table) < size:
        s = random_payload(model, rng, max_len=3)
        g = random_payload(model, rng, max_len=2)
        t = model.conj_step(s, g, model.inv_payload(g))
        if not model.class_is_finite(s):
            table[s] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
            if t not in table and rng.random() < 0.6:
                table[t] = rng.choice([table[s], Fraction(1, 2)])
    return table


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_hit_column_is_the_derivation_up_to_sign(name):
    # the nonzero entries of the hit column, as a multiset of |c|, are the
    # coefficients of d(g), with hits from the model's finder and from the
    # base class's conjugate-and-look-up
    model, rng = get_model(name), Random(38)
    ball = model.cayley_ball(3)
    moved = 0
    for _ in range(4):
        phi = Potential(model, seeded_table(model, rng))
        payloads, values = phi._columns
        d = Derivation(phi)
        for hits_of in (model.conj_hits(payloads), GroupModel.conj_hits(model, payloads)):
            for gp in ball:
                hits = hits_of(gp, model.inv_payload(gp))
                moved += any(i != j for i, j in hits)
                column = dv.hit_column(values, hits)
                want = sorted(map(abs, d.apply(gp).terms.values()))
                assert sorted(abs(c) for c in column if c) == want, (phi.table, gp)
    assert moved


@pytest.mark.parametrize("name", CORPUS_MODELS)
@pytest.mark.parametrize("q", [1, 1.5, 2, 3, math.inf])
def test_limit_reads_its_norms_from_hit_columns(name, q, monkeypatch):
    # the samples of d(a^k) built in full, and limit's from one hit column
    # per distinct hit set, with no d(a^k), mul_all or GroupRingVector
    model, rng = get_model(name), Random(39)
    phi = Potential(model, seeded_table(model, rng))
    labels = [label for label, _, _ in model.gen_triples]
    a = parse_word(model, ".".join(rng.choice(labels) for _ in range(2)))
    d, hits_of, a_k = Derivation(phi), model.conj_hits(phi._columns[0]), a
    want, hit_sets = [], set()
    for k in range(1, 9):
        image = d.apply(a_k)
        want.append((k, image.lp_norm(q),
                     lq_pow_exact(image.terms.values(), q) if q in (1, 2, 3) else None))
        hit_sets.add(frozenset(hits_of(a_k, model.inv_payload(a_k))))
        a_k = model.mul_payload(a_k, a)

    def refuse(*args, **kwargs):
        raise AssertionError("limit built d(a^k)")

    monkeypatch.setattr(dv.Potential, "add_derivation", refuse)
    monkeypatch.setattr(GroupModel, "mul_all", refuse)
    monkeypatch.setattr(Heisenberg, "mul_all", refuse)
    monkeypatch.setattr(GroupRingVector, "__init__", refuse)
    columns = []
    monkeypatch.setattr(ex, "hit_column", lambda *args: columns.append(args) or
                        dv.hit_column(*args))
    assert ex.run_limit_experiment(phi, a, q, 8).samples == want
    assert len(columns) == len(hit_sets)


class TestStabilisation:
    def test_finite_table_stabilises(self, h3):
        base = (1, 0, 0)
        ball = explore_component(h3, base, radius=6)
        phi = Potential(h3, {base: 1, (1, 0, 2): Fraction(1, 2)})
        probe = stabilisation_probe(phi, ball, [0, 1, 2, 3])
        assert probe[0] == (0, Fraction(1, 2))  # (1,0,2) at distance 2
        assert probe[2] == (2, 0) and probe[3] == (3, 0)

    def test_harmonic_single_value_per_component(self, h3):
        base = (1, -1, -1)
        ball = explore_component(h3, base, radius=5)
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=50)
        probe = stabilisation_probe(phi, ball, [0, 1, 2])
        # the only nonzero value on this component sits at the base itself
        assert probe == [(0, 0), (1, 0), (2, 0)]

    def test_constant_potential_does_not_stabilise(self, h3):
        ball = explore_component(h3, (1, 0, 0), radius=4)
        phi = Potential(h3, {p: 1 for p in ball.depths})
        probe = stabilisation_probe(phi, ball, [0, 1, 2])
        assert [s for _, s in probe] == [1, 1, 1]

    def test_ball_of_another_model_rejected(self, h3):
        ball = explore_component(get_model("h3semi"), ((1, 0, 0), 0), radius=1)
        with pytest.raises(ModelMismatchError, match="^ball of h3semi used with model h3$"):
            stabilisation_probe(Potential(h3, {}), ball, [0])


# ---------------------------------------------------------------------------
# Potential plumbing


class TestPotential:
    def test_table_holds_only_the_explicit_entries(self, h3):
        # the one value table keeps the explicit entries by payload; reading
        # the support or a closed-form value adds nothing to it
        phi = Potential(h3, {(1, 0, 0): 2}, closed_form="appendix_harmonic", trunc_k=30)
        assert len(phi._columns[0]) == 31
        assert phi.value((1, -5, -5)) == Fraction(1, 5)
        assert phi.table == {(1, 0, 0): 2}

    @pytest.mark.parametrize("trunc", [1, 2, 37, 1000])
    @pytest.mark.parametrize("rows", [{}, {(2, 0, 0): "-7/12", (1, 3, 3): "5/9",
                                           (0, 0, -1): "4"}])
    def test_columns_agree_with_the_rule(self, h3, trunc, rows):
        # the columns pair the encoding-sorted support with value, with no
        # zero value
        phi = Potential(h3, {p: Fraction(v) for p, v in rows.items()},
                        closed_form="appendix_harmonic", trunc_k=trunc)
        support = sorted([*rows, *[(1, -k, -k) for k in range(1, trunc + 1)]],
                         key=h3.encode_payload)
        payloads, values = phi._columns
        assert payloads == tuple(support)
        assert values == tuple(map(phi.value, support)) and all(values)

    def test_table_and_closed_form_disjoint(self, h3):
        with pytest.raises(UsageError):
            Potential(
                h3,
                {(1, -2, -2): Fraction(1, 7)},
                closed_form="appendix_harmonic",
            )

    def test_harmonic_value_at_the_cutoff(self, h3):
        K = 7
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=K)
        assert phi.value((1, -K, -K)) == Fraction(1, K)
        assert phi.value((1, -K - 1, -K - 1)) == 0
        for off in [(1, -2, -3), (0, -2, -2), (2, -2, -2), (1, 2, 2), (0, 0, 0)]:
            assert phi.value(off) == 0

    def test_value_never_enumerates_the_support(self, h3, monkeypatch):
        def refuse(trunc_k):
            raise AssertionError("closed-form support enumerated")

        monkeypatch.setattr(dv, "_harmonic_support", refuse)
        phi = Potential(h3, {(1, 0, 0): 2}, closed_form="appendix_harmonic")
        K = phi.trunc_k
        assert K == 10**4
        assert phi.value((1, -K, -K)) == Fraction(1, K)
        assert phi.value((1, -K - 1, -K - 1)) == 0
        assert phi.value((1, 0, 0)) == 2
        rng = Random(50)
        loops = [random_loop(h3, rng) for _ in range(20)]
        assert quasi_inner_check(phi, loops) == (True, None)
        with pytest.raises(AssertionError):
            phi.support()

    def test_support_cached_in_encoding_order(self, h3):
        K = 30
        table = {(1, 0, 0): 1, (2, 5, -1): Fraction(1, 3)}
        phi = Potential(h3, table, closed_form="appendix_harmonic", trunc_k=K)
        harmonic = {(1, -k, -k) for k in range(1, K + 1)}
        support = sorted(set(table) | harmonic, key=h3.encode_payload)
        assert list(phi.support()) == support
        assert phi.support() is phi.support()

    def test_disjointness_ignores_the_cutoff(self, h3):
        # a table entry on the closed-form support beyond the cutoff
        with pytest.raises(UsageError):
            Potential(h3, {(1, -50, -50): 1},
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
        assert sum(v * v for v in phi._columns[1]) == sum(Fraction(1, k * k) for k in range(1, 101))

    def test_json_roundtrip(self, h3):
        phi = Potential(
            h3,
            {(1, 0, 0): 1, (1, 0, -1): Fraction(1, 2)},
        )
        again = Potential.from_json({"model": "h3", "table": [["H3(1,0,0)", "1"],
                                                             ["H3(1,0,-1)", "1/2"]]})
        assert again.model.name == "h3"
        model = again.model
        assert again.table == {
            model.decode_payload(model.encode_payload(p)): v for p, v in phi.table.items()
        }
