import math
from fractions import Fraction
from random import Random

import pytest

from conjlab import (
    Coeff,
    Derivation,
    DihedralInf,
    GroupRingVector,
    Morphism,
    Potential,
    UsageError,
    character_from_derivation,
    character_from_potential,
    compose_morphisms,
    edge_jump_probe,
    explore_component,
    g_boundedness_probe,
    identity_morphism,
    inner_derivation_apply,
    leibniz_residual,
    quasi_inner_check,
    stabilisation_probe,
)
from conjlab.sampling import (
    random_composable_pair,
    random_element,
    random_loop,
    random_potential,
)


def delta(g, c=1):
    return GroupRingVector.delta(g, Coeff.of(c))


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
        assert got == delta(d.decode("ab")) - delta(d.decode("ba"))

    def test_h3_commutator_support(self, h3):
        Ap, Ax = h3.element((1, 0, 0)), h3.element((0, 1, 0))
        got = inner_derivation_apply(delta(Ap), delta(Ax))
        s1, s2 = got.support()
        # the two support points differ by the central factor A1
        assert s1.inverse() * s2 in (h3.element((0, 0, 1)), h3.element((0, 0, -1)))


# ---------------------------------------------------------------------------
# Derivations from potentials


class TestDerivationApply:
    def test_zero_potential(self, model):
        d = Derivation.from_potential(Potential(model, {}))
        rng = Random(32)
        for _ in range(10):
            assert d.apply(random_element(model, rng)).is_zero()

    def test_delta_ap_two_terms(self, h3):
        # phi = delta_{Ap}: d(Ax^k) = Ax^k Ap A1^k - Ax^k Ap, coefficients +1/-1
        phi = Potential(h3, {h3.element((1, 0, 0)): 1})
        d = Derivation.from_potential(phi)
        for k in range(1, 6):
            img = d.apply(h3.element((0, k, 0)))
            assert img.coefficient(h3.element((1, k, k))) == Coeff.of(1)
            assert img.coefficient(h3.element((1, k, 0))) == Coeff.of(-1)
            assert len(img.terms) == 2

    def test_harmonic_d_ax_matches_display(self, h3):
        # d(Ax) = sum_k (1/k)(Ax^{1-k} Ap A1^{1-k} - Ax^{1-k} Ap A1^{-k})
        K = 12
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=K)
        img = Derivation.from_potential(phi).apply(h3.element((0, 1, 0)))
        for k in range(1, K + 1):
            plus = h3.element((1, 1 - k, 1 - k))
            minus = h3.element((1, 1 - k, -k))
            assert img.coefficient(plus) == Coeff.of(Fraction(1, k))
            assert img.coefficient(minus) == Coeff.of(Fraction(-1, k))
        assert len(img.terms) == 2 * K

    def test_linearity(self, h3):
        rng = Random(33)
        phi = random_potential(h3, rng)
        d = Derivation.from_potential(phi)
        for _ in range(20):
            g = random_element(h3, rng)
            h = random_element(h3, rng)
            lhs = d.apply_linear(delta(g, 2) + delta(h, 3))
            assert lhs == d.apply(g).scale(2) + d.apply(h).scale(3)

    def test_inner_equals_from_potential(self, model):
        # [x, -] agrees with the derivation of x's coefficient table
        rng = Random(34)
        table = {}
        for _ in range(4):
            table[random_element(model, rng, max_len=4)] = Fraction(
                rng.randint(-3, 3), rng.randint(1, 3)
            )
        x = GroupRingVector(model, {g: Coeff(v) for g, v in table.items()})
        d_inner = Derivation.inner(x)
        d_pot = Derivation.from_potential(Potential(model, table))
        for _ in range(30):
            g = random_element(model, rng)
            assert d_inner.apply(g) == d_pot.apply(g)


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
        d = Derivation.from_potential(pot)
        for _ in range(30):
            g = random_element(model, rng)
            img = d.apply(g)
            for h in img.support():
                assert img.coefficient(h).re == character_from_potential(
                    pot, Morphism(h, g)
                )
            # and a few off-support probes
            h = random_element(model, rng)
            assert character_from_derivation(d, Morphism(h, g)).re == (
                character_from_potential(pot, Morphism(h, g))
            )

    def test_harmonic_window_coefficient(self, h3):
        # coefficient of Ax^-1 Ap A1^-1 in d(a_2) is 1/2 + 1/3 = 5/6
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=16)
        d = Derivation.from_potential(phi)
        a2 = sum(
            (delta(h3.element((0, k, 0))) for k in range(-2, 3)),
            GroupRingVector.zero(h3),
        )
        img = d.apply_linear(a2)
        got = img.coefficient(h3.element((1, -1, -1)))
        assert got == Coeff.of(Fraction(5, 6))


# ---------------------------------------------------------------------------
# Leibniz rule


class TestLeibniz:
    def test_inner_exact(self, model):
        rng = Random(42)
        x = GroupRingVector(
            model,
            {random_element(model, rng): Coeff(Fraction(rng.randint(1, 3))) for _ in range(3)},
        )
        d = Derivation.inner(x)
        for _ in range(30):
            g = random_element(model, rng)
            h = random_element(model, rng)
            assert leibniz_residual(d, g, h) == 0.0

    def test_finite_potential_exact(self, model):
        rng = Random(43)
        d = Derivation.from_potential(random_potential(model, rng))
        for _ in range(30):
            g = random_element(model, rng)
            h = random_element(model, rng)
            assert leibniz_residual(d, g, h) == 0.0

    def test_truncated_harmonic_still_exact(self, h3):
        # truncation replaces phi by a finite table, so the Leibniz identity
        # holds exactly for the truncated derivation too
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=10)
        d = Derivation.from_potential(phi)
        rng = Random(44)
        for _ in range(10):
            g = random_element(h3, rng, max_len=4)
            h = random_element(h3, rng, max_len=4)
            assert leibniz_residual(d, g, h) == 0.0


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
        x = delta(h3.element((1, 0, 0))) + delta(h3.element((0, 1, 2)), Fraction(1, 2))
        d = Derivation.inner(x)
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
        d = Derivation.from_potential(Potential(h3, {}))
        max_norm, argmax = g_boundedness_probe(d, h3, radius=2, p=2)
        assert max_norm == 0.0

    def test_inner_delta_ap_stabilises(self, h3):
        d = Derivation.inner(delta(h3.element((1, 0, 0))))
        for p in (1, 2, 3):
            max_norm, _ = g_boundedness_probe(d, h3, radius=3, p=p)
            assert max_norm == pytest.approx(2 ** (1 / p), rel=1e-12)

    def test_memoised_probe_matches_direct(self, h3):
        rng = Random(48)
        phi = random_potential(h3, rng, size=3, max_len=3)
        d = Derivation.from_potential(phi)
        max_norm, argmax = g_boundedness_probe(d, h3, radius=2, p=2)
        direct = max(
            (d.apply(g).lp_norm(2) for g in h3.cayley_ball(2)),
        )
        assert max_norm == pytest.approx(direct, rel=1e-12)
        assert d.apply(argmax).lp_norm(2) == pytest.approx(max_norm, rel=1e-12)

    def test_p_inf_is_max_sup_norm(self, h3):
        phi = Potential(h3, {h3.element((1, 0, 0)): 3, h3.element((1, 0, 1)): Fraction(1, 2)})
        d = Derivation.from_potential(phi)
        max_norm, argmax = g_boundedness_probe(d, h3, radius=2, p=math.inf)
        assert max_norm == max(d.apply(g).sup_norm() for g in h3.cayley_ball(2)) == 3.0
        assert d.apply(argmax).sup_norm() == max_norm

    def test_p_nan_rejected(self, h3):
        d = Derivation.from_potential(Potential(h3, {h3.element((1, 0, 0)): 1}))
        with pytest.raises(UsageError):
            g_boundedness_probe(d, h3, radius=1, p=math.nan)


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


class TestEdgeJump:
    def test_zero_potential(self, h3):
        ball = explore_component(h3, h3.element((1, 0, 0)), radius=4)
        count, witnesses = edge_jump_probe(Potential(h3, {}), ball, Fraction(1, 2))
        assert count == 0 and witnesses == []

    def test_harmonic_jumps_at_support(self, h3):
        base = h3.element((1, -1, -1))
        ball = explore_component(h3, base, radius=4)
        phi = Potential(h3, {}, closed_form="appendix_harmonic", trunc_k=50)
        count, witnesses = edge_jump_probe(phi, ball, Fraction(1, 2))
        # exactly the two pairs adjacent to the single support vertex
        assert count == 2
        assert all(base in (w[0], w[1]) for w in witnesses)

    def test_step_function_single_jump(self, h3):
        base = h3.element((1, 0, 0))
        ball = explore_component(h3, base, radius=4)
        table = {v: Fraction(1) for v in ball.vertices if v.payload[2] >= 0}
        phi = Potential(h3, table)
        count, witnesses = edge_jump_probe(phi, ball, Fraction(1, 2))
        assert count == 1
        pair = {witnesses[0][0], witnesses[0][1]}
        assert pair == {h3.element((1, 0, 0)), h3.element((1, 0, -1))}

    def test_eps_must_be_positive(self, h3):
        ball = explore_component(h3, h3.identity(), radius=1)
        with pytest.raises(UsageError):
            edge_jump_probe(Potential(h3, {}), ball, 0)


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
