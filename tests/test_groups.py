import itertools
from random import Random

import pytest

from conjlab import (
    AtLeast,
    DihedralInf,
    DirectProduct,
    FreeGroup,
    Generator,
    Heisenberg,
    ModelMismatchError,
    ResourceBudgetError,
    UsageError,
    get_model,
    parse_word,
)
from conjlab.sampling import random_element

from conftest import mat_inv, mat_mul, mat_of, triple_of


def G(gid, inv=False):
    return Generator(gid, inv)


# ---------------------------------------------------------------------------
# Heisenberg group vs the matrix oracle


class TestHeisenberg:
    def test_commutator_relation(self, h3):
        Ap = h3.decode("H3(1,0,0)")
        Ax = h3.decode("H3(0,1,0)")
        A1 = h3.decode("H3(0,0,1)")
        assert Ap * Ax == (Ax * Ap) * A1

    def test_matrix_oracle_random(self, h3):
        rng = Random(1)
        for _ in range(500):
            p1 = tuple(rng.randint(-3, 3) for _ in range(3))
            p2 = tuple(rng.randint(-3, 3) for _ in range(3))
            a, b = h3.element(p1), h3.element(p2)
            assert (a * b).payload == triple_of(mat_mul(mat_of(p1), mat_of(p2)))
            assert a.inverse().payload == triple_of(mat_inv(mat_of(p1)))

    def test_conjugate_matches_matrices(self, h3):
        rng = Random(2)
        for _ in range(200):
            pg = tuple(rng.randint(-3, 3) for _ in range(3))
            ph = tuple(rng.randint(-3, 3) for _ in range(3))
            got = h3.conjugate(h3.element(pg), h3.element(ph)).payload
            want = triple_of(
                mat_mul(mat_mul(mat_of(pg), mat_of(ph)), mat_inv(mat_of(pg)))
            )
            assert got == want

    def test_central_shift_conjugation_rule(self, h3):
        # Ax (Ap A1^k) Ax^-1 = Ap A1^(k-1)
        Ax = h3.element((0, 1, 0))
        for k in range(-4, 5):
            assert h3.conjugate(Ax, h3.element((1, 0, k))) == h3.element((1, 0, k - 1))

    def test_word_length_of_central_generator(self, h3):
        # A1 is itself a generator here, so its geodesic length is 1
        n = h3.word_length(h3.element((0, 0, 1)), budget=4)
        assert n == 1
        assert h3.word_length(h3.identity(), budget=4) == 0

    def test_word_length_budget_sentinel(self, h3):
        far = h3.element((0, 9, 0))
        assert h3.word_length(far, budget=3) == AtLeast(3)

    def test_node_budget_raises(self, h3):
        # 7 nodes fill radius 1; the 11th node crosses a budget of 10
        with pytest.raises(ResourceBudgetError, match="^cayley_ball node budget 10 exceeded$") as exc:
            h3.cayley_ball(3, node_budget=10)
        assert exc.value.partial_count == 11
        far = h3.element((0, 9, 0))
        with pytest.raises(ResourceBudgetError, match="^word_length node budget 10 exceeded$") as exc:
            h3.word_length(far, budget=5, node_budget=10)
        assert exc.value.partial_count == 11
        # the node crossing the budget is still found as a target
        eleventh = list(h3.cayley_ball(2))[10]
        assert h3.word_length(eleventh, budget=5, node_budget=10) == 2


# ---------------------------------------------------------------------------
# Free groups


class TestFree:
    def test_free_reduction(self):
        f2 = FreeGroup(2)
        w = parse_word(f2, "x1.x1^-1.x2")
        assert f2.normal_form(w) == f2.decode("x2")

    def test_word_length_reduced(self):
        f2 = FreeGroup(2)
        g = f2.normal_form(parse_word(f2, "x1.x2.x1^-1"))
        assert f2.word_length(g, budget=5) == 3

    def test_ball_radius_one(self):
        f2 = FreeGroup(2)
        assert len(f2.cayley_ball(1)) == 5

    def test_rejects_unreduced_encoding(self):
        f2 = FreeGroup(2)
        with pytest.raises(UsageError):
            f2.decode("x1.x1^-1")


# ---------------------------------------------------------------------------
# Dihedral-type models


class TestDihedral:
    def test_involution_relations(self):
        d = DihedralInf()
        a, b = d.decode("a"), d.decode("b")
        assert (a * a).is_identity() and (b * b).is_identity()

    def test_normal_form_example(self):
        d = DihedralInf()
        assert d.normal_form(parse_word(d, "a.a.b")) == d.decode("b")

    def test_invert_ab_brute_force(self):
        # oracle: search the word ball for the word w with (ab) * w = e
        d = DihedralInf()
        ab = d.decode("ab")
        found = None
        for length in range(0, 4):
            for letters in itertools.product([d.decode("a"), d.decode("b")], repeat=length):
                w = d.identity()
                for x in letters:
                    w = w * x
                if (ab * w).is_identity():
                    found = w
                    break
            if found is not None:
                break
        assert found == d.decode("ba")
        assert ab.inverse() == found

    def test_ball_radius_two(self):
        d = DihedralInf()
        ball = d.cayley_ball(2)
        assert {g.encode() for g in ball} == {"e", "a", "b", "ab", "ba"}

    def test_semidirect_relations(self):
        ds = get_model("dsemi")
        a, b, c = (ds.decode(s) for s in "abc")
        assert (a * a).is_identity() and (b * b).is_identity() and (c * c).is_identity()
        assert c * a * c == b

    def test_semidirect_encoding(self):
        ds = get_model("dsemi")
        c = ds.decode("c")
        assert c.encode() == "e;c"
        assert ds.decode("e;c") == c
        assert ds.decode("bac").encode() == "ba;c"


class TestHeisenbergSemidirect:
    def test_relations(self):
        m = get_model("h3semi")
        c = m.decode("c")
        Ap = m.decode("H3(1,0,0)")
        Ax = m.decode("H3(0,1,0)")
        A1 = m.decode("H3(0,0,1)")
        assert (c * c).is_identity()
        assert c * Ap * c == Ax
        assert c * Ax * c == Ap
        assert c * A1 * c == A1.inverse()

    def test_conjugate_example(self):
        m = get_model("h3semi")
        assert m.conjugate(m.decode("c"), m.decode("H3(0,1,0)")) == m.decode("H3(1,0,0)")


class TestDirectProduct:
    def test_componentwise(self):
        m = DirectProduct(Heisenberg(), DihedralInf())
        g = m.decode("(H3(1,0,0)|ab)")
        h = m.decode("(H3(0,1,0)|b)")
        assert (g * h).encode() == "(H3(1,1,1)|a)"

    def test_generators_embed(self):
        m = DirectProduct(Heisenberg(), DihedralInf())
        gl = m.generator_element(G("l.Ap"))
        gr = m.generator_element(G("r.a"))
        assert gl * gr == gr * gl


# ---------------------------------------------------------------------------
# Cross-model algebraic laws


def test_identity_law(model):
    rng = Random(3)
    e = model.identity()
    for _ in range(20):
        g = random_element(model, rng)
        assert e * g == g and g * e == g


def test_associativity_random(model):
    rng = Random(4)
    for _ in range(1000):
        a = random_element(model, rng, max_len=4)
        b = random_element(model, rng, max_len=4)
        c = random_element(model, rng, max_len=4)
        assert (a * b) * c == a * (b * c)


def test_inverse_laws(model):
    rng = Random(5)
    for _ in range(200):
        a = random_element(model, rng)
        assert (a * a.inverse()).is_identity()
        assert a.inverse().inverse() == a


def test_conjugation_inverts(model):
    rng = Random(6)
    for _ in range(200):
        g = random_element(model, rng)
        h = random_element(model, rng)
        assert model.conjugate(g, model.conjugate(g.inverse(), h)) == h


def test_normal_form_idempotent(model):
    rng = Random(7)
    gens = model.all_gens()
    for _ in range(200):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 20)))
        g = model.normal_form(word)
        # re-multiplying the canonical element's own encoding round-trips
        assert model.decode(g.encode()) == g
        # folding the word a second time from the canonical form is stable
        assert model.normal_form(word) == g


def test_encoding_injective(model):
    ball = model.cayley_ball(3, node_budget=20000)
    encs = [g.encode() for g in ball]
    assert len(set(encs)) == len(encs)
    for g in ball:
        assert model.decode(g.encode()) == g


def test_model_mismatch_rejected(h3):
    f2 = FreeGroup(2)
    with pytest.raises(ModelMismatchError):
        h3.multiply(h3.identity(), f2.identity())


def test_unknown_generator_rejected(h3):
    with pytest.raises(UsageError):
        h3.normal_form((G("z"),))
    with pytest.raises(UsageError):
        parse_word(h3, "Ax.z")


def test_get_model_names():
    assert get_model("h3").name == "h3"
    assert get_model("free3").rank == 3
    assert get_model("h3*dinf").name == "h3*dinf"
    with pytest.raises(UsageError):
        get_model("nope")
