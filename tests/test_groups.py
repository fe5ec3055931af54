import itertools
import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import all_models, mat_inv, mat_mul, mat_of, triple_of, word_search


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
        n = word_search(h3, h3.element((0, 0, 1)), 4).length
        assert n == 1
        assert word_search(h3, h3.identity(), 4).length == 0

    def test_word_length_budget_sentinel(self, h3):
        far = h3.element((0, 9, 0))
        assert word_search(h3, far, 3).length == AtLeast(3)

    def test_node_budget_raises(self, h3):
        # 7 nodes fill radius 1; the 11th node crosses a budget of 10.
        # The goal search grows from both ends: the identity and its 6
        # neighbours, then the target's side (the smaller frontier), whose
        # 4th node, (-1, 9, 0), is the 11th and crosses the budget
        with pytest.raises(ResourceBudgetError, match="^cayley_ball node budget 10 exceeded$") as exc:
            h3.cayley_ball(3, node_budget=10)
        assert exc.value.partial_count == 11
        far = h3.element((0, 9, 0))
        assert word_search(h3, far, 5, node_budget=10).cut == 11
        # a meet is checked before the budget: the target (0, 1, 1) reaches
        # A1, on the identity's side, with its 2nd neighbour (0, 0, 1)
        eleventh = list(h3.cayley_ball(2))[10]
        found = word_search(h3, eleventh, 5, node_budget=10)
        assert (found.length, found.cut) == (2, None)


# ---------------------------------------------------------------------------
# Free groups

free_letters = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))


def reduce_letters(word):
    """Free reduction, one letter at a time."""
    out = []
    for i, s in word:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


class TestFree:
    def test_free_reduction(self):
        f2 = FreeGroup(2)
        w = parse_word(f2, "x1.x1^-1.x2")
        assert f2.normal_form(w) == f2.decode("x2")

    def test_word_length_reduced(self):
        f2 = FreeGroup(2)
        g = f2.normal_form(parse_word(f2, "x1.x2.x1^-1"))
        assert word_search(f2, g, 5).length == 3

    def test_ball_radius_one(self):
        f2 = FreeGroup(2)
        assert len(f2.cayley_ball(1)) == 5

    def test_rejects_unreduced_encoding(self):
        f2 = FreeGroup(2)
        with pytest.raises(UsageError):
            f2.decode("x1.x1^-1")

    @pytest.mark.parametrize("text", ["x1.x1^-1", "x2.x1^-1.x1.x2", "x1^-1.x2.x2^-1"])
    def test_unreduced_encoding_message(self, text):
        with pytest.raises(UsageError) as exc:
            FreeGroup(2).decode(text)
        assert str(exc.value) == f"encoding {text!r} is not a reduced word"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(free_letters, max_size=8), st.lists(free_letters, max_size=8))
    def test_product_cancels_at_the_junction(self, w1, w2):
        # on reduced words, the product equals the word reduced letter by letter
        f3 = FreeGroup(3)
        p1, p2 = reduce_letters(w1), reduce_letters(w2)
        assert f3.mul_payload(p1, p2) == reduce_letters(p1 + p2)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(free_letters, min_size=1, max_size=6))
    def test_decode_accepts_exactly_the_reduced_words(self, word):
        f3 = FreeGroup(3)
        text = ".".join(f"x{i + 1}" + ("^-1" if s < 0 else "") for i, s in word)
        if reduce_letters(word) == tuple(word):
            assert f3.decode(text).payload == tuple(word)
        else:
            with pytest.raises(UsageError, match="is not a reduced word"):
                f3.decode(text)


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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.text("ab", max_size=12), st.text("ab", max_size=12),
           st.integers(0, 1), st.integers(0, 1))
    def test_products_match_a_full_reduction(self, raw1, raw2, e1, e2):
        # the models cancel at the junction only; this reducer rescans the
        # whole concatenation, one letter at a time
        def reduce(w):
            out = []
            for ch in w:
                if out and out[-1] == ch:
                    out.pop()
                else:
                    out.append(ch)
            return "".join(out)

        w1, w2 = reduce(raw1), reduce(raw2)
        assert DihedralInf().mul_payload(w1, w2) == reduce(w1 + w2)
        swapped = w2.translate(str.maketrans("ab", "ba")) if e1 else w2
        assert (get_model("dsemi").mul_payload((w1, e1), (w2, e2))
                == (reduce(w1 + swapped), (e1 + e2) % 2))
        if raw1 != w1:
            with pytest.raises(UsageError, match="not an alternating word"):
                DihedralInf().decode(raw1)
            with pytest.raises(UsageError, match="not an alternating word"):
                get_model("dsemi").decode(raw1 + ";c")


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


# ---------------------------------------------------------------------------
# The two swap extensions dsemi, h3semi and their product, pinned byte for byte


# text -> (payload, encoding) of what decode gives, or the exact UsageError
SWAP_CODEC = {
    "dsemi": {
        "c": (("", 1), "e;c"),
        "e;c": (("", 1), "e;c"),
        "bac": (("ba", 1), "ba;c"),
        "ba;c": (("ba", 1), "ba;c"),
        "ab": (("ab", 0), "ab"),
        "H3(0,1,0);c": "bad dinf element encoding: 'H3(0,1,0)'",
        "(bac|c)": "bad dinf element encoding: '(bac|c)'",
        ";c": "bad dinf element encoding: ''",
        "cc": "bad dinf element encoding: 'c'",
        "aac": "encoding 'aa' is not an alternating word",
        "H3(1,0,0)c": "bad dinf element encoding: 'H3(1,0,0)'",
    },
    "h3semi": {
        "c": (((0, 0, 0), 1), "H3(0,0,0);c"),
        "e;c": (((0, 0, 0), 1), "H3(0,0,0);c"),
        "H3(0,1,0);c": (((0, 1, 0), 1), "H3(0,1,0);c"),
        "e": (((0, 0, 0), 0), "H3(0,0,0)"),
        "bac": "bad H3 element encoding: 'bac'",
        "ba;c": "bad H3 element encoding: 'ba'",
        "(bac|c)": "bad H3 element encoding: '(bac|c)'",
        ";c": "bad H3 element encoding: ''",
        "cc": "bad H3 element encoding: 'cc'",
        "aac": "bad H3 element encoding: 'aac'",
        "H3(1,0,0)c": "bad H3 element encoding: 'H3(1,0,0)c'",
    },
    "dsemi*h3semi": {
        "(bac|c)": ((("ba", 1), ((0, 0, 0), 1)), "(ba;c|H3(0,0,0);c)"),
        "(e;c|H3(0,1,0);c)": ((("", 1), ((0, 1, 0), 1)), "(e;c|H3(0,1,0);c)"),
        "(ba;c|e)": ((("ba", 1), ((0, 0, 0), 0)), "(ba;c|H3(0,0,0))"),
        "c": "bad product encoding: 'c'",
        "bac": "bad product encoding: 'bac'",
        "(;c|c)": "bad dinf element encoding: ''",
        "(cc|c)": "bad dinf element encoding: 'c'",
        "(aac|c)": "encoding 'aa' is not an alternating word",
        "(a|H3(1,0,0)c)": "bad H3 element encoding: 'H3(1,0,0)c'",
        "(c|;c)": "bad H3 element encoding: ''",
    },
}

SWAP_GENERATORS = {
    "dsemi": [("a", ("a", 0)), ("b", ("b", 0)), ("c", ("", 1))],
    "h3semi": [("Ax", ((0, 1, 0), 0)), ("Ap", ((1, 0, 0), 0)),
               ("A1", ((0, 0, 1), 0)), ("c", ((0, 0, 0), 1))],
}


def _swap_ab(w):
    return w.translate(str.maketrans("ab", "ba"))


def _swap_h3(t):
    a, b, c = t
    return (b, a, a * b - c)


@pytest.mark.parametrize("name", SWAP_CODEC)
def test_swap_extension_codec_is_pinned(name):
    m = get_model(name)
    for text, want in SWAP_CODEC[name].items():
        if isinstance(want, str):
            with pytest.raises(UsageError, match="^" + re.escape(want) + "$"):
                m.decode(text)
        else:
            g = m.decode(text)
            assert (g.payload, g.encode()) == want, text
            assert m.decode(g.encode()) == g


def test_swap_extension_generator_tables_are_pinned():
    for name, gens in SWAP_GENERATORS.items():
        assert list(get_model(name).generator_payloads().items()) == gens
    product = list(get_model("dsemi*h3semi").generator_payloads().items())
    assert product == (
        [("l." + gid, (p, ((0, 0, 0), 0))) for gid, p in SWAP_GENERATORS["dsemi"]]
        + [("r." + gid, (("", 0), p)) for gid, p in SWAP_GENERATORS["h3semi"]])


@pytest.mark.parametrize("name", ["dsemi", "h3semi", "dsemi*h3semi"])
def test_c_conjugation_is_the_swap(name):
    # c (t c^e) c = sigma(t) c^e, with sigma written out from the defining
    # relations: a <-> b on dinf words, (a, b, c) -> (b, a, ab - c) on H3
    m = get_model(name)
    sigma = {"dsemi": _swap_ab, "h3semi": _swap_h3}
    factors = name.split("*")
    c = m.decode("c" if len(factors) == 1 else "(c|c)")
    for x in m.cayley_ball(2):
        parts = [x.payload] if len(factors) == 1 else x.payload
        want = tuple((sigma[f](t), e) for f, (t, e) in zip(factors, parts))
        assert (c * x * c).payload == (want[0] if len(factors) == 1 else want)


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

    def test_parse_word_reads_product_ids(self):
        assert parse_word(get_model("h3*dinf"), "l.Ax") == (G("l.Ax"),)
        m = get_model("h3*dinf*free2")
        w = parse_word(m, "r.r.x1^-1.l.Ap")
        assert w == (G("r.r.x1", True), G("l.Ap"))
        assert m.normal_form(w).encode() == "(H3(1,0,0)|(e|x1^-1))"
        for text, gid in [("l", "l"), ("r.r", "r.r"), ("l.x1", "l.x1"),
                          ("r.l.c", "r.l.c"), ("l.Ax.r", "r")]:
            with pytest.raises(UsageError, match=re.escape(f"generator {gid!r} ")):
                parse_word(m, text)


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


MODELS = all_models()


@st.composite
def translates(draw):
    """A model, a few of its payloads and one more, each a random word's
    normal form."""
    model = draw(st.sampled_from(MODELS))
    word = st.lists(st.sampled_from(model.all_gens()), max_size=8)
    payloads = [model.normal_form(w).payload for w in draw(st.lists(word, max_size=6))]
    return model, payloads, model.normal_form(draw(word)).payload


@settings(max_examples=150, derandomize=True, deadline=None)
@given(translates())
def test_mul_all_is_mul_payload_term_for_term(case):
    model, payloads, gp = case
    mul = model.mul_payload
    assert model.mul_all(payloads, gp) == [mul(s, gp) for s in payloads]
    assert model.mul_all(payloads, gp, left=True) == [mul(gp, s) for s in payloads]


triples = st.tuples(*[st.integers(-10**20, 10**20)] * 3)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(triples, max_size=6), triples)
def test_h3_mul_all_matches_the_matrix_oracle(payloads, gp):
    h3 = Heisenberg()
    g = mat_of(gp)
    assert h3.mul_all(payloads, gp) == [triple_of(mat_mul(mat_of(s), g)) for s in payloads]
    assert h3.mul_all(payloads, gp, left=True) == [
        triple_of(mat_mul(g, mat_of(s))) for s in payloads]


# three draws from Random(7) per model, then the generator's next draw
PINNED_DRAWS = {
    "h3": (["H3(-1,-1,0)", "H3(1,3,1)", "H3(0,1,1)"], 90122),
    "free2": (["x1^-1.x2^-1", "x1.x1.x1.x2.x1", "x1.x2^-1"], 438485),
    "dinf": (["ab", "aba", "ab"], 438485),
    "dsemi": (["ab", "ba;c", "a;c"], 90122),
    "h3semi": (["H3(1,0,0);c", "H3(0,0,-1)", "H3(-1,0,0);c"], 438485),
    "h3*dinf": (["(H3(1,0,0)|a)", "(H3(0,-1,-1)|b)", "(H3(-1,2,-1)|b)"], 90122),
}


@pytest.mark.parametrize("name", PINNED_DRAWS)
def test_random_element_draws_are_pinned(name):
    # the seeded commands (leibniz, quasi-inner) print what these draws give
    model, rng = get_model(name), Random(7)
    encodings, next_draw = PINNED_DRAWS[name]
    assert [random_element(model, rng).encode() for _ in range(3)] == encodings
    assert rng.randrange(10**6) == next_draw


def test_model_mismatch_rejected(h3):
    f2 = FreeGroup(2)
    with pytest.raises(ModelMismatchError):
        h3.multiply(h3.identity(), f2.identity())


def test_unknown_generator_rejected(h3):
    with pytest.raises(UsageError):
        h3.normal_form((G("z"),))
    with pytest.raises(UsageError):
        parse_word(h3, "Ax.z")
    # outside a product, 'l' is a token like any other
    with pytest.raises(UsageError, match="generator 'l' "):
        parse_word(h3, "l.Ax")


def test_get_model_names():
    assert get_model("h3").name == "h3"
    assert get_model("free3").rank == 3
    assert get_model("h3*dinf").name == "h3*dinf"
    with pytest.raises(UsageError):
        get_model("nope")


def test_get_model_products_nest_to_the_right():
    m = get_model("h3*dinf*free2")
    assert m.name == "h3*dinf*free2"
    assert m.left.name == "h3" and m.right.name == "dinf*free2"
    assert m.right.right.name == "free2"
    with pytest.raises(UsageError, match="'nope'"):
        get_model("h3*nope*dinf")


def test_get_model_caps_product_factors():
    # 64 factors still multiply (payload arithmetic recurses once per factor)
    m = get_model("*".join(["h3"] * 64))
    g = random_element(m, Random(7))
    assert m.decode((g * g.inverse()).encode()) == m.identity()
    # a name of 3001 factors is refused before anything recurses
    with pytest.raises(UsageError, match="at most 64 factors"):
        get_model("*".join(["h3"] * 3001))
